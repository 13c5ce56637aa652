//! A bounded least-recently-used map shared across threads, with a weight per entry.
//!
//! Two process-wide caches use it: the serve daemon's result cache (canonical job spec →
//! rendered result bytes, every entry weighing 1, so the budget is an entry count) and
//! the sca attack's kernel memo (floorplan and sensor geometry → extracted kernel,
//! weighed in bytes). Eviction drops least-recently-used entries until the held weight
//! fits the budget again. An entry heavier than the whole budget is never held, so a
//! budget of 0 disables the cache.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

struct Entry<V> {
    value: V,
    weight: usize,
    last_used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Sum of the held entries' weights.
    weight: usize,
    tick: u64,
}

impl<K: Hash + Eq, V> Inner<K, V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Inserts `key` as the most recently used entry, replacing any entry it had, then
    /// evicts least-recently-used entries until the held weight fits `budget`. The new
    /// entry has the newest tick and fits on its own, so it is never evicted.
    fn insert(&mut self, key: K, value: V, weight: usize, budget: usize) {
        let last_used = self.next_tick();
        let entry = Entry {
            value,
            weight,
            last_used,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.weight -= old.weight;
        }
        self.weight += weight;
        while self.weight > budget {
            let oldest = self
                .map
                .values()
                .map(|e| e.last_used)
                .min()
                .expect("an over-budget map is non-empty");
            // Ticks are unique, so this removes exactly the oldest entry.
            let mut freed = 0;
            self.map.retain(|_, e| {
                let keep = e.last_used != oldest;
                if !keep {
                    freed = e.weight;
                }
                keep
            });
            self.weight -= freed;
        }
    }
}

/// A bounded LRU map whose entries each weigh a caller-given amount against a fixed
/// budget.
pub struct LruCache<K, V> {
    budget: usize,
    inner: Mutex<Inner<K, V>>,
}

impl<K, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("cache");
        f.debug_struct("LruCache")
            .field("budget", &self.budget)
            .field("len", &inner.map.len())
            .field("weight", &inner.weight)
            .finish()
    }
}

impl<K: Hash + Eq, V: Clone> LruCache<K, V> {
    /// An empty cache holding entries of at most `budget` total weight.
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                weight: 0,
                tick: 0,
            }),
        }
    }

    /// Number of held entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of the held entries (never above the budget).
    pub fn weight(&self) -> usize {
        self.inner.lock().expect("cache").weight
    }

    /// Looks up an entry and marks it most recently used.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock().expect("cache");
        let tick = inner.next_tick();
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.value.clone())
    }

    /// Inserts (or replaces) an entry of the given weight as the most recently used one,
    /// evicting least-recently-used entries beyond the budget. An entry heavier than the
    /// budget is not held.
    pub fn insert(&self, key: K, value: V, weight: usize) {
        if weight > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("cache");
        inner.insert(key, value, weight, self.budget);
    }

    /// Returns the entry held for `key`, marked most recently used, when there is one;
    /// otherwise inserts `value` as [`LruCache::insert`] does and returns it. Of two
    /// racing callers with the same key, the first to insert wins and both get its value.
    pub fn get_or_insert(&self, key: K, value: V, weight: usize) -> V {
        let mut inner = self.inner.lock().expect("cache");
        let tick = inner.next_tick();
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            return entry.value.clone();
        }
        if weight <= self.budget {
            inner.insert(key, value.clone(), weight, self.budget);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn arc(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let cache = LruCache::<Arc<str>, Arc<String>>::new(2);
        cache.insert("a".into(), arc("ra"), 1);
        cache.insert("b".into(), arc("rb"), 1);
        assert_eq!(cache.get("a").as_deref().map(String::as_str), Some("ra"));
        // "b" is now the least recently used and gets evicted by the third insert.
        cache.insert("c".into(), arc("rc"), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = LruCache::<Arc<str>, Arc<String>>::new(0);
        cache.insert("a".into(), arc("ra"), 1);
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        assert_eq!(cache.get_or_insert("a".into(), arc("ra"), 1).as_str(), "ra");
        assert!(cache.is_empty());
    }

    #[test]
    fn weighted_eviction_keeps_the_held_weight_within_the_budget() {
        let cache = LruCache::<u32, u32>::new(10);
        cache.insert(1, 1, 4);
        cache.insert(2, 2, 4);
        assert_eq!(cache.weight(), 8);
        assert_eq!(cache.get(&1), Some(1));
        // 8 + 5 > 10: the least recently used entry (2) goes, leaving 1 and 3 (4 + 5).
        cache.insert(3, 3, 5);
        assert_eq!((cache.get(&2), cache.weight(), cache.len()), (None, 9, 2));
        // Replacing an entry re-weighs it; an entry heavier than the budget is not held.
        cache.insert(1, 10, 1);
        assert_eq!((cache.get(&1), cache.weight()), (Some(10), 6));
        cache.insert(4, 4, 11);
        assert_eq!((cache.get(&4), cache.weight()), (None, 6));
        // One entry may fill the whole budget, evicting every other.
        cache.insert(5, 5, 10);
        assert_eq!((cache.len(), cache.weight()), (1, 10));
    }

    #[test]
    fn get_or_insert_keeps_the_first_value() {
        let cache = LruCache::<u32, Arc<String>>::new(4);
        let first = cache.get_or_insert(1, arc("first"), 1);
        let second = cache.get_or_insert(1, arc("second"), 1);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.get(&1).as_deref().map(String::as_str), Some("first"));
        assert_eq!(cache.weight(), 1);
    }
}
