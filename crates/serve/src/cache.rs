//! The content-addressed result cache: canonical job spec → rendered result JSON.
//!
//! Entries are the exact bytes served to clients ([`std::sync::Arc<String>`]), so a cache
//! hit is byte-identical to the original response. It is the workspace's one LRU map,
//! [`tsc3d::exec::LruCache`], with every entry weighing 1, so its budget is the
//! configured entry capacity (`--cache-cap`); a capacity of 0 disables caching entirely
//! (every submission executes, in-flight dedup still applies).

use std::sync::Arc;

/// A bounded LRU map from canonical job keys to rendered result bodies; insert every
/// entry with weight 1.
pub type ResultCache = tsc3d::exec::LruCache<Arc<str>, Arc<String>>;
