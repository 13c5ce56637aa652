//! Deterministic fault injection: named sites, armed by a plan, for chaos tests.
//!
//! Every cooperative checkpoint in the workspace is a named *fault site*
//! (`"flow-stage"`, `"sa-epoch"`, `"solver-sweep"`, `"sca-batch"`,
//! `"exec-worker"`, …). When a [`FaultPlan`] is armed, the k-th time a site is
//! hit the planned [`FaultAction`] fires: a panic, an injected error, or a
//! delay (which, combined with a deadline token, manufactures a deterministic
//! deadline miss). Disarmed — the default — a check is a single relaxed atomic
//! load, the same off-cost discipline as `tsc3d-obs`.
//!
//! The harness is process-global (one plan at a time), mirroring how a real
//! chaos run arms the whole process. Tests that arm plans must serialize on
//! [`test_lock`] or live in their own integration-test binary.
//!
//! Determinism contract: a serial job hits its sites in a deterministic order,
//! but under a multi-worker pool *which* concurrent job absorbs the k-th global
//! hit of a shared site can vary, and a flow running a helper lane
//! ([`crate::lanes`]) interleaves its own `sa-epoch` and `solver-sweep` hits
//! across its two lanes (a speculative round's hits included). Chaos tests
//! therefore assert on what must hold regardless: every injected failure is
//! retried or quarantined typed, and the surviving results are byte-identical
//! to a fault-free run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The error a checkpoint returns when the plan injects a fault at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The fault site that fired.
    pub site: &'static str,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at site '{}'", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// What an armed fault does when its site/hit matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the checkpoint (exercises containment, supervision, and the
    /// campaign's panic-to-typed-failure conversion).
    Panic,
    /// Return an [`InjectedFault`] error (a typed transient failure).
    Error,
    /// Sleep this many milliseconds before continuing (drives deadline misses).
    Delay(u64),
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Error => write!(f, "error"),
            FaultAction::Delay(ms) => write!(f, "delay:{ms}"),
        }
    }
}

/// One armed fault: fire `action` at the `hit`-th visit (1-based) of `site`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The checkpoint site name the fault waits on.
    pub site: String,
    /// 1-based hit count at which the fault fires (each spec fires once).
    pub hit: u64,
    /// What happens when it fires.
    pub action: FaultAction,
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.hit, self.action)
    }
}

/// A set of [`FaultSpec`]s, parsed from the CLI plan syntax or derived from a
/// seed.
///
/// Plan syntax: comma-separated `site:hit:action` entries where `action` is
/// `panic`, `error`, or `delay:<ms>` — e.g.
/// `"flow-stage:3:panic,sca-batch:2:error,solver-sweep:5:delay:50"`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The armed faults; order is irrelevant (matching is by site and hit).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parses the CLI plan syntax (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed entry.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let mut parts = entry.splitn(3, ':');
            let site = parts
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("fault entry '{entry}': missing site"))?;
            let hit: u64 = parts
                .next()
                .ok_or_else(|| format!("fault entry '{entry}': missing hit count"))?
                .parse()
                .map_err(|_| format!("fault entry '{entry}': hit count is not a number"))?;
            if hit == 0 {
                return Err(format!("fault entry '{entry}': hit counts are 1-based"));
            }
            let action = match parts
                .next()
                .ok_or_else(|| format!("fault entry '{entry}': missing action"))?
            {
                "panic" => FaultAction::Panic,
                "error" => FaultAction::Error,
                delay if delay.starts_with("delay:") => {
                    let ms = delay["delay:".len()..]
                        .parse()
                        .map_err(|_| format!("fault entry '{entry}': bad delay milliseconds"))?;
                    FaultAction::Delay(ms)
                }
                other => {
                    return Err(format!(
                        "fault entry '{entry}': unknown action '{other}' \
                         (use panic, error, or delay:<ms>)"
                    ))
                }
            };
            specs.push(FaultSpec {
                site: site.to_string(),
                hit,
                action,
            });
        }
        if specs.is_empty() {
            return Err("fault plan is empty".to_string());
        }
        Ok(FaultPlan { specs })
    }

    /// Derives a plan from a seed: each `(site, action)` pair fires at a
    /// seed-dependent hit in `1..=max_hit`. Same seed, same plan — the chaos
    /// smoke's way of varying *where* faults land while staying reproducible.
    pub fn seeded(seed: u64, sites: &[(&str, FaultAction)], max_hit: u64) -> FaultPlan {
        let max_hit = max_hit.max(1);
        FaultPlan {
            specs: sites
                .iter()
                .map(|(site, action)| FaultSpec {
                    site: site.to_string(),
                    hit: splitmix64(seed ^ fnv1a(site.as_bytes())) % max_hit + 1,
                    action: *action,
                })
                .collect(),
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

/// One fault that actually fired, in firing order — the fault log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The site that fired.
    pub site: String,
    /// The hit count it fired at.
    pub hit: u64,
    /// The action that ran.
    pub action: FaultAction,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.hit, self.action)
    }
}

/// Everything behind the armed flag: hit counters, pending specs, fired log.
struct HarnessState {
    counters: HashMap<String, u64>,
    pending: Vec<FaultSpec>,
    fired: Vec<FaultRecord>,
}

/// Fast-path gate: [`check`] is a single relaxed load of this while disarmed.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<HarnessState>> = Mutex::new(None);

/// Serializes tests (or embedded harness users) that arm fault plans: the
/// harness is process-global, so two concurrently armed plans would corrupt
/// each other's hit counts. Hold the guard across `arm`..`disarm`.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A previous chaos test panicking (deliberately!) while holding the lock
    // poisons it; the harness state itself is re-armed per test, so continuing
    // is sound.
    match LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Arms `plan`, replacing any previously armed plan and clearing counters and
/// the fired log.
pub fn arm(plan: FaultPlan) {
    let mut state = lock_state();
    *state = Some(HarnessState {
        counters: HashMap::new(),
        pending: plan.specs,
        fired: Vec::new(),
    });
    ARMED.store(true, Ordering::Release);
}

/// Disarms the harness and returns the fired log (empty if it was not armed).
pub fn disarm() -> Vec<FaultRecord> {
    let mut state = lock_state();
    ARMED.store(false, Ordering::Release);
    state.take().map(|s| s.fired).unwrap_or_default()
}

/// The faults fired so far, in firing order, without disarming.
pub fn fired() -> Vec<FaultRecord> {
    lock_state()
        .as_ref()
        .map(|s| s.fired.clone())
        .unwrap_or_default()
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

fn lock_state() -> MutexGuard<'static, Option<HarnessState>> {
    // An injected *panic* unwinds through a caller that may hold no locks of
    // ours (we always release before acting), but a user panic elsewhere could
    // still poison this mutex; the state is plain data, so continue.
    match STATE.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The fault hook every checkpoint calls (see also [`crate::fault_point!`]).
///
/// Disarmed: one relaxed atomic load. Armed: bumps the site's hit counter and
/// fires at most one matching spec — panicking, sleeping, or returning the
/// injected error. Each spec fires exactly once.
///
/// # Errors
///
/// [`InjectedFault`] when a matching spec's action is [`FaultAction::Error`].
///
/// # Panics
///
/// When a matching spec's action is [`FaultAction::Panic`] — deliberately: the
/// whole point is to exercise the caller's containment.
pub fn check(site: &'static str) -> Result<(), InjectedFault> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let action = {
        let mut guard = lock_state();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        let counter = state.counters.entry(site.to_string()).or_insert(0);
        *counter += 1;
        let hit = *counter;
        let Some(index) = state
            .pending
            .iter()
            .position(|spec| spec.site == site && spec.hit == hit)
        else {
            return Ok(());
        };
        let spec = state.pending.swap_remove(index);
        state.fired.push(FaultRecord {
            site: spec.site,
            hit,
            action: spec.action,
        });
        spec.action
        // Lock released here: the action runs (and possibly panics or sleeps)
        // without holding the harness state.
    };
    match action {
        FaultAction::Panic => panic!("injected fault: panic at site '{site}'"),
        FaultAction::Error => Err(InjectedFault { site }),
        FaultAction::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
    }
}

/// SplitMix64 — the workspace's standard seed mixer, local copy so the crate
/// stays dependency-light.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a, for folding site names into seeds.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checks_are_free_and_ok() {
        let _serial = test_lock();
        assert!(!is_armed());
        for _ in 0..10 {
            assert!(check("fault-test-anything").is_ok());
        }
    }

    #[test]
    fn plan_parse_roundtrips_and_rejects_garbage() {
        let text = "flow-stage:3:panic,sca-batch:2:error,solver-sweep:5:delay:50";
        let plan = FaultPlan::parse(text).expect("valid plan");
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(plan.specs[0].action, FaultAction::Panic);
        assert_eq!(plan.specs[2].action, FaultAction::Delay(50));
        assert_eq!(plan.to_string(), text);

        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("site:0:panic").is_err(), "1-based hits");
        assert!(FaultPlan::parse("site:x:panic").is_err());
        assert!(FaultPlan::parse("site:1:explode").is_err());
        assert!(FaultPlan::parse("site:1:delay:abc").is_err());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let sites = [("a", FaultAction::Panic), ("b", FaultAction::Error)];
        let one = FaultPlan::seeded(42, &sites, 5);
        let two = FaultPlan::seeded(42, &sites, 5);
        assert_eq!(one, two);
        for spec in &one.specs {
            assert!((1..=5).contains(&spec.hit));
        }
        assert_ne!(one, FaultPlan::seeded(43, &sites, 5));
    }

    #[test]
    fn faults_fire_at_the_kth_hit_exactly_once() {
        let _serial = test_lock();
        arm(FaultPlan::parse("fault-test-err:3:error").expect("plan"));
        assert!(check("fault-test-err").is_ok());
        assert!(check("fault-test-err").is_ok());
        assert_eq!(
            check("fault-test-err"),
            Err(InjectedFault {
                site: "fault-test-err"
            })
        );
        // The spec fired once; the 4th+ hits pass again.
        assert!(check("fault-test-err").is_ok());
        let log = disarm();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].site, "fault-test-err");
        assert_eq!(log[0].hit, 3);
        assert!(!is_armed());
        assert!(check("fault-test-err").is_ok());
    }

    #[test]
    fn injected_panics_unwind_and_are_logged() {
        let _serial = test_lock();
        arm(FaultPlan::parse("fault-test-panic:1:panic").expect("plan"));
        let outcome = std::panic::catch_unwind(|| check("fault-test-panic"));
        assert!(outcome.is_err(), "the panic action panics");
        assert_eq!(fired().len(), 1);
        disarm();
    }

    #[test]
    fn delay_faults_sleep_then_continue() {
        let _serial = test_lock();
        arm(FaultPlan::parse("fault-test-delay:1:delay:20").expect("plan"));
        let start = std::time::Instant::now();
        assert!(check("fault-test-delay").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(20));
        disarm();
    }
}
