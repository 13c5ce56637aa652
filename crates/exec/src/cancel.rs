//! Cooperative cancellation: a clonable [`CancelToken`] plus the unified
//! [`checkpoint`] every long-running stage polls at its natural boundary.
//!
//! The token is *cooperative*: nothing is interrupted preemptively. Work that
//! wants to be cancellable calls [`checkpoint`] (or [`CancelToken::check`]) at
//! boundaries where abandoning is cheap and state is consistent — an SA epoch,
//! a solver sweep window, a CPA trace chunk, a flow stage. Between checkpoints
//! the work is exactly the seeded deterministic computation it always was, so
//! cancellation can never perturb a run that completes: a job either finishes
//! byte-identically or returns a typed [`Interrupt`].
//!
//! Cost discipline matches `tsc3d-obs`: an un-cancelled token with no deadline
//! costs one relaxed atomic load per check.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::InjectedFault;

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// An explicit cancellation request (e.g. `DELETE /v1/jobs/{id}`).
    User,
    /// The token's deadline elapsed before the work finished.
    Deadline,
    /// The owning process is shutting down and is abandoning in-flight work.
    Shutdown,
}

impl CancelReason {
    /// Stable kebab-case tag, used as a metrics label and error kind.
    pub fn kind(self) -> &'static str {
        match self {
            CancelReason::User => "cancelled",
            CancelReason::Deadline => "deadline",
            CancelReason::Shutdown => "shutdown",
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::User => write!(f, "cancelled by request"),
            CancelReason::Deadline => write!(f, "deadline exceeded"),
            CancelReason::Shutdown => write!(f, "cancelled by shutdown"),
        }
    }
}

/// Shared-state encoding: 0 = live, otherwise a `CancelReason`.
const LIVE: u8 = 0;
const CANCELLED_USER: u8 = 1;
const CANCELLED_DEADLINE: u8 = 2;
const CANCELLED_SHUTDOWN: u8 = 3;

/// A clonable cooperative cancellation token with an optional deadline.
///
/// Clones share the cancelled flag: [`CancelToken::cancel`] on any clone is
/// observed by all of them. Deadlines are *per handle*: [`CancelToken::with_deadline`]
/// returns a handle whose checks also fail once the deadline passes, without
/// affecting siblings — so a retry loop can give every attempt a fresh
/// deadline over the same underlying cancel flag. Deadline expiry is detected
/// by reading the clock, never by writing the shared state, which keeps
/// sibling handles (and later attempts) unpoisoned.
///
/// [`CancelToken::child`] makes a token that also fires with its parent but can be
/// cancelled on its own, leaving the parent and its other children live.
///
/// The default token never fires; [`CancelToken::default`] and
/// [`CancelToken::new`] are equivalent.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
    deadline: Option<Instant>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A handle on the same cancel flag that additionally fails once `budget`
    /// has elapsed (from now). If this handle already carries a deadline the
    /// earlier of the two wins.
    pub fn with_deadline(&self, budget: Duration) -> CancelToken {
        let candidate = Instant::now() + budget;
        CancelToken {
            state: Arc::clone(&self.state),
            deadline: Some(match self.deadline {
                Some(existing) => existing.min(candidate),
                None => candidate,
            }),
            parent: self.parent.clone(),
        }
    }

    /// A token with a cancel flag of its own that also fires whenever this
    /// handle does (its flag or its deadline). Cancelling the child leaves this
    /// token and its other children live — how a flow stops speculative work
    /// without touching the job's token.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            state: Arc::new(AtomicU8::new(LIVE)),
            deadline: None,
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Cancels every handle sharing this token's flag. The first reason wins;
    /// later calls (any reason) are no-ops.
    pub fn cancel(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::User => CANCELLED_USER,
            CancelReason::Deadline => CANCELLED_DEADLINE,
            CancelReason::Shutdown => CANCELLED_SHUTDOWN,
        };
        let _ = self
            .state
            .compare_exchange(LIVE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Why this handle is cancelled, or `None` while it is live.
    ///
    /// One relaxed atomic load when no deadline is set; a deadline adds one
    /// clock read, and each parent of a [`CancelToken::child`] its own check.
    pub fn is_cancelled(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::Relaxed) {
            LIVE => match self.deadline {
                Some(deadline) if Instant::now() >= deadline => Some(CancelReason::Deadline),
                _ => self
                    .parent
                    .as_ref()
                    .and_then(|parent| parent.is_cancelled()),
            },
            CANCELLED_USER => Some(CancelReason::User),
            CANCELLED_DEADLINE => Some(CancelReason::Deadline),
            _ => Some(CancelReason::Shutdown),
        }
    }

    /// [`CancelToken::is_cancelled`] as a `Result`, for `?`-style checkpoints.
    ///
    /// # Errors
    ///
    /// The [`CancelReason`] once the token is cancelled or its deadline passed.
    pub fn check(&self) -> Result<(), CancelReason> {
        match self.is_cancelled() {
            None => Ok(()),
            Some(reason) => Err(reason),
        }
    }

    /// The instant this handle's deadline fires, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Why a cooperative [`checkpoint`] aborted the work: a real cancellation or
/// an injected fault from the chaos harness ([`crate::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The [`CancelToken`] fired (user request, deadline, or shutdown).
    Cancelled(CancelReason),
    /// The fault plan injected an error at this site.
    Fault(InjectedFault),
}

impl Interrupt {
    /// Stable kebab-case tag: `cancelled`, `deadline`, `shutdown`, or
    /// `fault-injected` — the vocabulary error kinds and retry policies use.
    pub fn kind(self) -> &'static str {
        match self {
            Interrupt::Cancelled(reason) => reason.kind(),
            Interrupt::Fault(_) => "fault-injected",
        }
    }
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled(reason) => write!(f, "{reason}"),
            Interrupt::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// The unified cooperative checkpoint: first the fault harness (which may
/// panic, sleep, or return an injected error for `site`), then the token.
///
/// An injected delay runs *before* the cancel check, so a delay fault combined
/// with a deadline token deterministically surfaces as
/// `Interrupt::Cancelled(Deadline)` at the same checkpoint — the harness's way
/// of manufacturing a deadline miss.
///
/// Off cost (fault harness disarmed, token live, no deadline): two relaxed
/// atomic loads.
///
/// # Errors
///
/// [`Interrupt::Fault`] if the armed fault plan injects an error here,
/// [`Interrupt::Cancelled`] if the token fired.
pub fn checkpoint(site: &'static str, cancel: &CancelToken) -> Result<(), Interrupt> {
    crate::fault::check(site).map_err(Interrupt::Fault)?;
    cancel.check().map_err(Interrupt::Cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_token_passes_checks() {
        let token = CancelToken::new();
        assert_eq!(token.is_cancelled(), None);
        assert!(token.check().is_ok());
        assert!(checkpoint("cancel-test-live", &token).is_ok());
    }

    #[test]
    fn cancel_is_shared_across_clones_and_first_reason_wins() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel(CancelReason::User);
        token.cancel(CancelReason::Shutdown);
        assert_eq!(token.is_cancelled(), Some(CancelReason::User));
        assert_eq!(clone.check(), Err(CancelReason::User));
        assert_eq!(
            checkpoint("cancel-test-shared", &token),
            Err(Interrupt::Cancelled(CancelReason::User))
        );
    }

    #[test]
    fn deadlines_are_per_handle_and_never_poison_siblings() {
        let parent = CancelToken::new();
        let strict = parent.with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(strict.is_cancelled(), Some(CancelReason::Deadline));
        // The sibling (a later retry attempt) is unaffected.
        assert_eq!(parent.is_cancelled(), None);
        let retry = parent.with_deadline(Duration::from_secs(3600));
        assert_eq!(retry.is_cancelled(), None);
    }

    #[test]
    fn children_fire_with_their_parent_but_not_the_other_way_round() {
        let parent = CancelToken::new();
        let (first, second) = (parent.child(), parent.child());
        first.cancel(CancelReason::User);
        assert_eq!(first.is_cancelled(), Some(CancelReason::User));
        assert_eq!(
            parent.is_cancelled(),
            None,
            "a child never cancels its parent"
        );
        assert_eq!(second.is_cancelled(), None, "nor its siblings");
        parent.cancel(CancelReason::Shutdown);
        assert_eq!(second.is_cancelled(), Some(CancelReason::Shutdown));
        assert_eq!(
            first.is_cancelled(),
            Some(CancelReason::User),
            "own reason first"
        );

        let expired = CancelToken::new().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(expired.child().check(), Err(CancelReason::Deadline));
    }

    #[test]
    fn tighter_deadline_wins_when_stacked() {
        let token = CancelToken::new().with_deadline(Duration::from_millis(0));
        let stacked = token.with_deadline(Duration::from_secs(3600));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(stacked.is_cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn interrupt_kinds_are_stable() {
        assert_eq!(Interrupt::Cancelled(CancelReason::User).kind(), "cancelled");
        assert_eq!(
            Interrupt::Cancelled(CancelReason::Deadline).kind(),
            "deadline"
        );
        assert_eq!(
            Interrupt::Cancelled(CancelReason::Shutdown).kind(),
            "shutdown"
        );
        assert_eq!(
            Interrupt::Fault(InjectedFault { site: "x" }).kind(),
            "fault-injected"
        );
    }
}
