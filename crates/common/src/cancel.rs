//! Cooperative cancellation for long-running queries.
//!
//! A [`CancelToken`] is a cheap, `Send + Sync` handle shared between a query's
//! controller (a session, an admission controller, a human at a REPL) and the
//! operators executing it. Operators never block on it; they *poll* it at
//! natural cost-charging boundaries — a scan page, a sort/join output row, an
//! exchange worker loop — so a cancelled query stops within one page of work
//! and unwinds through the normal early-termination path (operator `Drop`
//! impls release workspace leases and close spans, exactly as PR 3's
//! partial-drain machinery guarantees).
//!
//! Two causes are distinguished and latched:
//!
//! * **explicit cancellation** — [`CancelToken::cancel`] was called; every
//!   subsequent poll observes [`RqpError::Cancelled`];
//! * **deadline exceeded** — the query's deterministic cost clock passed the
//!   deadline set with [`CancelToken::set_deadline`]; the first poll to notice
//!   latches the state so all workers agree on [`RqpError::DeadlineExceeded`]
//!   as the cause, even when they race.
//!
//! Deadlines are expressed in **cost units on the query's virtual clock**, not
//! wall time: the same query with the same seed trips its deadline at the same
//! page on every run, which is what keeps the cancellation experiments
//! deterministic. Exchange workers charge private shard clocks that start at
//! zero, so a forked token carries the coordinator's elapsed cost as an
//! `origin` offset ([`CancelToken::child`]) and compares `origin + shard_now`
//! against the shared deadline.

use crate::error::{Result, RqpError};
use crate::sync::AtomicF64;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Latched lifecycle of a token: live → cancelled | deadline-exceeded.
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

/// A callback fired (once) when the token latches, whatever the cause.
type Waker = Box<dyn Fn() + Send + Sync>;

struct Inner {
    /// `LIVE` until the first cancel/deadline trip, then latched forever.
    state: AtomicU8,
    /// Deadline in cost units on the query's root clock; `+inf` = none.
    deadline: AtomicF64,
    /// The next registration number, and the wakers registered by blocked
    /// waiters (e.g. the admission gate's condvar), each under its number.
    /// Drained and fired exactly once, on the latch transition; a
    /// [`WakerGuard`] dropped before then takes its own out.
    wakers: Mutex<(u64, Vec<(u64, Waker)>)>,
}

impl Inner {
    /// Drain and run every registered waker. Latching is a one-shot CAS, so
    /// under normal flow this runs once; the re-check in `on_cancel` may call
    /// it again on an already-empty list, which is harmless.
    fn fire_wakers(&self) {
        let wakers = std::mem::take(&mut self.wakers.lock().unwrap().1);
        for (_, w) in wakers {
            w();
        }
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("state", &self.state)
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// Shared cooperative-cancellation handle (see module docs).
///
/// Cloning shares the underlying state: cancelling any clone cancels them
/// all. The token is deliberately *cooperative* — nothing is interrupted
/// preemptively; operators observe it via [`CancelToken::check`] (or
/// `ExecContext::checkpoint` in `rqp-exec`) at cost-charging boundaries.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
    /// Cost already elapsed on the root clock when this handle was forked to
    /// a worker whose shard clock restarts at zero. Zero for the root token.
    origin: f64,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, live token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: AtomicF64::new(f64::INFINITY),
                wakers: Mutex::new((0, Vec::new())),
            }),
            origin: 0.0,
        }
    }

    /// Request cancellation. Idempotent; a deadline trip that already latched
    /// wins (the cause seen first is the cause reported everywhere).
    pub fn cancel(&self) {
        let latched = self
            .inner
            .state
            .compare_exchange(LIVE, CANCELLED, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if latched {
            self.inner.fire_wakers();
        }
    }

    /// Register a callback fired when the token latches (explicit cancel or
    /// deadline trip), for as long as the returned guard lives. Fired at
    /// most once per registration; if the token is already latched the
    /// callback runs immediately on the caller's thread.
    ///
    /// This is what lets blocking waiters (the admission gate's condvar) sleep
    /// without polling: the waker nudges the condvar instead of the waiter
    /// re-checking `is_cancelled` on a timer. The guard bounds the
    /// registration to the wait, so a long-lived token waited on many times
    /// holds at most the wakers of the waits in progress.
    pub fn on_cancel(&self, waker: impl Fn() + Send + Sync + 'static) -> WakerGuard<'_> {
        let id = {
            let mut wakers = self.inner.wakers.lock().unwrap();
            let id = wakers.0;
            wakers.0 += 1;
            wakers.1.push((id, Box::new(waker)));
            id
        };
        // The latch may precede or race the registration: the canceller
        // could have drained the list before our push landed. Re-check and
        // fire.
        if self.is_cancelled() {
            self.inner.fire_wakers();
        }
        WakerGuard { inner: &self.inner, id }
    }

    /// Set (or tighten) the deadline, in cost units on the root clock.
    /// The effective deadline only ever shrinks.
    pub fn set_deadline(&self, deadline: f64) {
        self.inner.deadline.update(|cur| cur.min(deadline));
    }

    /// The current deadline in root-clock cost units (`+inf` when unset).
    pub fn deadline(&self) -> f64 {
        self.inner.deadline.get()
    }

    /// Whether the token has tripped (either cause).
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Relaxed) != LIVE
    }

    /// A token sharing this one's state for a worker whose private clock
    /// starts at zero: `parent_elapsed` is the root-clock cost already spent
    /// when the worker forked, so the worker's polls compare
    /// `parent_elapsed + shard_now` against the shared deadline.
    pub fn child(&self, parent_elapsed: f64) -> Self {
        CancelToken {
            inner: Arc::clone(&self.inner),
            origin: self.origin + parent_elapsed,
        }
    }

    /// Poll at virtual time `now` (this handle's clock). Returns the latched
    /// cause, latching `DeadlineExceeded` on the first trip so concurrent
    /// workers report one consistent cause.
    pub fn poll(&self, now: f64) -> Option<RqpError> {
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => Some(RqpError::Cancelled),
            DEADLINE => Some(RqpError::DeadlineExceeded),
            _ => {
                let deadline = self.inner.deadline.get();
                if self.origin + now >= deadline {
                    let latched = self
                        .inner
                        .state
                        .compare_exchange(LIVE, DEADLINE, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok();
                    if latched {
                        self.inner.fire_wakers();
                    }
                    // Report whatever actually latched: a racing explicit
                    // cancel may have won the exchange.
                    return self.poll(now);
                }
                None
            }
        }
    }

    /// [`poll`](Self::poll) as a `Result` for call sites that propagate
    /// errors by value instead of unwinding.
    pub fn check(&self, now: f64) -> Result<()> {
        match self.poll(now) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// One registration made by [`CancelToken::on_cancel`]; dropping it
/// deregisters the waker if it has not fired yet.
#[derive(Debug)]
#[must_use = "dropping the guard deregisters the waker at once"]
pub struct WakerGuard<'a> {
    inner: &'a Inner,
    id: u64,
}

impl Drop for WakerGuard<'_> {
    fn drop(&mut self) {
        // No panic in `drop`: every update leaves the list valid, so a
        // poisoned lock is still safe to use.
        let mut wakers = self.inner.wakers.lock().unwrap_or_else(PoisonError::into_inner);
        wakers.1.retain(|&(id, _)| id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.poll(1e12), None, "no deadline means no trip");
        assert!(t.check(0.0).is_ok());
        assert_eq!(t.deadline(), f64::INFINITY);
    }

    #[test]
    fn cancel_latches_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.poll(0.0), Some(RqpError::Cancelled));
        assert_eq!(t.check(0.0), Err(RqpError::Cancelled));
    }

    #[test]
    fn deadline_trips_at_virtual_time() {
        let t = CancelToken::new();
        t.set_deadline(100.0);
        assert_eq!(t.poll(99.9), None);
        assert_eq!(t.poll(100.0), Some(RqpError::DeadlineExceeded));
        // Latched: even an earlier timestamp now reports the trip.
        assert_eq!(t.poll(0.0), Some(RqpError::DeadlineExceeded));
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_only_tightens() {
        let t = CancelToken::new();
        t.set_deadline(100.0);
        t.set_deadline(500.0);
        assert_eq!(t.deadline(), 100.0, "loosening is ignored");
        t.set_deadline(50.0);
        assert_eq!(t.deadline(), 50.0);
    }

    #[test]
    fn explicit_cancel_wins_if_first() {
        let t = CancelToken::new();
        t.set_deadline(10.0);
        t.cancel();
        // Past the deadline, but the explicit cancel latched first.
        assert_eq!(t.poll(1000.0), Some(RqpError::Cancelled));
    }

    #[test]
    fn waker_fires_on_cancel_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let t = CancelToken::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let _waker = t.on_cancel(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0, "waker fired before the latch");
        t.cancel();
        t.cancel(); // idempotent: no second firing
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn waker_fires_on_deadline_latch() {
        use std::sync::atomic::AtomicUsize;
        let t = CancelToken::new();
        t.set_deadline(10.0);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let _waker = t.on_cancel(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(t.poll(5.0), None);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(t.poll(10.0), Some(RqpError::DeadlineExceeded));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn waker_on_already_latched_token_fires_immediately() {
        use std::sync::atomic::AtomicUsize;
        let t = CancelToken::new();
        t.cancel();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let _waker = t.on_cancel(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1, "late registration must still fire");
    }

    #[test]
    fn dropped_guard_deregisters_its_waker() {
        use std::sync::atomic::AtomicUsize;
        let t = CancelToken::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let (h1, h2) = (Arc::clone(&hits), Arc::clone(&hits));
        let kept = t.on_cancel(move || {
            h1.fetch_add(1, Ordering::SeqCst);
        });
        drop(t.on_cancel(move || {
            h2.fetch_add(10, Ordering::SeqCst);
        }));
        assert_eq!(t.inner.wakers.lock().unwrap().1.len(), 1, "dropped waker still held");
        t.cancel();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "only the kept waker fires");
        drop(kept); // after firing: nothing left to deregister
        assert!(t.inner.wakers.lock().unwrap().1.is_empty());
    }

    #[test]
    fn child_offsets_shard_clock() {
        let t = CancelToken::new();
        t.set_deadline(100.0);
        // Worker forked after the coordinator spent 80 cost units; its shard
        // clock restarts at zero but its polls account for the 80.
        let w = t.child(80.0);
        assert_eq!(w.poll(19.9), None);
        assert_eq!(w.poll(20.0), Some(RqpError::DeadlineExceeded));
        // The trip is shared state: the root token sees it too.
        assert!(t.is_cancelled());
        // Grandchild origins accumulate.
        let g = w.child(5.0);
        assert_eq!(g.origin, 85.0);
    }
}
