//! MPL admission gate with priority queueing.
//!
//! The seminar's workload-management break-out frames admission control as
//! the first line of robustness defense: past a saturation MPL, *running*
//! more queries makes *every* query slower, so a gate that queues the excess
//! keeps the system on the good side of the thrashing cliff. The
//! [`WorkloadManager`](rqp_workload::WorkloadManager) simulates that policy;
//! this controller enforces it for real threads.
//!
//! At most `mpl` queries run at once, and when a slot frees the waiter
//! [`rqp_workload::admission_head`] names wins — the smallest
//! `(priority, submission sequence)`, priority 0 highest, ties FIFO. The
//! simulator calls the same function, so the policy exists once;
//! `tests/service.rs` replays a trace through both and asserts the
//! completion orders agree, which checks the mechanics around it (queueing,
//! wakeups, slot hand-over).

use rqp_common::{CancelToken, Result};
use rqp_workload::admission_head;
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Clone, Copy)]
struct Ticket {
    priority: u8,
    seq: u64,
}

#[derive(Debug, Default)]
struct State {
    running: usize,
    paused: bool,
    next_seq: u64,
    waiting: Vec<Ticket>,
    peak_running: usize,
    admitted: u64,
}

/// The MPL gate: blocks submitters until a slot is free and they are the
/// highest-priority waiter. See the module docs for the policy.
#[derive(Debug)]
pub struct AdmissionController {
    mpl: usize,
    /// Behind an `Arc` so cancel wakers can lock it: notifying while holding
    /// this mutex is what makes the cancel wakeup race-free (see `admit`).
    state: Arc<Mutex<State>>,
    /// Shared with cancel wakers: a token latched while its query is queued
    /// nudges this condvar so the waiter wakes and leaves, with no polling.
    cv: Arc<Condvar>,
}

impl AdmissionController {
    /// A gate admitting at most `mpl` concurrent queries (clamped to ≥ 1).
    pub fn new(mpl: usize) -> Self {
        AdmissionController {
            mpl: mpl.max(1),
            state: Arc::new(Mutex::new(State::default())),
            cv: Arc::new(Condvar::new()),
        }
    }

    /// The configured multiprogramming limit.
    pub fn mpl(&self) -> usize {
        self.mpl
    }

    /// Block until admitted (or the token trips while queued). The returned
    /// permit occupies one MPL slot until dropped.
    ///
    /// The wait is a pure condvar sleep — no timeout polling. Every event
    /// that can change admittability notifies the condvar: a slot release, a
    /// [`resume`](Self::resume), and — via a [`CancelToken::on_cancel`]
    /// waker registered here — the waiter's own token latching, so a queued
    /// query that is cancelled leaves the queue with the token's latched
    /// cause instead of occupying it as a zombie.
    pub fn admit(&self, priority: u8, cancel: &CancelToken) -> Result<AdmissionPermit<'_>> {
        // Register before queueing: if the token latches at any point after
        // this, the condvar is nudged and the loop below observes it. The
        // waker outlives the wait (it lives as long as the token); stray
        // notifies after admission are harmless.
        //
        // The waker takes the state lock (an empty critical section) before
        // notifying: a waiter is then either before its `is_cancelled` check
        // — it holds the lock and will observe the latch — or already parked
        // in `cv.wait`, which the notify wakes. Without the lock the notify
        // could land in the window between check and sleep and be lost,
        // leaving a cancelled waiter asleep until some unrelated release.
        let cv = Arc::clone(&self.cv);
        let state = Arc::clone(&self.state);
        cancel.on_cancel(move || {
            let _sync = state.lock();
            cv.notify_all();
        });
        let mut st = self.state.lock().expect("admission lock");
        let seq = st.next_seq;
        st.next_seq += 1;
        st.waiting.push(Ticket { priority, seq });
        loop {
            if cancel.is_cancelled() {
                st.waiting.retain(|t| t.seq != seq);
                self.cv.notify_all();
                // A queued query has spent no cost yet, so only a latched
                // cause can surface here; `check(0.0)` reports it.
                cancel.check(0.0)?;
                unreachable!("is_cancelled implies a latched cause");
            }
            // This waiter's queue position, if the policy admits it next.
            let head = admission_head(st.waiting.iter().map(|t| (t.priority, t.seq)))
                .filter(|&at| st.waiting[at].seq == seq);
            if let Some(at) = head.filter(|_| !st.paused && st.running < self.mpl) {
                st.waiting.remove(at);
                st.running += 1;
                st.peak_running = st.peak_running.max(st.running);
                st.admitted += 1;
                // More slots may remain; wake the next head.
                self.cv.notify_all();
                return Ok(AdmissionPermit { ctl: self });
            }
            st = self.cv.wait(st).expect("admission lock");
        }
    }

    /// Stop admitting (running queries are unaffected). With the gate
    /// paused, a batch of submissions can queue up and then be released in
    /// strict `(priority, seq)` order by [`resume`](Self::resume) — how the
    /// deterministic trace tests remove submission-timing races.
    pub fn pause(&self) {
        self.state.lock().expect("admission lock").paused = true;
    }

    /// Resume admitting queued queries.
    pub fn resume(&self) {
        self.state.lock().expect("admission lock").paused = false;
        self.cv.notify_all();
    }

    /// Queries currently executing (admitted, not yet completed).
    pub fn running(&self) -> usize {
        self.state.lock().expect("admission lock").running
    }

    /// High-water mark of concurrently admitted queries — the number the
    /// MPL-gate acceptance test compares against [`mpl`](Self::mpl).
    pub fn peak_running(&self) -> usize {
        self.state.lock().expect("admission lock").peak_running
    }

    /// Queries waiting at the gate right now.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("admission lock").waiting.len()
    }

    /// Total queries ever admitted.
    pub fn admitted(&self) -> u64 {
        self.state.lock().expect("admission lock").admitted
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("admission lock");
        st.running = st.running.saturating_sub(1);
        self.cv.notify_all();
    }
}

/// One occupied MPL slot; dropping it releases the slot and wakes waiters.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    ctl: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.ctl.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::RqpError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn gate_never_exceeds_mpl() {
        let ctl = Arc::new(AdmissionController::new(2));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (ctl, live, peak) = (Arc::clone(&ctl), Arc::clone(&live), Arc::clone(&peak));
                std::thread::spawn(move || {
                    let token = CancelToken::new();
                    let permit = ctl.admit(1, &token).unwrap();
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Widen the overlap window without a wall-clock sleep;
                    // the MPL bound must hold regardless of timing.
                    for _ in 0..64 {
                        std::thread::yield_now();
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                    drop(permit);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "externally observed MPL");
        assert!(ctl.peak_running() <= 2, "controller-tracked MPL");
        assert_eq!(ctl.admitted(), 8);
        assert_eq!(ctl.running(), 0);
        assert_eq!(ctl.queue_depth(), 0);
    }

    #[test]
    fn paused_gate_releases_in_priority_then_fifo_order() {
        let ctl = Arc::new(AdmissionController::new(1));
        ctl.pause();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Submit in a known sequence: ids 0..3 with priorities 2,0,2,1.
        // Expected admission order: 1 (prio 0), 3 (prio 1), 0, 2 (FIFO).
        let mut handles = Vec::new();
        for (id, priority) in [(0u8, 2u8), (1, 0), (2, 2), (3, 1)] {
            let (c, o) = (Arc::clone(&ctl), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                let token = CancelToken::new();
                let permit = c.admit(priority, &token).unwrap();
                o.lock().unwrap().push(id);
                drop(permit);
            }));
            // Make the submission sequence (and hence seq numbers)
            // deterministic: wait until this one is queued.
            while ctl.queue_depth() != (id as usize) + 1 {
                std::thread::yield_now();
            }
        }
        ctl.resume();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn cancel_racing_the_wait_never_loses_the_wakeup() {
        // Hammer the window between the waiter's is_cancelled() check and
        // its cv.wait(): the gate stays paused the whole time, so only the
        // cancel notification can ever free a waiter — if that notify is
        // lost, the join below hangs and the test times out.
        let ctl = Arc::new(AdmissionController::new(1));
        ctl.pause();
        for _ in 0..200 {
            let token = CancelToken::new();
            let t2 = token.clone();
            let ctl2 = Arc::clone(&ctl);
            let waiter = std::thread::spawn(move || ctl2.admit(0, &t2).map(|_| ()));
            // No queue-depth handshake: let cancel land anywhere relative to
            // the waiter's registration, check, and sleep.
            token.cancel();
            assert_eq!(waiter.join().unwrap(), Err(RqpError::Cancelled));
        }
        assert_eq!(ctl.queue_depth(), 0);
        assert_eq!(ctl.admitted(), 0);
    }

    #[test]
    fn cancelled_waiter_leaves_the_queue() {
        let ctl = Arc::new(AdmissionController::new(1));
        ctl.pause();
        let token = CancelToken::new();
        let t2 = token.clone();
        let ctl2 = Arc::clone(&ctl);
        let h = std::thread::spawn(move || ctl2.admit(0, &t2).map(|_| ()));
        while ctl.queue_depth() != 1 {
            std::thread::yield_now();
        }
        token.cancel();
        assert_eq!(h.join().unwrap(), Err(RqpError::Cancelled));
        assert_eq!(ctl.queue_depth(), 0, "cancelled waiter removed");
        // The gate still works afterwards.
        ctl.resume();
        let fresh = CancelToken::new();
        drop(ctl.admit(0, &fresh).unwrap());
        assert_eq!(ctl.admitted(), 1);
    }
}
