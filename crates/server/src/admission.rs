//! The MPL admission gate. Past a saturation MPL, *running* more queries
//! makes *every* query slower, so the gate queues the excess (the seminar's
//! workload-management break-out). The policy is one pure state machine,
//! [`rqp_workload::Admission`], with two drivers: the
//! [`WorkloadManager`](rqp_workload::WorkloadManager) simulator on its
//! virtual clock, and this controller for real threads — the machine under a
//! mutex, a condvar that wakes the waiters it admits, and a cancel waker.

use rqp_common::{CancelToken, Result};
use rqp_workload::{Admission, Ticket};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The MPL gate: blocks submitters until the [`Admission`] machine admits
/// them. Machine and condvar sit behind `Arc`s shared with cancel wakers.
#[derive(Debug)]
pub struct AdmissionController {
    state: Arc<Mutex<Admission>>,
    cv: Arc<Condvar>,
}

impl AdmissionController {
    /// A gate admitting at most `mpl` concurrent queries (clamped to ≥ 1).
    pub fn new(mpl: usize) -> Self {
        let state = Arc::new(Mutex::new(Admission::new(mpl)));
        AdmissionController { state, cv: Arc::new(Condvar::new()) }
    }

    /// The configured multiprogramming limit.
    pub fn mpl(&self) -> usize {
        self.lock().mpl()
    }

    /// Block until admitted, or until the token latches first: then the
    /// query leaves with the latched cause. The permit holds one MPL slot
    /// until dropped. A pure condvar sleep: every admission notifies, and so
    /// does a waker on `cancel`, registered for this call only.
    pub fn admit(&self, priority: u8, cancel: &CancelToken) -> Result<AdmissionPermit<'_>> {
        // The waker notifies under the state lock, so a latch lands either
        // before the waiter's `is_cancelled` check or while it is parked in
        // `cv.wait` — never in the window between, where it would be lost.
        // The guard deregisters it on return: a subscription admits every
        // poll with one long-lived token, which must not collect wakers.
        let (cv, state) = (Arc::clone(&self.cv), Arc::clone(&self.state));
        let _waker = cancel.on_cancel(move || {
            let _sync = state.lock();
            cv.notify_all();
        });
        let mut st = self.lock();
        let ticket = st.arrive(priority);
        self.admit_waiters(&mut st);
        loop {
            if cancel.is_cancelled() {
                // Queued, or admitted by a release after the latch: either
                // way the ticket leaves, and its slot goes to the next waiter.
                st.cancel(ticket);
                self.admit_waiters(&mut st);
                cancel.check(0.0)?; // nothing spent yet: reports the cause
                unreachable!("is_cancelled implies a latched cause");
            }
            if !st.is_queued(ticket) {
                return Ok(AdmissionPermit { ctl: self, ticket });
            }
            st = self.cv.wait(st).expect("admission lock");
        }
    }

    /// Stop admitting; running queries are unaffected. Submissions queued
    /// meanwhile are released in `(priority, seq)` order by
    /// [`resume`](Self::resume), which is how trace tests remove races.
    pub fn pause(&self) {
        self.lock().pause();
    }

    /// Resume admitting queued queries.
    pub fn resume(&self) {
        let mut st = self.lock();
        st.resume();
        self.admit_waiters(&mut st);
    }

    /// Queries currently executing (admitted, not yet completed).
    pub fn running(&self) -> usize {
        self.lock().running()
    }

    /// High-water mark of concurrently admitted queries.
    pub fn peak_running(&self) -> usize {
        self.lock().peak_running()
    }

    /// Queries waiting at the gate right now.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue_depth()
    }

    /// Total queries ever admitted.
    pub fn admitted(&self) -> u64 {
        self.lock().admitted()
    }

    fn lock(&self) -> MutexGuard<'_, Admission> {
        self.state.lock().expect("admission lock")
    }

    /// Drain the machine's admissions and wake the waiters to look.
    fn admit_waiters(&self, st: &mut Admission) {
        if st.admit().count() > 0 {
            self.cv.notify_all();
        }
    }
}

/// One occupied MPL slot; dropping it releases the slot and wakes waiters.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    ctl: &'a AdmissionController,
    ticket: Ticket,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.ctl.lock();
        st.complete(self.ticket);
        self.ctl.admit_waiters(&mut st);
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

    #[test]
    fn waiter_admitted_after_its_token_latched_passes_the_slot_on() {
        // B waits behind A. B's token latches, then — before B wakes — A's
        // release admits B. B must leave with its typed error and return
        // the slot, or the gate stays full of a query nobody runs.
        let ctl = Arc::new(AdmissionController::new(1));
        let a = ctl.admit(0, &CancelToken::new()).unwrap();
        let token = CancelToken::new();
        let (ctl2, t2, latched) = (Arc::clone(&ctl), token.clone(), token.clone());
        let b = std::thread::spawn(move || ctl2.admit(0, &t2).map(|_| ()));
        while ctl.queue_depth() != 1 {
            std::thread::yield_now();
        }
        let mut st = ctl.lock();
        // The canceller latches the token, then blocks in the waker on the
        // lock this thread holds.
        let canceller = std::thread::spawn(move || token.cancel());
        while !latched.is_cancelled() {
            std::thread::yield_now();
        }
        st.complete(a.ticket);
        std::mem::forget(a);
        ctl.admit_waiters(&mut st);
        assert_eq!((st.running(), st.queue_depth()), (1, 0), "A's release admitted B");
        drop(st);
        assert_eq!(b.join().unwrap(), Err(RqpError::Cancelled));
        canceller.join().unwrap();
        assert_eq!((ctl.running(), ctl.admitted()), (0, 2));
        drop(ctl.admit(0, &CancelToken::new()).unwrap());
        assert_eq!(ctl.admitted(), 3);
    }

    #[test]
    fn one_token_admitted_many_times_holds_no_stale_wakers() {
        // A subscription admits every poll with its one long-lived token;
        // each admit's waker must leave with it. The token's wakers each
        // hold a clone of the gate state, so the count is the leak.
        let ctl = AdmissionController::new(1);
        let token = CancelToken::new();
        for _ in 0..1_000 {
            drop(ctl.admit(0, &token).unwrap());
        }
        assert!(Arc::strong_count(&ctl.state) <= 2, "{} refs", Arc::strong_count(&ctl.state));
        assert_eq!(ctl.admitted(), 1_000);
    }
}
