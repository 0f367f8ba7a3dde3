//! `rqp-server` — a concurrent query service over the rqp engine.
//!
//! Everything below this crate executes **one query at a time** on a
//! deterministic virtual clock; everything the seminar says about workload
//! robustness, though, is about what happens when queries *share* the
//! system. This crate is that layer, built from four cooperating pieces:
//!
//! * [`AdmissionController`] — the MPL gate with priority queueing. At most
//!   `mpl` queries run at once; excess submissions wait, highest priority
//!   (then FIFO) first. The policy is one state machine,
//!   [`rqp_workload::Admission`], which this gate drives under its mutex for
//!   real threads and the [`WorkloadManager`](rqp_workload::WorkloadManager)
//!   simulator drives on its virtual clock, so traces replay identically
//!   through both.
//! * [`MemoryBroker`] — cross-query workspace brokering. Each admitted
//!   query gets a private [`MemoryGovernor`](rqp_exec::MemoryGovernor)
//!   budgeted at its fair share of the service budget; admissions shrink
//!   running queries' shares (their operators shed workspace via the
//!   pressure-epoch renegotiation machinery), completions grow them back.
//! * [`PlanCache`] — fingerprint-keyed plans invalidated when executed
//!   q-error drifts past a threshold: the LEO plan→observe→replan loop at
//!   service granularity.
//! * Cooperative cancellation — every submission carries a
//!   [`CancelToken`](rqp_common::CancelToken) with an optional cost-unit
//!   deadline; operators poll it at their charging checkpoints and unwind
//!   with typed [`RqpError::Cancelled`](rqp_common::RqpError::Cancelled) /
//!   [`RqpError::DeadlineExceeded`](rqp_common::RqpError::DeadlineExceeded),
//!   releasing workspace on the way out.
//!
//! A query's life: [`Session::submit`] spawns a thread → admission gate →
//! broker reservation → plan cache (or plan under the feedback estimator)
//! → execute → merge its span tree into the service
//! [`Tracer`](rqp_telemetry::Tracer), feed actuals back to LEO, note drift
//! on the plan cache → release the reservation and the MPL slot.
//!
//! Latency gauges ([`QueryService::schedule_report`]) are derived by
//! replaying the completion log through the simulator in virtual time, so
//! they are bit-deterministic and scoreboard-gateable even though real
//! threads race.

#![warn(missing_docs)]

pub mod admission;
pub mod broker;
pub mod cache;
pub mod service;
pub mod session;
pub mod stats;
pub mod subs;

pub use admission::{AdmissionController, AdmissionPermit};
pub use broker::MemoryBroker;
pub use cache::PlanCache;
pub use service::{CompletedQuery, QueryService, QueryStatus, ServiceConfig, ServiceReport};
pub use session::{QueryHandle, QueryOptions, QueryOutcome, Session};
pub use stats::{LiveQueryStats, QueryPhase, ServiceStats};
pub use subs::{SubscribeOptions, Subscription, SubscriptionRegistry};

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, RqpError, Schema, Value};
    use rqp_opt::QuerySpec;
    use rqp_storage::{Catalog, Table};

    fn catalog(rows: i64) -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..rows {
            t.append(vec![Value::Int(i), Value::Int(i % 13)]);
        }
        c.add_table(t);
        c
    }

    fn spec() -> QuerySpec {
        QuerySpec::new().table("t").filter("t", col("t.k").lt(lit(700)))
    }

    #[test]
    fn solo_and_concurrent_results_agree() {
        let svc = QueryService::new(&catalog(1_000), ServiceConfig::default());
        let solo = svc.run_solo(&spec()).unwrap();
        assert_eq!(solo.rows.len(), 700);
        let s = svc.session(1);
        let handles: Vec<_> =
            (0..4).map(|_| s.submit(spec(), QueryOptions::default())).collect();
        for h in handles {
            let got = h.join().unwrap();
            assert_eq!(got.rows, solo.rows, "concurrent result identical to solo");
            assert!(got.plan_cached, "solo run warmed the plan cache");
        }
        assert_eq!(svc.reserved(), 0.0, "all reservations returned");
        let report = svc.schedule_report();
        assert_eq!(report.completed, 4);
        assert!(report.peak_mpl <= svc.config().mpl);
    }

    #[test]
    fn deadline_zero_aborts_immediately() {
        let svc = QueryService::new(&catalog(1_000), ServiceConfig::default());
        let s = svc.session(0);
        let h = s.submit(spec(), QueryOptions::with_deadline(0.0));
        assert_eq!(h.join().unwrap_err(), RqpError::DeadlineExceeded);
        assert_eq!(svc.reserved(), 0.0);
        let c = &svc.completions()[0];
        assert_eq!(c.status, QueryStatus::DeadlineExceeded);
        assert!(c.cancel_latency.is_some());
    }

    #[test]
    fn report_is_deterministic_for_a_fixed_trace() {
        let run = || {
            // No page budget: replay determinism is a claim about the
            // scheduler, and it needs deterministic per-query costs. A
            // *constrained* shared pool makes refault charges depend on
            // which queries' scans interleaved (the paging contract only
            // guarantees row-identity below budget), so the CI paging leg
            // must not turn this into a flake.
            let svc = QueryService::new(&catalog(2_000), ServiceConfig {
                mpl: 2,
                page_budget: None,
                ..ServiceConfig::default()
            });
            svc.pause_admission();
            let s = svc.session(1);
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    s.submit(spec(), QueryOptions::default().at(i as f64 * 10.0))
                })
                .collect();
            while svc.queue_depth() != 3 {
                std::thread::yield_now();
            }
            svc.resume_admission();
            for h in handles {
                h.join().unwrap();
            }
            let r = svc.schedule_report();
            (r.latency_p50, r.latency_p99, r.tail_amplification, r.admission_wait_p99)
        };
        assert_eq!(run(), run(), "virtual-time replay is bit-deterministic");
    }
}
