//! Chaos-determinism properties: fault injection must be a pure function of
//! the chaos seed, never of thread scheduling or worker count — and a
//! chaos-off context must be indistinguishable from a plain one.
//!
//! * the same seed yields identical rows *and* an identical cost breakdown
//!   at 1, 2 and 8 workers (scan faults and memory shocks are keyed by
//!   absolute page index, worker faults by `(worker, attempt)`);
//! * repeated runs under full chaos are bit-identical;
//! * with chaos disabled, rows, cost and trace shape are byte-identical to a
//!   context that has never heard of chaos (the pre-chaos baseline).

use rqp::common::chaos::{ChaosConfig, ChaosPolicy};
use rqp::common::EngineConfig;
use rqp::exec::exchange::{pipeline, ExchangeOp, Partitioning};
use rqp::exec::sort::SortOrder;
use rqp::exec::{collect, ExecContext, SortOp, TableScanOp};
use rqp::{DataType, Row, Schema, Table, Value};
use std::sync::Arc;

fn table(n: i64) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("key", DataType::Int)]);
    let mut t = Table::new("t", schema);
    for i in 0..n {
        t.append(vec![Value::Int(i), Value::Int((i * 7919) % 1000)]);
    }
    Arc::new(t)
}

/// Run the canonical chaos pipeline — coordinator scan (faults + shocks),
/// hash repartition, per-worker sort — and return rows plus cost bits.
fn run(policy: ChaosPolicy, workers: usize, budget: f64) -> (Vec<Row>, u64) {
    let ctx = ExecContext::with_memory(budget).with_chaos(policy);
    let scan = Box::new(TableScanOp::new(table(4_000), ctx.clone()));
    let build = pipeline(|op, wctx| {
        Box::new(SortOp::new(op, &[("t.key", SortOrder::Asc)], wctx.clone()).expect("sort"))
    });
    let spec = Partitioning::Hash { keys: vec![1], skew: 0.0 };
    let mut ex = ExchangeOp::repartition(scan, spec, workers, build, ctx.clone()).expect("exchange");
    let rows = collect(&mut ex);
    (rows, ctx.clock.breakdown().total().to_bits())
}

#[test]
fn same_seed_same_rows_and_cost_across_worker_counts() {
    // Scan faults and shocks only, on a page-partitioned parallel scan:
    // faults are keyed by *absolute* page index, so the same pages fault no
    // matter which worker owns them, and both the rows and the cost
    // breakdown are worker-count invariant bit for bit. (Worker faults are
    // keyed per worker, so their retry backoff legitimately moves with the
    // worker count; the sorting pipeline's compare count moves with the
    // partition size — neither belongs in this invariant.)
    let scan_only = ChaosConfig {
        worker_panic_rate: 0.0,
        worker_stall_rate: 0.0,
        ..ChaosConfig::standard(0xC4A05)
    };
    let scan_run = |workers: usize| {
        let ctx = ExecContext::with_memory(1_000.0)
            .with_chaos(ChaosPolicy::new(scan_only));
        let mut ex = ExchangeOp::parallel_scan(table(4_000), workers, pipeline(|op, _| op), ctx.clone())
            .expect("exchange");
        (collect(&mut ex), ctx.clock.breakdown().total().to_bits())
    };
    let (rows1, cost1) = scan_run(1);
    for workers in [2usize, 8] {
        let (rows, cost) = scan_run(workers);
        assert_eq!(rows1, rows, "rows diverged at {workers} workers");
        assert_eq!(cost1, cost, "cost bits diverged at {workers} workers");
    }
    // Full chaos (worker panics and stalls too) over the repartition + sort
    // pipeline: the result *multiset* stays identical at every worker count
    // (the sequence legitimately follows the partition count — each worker
    // sorts its own hash partition); cost is per-count but bit-stable
    // (next test).
    let canon = |mut rows: Vec<Row>| {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    };
    let full = ChaosConfig::standard(0xC4A05);
    let (full_rows1, _) = run(ChaosPolicy::new(full), 1, 1_000.0);
    let full_rows1 = canon(full_rows1);
    for workers in [2usize, 8] {
        let (rows, _) = run(ChaosPolicy::new(full), workers, 1_000.0);
        assert_eq!(full_rows1, canon(rows), "full-chaos rows diverged at {workers} workers");
    }
}

#[test]
fn repeated_runs_under_full_chaos_are_bit_identical() {
    for workers in [1usize, 2, 8] {
        let cfg = ChaosConfig::standard(1337);
        let (rows_a, cost_a) = run(ChaosPolicy::new(cfg), workers, 500.0);
        let (rows_b, cost_b) = run(ChaosPolicy::new(cfg), workers, 500.0);
        assert_eq!(rows_a, rows_b, "rows flapped at {workers} workers");
        assert_eq!(cost_a, cost_b, "cost bits flapped at {workers} workers");
    }
}

#[test]
fn chaos_off_matches_a_context_that_never_heard_of_chaos() {
    for workers in [1usize, 4] {
        let (rows_off, cost_off) = run(ChaosPolicy::off(), workers, 1_000.0);
        // A plain context (chaos defaulted, never touched): the pre-chaos
        // baseline this feature must not perturb.
        let ctx = ExecContext::with_memory(1_000.0);
        let scan = Box::new(TableScanOp::new(table(4_000), ctx.clone()));
        let build = pipeline(|op, wctx| {
            Box::new(SortOp::new(op, &[("t.key", SortOrder::Asc)], wctx.clone()).expect("sort"))
        });
        let spec = Partitioning::Hash { keys: vec![1], skew: 0.0 };
        let mut ex =
            ExchangeOp::repartition(scan, spec, workers, build, ctx.clone()).expect("exchange");
        let rows_plain = collect(&mut ex);
        let cost_plain = ctx.clock.breakdown().total().to_bits();
        assert_eq!(rows_off, rows_plain);
        assert_eq!(cost_off, cost_plain, "chaos-off cost must be bit-identical");
        assert_eq!(ctx.metrics.counter("chaos.scan_retries").get(), 0);
        assert_eq!(ctx.metrics.counter("chaos.worker_panics").get(), 0);
    }
}

#[test]
fn env_seeded_chaos_still_computes_the_right_answer() {
    // The CI chaos leg runs this test under its own seed instead of the
    // seeds hard-coded above; without one it falls back to a fixed standard
    // mix, so the test never silently degrades to a no-op.
    let policy = ChaosPolicy::seeded(EngineConfig::ambient().chaos_seed.unwrap_or(0xE27));
    let expected = {
        let (rows, _) = run(ChaosPolicy::off(), 4, 1_000.0);
        rows
    };
    for workers in [1usize, 4] {
        let mut rows = run(ChaosPolicy::new(*policy.config()), workers, 1_000.0).0;
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        let mut want = expected.clone();
        want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(want, rows, "env-seeded chaos changed the result at {workers} workers");
    }
}

#[test]
fn chaos_seeds_vary_outcomes_but_never_results() {
    // Different seeds inject different faults (costs differ somewhere), but
    // the answer never changes: chaos perturbs the road, not the destination.
    let expected = {
        let (rows, _) = run(ChaosPolicy::off(), 4, 1_000.0);
        rows
    };
    let mut costs = Vec::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let (rows, cost) = run(ChaosPolicy::new(ChaosConfig::standard(seed)), 4, 1_000.0);
        assert_eq!(expected, rows, "seed {seed} changed the query result");
        costs.push(cost);
    }
    costs.dedup();
    assert!(costs.len() > 1, "five seeds should not all cost identically");
}
