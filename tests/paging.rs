//! Acceptance tests for the paged buffer pool: with a page budget at or
//! above the data size the engine must be **bit-identical** (rows and cost
//! breakdown) to the pre-pool engine, and the parallel scan at 1, 2 and 8
//! workers to the sequential row scan; below the data size it must stay
//! row-identical and charge only the pager's fault surcharges, and a
//! planner-built scan must hold one pin at a time, even through a pool
//! smaller than one batch; budget exhaustion must surface as the typed
//! [`RqpError::PageBudgetExhausted`] — never a panic, never burned worker
//! retries — and every termination path (full drain, partial drain, worker
//! recovery, worker loss, cancellation, deadline abort, wire disconnect)
//! must leave the pool with zero pins, the governor with zero workspace and
//! the broker with zero reservations.
//!
//! Compiled under `rqp-bench` so it can drive the exec operators, the query
//! service and the wire layer in one place.

use rqp::common::chaos::{ChaosConfig, ChaosPolicy, WorkerFault};
use rqp::common::{rule, CancelToken, CostClock, CostModelParams, Row, RqpError};
use rqp::exec::sort::SortOrder;
use rqp::exec::{
    collect, pipeline, BoxOp, ExchangeOp, ExecContext, Operator, Partitioning, SortOp, TableScanOp,
};
use rqp::server::{QueryOptions, QueryService, ServiceConfig};
use rqp::storage::BufferPool;
use rqp::{DataType, Schema, Table, Value};
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp_net::{WireClient, WireQueryOptions, WireServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 4,000 rows = 40 pages at the default 100 rows/page.
const TABLE_PAGES: usize = 40;

fn table(n: i64) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("key", DataType::Int)]);
    let mut t = Table::new("t", schema);
    for i in 0..n {
        t.append(vec![Value::Int(i), Value::Int((i * 7919) % 1000)]);
    }
    Arc::new(t)
}

#[derive(Debug, PartialEq)]
struct RunOutput {
    rows: Vec<Row>,
    seq_io: u64,
    rand_io: u64,
    cpu: u64,
    spill: u64,
}

impl RunOutput {
    /// Rows plus the four cost components of `ctx`'s clock, as bits.
    fn new(rows: Vec<Row>, ctx: &ExecContext) -> Self {
        let b = ctx.clock.breakdown();
        RunOutput {
            rows,
            seq_io: b.seq_io.to_bits(),
            rand_io: b.rand_io.to_bits(),
            cpu: b.cpu.to_bits(),
            spill: b.spill.to_bits(),
        }
    }
}

/// Scan a fresh 4,000-row table, with an optional pool of `budget` pages
/// attached: in parallel on `workers` workers, or with `workers == 0`
/// sequentially through the row scan, charging the one CPU tuple per row an
/// exchange's gather adds (the reference the parallel scan must match).
/// Returns rows and cost bits, and the pool for pin/stat assertions.
fn scan_run(
    budget: Option<usize>,
    workers: usize,
    chaos: ChaosPolicy,
) -> (RunOutput, Option<Arc<BufferPool>>) {
    let t = table(4_000);
    let pool = budget.map(|pages| {
        let p = BufferPool::new(pages);
        t.attach_pool(&p);
        p
    });
    let ctx = ExecContext::with_memory(1_000.0).with_chaos(chaos);
    let rows = if workers == 0 {
        let rows = collect(&mut TableScanOp::new(t, ctx.clone()));
        ctx.clock.charge(&rule::emit(rows.len() as f64));
        rows
    } else {
        let build = pipeline(|op, _| op);
        collect(&mut ExchangeOp::parallel_scan(t, workers, build, ctx.clone()).expect("exchange"))
    };
    (RunOutput::new(rows, &ctx), pool)
}

#[test]
fn full_budget_pool_is_bit_identical_to_the_unpooled_engine() {
    // The acceptance property: budget >= data means no eviction, no
    // re-fault, no surcharge — the pool is pure accounting and both the
    // row stream and every cost component match the pre-pool engine bit
    // for bit, and the parallel scan matches the sequential row scan.
    let (sequential, _) = scan_run(None, 0, ChaosPolicy::off());
    for workers in [0usize, 1, 2, 8] {
        let label = format!("workers={workers}");
        let (plain, _) = scan_run(None, workers, ChaosPolicy::off());
        let (pooled, pool) = scan_run(Some(TABLE_PAGES), workers, ChaosPolicy::off());
        assert_eq!(plain, pooled, "{label}: the pool moved rows or cost bits");
        assert_eq!(sequential, pooled, "{label}: diverged from the sequential scan");
        let pool = pool.expect("pooled run");
        let s = pool.stats();
        assert_eq!(s.refaults, 0, "{label}: full budget must never re-fault");
        assert_eq!(s.cold_loads as usize, TABLE_PAGES, "{label}: one load per page");
        assert_eq!(pool.pins(), 0, "{label}: drained scan leaked pins");
    }
}

#[test]
fn chaos_page_faults_are_worker_count_invariant() {
    // Page-I/O faults are keyed by the absolute page index, and with a full
    // budget each page loads exactly once — so the fault schedule, the rows
    // and the charge totals are identical no matter how the scan is sharded.
    let cfg = ChaosConfig {
        seed: 0x9A6E,
        page_fault_rate: 0.2,
        page_max_retries: 8,
        ..ChaosConfig::off()
    };
    let (base, base_pool) = scan_run(Some(TABLE_PAGES), 0, ChaosPolicy::new(cfg));
    let retries = base_pool.expect("pool").stats().io_retries;
    assert!(retries > 0, "this seed must inject at least one page fault");
    for workers in [1usize, 2, 8] {
        let (run, pool) = scan_run(Some(TABLE_PAGES), workers, ChaosPolicy::new(cfg));
        assert_eq!(base, run, "workers={workers}: rows or cost bits diverged under page faults");
        assert_eq!(
            pool.expect("pool").stats().io_retries,
            retries,
            "workers={workers}: fault schedule moved with the worker count"
        );
    }
}

#[test]
fn constrained_budget_stays_row_identical_and_charges_only_refaults() {
    // Bare-scan baseline (no exchange, no pool), charge bits per component.
    let plain = {
        let ctx = ExecContext::with_memory(1_000.0);
        RunOutput::new(collect(&mut TableScanOp::new(table(4_000), ctx.clone())), &ctx)
    };

    // One pool, two sequential passes: the first is all cold loads (free —
    // the scan's own sequential charge is that read); the second re-faults
    // every page because a quarter-size budget evicted them all behind the
    // first pass's cursor.
    let t = table(4_000);
    let pool = BufferPool::new(8);
    t.attach_pool(&pool);
    for pass in 0..2usize {
        let ctx = ExecContext::with_memory(1_000.0);
        let rows = collect(&mut TableScanOp::new(Arc::clone(&t), ctx.clone()));
        assert_eq!(plain.rows, rows, "pass {pass}: constrained pool changed the rows");
        let b = ctx.clock.breakdown();
        assert_eq!(b.seq_io.to_bits(), plain.seq_io, "pass {pass}: seq_io moved");
        assert_eq!(b.cpu.to_bits(), plain.cpu, "pass {pass}: cpu moved");
        let s = pool.stats();
        if pass == 0 {
            assert_eq!(b.rand_io, 0.0, "cold loads must not be surcharged");
            assert_eq!(s.cold_loads as usize, TABLE_PAGES);
            assert_eq!(s.refaults, 0);
        } else {
            assert_eq!(s.refaults as usize, TABLE_PAGES, "second pass re-faults every page");
            let expected = TABLE_PAGES as f64 * CostModelParams::default().rand_page;
            assert_eq!(
                b.rand_io.to_bits(),
                expected.to_bits(),
                "re-faults charge exactly one random page each"
            );
        }
        assert_eq!(pool.pins(), 0, "pass {pass} leaked pins");
    }
}

#[test]
fn page_budget_exhaustion_is_typed_and_propagates_through_the_exchange() {
    let t = table(4_000);
    let pool = BufferPool::new(1);
    t.attach_pool(&pool);
    // An outside pin holds the only frame, so the scan's first fault cannot
    // evict: the pool must fail typed, and the exchange must propagate that
    // error as-is instead of burning lost-partition retries on it.
    let clock = CostClock::default_clock();
    let chaos = ChaosPolicy::off();
    let (_guard, _) = pool.pin("t", 0, &clock, &chaos).expect("guard pin");
    // The scan's first page is a hit on the guarded frame; page 1 needs a
    // second frame, finds the only one pinned, and must fail typed.
    let ctx = ExecContext::with_memory(1_000.0);
    let err = match ExchangeOp::parallel_scan(Arc::clone(&t), 1, pipeline(|op, _| op), ctx.clone())
    {
        Err(e) => e,
        Ok(_) => panic!("one pinned frame of one cannot serve a scan"),
    };
    match err {
        RqpError::PageBudgetExhausted { pinned, budget } => {
            assert_eq!((pinned, budget), (1, 1));
        }
        other => panic!("expected typed PageBudgetExhausted, got {other:?}"),
    }
    assert_eq!(
        ctx.metrics.counter("exchange.worker_retries").get(),
        0,
        "exhaustion must not be retried as a lost partition"
    );
    assert_eq!(pool.pins(), 1, "only the outside guard pin survives the abort");
    drop(_guard);
    assert_eq!(pool.pins(), 0);
}

#[test]
fn partial_drain_releases_every_pin() {
    let t = table(4_000);
    let pool = BufferPool::new(8);
    t.attach_pool(&pool);
    let ctx = ExecContext::with_memory(1_000.0);
    let mut scan = TableScanOp::new(Arc::clone(&t), ctx.clone());
    for _ in 0..5 {
        scan.next().expect("row");
    }
    assert_eq!(pool.pins(), 1, "a mid-page scan holds exactly its current page");
    drop(scan);
    assert_eq!(pool.pins(), 0, "dropping a part-way scan must release its pin");
}

/// The ways an exchange run can end.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Every worker succeeds and the gather is drained.
    Drain,
    /// Worker 0 panics on its first attempt and a retry recovers it.
    Recovered,
    /// Every attempt panics: retries exhausted.
    WorkerFailed,
    /// The query's token is cancelled before the run.
    Cancelled,
}

fn exit_context(exit: Exit) -> ExecContext {
    let ctx = ExecContext::with_memory(1_000.0);
    let panics = |seed, rate, retries| ChaosConfig {
        seed,
        worker_panic_rate: rate,
        worker_max_retries: retries,
        ..ChaosConfig::off()
    };
    match exit {
        Exit::Drain => ctx,
        Exit::Recovered => {
            // The first seed under which worker 0 (present at every count)
            // panics on its first attempt.
            let first_panics = |&seed: &u64| {
                let policy = ChaosPolicy::new(panics(seed, 0.3, 8));
                matches!(policy.worker_fault(0, 0), Some(WorkerFault::Panic))
            };
            let seed = (0u64..).find(first_panics).expect("some seed panics");
            ctx.with_chaos(ChaosPolicy::new(panics(seed, 0.3, 8)))
        }
        Exit::WorkerFailed => ctx.with_chaos(ChaosPolicy::new(panics(7, 1.0, 2))),
        Exit::Cancelled => {
            let token = CancelToken::new();
            token.cancel();
            ctx.with_cancel(token)
        }
    }
}

#[test]
fn every_exchange_exit_releases_pins_and_workspace() {
    // A 40-page table behind an 8-frame pool, scanned in parallel or
    // repartitioned into per-worker sorts under a 1 000-row governor.
    // Whichever way the run ends, nothing stays pinned or granted.
    for workers in [1usize, 2, 8] {
        for exit in [Exit::Drain, Exit::Recovered, Exit::WorkerFailed, Exit::Cancelled] {
            for repartition in [false, true] {
                let label = format!("{workers} workers, {exit:?}, repartition={repartition}");
                let t = table(4_000);
                let pool = BufferPool::new(8);
                t.attach_pool(&pool);
                let ctx = exit_context(exit);
                let run = || -> Result<usize, RqpError> {
                    let mut ex = if repartition {
                        let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), ctx.clone()));
                        let spec = Partitioning::Hash { keys: vec![1], skew: 0.0 };
                        let build = pipeline(|op, wctx| {
                            let order = [("t.key", SortOrder::Asc)];
                            Box::new(SortOp::new(op, &order, wctx.clone()).expect("sort")) as BoxOp
                        });
                        ExchangeOp::repartition(scan, spec, workers, build, ctx.clone())?
                    } else {
                        let build = pipeline(|op, _| op);
                        ExchangeOp::parallel_scan(Arc::clone(&t), workers, build, ctx.clone())?
                    };
                    Ok(collect(&mut ex).len())
                };
                // A repartition drains its input on the coordinator, whose
                // scan unwinds with the typed cause when the token trips.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                    .unwrap_or_else(|p| Err(*p.downcast::<RqpError>().expect("typed unwind")));
                match (exit, outcome) {
                    (Exit::Drain | Exit::Recovered, Ok(rows)) => assert_eq!(rows, 4_000, "{label}"),
                    (Exit::WorkerFailed, Err(RqpError::WorkerFailed { attempts: 3, .. })) => {}
                    (Exit::Cancelled, Err(RqpError::Cancelled)) => {}
                    (_, other) => panic!("{label}: unexpected outcome {other:?}"),
                }
                if let Exit::Recovered = exit {
                    assert!(ctx.metrics.counter("exchange.recoveries").get() >= 1, "{label}");
                }
                assert_eq!(pool.pins(), 0, "{label}: leaked page pins");
                assert_eq!(ctx.memory.outstanding(), 0.0, "{label}: leaked workspace");
            }
        }
    }
}

#[test]
fn planned_scan_holds_one_pin_through_a_pool_smaller_than_a_batch() {
    // A batch is 1 024 rows, eleven pages; the pool has one or two frames.
    // The planner's scan pins a page only while it reads it, like the
    // scalar scan, so it completes and never holds more than one pin.
    for frames in [1usize, 2] {
        let mut catalog = rqp::Catalog::new();
        catalog.add_table(Arc::try_unwrap(table(4_000)).expect("sole handle"));
        let pool = BufferPool::new(frames);
        catalog.table("t").expect("table").attach_pool(&pool);
        let plan = rqp::opt::PhysicalPlan::TableScan {
            table: "t".into(),
            filter: Some(rqp::common::expr::col("t.id").ge(rqp::common::expr::lit(10i64))),
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let ctx = ExecContext::with_memory(1_000.0);
        let mut built = plan.build(&catalog, &ctx, None).expect("build");
        let mut rows = 0;
        while built.root.next().is_some() {
            rows += 1;
            assert!(pool.pins() <= 1, "{frames} frames: {} pins held mid-scan", pool.pins());
        }
        assert_eq!(rows, 3_990, "{frames} frames");
        assert_eq!(pool.pins(), 0, "{frames} frames: drained scan leaked pins");
        assert_eq!(pool.stats().cold_loads as usize, TABLE_PAGES, "{frames} frames");
    }
}

fn paged_service(db: &TpchDb, mpl: usize, pages: usize) -> Arc<QueryService> {
    Arc::new(QueryService::new(
        &db.catalog,
        ServiceConfig {
            mpl,
            memory_rows: 20_000.0,
            drift_threshold: 1e9,
            page_budget: Some(pages),
            ..Default::default()
        },
    ))
}

fn small_db() -> TpchDb {
    TpchDb::build(TpchParams { lineitem_rows: 4_000, ..Default::default() }, 42)
}

#[test]
fn deadline_abort_on_a_paged_service_releases_pins_and_reservations() {
    let db = small_db();
    // 8 frames is far below lineitem's page count, so the doomed query is
    // actively faulting through the pool when its deadline trips.
    let svc = paged_service(&db, 2, 8);
    let session = svc.session(0);
    let handle = session.submit(db.q5(0, 10, 100), QueryOptions::with_deadline(1.0));
    match handle.join() {
        Err(RqpError::DeadlineExceeded) => {}
        other => panic!("expected a deadline abort, got {other:?}"),
    }
    let pool = svc.pager().expect("paged service");
    assert_eq!(pool.pins(), 0, "deadline abort leaked page pins");
    assert_eq!(svc.reserved(), 0.0, "deadline abort leaked workspace grants");

    // The survivor still computes the right answer through the same pool.
    let solo = svc.run_solo(&db.q6(100, 0.05, 30)).expect("survivor");
    assert!(!solo.rows.is_empty());
    assert_eq!(pool.pins(), 0);
}

#[test]
fn wire_disconnect_on_a_paged_service_releases_pins_and_reservations() {
    let db = small_db();
    let svc = paged_service(&db, 1, 8);
    let server = WireServer::start(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", server.port());

    // Submit a many-page scan and vanish without GOODBYE: the reaper must
    // cancel the query, and unwinding its operators must drop every pin.
    let spec = rqp::QuerySpec::new()
        .table("lineitem")
        .filter(
            "lineitem",
            rqp::common::expr::col("lineitem.quantity").ge(rqp::common::expr::lit(0)),
        )
        .project(&["lineitem.orderkey", "lineitem.quantity"]);
    let mut doomed = WireClient::connect(&addr, 0).expect("connect");
    let _query = doomed
        .submit(&spec, WireQueryOptions::default())
        .expect("submit");
    drop(doomed);

    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().closed < 1 {
        assert!(Instant::now() < deadline, "timed out waiting for teardown");
        std::thread::yield_now();
    }
    // The reap is asynchronous with the query thread: wait for the broker
    // ledger to empty (monotone once the query ends), then check the pool.
    while svc.reserved() > 0.0 || svc.stats().live_count() > 0 {
        assert!(Instant::now() < deadline, "timed out waiting for query teardown");
        std::thread::yield_now();
    }
    let pool = svc.pager().expect("paged service");
    assert_eq!(pool.pins(), 0, "disconnect teardown leaked page pins");
    assert_eq!(svc.reserved(), 0.0);

    // Service still healthy below its data size.
    let mut fresh = WireClient::connect(&addr, 0).expect("reconnect");
    fresh
        .run(&db.q6(100, 0.05, 30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("query after churn failed");
    fresh.goodbye().expect("goodbye");
    drop(server);
}
