//! Acceptance tests for the concurrent query service (`rqp-server`):
//! the MPL gate, result identity under concurrency, typed deadline aborts
//! that release every workspace grant, deadline aborts and cancels inside a
//! batch hash join's build side that leave nothing behind, cancellation
//! while queued, agreement between the real service and the virtual-time
//! [`WorkloadManager`] — two drivers of one `Admission` machine — on
//! seeded submit/cancel traces, the ambient engine switches reaching default
//! contexts and services, the A06 scoreboard gate, secondary indexes
//! following service appends, and width-adaptive integer columns (widening
//! appends against an `i64` reference, the bytes-per-row gate).
//!
//! Compiled under `rqp-bench` so it can drive both the service API and the
//! `a06_concurrent_service` experiment end to end.

use rqp::common::expr::{col, lit};
use rqp::common::{EngineConfig, Row, RqpError, Value};
use rqp::opt::QuerySpec;
use rqp::server::{QueryOptions, QueryService, ServiceConfig, SubscribeOptions};
use rqp::storage::Table;
use rqp::stream::canonicalize;
use rqp::telemetry::scoreboard::Scoreboard;
use rqp::telemetry::SpanSnapshot;
use rqp::workload::{tpch::TpchParams, Job, TpchDb, WorkloadManager};

fn small_db() -> TpchDb {
    TpchDb::build(TpchParams { lineitem_rows: 4_000, ..Default::default() }, 42)
}

/// A service whose plan cache never invalidates on drift, so repeated
/// submissions of one spec always execute the identical physical plan.
fn service(db: &TpchDb, mpl: usize) -> QueryService {
    QueryService::new(
        &db.catalog,
        ServiceConfig { mpl, memory_rows: 20_000.0, drift_threshold: 1e9, ..Default::default() },
    )
}

#[test]
fn mpl_gate_holds_and_concurrent_results_match_solo() {
    let db = small_db();
    let svc = service(&db, 2);
    let specs = [db.q1(30), db.q3(1, 400), db.q6(100, 0.05, 30)];
    let solo: Vec<_> = specs.iter().map(|q| svc.run_solo(q).expect("solo run")).collect();

    let session = svc.session(0);
    let mut handles = Vec::new();
    for round in 0..2 {
        for (i, q) in specs.iter().enumerate() {
            handles.push((i, session.submit(q.clone(), QueryOptions::default().at(round as f64))));
        }
    }
    for (i, h) in handles {
        let out = h.join().expect("concurrent query failed");
        assert_eq!(out.rows, solo[i].rows, "admitted query diverged from solo execution");
        assert!(out.plan_cached, "second execution should hit the plan cache");
    }
    assert!(svc.peak_concurrency() <= 2, "MPL gate exceeded: {}", svc.peak_concurrency());
    assert!(svc.peak_concurrency() >= 1, "nothing ever ran");
    assert_eq!(svc.reserved(), 0.0, "completed queries must return every grant");
}

#[test]
fn past_deadline_query_aborts_typed_releases_grants_and_spares_others() {
    let db = small_db();
    let svc = service(&db, 2);
    let healthy_spec = db.q3(1, 400);
    let solo = svc.run_solo(&healthy_spec).expect("solo run");

    let session = svc.session(0);
    // The doomed query gets a deadline far below its demand; the healthy one
    // runs beside it and must be untouched by its neighbour's abort.
    let doomed =
        session.submit(db.q5(0, 10, 100), QueryOptions::with_deadline(1.0).reserve(8_000.0));
    let doomed_id = doomed.query();
    let healthy = session.submit(healthy_spec, QueryOptions::default());

    assert_eq!(
        doomed.join().unwrap_err(),
        RqpError::DeadlineExceeded,
        "past-deadline query must abort with the typed error"
    );
    let out = healthy.join().expect("healthy neighbour failed");
    assert_eq!(out.rows, solo.rows, "neighbour's abort corrupted a healthy query");
    assert_eq!(svc.reserved(), 0.0, "aborted query leaked workspace grants");

    let completions = svc.completions();
    let aborted = completions
        .iter()
        .find(|c| c.query == doomed_id)
        .expect("aborted query must still be recorded");
    assert!(aborted.cancel_latency.is_some(), "deadline abort must report its latency");
}

/// The spans of served query `query`, out of the service's merged trace.
fn spans_of(svc: &QueryService, query: u64) -> Vec<SpanSnapshot> {
    let all = svc.tracer().snapshot();
    let head = format!("q{query} ");
    let root = all.iter().find(|s| s.kind == "query" && s.detail.starts_with(&head));
    let mut ids = vec![root.expect("the query's trace").id];
    loop {
        let more: Vec<usize> = all
            .iter()
            .filter(|s| !ids.contains(&s.id) && s.parent.is_some_and(|p| ids.contains(&p)))
            .map(|s| s.id)
            .collect();
        if more.is_empty() {
            break;
        }
        ids.extend(more);
    }
    all.into_iter().filter(|s| ids[1..].contains(&s.id)).collect()
}

/// The query ran batch hash joins and stopped before any of them emitted a
/// row. Each join builds before it probes, and the first work of q3's plan is
/// a build, so a query that charged something and stopped here stopped
/// inside a build side.
fn stopped_in_a_build(spans: &[SpanSnapshot]) -> bool {
    let joins: Vec<_> = spans.iter().filter(|s| s.kind == "batch_hash_join").collect();
    !joins.is_empty() && joins.iter().all(|j| j.rows_out == 0)
}

/// A served q3 runs its joins as batch hash joins. Past a short deadline, or
/// cancelled, while a build side runs, it comes back with the typed error and
/// leaves no page pin, workspace grant, admission slot or queue entry behind,
/// and a neighbour on the same service then completes with its solo rows.
#[test]
fn a_batch_join_stopped_in_its_build_side_contains_the_failure() {
    let db = TpchDb::build(TpchParams { lineitem_rows: 20_000, ..Default::default() }, 42);
    let svc = QueryService::new(
        &db.catalog,
        ServiceConfig {
            mpl: 2,
            memory_rows: 20_000.0,
            drift_threshold: 1e9,
            page_budget: Some(64),
            ..Default::default()
        },
    );
    let (q3, neighbour) = (db.q3(1, 400), db.q1(30));
    let q3_solo = svc.run_solo(&q3).expect("solo q3");
    let fingerprint = &q3_solo.fingerprint;
    assert!(fingerprint.contains("hj("), "q3 planned no hash join: {fingerprint}");
    let solo = svc.run_solo(&neighbour).expect("solo neighbour");
    let session = svc.session(0);
    let contained = |label: &str| {
        svc.refresh_live_gauges();
        let pins = svc.pager().expect("a paged service").pins();
        assert_eq!(pins, 0, "{label}: a page stayed pinned");
        assert_eq!(svc.reserved(), 0.0, "{label}: a workspace grant leaked");
        for gauge in ["server.live.running", "server.live.queued"] {
            assert_eq!(svc.metrics().gauge(gauge).get(), 0.0, "{label}: {gauge}");
        }
        let out = session.submit(neighbour.clone(), QueryOptions::default()).join();
        assert_eq!(out.expect("neighbour failed").rows, solo.rows, "{label}: neighbour's rows");
    };

    // One cost unit expires on the first build side's first pages.
    let doomed = session.submit(q3.clone(), QueryOptions::with_deadline(1.0));
    let id = doomed.query();
    assert_eq!(doomed.join().unwrap_err(), RqpError::DeadlineExceeded);
    assert!(stopped_in_a_build(&spans_of(&svc, id)), "the deadline missed the build side");
    contained("deadline");

    // An explicit cancel, sent once the query's own clock has moved: its
    // first charges are a build side's. A cancel that lands later (or after
    // completion) is retried.
    let mut landed = 0;
    for _ in 0..100 {
        let handle = session.submit(q3.clone(), QueryOptions::default());
        let id = handle.query();
        loop {
            let moved = svc.stats().live_tracer(id).is_some_and(|(_, clock)| clock.now() > 0.0);
            if moved || svc.completions().iter().any(|c| c.query == id) {
                break;
            }
            std::thread::yield_now();
        }
        handle.cancel();
        match handle.join() {
            Ok(out) => assert_eq!(out.rows, q3_solo.rows, "a completed q3's rows"),
            Err(e) => {
                assert_eq!(e, RqpError::Cancelled);
                landed += stopped_in_a_build(&spans_of(&svc, id)) as usize;
            }
        }
        contained("cancel");
        if landed > 0 {
            break;
        }
    }
    assert!(landed > 0, "no cancel landed while a build side ran");
}

#[test]
fn cancelling_a_queued_query_frees_its_slot() {
    let db = small_db();
    let svc = service(&db, 1);
    let session = svc.session(0);

    svc.pause_admission();
    let queued = session.submit(db.q1(30), QueryOptions::default());
    while svc.queue_depth() != 1 {
        std::thread::yield_now();
    }
    queued.cancel();
    let err = queued.join().unwrap_err();
    assert!(err.is_cancellation(), "expected a cancellation, got {err:?}");
    svc.resume_admission();
    assert_eq!(svc.queue_depth(), 0, "cancelled waiter stayed in the queue");
    assert_eq!(svc.reserved(), 0.0);
}

/// One admission trace at MPL 1: `(spec, priority)` per query in submission
/// order, and the positions cancelled while queued.
type AdmissionTrace = (Vec<(usize, u8)>, Vec<usize>);

/// The service's gate and the simulator drive one `Admission` machine; on
/// the same trace they must finish the same queries in the same order. The
/// first input is the fixed three-job trace (distinct priorities, nothing
/// cancelled); 16 seeded traces follow, each 3–8 queries with random
/// priorities queued behind a paused gate, a random subset cancelled while
/// queued, then released.
#[test]
fn service_and_simulator_agree_on_seeded_admission_traces() {
    use rand::Rng;
    let db = small_db();
    let svc = service(&db, 1);
    let specs = [db.q1(30), db.q3(1, 400), db.q6(100, 0.05, 30)];
    // Solo runs pin the demands and warm the plan cache.
    let demands: Vec<f64> =
        specs.iter().map(|q| svc.run_solo(q).expect("solo run").cost).collect();

    let three_jobs: AdmissionTrace = (vec![(0, 2), (1, 0), (2, 1)], vec![]);
    let seeded = (0..16u64).map(|seed| -> AdmissionTrace {
        let mut rng = rqp::common::rng::seeded(seed);
        let n = rng.gen_range(3..9usize);
        let queries = (0..n).map(|_| (rng.gen_range(0..3usize), rng.gen_range(0..4u32) as u8));
        let queries: Vec<(usize, u8)> = queries.collect();
        (queries, (0..n).filter(|_| rng.gen_bool(0.3)).collect())
    });
    for (trace, (queries, cancelled)) in std::iter::once(three_jobs).chain(seeded).enumerate() {
        let logged = svc.completions().len();
        // Queue every query behind the paused gate, one at a time, so the
        // gate's arrival order is the submission order the simulator sees.
        svc.pause_admission();
        let handles: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(at, &(q, p))| {
                let h = svc.session(p).submit(specs[q].clone(), QueryOptions::default());
                while svc.queue_depth() != at + 1 {
                    std::thread::yield_now();
                }
                h
            })
            .collect();
        for (left, &at) in cancelled.iter().enumerate() {
            handles[at].cancel();
            while svc.queue_depth() != queries.len() - left - 1 {
                std::thread::yield_now();
            }
        }
        let jobs: Vec<Job> = handles
            .iter()
            .zip(&queries)
            .enumerate()
            .filter(|(at, _)| !cancelled.contains(at))
            .map(|(_, (h, &(q, priority)))| Job {
                id: h.query() as usize,
                arrival: 0.0,
                demand: demands[q],
                priority,
                weight: 1.0,
            })
            .collect();
        let cancelled_ids: Vec<u64> = cancelled.iter().map(|&at| handles[at].query()).collect();
        svc.resume_admission();
        for (at, h) in handles.into_iter().enumerate() {
            let out = h.join();
            if cancelled.contains(&at) {
                assert!(out.unwrap_err().is_cancellation(), "trace {trace}: query {at}");
            } else {
                assert!(out.is_ok(), "trace {trace}: query {at} failed: {out:?}");
            }
        }
        let sim = WorkloadManager::new(1, 1.0).simulate(&jobs);
        let mut by_finish: Vec<_> = sim.jobs.clone();
        by_finish.sort_by(|a, b| a.finish.total_cmp(&b.finish));
        let simulated: Vec<u64> = by_finish.iter().map(|j| j.id as u64).collect();

        let log = svc.completions().split_off(logged);
        let completed: Vec<u64> =
            log.iter().map(|c| c.query).filter(|id| !cancelled_ids.contains(id)).collect();
        assert_eq!(
            completed, simulated,
            "trace {trace}: real service and virtual-time simulator disagree on completion order"
        );
        for id in &cancelled_ids {
            let c = log.iter().find(|c| c.query == *id).expect("cancelled query recorded");
            assert_eq!(c.demand, 0.0, "trace {trace}: query {id} cancelled while queued");
        }
        svc.refresh_live_gauges();
        assert_eq!(svc.queue_depth(), 0, "trace {trace}");
        assert_eq!(svc.metrics().gauge("server.live.running").get(), 0.0, "trace {trace}");
        assert_eq!(svc.reserved(), 0.0, "trace {trace}");
    }
}

/// The CI matrix legs reach the suite through one hook: whatever the process
/// was started under ([`EngineConfig::ambient`]) is what a default context
/// and a default-config service run with. In a plain environment this pins
/// the defaults (everything off); under a CI leg it proves the leg bites.
#[test]
fn ambient_engine_switches_reach_default_contexts_and_services() {
    let ambient = EngineConfig::ambient();
    let db = small_db();

    let config = ServiceConfig::default();
    assert_eq!((config.chaos_seed, config.page_budget), (ambient.chaos_seed, ambient.page_budget));
    let svc = QueryService::new(&db.catalog, config.clone());
    assert_eq!(svc.pager().map(|pool| pool.budget()), ambient.page_budget);

    // The same service without its chaos seed charges the fault-free cost;
    // a seeded one charges retries on top. (Its own database: a buffer pool
    // attaches to the catalog's shared tables, one service per catalog.)
    let calm_db = small_db();
    let calm = QueryService::new(&calm_db.catalog, ServiceConfig { chaos_seed: None, ..config });
    let q = db.q1(30);
    let cost = |svc: &QueryService| svc.run_solo(&q).expect("solo run").cost;
    assert_eq!(cost(&svc) > cost(&calm), ambient.chaos_seed.is_some());
}

/// `APPEND` must reach the indexes, not just the table: after 16 new
/// `lineitem` rows the index-served point join and index scans agree with a
/// filter no index can serve. Before indexes followed appends they kept
/// answering from the rows they were built over (3 / 3 / 73 here) — silently.
#[test]
fn indexes_follow_service_appends() {
    // The benchmark's set-up, so the numbers are the ones `oltp_point` sees.
    let db = TpchDb::build(TpchParams { lineitem_rows: 200_000, ..Default::default() }, 42);
    let svc = QueryService::new(&db.catalog, ServiceConfig::default());
    let point_join = QuerySpec::new()
        .join("orders", "orderkey", "lineitem", "orderkey")
        .filter("orders", col("orders.orderkey").eq(lit(777i64)))
        .project(&["orders.orderkey", "orders.totalprice", "lineitem.extendedprice"]);
    let scan = |pred| {
        QuerySpec::new()
            .table("lineitem")
            .filter("lineitem", pred)
            .project(&["lineitem.orderkey", "lineitem.shipdate", "lineitem.extendedprice"])
    };
    let indexed = |column: &str, v: i64| scan(col(column).eq(lit(v)));
    // `column + 0 = v` is not a simple predicate: it runs as a filtered scan.
    let unindexed = |column: &str, v: i64| scan(col(column).add(lit(0i64)).eq(lit(v)));
    let run = |spec: &QuerySpec| svc.run_solo(spec).expect("solo run");
    let count = |spec: &QuerySpec| run(spec).rows.len();

    for spec in [&point_join, &indexed("lineitem.orderkey", 777), &indexed("lineitem.shipdate", 5)]
    {
        assert!(run(spec).fingerprint.contains("ix"), "the plan must probe an index");
    }
    assert!(!run(&unindexed("lineitem.orderkey", 777)).fingerprint.contains("ix"));
    assert_eq!(count(&point_join), 3);
    assert_eq!(count(&indexed("lineitem.orderkey", 777)), 3);
    assert_eq!(count(&indexed("lineitem.shipdate", 5)), 73);

    // A query admitted before the append and drained after it keeps the
    // rows of its own epoch.
    let early = svc.session(0).submit(point_join.clone(), QueryOptions::default());
    let early_id = early.query();
    while !svc.completions().iter().any(|c| c.query == early_id) {
        std::thread::yield_now();
    }

    let fresh: Vec<Row> = (0..16)
        .map(|i| {
            let price = Value::Float(1_000.0 + i as f64);
            let (k, date) = (Value::Int(777), Value::Int(5));
            vec![k, Value::Int(i), Value::Int(i % 7), Value::Int(1), price, Value::Float(0.0), date, Value::Int(0)]
        })
        .collect();
    svc.append_rows("lineitem", fresh).expect("append");

    assert_eq!(early.join().expect("early query").rows.len(), 3, "frozen epoch");
    assert_eq!(count(&unindexed("lineitem.orderkey", 777)), 19);
    assert_eq!(count(&unindexed("lineitem.shipdate", 5)), 89);
    assert_eq!(count(&point_join), 19, "index join misses appended rows");
    assert_eq!(count(&indexed("lineitem.orderkey", 777)), 19, "orderkey index scan is stale");
    assert_eq!(count(&indexed("lineitem.shipdate", 5)), 89, "shipdate index scan is stale");
    let mut via_index = run(&indexed("lineitem.orderkey", 777)).rows;
    let mut via_scan = run(&unindexed("lineitem.orderkey", 777)).rows;
    via_index.sort();
    via_scan.sort();
    assert_eq!(via_index, via_scan, "same rows, not just the same count");
    assert_eq!(svc.reserved(), 0.0);
}

/// Integer columns are stored at the narrowest width that holds them and
/// re-encoded in place by the first append that does not fit. With the
/// widening values on the rows that matter, every read path — filtered scan,
/// both `lineitem` index plans, a standing view — returns what plain `i64`
/// rows kept beside the service return, and a snapshot taken before the
/// append keeps its narrow columns (copy on write).
#[test]
fn widening_appends_match_an_i64_reference_on_every_read_path() {
    let db = small_db();
    let svc = QueryService::new(&db.catalog, ServiceConfig::default());
    let widths = |t: &Table| {
        ["orderkey", "shipdate", "quantity"]
            .map(|c| t.column_by_name(c).unwrap().as_int_slice().unwrap().width())
    };
    let before = db.catalog.clone();
    // The reference: the rows as `Value::Int(i64)`s, filtered in the test.
    let mut reference: Vec<Row> = before.table("lineitem").unwrap().iter_rows().collect();
    assert_eq!(widths(&before.table("lineitem").unwrap()), [2, 2, 1], "loaded narrow");

    let scan = |pred| {
        QuerySpec::new()
            .table("lineitem")
            .filter("lineitem", pred)
            .project(&["lineitem.orderkey", "lineitem.shipdate", "lineitem.quantity"])
    };
    let expect = |reference: &[Row], keep: &dyn Fn(i64, i64, i64) -> bool| {
        let int = |r: &Row, c: usize| r[c].as_int().unwrap();
        let mut rows: Vec<Row> = reference
            .iter()
            .filter(|r| keep(int(r, 0), int(r, 6), int(r, 3)))
            .map(|r| vec![r[0].clone(), r[6].clone(), r[3].clone()])
            .collect();
        rows.sort();
        rows
    };
    let standing = scan(col("lineitem.shipdate").ge(lit(2_500i64)));
    let sub = svc.subscribe(&standing, SubscribeOptions::default()).expect("subscribe");

    // Past `i16`, past `i8` and past `i32`, beside keys the indexes hold.
    let wide = [(i64::MAX, 40_000, 300), (777, 40_000, 1), (i64::MAX, 5, 50), (777, 5, 300)];
    let fresh: Vec<Row> = wide
        .into_iter()
        .map(|(orderkey, shipdate, quantity)| {
            let ints = [orderkey, 1, 1, quantity].map(Value::Int);
            let floats = [1_000.0, 0.0].map(Value::Float);
            ints.into_iter().chain(floats).chain([shipdate, 0].map(Value::Int)).collect()
        })
        .collect();
    reference.extend(fresh.iter().cloned());
    svc.append_rows("lineitem", fresh).expect("append");

    type Keep = fn(i64, i64, i64) -> bool;
    let cases: [(QuerySpec, bool, Keep); 6] = [
        (scan(col("lineitem.orderkey").eq(lit(i64::MAX))), true, |k, _, _| k == i64::MAX),
        (scan(col("lineitem.orderkey").eq(lit(777i64))), true, |k, _, _| k == 777),
        (scan(col("lineitem.shipdate").eq(lit(40_000i64))), true, |_, d, _| d == 40_000),
        (scan(col("lineitem.shipdate").eq(lit(5i64))), true, |_, d, _| d == 5),
        (scan(col("lineitem.quantity").add(lit(0i64)).eq(lit(300i64))), false, |_, _, q| q == 300),
        (scan(col("lineitem.quantity").ge(lit(1i64))), false, |_, _, _| true),
    ];
    for (spec, probes_index, keep) in &cases {
        let out = svc.run_solo(spec).expect("solo run");
        assert_eq!(out.fingerprint.contains("ix"), *probes_index, "plan {}", out.fingerprint);
        let mut rows = out.rows;
        rows.sort();
        assert!(!rows.is_empty());
        assert_eq!(rows, expect(&reference, keep), "plan {}", out.fingerprint);
    }

    let (_, lag) = svc.poll_subscription(sub, 0).expect("poll");
    assert_eq!(lag, 0);
    let view = svc.subscriptions().get(sub).expect("live").view();
    assert_eq!(view, canonicalize(expect(&reference, &|_, d, _| d >= 2_500)));
    assert!(view.iter().any(|r| r[1] == Value::Int(40_000)), "the view took the wide rows");

    // The snapshot of the epoch before the append still reads its own rows
    // at its own widths; the service's table is a widened copy.
    let old = before.table("lineitem").unwrap();
    assert_eq!(widths(&old), [2, 2, 1]);
    assert!(old.iter_rows().eq(reference[..4_000].iter().cloned()));
    assert!(svc.unsubscribe(sub));
    assert_eq!(svc.reserved(), 0.0);
}

/// The footprint gate, in counted bytes so it holds on any machine: at
/// 40 000 `lineitem` rows six integer columns take 9 bytes a row beside the
/// two floats' 16 (48 + 16 at eight bytes each), and the gauge STATS
/// publishes is that count, not `len × 8`.
#[test]
fn narrow_columns_bound_the_resident_bytes_per_row() {
    let db = TpchDb::build(TpchParams { lineitem_rows: 40_000, ..Default::default() }, 42);
    let bytes_per_row = |name: &str| {
        let t = db.catalog.table(name).unwrap();
        t.heap_bytes() as f64 / t.nrows() as f64
    };
    assert!(bytes_per_row("lineitem") <= 28.0, "lineitem {} B/row", bytes_per_row("lineitem"));
    assert!(bytes_per_row("orders") <= 16.0, "orders {} B/row", bytes_per_row("orders"));

    let svc = QueryService::new(&db.catalog, ServiceConfig::default());
    svc.refresh_live_gauges();
    let counted: usize =
        db.catalog.table_names().iter().map(|t| db.catalog.table(t).unwrap().heap_bytes()).sum();
    assert_eq!(svc.metrics().gauge("server.storage.table_bytes").get(), counted as f64);

    // Beside the bytes, the feedback repository's size: signatures carry
    // their predicate's literals, so every new literal is a new entry.
    let signatures = || {
        svc.refresh_live_gauges();
        svc.metrics().gauge("server.feedback.signatures").get()
    };
    assert_eq!(signatures(), 0.0);
    let scan = |q: i64| {
        QuerySpec::new().table("lineitem").filter("lineitem", col("lineitem.quantity").lt(lit(q)))
    };
    svc.run_solo(&scan(10)).unwrap();
    assert_eq!(signatures(), 1.0, "one filtered scan, one signature");
    svc.run_solo(&scan(10)).unwrap();
    assert_eq!(signatures(), 1.0, "a repeat refines its signature");
    svc.run_solo(&scan(20)).unwrap();
    assert_eq!(signatures(), 2.0, "another literal, another signature");
}

#[test]
fn a06_runs_and_scoreboard_v4_gates_the_service_metrics() {
    let dir = std::env::temp_dir().join(format!("rqp_a06_gate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = rqp_bench::experiments::RunEnv::new(true, dir.clone());
    let summary = rqp_bench::experiments::service::a06_concurrent_service(&env);
    assert!(summary.contains("A06"), "experiment produced no summary");

    let board = Scoreboard::from_dir(&dir).expect("fold the a06 run report");
    let entry = board.entries.get("a06_concurrent_service").expect("a06 entry");
    let (amplification, wait) = (entry.get("tail_amplification"), entry.get("admission_wait"));
    assert!(amplification.is_finite() && amplification >= 1.0);
    assert!(wait.is_finite() && wait >= 0.0);

    // The diff gate must trip when either service metric degrades past its
    // threshold relative to this run as baseline.
    let mut worse = board.clone();
    {
        let e = worse.entries.get_mut("a06_concurrent_service").unwrap();
        e.set("tail_amplification", e.get("tail_amplification") + 1.0);
        e.set("admission_wait", e.get("admission_wait") * 2.0 + 5.0);
    }
    let regressions = board.diff(&worse);
    let metrics: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
    assert!(metrics.contains(&"tail_amplification"), "tail amplification gate missing");
    assert!(metrics.contains(&"admission_wait"), "admission wait gate missing");

    // And the clean self-diff must pass.
    assert!(board.diff(&board).is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}
