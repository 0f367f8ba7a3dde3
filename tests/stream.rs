//! Acceptance tests for standing subscriptions: the maintained view must be
//! **bit-identical** to re-running the spec from scratch after every drained
//! churn interleaving — under whatever chaos seed and page budget the CI
//! matrix sets (chaos inflates propagation cost with
//! retry charges; it must never change the maintained rows) — and every
//! teardown path (explicit unsubscribe, deadline abort, token cancel,
//! service shutdown) must leave the registry empty, the broker at zero
//! reservations and the pool at zero pins.
//!
//! Compiled under `rqp-bench` so it can drive the query service and the
//! stream crate in one place (the wire-disconnect teardown leg lives in
//! `tests/net.rs` next to the rest of the wire suite).

use rqp::common::rng::{child_seed, seeded};
use rqp::server::{QueryService, ServiceConfig, SubscribeOptions};
use rqp::stream::canonicalize;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::{QuerySpec, Row, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// A service over a small TPC-H-like snapshot. Drift invalidation is off so
/// cold re-runs always execute the cached physical plan (the comparison is
/// about maintained state, not replanning).
fn service(li: usize, page_budget: Option<usize>) -> (TpchDb, QueryService) {
    let db = TpchDb::build(TpchParams { lineitem_rows: li, ..Default::default() }, 4242);
    let svc = QueryService::new(
        &db.catalog,
        ServiceConfig { mpl: 4, drift_threshold: 1e9, page_budget, ..ServiceConfig::default() },
    );
    (db, svc)
}

/// The standing-query menu: grouped aggregate, 3-way join + aggregate,
/// global aggregate, filter + projection — ORDER BY/LIMIT stripped.
fn menu(db: &TpchDb) -> Vec<QuerySpec> {
    let wide = QuerySpec::new()
        .table("lineitem")
        .filter(
            "lineitem",
            rqp::expr::col("lineitem.shipdate").lt(rqp::expr::lit(1_200i64)),
        )
        .project(&["lineitem.orderkey", "lineitem.quantity", "lineitem.extendedprice"]);
    let mut specs = vec![db.q1(30), db.q3(1, 400), db.q6(100, 0.05, 30)];
    for s in &mut specs {
        s.order_by.clear();
        s.limit = None;
    }
    specs.push(wide);
    specs
}

/// A fresh lineitem row; float columns dyadic so retractable sums stay
/// exact no matter how the interleaving slices them.
fn fresh_row(rng: &mut StdRng) -> Row {
    let k = rng.gen_range(0..1_000_000i64);
    vec![
        Value::Int(k % 200),
        Value::Int(k % 20),
        Value::Int(k % 10),
        Value::Int(1 + k % 50),
        Value::Float(1_000.0 + (k % 100) as f64 * 0.25),
        Value::Float((k % 5) as f64 * 0.015_625),
        Value::Int(k % 2_400),
        Value::Int(k % 3),
    ]
}

/// The core property: for random append/poll interleavings — batches of
/// random size, polls draining random record counts, some subscriptions
/// left lagging for whole rounds — every fully-drained view equals a cold
/// re-run, bit for bit.
#[test]
fn maintained_views_match_cold_reruns_under_random_churn() {
    let (db, svc) = service(800, None);
    let specs = menu(&db);
    let subs: Vec<(u64, &QuerySpec)> = specs
        .iter()
        .map(|s| (svc.subscribe(s, SubscribeOptions::default()).expect("subscribe"), s))
        .collect();
    for case in 0..6u64 {
        let mut rng = seeded(child_seed(0x57ea + case, "churn"));
        for _ in 0..4 {
            let rows: Vec<Row> = (0..rng.gen_range(1..40)).map(|_| fresh_row(&mut rng)).collect();
            svc.append_rows("lineitem", rows).expect("append");
            // Random partial drains: each subscription advances by a random
            // number of records (possibly zero — it just lags).
            for &(id, _) in &subs {
                let max = rng.gen_range(0..30usize);
                if max > 0 {
                    svc.poll_subscription(id, max).expect("partial poll");
                }
            }
        }
        // Checkpoint: drain fully, then every view must equal a cold rerun.
        for &(id, spec) in &subs {
            let (_, lag) = svc.poll_subscription(id, 0).expect("drain");
            assert_eq!(lag, 0, "a full drain leaves no lag");
            let view = svc.subscriptions().get(id).expect("live").view();
            let cold = canonicalize(svc.run_solo(spec).expect("cold rerun").rows);
            assert_eq!(view, cold, "case {case}: maintained view diverged from cold rerun");
        }
    }
    assert_eq!(svc.shutdown_subscriptions(), subs.len());
    assert_eq!(svc.subscriptions().count(), 0);
    assert!(svc.reserved().abs() < 1e-6, "grants returned on shutdown");
}

/// Epoch sequencing and lag accounting are exact: `append_rows` returns the
/// changelog length, a poll bounded to `k` records advances the cursor by
/// exactly `k`, and the delta packets compose to the full delta.
#[test]
fn partial_polls_account_lag_exactly() {
    let (db, svc) = service(400, None);
    let spec = &menu(&db)[3]; // filter + projection: one delta row per match
    let id = svc.subscribe(spec, SubscribeOptions::default()).expect("subscribe");
    let view0 = svc.subscriptions().get(id).expect("live").view();
    let before = svc.changelog().len();
    let mut rng = seeded(0xacc);
    let epoch = svc
        .append_rows("lineitem", (0..25).map(|_| fresh_row(&mut rng)).collect())
        .expect("append");
    assert_eq!(epoch, before + 25, "append returns the post-append epoch");
    let mut remaining = 25u64;
    let mut drained = Vec::new();
    for k in [10u64, 10, 10] {
        let (packet, lag) = svc.poll_subscription(id, k as usize).expect("poll");
        remaining = remaining.saturating_sub(k);
        assert_eq!(lag, remaining, "lag decreases by exactly the drained records");
        assert!(packet.retracted.is_empty(), "insert-only churn never retracts");
        drained.extend(packet.inserted);
    }
    let view = svc.subscriptions().get(id).expect("live").view();
    let cold = canonicalize(svc.run_solo(spec).expect("cold").rows);
    assert_eq!(view, cold);
    // The partial packets compose to the full delta: initial view plus
    // every drained insert is exactly the final view.
    let mut composed = view0;
    composed.extend(drained);
    assert_eq!(canonicalize(composed), view);
    assert!(svc.unsubscribe(id));
    assert!(!svc.unsubscribe(id), "double unsubscribe reports false");
}

/// Chaos belongs to a service, not to the process: of two services alive at
/// once and fed the same appends, the seeded one charges retry cost on its
/// polls and the unseeded one does not, while both deliver the same deltas.
#[test]
fn chaos_seed_is_per_service() {
    let mut rng = seeded(0xc4a05);
    let rows: Vec<Row> = (0..200).map(|_| fresh_row(&mut rng)).collect();
    let poll_cost = |chaos_seed: Option<u64>| {
        // One database per service: under the paging leg each service's
        // buffer pool attaches to its catalog's tables.
        let db = TpchDb::build(TpchParams { lineitem_rows: 400, ..Default::default() }, 4242);
        let spec = &menu(&db)[3];
        let svc = QueryService::new(
            &db.catalog,
            ServiceConfig { drift_threshold: 1e9, chaos_seed, ..ServiceConfig::default() },
        );
        let id = svc.subscribe(spec, SubscribeOptions::default()).expect("subscribe");
        svc.append_rows("lineitem", rows.clone()).expect("append");
        let sub = svc.subscriptions().get(id).expect("live");
        let before = sub.cost();
        let (packet, lag) = svc.poll_subscription(id, 0).expect("poll never drops deltas");
        assert_eq!(lag, 0);
        (svc, sub.cost() - before, packet)
    };
    // Both services stay alive until the comparison is done.
    let (_calm_svc, calm, calm_packet) = poll_cost(None);
    let (_hostile_svc, hostile, hostile_packet) = poll_cost(Some(1111));
    let (_again_svc, again, _) = poll_cost(None);
    assert_eq!(calm.to_bits(), again.to_bits(), "no seed, no retry charges");
    assert!(hostile > calm, "a seeded service must charge retries: {hostile} vs {calm}");
    assert_eq!(calm_packet.inserted, hostile_packet.inserted, "chaos never changes a delta");
    assert!(hostile_packet.retracted.is_empty() && calm_packet.retracted.is_empty());
}

/// A subscription registered with a propagation-cost deadline is torn down
/// by the first poll that charges past it — typed error, empty registry, no
/// grants, no pins.
#[test]
fn deadline_abort_tears_down_subscription() {
    let (db, svc) = service(600, Some(64));
    let spec = &menu(&db)[1]; // the join: polls charge real probe work
    let id = svc
        .subscribe(spec, SubscribeOptions::with_deadline(1e-9))
        .expect("a tiny deadline still registers: the initial load is pre-deadline");
    let mut rng = seeded(0xdead);
    svc.append_rows("lineitem", (0..8).map(|_| fresh_row(&mut rng)).collect()).expect("append");
    let err = svc.poll_subscription(id, 0).expect_err("deadline must trip");
    assert_eq!(err, rqp::common::RqpError::DeadlineExceeded);
    assert!(svc.subscriptions().get(id).is_none(), "deadline abort removed the subscription");
    assert_eq!(svc.subscriptions().count(), 0);
    assert!(svc.reserved().abs() < 1e-6, "deadline abort returned the grant");
    assert_eq!(svc.pager().expect("paged service").pins(), 0, "no pins survive the abort");
}

/// Cancelling a subscription's token makes the next poll fail typed and
/// tear it down, exactly like a cancelled query.
#[test]
fn cancelled_token_tears_down_on_next_poll() {
    let (db, svc) = service(400, None);
    let id = svc.subscribe(&menu(&db)[0], SubscribeOptions::default()).expect("subscribe");
    svc.subscriptions().get(id).expect("live").token().cancel();
    let err = svc.poll_subscription(id, 0).expect_err("cancelled poll");
    assert!(err.is_cancellation(), "got {err:?}");
    assert_eq!(svc.subscriptions().count(), 0);
    assert!(svc.reserved().abs() < 1e-6);
}

/// Service shutdown tears down every subscription at once: registry empty,
/// all grants returned, pool at zero pins, and the teardown counter in the
/// metrics matches.
#[test]
fn shutdown_tears_down_every_subscription() {
    let (db, svc) = service(600, Some(64));
    let specs = menu(&db);
    let ids: Vec<u64> = (0..8)
        .map(|i| {
            svc.subscribe(&specs[i % specs.len()], SubscribeOptions::default()).expect("subscribe")
        })
        .collect();
    let mut rng = seeded(0x5d0);
    svc.append_rows("lineitem", (0..16).map(|_| fresh_row(&mut rng)).collect()).expect("append");
    for &id in &ids {
        svc.poll_subscription(id, 0).expect("poll");
    }
    assert!(svc.reserved() > 0.0, "live subscriptions hold broker grants");
    assert_eq!(svc.shutdown_subscriptions(), ids.len());
    assert_eq!(svc.subscriptions().count(), 0, "registry empty after shutdown");
    assert!(svc.reserved().abs() < 1e-6, "every grant returned");
    assert_eq!(svc.pager().expect("paged service").pins(), 0, "no pins survive shutdown");
    for &id in &ids {
        let err = svc.poll_subscription(id, 0).expect_err("dead id");
        assert!(matches!(err, rqp::common::RqpError::Invalid(_)), "got {err:?}");
    }
}

/// The benchmark's q3 view (`customer ⋈ orders ⋈ lineitem` on one-column
/// keys, at most one stored column per side) keeps its join state in slot
/// arenas: the service's gauges read at most 60 counted bytes per state row
/// — a `Vec` per key and per stored row cost ≈87 — and teardown returns
/// every byte.
#[test]
fn q3_view_state_stays_under_60_bytes_per_state_row() {
    let db = TpchDb::build(TpchParams { lineitem_rows: 40_000, ..Default::default() }, 101);
    let svc = QueryService::new(
        &db.catalog,
        ServiceConfig { drift_threshold: 1e9, ..ServiceConfig::default() },
    );
    let mut q3 = db.q3(2, 1_250);
    q3.order_by.clear();
    q3.limit = None;
    let id = svc.subscribe(&q3, SubscribeOptions::default()).expect("subscribe");
    svc.refresh_live_gauges();
    let gauge = |name: &str| svc.metrics().gauge(name).get();
    let (rows, bytes) = (gauge("server.subs.state_rows"), gauge("server.subs.state_bytes"));
    assert!(rows > 10_000.0, "the view holds real join state: {rows} rows");
    assert!(bytes / rows <= 60.0, "{bytes} B over {rows} state rows = {:.1} B/row", bytes / rows);
    assert!(svc.unsubscribe(id));
    svc.refresh_live_gauges();
    assert_eq!((gauge("server.subs.state_rows"), gauge("server.subs.state_bytes")), (0.0, 0.0));
}

// ---------------------------------------------------------------------------
// Churn with retractions, below the service (which only appends): circuits
// driven straight off a catalog's changelog.
// ---------------------------------------------------------------------------

use rqp::common::CostClock;
use rqp::expr::{col, lit};
use rqp::storage::{ChangeOp, ChangeRecord, Changelog};
use rqp::stream::{DeltaPacket, ViewCircuit};
use rqp::{AggFunc, AggSpec, Catalog, DataType, Database, Schema, Table};
use std::sync::Arc;

/// The churned tables: the four TPC-H ones the q1/q3/q5 specs read (schemas
/// taken from a generated database, rows from [`churn_row`]) plus a pair
/// joined on an `Int` key against a `Float` key.
const CHURN_TABLES: [&str; 6] = ["customer", "orders", "lineitem", "supplier", "ticks", "marks"];

/// A tiny generated database: the source of the TPC-H schemas and specs.
fn tpch_shapes() -> TpchDb {
    TpchDb::build(TpchParams { lineitem_rows: 40, with_indexes: false, ..Default::default() }, 1)
}

fn churn_schema(shapes: &TpchDb, table: &str) -> Schema {
    match table {
        "ticks" => Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        "marks" => Schema::from_pairs(&[("k", DataType::Float), ("w", DataType::Float)]),
        tpch => shapes.catalog.table(tpch).expect("generated table").schema().clone(),
    }
}

/// A random row for `table`: small key domains, so joins fan out, groups
/// collide and exact duplicates of live rows turn up on their own. Every
/// float is dyadic, so SUM/AVG stay exact under retraction whatever order
/// rows come and go in.
fn churn_row(table: &str, rng: &mut StdRng) -> Row {
    let mut int = |hi: i64| Value::Int(rng.gen_range(0..hi));
    match table {
        "customer" => vec![int(6), int(6), int(3), Value::Float(0.5)],
        "orders" => vec![int(12), int(6), int(2_400), Value::Float(100.25)],
        "lineitem" => {
            let (o, p, s, q) = (int(12), int(5), int(4), int(8));
            let price = Value::Float(1_000.0 + rng.gen_range(0..6) as f64 * 0.25);
            let disc = Value::Float(rng.gen_range(0..4) as f64 * 0.015_625);
            vec![
                o,
                p,
                s,
                q,
                price,
                disc,
                Value::Int(rng.gen_range(0..2_400)),
                Value::Int(rng.gen_range(0..3)),
            ]
        }
        "supplier" => vec![int(4), int(6)],
        "ticks" => vec![int(6), int(5)],
        // Halves: 2.0 meets the Int key 2, 2.5 meets nothing.
        "marks" => vec![
            Value::Float(rng.gen_range(0..12) as f64 * 0.5),
            Value::Float(rng.gen_range(0..5) as f64 * 0.25),
        ],
        other => unreachable!("no generator for {other}"),
    }
}

/// The q1, q3 and q5 shapes (ORDER BY/LIMIT stripped), a MIN/MAX shape
/// whose extrema get retracted, and the mixed `Int`/`Float`-key join.
fn churn_menu(shapes: &TpchDb) -> Vec<QuerySpec> {
    let mut specs = vec![shapes.q1(30), shapes.q3(1, 1_200), shapes.q5(0, 5, 600)];
    for s in &mut specs {
        s.order_by.clear();
        s.limit = None;
    }
    specs.push(
        QuerySpec::new()
            .table("lineitem")
            .filter("lineitem", col("lineitem.shipdate").lt(lit(2_000i64)))
            .aggregate(
                &["lineitem.returnflag"],
                vec![
                    AggSpec::on(AggFunc::Min, "lineitem.extendedprice", "lo"),
                    AggSpec::on(AggFunc::Max, "lineitem.quantity", "hi"),
                    AggSpec::count_star("n"),
                ],
            ),
    );
    specs.push(QuerySpec::new().join("ticks", "k", "marks", "k").aggregate(
        &["ticks.k"],
        vec![
            AggSpec::count_star("n"),
            AggSpec::on(AggFunc::Min, "marks.w", "lo"),
            AggSpec::on(AggFunc::Sum, "ticks.v", "s"),
        ],
    ));
    specs.push(QuerySpec::new().join("ticks", "k", "marks", "k").project(&["ticks.v", "marks.w"]));
    specs
}

/// Apply a packet to a subscriber's copy of the view — inserts first: a
/// non-aggregate packet is not coalesced, so one that folds "insert a row,
/// then delete its join partner" retracts a row it also inserts. After the
/// inserts, a retraction of a row the copy does not hold is a failure.
fn replay_packet(view: &mut Vec<Row>, p: &DeltaPacket, what: &str) {
    view.extend(p.inserted.iter().cloned());
    for r in &p.retracted {
        let i = view
            .iter()
            .position(|x| x == r)
            .unwrap_or_else(|| panic!("{what}: retracted a row the copy never held: {r:?}"));
        view.swap_remove(i);
    }
    view.sort();
}

/// Seeded inserts *and* retractions over every menu shape: after each poll
/// the packets replayed onto a copy, the maintained view and a cold engine
/// re-run (under whatever chaos seed the CI leg sets) are the same rows — and once every base row is deleted, each
/// circuit's counted state is byte-for-byte an empty circuit's: no key,
/// bucket, group or multiset value lingers.
#[test]
fn churn_with_retractions_matches_cold_reruns_and_leaves_no_state() {
    let shapes = tpch_shapes();
    let specs = churn_menu(&shapes);
    // Largest view each shape reached: a shape that never matched a row
    // would pass everything below vacuously.
    let mut widest = vec![0usize; specs.len()];
    for case in 0..4u64 {
        let mut rng = seeded(child_seed(0xc4u64 + case, "retract"));
        let mut catalog = Catalog::new();
        for name in CHURN_TABLES {
            let mut t = Table::new(name, churn_schema(&shapes, name));
            for _ in 0..rng.gen_range(5..40) {
                t.append(churn_row(name, &mut rng));
            }
            catalog.add_table(t);
        }
        let log = Arc::new(Changelog::new());
        catalog.attach_changelog(&log);
        let clock = CostClock::default_clock();
        let mut circuits: Vec<(ViewCircuit, Vec<Row>, usize)> = specs
            .iter()
            .map(|spec| {
                let empty = ViewCircuit::compile(spec, &catalog).expect("compile");
                let mut c = ViewCircuit::compile(spec, &catalog).expect("compile");
                c.load_initial(&catalog, &clock).expect("initial load");
                let copy = c.snapshot();
                (c, copy, empty.state_bytes())
            })
            .collect();
        let mut cursor = 0u64;
        let mut check =
            |catalog: &Catalog, circuits: &mut Vec<(ViewCircuit, Vec<Row>, usize)>, step: &str| {
                let (recs, next) = log.since_up_to(cursor, usize::MAX);
                cursor = next;
                let mut cold = Database::from_catalog(catalog.clone());
                cold.analyze();
                for (si, (circuit, copy, _)) in circuits.iter_mut().enumerate() {
                    let what = format!("case {case} {step} spec {si}");
                    let packet = circuit.apply(&recs, &clock);
                    replay_packet(copy, &packet, &what);
                    assert_eq!(*copy, circuit.snapshot(), "{what}: packets diverged from the view");
                    let rerun = canonicalize(cold.execute(&specs[si]).expect("cold re-run").rows);
                    assert_eq!(*copy, rerun, "{what}: view diverged from a cold re-run");
                    widest[si] = widest[si].max(copy.len());
                }
            };
        check(&catalog, &mut circuits, "load");
        for round in 0..30 {
            for _ in 0..rng.gen_range(1..8) {
                let name = CHURN_TABLES[rng.gen_range(0..CHURN_TABLES.len())];
                let t = catalog.table_mut(name).expect("table");
                match rng.gen_range(0..10) {
                    // Retract a random live row (often a group's extremum).
                    0..=3 if t.nrows() > 0 => {
                        t.delete_row(rng.gen_range(0..t.nrows()));
                    }
                    // Insert an exact duplicate of a live row.
                    4 if t.nrows() > 0 => {
                        let dup = t.row(rng.gen_range(0..t.nrows()));
                        t.append(dup);
                    }
                    _ => t.append(churn_row(name, &mut rng)),
                }
            }
            check(&catalog, &mut circuits, &format!("round {round}"));
        }
        // Retract everything, last row first (no shifting), table by table.
        for name in CHURN_TABLES {
            let t = catalog.table_mut(name).expect("table");
            while t.nrows() > 0 {
                t.delete_row(t.nrows() - 1);
            }
        }
        check(&catalog, &mut circuits, "drain");
        for (si, (circuit, _, empty_bytes)) in circuits.iter().enumerate() {
            assert_eq!(
                circuit.state_bytes(),
                *empty_bytes,
                "case {case} spec {si}: state lingers after retracting every row"
            );
            // Only a global aggregate keeps its one, empty group.
            assert_eq!(
                circuit.state_rows(),
                usize::from(*empty_bytes > 0),
                "case {case} spec {si}"
            );
        }
    }
    assert!(widest.iter().all(|&n| n >= 2), "every shape held rows at some point: {widest:?}");
}

/// The engine's typed columns cannot hold a NULL, but a changelog row can:
/// NULL aggregate inputs count for COUNT(*) only, a NULL group key is a
/// group of its own, and both must retract cleanly. The cold side here is a
/// fresh circuit fed only the surviving rows.
#[test]
fn null_inputs_and_group_keys_retract_like_a_cold_circuit() {
    let mut catalog = Catalog::new();
    catalog.add_table(Table::new(
        "t",
        Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float), ("pad", DataType::Int)]),
    ));
    let spec = QuerySpec::new().table("t").aggregate(
        &["t.g"],
        vec![
            AggSpec::count_star("n"),
            AggSpec::on(AggFunc::Count, "t.x", "nx"),
            AggSpec::on(AggFunc::Sum, "t.x", "s"),
            AggSpec::on(AggFunc::Min, "t.x", "lo"),
            AggSpec::on(AggFunc::Max, "t.x", "hi"),
        ],
    );
    let clock = CostClock::default_clock();
    let table: Arc<str> = Arc::from("t");
    let record = |epoch: u64, op: ChangeOp, row: &Row| ChangeRecord {
        epoch,
        table: Arc::clone(&table),
        op,
        row: row.clone(),
    };
    let mut rng = seeded(0x0011);
    let mut maintained = ViewCircuit::compile(&spec, &catalog).expect("compile");
    let empty_bytes = maintained.state_bytes();
    let mut copy: Vec<Row> = Vec::new();
    let mut live: Vec<Row> = Vec::new();
    let mut epoch = 0u64;
    for step in 0..200 {
        let retract = !live.is_empty() && (step >= 150 || rng.gen_range(0..3) == 0);
        let rec = if retract {
            let row = live.swap_remove(rng.gen_range(0..live.len()));
            record(epoch, ChangeOp::Delete, &row)
        } else {
            let g = if rng.gen_range(0..4) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..3))
            };
            let x = if rng.gen_range(0..3) == 0 {
                Value::Null
            } else {
                Value::Float(rng.gen_range(0..8) as f64 * 0.5)
            };
            let row = vec![g, x, Value::Int(step)];
            live.push(row.clone());
            record(epoch, ChangeOp::Insert, &row)
        };
        epoch += 1;
        let packet = maintained.apply(&[rec], &clock);
        replay_packet(&mut copy, &packet, &format!("step {step}"));
        let mut cold = ViewCircuit::compile(&spec, &catalog).expect("compile");
        let survivors: Vec<ChangeRecord> =
            live.iter().enumerate().map(|(i, r)| record(i as u64, ChangeOp::Insert, r)).collect();
        cold.apply(&survivors, &clock);
        assert_eq!(copy, cold.snapshot(), "step {step}: packets diverged from a cold circuit");
        assert_eq!(
            maintained.state_bytes(),
            cold.state_bytes(),
            "step {step}: footprint depends on history"
        );
    }
    for (i, row) in std::mem::take(&mut live).iter().enumerate() {
        let packet = maintained.apply(&[record(epoch + i as u64, ChangeOp::Delete, row)], &clock);
        replay_packet(&mut copy, &packet, "drain");
    }
    assert!(copy.is_empty(), "every group retracted");
    assert_eq!(maintained.state_bytes(), empty_bytes, "no group or multiset value lingers");
}
