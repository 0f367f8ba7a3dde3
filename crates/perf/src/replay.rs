//! The in-process replay and the microloops: the same operations the wire
//! pass sent, pushed through each layer's public entry points in the order
//! the server calls them, each call a span.
//!
//! Every layer is measured from outside. The public functions called here
//! are listed in the README ("Probe points"); a PR that moves one of them
//! has to move this file first.

use crate::metrics::median;
use crate::trace::{self_times, Span, SpanLog};
use crate::workload::{Kind, Op, Oracle, APPEND_ROWS};
use rqp_common::{ChaosPolicy, CostClock, Result, Row};
use rqp_exec::{ExecContext, MemoryGovernor};
use rqp_net::frame::HEADER_LEN;
use rqp_net::{rows_checksum, ClientMsg, Frame, ServerMsg, WireQueryOptions, PAGE_ROWS};
use rqp_opt::{plan, PlannerConfig, QuerySpec};
use rqp_server::{PlanCache, SubscribeOptions};
use rqp_stats::{StatsEstimator, TableStatsRegistry};
use rqp_storage::{BufferPool, Catalog};
use rqp_telemetry::FlightRecorder;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the replay and the microloops measured: per-layer values by metric
/// name (absent = the workload does not exercise the layer), the spans
/// behind them, and the in-process time of one primary operation — the
/// part of the client's latency that is not the wire.
pub struct Replay {
    pub values: HashMap<&'static str, f64>,
    pub spans: Vec<Span>,
    pub in_process_ms: Option<f64>,
}

/// Totals the per-row and per-record ratios are taken over.
#[derive(Default)]
struct Totals {
    result_rows: usize,
    page_bytes: usize,
    base_rows: usize,
    cost_ticks: f64,
    appended_rows: usize,
    polled_records: usize,
    delta_rows: usize,
}

/// Sum of a span name's self times, in nanoseconds.
fn total_ns(own: &HashMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    own.get(name).map_or(0.0, |v| v.iter().sum())
}

/// Nanoseconds the spans of one operation (those from index `first` on)
/// spent under any of `names`.
fn op_ns(log: &SpanLog, first: usize, names: &[&str]) -> f64 {
    let spans = log.spans[first..]
        .iter()
        .filter(|s| names.contains(&s.name));
    spans.map(|s| (s.end_ns - s.start_ns) as f64).sum()
}

/// Operations after which the replay has seen enough, whatever the budget.
const MAX_OPS: u64 = 400;

/// Replay up to `MAX_OPS` of connection 0's operations within `budget`.
/// Mutates the oracle's service (appends, plan-cache state), so it runs
/// after the last oracle lookup.
pub fn replay(oracle: &mut Oracle, budget: Duration) -> Result<Replay> {
    let kind = oracle.kind;
    let t0 = Instant::now();
    let mut log = SpanLog::new(t0, 3 << 32);
    let mut totals = Totals::default();
    // Per operation: the in-process time of the whole operation, and the
    // service's own share of `run_solo` (neither is a single span).
    let mut in_process_ns: Vec<f64> = Vec::new();
    let mut overhead_ns: Vec<f64> = Vec::new();
    let mut gen = oracle.op_gen(0);

    if kind == Kind::StreamAppend {
        let subs: Vec<u64> = oracle
            .menu()
            .iter()
            .map(|spec| {
                log.time("stream.subscribe", 0, 0, || {
                    oracle.svc.subscribe(spec, SubscribeOptions::default())
                })
            })
            .collect::<Result<_>>()?;
        // Records appended since each subscription's last poll.
        let mut pending = vec![0usize; subs.len()];
        for op in 1..=MAX_OPS {
            if t0.elapsed() >= budget {
                break;
            }
            let Op::Cycle { rows } = gen.next_op() else {
                unreachable!("stream_append generates cycles")
            };
            let first = log.spans.len();
            let root = log.open("replay.op", op, 0);
            log.time("storage.append", op, root, || {
                oracle.svc.append_rows("lineitem", rows)
            })?;
            pending.iter_mut().for_each(|p| *p += APPEND_ROWS);
            // Like the wire pass, a cycle polls one subscription; the two
            // take turns, as the two connections do.
            let turn = op as usize % subs.len();
            let (packet, _lag) = log.time("stream.poll", op, root, || {
                oracle.svc.poll_subscription(subs[turn], 0)
            })?;
            log.close(root);
            totals.appended_rows += APPEND_ROWS;
            totals.polled_records += std::mem::take(&mut pending[turn]);
            totals.delta_rows += packet.delta_rows();
            in_process_ns.push(op_ns(&log, first, &["storage.append", "stream.poll"]));
        }
    } else {
        let config = oracle.svc.config().clone();
        let stats = Rc::new(TableStatsRegistry::analyze_catalog(&oracle.db.catalog, 32));
        let snapshot = oracle.db.catalog.snapshot();
        if let Some(pages) = config.page_budget {
            snapshot.attach_pool(&BufferPool::new(pages));
        }
        let cache = PlanCache::new(config.drift_threshold);
        for op in 1..=MAX_OPS {
            if t0.elapsed() >= budget {
                break;
            }
            let Op::Query { spec, .. } = gen.next_op() else {
                unreachable!("query workloads generate queries")
            };
            let first = log.spans.len();
            let root = log.open("replay.op", op, 0);
            replay_query(
                &spec,
                &config,
                &stats,
                &snapshot,
                &cache,
                &mut log,
                op,
                root,
                &mut totals,
            )?;
            let solo = log.time("server.run_solo", op, root, || oracle.svc.run_solo(&spec))?;
            log.close(root);
            std::hint::black_box(solo);
            let solo_ns = op_ns(&log, first, &["server.run_solo"]);
            let codec = [
                "net.encode_request",
                "net.decode_request",
                "net.encode_pages",
                "net.decode_pages",
                "net.checksum",
            ];
            in_process_ns.push(solo_ns + op_ns(&log, first, &codec));
            let planned_and_ran = ["server.plan_cache_lookup", "opt.plan", "exec.build_run"];
            overhead_ns.push(solo_ns - op_ns(&log, first, &planned_and_ran));
        }
    }

    let own = self_times(&log.spans);
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut put_median = |metric: &'static str, span: &str, per: f64| {
        if let Some(v) = own.get(span) {
            values.insert(metric, median(v) / per);
        }
    };
    put_median("net.encode_request_us", "net.encode_request", 1e3);
    put_median("net.decode_request_us", "net.decode_request", 1e3);
    put_median("opt.cache_key_us", "opt.cache_key", 1e3);
    put_median(
        "server.plan_cache_lookup_us",
        "server.plan_cache_lookup",
        1e3,
    );
    put_median("opt.plan_us", "opt.plan", 1e3);
    put_median(
        "storage.snapshot_to_catalog_us",
        "storage.snapshot_to_catalog",
        1e3,
    );
    put_median("exec.build_run_ms", "exec.build_run", 1e6);
    put_median("server.run_solo_ms", "server.run_solo", 1e6);
    put_median("stream.subscribe_ms", "stream.subscribe", 1e6);
    let mut put_ratio = |metric: &'static str, numerator: f64, denominator: f64| {
        if denominator > 0.0 {
            values.insert(metric, numerator / denominator);
        }
    };
    let result_rows = totals.result_rows as f64;
    put_ratio(
        "net.encode_page_ns_per_row",
        total_ns(&own, "net.encode_pages"),
        result_rows,
    );
    put_ratio(
        "net.decode_page_ns_per_row",
        total_ns(&own, "net.decode_pages"),
        result_rows,
    );
    put_ratio(
        "net.checksum_ns_per_row",
        total_ns(&own, "net.checksum"),
        result_rows,
    );
    put_ratio("net.bytes_per_row", totals.page_bytes as f64, result_rows);
    put_ratio(
        "exec.ns_per_base_row",
        total_ns(&own, "exec.build_run"),
        totals.base_rows as f64,
    );
    put_ratio(
        "exec.cost_ticks_per_ms",
        totals.cost_ticks,
        total_ns(&own, "exec.build_run") / 1e6,
    );
    put_ratio(
        "storage.append_us_per_row",
        total_ns(&own, "storage.append") / 1e3,
        totals.appended_rows as f64,
    );
    put_ratio(
        "stream.poll_us_per_record",
        total_ns(&own, "stream.poll") / 1e3,
        totals.polled_records as f64,
    );
    put_ratio(
        "stream.delta_rows_per_record",
        totals.delta_rows as f64,
        totals.polled_records as f64,
    );
    if !overhead_ns.is_empty() {
        values.insert("server.overhead_us", median(&overhead_ns) / 1e3);
    }
    let (pin_hit, pin_refault) = pool_pin_ns()?;
    values.insert("storage.pool_pin_hit_ns", pin_hit);
    values.insert("storage.pool_pin_refault_ns", pin_refault);
    values.insert("telemetry.publish_ns", recorder_publish_ns());
    let in_process_ms = (!in_process_ns.is_empty()).then(|| median(&in_process_ns) / 1e6);
    Ok(Replay {
        values,
        spans: log.spans,
        in_process_ms,
    })
}

/// One query through the layers, in the order `rqp_server`'s query thread
/// calls them; the result crosses the page codec the way the pager and the
/// client handle it.
#[allow(clippy::too_many_arguments)]
fn replay_query(
    spec: &QuerySpec,
    config: &rqp_server::ServiceConfig,
    stats: &Rc<TableStatsRegistry>,
    snapshot: &rqp_storage::CatalogSnapshot,
    cache: &PlanCache,
    log: &mut SpanLog,
    op: u64,
    root: u64,
    totals: &mut Totals,
) -> Result<()> {
    let submit = ClientMsg::Submit {
        spec: spec.clone(),
        opts: WireQueryOptions::default(),
    };
    let (msg_type, payload) = log.time("net.encode_request", op, root, || submit.encode())?;
    let frame = Frame { msg_type, payload };
    let decoded = log.time("net.decode_request", op, root, || ClientMsg::decode(&frame))?;
    let ClientMsg::Submit { spec, .. } = decoded else {
        unreachable!("a SUBMIT decodes to a SUBMIT")
    };

    let catalog: Catalog = log.time("storage.snapshot_to_catalog", op, root, || {
        snapshot.to_catalog()
    });
    let key = log.time("opt.cache_key", op, root, || spec.cache_key());
    let phys = match log.time("server.plan_cache_lookup", op, root, || cache.lookup(&key)) {
        Some(cached) => cached,
        None => {
            let est = StatsEstimator::new(Rc::clone(stats));
            let cfg = PlannerConfig {
                memory_rows: config.default_reservation,
                ..PlannerConfig::default()
            };
            let planned = log.time("opt.plan", op, root, || plan(&spec, &catalog, &est, cfg))?;
            cache.insert(key.clone(), planned.clone());
            planned
        }
    };

    let mut ctx = ExecContext::new(CostClock::default_clock(), 0.0);
    ctx.memory = MemoryGovernor::new(config.memory_rows);
    let (rows, built) = log.time("exec.build_run", op, root, || -> Result<_> {
        let mut built = phys.build(&catalog, &ctx, None)?;
        let rows: Vec<Row> = built.run();
        Ok((rows, built))
    })?;
    // Report the executed q-error like the service does, so this cache hits
    // and drops entries in the pattern the server's does.
    let max_q = built.meters.iter().fold(1.0_f64, |q, m| {
        let (est, actual) = (m.est_rows.max(1.0), (m.actual_rows() as f64).max(1.0));
        q.max(est / actual).max(actual / est)
    });
    cache.note_execution(&key, max_q);
    totals.cost_ticks += ctx.clock.now();
    for table in &spec.tables {
        totals.base_rows += catalog.table(table)?.nrows();
    }

    let encoded = log.time(
        "net.encode_pages",
        op,
        root,
        || -> Result<Vec<(u8, Vec<u8>)>> {
            let mut frames = Vec::new();
            for page in rows.chunks(PAGE_ROWS) {
                frames.push(
                    ServerMsg::Page {
                        query: op,
                        rows: page.to_vec(),
                    }
                    .encode()?,
                );
            }
            let done = ServerMsg::Done {
                query: op,
                total_rows: rows.len() as u64,
                cost: ctx.clock.now(),
                plan_cached: false,
            };
            frames.push(done.encode()?);
            Ok(frames)
        },
    )?;
    totals.result_rows += rows.len();
    totals.page_bytes += encoded
        .iter()
        .map(|(_, payload)| HEADER_LEN + payload.len())
        .sum::<usize>();
    let frames: Vec<Frame> = encoded
        .into_iter()
        .map(|(msg_type, payload)| Frame { msg_type, payload })
        .collect();
    let received = log.time("net.decode_pages", op, root, || -> Result<Vec<Row>> {
        let mut received = Vec::new();
        for frame in &frames {
            if let ServerMsg::Page { rows, .. } = ServerMsg::decode(frame)? {
                received.extend(rows);
            }
        }
        Ok(received)
    })?;
    let sum = log.time("net.checksum", op, root, || rows_checksum(&received));
    std::hint::black_box(sum);
    Ok(())
}

/// Nanoseconds per call of `f`, the median of five batches.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            (0..calls).for_each(&mut f);
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

/// `BufferPool::pin` + unpin: on a resident page, and on a page the clock
/// sweep evicted (8 frames cycled over 64 pages, so every pin after the
/// first lap is a re-fault).
fn pool_pin_ns() -> Result<(f64, f64)> {
    let clock = CostClock::default_clock();
    let chaos = ChaosPolicy::off();
    let mut failed = None;
    let mut pin =
        |pool: &Arc<BufferPool>, page: u64| match pool.pin("lineitem", page, &clock, &chaos) {
            Ok(pinned) => drop(std::hint::black_box(pinned)),
            Err(e) => failed = Some(e),
        };
    let resident = BufferPool::new(64);
    let hit = ns_per_call(20_000, |_| pin(&resident, 0));
    let cycled = BufferPool::new(8);
    (0..64).for_each(|page| pin(&cycled, page));
    let refault = ns_per_call(6_400, |i| pin(&cycled, i as u64 % 64));
    match failed {
        Some(e) => Err(e),
        None => Ok((hit, refault)),
    }
}

/// `FlightRecorder::publish` into a ring of the service's default capacity.
fn recorder_publish_ns() -> f64 {
    let recorder = FlightRecorder::new(4096);
    ns_per_call(20_000, |i| {
        std::hint::black_box(recorder.publish(
            i as f64,
            7,
            "admission.admit",
            "running 1 of mpl 4",
        ));
    })
}
