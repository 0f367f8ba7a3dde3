//! One measurement of one workload: oracle, set-up, the wire pass, the
//! hygiene checks, and the reduction of samples and spans to metrics.

use crate::drive::{Conn, ConnResult, Phase, Sample, Schedule, Subscription, Verdict};
use crate::metrics::{median, percentile, Metric, END_TO_END, PER_LAYER};
use crate::replay::replay;
use crate::server::{read_proc_status, PlanCacheProbe, Server};
use crate::trace::{self_times, Span};
use crate::workload::{Kind, Oracle, CONNECTIONS};
use rqp_common::Row;
use rqp_net::{ServiceSnapshot, WireClient, WireSubscribeOptions};
use rqp_telemetry::MetricValue;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Measured windows per segment; `ops_per_s` is the median window rate.
const WINDOWS: u32 = 5;
/// Below this many samples a 99th percentile has fewer than ten beyond it.
const P99_MIN_SAMPLES: usize = 1_000;

/// How long and how large one measurement is.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub lineitem_rows: usize,
    /// Times the server is set up; `setup_s` is the median.
    pub setups: usize,
    pub warmup: Duration,
    /// Length of the untraced measured segment.
    pub plain: Duration,
    /// The traced segment: its time cap and the operations per connection
    /// after which it ends early. `None` = tracing off.
    pub traced: Option<(Duration, usize)>,
    /// Time the in-process replay may take (traced runs only).
    pub replay_budget: Duration,
}

/// Everything one measurement produced.
pub struct Outcome {
    pub kind: Kind,
    /// Primary operations attempted after warm-up, and how many of them
    /// failed, were refused or returned a wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// No failure anywhere — warm-up, hygiene checks and view check included.
    pub correct: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
    /// What went wrong, in words, when `correct` is false.
    pub notes: Vec<String>,
}

type Failure = Box<dyn std::error::Error + Send + Sync>;

fn gauge(stats: &ServiceSnapshot, name: &str) -> Option<f64> {
    stats
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| match v {
            MetricValue::Gauge(g) => Some(*g),
            MetricValue::Counter(c) => Some(*c as f64),
            MetricValue::Histogram { .. } => None,
        })
}

/// Inflight queries + pinned pages + reserved workspace rows: everything
/// the service should hold nothing of once its clients have said goodbye.
fn leaked(stats: &ServiceSnapshot) -> f64 {
    [
        "server.live.inflight",
        "server.pager.pinned",
        "server.live.reserved",
    ]
    .iter()
    .map(|g| gauge(stats, g).unwrap_or(0.0))
    .sum()
}

/// Spawn the server and open the workload's connections: HELLO_ACK on
/// each, plus SUB_ACK on `stream_append`. This is what `setup_s` times.
fn set_up(
    kind: Kind,
    seed: u64,
    plan: &Plan,
    oracle: &Oracle,
    views: &[Vec<Row>],
) -> Result<(Server, Vec<Conn>), Failure> {
    let server = Server::spawn(
        plan.lineitem_rows,
        seed,
        kind.page_budget(plan.lineitem_rows),
    )?;
    let mut conns = Vec::new();
    for index in 0..CONNECTIONS {
        let mut client = WireClient::connect(&server.addr(), 1)?;
        let sub = match views.get(index) {
            Some(initial) => {
                let spec = oracle.menu()[index].clone();
                let id = client.subscribe(&spec, WireSubscribeOptions::default())?;
                Some(Subscription::new(id, spec, initial.clone()))
            }
            None => None,
        };
        let gen = oracle.op_gen(index);
        conns.push(Conn {
            index,
            client,
            gen,
            sub,
            known: Arc::clone(oracle.known()),
        });
    }
    Ok((server, conns))
}

/// The raw material of one measurement: what the wire pass and the probes
/// around it brought back.
struct Pass {
    schedule: Schedule,
    samples: Vec<Sample>,
    spans: Vec<Span>,
    /// `(time, VmRSS kB, threads)` of the server, sampled through the pass.
    proc_series: Vec<(Duration, f64, f64)>,
    /// STATS and the plan-cache probe, before the pass and after it.
    stats: [ServiceSnapshot; 2],
    plan_cache: [PlanCacheProbe; 2],
    setup_s: Vec<f64>,
    rss_after_setup_kb: f64,
    /// `stream_append`: per connection, whether its fold matched.
    views_match: Vec<bool>,
    fatal: Vec<String>,
}

/// Set the server up `plan.setups` times, drive the last one through the
/// schedule, and read the probes on both sides of the pass.
fn wire_pass(
    kind: Kind,
    seed: u64,
    plan: &Plan,
    oracle: &Oracle,
    views: &[Vec<Row>],
) -> Result<Pass, Failure> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut live = None;
    for _ in 0..plan.setups.max(1) {
        // The previous server is gone before the next one starts.
        drop(live.take());
        let start = Instant::now();
        live = Some(set_up(kind, seed, plan, oracle, views)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (mut server, mut conns) = live.expect("at least one set-up");
    let (rss_after_setup_kb, _) = read_proc_status(server.pid())?;
    let mut observer = WireClient::connect(&server.addr(), 0)?;
    let stats_before = observer.stats()?;
    let plan_cache_before = server.probe()?;

    let (traced_cap, traced_ops) = plan.traced.unwrap_or((Duration::ZERO, 0));
    let schedule = Schedule {
        warm_end: plan.warmup,
        plain_end: plan.warmup + plan.plain,
        traced_end: plan.warmup + plan.plain + traced_cap,
        traced_ops,
    };
    let barrier = Barrier::new(CONNECTIONS);
    let stop = AtomicBool::new(false);
    let pid = server.pid();
    let t0 = Instant::now();
    let (schedule_ref, barrier_ref) = (&schedule, &barrier);
    let (results, proc_series): (Vec<ConnResult>, _) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut series = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                if let Ok((rss_kb, threads)) = read_proc_status(pid) {
                    series.push((t0.elapsed(), rss_kb, threads));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            series
        });
        let drivers: Vec<_> = conns
            .iter_mut()
            .map(|conn| scope.spawn(move || conn.drive(schedule_ref, t0, barrier_ref)))
            .collect();
        let results = drivers
            .into_iter()
            .map(|d| d.join().expect("connection thread panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (results, sampler.join().expect("sampler thread panicked"))
    });

    // Hygiene: once the clients are gone the service holds nothing. Teardown
    // runs after GOODBYE_ACK is sent, so give it a moment before judging.
    for conn in conns {
        let _ = conn.client.goodbye();
    }
    let mut stats_after = observer.stats()?;
    for _ in 0..20 {
        if leaked(&stats_after) == 0.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        stats_after = observer.stats()?;
    }
    let plan_cache_after = server.probe()?;
    let _ = observer.goodbye();

    let mut pass = Pass {
        schedule,
        samples: Vec::new(),
        spans: Vec::new(),
        proc_series,
        stats: [stats_before, stats_after],
        plan_cache: [plan_cache_before, plan_cache_after],
        setup_s,
        rss_after_setup_kb,
        views_match: Vec::new(),
        fatal: Vec::new(),
    };
    for result in results {
        pass.samples.extend(result.samples);
        pass.spans.extend(result.log.spans);
        pass.views_match.extend(result.view_matches);
        pass.fatal.extend(result.fatal);
    }
    Ok(pass)
}

fn succeeded(sample: &Sample) -> bool {
    !matches!(sample.verdict, Verdict::Wrong(_))
}

/// Ascending latencies, in ms, of the operations of `phase` that succeeded
/// and completed in `[from, to)`.
fn latencies_ms(samples: &[Sample], phase: Phase, from: Duration, to: Duration) -> Vec<f64> {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| s.phase == phase && succeeded(s) && s.end >= from && s.end < to)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations per second over `[from, to)`. An operation that straddles an
/// edge counts by the share of it inside, so the rate is not quantised to
/// whole operations per window (1 in 34 at the seed commit).
fn rate(samples: &[Sample], from: Duration, to: Duration) -> f64 {
    let inside = |s: &Sample| {
        let start = s.end.saturating_sub(s.latency);
        let overlap = s.end.min(to).saturating_sub(start.max(from));
        overlap.as_secs_f64() / s.latency.as_secs_f64().max(f64::MIN_POSITIVE)
    };
    let completed: f64 = samples.iter().filter(|s| succeeded(s)).map(inside).sum();
    completed / (to - from).as_secs_f64()
}

/// The end-to-end metrics, from the untraced segment, in `END_TO_END` order.
fn end_to_end(plan: &Plan, pass: &Pass, attempted: u64, failed: u64) -> Vec<Metric> {
    let plain = latencies_ms(&pass.samples, Phase::Plain, Duration::ZERO, Duration::MAX);
    let width = plan.plain / WINDOWS;
    let edges = |w: u32| (plan.warmup + width * w, plan.warmup + width * (w + 1));
    let windows: Vec<Vec<f64>> = (0..WINDOWS)
        .map(|w| latencies_ms(&pass.samples, Phase::Plain, edges(w).0, edges(w).1))
        .collect();
    let per_window = |p: f64| -> Vec<f64> {
        let each = windows.iter().map(|w| percentile(w, p));
        each.filter(|v| v.is_finite()).collect()
    };
    let rates: Vec<f64> = (0..WINDOWS)
        .map(|w| rate(&pass.samples, edges(w).0, edges(w).1))
        .collect();
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    let values: [(f64, Vec<f64>); 6] = [
        (median(&rates), rates),
        (percentile(&plain, 50.0), per_window(50.0)),
        (percentile(&plain, 90.0), per_window(90.0)),
        (fail_ratio, Vec::new()),
        (median(&pass.setup_s), pass.setup_s.clone()),
        (pass.rss_after_setup_kb / 1024.0, Vec::new()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Metric {
            name: def.name,
            unit: def.unit,
            value: value.is_finite().then_some(value),
            samples,
        })
        .collect()
}

/// Per-layer metrics every run has: STATS, `/proc` and probe deltas around
/// the pass, and the latency detail no gate reads.
fn probe_layers(kind: Kind, plan: &Plan, pass: &Pass) -> HashMap<&'static str, f64> {
    let mut layer: HashMap<&'static str, f64> = HashMap::new();
    let samples = &pass.samples;
    let [stats_before, stats_after] = &pass.stats;
    let [cache_before, cache_after] = &pass.plan_cache;

    let plain = latencies_ms(samples, Phase::Plain, Duration::ZERO, Duration::MAX);
    if plain.len() >= P99_MIN_SAMPLES {
        layer.insert("client.lat_p99_ms", percentile(&plain, 99.0));
    }
    // Drift over the longest measured segment: its last fifth against its
    // first.
    let last_end = samples.iter().map(|s| s.end).max().unwrap_or_default();
    let (phase, from, len) = match plan.traced {
        Some(_) => (
            Phase::Traced,
            pass.schedule.plain_end,
            last_end.saturating_sub(pass.schedule.plain_end),
        ),
        None => (Phase::Plain, pass.schedule.warm_end, plan.plain),
    };
    let fifth = len / WINDOWS;
    let first = latencies_ms(samples, phase, from, from + fifth);
    let last = latencies_ms(samples, phase, from + fifth * (WINDOWS - 1), Duration::MAX);
    if !first.is_empty() && !last.is_empty() {
        let drift = percentile(&last, 50.0) / percentile(&first, 50.0);
        layer.insert("client.lat_drift_ratio", drift);
    }

    let hits = cache_after.hits - cache_before.hits;
    let lookups = hits + cache_after.misses - cache_before.misses;
    if lookups > 0 {
        layer.insert("server.plan_cache_hit_ratio", hits as f64 / lookups as f64);
    }
    layer.insert("server.plan_cache_entries", cache_after.entries as f64);

    let series = &pass.proc_series;
    let after_warmup = series.iter().find(|(t, ..)| *t >= pass.schedule.warm_end);
    if let (Some(start), Some(end)) = (after_warmup, series.last()) {
        let measured = samples.iter().filter(|s| s.phase != Phase::Warm).count();
        layer.insert(
            "server.rss_growth_kb_per_op",
            (end.1 - start.1) / measured.max(1) as f64,
        );
    }
    if let Some(peak) = series
        .iter()
        .map(|(.., threads)| *threads)
        .max_by(f64::total_cmp)
    {
        layer.insert("server.threads_peak", peak);
    }
    layer.insert("server.leaked", leaked(stats_after));

    if kind.page_budget(plan.lineitem_rows).is_some() {
        let all_ops = samples.len().max(1) as f64;
        let pager = |s: &ServiceSnapshot, g: &str| gauge(s, &format!("server.pager.{g}"));
        let delta =
            |g: &str| pager(stats_after, g).unwrap_or(0.0) - pager(stats_before, g).unwrap_or(0.0);
        // STATS carries faults and the cumulative hit rate, not the hits.
        let hits = |s: &ServiceSnapshot| match pager(s, "hit_rate") {
            Some(rate) if rate < 1.0 => pager(s, "faults").unwrap_or(0.0) * rate / (1.0 - rate),
            _ => 0.0,
        };
        let (hit_delta, fault_delta) = (hits(stats_after) - hits(stats_before), delta("faults"));
        if hit_delta + fault_delta > 0.0 {
            layer.insert(
                "storage.pool_hit_ratio",
                hit_delta / (hit_delta + fault_delta),
            );
        }
        layer.insert("storage.pool_refaults_per_op", delta("refaults") / all_ops);
        layer.insert(
            "storage.pool_evictions_per_op",
            delta("evictions") / all_ops,
        );
    }
    if kind == Kind::StreamAppend {
        let max_lag = samples.iter().map(|s| s.max_lag).max().unwrap_or(0);
        layer.insert("stream.max_lag", max_lag as f64);
    }
    let dropped = gauge(stats_after, "server.recorder.dropped").unwrap_or(0.0);
    layer.insert("telemetry.recorder_dropped", dropped);
    layer
}

/// Per-layer metrics of the traced wire pass: the client-side spans.
fn span_layers(pass: &Pass) -> HashMap<&'static str, f64> {
    let mut layer: HashMap<&'static str, f64> = HashMap::new();
    let own = self_times(&pass.spans);
    for (metric, span) in [
        ("client.submit_ack_ms", "client.submit"),
        ("client.first_page_ms", "client.first_page"),
        ("client.drain_ms", "client.drain"),
        ("client.append_ms", "client.append"),
        ("client.poll_ms", "client.poll"),
    ] {
        if let Some(v) = own.get(span) {
            layer.insert(metric, median(v) / 1e6);
        }
    }
    let frames: Vec<f64> = pass
        .samples
        .iter()
        .filter(|s| s.phase == Phase::Traced && succeeded(s))
        .map(|s| s.frames as f64)
        .collect();
    if !frames.is_empty() {
        layer.insert(
            "client.frames_per_op",
            frames.iter().sum::<f64>() / frames.len() as f64,
        );
    }
    let p50 = |phase| {
        percentile(
            &latencies_ms(&pass.samples, phase, Duration::ZERO, Duration::MAX),
            50.0,
        )
    };
    layer.insert(
        "client.trace_overhead_ratio",
        p50(Phase::Traced) / p50(Phase::Plain),
    );
    layer
}

/// Measure `kind` once.
pub fn measure(kind: Kind, seed: u64, plan: &Plan) -> Result<Outcome, Failure> {
    // The oracle, before the server exists: every bounded spec set is
    // answered up front; `oltp_point`'s uniform keys are answered when the
    // samples are verified.
    let mut oracle = Oracle::build(kind, plan.lineitem_rows, seed);
    oracle.answer_up_front();
    let mut views: Vec<Vec<Row>> = Vec::new();
    if kind == Kind::StreamAppend {
        for spec in oracle.menu() {
            views.push(oracle.svc.run_solo(spec)?.rows);
        }
    }

    let mut pass = wire_pass(kind, seed, plan, &oracle, &views)?;

    // Verify every result against the oracle.
    let mut notes: Vec<String> = pass
        .fatal
        .iter()
        .map(|e| format!("connection ended early: {e}"))
        .collect();
    let (mut attempted, mut failed, mut warm_failed) = (0u64, 0u64, 0u64);
    let mut first_failure = None;
    for s in &mut pass.samples {
        if let Verdict::Unchecked(rows) = &s.verdict {
            s.verdict = match oracle.check(s.id, rows) {
                true => Verdict::Right,
                false => Verdict::Wrong(format!("spec {} returned rows the oracle does not", s.id)),
            };
        }
        attempted += (s.phase != Phase::Warm) as u64;
        if let Verdict::Wrong(why) = &s.verdict {
            *(if s.phase == Phase::Warm {
                &mut warm_failed
            } else {
                &mut failed
            }) += 1;
            first_failure.get_or_insert(why.clone());
        }
    }
    if let Some(why) = first_failure {
        notes.push(format!(
            "{failed} measured and {warm_failed} warm-up operations failed or returned a wrong result; the first: {why}"
        ));
    }
    // The final view check of a subscription counts as one more operation.
    attempted += pass.views_match.len() as u64;
    let views_wrong = pass.views_match.iter().filter(|same| !**same).count() as u64;
    if views_wrong > 0 {
        failed += views_wrong;
        notes.push("a folded subscription view differs from the one-shot run".into());
    }
    let leaked_after = leaked(&pass.stats[1]);
    if leaked_after != 0.0 {
        notes.push(format!(
            "the server still held {leaked_after} inflight queries + pinned pages + reserved rows after the run"
        ));
    }

    let end_to_end = end_to_end(plan, &pass, attempted, failed);
    let mut layer = probe_layers(kind, plan, &pass);
    if plan.traced.is_some() {
        layer.extend(span_layers(&pass));
        // The replay appends to the oracle's tables, so it runs last.
        let replayed = replay(&mut oracle, plan.replay_budget)?;
        layer.extend(replayed.values);
        if let (Some(in_process_ms), Some(wire)) = (replayed.in_process_ms, end_to_end[1].value) {
            layer.insert("net.wire_overhead_ms", wire - in_process_ms);
        }
        pass.spans.extend(replayed.spans);
    }
    let per_layer = PER_LAYER
        .iter()
        .map(|def| Metric {
            name: def.name,
            unit: def.unit,
            value: layer.get(def.name).copied().filter(|v| v.is_finite()),
            samples: Vec::new(),
        })
        .collect();

    Ok(Outcome {
        kind,
        attempted,
        failed,
        correct: notes.is_empty(),
        end_to_end,
        per_layer,
        spans: pass.spans,
        notes,
    })
}
