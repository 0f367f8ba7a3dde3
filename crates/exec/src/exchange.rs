//! Volcano-style **exchange**: intra-query parallelism behind the
//! [`Operator`] trait.
//!
//! Graefe's exchange operator encapsulates parallelism so that every other
//! operator stays single-threaded: an [`ExchangeOp`] spawns one OS thread per
//! partition, runs an independent operator pipeline in each, and gathers the
//! results back into an ordinary pull-based stream. Two constructors over one
//! gather:
//!
//! * **partition** — [`ExchangeOp::parallel_scan`] splits a base table into
//!   page-aligned ranges ([`Table::page_partitions`]); each worker scans its
//!   range the way the planner lowers a scan ([`BatchScanOp`] behind the
//!   [`BatchRowsOp`] row adapter) and stacks the caller's row pipeline on top;
//! * **repartition** — [`ExchangeOp::repartition`] drains an arbitrary input
//!   and redistributes its rows by [`Partitioning::Hash`] or
//!   [`Partitioning::Range`] before running a per-partition pipeline;
//! * **gather** — both merge worker outputs *in worker-index order*, so
//!   results and costs are reproducible, and recover workers lost to
//!   injected faults.
//!
//! Determinism is the design center, because the cost clock is the
//! experiments' notion of response time. Each worker runs under
//! [`ExecContext::fork_worker`]: a private shard clock and tracer, the shared
//! memory governor and metrics. The gather side then
//! [`absorb`](rqp_common::CostClock::absorb)s the shard clocks and
//! [`adopt`](rqp_telemetry::Tracer::adopt)s worker traces in worker order.
//! The clock counts exact fixed-point amounts, so the absorbed totals would
//! be the same in any order and for any worker count: a plan's cost is a pure
//! function of the data and the plan shape, under any cost weights.
//!
//! Skew is **injectable**: both partitioners take a `skew` fraction in
//! `[0, 1)` that deterministically reroutes that share of rows to partition
//! 0. Experiment `a04_parallel_scaling` uses it to measure how smoothly
//! speedup degrades as partitions become unbalanced; the gather publishes
//! `exchange.critical_path`, `exchange.total_work`, `exchange.speedup` and
//! `exchange.skew` gauges for exactly that purpose.

use crate::batch::{BatchRowsOp, BatchScanOp};
use crate::context::ExecContext;
use crate::{BoxOp, Operator};
use rqp_common::chaos::{install_quiet_panic_hook, ChaosPanic};
use rqp_common::{KeyAtom, Result, Row, RqpError, Schema, SharedClock, Value, WorkerFault};
use rqp_storage::Table;
use rqp_telemetry::SpanHandle;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How a repartition exchange routes rows to workers.
#[derive(Debug, Clone)]
pub enum Partitioning {
    /// Route by an FNV-1a hash of the key columns (by index). `skew` in
    /// `[0, 1)` deterministically reroutes that fraction of rows to
    /// partition 0.
    Hash {
        /// Key column indexes into the row.
        keys: Vec<usize>,
        /// Fraction of rows rerouted to partition 0.
        skew: f64,
    },
    /// Route by uniform numeric ranges over one key column (Int or Float).
    /// Partition boundaries split `[min, max]` evenly, so partition `i`
    /// holds keys below partition `i + 1`'s. `skew` works as for `Hash`.
    Range {
        /// Key column index into the row.
        key: usize,
        /// Fraction of rows rerouted to partition 0.
        skew: f64,
    },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Deterministic FNV-1a hash of one value: a tag byte, then the payload
/// bytes of its **canonical key atom** ([`Value::key_atom`]). Platform- and
/// run-independent, unlike `std`'s `RandomState`, so hash partitions are
/// reproducible across processes and CI legs.
///
/// Hashing the atom rather than the variant keeps the hash consistent with
/// equality: `Value::total_cmp` calls `Int(3)` and `Float(3.0)` equal, so
/// hashing them under different type tags (as this function once did) routed
/// numerically-equal mixed-type keys to different workers — a silent
/// wrong-answer bug for hash repartitioning. An integral float hashes
/// byte-identically to its integer twin; `Int` keys and non-integral floats
/// keep their original encodings, so hash partitions over single-type keys
/// are unchanged.
fn hash_value(h: u64, v: &Value) -> u64 {
    match v.key_atom() {
        KeyAtom::Null => fnv1a(h, &[0]),
        KeyAtom::Int(i) => fnv1a(fnv1a(h, &[1]), &i.to_le_bytes()),
        KeyAtom::FloatBits(b) => fnv1a(fnv1a(h, &[2]), &b.to_le_bytes()),
        KeyAtom::Str(s) => fnv1a(fnv1a(h, &[3]), s.as_bytes()),
    }
}

/// Hash the given key columns of a row. Errors if an index is out of bounds.
fn hash_keys(row: &Row, keys: &[usize]) -> Result<u64> {
    let mut h = FNV_OFFSET;
    for &k in keys {
        let v = row
            .get(k)
            .ok_or(RqpError::KeyOutOfBounds { index: k, width: row.len() })?;
        h = hash_value(h, v);
    }
    Ok(h)
}

/// Deterministic skew decision: treat the hash's top 32 bits as a uniform
/// fraction and reroute to partition 0 when it falls below `skew`.
fn skewed_to_zero(h: u64, skew: f64) -> bool {
    skew > 0.0 && ((h >> 32) as f64 / u32::MAX as f64) < skew
}

fn numeric_key(row: &Row, key: usize) -> Result<f64> {
    let v = row
        .get(key)
        .ok_or(RqpError::KeyOutOfBounds { index: key, width: row.len() })?;
    v.as_float()
        .ok_or_else(|| RqpError::NonNumericKey(format!("{v:?}")))
}

/// Split `rows` into `parts` buckets per `spec`. Pure and deterministic:
/// the same rows and spec always yield the same buckets, in input order
/// within each bucket.
fn partition_rows(rows: Vec<Row>, spec: &Partitioning, parts: usize) -> Result<Vec<Vec<Row>>> {
    let parts = parts.max(1);
    let mut out: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
    match spec {
        Partitioning::Hash { keys, skew } => {
            for row in rows {
                let h = hash_keys(&row, keys)?;
                let p = if skewed_to_zero(h, *skew) { 0 } else { (h % parts as u64) as usize };
                out[p].push(row);
            }
        }
        Partitioning::Range { key, skew } => {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for row in &rows {
                let v = numeric_key(row, *key)?;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let width = (hi - lo).max(f64::MIN_POSITIVE);
            for row in rows {
                let v = numeric_key(&row, *key)?;
                let by_range = (((v - lo) / width) * parts as f64) as usize;
                let h = hash_value(FNV_OFFSET, &row[*key]);
                let p = if skewed_to_zero(h, *skew) { 0 } else { by_range.min(parts - 1) };
                out[p].push(row);
            }
        }
    }
    Ok(out)
}

/// Builds one worker's pipeline inside that worker's thread, under the
/// worker's forked context. The returned [`BoxOp`] never crosses threads —
/// only the builder (and the rows it captures) must be `Send`. Builders are
/// `Fn`, not `FnOnce`: when a worker is lost to an injected fault, the
/// gather re-invokes the same builder under a fresh context to retry the
/// partition.
type WorkerBuilder = Box<dyn Fn(&ExecContext) -> BoxOp + Send + Sync>;

/// A per-partition row pipeline applied on top of each worker's source (its
/// range scan or its replayed partition). Shared across workers, hence
/// `Fn + Send + Sync`.
pub type PipelineBuilder = Arc<dyn Fn(BoxOp, &ExecContext) -> BoxOp + Send + Sync>;

/// Wrap a closure as a [`PipelineBuilder`].
pub fn pipeline(f: impl Fn(BoxOp, &ExecContext) -> BoxOp + Send + Sync + 'static) -> PipelineBuilder {
    Arc::new(f)
}

/// A materialized partition, replayed as an operator inside a worker. This
/// is the "receive" half of a repartition exchange.
struct PartitionSourceOp {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
    span: SpanHandle,
    clock: SharedClock,
}

impl PartitionSourceOp {
    /// Source over pre-partitioned rows, traced under the worker's context.
    fn new(schema: Schema, rows: Vec<Row>, ctx: &ExecContext) -> Self {
        let span = ctx.tracer.open("partition_source", &ctx.clock);
        span.set_detail(&format!("rows={}", rows.len()));
        span.set_est_rows(rows.len() as f64);
        PartitionSourceOp {
            schema,
            rows: rows.into_iter(),
            span,
            clock: Arc::clone(&ctx.clock),
        }
    }
}

impl Operator for PartitionSourceOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        match self.rows.next() {
            Some(r) => {
                self.clock.charge_cpu_tuples(1.0);
                self.span.produced(&self.clock);
                Some(r)
            }
            None => {
                self.span.close(&self.clock);
                None
            }
        }
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// The exchange operator: runs one worker thread per partition, gathers
/// deterministically, then streams the union.
///
/// Execution is **eager**: workers run inside the constructor (the exchange
/// is a pipeline breaker either way), so by the time it returns the
/// coordinator clock holds the absorbed shard costs, the trace holds one
/// `exchange_worker` span per worker with the worker's operators beneath it,
/// and the imbalance gauges are published. `next()` then replays the
/// gathered rows, charging one CPU tuple each — the merge cost, identical
/// for every worker count.
pub struct ExchangeOp {
    schema: Schema,
    ctx: ExecContext,
    out: std::vec::IntoIter<Row>,
    span: SpanHandle,
}

/// Run one worker's pipeline to completion, applying any chaos fault
/// scheduled for `(worker, attempt)` first. An injected panic carries a
/// [`ChaosPanic`] payload so the gather can tell it apart from a genuine
/// bug; an injected stall charges extra sequential pages to the shard
/// clock before the pipeline runs.
fn run_worker(build: &WorkerBuilder, wctx: &ExecContext, worker: usize, attempt: u32) -> (Schema, Vec<Row>) {
    // Don't start (or retry) a worker for a query that is already cancelled;
    // the pipeline's own scan/sort/join checkpoints take over from here.
    wctx.checkpoint();
    match wctx.chaos.worker_fault(worker, attempt) {
        Some(WorkerFault::Panic) => {
            wctx.metrics.counter("chaos.worker_panics").inc();
            std::panic::panic_any(ChaosPanic { worker, attempt });
        }
        Some(WorkerFault::Stall(pages)) => {
            wctx.metrics.counter("chaos.worker_stalls").inc();
            wctx.clock.charge_seq_pages(pages);
        }
        None => {}
    }
    let mut op = build(wctx);
    let schema = op.schema().clone();
    let mut rows = Vec::new();
    while let Some(r) = op.next() {
        rows.push(r);
    }
    (schema, rows)
}

/// If the panic payload came from fault injection (a [`ChaosPanic`] marker
/// or a typed [`RqpError`], e.g. scan retries exhausted), describe it for
/// the trace; anything else is a genuine bug and must keep unwinding.
fn injected_cause(payload: &(dyn Any + Send)) -> Option<String> {
    if let Some(cp) = payload.downcast_ref::<ChaosPanic>() {
        Some(format!("injected panic (worker {}, attempt {})", cp.worker, cp.attempt))
    } else {
        payload.downcast_ref::<RqpError>().map(|e| e.to_string())
    }
}

/// If the panic payload is a typed error the gather must propagate *as is* —
/// a cooperative-cancellation trip ([`RqpError::Cancelled`] /
/// [`RqpError::DeadlineExceeded`]) or buffer-pool budget exhaustion
/// ([`RqpError::PageBudgetExhausted`]) — return it. The gather consults this
/// *before* [`injected_cause`]: retrying a cancelled worker would re-trip
/// the token immediately, and retrying an exhausted page budget would
/// exhaust it again; both would burn the retry budget and misreport the
/// abort as [`RqpError::WorkerFailed`].
fn cancellation_cause(payload: &(dyn Any + Send)) -> Option<RqpError> {
    payload
        .downcast_ref::<RqpError>()
        .filter(|e| {
            e.is_cancellation() || matches!(e, RqpError::PageBudgetExhausted { .. })
        })
        .cloned()
}

/// Absorb one worker attempt's shard clock into the coordinator, open the
/// `exchange_worker` span for it, adopt its partial trace, and record the
/// gather event. Returns the shard's total cost. A first attempt that
/// succeeds emits the same spans and events as a gather without chaos, so
/// chaos-off traces are unchanged.
fn gather_attempt(
    ctx: &ExecContext,
    span: &SpanHandle,
    wctx: &ExecContext,
    worker: usize,
    attempt: u32,
    outcome: std::result::Result<usize, &str>,
) -> f64 {
    ctx.clock.absorb(&wctx.clock);
    let cost = wctx.clock.now();
    let wspan = ctx.tracer.open("exchange_worker", &ctx.clock);
    wspan.set_parent(span.id());
    match outcome {
        Ok(rows) => {
            if attempt == 0 {
                wspan.set_detail(&format!("worker={worker} cost={cost:.4}"));
            } else {
                wspan.set_detail(&format!("worker={worker} attempt={attempt} cost={cost:.4}"));
            }
            wspan.produced_n(&ctx.clock, rows as u64);
            wspan.close(&ctx.clock);
            ctx.tracer.adopt(&wctx.tracer, Some(wspan.id()));
            if attempt == 0 {
                span.record_event(
                    &ctx.clock,
                    "exchange.worker",
                    &format!("worker={worker} rows={rows} cost={cost:.4}"),
                );
            } else {
                span.record_event(
                    &ctx.clock,
                    "exchange.worker_recovered",
                    &format!("worker={worker} attempt={attempt} rows={rows} cost={cost:.4}"),
                );
            }
        }
        Err(cause) => {
            wspan.set_detail(&format!("worker={worker} attempt={attempt} failed cost={cost:.4}"));
            wspan.close(&ctx.clock);
            ctx.tracer.adopt(&wctx.tracer, Some(wspan.id()));
            span.record_event(
                &ctx.clock,
                "exchange.worker_failed",
                &format!("worker={worker} attempt={attempt} cost={cost:.4} cause={cause}"),
            );
        }
    }
    cost
}

impl ExchangeOp {
    /// Parallel table scan: page-aligned range partitions
    /// ([`Table::page_partitions`]), one per worker. Each worker scans its
    /// range the way the planner lowers a table scan — a
    /// [`BatchScanOp::with_range`] behind the [`BatchRowsOp`] row adapter —
    /// and stacks `build` on top (e.g. a filter pushed into the workers).
    ///
    /// Because partitions are page-aligned and gathered in worker order, the
    /// result rows *and* the cost breakdown equal the sequential scan's
    /// (plus the gather's per-tuple merge charge) for every worker count.
    /// Worker loss beyond recovery surfaces as [`RqpError::WorkerFailed`];
    /// see [`ExchangeOp::repartition`] for the gather's error contract.
    pub fn parallel_scan(
        table: Arc<Table>,
        workers: usize,
        build: PipelineBuilder,
        ctx: ExecContext,
    ) -> Result<Self> {
        let rpp = (ctx.clock.params().rows_per_page.max(1.0)) as usize;
        let builders: Vec<WorkerBuilder> = table
            .page_partitions(workers.max(1), rpp)
            .into_iter()
            .map(|(start, end)| {
                let table = Arc::clone(&table);
                let build = Arc::clone(&build);
                Box::new(move |wctx: &ExecContext| {
                    let scan = BatchScanOp::with_range(Arc::clone(&table), start, end, wctx.clone());
                    build(BatchRowsOp::boxed(Box::new(scan), wctx.clone()), wctx)
                }) as WorkerBuilder
            })
            .collect();
        Self::try_new(builders, ctx)
    }

    /// Repartition exchange: drain `input` on the coordinator (charging one
    /// CPU tuple per row for the routing pass), split its rows per `spec`,
    /// and run `build` over each partition's replayed rows in its own
    /// worker.
    ///
    /// A worker lost to an injected fault (a [`ChaosPanic`] or a typed
    /// [`RqpError`] panic payload, e.g. scan retries exhausted) is retried
    /// on the coordinator with a fresh forked context, charging one random
    /// page per attempt as backoff, up to the policy's retry bound; the
    /// lost attempt's partial cost and trace are still absorbed, so
    /// recovery is visible as extra cost rather than vanished work. Retries
    /// exhausted surfaces as [`RqpError::WorkerFailed`]; a cancellation or
    /// page-budget exhaustion is returned as is, never retried. Genuine
    /// panics (any other payload) keep unwinding.
    pub fn repartition(
        mut input: BoxOp,
        spec: Partitioning,
        workers: usize,
        build: PipelineBuilder,
        ctx: ExecContext,
    ) -> Result<Self> {
        let workers = workers.max(1);
        let schema = input.schema().clone();
        let mut rows = Vec::new();
        while let Some(r) = input.next() {
            rows.push(r);
        }
        drop(input);
        ctx.clock.charge_cpu_tuples(rows.len() as f64);
        let parts = partition_rows(rows, &spec, workers)?;
        let builders: Vec<WorkerBuilder> = parts
            .into_iter()
            .map(|p| {
                let build = Arc::clone(&build);
                let schema = schema.clone();
                Box::new(move |wctx: &ExecContext| {
                    let src: BoxOp = Box::new(PartitionSourceOp::new(schema.clone(), p.clone(), wctx));
                    build(src, wctx)
                }) as WorkerBuilder
            })
            .collect();
        Self::try_new(builders, ctx)
    }

    /// Run `builders` (one worker each) and gather in worker-index order,
    /// recovering lost workers as [`ExchangeOp::repartition`] describes.
    fn try_new(builders: Vec<WorkerBuilder>, ctx: ExecContext) -> Result<Self> {
        assert!(!builders.is_empty(), "exchange needs at least one worker");
        let workers = builders.len();
        if ctx.chaos.is_enabled() {
            install_quiet_panic_hook();
        }
        let span = ctx.tracer.open("exchange", &ctx.clock);
        span.set_detail(&format!("workers={workers}"));

        // Fork one private context per worker, indexed by position.
        let contexts: Vec<ExecContext> = (0..workers).map(|_| ctx.fork_worker()).collect();

        // Run every pipeline to completion on its own thread. Scoped threads
        // let builders borrow the forked contexts; dropping the operator
        // before returning releases its grants and closes its spans even if
        // a pipeline stops early.
        let results: Vec<std::thread::Result<(Schema, Vec<Row>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = builders
                .iter()
                .zip(&contexts)
                .enumerate()
                .map(|(i, (build, wctx))| s.spawn(move || run_worker(build, wctx, i, 0)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

        // Deterministic gather: absorb shard clocks and adopt worker traces
        // strictly in worker-index order, never in completion order. Lost
        // workers are retried inline here, still in worker-index order, so
        // recovery does not perturb the gather order either. The first
        // attempt and every retry go through the same triage.
        let max_retries = ctx.chaos.worker_max_retries();
        let mut schema: Option<Schema> = None;
        let mut out: Vec<Row> = Vec::new();
        let mut costs: Vec<f64> = Vec::with_capacity(workers);
        for (i, (mut result, mut wctx)) in results.into_iter().zip(contexts).enumerate() {
            let mut worker_cost = 0.0;
            let mut attempt = 0u32;
            let (wschema, rows) = loop {
                let payload = match result {
                    Ok((wschema, rows)) => {
                        worker_cost += gather_attempt(&ctx, &span, &wctx, i, attempt, Ok(rows.len()));
                        if attempt > 0 {
                            ctx.metrics.counter("exchange.recoveries").inc();
                        }
                        break (wschema, rows);
                    }
                    Err(payload) => payload,
                };
                if let Some(cancel) = cancellation_cause(payload.as_ref()) {
                    ctx.metrics.counter("exchange.workers_cancelled").inc();
                    gather_attempt(&ctx, &span, &wctx, i, attempt, Err(&cancel.to_string()));
                    span.close(&ctx.clock);
                    return Err(cancel);
                }
                let Some(cause) = injected_cause(payload.as_ref()) else {
                    resume_unwind(payload);
                };
                if attempt == 0 {
                    ctx.metrics.counter("exchange.workers_lost").inc();
                }
                worker_cost += gather_attempt(&ctx, &span, &wctx, i, attempt, Err(&cause));
                attempt += 1;
                if attempt > max_retries {
                    span.close(&ctx.clock);
                    return Err(RqpError::WorkerFailed { worker: i, attempts: attempt });
                }
                // Backoff: the coordinator pays a growing random-I/O charge
                // before each retry, so recovery has a deterministic,
                // visible cost.
                ctx.clock.charge_random_pages(f64::from(attempt));
                ctx.metrics.counter("exchange.worker_retries").inc();
                wctx = ctx.fork_worker();
                result = catch_unwind(AssertUnwindSafe(|| run_worker(&builders[i], &wctx, i, attempt)));
            };
            costs.push(worker_cost);
            out.extend(rows);
            schema.get_or_insert(wschema);
        }

        // Imbalance gauges: in a cost-clock world the slowest worker is the
        // elapsed time, so speedup = total work / critical path and skew is
        // the critical path relative to a perfectly balanced split.
        let total: f64 = costs.iter().sum();
        let critical = costs.iter().copied().fold(0.0_f64, f64::max);
        ctx.metrics.gauge("exchange.workers").set(workers as f64);
        ctx.metrics.gauge("exchange.total_work").set(total);
        ctx.metrics.gauge("exchange.critical_path").set(critical);
        ctx.metrics
            .gauge("exchange.speedup")
            .set(if critical > 0.0 { total / critical } else { 1.0 });
        ctx.metrics
            .gauge("exchange.skew")
            .set(if total > 0.0 { critical * workers as f64 / total } else { 1.0 });

        Ok(ExchangeOp {
            schema: schema.expect("at least one worker"),
            ctx,
            out: out.into_iter(),
            span,
        })
    }
}

impl Operator for ExchangeOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        match self.out.next() {
            Some(r) => {
                self.ctx.clock.charge_cpu_tuples(1.0);
                self.span.produced(&self.ctx.clock);
                Some(r)
            }
            None => {
                self.span.close(&self.ctx.clock);
                None
            }
        }
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

impl Drop for ExchangeOp {
    fn drop(&mut self) {
        if !self.span.is_closed() {
            self.span.close(&self.ctx.clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::collect;
    use crate::filter::test_support::RowsOp;
    use crate::FilterOp;
    use rqp_common::expr::{col, lit};
    use rqp_common::DataType;

    fn table(n: i64) -> Arc<Table> {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..n {
            t.append(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        Arc::new(t)
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 7)]).collect()
    }

    fn row_schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)])
    }

    /// A parallel scan with no per-worker pipeline.
    fn scan(t: &Arc<Table>, workers: usize, ctx: &ExecContext) -> Result<ExchangeOp> {
        ExchangeOp::parallel_scan(Arc::clone(t), workers, pipeline(|op, _| op), ctx.clone())
    }

    #[test]
    fn hash_partitions_are_deterministic_and_cover() {
        let spec = Partitioning::Hash { keys: vec![1], skew: 0.0 };
        let a = partition_rows(rows(100), &spec, 4).unwrap();
        let b = partition_rows(rows(100), &spec, 4).unwrap();
        assert_eq!(a, b, "same rows, same spec, same buckets");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 100);
        // Equal keys land in the same bucket (hash-join compatibility).
        for bucket in &a {
            for r in bucket {
                let p = (hash_keys(r, &[1]).unwrap() % 4) as usize;
                assert!(std::ptr::eq(&a[p], bucket) || a[p].contains(r));
            }
        }
        // Out-of-bounds key errors instead of panicking.
        assert!(partition_rows(rows(3), &Partitioning::Hash { keys: vec![9], skew: 0.0 }, 2).is_err());
    }

    #[test]
    fn hash_value_agrees_with_equality() {
        // The headline bugfix: a == b (total_cmp) ⇒ hash_value(h, a) ==
        // hash_value(h, b), for every seed. Crafted pairs first…
        let h = |v: &Value| hash_value(FNV_OFFSET, v);
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
        assert_eq!(h(&Value::Int(0)), h(&Value::Float(0.0)));
        assert_eq!(h(&Value::Int(-41)), h(&Value::Float(-41.0)));
        assert_eq!(h(&Value::Int(1 << 53)), h(&Value::Float((1u64 << 53) as f64)));
        assert_ne!(h(&Value::Int(2)), h(&Value::Float(2.5)), "unequal should (here) differ");
        // …then a seeded random sweep over seeds × mixed-type pairs.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut equal_pairs = 0;
        for _ in 0..5_000 {
            let seed = next();
            let i = (next() as i64) % 1_000_000;
            let a = Value::Int(i);
            let b = if next() % 2 == 0 {
                Value::Float(i as f64)
            } else {
                Value::Float((next() as i64 % 1_000_000) as f64 / 8.0)
            };
            if a == b {
                equal_pairs += 1;
                assert_eq!(hash_value(seed, &a), hash_value(seed, &b), "{a:?} == {b:?}");
            }
        }
        assert!(equal_pairs > 500, "sweep must hit equal mixed pairs: {equal_pairs}");
    }

    #[test]
    fn mixed_type_keys_route_to_one_partition() {
        // Regression for the silent wrong-answer class: rows whose keys are
        // Int(k) on one side and Float(k.0) on the other must land in the
        // same hash partition, at any worker count.
        let mixed: Vec<Row> = (0..400)
            .map(|i| {
                let key = if i % 2 == 0 { Value::Int(i % 50) } else { Value::Float((i % 50) as f64) };
                vec![Value::Int(i), key]
            })
            .collect();
        for parts in [1usize, 2, 8] {
            let spec = Partitioning::Hash { keys: vec![1], skew: 0.0 };
            let buckets = partition_rows(mixed.clone(), &spec, parts).unwrap();
            for (p, bucket) in buckets.iter().enumerate() {
                for r in bucket {
                    // Every row with an equal key shares this row's bucket.
                    for (q, other) in buckets.iter().enumerate() {
                        if p == q {
                            continue;
                        }
                        assert!(
                            !other.iter().any(|o| o[1] == r[1]),
                            "key {:?} split across partitions {p} and {q} of {parts}",
                            r[1]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn int_key_hash_encoding_is_unchanged() {
        // Committed experiment artifacts depend on the routing of Int keys;
        // the canonicalization must leave tag-1 + i64-LE bytes intact for
        // every round-trip-safe integer.
        for i in [0i64, 1, -1, 42, 999_983, -2_000_000, (1 << 53) - 1] {
            let expected = fnv1a(fnv1a(FNV_OFFSET, &[1]), &i.to_le_bytes());
            assert_eq!(hash_value(FNV_OFFSET, &Value::Int(i)), expected);
        }
        // Non-integral floats keep tag 2 + bit pattern.
        let f = 2.5f64;
        let expected = fnv1a(fnv1a(FNV_OFFSET, &[2]), &f.to_bits().to_le_bytes());
        assert_eq!(hash_value(FNV_OFFSET, &Value::Float(f)), expected);
    }

    #[test]
    fn hash_skew_reroutes_to_partition_zero() {
        let spec = Partitioning::Hash { keys: vec![0], skew: 0.9 };
        let parts = partition_rows(rows(1000), &spec, 4).unwrap();
        assert!(
            parts[0].len() > 800,
            "skew=0.9 routes ~90% to partition 0, got {}",
            parts[0].len()
        );
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 1000);
        // Still deterministic under skew.
        assert_eq!(parts, partition_rows(rows(1000), &spec, 4).unwrap());
    }

    #[test]
    fn range_partitions_order_by_key() {
        let spec = Partitioning::Range { key: 0, skew: 0.0 };
        let parts = partition_rows(rows(1000), &spec, 4).unwrap();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 1000);
        // Every key in partition i is below every key in partition i+1.
        let max_of = |p: &Vec<Row>| p.iter().map(|r| r[0].as_int().unwrap()).max();
        let min_of = |p: &Vec<Row>| p.iter().map(|r| r[0].as_int().unwrap()).min();
        for w in parts.windows(2) {
            if let (Some(hi), Some(lo)) = (max_of(&w[0]), min_of(&w[1])) {
                assert!(hi < lo, "range partitions must be ordered: {hi} !< {lo}");
            }
        }
        // Non-numeric keys are an error.
        let bad = vec![vec![Value::Str("x".into())]];
        assert!(partition_rows(bad, &Partitioning::Range { key: 0, skew: 0.0 }, 2).is_err());
    }

    #[test]
    fn parallel_scan_gathers_all_rows_in_table_order() {
        let t = table(1_050);
        let ctx = ExecContext::unbounded();
        let mut ex = scan(&t, 4, &ctx).unwrap();
        let out = collect(&mut ex);
        // Range partitions are contiguous and gathered in worker order, so
        // the parallel scan preserves table order exactly.
        let expected: Vec<Row> = t.iter_rows().collect();
        assert_eq!(out, expected);
        assert_eq!(ex.span().unwrap().rows(), 1_050);
        assert!(ex.span().unwrap().is_closed());
    }

    #[test]
    fn exchange_merges_worker_costs_traces_and_gauges() {
        let t = table(1_050);
        let ctx = ExecContext::unbounded();
        collect(&mut scan(&t, 4, &ctx).unwrap());
        // Page charges equal the sequential scan's: page-aligned partitions
        // tile the 11 pages exactly.
        let bd = ctx.clock.breakdown();
        assert_eq!(bd.seq_io, 11.0 * ctx.clock.params().seq_page);
        // The trace holds the exchange span, one exchange_worker span per
        // worker (parented to it), and beneath each the planner's scan shape:
        // a batch_rows adapter over a batch_scan.
        let spans = ctx.tracer.snapshot();
        let ex_id = spans.iter().find(|s| s.kind == "exchange").unwrap().id;
        let wspans: Vec<_> = spans.iter().filter(|s| s.kind == "exchange_worker").collect();
        assert_eq!(wspans.len(), 4);
        for w in &wspans {
            assert_eq!(w.parent, Some(ex_id));
        }
        let adapters: Vec<_> = spans.iter().filter(|s| s.kind == "batch_rows").collect();
        assert_eq!(adapters.len(), 4);
        for a in &adapters {
            let parent = a.parent.expect("adapter adopted under a worker span");
            assert!(wspans.iter().any(|w| w.id == parent));
        }
        let scans: Vec<_> = spans.iter().filter(|s| s.kind == "batch_scan").collect();
        assert_eq!(scans.len(), 4);
        for s in &scans {
            let parent = s.parent.expect("scan beneath its adapter");
            assert!(adapters.iter().any(|a| a.id == parent));
        }
        assert!(!spans.iter().any(|s| s.kind == "table_scan"));
        // Worker spans count the rows their worker produced.
        assert_eq!(wspans.iter().map(|w| w.rows_out).sum::<u64>(), 1_050);
        // Gauges: 4 even workers → speedup near 4, skew near 1.
        assert_eq!(ctx.metrics.gauge("exchange.workers").get(), 4.0);
        let speedup = ctx.metrics.gauge("exchange.speedup").get();
        assert!(speedup > 3.0 && speedup <= 4.0, "even split speedup ~4, got {speedup}");
        let skew = ctx.metrics.gauge("exchange.skew").get();
        assert!((1.0..1.4).contains(&skew), "even split skew ~1, got {skew}");
        assert!(
            ctx.metrics.gauge("exchange.total_work").get()
                >= ctx.metrics.gauge("exchange.critical_path").get()
        );
    }

    #[test]
    fn parallel_plan_is_identical_for_1_2_and_8_workers() {
        // The satellite property test: cost is simulated, so parallelism
        // must not change *what* is charged — only how it is attributed to
        // workers. The clock counts exact amounts and partitions are
        // page-aligned, so rows AND cost breakdowns are bit-identical across
        // worker counts, under the default (non-dyadic) weights.
        let t = table(1_000);
        let run = |workers: usize| {
            let ctx = ExecContext::unbounded();
            let build = pipeline(|op, wctx| {
                Box::new(FilterOp::new(op, &col("t.id").lt(lit(700_i64)), wctx.clone()).unwrap())
                    as BoxOp
            });
            let mut ex = ExchangeOp::parallel_scan(Arc::clone(&t), workers, build, ctx.clone())
                .unwrap();
            let rows = collect(&mut ex);
            (rows, ctx.clock.breakdown())
        };
        let (rows1, bd1) = run(1);
        for workers in [2, 8] {
            let (rows_n, bd_n) = run(workers);
            assert_eq!(rows1, rows_n, "row sets differ at {workers} workers");
            assert_eq!(bd1.seq_io.to_bits(), bd_n.seq_io.to_bits(), "{workers} workers");
            assert_eq!(bd1.rand_io.to_bits(), bd_n.rand_io.to_bits(), "{workers} workers");
            assert_eq!(bd1.cpu.to_bits(), bd_n.cpu.to_bits(), "{workers} workers");
            assert_eq!(bd1.spill.to_bits(), bd_n.spill.to_bits(), "{workers} workers");
        }
        assert_eq!(rows1.len(), 700);
    }

    #[test]
    fn repartition_runs_pipeline_per_partition_and_leaks_nothing() {
        let ctx = ExecContext::with_memory(50_000.0);
        let input = RowsOp::boxed(row_schema(), rows(500));
        let build = pipeline(|op, wctx| {
            Box::new(FilterOp::new(op, &col("id").ge(lit(100_i64)), wctx.clone()).unwrap()) as BoxOp
        });
        let spec = Partitioning::Hash { keys: vec![1], skew: 0.0 };
        let mut ex = ExchangeOp::repartition(input, spec, 4, build, ctx.clone()).unwrap();
        let mut out = collect(&mut ex);
        out.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let expected: Vec<Row> = rows(500).into_iter().filter(|r| r[0].as_int().unwrap() >= 100).collect();
        assert_eq!(out, expected, "repartition preserves the filtered multiset");
        // Per-partition sources show up in the trace, adopted under workers.
        let spans = ctx.tracer.snapshot();
        assert_eq!(spans.iter().filter(|s| s.kind == "partition_source").count(), 4);
        assert_eq!(spans.iter().filter(|s| s.kind == "filter").count(), 4);
        // No workspace outstanding, every span closed.
        drop(ex);
        assert_eq!(ctx.memory.outstanding(), 0.0);
        for s in ctx.tracer.snapshot() {
            assert!(s.closed_at.is_finite(), "span {} ({}) left open", s.id, s.kind);
        }
    }

    #[test]
    fn skewed_exchange_reports_imbalance() {
        let even = {
            let ctx = ExecContext::unbounded();
            let input = RowsOp::boxed(row_schema(), rows(2_000));
            let spec = Partitioning::Hash { keys: vec![0], skew: 0.0 };
            let mut ex =
                ExchangeOp::repartition(input, spec, 4, pipeline(|op, _| op), ctx.clone()).unwrap();
            collect(&mut ex);
            ctx.metrics.gauge("exchange.speedup").get()
        };
        let skewed = {
            let ctx = ExecContext::unbounded();
            let input = RowsOp::boxed(row_schema(), rows(2_000));
            let spec = Partitioning::Hash { keys: vec![0], skew: 0.9 };
            let mut ex =
                ExchangeOp::repartition(input, spec, 4, pipeline(|op, _| op), ctx.clone()).unwrap();
            collect(&mut ex);
            ctx.metrics.gauge("exchange.speedup").get()
        };
        assert!(even > 3.0, "even hash split should scale, got {even}");
        assert!(skewed < 2.0, "90% skew should collapse speedup, got {skewed}");
    }

    use rqp_common::{ChaosConfig, ChaosPolicy};

    fn chaos_ctx(cfg: ChaosConfig) -> ExecContext {
        ExecContext::unbounded()
            .with_chaos(ChaosPolicy::new(cfg))
    }

    #[test]
    fn chaos_off_exchange_is_byte_identical_to_plain() {
        let t = table(1_050);
        let plain = ExecContext::unbounded();
        let off = ExecContext::unbounded()
            .with_chaos(ChaosPolicy::off());
        let mut a = scan(&t, 4, &plain).unwrap();
        let mut b = scan(&t, 4, &off).unwrap();
        assert_eq!(collect(&mut a), collect(&mut b));
        assert_eq!(plain.clock.breakdown().total().to_bits(), off.clock.breakdown().total().to_bits());
        assert_eq!(plain.tracer.snapshot().len(), off.tracer.snapshot().len());
    }

    #[test]
    fn injected_worker_panic_is_retried_and_recovers() {
        let cfg = ChaosConfig {
            worker_panic_rate: 0.5,
            worker_max_retries: 8,
            ..ChaosConfig::standard(42)
        };
        let policy = ChaosPolicy::new(cfg);
        // The seed is chosen so at least one of the four workers panics on
        // its first attempt; the policy is a pure function, so probe it.
        assert!(
            (0..4).any(|w| matches!(policy.worker_fault(w, 0), Some(WorkerFault::Panic))),
            "seed must inject at least one first-attempt panic"
        );
        let t = table(1_050);
        let ctx = chaos_ctx(ChaosConfig { scan_fault_rate: 0.0, shock_rate: 0.0, worker_stall_rate: 0.0, ..cfg });
        let mut ex = scan(&t, 4, &ctx).expect("panicked workers must recover within the retry bound");
        let out = collect(&mut ex);
        let expected: Vec<Row> = t.iter_rows().collect();
        assert_eq!(out, expected, "recovered exchange must lose no rows");
        assert!(ctx.metrics.counter("chaos.worker_panics").get() >= 1);
        assert!(ctx.metrics.counter("exchange.recoveries").get() >= 1);
        assert_eq!(
            ctx.metrics.counter("exchange.workers_lost").get(),
            ctx.metrics.counter("exchange.recoveries").get(),
            "every lost worker recovered"
        );
        // Recovery is visible as extra cost: backoff random pages on top of
        // the plain scan's charges.
        let plain = ExecContext::unbounded();
        collect(&mut scan(&t, 4, &plain).unwrap());
        assert!(ctx.clock.breakdown().total() > plain.clock.breakdown().total());
    }

    #[test]
    fn worker_retries_exhausted_surface_typed_error() {
        let cfg = ChaosConfig {
            worker_panic_rate: 1.0,
            worker_stall_rate: 0.0,
            scan_fault_rate: 0.0,
            shock_rate: 0.0,
            worker_max_retries: 2,
            ..ChaosConfig::standard(7)
        };
        let t = table(200);
        let ctx = chaos_ctx(cfg);
        let err = scan(&t, 2, &ctx)
            .map(|_| ())
            .expect_err("every attempt panics, so recovery must fail");
        assert!(matches!(err, RqpError::WorkerFailed { attempts: 3, .. }), "got {err}");
        assert!(!err.is_retryable());
    }

    #[test]
    fn injected_stall_adds_exact_cost_without_failure() {
        let cfg = ChaosConfig {
            worker_panic_rate: 0.0,
            worker_stall_rate: 1.0,
            worker_stall_pages: 16.0,
            scan_fault_rate: 0.0,
            shock_rate: 0.0,
            ..ChaosConfig::standard(1)
        };
        let t = table(1_050);
        let ctx = chaos_ctx(cfg);
        let out = collect(&mut scan(&t, 4, &ctx).unwrap());
        assert_eq!(out.len(), 1_050, "stalls slow workers down but lose nothing");
        let plain = ExecContext::unbounded();
        collect(&mut scan(&t, 4, &plain).unwrap());
        let extra = ctx.clock.breakdown().seq_io - plain.clock.breakdown().seq_io;
        let per_stall = 16.0 * ctx.clock.params().seq_page;
        assert_eq!(extra, 4.0 * per_stall, "each of 4 workers stalls exactly once");
        assert_eq!(ctx.metrics.counter("chaos.worker_stalls").get(), 4);
    }

    #[test]
    fn transient_scan_faults_inside_workers_are_retried() {
        let cfg = ChaosConfig {
            worker_panic_rate: 0.0,
            worker_stall_rate: 0.0,
            shock_rate: 0.0,
            scan_fault_rate: 0.2,
            scan_max_retries: 16,
            ..ChaosConfig::standard(99)
        };
        let t = table(2_000);
        let ctx = chaos_ctx(cfg);
        let out = collect(&mut scan(&t, 4, &ctx).unwrap());
        let expected: Vec<Row> = t.iter_rows().collect();
        assert_eq!(out, expected, "retried scans must not lose or reorder rows");
        assert!(ctx.metrics.counter("chaos.scan_retries").get() >= 1);
        assert_eq!(ctx.metrics.counter("chaos.scan_fatal").get(), 0);
    }
}
