//! Workload management: MPL admission, weighted processor sharing, and the
//! FMT / FPT resource tests.
//!
//! The seminar's "Measuring the Effects of Dynamic Activities" break-out
//! defines two resource-robustness tests over TPC-H-like workloads:
//!
//! * **FMT** (Fluctuating Memory Test) — run the workload while the
//!   available memory changes; a robust system's performance stays between
//!   the all-memory upper baseline (*memUBL*) and the minimum-memory lower
//!   baseline (*memLBL*);
//! * **FPT** (Fluctuating degree-of-Parallelism Test) — measure how a
//!   running query `Qi` degrades when a competing `Qm` takes processes away.
//!
//! [`WorkloadManager`] is a deterministic discrete-event simulator: jobs
//! carry *service demands in cost units* (measured by really executing plans
//! on the cost clock), and the manager schedules them through the
//! [`Admission`] state machine — the MPL gate with priority admission the
//! query service runs too — and weighted processor sharing.

use rqp_common::{Result, RqpError};
use rqp_exec::ExecContext;
use rqp_opt::{plan, PlannerConfig, QuerySpec};
use rqp_stats::CardEstimator;
use rqp_storage::Catalog;
use std::collections::BTreeSet;

/// A unit of work for the manager.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Identifier.
    pub id: usize,
    /// Arrival time.
    pub arrival: f64,
    /// Service demand in cost units.
    pub demand: f64,
    /// Priority (0 = highest); admission prefers higher priority.
    pub priority: u8,
    /// Share weight while running (its "degree of parallelism").
    pub weight: f64,
}

/// Per-job simulation outcome.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Job id.
    pub id: usize,
    /// Time admitted to the run set.
    pub start: f64,
    /// Time spent queued at the gate (start − arrival, ≥ 0).
    pub wait: f64,
    /// Completion time.
    pub finish: f64,
    /// Response time (finish − arrival).
    pub response: f64,
}

/// Aggregate simulation outcome.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-job outcomes, by job id order.
    pub jobs: Vec<JobOutcome>,
    /// Time the last job finished.
    pub makespan: f64,
}

impl SimOutcome {
    /// Mean response time.
    pub fn mean_response(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.jobs.iter().map(|j| j.response).sum::<f64>() / self.jobs.len() as f64
        }
    }

    /// Outcome of one job.
    pub fn job(&self, id: usize) -> Option<&JobOutcome> {
        self.jobs.iter().find(|j| j.id == id)
    }
}

/// A place at the admission gate: `(priority, seq)`, whose tuple order is
/// the admission policy; `seq` counts arrivals from 0.
pub type Ticket = (u8, u64);

/// The admission policy as a pure state machine, with no clock, threads or
/// locks: at most `mpl` tickets run, and while the gate is open a free slot
/// goes to the smallest waiting ticket — priority 0 first, ties first come
/// first served; nothing running is preempted. [`WorkloadManager::simulate`]
/// drives it on its virtual clock and the query service's gate under its
/// mutex. After each event the caller drains [`admit`](Self::admit).
#[derive(Debug, Clone)]
pub struct Admission {
    mpl: usize,
    paused: bool,
    next_seq: u64,
    waiting: BTreeSet<Ticket>,
    running: usize,
    peak_running: usize,
    admitted: u64,
}

impl Admission {
    /// An open gate with `mpl` slots (clamped to ≥ 1) and nobody waiting.
    pub fn new(mpl: usize) -> Self {
        Admission {
            mpl: mpl.max(1),
            paused: false,
            next_seq: 0,
            waiting: BTreeSet::new(),
            running: 0,
            peak_running: 0,
            admitted: 0,
        }
    }

    /// A submission joins the queue.
    pub fn arrive(&mut self, priority: u8) -> Ticket {
        self.next_seq += 1;
        let ticket = (priority, self.next_seq - 1);
        self.waiting.insert(ticket);
        ticket
    }

    /// The tickets admitted now, smallest first, while a slot is free and
    /// the gate is open. Each holds its slot until `complete` or `cancel`.
    pub fn admit(&mut self) -> impl Iterator<Item = Ticket> + '_ {
        std::iter::from_fn(move || {
            if self.paused || self.running >= self.mpl {
                return None;
            }
            let ticket = self.waiting.pop_first()?;
            self.running += 1;
            self.peak_running = self.peak_running.max(self.running);
            self.admitted += 1;
            Some(ticket)
        })
    }

    /// An admitted ticket finishes and returns its slot.
    pub fn complete(&mut self, ticket: Ticket) {
        debug_assert!(self.running > 0 && !self.is_queued(ticket), "{ticket:?} is not running");
        self.running -= 1;
    }

    /// A ticket leaves: from the queue, or from its slot if admitted.
    pub fn cancel(&mut self, ticket: Ticket) {
        if !self.waiting.remove(&ticket) {
            self.complete(ticket);
        }
    }

    /// Stop admitting; running tickets are unaffected.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Admit again.
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// Whether `ticket` still waits.
    pub fn is_queued(&self, ticket: Ticket) -> bool {
        self.waiting.contains(&ticket)
    }

    /// The slot count.
    pub fn mpl(&self) -> usize {
        self.mpl
    }

    /// Tickets holding a slot.
    pub fn running(&self) -> usize {
        self.running
    }

    /// Tickets waiting.
    pub fn queue_depth(&self) -> usize {
        self.waiting.len()
    }

    /// High-water mark of [`running`](Self::running).
    pub fn peak_running(&self) -> usize {
        self.peak_running
    }

    /// Tickets ever admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }
}

/// The manager: MPL gate + priority queue + weighted processor sharing.
///
/// ```
/// use rqp_workload::{Job, WorkloadManager};
///
/// let mgr = WorkloadManager::new(1, 10.0); // serial machine, 10 units/s
/// let out = mgr.simulate(&[
///     Job { id: 0, arrival: 0.0, demand: 100.0, priority: 1, weight: 1.0 },
///     Job { id: 1, arrival: 1.0, demand: 10.0, priority: 0, weight: 1.0 },
/// ]);
/// // The high-priority latecomer runs right after the first job finishes.
/// assert!(out.job(1).unwrap().start >= 10.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkloadManager {
    /// Maximum concurrent jobs.
    pub mpl: usize,
    /// Total service capacity (cost units per time unit).
    pub capacity: f64,
}

impl WorkloadManager {
    /// New manager.
    pub fn new(mpl: usize, capacity: f64) -> Self {
        assert!(mpl > 0 && capacity > 0.0);
        WorkloadManager { mpl, capacity }
    }

    /// Simulate to completion.
    pub fn simulate(&self, jobs: &[Job]) -> SimOutcome {
        #[derive(Debug, Clone, Copy)]
        struct Running {
            job: Job,
            ticket: Ticket,
            start: f64,
            left: f64,
        }
        let mut by_arrival: Vec<Job> = jobs.to_vec();
        by_arrival.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        // Jobs arrive in this order, so a ticket's `seq` indexes its job.
        let mut arrived = 0;
        let mut gate = Admission::new(self.mpl);
        let mut running: Vec<Running> = Vec::new();
        let mut done: Vec<JobOutcome> = Vec::new();
        let mut t: f64 = 0.0;

        while arrived < by_arrival.len() || gate.queue_depth() > 0 || !running.is_empty() {
            // Every arrival due by now joins the wait queue *before* anyone
            // is admitted, so a batch arriving together is admitted in
            // priority order rather than list order.
            while by_arrival.get(arrived).is_some_and(|j| j.arrival <= t) {
                gate.arrive(by_arrival[arrived].priority);
                arrived += 1;
            }
            for ticket in gate.admit() {
                let job = by_arrival[ticket.1 as usize];
                running.push(Running { job, ticket, start: t, left: job.demand });
            }
            if running.is_empty() {
                // Idle until the next arrival.
                t = t.max(by_arrival[arrived].arrival);
                continue;
            }
            let total_weight: f64 = running.iter().map(|r| r.job.weight.max(1e-9)).sum();
            // Per-job service rate under weighted sharing.
            let rate = |r: &Running| self.capacity * r.job.weight.max(1e-9) / total_weight;
            let next_finish = running
                .iter()
                .map(|r| t + r.left / rate(r))
                .fold(f64::INFINITY, f64::min);
            let next_arrival = by_arrival.get(arrived).map_or(f64::INFINITY, |j| j.arrival);
            let t_next = next_finish.min(next_arrival.max(t));
            let dt = (t_next - t).max(0.0);
            for r in &mut running {
                r.left -= rate(r) * dt;
            }
            t = t_next;
            running.retain(|r| {
                if r.left <= 1e-9 {
                    gate.complete(r.ticket);
                    done.push(JobOutcome {
                        id: r.job.id,
                        start: r.start,
                        wait: (r.start - r.job.arrival).max(0.0),
                        finish: t,
                        response: t - r.job.arrival,
                    });
                    false
                } else {
                    true
                }
            });
        }
        done.sort_by_key(|j| j.id);
        SimOutcome { jobs: done, makespan: t }
    }
}

// ---------------------------------------------------------------------------
// FMT
// ---------------------------------------------------------------------------

/// Result of the fluctuating-memory test.
#[derive(Debug, Clone)]
pub struct FmtReport {
    /// Total workload cost with maximal memory (upper baseline — best case).
    pub mem_ubl_cost: f64,
    /// Total workload cost with minimal memory (lower baseline — worst case).
    pub mem_lbl_cost: f64,
    /// Per-query `(memory, cost)` under the fluctuating schedule.
    pub scheduled: Vec<(f64, f64)>,
}

impl FmtReport {
    /// Total cost under the schedule.
    pub fn scheduled_cost(&self) -> f64 {
        self.scheduled.iter().map(|&(_, c)| c).sum()
    }

    /// The robustness check: the scheduled run must land between the
    /// baselines (small tolerance for page rounding).
    pub fn within_bounds(&self) -> bool {
        let s = self.scheduled_cost();
        s >= self.mem_ubl_cost * 0.999 && s <= self.mem_lbl_cost * 1.001
    }

    /// Normalized position in `[0, 1]`: 0 = at the upper baseline (best),
    /// 1 = at the lower baseline (worst).
    pub fn position(&self) -> f64 {
        let span = self.mem_lbl_cost - self.mem_ubl_cost;
        if span <= 0.0 {
            0.0
        } else {
            ((self.scheduled_cost() - self.mem_ubl_cost) / span).clamp(0.0, 1.0)
        }
    }
}

/// Run the FMT: execute `specs` three times — max memory, min memory, and
/// under `schedule` (memory per query, cycled) — calling `before_run` before
/// every measured run. The FMT's bound (UBL ≤ scheduled ≤ LBL) presumes each
/// run's cost depends only on its memory grant — stateful storage (a buffer
/// pool warmed by one run and charged to the next) breaks that. The hook lets
/// the caller restore storage to one fixed state (e.g. re-attach a freshly
/// warmed pool) so every run is measured from identical residency; `&|| {}`
/// when there is none.
#[allow(clippy::too_many_arguments)]
pub fn fluctuating_memory_test_with(
    catalog: &Catalog,
    est: &dyn CardEstimator,
    specs: &[QuerySpec],
    schedule: &[f64],
    max_memory: f64,
    min_memory: f64,
    before_run: &dyn Fn(),
) -> Result<FmtReport> {
    if schedule.is_empty() || specs.is_empty() {
        return Err(RqpError::Invalid("FMT needs queries and a schedule".into()));
    }
    let run_at = |mem: f64, spec: &QuerySpec| -> Result<f64> {
        before_run();
        let cfg = PlannerConfig { memory_rows: mem, ..Default::default() };
        let p = plan(spec, catalog, est, cfg)?;
        let ctx = ExecContext::with_memory(mem);
        p.build(catalog, &ctx, None)?.run();
        Ok(ctx.clock.now())
    };
    let mut ubl = 0.0;
    let mut lbl = 0.0;
    let mut scheduled = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        ubl += run_at(max_memory, spec)?;
        lbl += run_at(min_memory, spec)?;
        let mem = schedule[i % schedule.len()].clamp(min_memory, max_memory);
        scheduled.push((mem, run_at(mem, spec)?));
    }
    Ok(FmtReport { mem_ubl_cost: ubl, mem_lbl_cost: lbl, scheduled })
}

// ---------------------------------------------------------------------------
// FPT
// ---------------------------------------------------------------------------

/// Result of the fluctuating-parallelism test.
#[derive(Debug, Clone)]
pub struct FptReport {
    /// `Qi`'s response when running alone with full weight.
    pub solo_response: f64,
    /// `(Qm weight, Qi response)` for each contention level.
    pub contended: Vec<(f64, f64)>,
}

impl FptReport {
    /// Slowdown factors relative to solo.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.contended
            .iter()
            .map(|&(_, r)| r / self.solo_response)
            .collect()
    }
}

/// Run the FPT: `Qi` (demand `qi_demand`, weight 1) runs from t=0; a
/// competitor `Qm` (demand `qm_demand`) arrives at `qm_arrival` with each of
/// the given weights ("how many processes it demands").
pub fn fluctuating_parallelism_test(
    qi_demand: f64,
    qm_demand: f64,
    qm_arrival: f64,
    qm_weights: &[f64],
    capacity: f64,
) -> FptReport {
    let mgr = WorkloadManager::new(8, capacity);
    let solo = mgr.simulate(&[Job {
        id: 0,
        arrival: 0.0,
        demand: qi_demand,
        priority: 1,
        weight: 1.0,
    }]);
    let solo_response = solo.jobs[0].response;
    let contended = qm_weights
        .iter()
        .map(|&w| {
            let out = mgr.simulate(&[
                Job { id: 0, arrival: 0.0, demand: qi_demand, priority: 1, weight: 1.0 },
                Job { id: 1, arrival: qm_arrival, demand: qm_demand, priority: 1, weight: w },
            ]);
            (w, out.job(0).expect("Qi completes").response)
        })
        .collect();
    FptReport { solo_response, contended }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{TpchDb, TpchParams};
    use rqp_stats::{StatsEstimator, TableStatsRegistry};
    use std::rc::Rc;

    #[test]
    fn single_job_runs_at_capacity() {
        let mgr = WorkloadManager::new(4, 10.0);
        let out = mgr.simulate(&[Job {
            id: 0,
            arrival: 5.0,
            demand: 100.0,
            priority: 0,
            weight: 1.0,
        }]);
        let j = out.job(0).unwrap();
        assert!((j.finish - 15.0).abs() < 1e-9);
        assert!((j.response - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mpl_gate_queues_excess_jobs() {
        let mgr = WorkloadManager::new(1, 10.0);
        let jobs: Vec<Job> = (0..3)
            .map(|i| Job { id: i, arrival: 0.0, demand: 100.0, priority: 0, weight: 1.0 })
            .collect();
        let out = mgr.simulate(&jobs);
        // Serial: finishes at 10, 20, 30.
        let mut finishes: Vec<f64> = out.jobs.iter().map(|j| j.finish).collect();
        finishes.sort_by(f64::total_cmp);
        assert!((finishes[0] - 10.0).abs() < 1e-9);
        assert!((finishes[2] - 30.0).abs() < 1e-9);
        assert!((out.makespan - 30.0).abs() < 1e-9);
    }

    #[test]
    fn priorities_jump_the_queue() {
        let mgr = WorkloadManager::new(1, 10.0);
        let jobs = vec![
            Job { id: 0, arrival: 0.0, demand: 100.0, priority: 1, weight: 1.0 },
            Job { id: 1, arrival: 1.0, demand: 100.0, priority: 1, weight: 1.0 },
            Job { id: 2, arrival: 2.0, demand: 100.0, priority: 0, weight: 1.0 },
        ];
        let out = mgr.simulate(&jobs);
        // Job 2 (high priority) must start before job 1 despite arriving later.
        assert!(out.job(2).unwrap().start < out.job(1).unwrap().start);
    }

    /// Random `arrive`/`complete`/`cancel`/`pause`/`resume` traces against
    /// a recount: after every event (and the `admit` drain that follows it)
    /// the machine's counters match a model of who waits and who runs, and
    /// each admission went to the smallest waiter at that moment.
    #[test]
    fn admission_machine_holds_its_invariants_on_random_traces() {
        use rand::Rng;
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Fate {
            Waiting,
            Running,
            Ended,
        }
        for seed in 0..64u64 {
            let mut rng = rqp_common::rng::seeded(seed);
            let mpl = 1 + (seed % 4) as usize;
            let mut gate = Admission::new(mpl);
            let (mut tickets, mut fates) = (Vec::<Ticket>::new(), Vec::<Fate>::new());
            let (mut paused, mut peak, mut admitted, mut ends) = (false, 0, 0u64, 0usize);
            for step in 0..400 {
                let in_state = |fates: &[Fate], f: Fate| {
                    (0..fates.len()).filter(|&i| fates[i] == f).collect::<Vec<_>>()
                };
                let running = in_state(&fates, Fate::Running);
                let live: Vec<usize> =
                    (0..fates.len()).filter(|&i| fates[i] != Fate::Ended).collect();
                // Drain the queue towards the end, so every ticket ends.
                let draining = step >= 300;
                match rng.gen_range(0..10u32) {
                    0..=3 if !draining => {
                        let t = gate.arrive(rng.gen_range(0..4u32) as u8);
                        assert_eq!(t.1 as usize, tickets.len(), "dense arrival numbering");
                        tickets.push(t);
                        fates.push(Fate::Waiting);
                    }
                    4..=6 if !running.is_empty() => {
                        let i = running[rng.gen_range(0..running.len())];
                        gate.complete(tickets[i]);
                        fates[i] = Fate::Ended;
                        ends += 1;
                    }
                    7 if !live.is_empty() => {
                        let i = live[rng.gen_range(0..live.len())];
                        gate.cancel(tickets[i]);
                        fates[i] = Fate::Ended;
                        ends += 1;
                    }
                    8 if !draining => {
                        gate.pause();
                        paused = true;
                    }
                    _ => {
                        gate.resume();
                        paused = false;
                    }
                }
                let out: Vec<Ticket> = gate.admit().collect();
                for t in out {
                    assert!(!paused, "seed {seed}: admitted {t:?} while paused");
                    let waiting = in_state(&fates, Fate::Waiting);
                    let head = waiting.iter().map(|&i| tickets[i]).min();
                    assert_eq!(Some(t), head, "seed {seed}: admitted past the smallest waiter");
                    fates[t.1 as usize] = Fate::Running;
                    admitted += 1;
                }
                let running = in_state(&fates, Fate::Running).len();
                peak = peak.max(running);
                assert!(running <= mpl, "seed {seed}: {running} running at MPL {mpl}");
                assert_eq!(gate.running(), running, "seed {seed}");
                assert_eq!(gate.queue_depth(), in_state(&fates, Fate::Waiting).len());
                assert_eq!(gate.peak_running(), peak, "seed {seed}");
                assert_eq!(gate.admitted(), admitted, "seed {seed}");
                if !paused && gate.running() < mpl {
                    assert_eq!(gate.queue_depth(), 0, "seed {seed}: a free slot left idle");
                }
                for (i, &t) in tickets.iter().enumerate() {
                    assert_eq!(gate.is_queued(t), fates[i] == Fate::Waiting, "seed {seed}");
                }
            }
            // Whatever is still live ends now; then every ticket has ended
            // exactly once.
            for i in 0..fates.len() {
                if fates[i] != Fate::Ended {
                    gate.cancel(tickets[i]);
                    fates[i] = Fate::Ended;
                    ends += 1;
                }
            }
            assert_eq!(ends, tickets.len(), "seed {seed}");
            assert_eq!((gate.running(), gate.queue_depth()), (0, 0), "seed {seed}");
        }
    }

    #[test]
    fn equal_arrivals_are_admitted_by_priority_then_list_order() {
        let mgr = WorkloadManager::new(1, 1.0);
        let job = |id, priority| Job { id, arrival: 0.0, demand: 1.0, priority, weight: 1.0 };
        let out = mgr.simulate(&[job(0, 1), job(1, 1), job(2, 0), job(3, 1)]);
        let starts: Vec<f64> = (0..4).map(|id| out.job(id).unwrap().start).collect();
        assert_eq!(starts, vec![1.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn weighted_sharing_splits_capacity() {
        let mgr = WorkloadManager::new(4, 10.0);
        let jobs = vec![
            Job { id: 0, arrival: 0.0, demand: 100.0, priority: 0, weight: 3.0 },
            Job { id: 1, arrival: 0.0, demand: 100.0, priority: 0, weight: 1.0 },
        ];
        let out = mgr.simulate(&jobs);
        // Job 0 gets 7.5/s → finishes ~13.33; then job 1 runs alone.
        assert!(out.job(0).unwrap().finish < out.job(1).unwrap().finish);
        assert!((out.job(0).unwrap().finish - 100.0 / 7.5).abs() < 1e-6);
    }

    #[test]
    fn empty_job_list_is_a_quiet_noop() {
        let out = WorkloadManager::new(4, 10.0).simulate(&[]);
        assert!(out.jobs.is_empty());
        assert_eq!(out.makespan, 0.0);
        assert_eq!(out.mean_response(), 0.0);
    }

    #[test]
    fn mpl_one_does_not_preempt_a_running_low_priority_job() {
        // Priority inversion at the gate, deliberately: priorities pick who
        // is admitted *next*, they never preempt a job already running.
        let mgr = WorkloadManager::new(1, 10.0);
        let jobs = vec![
            Job { id: 0, arrival: 0.0, demand: 100.0, priority: 9, weight: 1.0 },
            Job { id: 1, arrival: 1.0, demand: 100.0, priority: 0, weight: 1.0 },
        ];
        let out = mgr.simulate(&jobs);
        let low = out.job(0).unwrap();
        let high = out.job(1).unwrap();
        assert!((low.finish - 10.0).abs() < 1e-9, "low-priority job runs to completion");
        assert!((high.start - low.finish).abs() < 1e-9, "high priority waits for the slot");
        assert!((high.finish - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_job_still_finishes() {
        // Weights are clamped to a positive floor, so a zero-weight job
        // starves *relative* to its competitor but never deadlocks the
        // simulation.
        let mgr = WorkloadManager::new(4, 10.0);
        let jobs = vec![
            Job { id: 0, arrival: 0.0, demand: 100.0, priority: 0, weight: 0.0 },
            Job { id: 1, arrival: 0.0, demand: 100.0, priority: 0, weight: 1.0 },
        ];
        let out = mgr.simulate(&jobs);
        assert_eq!(out.jobs.len(), 2);
        let starved = out.job(0).unwrap();
        let fed = out.job(1).unwrap();
        assert!((fed.finish - 10.0).abs() < 1e-6, "weighted job runs ~alone");
        assert!(starved.finish > fed.finish, "zero weight yields the machine");
        assert!(starved.finish.is_finite(), "but still completes");
        assert!((out.makespan - starved.finish).abs() < 1e-9);
    }

    #[test]
    fn fpt_slowdown_grows_with_competitor_weight() {
        let r = fluctuating_parallelism_test(1000.0, 1000.0, 0.0, &[0.5, 1.0, 3.0], 10.0);
        let s = r.slowdowns();
        assert!(s.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{s:?}");
        assert!(s[0] > 1.0, "any competitor slows Qi down");
        assert!((r.solo_response - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fmt_bounds_hold() {
        let db = TpchDb::build(TpchParams { lineitem_rows: 3000, ..Default::default() }, 5);
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 16));
        let est = StatsEstimator::new(reg);
        let mut rng = rqp_common::rng::seeded(5);
        let specs = db.analytic_mix(6, &mut rng);
        let schedule = [200.0, 5000.0, 50_000.0];
        let report =
            fluctuating_memory_test_with(&db.catalog, &est, &specs, &schedule, 1e9, 150.0, &|| {})
                .unwrap();
        assert!(report.mem_ubl_cost <= report.mem_lbl_cost);
        assert!(report.within_bounds(), "position {}", report.position());
        assert!((0.0..=1.0).contains(&report.position()));
    }

    #[test]
    fn fmt_rejects_empty() {
        let db = TpchDb::build(TpchParams { lineitem_rows: 500, ..Default::default() }, 5);
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 16));
        let est = StatsEstimator::new(reg);
        let report = fluctuating_memory_test_with(&db.catalog, &est, &[], &[1.0], 10.0, 1.0, &|| {});
        assert!(report.is_err());
    }
}
