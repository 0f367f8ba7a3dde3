//! The wire pass: two closed-loop `WireClient` connections, one thread
//! each, driving the server child over loopback TCP.
//!
//! The protocol is lockstep and a session waits for its reply, so callers
//! are a closed loop: a slow server receives less load. A connection's
//! timeline is warm-up (discarded), then the untraced measured segment,
//! then — on a traced run only — a segment in which every operation is
//! split at the calls the harness makes and each call is a span.

use crate::trace::SpanLog;
use crate::workload::{same_row, Expected, Op, OpGen};
use rqp_common::{Row, RqpError, Value};
use rqp_net::{RemoteDelta, WireClient, WireQueryOptions, PAGE_ROWS};
use rqp_opt::QuerySpec;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Which part of a connection's timeline an operation completed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warm,
    Plain,
    Traced,
}

/// Phase boundaries, relative to the pass's start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub warm_end: Duration,
    pub plain_end: Duration,
    /// End of the traced segment; equal to `plain_end` on an untraced run.
    pub traced_end: Duration,
    /// Traced operations per connection after which it stops early.
    pub traced_ops: usize,
}

/// How an operation's result stands against the oracle.
#[derive(Debug, Clone)]
pub enum Verdict {
    Right,
    /// Failed, refused, or not the rows the oracle returns — and why.
    Wrong(String),
    /// The oracle has not answered this spec yet; the rows wait for it.
    Unchecked(Vec<Row>),
}

/// One completed primary operation, as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub phase: Phase,
    /// Completion time, relative to the pass's start.
    pub end: Duration,
    pub latency: Duration,
    /// Spec id for the oracle (`Op::Query`), 0 for a cycle.
    pub id: u64,
    pub verdict: Verdict,
    /// Protocol frames sent and received for this operation, counted from
    /// the calls made and the rows received (traced operations only).
    pub frames: u32,
    /// Largest changelog lag a poll of this cycle reported.
    pub max_lag: u64,
}

impl Sample {
    /// A sample whose phase and completion time `drive` fills in.
    fn new(latency: Duration, id: u64, verdict: Verdict) -> Sample {
        Sample {
            phase: Phase::Warm,
            end: Duration::ZERO,
            latency,
            id,
            verdict,
            frames: 0,
            max_lag: 0,
        }
    }
}

/// A standing subscription owned by one connection, with the client-side
/// fold of every delta received so far.
pub struct Subscription {
    pub id: u64,
    pub spec: QuerySpec,
    /// The view as a multiset: row → multiplicity (never 0).
    view: BTreeMap<Row, i64>,
    /// Retractions of rows the view did not hold.
    unmatched: u64,
}

impl Subscription {
    /// `initial` is the oracle's one-shot answer: SUBSCRIBE loads the view
    /// server-side and never ships it.
    pub fn new(id: u64, spec: QuerySpec, initial: Vec<Row>) -> Subscription {
        let mut sub = Subscription {
            id,
            spec,
            view: BTreeMap::new(),
            unmatched: 0,
        };
        initial.into_iter().for_each(|row| sub.insert(row));
        sub
    }

    fn insert(&mut self, row: Row) {
        *self.view.entry(row).or_insert(0) += 1;
    }

    /// Remove one copy of `row`. The server retracts the row its circuit
    /// held, whose float sums can differ in the last bit from the oracle's
    /// one-shot sums this view started from; so when the exact row is
    /// absent, the row equal up to `same_row`'s tolerance goes instead.
    fn retract(&mut self, row: Row) {
        let held = if self.view.contains_key(&row) {
            Some(row)
        } else {
            let lead = row
                .iter()
                .take_while(|v| !matches!(v, Value::Float(_)))
                .count();
            let near = self
                .view
                .range(row[..lead].to_vec()..)
                .take_while(|(held, _)| held.starts_with(&row[..lead]));
            near.map(|(held, _)| held)
                .find(|held| same_row(held, &row))
                .cloned()
        };
        match held {
            Some(key) => {
                let n = self.view.get_mut(&key).expect("found above");
                *n -= 1;
                if *n == 0 {
                    self.view.remove(&key);
                }
            }
            None => self.unmatched += 1,
        }
    }

    fn fold(&mut self, delta: RemoteDelta) {
        delta
            .retracted
            .into_iter()
            .for_each(|row| self.retract(row));
        delta.inserted.into_iter().for_each(|row| self.insert(row));
    }

    /// Whether the folded view is the answer `cold` — a one-shot run of the
    /// same spec — gives.
    fn matches(&self, cold: Vec<Row>) -> bool {
        let rows: Vec<Row> = self
            .view
            .iter()
            .flat_map(|(row, &n)| std::iter::repeat_n(row.clone(), n as usize))
            .collect();
        self.unmatched == 0 && Expected::of(&self.spec, cold).matches(&rows)
    }
}

/// One connection and everything its thread owns.
pub struct Conn {
    pub index: usize,
    pub client: WireClient,
    pub gen: OpGen,
    pub sub: Option<Subscription>,
    /// The oracle's up-front answers, by spec id.
    pub known: Arc<HashMap<u64, Expected>>,
}

/// What one connection's thread brings back.
pub struct ConnResult {
    pub samples: Vec<Sample>,
    pub log: SpanLog,
    /// `stream_append`: whether the folded view equalled a one-shot run of
    /// the spec after the last cycle.
    pub view_matches: Option<bool>,
    /// A transport or protocol error that ended the connection early.
    pub fatal: Option<String>,
}

/// What polling a subscription down to lag 0 exchanged.
struct Drained {
    deltas: Vec<RemoteDelta>,
    frames: u32,
    max_lag: u64,
}

impl Conn {
    fn judge(&self, id: u64, rows: Vec<Row>) -> Verdict {
        match self.known.get(&id) {
            Some(expected) if expected.matches(&rows) => Verdict::Right,
            Some(_) => Verdict::Wrong(format!("spec {id} returned rows the oracle does not")),
            None => Verdict::Unchecked(rows),
        }
    }

    /// One untraced query: `run` is SUBMIT → FETCH rounds → DONE.
    fn query_plain(&mut self, id: u64, spec: &QuerySpec) -> Result<Sample, RqpError> {
        let start = Instant::now();
        let reply = self.client.run(spec, WireQueryOptions::default())?;
        let latency = start.elapsed();
        let verdict = match reply {
            Ok(out) => self.judge(id, out.rows),
            Err(refused) => Verdict::Wrong(refused.to_string()),
        };
        Ok(Sample::new(latency, id, verdict))
    }

    /// One traced query, split at the calls the harness makes. Pages are
    /// drawn one credit at a time: each `fetch_partial(q, 1)` reads exactly
    /// one frame, a PAGE (rows) or the DONE (no rows). That is the only way
    /// to see the first page apart from the rest — `fetch` after
    /// `fetch_partial` checks DONE's row total against its own pages alone
    /// and fails, and waits forever if the DONE was already consumed.
    fn query_traced(
        &mut self,
        op: u64,
        id: u64,
        spec: &QuerySpec,
        log: &mut SpanLog,
    ) -> Result<Sample, RqpError> {
        let start = Instant::now();
        let root = log.open("client.op", op, 0);
        let query = log.time("client.submit", op, root, || {
            self.client.submit(spec, WireQueryOptions::default())
        })?;
        let mut rows = log.time("client.first_page", op, root, || {
            self.client.fetch_partial(query, 1)
        })?;
        // SUBMIT and SUBMIT_ACK, then a FETCH out and one frame back per call.
        let mut frames = 4;
        if !rows.is_empty() {
            log.time("client.drain", op, root, || loop {
                let page = self.client.fetch_partial(query, 1)?;
                frames += 2;
                if page.is_empty() {
                    return Ok::<(), RqpError>(());
                }
                rows.extend(page);
            })?;
        }
        let latency = start.elapsed();
        let verdict = log.time("client.verify", op, root, || self.judge(id, rows));
        log.close(root);
        Ok(Sample {
            frames,
            ..Sample::new(latency, id, verdict)
        })
    }

    /// Poll the connection's subscription until its lag is 0; the inner
    /// error is a poll the server refused.
    fn drain_subscription(
        &mut self,
        op: u64,
        root: u64,
        log: &mut SpanLog,
    ) -> Result<Result<Drained, String>, RqpError> {
        let sub = self
            .sub
            .as_ref()
            .expect("stream_append connections hold a subscription")
            .id;
        let mut drained = Drained {
            deltas: Vec::new(),
            frames: 0,
            max_lag: 0,
        };
        loop {
            let (delta, lag) =
                match log.time("client.poll", op, root, || self.client.poll_sub(sub, 0))? {
                    Ok(polled) => polled,
                    Err(refused) => return Ok(Err(refused.to_string())),
                };
            // POLL out; DELTA frames of at most PAGE_ROWS rows and SUB_DONE back.
            let delta_rows = delta.inserted.len() + delta.retracted.len();
            drained.frames += 2 + delta_rows.div_ceil(PAGE_ROWS) as u32;
            drained.max_lag = drained.max_lag.max(lag);
            drained.deltas.push(delta);
            if lag == 0 {
                return Ok(Ok(drained));
            }
        }
    }

    /// One append-then-poll cycle; its latency is append-to-visible
    /// freshness.
    fn cycle(&mut self, op: u64, rows: Vec<Row>, log: &mut SpanLog) -> Result<Sample, RqpError> {
        let start = Instant::now();
        let root = log.open("client.op", op, 0);
        let appended = log.time("client.append", op, root, || {
            self.client.append("lineitem", rows)
        })?;
        let drained = match appended {
            Ok(_epoch) => self.drain_subscription(op, root, log)?,
            Err(refused) => Err(refused.to_string()),
        };
        let latency = start.elapsed();
        let sample = match drained {
            Ok(Drained {
                deltas,
                frames,
                max_lag,
            }) => {
                let view = self.sub.as_mut().expect("checked by drain_subscription");
                log.time("client.verify", op, root, || {
                    deltas.into_iter().for_each(|d| view.fold(d))
                });
                // APPEND and APPEND_ACK, plus the polls.
                Sample {
                    frames: 2 + frames,
                    max_lag,
                    ..Sample::new(latency, 0, Verdict::Right)
                }
            }
            Err(refused) => Sample::new(latency, 0, Verdict::Wrong(refused)),
        };
        log.close(root);
        Ok(sample)
    }

    /// After the last cycle of every connection: drain the subscription
    /// once more (the other connection's appends are in the changelog
    /// too), then compare the fold with a one-shot run of the same spec.
    fn view_matches_one_shot(&mut self, log: &mut SpanLog) -> Result<bool, RqpError> {
        let Ok(drained) = self.drain_subscription(0, 0, log)? else {
            return Ok(false);
        };
        let view = self.sub.as_mut().expect("checked by drain_subscription");
        drained.deltas.into_iter().for_each(|d| view.fold(d));
        let Ok(cold) = self.client.run(&view.spec, WireQueryOptions::default())? else {
            return Ok(false);
        };
        Ok(view.matches(cold.rows))
    }

    /// Drive this connection through the schedule. `barrier` lines the
    /// connections up before the pass and before the final view check.
    pub fn drive(&mut self, schedule: &Schedule, t0: Instant, barrier: &Barrier) -> ConnResult {
        let mut log = SpanLog::new(t0, (self.index as u64 + 1) << 32);
        let mut samples = Vec::new();
        let mut traced = 0usize;
        let mut fatal = None;
        barrier.wait();
        loop {
            let now = t0.elapsed();
            let phase = if now < schedule.warm_end {
                Phase::Warm
            } else if now < schedule.plain_end {
                Phase::Plain
            } else if now < schedule.traced_end && traced < schedule.traced_ops {
                Phase::Traced
            } else {
                break;
            };
            log.enabled = phase == Phase::Traced;
            // Spans of one operation share this id.
            let op = ((self.index as u64 + 1) << 32) | samples.len() as u64;
            let done = match self.gen.next_op() {
                Op::Query { id, spec } if phase == Phase::Traced => {
                    self.query_traced(op, id, &spec, &mut log)
                }
                Op::Query { id, spec } => self.query_plain(id, &spec),
                Op::Cycle { rows } => self.cycle(op, rows, &mut log),
            };
            traced += (phase == Phase::Traced) as usize;
            match done {
                Ok(sample) => samples.push(Sample {
                    phase,
                    end: t0.elapsed(),
                    ..sample
                }),
                Err(e) => {
                    // The conversation is out of step: this connection is
                    // done, and the operation counts as failed.
                    samples.push(Sample {
                        phase,
                        end: t0.elapsed(),
                        ..Sample::new(Duration::ZERO, 0, Verdict::Wrong(e.to_string()))
                    });
                    fatal = Some(e.to_string());
                    break;
                }
            }
        }
        log.enabled = false;
        barrier.wait();
        let view_matches = self.sub.is_some().then(|| {
            fatal.is_none()
                && self.view_matches_one_shot(&mut log).unwrap_or_else(|e| {
                    fatal = Some(e.to_string());
                    false
                })
        });
        ConnResult {
            samples,
            log,
            view_matches,
            fatal,
        }
    }
}
