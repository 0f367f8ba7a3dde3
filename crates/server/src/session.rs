//! Sessions and query handles: the client-facing API of the service.

use crate::service::{run_query, QueryService, ServiceInner};
use crate::subs::SubscribeOptions;
use rqp_common::{CancelToken, Result, Row};
use rqp_opt::QuerySpec;
use std::sync::Arc;

/// Per-query submission options.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Admission priority (0 = highest); defaults to the session's.
    pub priority: Option<u8>,
    /// Deadline in cost units on the query's own virtual clock. A query
    /// that charges past it aborts with
    /// [`RqpError::DeadlineExceeded`](rqp_common::RqpError::DeadlineExceeded).
    pub deadline: Option<f64>,
    /// Workspace reservation ask in rows; defaults to the service's
    /// `default_reservation`. The broker caps it at the fair share.
    pub reservation: Option<f64>,
    /// Virtual arrival time used by the deterministic schedule replay
    /// (latency gauges), not by the real gate — real admission is
    /// submission-ordered.
    pub arrival: f64,
    /// Processor-sharing weight in the schedule replay.
    pub weight: f64,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { priority: None, deadline: None, reservation: None, arrival: 0.0, weight: 1.0 }
    }
}

impl QueryOptions {
    /// Options with a deadline (cost units).
    pub fn with_deadline(deadline: f64) -> Self {
        QueryOptions { deadline: Some(deadline), ..Default::default() }
    }

    /// Set the virtual arrival time (for the schedule replay).
    pub fn at(mut self, arrival: f64) -> Self {
        self.arrival = arrival;
        self
    }

    /// Set the replay processor-sharing weight.
    pub fn weighted(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Override the session priority for this query.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Set the workspace reservation ask (rows).
    pub fn reserve(mut self, rows: f64) -> Self {
        self.reservation = Some(rows);
        self
    }
}

/// What a finished query returns.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Service-wide query id.
    pub query: u64,
    /// Owning session id (0 for solo runs).
    pub session: u64,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Total cost charged to the query's virtual clock (its "demand").
    pub cost: f64,
    /// Structural fingerprint of the executed plan.
    pub fingerprint: String,
    /// Whether the plan came from the plan cache.
    pub plan_cached: bool,
    /// Maximum q-error over the executed plan's nodes LEO learns from
    /// (filtered scans, index scans and joins; see
    /// [`Execution::max_q_error`](rqp_opt::Execution::max_q_error)): the
    /// plan cache's drift signal.
    pub max_q_error: f64,
}

/// A client session: a priority class plus a factory for query handles.
///
/// Sessions are cheap and `Send` — clone the service handle into as many
/// threads as needed. Each [`submit`](Session::submit) spawns a dedicated
/// query thread that goes through admission, brokering, planning (or the
/// plan cache) and execution; the returned [`QueryHandle`] joins or cancels
/// it.
#[derive(Debug)]
pub struct Session {
    pub(crate) inner: Arc<ServiceInner>,
    pub(crate) id: u64,
    pub(crate) priority: u8,
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This session's default admission priority.
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// Submit a query for concurrent execution.
    pub fn submit(&self, spec: QuerySpec, opts: QueryOptions) -> QueryHandle {
        let inner = Arc::clone(&self.inner);
        let query = inner.next_query_id();
        let cancel = CancelToken::new();
        if let Some(d) = opts.deadline {
            cancel.set_deadline(d);
        }
        let (session, priority) = (self.id, opts.priority.unwrap_or(self.priority));
        let token = cancel.clone();
        let thread = std::thread::Builder::new()
            .name(format!("rqp-query-{query}"))
            .spawn(move || run_query(inner, session, query, priority, spec, opts, token))
            .expect("spawn query thread");
        QueryHandle { query, cancel, thread }
    }

    /// Register a standing subscription owned by this session, at the
    /// session's priority unless the options override it. Tearing down the
    /// session's subscriptions on disconnect is the owner's job
    /// ([`QueryService::unsubscribe_session`]
    /// (crate::QueryService::unsubscribe_session)).
    pub fn subscribe(&self, spec: &QuerySpec, opts: SubscribeOptions) -> Result<u64> {
        QueryService::from_inner(Arc::clone(&self.inner))
            .subscribe_for(self.id, self.priority, spec, opts)
    }
}

/// Handle to one in-flight query: cancel it, or join for its outcome.
#[derive(Debug)]
pub struct QueryHandle {
    query: u64,
    cancel: CancelToken,
    thread: std::thread::JoinHandle<Result<QueryOutcome>>,
}

impl QueryHandle {
    /// The service-wide query id.
    pub fn query(&self) -> u64 {
        self.query
    }

    /// Request cooperative cancellation: the query aborts with
    /// [`RqpError::Cancelled`](rqp_common::RqpError::Cancelled) at its next
    /// checkpoint (or leaves the admission queue if still waiting).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the query's cancellation token.
    pub fn token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Wait for the query to finish. Typed failures (including
    /// cancellation) come back as `Err`; a genuine panic on the query
    /// thread is propagated.
    pub fn join(self) -> Result<QueryOutcome> {
        match self.thread.join() {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}
