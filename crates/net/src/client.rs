//! Blocking wire client.
//!
//! [`WireClient`] drives the client side of the protocol in lockstep:
//! connect + HELLO, then per query SUBMIT → pages against credits →
//! DONE/ERROR. Because the server only sends pages against credits this
//! client granted, and this client grants credits for one query at a time,
//! no demultiplexing is needed — every frame read belongs to the
//! conversation in progress.
//!
//! **One round trip per query.** [`run`](WireClient::run) grants the rest
//! of the result ([`REST_OF_RESULT`]) in the SUBMIT itself, so SUBMIT_ACK,
//! every page and the DONE come back without a second request, whatever
//! the result's size. [`fetch`](WireClient::fetch) grants the rest of its
//! query with at most one FETCH, so `submit` + `fetch` costs two round
//! trips. [`submit`](WireClient::submit) passes `opts.credits` through untouched
//! (default 0): a caller that keeps several queries in flight, or reads
//! anything else before draining, must not have pages arrive unsolicited
//! and grants by [`fetch`](WireClient::fetch) /
//! [`fetch_partial`](WireClient::fetch_partial) when it is ready.
//!
//! **Per-query cursor.** From SUBMIT_ACK until `fetch` returns, the client
//! keeps for each query the credits still outstanding, the rows received so
//! far and the DONE or ERROR once some call has read it. Every call that
//! reads frames advances the same cursor, so the three ways of draining
//! compose: `fetch` after `fetch_partial` returns the *remaining* rows,
//! checks DONE's row total against everything received, returns at once if
//! `fetch_partial` already read the terminal frame, and reports a failure
//! with its wire code whoever read the ERROR. `fetch` retires the cursor; a
//! query drained by `fetch_partial` alone keeps its few words until the
//! connection closes.

use crate::frame::{read_frame, write_frame};
use crate::proto::{
    self, ClientMsg, RemoteFailure, ServerMsg, WireQueryOptions, WireSubscribeOptions,
    REST_OF_RESULT,
};
use rqp_common::{Row, RqpError};
use rqp_opt::QuerySpec;
use rqp_server::{LiveQueryStats, QueryPhase};
use rqp_telemetry::{EventTail, MetricsSnapshot};
use std::collections::HashMap;
use std::net::TcpStream;

/// What a query's DONE frame reported.
#[derive(Debug)]
struct Done {
    total_rows: u64,
    cost: f64,
    plan_cached: bool,
}

/// Client-side state of one submitted query (module docs).
#[derive(Debug, Default)]
struct Cursor {
    /// Credits granted, with the SUBMIT or by FETCH, that no PAGE has
    /// consumed yet.
    outstanding: u32,
    /// Rows received so far, over every call that read pages of the query.
    received: u64,
    /// The DONE or ERROR, once read — by whichever call was reading.
    terminal: Option<Result<Done, RemoteFailure>>,
}

/// The fully-drained result of one remote query.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOutcome {
    /// Service-wide query id.
    pub query: u64,
    /// All result rows, page-assembled in order.
    pub rows: Vec<Row>,
    /// Cost charged to the query's virtual clock.
    pub cost: f64,
    /// Whether the server served the plan from its plan cache.
    pub plan_cached: bool,
}

/// One assembled delta from a subscription poll: the view changed by
/// retracting `retracted` and inserting `inserted`, as of changelog
/// `epoch`. Chunked DELTA frames are re-joined client-side, so a packet
/// of any size comes back whole.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteDelta {
    /// Changelog epoch the maintained view now reflects.
    pub epoch: u64,
    /// Rows entering the view (with multiplicity).
    pub inserted: Vec<Row>,
    /// Rows leaving the view (with multiplicity).
    pub retracted: Vec<Row>,
}

/// A STATS reply: the server's metrics registry plus every in-flight
/// query's live state, as one consistent-enough snapshot (gauges are
/// refreshed server-side immediately before the snapshot is taken).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    /// Service metrics, in registration order.
    pub metrics: MetricsSnapshot,
    /// In-flight queries, ordered by query id.
    pub live: Vec<LiveQueryStats>,
}

/// An INSPECT reply: the live (or final) `EXPLAIN ANALYZE` of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectOutcome {
    /// Whether the server knew the query id at all.
    pub found: bool,
    /// The query's phase at snapshot time (meaningful while in flight).
    pub phase: QueryPhase,
    /// Rendered span tree, possibly truncated server-side; empty while
    /// the query is queued (nothing has executed yet).
    pub rendered: String,
}

/// A blocking connection to a [`WireServer`](crate::WireServer).
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    session: u64,
    /// One cursor per query submitted here and not yet returned by
    /// [`fetch`](Self::fetch).
    cursors: HashMap<u64, Cursor>,
}

impl WireClient {
    /// Connect to `addr` and open a session with the given admission
    /// priority (0 = highest).
    pub fn connect(addr: &str, priority: u8) -> Result<WireClient, RqpError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| RqpError::Protocol(format!("connect {addr}: {e}")))?;
        let mut client = WireClient { stream, session: 0, cursors: HashMap::new() };
        client.send(&ClientMsg::Hello { priority })?;
        match client.recv()? {
            ServerMsg::HelloAck { session } => {
                client.session = session;
                Ok(client)
            }
            ServerMsg::Error { failure, .. } => Err(RqpError::Protocol(failure.to_string())),
            other => Err(RqpError::Protocol(format!("expected HELLO_ACK, got {other:?}"))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Submit a query; returns its service-wide query id. `opts.credits`
    /// pages may follow the ack unasked (module docs) — leave it 0 unless
    /// the next call on this connection drains this query.
    pub fn submit(
        &mut self,
        spec: &QuerySpec,
        opts: WireQueryOptions,
    ) -> Result<u64, RqpError> {
        self.write(proto::encode_submit(spec, &opts).map_err(RqpError::from)?)?;
        loop {
            match self.recv()? {
                ServerMsg::SubmitAck { query } => {
                    let cursor = Cursor { outstanding: opts.credits, ..Cursor::default() };
                    self.cursors.insert(query, cursor);
                    return Ok(query);
                }
                ServerMsg::Error { query: 0, failure } => {
                    return Err(RqpError::Protocol(failure.to_string()))
                }
                // An earlier in-flight query failed while we were waiting
                // for the ack; its cursor keeps the failure for its fetch.
                ServerMsg::Error { query, failure } => self.finish(query, Err(failure)),
                other => {
                    return Err(RqpError::Protocol(format!(
                        "expected SUBMIT_ACK, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Drain `query` to completion: once the credits already granted are
    /// spent, grant the rest of the result in one FETCH, collect the pages
    /// not yet read, and return the assembled outcome — or the
    /// server-reported failure with its stable wire code. After
    /// [`fetch_partial`](Self::fetch_partial) calls, `rows` holds the rows
    /// those calls did not return.
    pub fn fetch(
        &mut self,
        query: u64,
    ) -> Result<Result<RemoteOutcome, RemoteFailure>, RqpError> {
        let mut rows: Vec<Row> = Vec::new();
        loop {
            let Some(cursor) = self.cursors.get_mut(&query) else {
                return Err(RqpError::Protocol(format!(
                    "query {query} was not submitted on this connection or is already fetched"
                )));
            };
            if let Some(terminal) = cursor.terminal.take() {
                let received = cursor.received;
                self.cursors.remove(&query);
                let done = match terminal {
                    Ok(done) => done,
                    Err(failure) => return Ok(Err(failure)),
                };
                if received != done.total_rows {
                    return Err(RqpError::Protocol(format!(
                        "server reported {} rows, received {received}",
                        done.total_rows
                    )));
                }
                let (cost, plan_cached) = (done.cost, done.plan_cached);
                return Ok(Ok(RemoteOutcome { query, rows, cost, plan_cached }));
            }
            if cursor.outstanding == 0 {
                self.grant(query, REST_OF_RESULT)?;
            }
            self.advance(query, &mut rows)?;
        }
    }

    /// Grant `credits` more pages for `query` and read every page now owed
    /// (these and any granted earlier), stopping early at the DONE or ERROR
    /// — the building block of slow-consumer tests. The terminal frame
    /// stays in the query's cursor for [`fetch`](Self::fetch); a query
    /// without a live cursor gets the grant (the server absorbs it) and no
    /// read.
    pub fn fetch_partial(
        &mut self,
        query: u64,
        credits: u32,
    ) -> Result<Vec<Row>, RqpError> {
        self.grant(query, credits)?;
        let mut rows = Vec::new();
        while self
            .cursors
            .get(&query)
            .is_some_and(|c| c.outstanding > 0 && c.terminal.is_none())
        {
            self.advance(query, &mut rows)?;
        }
        Ok(rows)
    }

    /// Send a FETCH and book its credits on the query's cursor.
    fn grant(&mut self, query: u64, credits: u32) -> Result<(), RqpError> {
        self.send(&ClientMsg::Fetch { query, credits })?;
        if let Some(cursor) = self.cursors.get_mut(&query) {
            cursor.outstanding = cursor.outstanding.saturating_add(credits);
        }
        Ok(())
    }

    /// Read one frame while draining `query` and apply it to the cursors;
    /// the rows of a PAGE go to `rows`.
    fn advance(&mut self, query: u64, rows: &mut Vec<Row>) -> Result<(), RqpError> {
        match self.recv()? {
            ServerMsg::Page { query: q, rows: page } if q == query => {
                if let Some(cursor) = self.cursors.get_mut(&query) {
                    cursor.outstanding = cursor.outstanding.saturating_sub(1);
                    cursor.received += page.len() as u64;
                }
                rows.extend(page);
            }
            ServerMsg::Done { query: q, total_rows, cost, plan_cached } if q == query => {
                self.finish(query, Ok(Done { total_rows, cost, plan_cached }));
            }
            // A connection-level failure ends the query being drained.
            ServerMsg::Error { query: 0, failure } => self.finish(query, Err(failure)),
            // Failure frames need no credit, so with several queries in
            // flight (open-loop submission) another query's can arrive
            // here; it waits in that query's cursor.
            ServerMsg::Error { query: q, failure } => self.finish(q, Err(failure)),
            other => {
                return Err(RqpError::Protocol(format!(
                    "unexpected frame while fetching query {query}: {other:?}"
                )));
            }
        }
        Ok(())
    }

    /// Record how `query` ended.
    fn finish(&mut self, query: u64, terminal: Result<Done, RemoteFailure>) {
        if let Some(cursor) = self.cursors.get_mut(&query) {
            cursor.terminal = Some(terminal);
        }
    }

    /// Request cooperative cancellation of `query` (fire-and-forget).
    pub fn cancel(&mut self, query: u64) -> Result<(), RqpError> {
        self.send(&ClientMsg::Cancel { query })
    }

    /// Close the session cleanly (GOODBYE / GOODBYE_ACK).
    pub fn goodbye(mut self) -> Result<(), RqpError> {
        self.send(&ClientMsg::Goodbye)?;
        match self.recv()? {
            ServerMsg::GoodbyeAck => Ok(()),
            other => Err(RqpError::Protocol(format!("expected GOODBYE_ACK, got {other:?}"))),
        }
    }

    /// Snapshot the server's metrics and in-flight queries (STATS).
    ///
    /// Like all three introspection calls, this runs in lockstep on this
    /// connection: call it only when no query frames are outstanding here.
    /// Observers (`rqp-top`, loadgen `--observe`) use a dedicated
    /// connection so they never interleave with a query conversation.
    pub fn stats(&mut self) -> Result<ServiceSnapshot, RqpError> {
        self.send(&ClientMsg::Stats)?;
        match self.recv()? {
            ServerMsg::StatsReply { metrics, live } => Ok(ServiceSnapshot { metrics, live }),
            ServerMsg::Error { failure, .. } => Err(RqpError::Protocol(failure.to_string())),
            other => Err(RqpError::Protocol(format!("expected STATS_REPLY, got {other:?}"))),
        }
    }

    /// Live `EXPLAIN ANALYZE` of `query` (INSPECT): its span tree so far
    /// if running, its final tree if already completed.
    pub fn inspect(&mut self, query: u64) -> Result<InspectOutcome, RqpError> {
        self.send(&ClientMsg::Inspect { query })?;
        match self.recv()? {
            ServerMsg::InspectReply { found, phase, rendered, .. } => {
                Ok(InspectOutcome { found, phase: QueryPhase::from_u8(phase), rendered })
            }
            ServerMsg::Error { failure, .. } => Err(RqpError::Protocol(failure.to_string())),
            other => {
                Err(RqpError::Protocol(format!("expected INSPECT_REPLY, got {other:?}")))
            }
        }
    }

    /// Tail the server's flight recorder from `cursor` (EVENTS), up to
    /// `max` events. Resume from the returned `next_cursor`; a non-zero
    /// `gap` means the ring overwrote events this reader never saw.
    pub fn events(&mut self, cursor: u64, max: u32) -> Result<EventTail, RqpError> {
        self.send(&ClientMsg::Events { cursor, max })?;
        match self.recv()? {
            ServerMsg::EventsReply { events, next_cursor, gap } => {
                Ok(EventTail { events, next_cursor, gap })
            }
            ServerMsg::Error { failure, .. } => Err(RqpError::Protocol(failure.to_string())),
            other => Err(RqpError::Protocol(format!("expected EVENTS_REPLY, got {other:?}"))),
        }
    }

    /// Register a standing subscription (SUBSCRIBE); returns its
    /// service-wide id. The initial view is loaded server-side; deltas
    /// arrive only when [`poll_sub`](Self::poll_sub) asks for them.
    pub fn subscribe(
        &mut self,
        spec: &QuerySpec,
        opts: WireSubscribeOptions,
    ) -> Result<u64, RqpError> {
        self.write(proto::encode_subscribe(spec, &opts).map_err(RqpError::from)?)?;
        match self.recv()? {
            ServerMsg::SubAck { sub } => Ok(sub),
            ServerMsg::Error { failure, .. } => Err(RqpError::Protocol(failure.to_string())),
            other => Err(RqpError::Protocol(format!("expected SUB_ACK, got {other:?}"))),
        }
    }

    /// Tear down subscription `sub` (UNSUBSCRIBE). Idempotent from the
    /// caller's point of view: an id the server no longer knows comes back
    /// as a remote failure, not a protocol error.
    pub fn unsubscribe(
        &mut self,
        sub: u64,
    ) -> Result<Result<(), RemoteFailure>, RqpError> {
        self.send(&ClientMsg::Unsubscribe { sub })?;
        match self.recv()? {
            ServerMsg::SubDone { sub: s, .. } if s == sub => Ok(Ok(())),
            ServerMsg::Error { failure, .. } => Ok(Err(failure)),
            other => Err(RqpError::Protocol(format!("expected SUB_DONE, got {other:?}"))),
        }
    }

    /// Poll subscription `sub` for its next delta (POLL): applies up to
    /// `max_records` changelog records server-side (0 = all pending) and
    /// assembles the chunked DELTA frames into one [`RemoteDelta`]. Also
    /// returns the remaining changelog lag — non-zero means another poll
    /// has work waiting. Failures (cancelled, deadline, torn down) come
    /// back with their stable wire code.
    pub fn poll_sub(
        &mut self,
        sub: u64,
        max_records: u32,
    ) -> Result<Result<(RemoteDelta, u64), RemoteFailure>, RqpError> {
        self.send(&ClientMsg::Poll { sub, max_records })?;
        let mut delta = RemoteDelta::default();
        loop {
            match self.recv()? {
                ServerMsg::Delta { sub: s, epoch, inserted, retracted } if s == sub => {
                    delta.epoch = epoch;
                    delta.inserted.extend(inserted);
                    delta.retracted.extend(retracted);
                }
                ServerMsg::SubDone { sub: s, lag } if s == sub => {
                    return Ok(Ok((delta, lag)));
                }
                ServerMsg::Error { query: q, failure } if q == sub || q == 0 => {
                    return Ok(Err(failure));
                }
                other => {
                    return Err(RqpError::Protocol(format!(
                        "unexpected frame while polling subscription {sub}: {other:?}"
                    )));
                }
            }
        }
    }

    /// Append rows to a base table (APPEND); returns the changelog epoch
    /// after the append. Standing subscriptions over the table pick the
    /// rows up at their next poll.
    pub fn append(
        &mut self,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<Result<u64, RemoteFailure>, RqpError> {
        self.send(&ClientMsg::Append { table: table.into(), rows })?;
        match self.recv()? {
            ServerMsg::AppendAck { epoch } => Ok(Ok(epoch)),
            ServerMsg::Error { failure, .. } => Ok(Err(failure)),
            other => Err(RqpError::Protocol(format!("expected APPEND_ACK, got {other:?}"))),
        }
    }

    /// Submit and fully drain in one call. The SUBMIT grants the rest of
    /// the result (replacing `opts.credits`), so a result of any size costs
    /// one round trip.
    pub fn run(
        &mut self,
        spec: &QuerySpec,
        opts: WireQueryOptions,
    ) -> Result<Result<RemoteOutcome, RemoteFailure>, RqpError> {
        let query = self.submit(spec, WireQueryOptions { credits: REST_OF_RESULT, ..opts })?;
        self.fetch(query)
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), RqpError> {
        self.write(msg.encode().map_err(RqpError::from)?)
    }

    fn write(&mut self, (tag, payload): (u8, Vec<u8>)) -> Result<(), RqpError> {
        write_frame(&mut self.stream, tag, &payload).map_err(RqpError::from)
    }

    fn recv(&mut self) -> Result<ServerMsg, RqpError> {
        match read_frame(&mut self.stream) {
            Ok(Some(frame)) => ServerMsg::decode(&frame).map_err(RqpError::from),
            Ok(None) => Err(RqpError::Protocol("server closed the connection".into())),
            Err(e) => Err(e.into()),
        }
    }
}
