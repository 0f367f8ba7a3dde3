//! Typed wire messages on top of the frame layer.
//!
//! The conversation is strictly client-driven: the server only ever writes
//! in response to client frames (HELLO → HELLO_ACK, SUBMIT → SUBMIT_ACK,
//! credits → up to that many PAGE frames then DONE/ERROR, CANCEL is
//! fire-and-forget, GOODBYE → GOODBYE_ACK). Credits are granted by FETCH
//! and, for the first window, by SUBMIT itself
//! ([`WireQueryOptions::credits`]); a window of [`REST_OF_RESULT`] credits
//! in the SUBMIT returns a result of any size in one round trip.
//! Because result pages flow only against explicitly granted credits, a
//! client that stops granting stops *receiving* — its query's remaining
//! rows wait server-side in their already-accounted result buffer, and no
//! unbounded queue of encoded frames builds up (see `server`).
//!
//! Errors travel as a stable numeric code from
//! [`RqpError::wire_code`](rqp_common::RqpError::wire_code) plus the display
//! message, so clients classify failures by code — never by matching
//! message strings.

use crate::frame::{Frame, FrameError};
use crate::wire::{self, Reader, Writer};
use rqp_common::Row;
use rqp_opt::QuerySpec;
use rqp_server::LiveQueryStats;
use rqp_telemetry::{MetricsSnapshot, RecordedEvent};

type Result<T> = std::result::Result<T, FrameError>;

// Client → server message type tags.
const T_HELLO: u8 = 1;
const T_SUBMIT: u8 = 2;
const T_FETCH: u8 = 3;
const T_CANCEL: u8 = 4;
const T_GOODBYE: u8 = 5;
const T_STATS: u8 = 6;
const T_INSPECT: u8 = 7;
const T_EVENTS: u8 = 8;
const T_SUBSCRIBE: u8 = 9;
const T_UNSUBSCRIBE: u8 = 10;
const T_POLL: u8 = 11;
const T_APPEND: u8 = 12;

// Server → client message type tags.
const T_HELLO_ACK: u8 = 16;
const T_SUBMIT_ACK: u8 = 17;
const T_PAGE: u8 = 18;
const T_DONE: u8 = 19;
const T_ERROR: u8 = 20;
const T_GOODBYE_ACK: u8 = 21;
const T_STATS_REPLY: u8 = 22;
const T_INSPECT_REPLY: u8 = 23;
const T_EVENTS_REPLY: u8 = 24;
const T_SUB_ACK: u8 = 25;
const T_DELTA: u8 = 26;
const T_SUB_DONE: u8 = 27;
const T_APPEND_ACK: u8 = 28;

/// Per-query submission options carried on the wire: the fields of
/// [`rqp_server::QueryOptions`], plus the wire's own first credit window.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQueryOptions {
    /// Admission priority override (0 = highest); `None` uses the session's.
    pub priority: Option<u8>,
    /// Deadline in cost units on the query's virtual clock.
    pub deadline: Option<f64>,
    /// Workspace reservation ask in rows.
    pub reservation: Option<f64>,
    /// Virtual arrival time for the deterministic schedule replay.
    pub arrival: f64,
    /// Processor-sharing weight in the schedule replay.
    pub weight: f64,
    /// Result pages the client is ready to receive without a FETCH: the
    /// server deposits them in the query's credit ledger once SUBMIT_ACK is
    /// written, exactly as a FETCH arriving right behind the SUBMIT would.
    /// Only a client that drains this query before it reads anything else
    /// may grant here — pages arrive unsolicited from then on.
    pub credits: u32,
}

/// The credit grant that covers the rest of a query's result: the server's
/// ledger saturates at `u32::MAX`, and no materialized result has that many
/// pages. It carries no special meaning on the wire — the pager still
/// encodes one page per credit it holds — and TCP's own flow control bounds
/// what such a window puts in flight.
pub const REST_OF_RESULT: u32 = u32::MAX;

impl Default for WireQueryOptions {
    fn default() -> Self {
        WireQueryOptions {
            priority: None,
            deadline: None,
            reservation: None,
            arrival: 0.0,
            weight: 1.0,
            credits: 0,
        }
    }
}

impl From<WireQueryOptions> for rqp_server::QueryOptions {
    fn from(w: WireQueryOptions) -> Self {
        rqp_server::QueryOptions {
            priority: w.priority,
            deadline: w.deadline,
            reservation: w.reservation,
            arrival: w.arrival,
            weight: w.weight,
        }
    }
}

/// Subscription registration options carried on the wire; mirrors
/// [`rqp_server::SubscribeOptions`] field for field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireSubscribeOptions {
    /// Admission-priority override for polls (0 = highest).
    pub priority: Option<u8>,
    /// Workspace reservation ask in rows.
    pub reservation: Option<f64>,
    /// Propagation-cost deadline on the subscription's clock.
    pub deadline: Option<f64>,
}

impl From<WireSubscribeOptions> for rqp_server::SubscribeOptions {
    fn from(w: WireSubscribeOptions) -> Self {
        rqp_server::SubscribeOptions {
            priority: w.priority,
            reservation: w.reservation,
            deadline: w.deadline,
        }
    }
}

/// A remote failure as reported by the server: the stable wire code of the
/// underlying [`RqpError`](rqp_common::RqpError) plus its display message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteFailure {
    /// Stable numeric code ([`RqpError::wire_code`](rqp_common::RqpError::wire_code)).
    pub code: u16,
    /// Human-readable message (display form of the server-side error).
    pub message: String,
}

impl RemoteFailure {
    /// The variant name behind [`code`](Self::code), if the code is known.
    pub fn name(&self) -> Option<&'static str> {
        rqp_common::RqpError::wire_code_name(self.code)
    }

    /// Whether the failure is a cooperative cancellation (explicit cancel or
    /// deadline abort) — classified *by code*, not by message text.
    pub fn is_cancellation(&self) -> bool {
        matches!(self.name(), Some("Cancelled") | Some("DeadlineExceeded"))
    }
}

impl std::fmt::Display for RemoteFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "remote error {} ({}): {}",
            self.code,
            self.name().unwrap_or("unknown"),
            self.message
        )
    }
}

/// Client → server messages.
///
/// `Submit` dominates the enum size through its inline `QuerySpec`, but
/// messages are decoded one at a time per connection and matched on
/// immediately — never collected — so the indirection a `Box` would buy
/// has nothing to amortize.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// Open a session with the given default admission priority.
    Hello {
        /// Session priority (0 = highest).
        priority: u8,
    },
    /// Submit a query for concurrent execution.
    Submit {
        /// The query.
        spec: QuerySpec,
        /// Submission options.
        opts: WireQueryOptions,
    },
    /// Grant `credits` more result pages for `query`.
    Fetch {
        /// Target query id (from `SubmitAck`).
        query: u64,
        /// Number of additional pages the client is ready to receive.
        credits: u32,
    },
    /// Cooperatively cancel `query`.
    Cancel {
        /// Target query id.
        query: u64,
    },
    /// Close the session cleanly.
    Goodbye,
    /// Read-only gauge snapshot (service metrics + in-flight queries).
    /// Answered inline, bypassing admission; no HELLO required.
    Stats,
    /// Live `EXPLAIN ANALYZE` of an in-flight query's span tree so far.
    /// Answered inline, bypassing admission; no HELLO required.
    Inspect {
        /// Target query id.
        query: u64,
    },
    /// Tail the flight recorder from a sequence-number cursor. Answered
    /// inline, bypassing admission; no HELLO required.
    Events {
        /// Resume cursor (0 = oldest retained event).
        cursor: u64,
        /// Maximum events in one reply (bounds the frame size; poll again
        /// from the returned cursor for more).
        max: u32,
    },
    /// Register a standing subscription (requires HELLO; owned by the
    /// session, torn down with it).
    Subscribe {
        /// The query to maintain incrementally. `ORDER BY`/`LIMIT` specs
        /// are rejected — standing views are unordered.
        spec: QuerySpec,
        /// Registration options.
        opts: WireSubscribeOptions,
    },
    /// Tear down a subscription this session owns.
    Unsubscribe {
        /// Subscription id (from `SubAck`).
        sub: u64,
    },
    /// Advance a subscription: fold pending changelog records through its
    /// circuit and stream the resulting delta. Deltas flow only in answer
    /// to POLL — the same client-driven discipline as FETCH credits — so a
    /// stalled subscriber has at most one encoded delta page outstanding.
    Poll {
        /// Subscription id.
        sub: u64,
        /// Changelog-record budget for this poll (0 = drain everything);
        /// leftover records are reported as `lag` in `SubDone`.
        max_records: u32,
    },
    /// Append rows to a base table (requires HELLO), feeding every
    /// standing subscription through the service changelog.
    Append {
        /// Target table name.
        table: String,
        /// Rows to append; arity-checked server-side.
        rows: Vec<Row>,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Session opened.
    HelloAck {
        /// Server-assigned session id.
        session: u64,
    },
    /// Query accepted and submitted.
    SubmitAck {
        /// Service-wide query id.
        query: u64,
    },
    /// One page of result rows (consumes one credit).
    Page {
        /// Owning query id.
        query: u64,
        /// Result rows in this page.
        rows: Vec<Row>,
    },
    /// Query finished; all pages delivered.
    Done {
        /// Owning query id.
        query: u64,
        /// Total rows delivered across all pages.
        total_rows: u64,
        /// Cost charged to the query's virtual clock.
        cost: f64,
        /// Whether the plan came from the plan cache.
        plan_cached: bool,
    },
    /// Query (or, with `query == 0`, the connection) failed.
    Error {
        /// Owning query id; 0 for connection-level protocol errors.
        query: u64,
        /// The failure, by stable code.
        failure: RemoteFailure,
    },
    /// Clean session shutdown acknowledged.
    GoodbyeAck,
    /// Gauge snapshot: the service metrics registry plus every in-flight
    /// query's live state.
    StatsReply {
        /// Service metrics, in registration order.
        metrics: MetricsSnapshot,
        /// In-flight queries, ordered by query id.
        live: Vec<LiveQueryStats>,
    },
    /// Live `EXPLAIN ANALYZE` of one query.
    InspectReply {
        /// The inspected query id.
        query: u64,
        /// Whether the id was known (in flight, or already in the service
        /// trace forest). When false the remaining fields are defaults.
        found: bool,
        /// Current phase ([`QueryPhase::as_u8`](rqp_server::QueryPhase::as_u8)
        /// encoding); meaningful only for in-flight queries.
        phase: u8,
        /// Rendered span tree so far (`TraceTree::render` output,
        /// truncated server-side to fit one frame).
        rendered: String,
    },
    /// A flight-recorder tail.
    EventsReply {
        /// Events with `seq >= cursor`, oldest first.
        events: Vec<RecordedEvent>,
        /// Cursor to resume the tail from.
        next_cursor: u64,
        /// Requested-but-overwritten events between the cursor and the
        /// first returned event (reader fell behind the ring).
        gap: u64,
    },
    /// Subscription registered.
    SubAck {
        /// Service-wide subscription id.
        sub: u64,
    },
    /// One page of a subscription's delta. A single POLL may be answered
    /// by several DELTA frames (each bounded by the page-row/frame-size
    /// limits), terminated by `SubDone`; the inserted/retracted splits of
    /// the frames in one poll concatenate into the full delta packet.
    Delta {
        /// Owning subscription id.
        sub: u64,
        /// One past the last changelog epoch folded into the view.
        epoch: u64,
        /// Rows the subscriber must add to its copy of the view.
        inserted: Vec<Row>,
        /// Rows the subscriber must remove from its copy of the view.
        retracted: Vec<Row>,
    },
    /// A poll (or unsubscribe) finished.
    SubDone {
        /// Owning subscription id.
        sub: u64,
        /// Changelog records still unfolded (0 after an unbounded poll).
        lag: u64,
    },
    /// Rows appended and published to the changelog.
    AppendAck {
        /// Changelog length after the append (one past the last record).
        epoch: u64,
    },
}

// The frames that carry a whole `QuerySpec` or a slice of result rows have
// borrowing encoders, so a sender holding `&QuerySpec` or `&[Row]` builds
// the frame without first cloning into an owned message. `encode` on the
// owned messages calls the same functions: one codec per frame.

fn put_opt_priority(w: &mut Writer, priority: Option<u8>) {
    match priority {
        Some(p) => {
            w.u8(1);
            w.u8(p);
        }
        None => w.u8(0),
    }
}

/// Encode a SUBMIT frame body from borrowed parts.
pub fn encode_submit(spec: &QuerySpec, opts: &WireQueryOptions) -> Result<(u8, Vec<u8>)> {
    let mut w = Writer::new();
    wire::put_query_spec(&mut w, spec)?;
    put_opt_priority(&mut w, opts.priority);
    w.opt_f64(opts.deadline);
    w.opt_f64(opts.reservation);
    w.f64(opts.arrival);
    w.f64(opts.weight);
    w.u32(opts.credits);
    Ok((T_SUBMIT, w.into_bytes()))
}

/// Encode a SUBSCRIBE frame body from borrowed parts.
pub fn encode_subscribe(spec: &QuerySpec, opts: &WireSubscribeOptions) -> Result<(u8, Vec<u8>)> {
    let mut w = Writer::new();
    wire::put_query_spec(&mut w, spec)?;
    put_opt_priority(&mut w, opts.priority);
    w.opt_f64(opts.reservation);
    w.opt_f64(opts.deadline);
    Ok((T_SUBSCRIBE, w.into_bytes()))
}

/// Encode a PAGE frame body from a borrowed slice of result rows.
pub fn encode_page(query: u64, rows: &[Row]) -> Result<(u8, Vec<u8>)> {
    let mut w = Writer::new();
    w.u64(query);
    wire::put_rows(&mut w, rows)?;
    Ok((T_PAGE, w.into_bytes()))
}

/// Encode a DELTA frame body from borrowed slices of a delta packet.
pub fn encode_delta(
    sub: u64,
    epoch: u64,
    inserted: &[Row],
    retracted: &[Row],
) -> Result<(u8, Vec<u8>)> {
    let mut w = Writer::new();
    w.u64(sub);
    w.u64(epoch);
    wire::put_rows(&mut w, inserted)?;
    wire::put_rows(&mut w, retracted)?;
    Ok((T_DELTA, w.into_bytes()))
}

impl ClientMsg {
    /// Encode into a frame body (type tag + payload).
    pub fn encode(&self) -> Result<(u8, Vec<u8>)> {
        let mut w = Writer::new();
        let tag = match self {
            ClientMsg::Hello { priority } => {
                w.u8(*priority);
                T_HELLO
            }
            ClientMsg::Submit { spec, opts } => return encode_submit(spec, opts),
            ClientMsg::Fetch { query, credits } => {
                w.u64(*query);
                w.u32(*credits);
                T_FETCH
            }
            ClientMsg::Cancel { query } => {
                w.u64(*query);
                T_CANCEL
            }
            ClientMsg::Goodbye => T_GOODBYE,
            ClientMsg::Stats => T_STATS,
            ClientMsg::Inspect { query } => {
                w.u64(*query);
                T_INSPECT
            }
            ClientMsg::Events { cursor, max } => {
                w.u64(*cursor);
                w.u32(*max);
                T_EVENTS
            }
            ClientMsg::Subscribe { spec, opts } => return encode_subscribe(spec, opts),
            ClientMsg::Unsubscribe { sub } => {
                w.u64(*sub);
                T_UNSUBSCRIBE
            }
            ClientMsg::Poll { sub, max_records } => {
                w.u64(*sub);
                w.u32(*max_records);
                T_POLL
            }
            ClientMsg::Append { table, rows } => {
                w.str(table)?;
                wire::put_rows(&mut w, rows)?;
                T_APPEND
            }
        };
        Ok((tag, w.into_bytes()))
    }

    /// Decode from a received frame.
    pub fn decode(frame: &Frame) -> Result<ClientMsg> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.msg_type {
            T_HELLO => ClientMsg::Hello { priority: r.u8()? },
            T_SUBMIT => {
                let spec = wire::get_query_spec(&mut r)?;
                let priority = if r.bool()? { Some(r.u8()?) } else { None };
                let deadline = r.opt_f64()?;
                let reservation = r.opt_f64()?;
                let arrival = r.f64()?;
                let weight = r.f64()?;
                let credits = r.u32()?;
                ClientMsg::Submit {
                    spec,
                    opts: WireQueryOptions {
                        priority,
                        deadline,
                        reservation,
                        arrival,
                        weight,
                        credits,
                    },
                }
            }
            T_FETCH => ClientMsg::Fetch { query: r.u64()?, credits: r.u32()? },
            T_CANCEL => ClientMsg::Cancel { query: r.u64()? },
            T_GOODBYE => ClientMsg::Goodbye,
            T_STATS => ClientMsg::Stats,
            T_INSPECT => ClientMsg::Inspect { query: r.u64()? },
            T_EVENTS => ClientMsg::Events { cursor: r.u64()?, max: r.u32()? },
            T_SUBSCRIBE => {
                let spec = wire::get_query_spec(&mut r)?;
                let priority = if r.bool()? { Some(r.u8()?) } else { None };
                let reservation = r.opt_f64()?;
                let deadline = r.opt_f64()?;
                ClientMsg::Subscribe {
                    spec,
                    opts: WireSubscribeOptions { priority, reservation, deadline },
                }
            }
            T_UNSUBSCRIBE => ClientMsg::Unsubscribe { sub: r.u64()? },
            T_POLL => ClientMsg::Poll { sub: r.u64()?, max_records: r.u32()? },
            T_APPEND => ClientMsg::Append { table: r.str()?, rows: wire::get_rows(&mut r)? },
            t => return Err(FrameError::Malformed(format!("unknown client message type {t}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Encode into a frame body (type tag + payload).
    pub fn encode(&self) -> Result<(u8, Vec<u8>)> {
        let mut w = Writer::new();
        let tag = match self {
            ServerMsg::HelloAck { session } => {
                w.u64(*session);
                T_HELLO_ACK
            }
            ServerMsg::SubmitAck { query } => {
                w.u64(*query);
                T_SUBMIT_ACK
            }
            ServerMsg::Page { query, rows } => return encode_page(*query, rows),
            ServerMsg::Done { query, total_rows, cost, plan_cached } => {
                w.u64(*query);
                w.u64(*total_rows);
                w.f64(*cost);
                w.bool(*plan_cached);
                T_DONE
            }
            ServerMsg::Error { query, failure } => {
                w.u64(*query);
                w.u16(failure.code);
                w.str(&failure.message)?;
                T_ERROR
            }
            ServerMsg::GoodbyeAck => T_GOODBYE_ACK,
            ServerMsg::StatsReply { metrics, live } => {
                wire::put_metrics(&mut w, metrics)?;
                wire::put_live_queries(&mut w, live)?;
                T_STATS_REPLY
            }
            ServerMsg::InspectReply { query, found, phase, rendered } => {
                w.u64(*query);
                w.bool(*found);
                w.u8(*phase);
                w.str(rendered)?;
                T_INSPECT_REPLY
            }
            ServerMsg::EventsReply { events, next_cursor, gap } => {
                wire::put_events(&mut w, events)?;
                w.u64(*next_cursor);
                w.u64(*gap);
                T_EVENTS_REPLY
            }
            ServerMsg::SubAck { sub } => {
                w.u64(*sub);
                T_SUB_ACK
            }
            ServerMsg::Delta { sub, epoch, inserted, retracted } => {
                return encode_delta(*sub, *epoch, inserted, retracted)
            }
            ServerMsg::SubDone { sub, lag } => {
                w.u64(*sub);
                w.u64(*lag);
                T_SUB_DONE
            }
            ServerMsg::AppendAck { epoch } => {
                w.u64(*epoch);
                T_APPEND_ACK
            }
        };
        Ok((tag, w.into_bytes()))
    }

    /// Decode from a received frame.
    pub fn decode(frame: &Frame) -> Result<ServerMsg> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.msg_type {
            T_HELLO_ACK => ServerMsg::HelloAck { session: r.u64()? },
            T_SUBMIT_ACK => ServerMsg::SubmitAck { query: r.u64()? },
            T_PAGE => ServerMsg::Page { query: r.u64()?, rows: wire::get_rows(&mut r)? },
            T_DONE => ServerMsg::Done {
                query: r.u64()?,
                total_rows: r.u64()?,
                cost: r.f64()?,
                plan_cached: r.bool()?,
            },
            T_ERROR => ServerMsg::Error {
                query: r.u64()?,
                failure: RemoteFailure { code: r.u16()?, message: r.str()? },
            },
            T_GOODBYE_ACK => ServerMsg::GoodbyeAck,
            T_STATS_REPLY => ServerMsg::StatsReply {
                metrics: wire::get_metrics(&mut r)?,
                live: wire::get_live_queries(&mut r)?,
            },
            T_INSPECT_REPLY => ServerMsg::InspectReply {
                query: r.u64()?,
                found: r.bool()?,
                phase: r.u8()?,
                rendered: r.str()?,
            },
            T_EVENTS_REPLY => ServerMsg::EventsReply {
                events: wire::get_events(&mut r)?,
                next_cursor: r.u64()?,
                gap: r.u64()?,
            },
            T_SUB_ACK => ServerMsg::SubAck { sub: r.u64()? },
            T_DELTA => ServerMsg::Delta {
                sub: r.u64()?,
                epoch: r.u64()?,
                inserted: wire::get_rows(&mut r)?,
                retracted: wire::get_rows(&mut r)?,
            },
            T_SUB_DONE => ServerMsg::SubDone { sub: r.u64()?, lag: r.u64()? },
            T_APPEND_ACK => ServerMsg::AppendAck { epoch: r.u64()? },
            t => return Err(FrameError::Malformed(format!("unknown server message type {t}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::RqpError;

    fn frame(tag: u8, payload: Vec<u8>) -> Frame {
        Frame { msg_type: tag, payload }
    }

    #[test]
    fn client_messages_round_trip() {
        let spec = QuerySpec::new()
            .table("t")
            .filter("t", col("t.a").gt(lit(3i64)))
            .limit(5);
        let msgs = [
            ClientMsg::Hello { priority: 2 },
            ClientMsg::Submit {
                spec,
                opts: WireQueryOptions {
                    priority: Some(1),
                    deadline: Some(123.5),
                    reservation: None,
                    arrival: 7.0,
                    weight: 2.0,
                    credits: 4,
                },
            },
            ClientMsg::Fetch { query: 9, credits: 4 },
            ClientMsg::Cancel { query: 9 },
            ClientMsg::Goodbye,
            ClientMsg::Stats,
            ClientMsg::Inspect { query: 12 },
            ClientMsg::Events { cursor: 1000, max: 256 },
            ClientMsg::Subscribe {
                spec: QuerySpec::new().table("t").filter("t", col("t.a").gt(lit(3i64))),
                opts: WireSubscribeOptions {
                    priority: Some(2),
                    reservation: Some(64.0),
                    deadline: None,
                },
            },
            ClientMsg::Unsubscribe { sub: 17 },
            ClientMsg::Poll { sub: 17, max_records: 128 },
            ClientMsg::Append {
                table: "t".into(),
                rows: vec![vec![rqp_common::Value::Int(5), rqp_common::Value::Null]],
            },
        ];
        for m in msgs {
            let (tag, payload) = m.encode().unwrap();
            let back = ClientMsg::decode(&frame(tag, payload)).unwrap();
            match (&m, &back) {
                // QuerySpec has no PartialEq; compare by cache key.
                (ClientMsg::Submit { spec: a, opts: oa }, ClientMsg::Submit { spec: b, opts: ob }) => {
                    assert_eq!(a.cache_key(), b.cache_key());
                    assert_eq!(oa, ob);
                }
                (ClientMsg::Hello { priority: a }, ClientMsg::Hello { priority: b }) => {
                    assert_eq!(a, b)
                }
                (
                    ClientMsg::Fetch { query: a, credits: ca },
                    ClientMsg::Fetch { query: b, credits: cb },
                ) => assert_eq!((a, ca), (b, cb)),
                (ClientMsg::Cancel { query: a }, ClientMsg::Cancel { query: b }) => {
                    assert_eq!(a, b)
                }
                (ClientMsg::Goodbye, ClientMsg::Goodbye) => {}
                (ClientMsg::Stats, ClientMsg::Stats) => {}
                (ClientMsg::Inspect { query: a }, ClientMsg::Inspect { query: b }) => {
                    assert_eq!(a, b)
                }
                (
                    ClientMsg::Events { cursor: a, max: ma },
                    ClientMsg::Events { cursor: b, max: mb },
                ) => assert_eq!((a, ma), (b, mb)),
                (
                    ClientMsg::Subscribe { spec: a, opts: oa },
                    ClientMsg::Subscribe { spec: b, opts: ob },
                ) => {
                    assert_eq!(a.cache_key(), b.cache_key());
                    assert_eq!(oa, ob);
                }
                (ClientMsg::Unsubscribe { sub: a }, ClientMsg::Unsubscribe { sub: b }) => {
                    assert_eq!(a, b)
                }
                (
                    ClientMsg::Poll { sub: a, max_records: ma },
                    ClientMsg::Poll { sub: b, max_records: mb },
                ) => assert_eq!((a, ma), (b, mb)),
                (
                    ClientMsg::Append { table: a, rows: ra },
                    ClientMsg::Append { table: b, rows: rb },
                ) => assert_eq!((a, ra), (b, rb)),
                (sent, got) => panic!("variant changed in round trip: {sent:?} -> {got:?}"),
            }
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let failure = RemoteFailure {
            code: RqpError::DeadlineExceeded.wire_code(),
            message: RqpError::DeadlineExceeded.to_string(),
        };
        let msgs = [
            ServerMsg::HelloAck { session: 3 },
            ServerMsg::SubmitAck { query: 11 },
            ServerMsg::Page {
                query: 11,
                rows: vec![vec![rqp_common::Value::Int(1), rqp_common::Value::Null]],
            },
            ServerMsg::Done { query: 11, total_rows: 1, cost: 42.0, plan_cached: true },
            ServerMsg::Error { query: 11, failure: failure.clone() },
            ServerMsg::GoodbyeAck,
            ServerMsg::StatsReply {
                metrics: vec![
                    ("wire.connections".into(), rqp_telemetry::MetricValue::Counter(2)),
                    ("server.live.reserved".into(), rqp_telemetry::MetricValue::Gauge(0.5)),
                ],
                live: vec![LiveQueryStats {
                    query: 11,
                    session: 3,
                    priority: 1,
                    phase: rqp_server::QueryPhase::Running,
                    ticks: 9.0,
                    granted: 100.0,
                    share: 500.0,
                    deadline_remaining: None,
                }],
            },
            ServerMsg::InspectReply {
                query: 11,
                found: true,
                phase: rqp_server::QueryPhase::Running.as_u8(),
                rendered: "query q11 s3\n  table_scan 42 rows\n".into(),
            },
            ServerMsg::EventsReply {
                events: vec![RecordedEvent {
                    seq: 5,
                    at: 0.25,
                    query: 11,
                    kind: "admission.admit".into(),
                    detail: "running 1 of mpl 4".into(),
                }],
                next_cursor: 6,
                gap: 2,
            },
            ServerMsg::SubAck { sub: 17 },
            ServerMsg::Delta {
                sub: 17,
                epoch: 42,
                inserted: vec![vec![rqp_common::Value::Int(7)]],
                retracted: vec![vec![rqp_common::Value::Int(3)], vec![rqp_common::Value::Null]],
            },
            ServerMsg::SubDone { sub: 17, lag: 5 },
            ServerMsg::AppendAck { epoch: 43 },
        ];
        for m in msgs {
            let (tag, payload) = m.encode().unwrap();
            assert_eq!(ServerMsg::decode(&frame(tag, payload)).unwrap(), m);
        }
        assert!(failure.is_cancellation());
        assert_eq!(failure.name(), Some("DeadlineExceeded"));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_malformed() {
        assert!(ClientMsg::decode(&frame(250, Vec::new())).is_err());
        assert!(ServerMsg::decode(&frame(250, Vec::new())).is_err());
        let (tag, mut payload) = ClientMsg::Cancel { query: 1 }.encode().unwrap();
        payload.push(0);
        assert!(ClientMsg::decode(&frame(tag, payload)).is_err(), "trailing byte accepted");
        let (tag, mut payload) = ClientMsg::Poll { sub: 1, max_records: 0 }.encode().unwrap();
        payload.push(0);
        assert!(ClientMsg::decode(&frame(tag, payload)).is_err(), "trailing byte accepted");
        let (tag, mut payload) = ServerMsg::SubDone { sub: 1, lag: 0 }.encode().unwrap();
        payload.push(0);
        assert!(ServerMsg::decode(&frame(tag, payload)).is_err(), "trailing byte accepted");
    }

    /// SUBMIT is the one frame whose layout version 2 changed: the credit
    /// window sits behind the options, so the borrowing encoder and the
    /// owned message agree on it, a payload that stops where version 1's
    /// stopped is a typed error, and so is every other way to damage it.
    #[test]
    fn submit_carries_its_credit_window_and_damaged_submits_are_typed() {
        let spec = QuerySpec::new().table("t").filter("t", col("t.a").gt(lit(3i64))).limit(5);
        let opts = WireQueryOptions { credits: 0x0102_0304, ..Default::default() };
        let (tag, payload) = encode_submit(&spec, &opts).unwrap();
        let owned = ClientMsg::Submit { spec: spec.clone(), opts: opts.clone() };
        assert_eq!(owned.encode().unwrap(), (tag, payload.clone()), "one codec per frame");
        assert_eq!(payload[payload.len() - 4..], [1, 2, 3, 4], "credits close the payload");
        match ClientMsg::decode(&frame(tag, payload.clone())).unwrap() {
            ClientMsg::Submit { spec: back, opts: got } => {
                assert_eq!(back.cache_key(), spec.cache_key());
                assert_eq!(got, opts);
            }
            other => panic!("SUBMIT decoded to {other:?}"),
        }
        let defaults = encode_submit(&spec, &WireQueryOptions::default()).unwrap().1;
        assert_eq!(defaults[defaults.len() - 4..], [0; 4], "no window unless asked for");

        // Version 1's SUBMIT ended at `weight`; every other cut is typed too.
        let v1_shaped = payload[..payload.len() - 4].to_vec();
        let err = ClientMsg::decode(&frame(tag, v1_shaped)).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err:?}");
        for cut in 0..payload.len() {
            assert!(
                ClientMsg::decode(&frame(tag, payload[..cut].to_vec())).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Bit flips decode to something or to a typed error, never a panic;
        // flips inside the window change the window and nothing else.
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let decoded = ClientMsg::decode(&frame(tag, flipped));
            if bit / 8 >= payload.len() - 4 {
                let Ok(ClientMsg::Submit { opts: got, .. }) = decoded else {
                    panic!("a flipped credit bit must still decode: {decoded:?}")
                };
                assert_ne!(got.credits, opts.credits);
                assert_eq!(WireQueryOptions { credits: opts.credits, ..got }, opts);
            }
        }
        // Random bytes behind a valid spec and behind nothing at all.
        let mut spec_only = Writer::new();
        wire::put_query_spec(&mut spec_only, &spec).unwrap();
        let spec_only = spec_only.into_bytes();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for trial in 0..512 {
            let mut bytes = if trial % 2 == 0 { spec_only.clone() } else { Vec::new() };
            for _ in 0..(trial % 48) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                bytes.push((state >> 56) as u8);
            }
            let _ = ClientMsg::decode(&frame(tag, bytes));
        }
    }

    #[test]
    fn remote_failure_classification_is_code_based() {
        let cancelled = RemoteFailure { code: RqpError::Cancelled.wire_code(), message: "x".into() };
        assert!(cancelled.is_cancellation());
        let exec = RemoteFailure {
            code: RqpError::Execution("deadline mentioned in text".into()).wire_code(),
            message: "deadline exceeded".into(), // lying message text
        };
        // The code, not the message, decides.
        assert!(!exec.is_cancellation());
        let unknown = RemoteFailure { code: 65000, message: "?".into() };
        assert_eq!(unknown.name(), None);
        assert!(!unknown.is_cancellation());
    }
}
