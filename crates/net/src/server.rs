//! Thread-per-connection TCP front door for a [`QueryService`].
//!
//! Each accepted connection runs one reader thread speaking the `proto`
//! message set. SUBMIT spawns a per-query *pager* thread that joins the
//! query's [`QueryHandle`](rqp_server::QueryHandle) and then serves result
//! pages strictly against client-granted credits — the window SUBMIT
//! itself carried, then whatever FETCH adds: the pager encodes **one
//! page at a time, only while holding a credit**, so a client that stops
//! granting stalls only its own query — the already-materialized result
//! rows wait in their (already broker-released) buffer and at most one
//! encoded page exists per query at any instant. The broker's shared
//! memory ledger is never held hostage by a slow consumer: `run_query`
//! returns every grant before paging begins.
//!
//! Disconnects — clean (GOODBYE) or abrupt (EOF/reset mid-query) — shut
//! the socket down (failing any write blocked on a peer that stopped
//! reading), cancel every live query's token and join its pager, which in
//! turn means the query thread has fully unwound: MPL slot surrendered,
//! memory grants returned. The churn counters this maintains
//! (`wire.queries.disconnected` / `wire.queries.recovered`) are what the
//! A07 experiment's churn-recovery gauge is derived from.

use crate::frame::{read_frame, write_frame, FrameError, MAX_PAYLOAD};
use crate::proto::{self, ClientMsg, RemoteFailure, ServerMsg};
use rqp_common::{CancelToken, CostClock, Row, RqpError};
use rqp_server::{QueryPhase, QueryService, Session};
use rqp_telemetry::{Counter, SpanSnapshot, TraceTree};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Rows per result page.
pub const PAGE_ROWS: usize = 256;

/// Credit ledger shared between a query's pager thread and the connection
/// reader (which deposits SUBMIT's window and every FETCH grant, and kills
/// the ledger on teardown).
#[derive(Debug, Default)]
struct Credits {
    state: Mutex<(u32, bool)>, // (credits, dead)
    cv: Condvar,
}

impl Credits {
    fn grant(&self, n: u32) {
        let mut st = self.state.lock().expect("credits lock");
        st.0 = st.0.saturating_add(n);
        self.cv.notify_all();
    }

    fn kill(&self) {
        self.state.lock().expect("credits lock").1 = true;
        self.cv.notify_all();
    }

    /// Whether an `acquire_one` right now would block (no credit, not
    /// dead). Advisory — the answer can be stale by the time it is used;
    /// the pager only uses it to publish `pager.stall` events.
    fn would_block(&self) -> bool {
        let st = self.state.lock().expect("credits lock");
        st.0 == 0 && !st.1
    }

    /// Block until one credit is available (consuming it) or the ledger is
    /// killed. Returns false on kill.
    fn acquire_one(&self) -> bool {
        let mut st = self.state.lock().expect("credits lock");
        loop {
            if st.1 {
                return false;
            }
            if st.0 > 0 {
                st.0 -= 1;
                return true;
            }
            st = self.cv.wait(st).expect("credits lock");
        }
    }
}

/// One in-flight query on a connection.
struct LiveQuery {
    token: CancelToken,
    credits: Arc<Credits>,
    finished: Arc<AtomicBool>,
    pager: std::thread::JoinHandle<()>,
}

struct ServerShared {
    svc: Arc<QueryService>,
    shutdown: AtomicBool,
    clock: rqp_common::SharedClock,
    next_conn: AtomicU64,
}

/// Cumulative wire-level statistics, all monotone counters except the peak.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections fully torn down.
    pub closed: u64,
    /// Queries still live when their connection died (mid-query churn).
    pub disconnected_queries: u64,
    /// Of those, queries whose pager (and thus query thread) was fully
    /// reaped — slot surrendered, grants returned.
    pub recovered_queries: u64,
    /// Peak number of encoded-but-unsent result pages held for any single
    /// query. 1 by construction of the credit loop; the A07 gauge asserts
    /// this stays bounded.
    pub peak_buffered_pages: u64,
    /// Protocol violations observed from peers.
    pub protocol_errors: u64,
}

/// A live connection: a handle to its socket, to close it from outside,
/// beside its thread.
type Conn = (Option<TcpStream>, std::thread::JoinHandle<()>);

/// A running TCP wire server. Dropping it (or calling
/// [`shutdown`](WireServer::shutdown)) stops the accept loop, closes every
/// connection's socket and joins its thread.
pub struct WireServer {
    shared: Arc<ServerShared>,
    local: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
    stats: Arc<Mutex<WireStats>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer").field("addr", &self.local).finish()
    }
}

impl WireServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections against `svc`.
    pub fn start(svc: Arc<QueryService>, addr: &str) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            svc,
            shutdown: AtomicBool::new(false),
            clock: CostClock::default_clock(),
            next_conn: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(Mutex::new(WireStats::default()));
        let accept = {
            let (shared, conns, stats) = (Arc::clone(&shared), Arc::clone(&conns), Arc::clone(&stats));
            std::thread::Builder::new()
                .name("rqp-net-accept".into())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match incoming {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
                        stats.lock().expect("stats lock").connections += 1;
                        shared.svc.metrics().counter("wire.connections").inc();
                        let (shared, stats) = (Arc::clone(&shared), Arc::clone(&stats));
                        let socket = stream.try_clone().ok();
                        let handle = std::thread::Builder::new()
                            .name(format!("rqp-net-conn-{conn_id}"))
                            .spawn(move || serve_connection(shared, stats, stream, conn_id))
                            .expect("spawn connection thread");
                        // Reap connections that have already ended before
                        // tracking the new one, so a long-lived server does
                        // not accumulate a handle per connection ever served.
                        let mut guard = conns.lock().expect("conns lock");
                        let mut i = 0;
                        while i < guard.len() {
                            if guard[i].1.is_finished() {
                                let _ = guard.swap_remove(i).1.join();
                            } else {
                                i += 1;
                            }
                        }
                        guard.push((socket, handle));
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(WireServer { shared, local, accept: Some(accept), conns, stats })
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.local.port()
    }

    /// A snapshot of the wire-level statistics.
    pub fn stats(&self) -> WireStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Stop accepting, then join the accept loop, and close every live
    /// connection's socket before joining its thread: an idle peer that
    /// never says GOODBYE, or a pager blocked writing to a peer that stopped
    /// reading, cannot hold shutdown up. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection to the
        // address actually bound — a wildcard bind (0.0.0.0/[::]) is not
        // connectable as-is, so map it to the matching loopback.
        let mut target = self.local;
        if target.ip().is_unspecified() {
            target.set_ip(match target.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(target);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns: Vec<Conn> = self.conns.lock().expect("conns lock").drain(..).collect();
        for socket in conns.iter().filter_map(|c| c.0.as_ref()) {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for (_, h) in conns {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A connection's write half: the socket behind the lock the reader thread
/// and every pager of the connection share, and the service's
/// `wire.frames.out` counter, resolved once per connection.
struct FrameSink {
    stream: Mutex<TcpStream>,
    frames_out: Counter,
}

impl FrameSink {
    /// Write one encoded frame. The frame is counted as it is handed to the
    /// socket, so a peer that has read it already sees it counted.
    fn write(&self, (tag, payload): (u8, Vec<u8>)) -> Result<(), FrameError> {
        let mut w = self.stream.lock().expect("writer lock");
        self.frames_out.inc();
        write_frame(&mut *w, tag, &payload)
    }
}

/// Best-effort framed send under the shared writer lock.
fn send(writer: &FrameSink, msg: &ServerMsg) -> Result<(), FrameError> {
    writer.write(msg.encode()?)
}

fn failure_of(e: &RqpError) -> RemoteFailure {
    // Bound the message so an ERROR frame itself can always encode
    // (Writer::str rejects oversized strings); codes carry the semantics,
    // the text is advisory.
    let mut message = e.to_string();
    if message.len() > 4096 {
        let cut = (0..=4096).rev().find(|&i| message.is_char_boundary(i)).unwrap_or(0);
        message.truncate(cut);
        message.push('…');
    }
    RemoteFailure { code: e.wire_code(), message }
}

/// Drop (and join the pagers of) queries whose pager has finished. Called
/// opportunistically from the connection loop so a long-lived connection
/// does not accumulate a dead pager handle and credit ledger per query it
/// has ever run.
fn reap_finished(live: &mut HashMap<u64, LiveQuery>) {
    let done: Vec<u64> = live
        .iter()
        .filter(|(_, q)| q.finished.load(Ordering::SeqCst))
        .map(|(id, _)| *id)
        .collect();
    for id in done {
        if let Some(q) = live.remove(&id) {
            let _ = q.pager.join();
        }
    }
}

fn serve_connection(
    shared: Arc<ServerShared>,
    stats: Arc<Mutex<WireStats>>,
    stream: TcpStream,
    conn_id: u64,
) {
    let span = shared.svc.tracer().open("connection", &shared.clock);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    span.set_detail(&format!("conn {conn_id} peer {peer}"));

    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let frames_in = shared.svc.metrics().counter("wire.frames.in");
    let writer = Arc::new(FrameSink {
        stream: Mutex::new(stream),
        frames_out: shared.svc.metrics().counter("wire.frames.out"),
    });

    // The session opens on HELLO; everything before that is a protocol error.
    let mut session: Option<Session> = None;
    let mut live: HashMap<u64, LiveQuery> = HashMap::new();
    let mut clean_exit = false;

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => {
                frames_in.inc();
                f
            }
            Ok(None) => break, // peer hung up
            Err(e) => {
                stats.lock().expect("stats lock").protocol_errors += 1;
                shared.svc.metrics().counter("wire.protocol_errors").inc();
                let _ = send(
                    &writer,
                    &ServerMsg::Error { query: 0, failure: failure_of(&e.into()) },
                );
                break;
            }
        };
        reap_finished(&mut live);
        let msg = match ClientMsg::decode(&frame) {
            Ok(m) => m,
            Err(e) => {
                stats.lock().expect("stats lock").protocol_errors += 1;
                shared.svc.metrics().counter("wire.protocol_errors").inc();
                let _ = send(
                    &writer,
                    &ServerMsg::Error { query: 0, failure: failure_of(&e.into()) },
                );
                break;
            }
        };
        match msg {
            ClientMsg::Hello { priority } => {
                if session.is_some() {
                    stats.lock().expect("stats lock").protocol_errors += 1;
                    shared.svc.metrics().counter("wire.protocol_errors").inc();
                    let e = RqpError::Protocol("duplicate HELLO".into());
                    let _ = send(&writer, &ServerMsg::Error { query: 0, failure: failure_of(&e) });
                    break;
                }
                let s = shared.svc.session(priority);
                let _ = send(&writer, &ServerMsg::HelloAck { session: s.id() });
                session = Some(s);
            }
            ClientMsg::Submit { spec, opts } => {
                let Some(s) = session.as_ref() else {
                    stats.lock().expect("stats lock").protocol_errors += 1;
                    shared.svc.metrics().counter("wire.protocol_errors").inc();
                    let e = RqpError::Protocol("SUBMIT before HELLO".into());
                    let _ = send(&writer, &ServerMsg::Error { query: 0, failure: failure_of(&e) });
                    break;
                };
                let session_id = s.id();
                let first_window = opts.credits;
                let handle = s.submit(spec, opts.into());
                let query = handle.query();
                let token = handle.token();
                let credits = Arc::new(Credits::default());
                let finished = Arc::new(AtomicBool::new(false));
                // The ack goes out before the pager exists: an empty
                // result's DONE needs no credit, so a pager already running
                // could put it on the wire ahead of the ack.
                let _ = send(&writer, &ServerMsg::SubmitAck { query });
                // SUBMIT's own credit window is deposited behind the ack for
                // the same reason: no PAGE may precede it either.
                credits.grant(first_window);
                let pager = {
                    let (shared, writer, credits, finished, stats) = (
                        Arc::clone(&shared),
                        Arc::clone(&writer),
                        Arc::clone(&credits),
                        Arc::clone(&finished),
                        Arc::clone(&stats),
                    );
                    std::thread::Builder::new()
                        .name(format!("rqp-net-pager-{query}"))
                        .spawn(move || {
                            page_results(&shared, &writer, query, session_id, handle, &credits, &stats);
                            finished.store(true, Ordering::SeqCst);
                        })
                        .expect("spawn pager thread")
                };
                live.insert(query, LiveQuery { token, credits, finished, pager });
            }
            ClientMsg::Fetch { query, credits } => {
                if let Some(q) = live.get(&query) {
                    q.credits.grant(credits);
                }
                // A grant for an unknown/finished query is a no-op, not an
                // error: a client legitimately re-grants before it has read
                // the DONE/ERROR frame already in flight, so FETCH races
                // completion by design — exactly like CANCEL below.
            }
            ClientMsg::Cancel { query } => {
                if let Some(q) = live.get(&query) {
                    q.token.cancel();
                }
                // Cancelling an unknown/finished query is a no-op, not an
                // error: cancellation races completion by design.
            }
            ClientMsg::Goodbye => {
                let _ = send(&writer, &ServerMsg::GoodbyeAck);
                clean_exit = true;
                break;
            }
            // The three introspection frames are answered inline on the
            // reader thread, bypass admission entirely, and need no HELLO:
            // an observer connection never competes with the workload it
            // is watching.
            ClientMsg::Stats => {
                shared.svc.refresh_live_gauges();
                let _ = send(
                    &writer,
                    &ServerMsg::StatsReply {
                        metrics: shared.svc.metrics().snapshot(),
                        live: shared.svc.stats().snapshot(),
                    },
                );
            }
            ClientMsg::Inspect { query } => {
                let _ = send(&writer, &inspect_reply(&shared, query));
            }
            ClientMsg::Events { cursor, max } => {
                // Cap the tail length so one reply always fits a frame;
                // clients resume from `next_cursor` for the rest.
                let tail =
                    shared.svc.stats().recorder().tail(cursor, (max as usize).min(4096));
                let _ = send(
                    &writer,
                    &ServerMsg::EventsReply {
                        events: tail.events,
                        next_cursor: tail.next_cursor,
                        gap: tail.gap,
                    },
                );
            }
            ClientMsg::Subscribe { spec, opts } => {
                let Some(s) = session.as_ref() else {
                    stats.lock().expect("stats lock").protocol_errors += 1;
                    shared.svc.metrics().counter("wire.protocol_errors").inc();
                    let e = RqpError::Protocol("SUBSCRIBE before HELLO".into());
                    let _ = send(&writer, &ServerMsg::Error { query: 0, failure: failure_of(&e) });
                    break;
                };
                // Registration (including the initial view load) runs inline
                // on the reader thread: it goes through the same admission
                // gate as a query, and the connection cannot meaningfully
                // proceed until it knows the subscription id anyway.
                match s.subscribe(&spec, opts.into()) {
                    Ok(sub) => {
                        let _ = send(&writer, &ServerMsg::SubAck { sub });
                    }
                    Err(e) => {
                        let _ =
                            send(&writer, &ServerMsg::Error { query: 0, failure: failure_of(&e) });
                    }
                }
            }
            ClientMsg::Unsubscribe { sub } => {
                match owned_subscription(&shared, &session, sub) {
                    Ok(()) => {
                        shared.svc.unsubscribe(sub);
                        let _ = send(&writer, &ServerMsg::SubDone { sub, lag: 0 });
                    }
                    Err(e) => {
                        let _ =
                            send(&writer, &ServerMsg::Error { query: sub, failure: failure_of(&e) });
                    }
                }
            }
            ClientMsg::Poll { sub, max_records } => {
                // Strictly client-driven delta delivery: the poll is answered
                // inline with zero or more DELTA frames and a terminal
                // SUB_DONE carrying the remaining changelog lag. A stalled
                // subscriber therefore pins nothing server-side between
                // polls — deltas live in its circuit until it asks.
                let res = owned_subscription(&shared, &session, sub)
                    .and_then(|()| shared.svc.poll_subscription(sub, max_records as usize));
                match res {
                    Ok((packet, lag)) => stream_delta(
                        &writer,
                        sub,
                        packet.epoch,
                        &packet.inserted,
                        &packet.retracted,
                        lag,
                    ),
                    Err(e) => {
                        let _ =
                            send(&writer, &ServerMsg::Error { query: sub, failure: failure_of(&e) });
                    }
                }
            }
            ClientMsg::Append { table, rows } => {
                if session.is_none() {
                    stats.lock().expect("stats lock").protocol_errors += 1;
                    shared.svc.metrics().counter("wire.protocol_errors").inc();
                    let e = RqpError::Protocol("APPEND before HELLO".into());
                    let _ = send(&writer, &ServerMsg::Error { query: 0, failure: failure_of(&e) });
                    break;
                }
                match shared.svc.append_rows(&table, rows) {
                    Ok(epoch) => {
                        let _ = send(&writer, &ServerMsg::AppendAck { epoch });
                    }
                    Err(e) => {
                        let _ =
                            send(&writer, &ServerMsg::Error { query: 0, failure: failure_of(&e) });
                    }
                }
            }
        }
    }

    // Teardown: every live query is cancelled and its pager joined. Joining
    // the pager means handle.join() returned — the query thread has unwound
    // through run_query, so its MPL slot and memory grants are released.
    // A pager blocked in a write to a peer that stopped reading never sees
    // its ledger killed, and it holds the writer lock: shutting the socket
    // down through the reader's handle fails that write, so every join
    // below returns.
    let _ = reader.shutdown(std::net::Shutdown::Both);
    let mut disconnected = 0u64;
    let mut recovered = 0u64;
    for (_, q) in live.drain() {
        let was_live = !q.finished.load(Ordering::SeqCst);
        if was_live && !clean_exit {
            disconnected += 1;
        }
        q.token.cancel();
        q.credits.kill();
        let joined = q.pager.join().is_ok();
        if was_live && !clean_exit && joined {
            recovered += 1;
        }
    }
    {
        let mut st = stats.lock().expect("stats lock");
        st.closed += 1;
        st.disconnected_queries += disconnected;
        st.recovered_queries += recovered;
    }
    // Standing subscriptions die with their connection — clean or abrupt.
    // unsubscribe_session releases every broker grant, so a disconnected
    // subscriber pins zero pages and reserves zero workspace afterwards.
    let torn_down = match session.as_ref() {
        Some(s) => shared.svc.unsubscribe_session(s.id()) as u64,
        None => 0,
    };
    let m = shared.svc.metrics();
    m.counter("wire.connections.closed").inc();
    m.counter("wire.queries.disconnected").add(disconnected);
    m.counter("wire.queries.recovered").add(recovered);
    m.counter("wire.subs.torn_down").add(torn_down);
    span.close(&shared.clock);
}

/// Whether `sub` exists and belongs to this connection's session. Polls
/// and unsubscribes legitimately race subscription teardown (deadline,
/// server shutdown), so an unknown id is a typed error on the frame,
/// never a connection break.
fn owned_subscription(
    shared: &ServerShared,
    session: &Option<Session>,
    sub: u64,
) -> rqp_common::Result<()> {
    let Some(s) = session.as_ref() else {
        return Err(RqpError::Protocol("subscription frame before HELLO".into()));
    };
    match shared.svc.subscriptions().get(sub) {
        Some(live) if live.session() == s.id() => Ok(()),
        Some(_) => {
            Err(RqpError::Invalid(format!("subscription {sub} belongs to another session")))
        }
        None => Err(RqpError::Invalid(format!("unknown subscription {sub}"))),
    }
}

/// Send one delta packet as chunked DELTA frames terminated by SUB_DONE.
/// Inserted rows fill each frame first, then retracted ones; the page size
/// adapts downward when wide rows push the encoded size past the frame
/// limit, mirroring `stream_rows`. An empty packet sends only the
/// SUB_DONE, so a quiescent poll costs one small frame each way — and
/// because delivery is strictly poll-driven, at most one encoded delta
/// page exists per subscription at any instant.
fn stream_delta(
    writer: &FrameSink,
    sub: u64,
    epoch: u64,
    inserted: &[Row],
    retracted: &[Row],
    lag: u64,
) {
    let (mut ins, mut ret) = (0, 0);
    let mut page_rows = PAGE_ROWS;
    while ins < inserted.len() || ret < retracted.len() {
        let mut ni = page_rows.min(inserted.len() - ins);
        let mut nr = page_rows.saturating_sub(ni).min(retracted.len() - ret);
        let frame = loop {
            let chunk = proto::encode_delta(
                sub,
                epoch,
                &inserted[ins..ins + ni],
                &retracted[ret..ret + nr],
            );
            match chunk {
                Ok(frame) if frame.1.len() <= MAX_PAYLOAD as usize => break frame,
                Ok(_) if ni + nr > 1 => {
                    page_rows = ((ni + nr) / 2).max(1);
                    ni = page_rows.min(inserted.len() - ins);
                    nr = page_rows.saturating_sub(ni).min(retracted.len() - ret);
                }
                Ok(_) => {
                    let e = RqpError::Protocol(format!(
                        "delta row of subscription {sub} exceeds the {MAX_PAYLOAD}-byte frame limit"
                    ));
                    let _ = send(writer, &ServerMsg::Error { query: sub, failure: failure_of(&e) });
                    return;
                }
                Err(e) => {
                    let _ =
                        send(writer, &ServerMsg::Error { query: sub, failure: failure_of(&e.into()) });
                    return;
                }
            }
        };
        if writer.write(frame).is_err() {
            let e = RqpError::Protocol(format!("failed to deliver a delta of subscription {sub}"));
            let _ = send(writer, &ServerMsg::Error { query: sub, failure: failure_of(&e) });
            return;
        }
        ins += ni;
        ret += nr;
    }
    let _ = send(writer, &ServerMsg::SubDone { sub, lag });
}

/// Cap a rendered span tree so the INSPECT_REPLY payload always encodes
/// and fits one frame; the tree is advisory, truncation loses only depth.
fn clip_rendered(mut rendered: String) -> String {
    const MAX_RENDERED: usize = 64 * 1024;
    if rendered.len() > MAX_RENDERED {
        let cut = (0..=MAX_RENDERED)
            .rev()
            .find(|&i| rendered.is_char_boundary(i))
            .unwrap_or(0);
        rendered.truncate(cut);
        rendered.push('…');
    }
    rendered
}

/// The spans reachable from `root` in a forest snapshot. Spans are listed
/// in open order and adoption re-identifies children past their parents,
/// so a single forward pass finds the whole subtree.
fn subtree(spans: &[SpanSnapshot], root: usize) -> Vec<SpanSnapshot> {
    let mut ids = std::collections::HashSet::new();
    ids.insert(root);
    let mut keep = Vec::new();
    for s in spans {
        if s.id == root || s.parent.is_some_and(|p| ids.contains(&p)) {
            ids.insert(s.id);
            keep.push(s.clone());
        }
    }
    keep
}

/// Answer INSPECT: a live `EXPLAIN ANALYZE` for a running query (its
/// tracer and cost clock are `Arc`-over-atomics, so snapshotting mid-run
/// is safe), a phase-only reply for queued/paging queries, and the merged
/// service forest's adopted tree for queries that already finished.
fn inspect_reply(shared: &ServerShared, query: u64) -> ServerMsg {
    let stats = shared.svc.stats();
    if let Some((tracer, _clock)) = stats.live_tracer(query) {
        let rendered = clip_rendered(TraceTree::assemble(&tracer.snapshot()).render());
        return ServerMsg::InspectReply {
            query,
            found: true,
            phase: QueryPhase::Running.as_u8(),
            rendered,
        };
    }
    let phase = stats.phase(query);
    if phase == Some(QueryPhase::Queued) {
        // At the admission gate: nothing has executed, there is no tree.
        return ServerMsg::InspectReply {
            query,
            found: true,
            phase: QueryPhase::Queued.as_u8(),
            rendered: String::new(),
        };
    }
    // Paging (execution finished, results streaming out) or already gone:
    // either way the query's tree was adopted into the merged service
    // forest when `run_query` returned — render that.
    let spans = shared.svc.tracer().snapshot();
    let prefix = format!("q{query} ");
    let rendered = spans
        .iter()
        .find(|s| s.kind == "query" && s.detail.starts_with(&prefix))
        .map(|root| clip_rendered(TraceTree::assemble(&subtree(&spans, root.id)).render()))
        .unwrap_or_default();
    ServerMsg::InspectReply {
        query,
        found: phase.is_some() || !rendered.is_empty(),
        phase: phase.unwrap_or(QueryPhase::Queued).as_u8(),
        rendered,
    }
}

/// Pager thread body: join the query, then stream pages against credits.
/// While pages stream, the query lives in the registry as `Paging` (its
/// execution thread, MPL slot and grants are already gone).
fn page_results(
    shared: &ServerShared,
    writer: &FrameSink,
    query: u64,
    session: u64,
    handle: rqp_server::QueryHandle,
    credits: &Credits,
    stats: &Mutex<WireStats>,
) {
    let outcome = match handle.join() {
        Ok(o) => o,
        Err(e) => {
            // Failure frames are small and sent eagerly — a client blocked
            // in fetch() learns its fate without granting a credit.
            let _ = send(writer, &ServerMsg::Error { query, failure: failure_of(&e) });
            return;
        }
    };
    shared.svc.stats().begin_paging(query, session);
    stream_rows(shared, writer, query, outcome, credits, stats);
    shared.svc.stats().end_paging(query);
}

/// Stream one query's materialized rows against credits (module docs).
fn stream_rows(
    shared: &ServerShared,
    writer: &FrameSink,
    query: u64,
    outcome: rqp_server::QueryOutcome,
    credits: &Credits,
    stats: &Mutex<WireStats>,
) {
    let rows = outcome.rows;
    let total = rows.len();
    let mut sent = 0;
    // Rows per page, shrunk adaptively when wide rows push a page's
    // *encoded* size past the frame limit — the bound that matters is
    // bytes, not row count.
    let mut page_rows = PAGE_ROWS;
    // Pages encoded but not yet handed to the socket for THIS query; the
    // credit loop keeps it at 1, and the recorded peak proves it.
    let mut buffered: u64 = 0;
    while sent < total {
        if credits.would_block() {
            shared
                .svc
                .stats()
                .publish(query, "pager.stall", &format!("awaiting FETCH at {sent}/{total}"));
        }
        if !credits.acquire_one() {
            return; // connection torn down
        }
        // Encode exactly one page per held credit: at most one encoded page
        // per query exists at any instant, whatever the client does. If the
        // encoding fails or cannot fit a frame even at one row per page,
        // the stream MUST still terminate with an ERROR frame — a blocking
        // client is otherwise left waiting forever for a DONE that never
        // comes.
        let mut n = page_rows.min(total - sent);
        let frame = loop {
            match proto::encode_page(query, &rows[sent..sent + n]) {
                Ok(frame) if frame.1.len() <= MAX_PAYLOAD as usize => break frame,
                Ok(_) if n > 1 => {
                    n /= 2;
                    page_rows = n;
                }
                Ok(_) => {
                    let e = RqpError::Protocol(format!(
                        "result row of query {query} exceeds the {MAX_PAYLOAD}-byte frame limit"
                    ));
                    let _ = send(writer, &ServerMsg::Error { query, failure: failure_of(&e) });
                    return;
                }
                Err(e) => {
                    let _ =
                        send(writer, &ServerMsg::Error { query, failure: failure_of(&e.into()) });
                    return;
                }
            }
        };
        buffered += 1;
        {
            let mut st = stats.lock().expect("stats lock");
            st.peak_buffered_pages = st.peak_buffered_pages.max(buffered);
            shared
                .svc
                .metrics()
                .gauge("wire.pages.peak_buffered")
                .set(st.peak_buffered_pages as f64);
        }
        if writer.write(frame).is_err() {
            // Socket-level failure: the connection is almost certainly dead,
            // but attempt a terminal ERROR anyway so a peer with a one-way
            // fault is not left hanging, then abandon the stream.
            let e = RqpError::Protocol(format!("failed to deliver a page of query {query}"));
            let _ = send(writer, &ServerMsg::Error { query, failure: failure_of(&e) });
            return;
        }
        buffered -= 1;
        shared
            .svc
            .stats()
            .publish(query, "pager.page", &format!("{n} rows at {sent}/{total}"));
        sent += n;
    }
    let _ = send(
        writer,
        &ServerMsg::Done {
            query,
            total_rows: total as u64,
            cost: outcome.cost,
            plan_cached: outcome.plan_cached,
        },
    );
}
