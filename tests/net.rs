//! Acceptance tests for the TCP wire layer (`rqp-net`): remote results
//! bit-identical to solo execution, credit-based backpressure that bounds
//! what a stalled client can hold, abrupt-disconnect teardown that releases
//! the MPL slot and every memory grant (also behind a pager blocked on a
//! peer that stopped reading), stable error codes across the wire,
//! cooperative cancellation of a queued query from a remote client,
//! APPENDed rows reaching index-served plans, and the one-round-trip path:
//! SUBMIT's own credit window returns what SUBMIT + FETCH returns, under
//! the same flow-control bounds, in the frame counts the server publishes,
//! and `fetch` composes with `fetch_partial` through the query's cursor.

use rqp_common::expr::{col, lit};
use rqp_common::{Row, RqpError, Value};
use rqp_telemetry::scoreboard::Scoreboard;
use rqp_net::frame::{read_frame, write_frame};
use rqp_net::proto::{self, WireSubscribeOptions, REST_OF_RESULT};
use rqp_net::{
    rows_checksum, ClientMsg, RemoteDelta, ServerMsg, WireClient, WireQueryOptions, WireServer,
    PAGE_ROWS,
};
use rqp_opt::QuerySpec;
use rqp_server::{QueryPhase, QueryService, ServiceConfig};
use rqp_workload::{tpch::TpchParams, TpchDb};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_db() -> TpchDb {
    TpchDb::build(TpchParams { lineitem_rows: 4_000, ..Default::default() }, 42)
}

fn service(db: &TpchDb, mpl: usize) -> Arc<QueryService> {
    Arc::new(QueryService::new(
        &db.catalog,
        ServiceConfig { mpl, memory_rows: 20_000.0, drift_threshold: 1e9, ..Default::default() },
    ))
}

fn start(svc: &Arc<QueryService>) -> (WireServer, String) {
    let server = WireServer::start(Arc::clone(svc), "127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", server.port());
    (server, addr)
}

/// A predicate-only scan returning every lineitem row — many pages' worth,
/// for exercising the pager rather than a one-row aggregate.
fn wide_scan() -> QuerySpec {
    QuerySpec::new()
        .table("lineitem")
        .filter("lineitem", col("lineitem.quantity").ge(lit(0)))
        .project(&["lineitem.orderkey", "lineitem.quantity", "lineitem.extendedprice"])
}

/// The first `n` rows of [`wide_scan`] in order-key order (the planner
/// applies LIMIT only under ORDER BY); for 0, a conjunct no row passes.
fn scan_of(n: usize) -> QuerySpec {
    if n == 0 {
        return wide_scan().filter("lineitem", col("lineitem.quantity").lt(lit(0)));
    }
    wide_scan().order(&["lineitem.orderkey", "lineitem.extendedprice"]).limit(n)
}

/// Every lineitem row paired with each customer below `customers` whose
/// market segment equals the row's return flag (0–2 against 0–4): on
/// [`small_db`], about 800 rows per customer, every column of both tables.
fn fan_out(customers: i64) -> QuerySpec {
    QuerySpec::new()
        .join("lineitem", "returnflag", "customer", "mktsegment")
        .filter("customer", col("customer.custkey").lt(lit(customers)))
}

/// The one-page index join the `oltp_point` benchmark workload issues.
fn point_join(orderkey: i64) -> QuerySpec {
    QuerySpec::new()
        .join("orders", "orderkey", "lineitem", "orderkey")
        .filter("orders", col("orders.orderkey").eq(lit(orderkey)))
        .project(&["orders.orderkey", "orders.totalprice", "lineitem.extendedprice"])
}

/// `(wire.frames.in, wire.frames.out)` as the service counts them.
fn frames(svc: &QueryService) -> (u64, u64) {
    let m = svc.metrics();
    (m.counter("wire.frames.in").get(), m.counter("wire.frames.out").get())
}

/// Flight-recorder events of `kind` published for `query` so far
/// (`pager.page`: one per PAGE frame sent; `pager.stall`: a wait for credit).
fn events_of(svc: &QueryService, query: u64, kind: &str) -> usize {
    let tail = svc.stats().recorder().tail(0, usize::MAX);
    assert_eq!(tail.gap, 0, "the recorder ring overwrote events this test counts");
    tail.events.iter().filter(|e| e.query == query && e.kind == kind).count()
}

/// Spin until `cond` holds or a generous deadline passes. The wire layer is
/// asynchronous by nature; tests only ever wait on monotone conditions.
fn await_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn remote_results_are_bit_identical_to_solo_runs() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    let specs = [db.q1(30), db.q3(1, 400), db.q6(100, 0.05, 30), wide_scan()];
    let solo: Vec<_> = specs.iter().map(|q| svc.run_solo(q).expect("solo run")).collect();

    let mut client = WireClient::connect(&addr, 0).expect("connect");
    for (spec, solo) in specs.iter().zip(&solo) {
        let out = client
            .run(spec, WireQueryOptions::default())
            .expect("wire transport")
            .expect("remote query failed");
        assert_eq!(out.rows, solo.rows, "remote rows diverged from solo execution");
        assert_eq!(
            rows_checksum(&out.rows),
            rows_checksum(&solo.rows),
            "checksum identity must follow row identity"
        );
    }
    client.goodbye().expect("clean goodbye");
    assert_eq!(svc.reserved(), 0.0, "remote queries leaked grants");

    drop(server);
}

#[test]
fn stalled_consumer_holds_one_page_and_never_broker_memory() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    // The slow consumer: submit a many-page scan but grant a single credit.
    let mut slow = WireClient::connect(&addr, 0).expect("connect slow");
    let query = slow.submit(&wide_scan(), WireQueryOptions::default()).expect("submit");
    let first = slow.fetch_partial(query, 1).expect("first page");
    assert_eq!(first.len(), PAGE_ROWS, "first page should be full");

    // While the consumer stalls: the broker owes it nothing (results are
    // materialized and grants returned before paging), and a neighbour on a
    // separate connection runs to completion unimpeded.
    assert_eq!(svc.reserved(), 0.0, "stalled consumer held broker memory");
    let solo = svc.run_solo(&db.q1(30)).expect("solo");
    let mut other = WireClient::connect(&addr, 0).expect("connect other");
    let out = other
        .run(&db.q1(30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("neighbour failed behind a stalled consumer");
    assert_eq!(out.rows, solo.rows);
    other.goodbye().expect("goodbye other");

    // Drain the rest; the stall must not have corrupted the page stream.
    let rest = slow.fetch_partial(query, u32::MAX).expect("drain");
    assert_eq!(first.len() + rest.len(), 4_000, "row loss across the stall");
    slow.goodbye().expect("goodbye slow");

    let stats = server.stats();
    assert!(
        stats.peak_buffered_pages <= 1,
        "pager buffered {} pages; credits must bound this at 1",
        stats.peak_buffered_pages
    );
    drop(server);
}

#[test]
fn abrupt_disconnect_mid_query_releases_slot_and_grants() {
    let db = small_db();
    let svc = service(&db, 1);
    let (server, addr) = start(&svc);

    // Park a query in the admission queue so it is definitely live when the
    // connection dies, then vanish without GOODBYE — the TCP stream drops
    // with the client value.
    svc.pause_admission();
    let mut doomed = WireClient::connect(&addr, 0).expect("connect");
    let _query = doomed
        .submit(&wide_scan(), WireQueryOptions { reservation: Some(5_000.0), ..Default::default() })
        .expect("submit");
    await_until(|| svc.queue_depth() == 1, "query to queue");
    drop(doomed);

    // The server must notice the dead peer, cancel the query, and reap it.
    await_until(|| server.stats().closed == 1, "connection teardown");
    let stats = server.stats();
    assert_eq!(stats.disconnected_queries, 1, "mid-query disconnect not counted");
    assert_eq!(stats.recovered_queries, 1, "disconnected query not reaped");
    svc.resume_admission();
    await_until(|| svc.queue_depth() == 0, "queue to drain");
    assert_eq!(svc.reserved(), 0.0, "disconnected query leaked memory grants");

    // The MPL slot must be free: with MPL 1 a fresh query would hang forever
    // on a leaked slot.
    let mut fresh = WireClient::connect(&addr, 0).expect("reconnect");
    fresh
        .run(&db.q6(100, 0.05, 30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("query after churn failed: leaked MPL slot?");
    fresh.goodbye().expect("goodbye");
    drop(server);
}

#[test]
fn stray_grants_for_a_finished_query_do_not_corrupt_the_stream() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let out = client
        .run(&db.q6(100, 0.05, 30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("query failed");

    // The query is done and its server-side entry may be reaped at any
    // moment. Late grants and cancels race completion by design (a client
    // re-grants before reading the DONE already in flight) and must be
    // silently absorbed — an ERROR reply here would be read by whatever
    // exchange comes next and corrupt the conversation.
    client.fetch_partial(out.query, 0).expect("stray fetch must be a no-op");
    client.cancel(out.query).expect("stray cancel must be a no-op");

    // A fresh query and a clean goodbye prove no stray frame leaked in.
    client
        .run(&db.q1(30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("follow-up query failed");
    client.goodbye().expect("clean goodbye after stray grants");
    drop(server);
}

/// `run` grants its first window with the SUBMIT; `submit` + `fetch` grants
/// it with a FETCH one round trip later. Whatever the result size relative
/// to the window — empty, one row, one page, exactly the window, one row
/// past it, several windows — both return the same rows, and on fresh
/// services that each see the specs in the same order, the same cost and
/// plan-cache verdict.
#[test]
fn run_with_an_initial_window_equals_submit_then_fetch() {
    // One database per service: under a page budget a pool attaches to the
    // catalog's shared tables, and two pools on one catalog would charge
    // each other's faults.
    let (db_run, db_split) = (small_db(), small_db());
    let sizes = [0, 1, PAGE_ROWS, 4 * PAGE_ROWS, 4 * PAGE_ROWS + 1, 9 * PAGE_ROWS + 7];
    for mpl in [1, 4] {
        let (svc_run, svc_split) = (service(&db_run, mpl), service(&db_split, mpl));
        let (server_run, addr_run) = start(&svc_run);
        let (server_split, addr_split) = start(&svc_split);
        let mut via_run = WireClient::connect(&addr_run, 0).expect("connect");
        let mut via_split = WireClient::connect(&addr_split, 0).expect("connect");
        // Twice over: the second pass is served from each plan cache.
        for (pass, &n) in sizes.iter().chain(&sizes).enumerate() {
            let spec = scan_of(n);
            let a = via_run.run(&spec, WireQueryOptions::default()).expect("wire").expect("run");
            let q = via_split.submit(&spec, WireQueryOptions::default()).expect("submit");
            let b = via_split.fetch(q).expect("wire").expect("fetch");
            assert_eq!(a.rows.len(), n, "mpl {mpl}: scan_of({n}) returned another size");
            assert_eq!(a.rows, b.rows, "mpl {mpl}, {n} rows: the two paths disagree");
            assert_eq!(rows_checksum(&a.rows), rows_checksum(&b.rows));
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "mpl {mpl}, {n} rows: cost");
            assert_eq!(a.plan_cached, b.plan_cached, "mpl {mpl}, {n} rows: plan cache");
            assert_eq!(a.plan_cached, pass >= sizes.len(), "mpl {mpl}, {n} rows, pass {pass}");
        }
        via_run.goodbye().expect("goodbye");
        via_split.goodbye().expect("goodbye");
        for (svc, server) in [(svc_run, server_run), (svc_split, server_split)] {
            assert_eq!(svc.reserved(), 0.0);
            assert!(server.stats().peak_buffered_pages <= 1);
        }
    }
}

/// The frame counts the one-round-trip claim rests on, read from the
/// counters the server itself keeps (and STATS reports). Whatever the
/// result's size — empty, one row, one page, four pages, one row past four,
/// several pages, more than 64 pages — `run` is SUBMIT in and SUBMIT_ACK,
/// `p` PAGEs and DONE out; `submit` + `fetch` pays exactly one FETCH more.
#[test]
fn frames_per_query_are_counted_by_the_server() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);
    let mut client = WireClient::connect(&addr, 0).expect("connect");
    assert_eq!(frames(&svc), (1, 1), "HELLO in, HELLO_ACK out");
    // An empty result's DONE needs no credit, so it can reach the client
    // before the server has read (and counted) the FETCH: wait for the
    // frames in, then pin both counts exactly.
    let moved = |before: (u64, u64), frames_in: u64| {
        await_until(|| frames(&svc).0 - before.0 >= frames_in, "the frames in to be counted");
        let now = frames(&svc);
        (now.0 - before.0, now.1 - before.1)
    };

    let sizes = [0, 1, PAGE_ROWS, 4 * PAGE_ROWS, 4 * PAGE_ROWS + 1, 9 * PAGE_ROWS + 7];
    let specs = sizes.iter().map(|&n| (scan_of(n), n)).chain([(fan_out(25), 64 * PAGE_ROWS)]);
    for (spec, at_least) in specs {
        let before = frames(&svc);
        let out = client.run(&spec, WireQueryOptions::default()).expect("wire").expect("run");
        assert!(out.rows.len() >= at_least, "{} rows, expected {at_least}", out.rows.len());
        let p = out.rows.len().div_ceil(PAGE_ROWS) as u64;
        assert_eq!(moved(before, 1), (1, p + 2), "run of {} rows", out.rows.len());

        let before = frames(&svc);
        let q = client.submit(&spec, WireQueryOptions::default()).expect("submit");
        let split = client.fetch(q).expect("wire").expect("fetch");
        assert_eq!(split.rows, out.rows);
        assert_eq!(moved(before, 2), (2, p + 2), "submit + fetch of {} rows", out.rows.len());
        assert!(server.stats().peak_buffered_pages <= 1, "credits must bound buffering at 1");
    }

    // An operator reads the same counters over the wire.
    let snap = client.stats().expect("stats");
    let counter = |name: &str| snap.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
    let (frames_in, _) = frames(&svc);
    assert_eq!(counter("wire.frames.in"), Some(rqp_telemetry::MetricValue::Counter(frames_in)));
    assert!(counter("wire.frames.out").is_some());
    client.goodbye().expect("goodbye");
    drop(server);
}

/// A pager blocked writing to a peer that stopped reading holds the
/// connection's writer lock and never sees its credit ledger killed. A raw
/// peer grants the rest of a result larger than both loopback socket
/// buffers, shuts its write half and never reads: the connection still
/// closes, the query is reaped and the server shuts down.
#[test]
fn teardown_unblocks_a_pager_writing_to_a_peer_that_stopped_reading() {
    // One and a half times `small_db`, so the result outgrows both buffers.
    let db = TpchDb::build(TpchParams { lineitem_rows: 6_000, ..Default::default() }, 42);
    let svc = service(&db, 2);
    let (mut server, addr) = start(&svc);

    let mut peer = TcpStream::connect(&addr).expect("connect");
    let write = |peer: &mut TcpStream, (tag, payload): (u8, Vec<u8>)| {
        write_frame(peer, tag, &payload).expect("write a frame");
    };
    let read = |peer: &mut TcpStream| {
        ServerMsg::decode(&read_frame(peer).expect("read").expect("a frame")).expect("decode")
    };
    write(&mut peer, ClientMsg::Hello { priority: 0 }.encode().expect("encode"));
    assert!(matches!(read(&mut peer), ServerMsg::HelloAck { .. }));
    let opts = WireQueryOptions { credits: REST_OF_RESULT, ..Default::default() };
    write(&mut peer, proto::encode_submit(&fan_out(i64::MAX), &opts).expect("encode"));
    let ServerMsg::SubmitAck { query } = read(&mut peer) else { panic!("expected SUBMIT_ACK") };

    // The frames the pager hands the socket, once they stop moving. The
    // query is still paging then (the result is about 164 000 rows, 8 MB
    // encoded), so the pager is blocked in a write.
    let acked = frames(&svc).1;
    let stalled = || {
        let (mut out, mut since) = (acked, Instant::now());
        await_until(
            || {
                std::thread::sleep(Duration::from_millis(10));
                let now = frames(&svc).1;
                if now != out {
                    (out, since) = (now, Instant::now());
                }
                out > acked && since.elapsed() > Duration::from_millis(300)
            },
            "the pager to block on the full socket",
        );
        out
    };
    // Any segment from the peer may still widen its receive window and let
    // a few more pages out; the FIN below must not be the one that frees
    // the pager. So the peer sends no-op FETCHes (an unknown query, no
    // credit, no reply) until one no longer moves it.
    let mut out = stalled();
    loop {
        write(&mut peer, ClientMsg::Fetch { query: 0, credits: 0 }.encode().expect("encode"));
        let now = stalled();
        if now == out {
            break;
        }
        out = now;
    }
    let phase = svc.stats().phase(query);
    assert_eq!(phase, Some(QueryPhase::Paging), "the pager finished: the socket never filled");
    peer.shutdown(Shutdown::Write).expect("shut the write half");

    await_until(|| server.stats().closed == 1, "teardown behind a blocked pager");
    let stats = server.stats();
    assert_eq!(stats.disconnected_queries, 1, "the paging query was live at disconnect");
    assert_eq!(stats.recovered_queries, 1, "the blocked pager was not reaped");
    await_until(|| svc.stats().live_count() == 0, "the live registry to empty");
    assert_eq!(svc.reserved(), 0.0, "the disconnected query leaked memory grants");
    // The peer is still open (and still not reading) while the server stops.
    server.shutdown();
    drop(peer);
}

/// `fetch_partial` and `fetch` advance one cursor per query: `fetch` returns
/// the rows `fetch_partial` did not, checks DONE's total against all of
/// them, returns at once when `fetch_partial` already read the DONE, and
/// reports a failure `fetch_partial` read with its wire code.
#[test]
fn fetch_after_fetch_partial_continues_the_same_cursor() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);
    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let solo = svc.run_solo(&wide_scan()).expect("solo").rows;

    // DONE still pending: one page by hand, the other fifteen by `fetch`.
    let q = client.submit(&wide_scan(), WireQueryOptions::default()).expect("submit");
    let mut rows = client.fetch_partial(q, 1).expect("first page");
    assert_eq!(rows.len(), PAGE_ROWS);
    let rest = client.fetch(q).expect("wire").expect("fetch after fetch_partial");
    assert_eq!(rest.rows.len(), solo.len() - PAGE_ROWS, "fetch returns the remaining rows");
    rows.extend(rest.rows);
    assert_eq!(rows, solo, "row loss or reordering across the two calls");

    // DONE already consumed: two credits on a one-page result read the PAGE
    // and the DONE. `fetch` must answer from the cursor — no FETCH, no read.
    let q = client.submit(&point_join(7), WireQueryOptions::default()).expect("submit");
    let page = client.fetch_partial(q, 2).expect("page and DONE");
    assert_eq!(page, svc.run_solo(&point_join(7)).expect("solo").rows);
    let before = frames(&svc);
    let done = client.fetch(q).expect("wire").expect("fetch after the DONE was read");
    assert!(done.rows.is_empty(), "every row was already returned");
    assert!(done.cost > 0.0, "the stored DONE carries the query's cost");
    assert_eq!(frames(&svc), before, "fetch of a finished cursor exchanged frames");
    assert!(client.fetch(q).is_err(), "fetch retires the cursor");

    // A failure read by `fetch_partial` keeps its code for `fetch`.
    let doomed = WireQueryOptions {
        deadline: Some(1.0),
        reservation: Some(8_000.0),
        ..Default::default()
    };
    let q = client.submit(&db.q5(0, 10, 100), doomed).expect("submit");
    let none = client.fetch_partial(q, 1).expect("the ERROR is stored, not returned");
    assert!(none.is_empty());
    let failure = client.fetch(q).expect("wire").expect_err("past-deadline query must fail");
    assert_eq!(failure.code, RqpError::DeadlineExceeded.wire_code());

    client.goodbye().expect("goodbye");
    assert_eq!(svc.reserved(), 0.0);
    drop(server);
}

/// The flow-control invariants hold for credits granted with the SUBMIT
/// exactly as for credits granted by FETCH: a window of two delivers two
/// pages and then stalls holding no broker memory, at most one encoded page
/// and nobody else's progress.
#[test]
fn an_initial_window_is_bounded_like_any_other_grant() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    let mut slow = WireClient::connect(&addr, 0).expect("connect slow");
    let query = slow
        .submit(&wide_scan(), WireQueryOptions { credits: 2, ..Default::default() })
        .expect("submit");
    let first = slow.fetch_partial(query, 0).expect("the two pages SUBMIT paid for");
    assert_eq!(first.len(), 2 * PAGE_ROWS);
    await_until(
        || events_of(&svc, query, "pager.stall") > 0,
        "the pager to stall behind the spent window",
    );
    assert_eq!(events_of(&svc, query, "pager.page"), 2, "the window bounds what is sent");
    assert_eq!(svc.reserved(), 0.0, "stalled consumer held broker memory");

    let solo = svc.run_solo(&db.q1(30)).expect("solo");
    let mut other = WireClient::connect(&addr, 0).expect("connect other");
    let out = other
        .run(&db.q1(30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("neighbour failed behind a stalled consumer");
    assert_eq!(out.rows, solo.rows);
    other.goodbye().expect("goodbye other");
    assert_eq!(events_of(&svc, query, "pager.page"), 2, "pages sent without a credit");

    let rest = slow.fetch(query).expect("wire").expect("drain");
    assert_eq!(first.len() + rest.rows.len(), 4_000, "row loss across the stall");
    slow.goodbye().expect("goodbye slow");
    assert!(server.stats().peak_buffered_pages <= 1, "credits must bound buffering at 1");
    drop(server);
}

/// A peer that vanishes with its initial window unspent or half spent —
/// wherever the query is: queued, running, paging or stalled — is reaped
/// like any other: slot, grants and page pins all come back.
#[test]
fn abrupt_disconnect_inside_the_initial_window_releases_everything() {
    let db = small_db();
    let svc = Arc::new(QueryService::new(
        &db.catalog,
        ServiceConfig {
            mpl: 1,
            memory_rows: 20_000.0,
            drift_threshold: 1e9,
            page_budget: Some(64),
            ..Default::default()
        },
    ));
    let (server, addr) = start(&svc);

    // Sixteen pages against a window of two: the pager cannot finish, so
    // the query is live whenever the connection dies.
    let windowed = || WireQueryOptions { credits: 2, ..Default::default() };
    let mut unread = WireClient::connect(&addr, 0).expect("connect");
    unread.submit(&wide_scan(), windowed()).expect("submit");
    drop(unread);
    let mut half_read = WireClient::connect(&addr, 0).expect("connect");
    let query = half_read.submit(&wide_scan(), windowed()).expect("submit");
    assert_eq!(half_read.fetch_partial(query, 0).expect("window").len(), 2 * PAGE_ROWS);
    drop(half_read);

    await_until(|| server.stats().closed == 2, "connection teardown");
    let stats = server.stats();
    assert_eq!(stats.disconnected_queries, 2, "mid-window disconnects not counted");
    assert_eq!(stats.recovered_queries, stats.disconnected_queries, "queries not reaped");
    await_until(|| svc.stats().live_count() == 0, "the live registry to empty");
    assert_eq!(svc.reserved(), 0.0, "disconnected queries leaked memory grants");
    assert_eq!(svc.pager().expect("paged service").pins(), 0, "teardown leaked page pins");

    // With MPL 1 a leaked slot would hang this forever.
    let mut fresh = WireClient::connect(&addr, 0).expect("reconnect");
    fresh
        .run(&db.q6(100, 0.05, 30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("query after churn failed: leaked MPL slot?");
    fresh.goodbye().expect("goodbye");
    drop(server);
}

/// An empty result's DONE needs no credit, so a pager that is already
/// running when the connection thread writes SUBMIT_ACK can overtake it and
/// `submit` reads "expected SUBMIT_ACK, got Done". The ack is written before
/// the pager is spawned; 500 empty point lookups (order keys past the end
/// of the table, distinct so none is a plan-cache hit) all complete.
#[test]
fn empty_results_never_overtake_their_submit_ack() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    let mut client = WireClient::connect(&addr, 0).expect("connect");
    for i in 0..500i64 {
        let spec = QuerySpec::new()
            .join("orders", "orderkey", "lineitem", "orderkey")
            .filter("orders", col("orders.orderkey").eq(lit(1_000_000 + i)))
            .project(&["orders.orderkey", "lineitem.extendedprice"]);
        let out = client
            .run(&spec, WireQueryOptions::default())
            .unwrap_or_else(|e| panic!("lookup {i}: wire transport failed: {e}"))
            .unwrap_or_else(|f| panic!("lookup {i}: remote query failed: {f}"));
        assert!(out.rows.is_empty(), "lookup {i}: a key past the table's end matches nothing");
    }
    client.goodbye().expect("clean goodbye");
    assert_eq!(svc.reserved(), 0.0, "empty results leaked grants");
    drop(server);
}

#[test]
fn deadline_abort_crosses_the_wire_with_its_stable_code() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let failure = client
        .run(
            &db.q5(0, 10, 100),
            WireQueryOptions {
                deadline: Some(1.0),
                reservation: Some(8_000.0),
                ..Default::default()
            },
        )
        .expect("wire transport")
        .expect_err("past-deadline query must fail");
    assert_eq!(
        failure.code,
        RqpError::DeadlineExceeded.wire_code(),
        "deadline abort arrived with the wrong wire code"
    );
    assert_eq!(failure.name(), Some("DeadlineExceeded"));
    assert!(failure.is_cancellation(), "classification must be code-based");
    client.goodbye().expect("goodbye");
    assert_eq!(svc.reserved(), 0.0, "aborted query leaked grants");
    drop(server);
}

#[test]
fn limit_without_order_by_is_refused_with_its_stable_code_and_the_connection_survives() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let failure = client
        .run(&QuerySpec::new().table("orders").limit(5), WireQueryOptions::default())
        .expect("wire transport")
        .expect_err("the first five of an unordered result are no stable answer");
    assert_eq!(failure.code, RqpError::Invalid(String::new()).wire_code());
    assert_eq!(failure.name(), Some("Invalid"));
    let rows = client
        .run(&db.q1(30), WireQueryOptions::default())
        .expect("wire transport")
        .expect("the connection still serves");
    assert!(!rows.rows.is_empty());
    client.goodbye().expect("goodbye");
    drop(server);
}

#[test]
fn shutdown_returns_while_an_idle_client_stays_connected() {
    let db = small_db();
    let svc = service(&db, 2);
    let (mut server, addr) = start(&svc);
    // Connected and said HELLO, then idle: no query, no GOODBYE.
    let idle = WireClient::connect(&addr, 0).expect("connect");
    let (done, finished) = std::sync::mpsc::channel();
    let closer = std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    let waited = finished.recv_timeout(Duration::from_secs(20));
    drop(idle);
    assert!(waited.is_ok(), "shutdown hung on an idle connection");
    closer.join().expect("shutdown thread");
}

#[test]
fn cancelling_a_queued_query_over_the_wire_frees_its_slot() {
    let db = small_db();
    let svc = service(&db, 1);
    let (server, addr) = start(&svc);

    svc.pause_admission();
    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let query = client.submit(&db.q1(30), WireQueryOptions::default()).expect("submit");
    await_until(|| svc.queue_depth() == 1, "query to queue");
    client.cancel(query).expect("send cancel");
    let failure = client.fetch(query).expect("wire transport").expect_err("cancelled");
    assert_eq!(failure.code, RqpError::Cancelled.wire_code());
    assert!(failure.is_cancellation());
    svc.resume_admission();
    await_until(|| svc.queue_depth() == 0, "cancelled waiter to leave the queue");
    assert_eq!(svc.reserved(), 0.0);
    client.goodbye().expect("goodbye");
    drop(server);
}

#[test]
fn introspection_frames_observe_a_live_service() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    // Park a query at the admission gate so the live registry has a
    // deterministic occupant, then observe it from a *separate* connection
    // that never said HELLO-and-submitted anything.
    svc.pause_admission();
    let mut worker = WireClient::connect(&addr, 0).expect("connect worker");
    let query = worker.submit(&wide_scan(), WireQueryOptions::default()).expect("submit");
    await_until(|| svc.queue_depth() == 1, "query to queue");

    let mut obs = WireClient::connect(&addr, 0).expect("connect observer");
    let snap = obs.stats().expect("stats");
    let gauge = |name: &str| {
        snap.metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    gauge("server.live.queued");
    gauge("server.recorder.published");
    gauge("wire.connections");
    assert_eq!(snap.live.len(), 1, "exactly one in-flight query");
    assert_eq!(snap.live[0].query, query);
    assert_eq!(snap.live[0].phase, QueryPhase::Queued);
    assert_eq!(snap.live[0].ticks, 0.0, "queued queries have not ticked");

    let queued = obs.inspect(query).expect("inspect queued");
    assert!(queued.found);
    assert_eq!(queued.phase, QueryPhase::Queued);
    assert!(queued.rendered.is_empty(), "nothing has executed yet");

    // Release the gate and poll INSPECT until a span tree appears — live
    // if we catch the query mid-run, final (from the merged service
    // forest) once it completes. Either way the condition is monotone.
    svc.resume_admission();
    let mut rendered = String::new();
    await_until(
        || {
            let ins = obs.inspect(query).expect("inspect running");
            rendered = ins.rendered;
            ins.found && !rendered.is_empty()
        },
        "a span tree to materialize",
    );
    assert!(rendered.contains("scan"), "span tree misses the scan:\n{rendered}");

    let out = worker.fetch(query).expect("wire transport").expect("query failed");
    assert_eq!(out.rows.len(), 4_000);

    // The flight recorder replays the whole lifecycle in sequence order.
    let tail = obs.events(0, 4096).expect("events");
    assert_eq!(tail.gap, 0, "nothing can have been overwritten yet");
    assert!(tail.events.windows(2).all(|w| w[0].seq < w[1].seq), "seqs not increasing");
    let kinds: Vec<&str> = tail.events.iter().map(|e| e.kind.as_str()).collect();
    for expected in ["query.submit", "admission.enqueue", "admission.admit", "query.finish", "pager.page"]
    {
        assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
    }
    // Tailing from the returned cursor yields nothing new and no gap.
    let empty = obs.events(tail.next_cursor, 4096).expect("events resume");
    assert!(empty.events.is_empty());
    assert_eq!(empty.gap, 0);
    assert_eq!(empty.next_cursor, tail.next_cursor);

    // An unknown id is found=false, not an error.
    let missing = obs.inspect(999_999).expect("inspect unknown");
    assert!(!missing.found);

    worker.goodbye().expect("goodbye worker");
    obs.goodbye().expect("goodbye observer");
    drop(server);
}

/// A fresh `lineitem` row (dyadic floats, so retractable sums stay exact).
fn fresh_lineitem(k: i64) -> Row {
    vec![
        Value::Int(k % 50),
        Value::Int(k % 20),
        Value::Int(k % 10),
        Value::Int(1 + k % 50),
        Value::Float(1_000.0 + (k % 100) as f64 * 0.25),
        Value::Float(0.0625),
        Value::Int(k % 2_400),
        Value::Int(k % 3),
    ]
}

/// Apply one wire delta to a sorted client-side view copy.
fn replay(view: &mut Vec<Row>, delta: &RemoteDelta) {
    for r in &delta.retracted {
        let pos = view.iter().position(|v| v == r).expect("retracted row absent from view");
        view.remove(pos);
    }
    view.extend(delta.inserted.iter().cloned());
    view.sort();
}

#[test]
fn standing_subscriptions_stream_deltas_and_survive_partial_polls() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);

    // Two standing views on one connection: a filter-only scan (deltas are
    // 1:1 with appended rows, so chunking is exercised precisely) and a
    // grouped aggregate (appends retract and re-insert group rows).
    let scan = wide_scan();
    let mut agg = db.q1(30);
    agg.order_by.clear();
    agg.limit = None;

    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let mut scan_view = svc.run_solo(&scan).expect("solo scan").rows;
    scan_view.sort();
    let mut agg_view = svc.run_solo(&agg).expect("solo agg").rows;
    agg_view.sort();
    let s_scan =
        client.subscribe(&scan, WireSubscribeOptions::default()).expect("subscribe scan");
    let s_agg =
        client.subscribe(&agg, WireSubscribeOptions::default()).expect("subscribe agg");
    assert_ne!(s_scan, s_agg, "subscriptions share the query id space");

    // Ordered specs are rejected with a remote failure, not a hangup.
    let err = client
        .subscribe(&db.q1(30), WireSubscribeOptions::default())
        .expect_err("ordered spec must be rejected");
    assert!(err.to_string().contains("ORDER BY"), "unexpected rejection: {err}");

    // One 600-row append: every row passes the scan's predicate, so the
    // poll must deliver 600 inserted rows across chunked DELTA frames
    // (PAGE_ROWS = 256 rows per frame).
    let rows: Vec<Row> = (0..600).map(fresh_lineitem).collect();
    let epoch = client.append("lineitem", rows).expect("wire").expect("append");
    assert_eq!(epoch, 600, "append epoch is the changelog length");

    // Partial poll first: apply 250 records, leave 350 lagging.
    let (d1, lag1) = client.poll_sub(s_scan, 250).expect("wire").expect("poll");
    assert_eq!(d1.inserted.len(), 250);
    assert!(d1.retracted.is_empty());
    assert_eq!(lag1, 350, "partial poll must report the remaining lag");
    let (d2, lag2) = client.poll_sub(s_scan, 0).expect("wire").expect("drain");
    assert_eq!(d2.inserted.len(), 350);
    assert_eq!(lag2, 0);
    replay(&mut scan_view, &d1);
    replay(&mut scan_view, &d2);
    let mut cold = svc.run_solo(&scan).expect("cold scan").rows;
    cold.sort();
    assert_eq!(scan_view, cold, "maintained scan view diverged from re-execution");

    // The aggregate subscription sees the same changelog: its delta
    // retracts the touched group rows and inserts their replacements.
    let (da, lag) = client.poll_sub(s_agg, 0).expect("wire").expect("poll agg");
    assert_eq!(lag, 0);
    assert!(!da.inserted.is_empty(), "appends must touch some group");
    replay(&mut agg_view, &da);
    let mut cold = svc.run_solo(&agg).expect("cold agg").rows;
    cold.sort();
    assert_eq!(agg_view, cold, "maintained aggregate view diverged from re-execution");

    // Unsubscribe is acknowledged; a dead id then fails with a typed code.
    client.unsubscribe(s_scan).expect("wire").expect("unsubscribe scan");
    client.unsubscribe(s_agg).expect("wire").expect("unsubscribe agg");
    assert_eq!(svc.subscriptions().count(), 0, "registry must be empty");
    assert_eq!(svc.reserved(), 0.0, "standing views leaked workspace grants");
    let failure = client.poll_sub(s_scan, 0).expect("wire").expect_err("dead sub");
    assert_eq!(failure.code, RqpError::Invalid(String::new()).wire_code());

    client.goodbye().expect("goodbye");
    drop(server);
}

#[test]
fn wire_disconnect_tears_down_standing_subscriptions() {
    let db = small_db();
    let svc = Arc::new(QueryService::new(
        &db.catalog,
        ServiceConfig {
            mpl: 2,
            memory_rows: 20_000.0,
            drift_threshold: 1e9,
            page_budget: Some(64),
            ..Default::default()
        },
    ));
    let (server, addr) = start(&svc);

    let mut agg = db.q1(30);
    agg.order_by.clear();
    agg.limit = None;
    let mut doomed = WireClient::connect(&addr, 0).expect("connect doomed");
    let s1 = doomed
        .subscribe(&wide_scan(), WireSubscribeOptions::default())
        .expect("subscribe scan");
    doomed.subscribe(&agg, WireSubscribeOptions::default()).expect("subscribe agg");
    assert_eq!(svc.subscriptions().count(), 2);
    assert!(svc.reserved() > 0.0, "standing views hold workspace grants");

    // Another session cannot poll or tear down someone else's subscription.
    let mut other = WireClient::connect(&addr, 0).expect("connect other");
    let failure = other.poll_sub(s1, 0).expect("wire").expect_err("foreign poll");
    assert_eq!(failure.code, RqpError::Invalid(String::new()).wire_code());
    let failure = other.unsubscribe(s1).expect("wire").expect_err("foreign unsubscribe");
    assert_eq!(failure.code, RqpError::Invalid(String::new()).wire_code());
    assert_eq!(svc.subscriptions().count(), 2, "foreign frames must not tear down");

    // Vanish without GOODBYE: the server must notice the dead peer and
    // tear down every standing subscription — zero grants, zero pins,
    // empty registry.
    drop(doomed);
    await_until(|| svc.subscriptions().count() == 0, "subscription teardown");
    // `unsubscribe` returns the broker grant before it delists the entry.
    assert_eq!(svc.reserved(), 0.0, "teardown leaked workspace grants");
    assert_eq!(svc.pager().expect("paged service").pins(), 0, "teardown leaked page pins");
    await_until(
        || svc.metrics().counter("wire.subs.torn_down").get() == 2,
        "teardown counter",
    );

    // The survivor's session is untouched and fully functional.
    let s2 = other
        .subscribe(&wide_scan(), WireSubscribeOptions::default())
        .expect("subscribe after churn");
    other.append("lineitem", vec![fresh_lineitem(1)]).expect("wire").expect("append");
    let (d, lag) = other.poll_sub(s2, 0).expect("wire").expect("poll");
    assert_eq!(d.inserted.len(), 1);
    assert_eq!(lag, 0);
    other.unsubscribe(s2).expect("wire").expect("unsubscribe");
    other.goodbye().expect("goodbye");
    drop(server);
}

/// APPEND then SUBMIT: plans that probe `lineitem`'s indexes see the appended
/// rows exactly as a filtered scan does, and a query submitted before the
/// APPEND but drained after it returns the rows of its own epoch.
#[test]
fn appended_rows_reach_index_plans_over_the_wire() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);
    let point_join = point_join(7);
    let scan = |pred| {
        QuerySpec::new()
            .table("lineitem")
            .filter("lineitem", pred)
            .project(&["lineitem.orderkey", "lineitem.partkey", "lineitem.extendedprice"])
    };
    let indexed = scan(col("lineitem.orderkey").eq(lit(7i64)));
    let unindexed = scan(col("lineitem.orderkey").add(lit(0i64)).eq(lit(7i64)));
    for (spec, probes_index) in [(&point_join, true), (&indexed, true), (&unindexed, false)] {
        let plan = svc.run_solo(spec).expect("solo run").fingerprint;
        assert_eq!(plan.contains("ix"), probes_index, "unexpected plan {plan}");
    }

    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let rows_of = |client: &mut WireClient, spec: &QuerySpec| {
        let out = client.run(spec, WireQueryOptions::default()).expect("wire").expect("query");
        let mut rows = out.rows;
        rows.sort();
        rows
    };
    let before = rows_of(&mut client, &indexed).len();
    assert!(before > 0, "order 7 has lineitems in the generated data");
    assert_eq!(rows_of(&mut client, &point_join).len(), before);

    let early = client.submit(&point_join, WireQueryOptions::default()).expect("submit");
    await_until(|| svc.completions().iter().any(|c| c.query == early), "the early query to run");
    let fresh: Vec<Row> = (0..16)
        .map(|k| {
            let mut row = fresh_lineitem(k);
            row[0] = Value::Int(7);
            row
        })
        .collect();
    client.append("lineitem", fresh).expect("wire").expect("append");
    let drained = client.fetch(early).expect("wire").expect("early query");
    assert_eq!(drained.rows.len(), before, "a query keeps the epoch it was admitted in");

    let via_scan = rows_of(&mut client, &unindexed);
    assert_eq!(via_scan.len(), before + 16);
    assert_eq!(rows_of(&mut client, &indexed), via_scan, "index scan is stale after APPEND");
    let joined = rows_of(&mut client, &point_join);
    assert_eq!(joined.len(), before + 16, "index join is stale after APPEND");
    client.goodbye().expect("goodbye");
    drop(server);
}

/// An APPEND frame carries `i64`s whatever width the columns are stored at:
/// one row past `i8` (`quantity`), `i16` (`shipdate`) and `i32` (`orderkey`)
/// re-encodes all three, and both index plans and a filtered scan read it
/// back whole.
#[test]
fn widening_append_over_the_wire_reads_back_on_index_and_scan_plans() {
    let db = small_db();
    let svc = service(&db, 2);
    let (server, addr) = start(&svc);
    let mut client = WireClient::connect(&addr, 0).expect("connect");
    let mut wide = fresh_lineitem(1);
    (wide[0], wide[3], wide[6]) = (Value::Int(i64::MAX), Value::Int(300), Value::Int(40_000));
    client.append("lineitem", vec![wide]).expect("wire").expect("append");

    let want = vec![vec![Value::Int(i64::MAX), Value::Int(40_000), Value::Int(300)]];
    for (pred, probes_index) in [
        (col("lineitem.orderkey").eq(lit(i64::MAX)), true),
        (col("lineitem.shipdate").eq(lit(40_000i64)), true),
        (col("lineitem.quantity").add(lit(0i64)).eq(lit(300i64)), false),
    ] {
        let spec = QuerySpec::new().table("lineitem").filter("lineitem", pred).project(&[
            "lineitem.orderkey",
            "lineitem.shipdate",
            "lineitem.quantity",
        ]);
        let plan = svc.run_solo(&spec).expect("solo run").fingerprint;
        assert_eq!(plan.contains("ix"), probes_index, "unexpected plan {plan}");
        let out = client.run(&spec, WireQueryOptions::default()).expect("wire").expect("query");
        assert_eq!(out.rows, want, "plan {plan}");
    }
    client.goodbye().expect("goodbye");
    drop(server);
}

#[test]
fn a07_runs_real_client_processes_and_scoreboard_v5_gates_the_wire_metrics() {
    // Cargo built our own bins for this integration test, so the loadgen
    // path is authoritative.
    let dir = std::env::temp_dir().join(format!("rqp_a07_gate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = rqp_bench::experiments::RunEnv {
        loadgen_bin: env!("CARGO_BIN_EXE_rqp-loadgen").into(),
        ..rqp_bench::experiments::RunEnv::new(true, dir.clone())
    };
    let summary = rqp_bench::experiments::wire::a07_wire_service(&env);
    assert!(summary.contains("A07"), "experiment produced no summary");

    let board = Scoreboard::from_dir(&dir).expect("fold the a07 run report");
    let entry = board.entries.get("a07_wire_service").expect("a07 entry");
    assert!(entry.get("wire_tail_p99").is_finite() && entry.get("wire_tail_p99") >= 1.0);
    assert!(entry.get("wire_tail_p999").is_finite() && entry.get("wire_tail_p999") >= 1.0);
    assert_eq!(entry.get("wire_churn_recovery"), 1.0, "every disconnect must be reaped");
    assert_eq!(entry.get("wire_backpressure_pages"), 1.0, "credits must bound buffering");

    // The diff gate must trip when any wire metric degrades past its
    // threshold relative to this run as baseline.
    let mut worse = board.clone();
    {
        let e = worse.entries.get_mut("a07_wire_service").unwrap();
        e.set("wire_tail_p99", e.get("wire_tail_p99") * 2.0 + 1.0);
        e.set("wire_tail_p999", e.get("wire_tail_p999") * 2.0 + 1.0);
        e.set("wire_churn_recovery", 0.5);
        e.set("wire_backpressure_pages", e.get("wire_backpressure_pages") + 5.0);
    }
    let regressions = board.diff(&worse);
    let metrics: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
    for gate in
        ["wire_tail_p99", "wire_tail_p999", "wire_churn_recovery", "wire_backpressure_pages"]
    {
        assert!(metrics.contains(&gate), "{gate} gate missing: {metrics:?}");
    }

    // And the clean self-diff must pass.
    assert!(board.diff(&board).is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}
