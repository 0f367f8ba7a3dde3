//! The five workloads: what each connection sends, derived from the seed
//! alone, and the oracle every result is checked against.
//!
//! All five run against the same generated database with two closed-loop
//! connections; they differ in which layer does the work (README,
//! "Workloads").

use rand::rngs::StdRng;
use rand::Rng;
use rqp_common::expr::{col, lit};
use rqp_common::rng::{child_seed, seeded};
use rqp_common::{Row, Value};
use rqp_opt::QuerySpec;
use rqp_server::{QueryService, ServiceConfig};
use rqp_stream::canonicalize;
use rqp_workload::tpch::{TpchParams, DATE_DOMAIN};
use rqp_workload::TpchDb;
use std::collections::HashMap;
use std::sync::Arc;

/// Closed-loop connections per workload; `nproc` is 2 on the reference box.
pub const CONNECTIONS: usize = 2;
/// Rows appended per `stream_append` cycle.
pub const APPEND_ROWS: usize = 16;
/// Rows per logical page of the buffer pool (`lineitem` at 200 000 rows is
/// 2 000 pages).
const POOL_PAGE_ROWS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OltpPoint,
    OlapScan,
    OlapPaged,
    WideFetch,
    StreamAppend,
}

pub const ALL: [Kind; 5] = [
    Kind::OltpPoint,
    Kind::OlapScan,
    Kind::OlapPaged,
    Kind::WideFetch,
    Kind::StreamAppend,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::OltpPoint => "oltp_point",
            Kind::OlapScan => "olap_scan",
            Kind::OlapPaged => "olap_paged",
            Kind::WideFetch => "wide_fetch",
            Kind::StreamAppend => "stream_append",
        }
    }

    /// Why the workload exists — the same line `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Kind::OltpPoint => "4-row index join, 80% from 64 hot keys: per-query fixed cost (frames, round trips, plan-cache hit or cold plan) does all the work",
            Kind::OlapScan => "q1/q6/q3/q5 over 64 parameter sets, tables resident: scan, join and aggregate do the work, the wire path almost none",
            Kind::OlapPaged => "the same queries with a buffer pool of 25% of lineitem: every scan pins, evicts and refaults; the larger-than-cache workload",
            Kind::WideFetch => "1250-1750 of 5000 customer rows per query: result encode, paging credits, decode and checksum do the work; olap_scan is its bypass",
            Kind::StreamAppend => "append 16 rows then poll an own subscription to lag 0: writes beside reads, changelog, invalidation and delta circuits",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// The server's buffer-pool budget: a quarter of `lineitem`'s pages on
    /// `olap_paged`, fully resident tables everywhere else.
    pub fn page_budget(self, lineitem_rows: usize) -> Option<usize> {
        (self == Kind::OlapPaged).then(|| (lineitem_rows / POOL_PAGE_ROWS / 4).max(1))
    }
}

/// The database every workload runs on, built identically (same parameters,
/// same seed) by the server child and by the client's oracle.
pub fn build_db(lineitem_rows: usize, seed: u64) -> TpchDb {
    TpchDb::build(
        TpchParams {
            lineitem_rows,
            ..Default::default()
        },
        seed,
    )
}

/// The service configuration of the server child — and of the oracle, so
/// both plan with the same budgets.
pub fn service_config(page_budget: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        page_budget,
        ..Default::default()
    }
}

/// One primary operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Submit `spec` and drain its result; `id` names the spec for the
    /// oracle (menu index, or the order key on `oltp_point`).
    Query { id: u64, spec: QuerySpec },
    /// Append these `lineitem` rows, then poll the connection's own
    /// subscription until its lag is 0.
    Cycle { rows: Vec<Row> },
}

fn point_spec(orderkey: i64) -> QuerySpec {
    QuerySpec::new()
        .join("orders", "orderkey", "lineitem", "orderkey")
        .filter("orders", col("orders.orderkey").eq(lit(orderkey)))
        .project(&[
            "orders.orderkey",
            "orders.totalprice",
            "lineitem.extendedprice",
        ])
}

fn wide_spec(threshold: f64) -> QuerySpec {
    QuerySpec::new()
        .table("customer")
        .filter("customer", col("customer.acctbal").ge(lit(threshold)))
        .project(&[
            "customer.custkey",
            "customer.nationkey",
            "customer.mktsegment",
            "customer.acctbal",
        ])
}

/// The bounded spec set of a workload, drawn from the seed: 64 analytic
/// specs, 16 wide fetches, or the two standing-subscription shapes. Empty
/// on `oltp_point`, whose specs are one per order key.
pub fn menu(kind: Kind, seed: u64, db: &TpchDb) -> Vec<QuerySpec> {
    let mut rng = seeded(child_seed(seed, "menu"));
    match kind {
        Kind::OltpPoint => Vec::new(),
        Kind::OlapScan | Kind::OlapPaged => {
            // q1, q6, q3, q5 in equal shares; 16 parameter sets each, one per
            // stratum of a narrow parameter range, jittered and visited in
            // an order the seed picks. The literals only have to differ (64
            // plan-cache keys); a template's 16 variants do about the same
            // work, and every seed runs the same spread of it — the seed
            // moves literals and data, not how heavy the mix is.
            let mut strata = |n: i64| -> Vec<i64> {
                let mut order: Vec<i64> = (0..n).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                order
            };
            let (s1, s6, s3, s5) = (strata(16), strata(16), strata(16), strata(16));
            let mut specs = Vec::with_capacity(64);
            for i in 0..16 {
                let jitter = |rng: &mut StdRng, stratum: i64, width: i64| {
                    stratum * width + rng.gen_range(0..width)
                };
                specs.push(db.q1(jitter(&mut rng, s1[i], 7)));
                specs.push(db.q6(
                    jitter(&mut rng, s6[i], 120),
                    0.02 + 0.00375 * s6[i] as f64,
                    24 + (s6[i] * 13) % 26,
                ));
                specs.push(
                    db.q3(s3[i] % 5, 1200 + jitter(&mut rng, s3[i], 10))
                        .limit(10),
                );
                specs.push(db.q5(s5[i] % 4, 21 + s5[i] % 4, 600 + jitter(&mut rng, s5[i], 20)));
            }
            specs
        }
        Kind::WideFetch => (0..16)
            .map(|_| {
                // acctbal is uniform over [-999, 9999): a threshold at
                // 9999 - f * 10998 keeps a fraction f of the rows.
                let keep: f64 = rng.gen_range(0.25..0.35);
                wide_spec(9999.0 - keep * 10_998.0)
            })
            .collect(),
        Kind::StreamAppend => {
            // A narrow date range: the q3 view's size, and with it the
            // server's memory, must not depend on the seed.
            let mut specs = vec![
                db.q1(rng.gen_range(0..120)),
                db.q3(rng.gen_range(0..5), rng.gen_range(1200..1300)),
            ];
            // Standing views are unordered sets; the server rejects
            // ORDER BY / LIMIT on a subscription.
            for s in &mut specs {
                s.order_by.clear();
                s.limit = None;
            }
            specs
        }
    }
}

/// `lineitem.orderkey`, row by row: the keys `oltp_point` draws from. A
/// key drawn here has at least one `lineitem` row, so no point query comes
/// back empty — the server sends the DONE of an empty result without
/// waiting for a credit, and now and then before its own SUBMIT_ACK, which
/// `WireClient` reads as a protocol error (README, "What the seed commit
/// showed"). Workloads are chosen so that no operation fails.
fn lineitem_orderkeys(db: &TpchDb) -> Vec<i64> {
    let lineitem = db
        .catalog
        .table("lineitem")
        .expect("the generated database has lineitem");
    let keys = lineitem
        .column_by_name("orderkey")
        .expect("lineitem has orderkey");
    keys.as_int_slice()
        .expect("orderkey is an integer column")
        .to_vec()
}

/// The 64 hot order keys of `oltp_point`.
fn hot_keys(seed: u64, keys: &[i64]) -> Vec<i64> {
    let mut rng = seeded(child_seed(seed, "hot"));
    (0..64)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect()
}

/// One connection's operation sequence: a pure function of
/// `(workload, seed, connection)`. Made by [`Oracle::op_gen`].
pub struct OpGen {
    kind: Kind,
    rng: StdRng,
    /// What is left of the current lap over the menu.
    lap: Vec<usize>,
    keys: Arc<Vec<i64>>,
    hot: Arc<Vec<i64>>,
    menu: Arc<Vec<QuerySpec>>,
}

impl OpGen {
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::OltpPoint => {
                let key = if self.rng.gen_range(0..100) < 80 {
                    self.hot[self.rng.gen_range(0..self.hot.len())]
                } else {
                    self.keys[self.rng.gen_range(0..self.keys.len())]
                };
                Op::Query {
                    id: key as u64,
                    spec: point_spec(key),
                }
            }
            Kind::OlapScan | Kind::OlapPaged | Kind::WideFetch => {
                // Laps over the menu, each in a fresh random order: every
                // spec runs equally often, and which specs of the two
                // connections meet on the server is redrawn all the time. A
                // fixed round-robin lets the connections fall into step, and
                // whether heavy queries then meet heavy or light ones differs
                // from run to run — it moved `lat_p90_ms` by tens of percent.
                if self.lap.is_empty() {
                    self.lap = (0..self.menu.len()).collect();
                    for i in (1..self.lap.len()).rev() {
                        self.lap.swap(i, self.rng.gen_range(0..=i));
                    }
                }
                let id = self.lap.pop().expect("a lap is never empty here");
                Op::Query {
                    id: id as u64,
                    spec: self.menu[id].clone(),
                }
            }
            Kind::StreamAppend => {
                let rows = (0..APPEND_ROWS).map(|_| self.lineitem_row()).collect();
                Op::Cycle { rows }
            }
        }
    }

    /// A fresh `lineitem` row. Float columns are dyadic so the maintained
    /// SUM/AVG stay bit-exact however appends and polls interleave.
    fn lineitem_row(&mut self) -> Row {
        let k = self.rng.gen_range(0..1_000_000i64);
        vec![
            Value::Int(self.keys[self.rng.gen_range(0..self.keys.len())]),
            Value::Int(k % 20),
            Value::Int(k % 10),
            Value::Int(1 + k % 50),
            Value::Float(1_000.0 + (k % 100) as f64 * 0.25),
            Value::Float((k % 5) as f64 * 0.015_625),
            Value::Int(k % DATE_DOMAIN),
            Value::Int(k % 3),
        ]
    }
}

/// What the oracle says a spec returns.
pub struct Expected {
    /// The rows in the order the oracle's run returned them.
    rows: Vec<Row>,
    /// The same rows in canonical order, when the spec has no ORDER BY and
    /// its answer is therefore a multiset.
    sorted: Option<Vec<Row>>,
}

/// Relative difference below which two floats are the same answer. The
/// service's float SUMs are not bit-stable: a replan under new feedback
/// changes the order rows are added in, and the last bit with it — which is
/// why results are compared as rows and not by `rows_checksum`.
const FLOAT_TOLERANCE: f64 = 1e-9;

pub fn same_row(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::Float(x), Value::Float(y)) => {
                x == y || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
            }
            (x, y) => x == y,
        })
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_row(a, b))
}

impl Expected {
    pub fn of(spec: &QuerySpec, rows: Vec<Row>) -> Expected {
        let sorted = spec.order_by.is_empty().then(|| canonicalize(rows.clone()));
        Expected { rows, sorted }
    }

    /// Whether `got` is this answer: row for row under an ORDER BY, as a
    /// multiset otherwise. The server usually returns the oracle's order,
    /// so the sort is paid only when it does not.
    pub fn matches(&self, got: &[Row]) -> bool {
        same_rows(got, &self.rows)
            || self
                .sorted
                .as_ref()
                .is_some_and(|sorted| same_rows(&canonicalize(got.to_vec()), sorted))
    }
}

/// The result oracle: an identically seeded database behind an in-process
/// service; the expected rows of a spec are what `run_solo` returns. It is
/// also where the workload's inputs live, since both come from the seed.
pub struct Oracle {
    pub db: TpchDb,
    pub svc: QueryService,
    pub kind: Kind,
    seed: u64,
    keys: Arc<Vec<i64>>,
    hot: Arc<Vec<i64>>,
    menu: Arc<Vec<QuerySpec>>,
    known: Arc<HashMap<u64, Expected>>,
}

impl Oracle {
    pub fn build(kind: Kind, lineitem_rows: usize, seed: u64) -> Oracle {
        let db = build_db(lineitem_rows, seed);
        let svc = QueryService::new(&db.catalog, service_config(kind.page_budget(lineitem_rows)));
        let menu = Arc::new(menu(kind, seed, &db));
        let keys = Arc::new(lineitem_orderkeys(&db));
        Oracle {
            db,
            svc,
            kind,
            seed,
            hot: Arc::new(hot_keys(seed, &keys)),
            keys,
            menu,
            known: Arc::default(),
        }
    }

    pub fn menu(&self) -> &[QuerySpec] {
        &self.menu
    }

    /// The operation sequence of connection `conn`.
    pub fn op_gen(&self, conn: usize) -> OpGen {
        // `olap_paged` is `olap_scan`'s sequence, operation for operation.
        let sequence = match self.kind {
            Kind::OlapPaged => Kind::OlapScan,
            kind => kind,
        };
        let stream = format!("{}/conn{conn}", sequence.name());
        OpGen {
            kind: self.kind,
            rng: seeded(child_seed(self.seed, &stream)),
            lap: Vec::new(),
            keys: Arc::clone(&self.keys),
            hot: Arc::clone(&self.hot),
            menu: Arc::clone(&self.menu),
        }
    }

    /// The spec an operation id stands for.
    fn spec_of(&self, id: u64) -> QuerySpec {
        match self.kind {
            Kind::OltpPoint => point_spec(id as i64),
            _ => self.menu[id as usize].clone(),
        }
    }

    /// The answers computed up front, shared with the connection threads.
    pub fn known(&self) -> &Arc<HashMap<u64, Expected>> {
        &self.known
    }

    /// Answer every bounded spec set up front — the menu, or `oltp_point`'s
    /// hot keys — on one thread per connection's worth of cores: the
    /// service is shared and `run_solo` takes `&self`. `stream_append`'s
    /// specs are views, not operations, and are not answered here.
    pub fn answer_up_front(&mut self) {
        let ids: Vec<u64> = match self.kind {
            Kind::OltpPoint => self.hot.iter().map(|&k| k as u64).collect(),
            Kind::StreamAppend => Vec::new(),
            _ => (0..self.menu.len() as u64).collect(),
        };
        let specs: Vec<(u64, QuerySpec)> =
            ids.into_iter().map(|id| (id, self.spec_of(id))).collect();
        let svc = &self.svc;
        let known: HashMap<u64, Expected> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|w| {
                    let mine = specs.iter().skip(w).step_by(CONNECTIONS);
                    scope.spawn(move || {
                        mine.filter_map(|(id, spec)| {
                            Some((*id, Expected::of(spec, svc.run_solo(spec).ok()?.rows)))
                        })
                        .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        });
        self.known = Arc::new(known);
    }

    /// Whether `got` is what spec `id` returns, for an id that was not
    /// answered up front. False if the oracle itself fails.
    pub fn check(&self, id: u64, got: &[Row]) -> bool {
        let spec = self.spec_of(id);
        self.svc
            .run_solo(&spec)
            .is_ok_and(|solo| Expected::of(&spec, solo.rows).matches(got))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequences_depend_only_on_the_seed() {
        for kind in ALL {
            // `cache_key`, not `Debug`: a spec's predicate map prints in
            // hash order.
            let draw = |seed| {
                let mut g = Oracle::build(kind, 4_000, seed).op_gen(1);
                let print = |op| match op {
                    Op::Query { id, spec } => format!("{id} {}", spec.cache_key()),
                    Op::Cycle { rows } => format!("{rows:?}"),
                };
                (0..20).map(|_| print(g.next_op())).collect::<Vec<_>>()
            };
            assert_eq!(draw(7), draw(7), "{}", kind.name());
            assert_ne!(draw(7), draw(8), "{}", kind.name());
        }
    }

    #[test]
    fn menus_have_the_documented_shape() {
        let db = build_db(4_000, 7);
        let olap = menu(Kind::OlapScan, 7, &db);
        assert_eq!(olap.len(), 64);
        let keys: std::collections::HashSet<String> = olap.iter().map(|s| s.cache_key()).collect();
        assert_eq!(keys.len(), 64, "64 distinct specs");
        assert_eq!(menu(Kind::OlapPaged, 7, &db).len(), 64);
        assert_eq!(menu(Kind::WideFetch, 7, &db).len(), 16);
        let subs = menu(Kind::StreamAppend, 7, &db);
        assert!(subs
            .iter()
            .all(|s| s.order_by.is_empty() && s.limit.is_none()));
        assert_eq!(Kind::OlapPaged.page_budget(200_000), Some(500));
        assert_eq!(Kind::OlapScan.page_budget(200_000), None);
    }

    #[test]
    fn answers_match_up_to_order_and_the_last_float_bit() {
        let row = |k: i64, x: f64| vec![Value::Int(k), Value::Float(x)];
        let unordered = QuerySpec::new().table("t");
        let set = Expected::of(&unordered, vec![row(2, 0.3), row(1, 46106.50364557203)]);
        assert!(set.matches(&[row(1, 46106.503645572026), row(2, 0.3)]));
        assert!(!set.matches(&[row(1, 46106.6), row(2, 0.3)]));
        assert!(!set.matches(&[row(2, 0.3)]));
        let list = Expected::of(&unordered.order(&["t.k"]), vec![row(2, 0.3), row(1, 0.5)]);
        assert!(list.matches(&[row(2, 0.3), row(1, 0.5)]));
        assert!(!list.matches(&[row(1, 0.5), row(2, 0.3)]));
    }
}
