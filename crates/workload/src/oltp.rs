//! Order-entry OLTP simulation (TPC-C-flavoured) for the mixed-workload
//! benchmark.
//!
//! The seminar's "Benchmarking Hybrid OLTP & OLAP Database Workloads"
//! break-out proposes TPC-CH: a transactional order-entry stream sharing
//! tables with an analytic query suite. [`OltpSimulator`] issues `new-order`
//! and `payment` transactions against catalog tables — point index lookups
//! plus appends — charging the same cost clock as the analytic side, so both
//! halves of the mixed workload are measured in one currency.

use rand::rngs::StdRng;
use rand::Rng;
use rqp_common::rng::{child_seed, seeded};
use rqp_common::{rule, Value};
use rqp_exec::ExecContext;
use rqp_storage::Catalog;

/// The OLTP driver.
pub struct OltpSimulator {
    /// The shared catalog (customer/orders/lineitem — typically a
    /// [`TpchDb`](crate::tpch::TpchDb)'s).
    pub catalog: Catalog,
    ctx: ExecContext,
    rng: StdRng,
    next_orderkey: i64,
    /// Transactions executed.
    pub transactions: usize,
}

/// Per-transaction cost outcome.
#[derive(Debug, Clone, Copy)]
pub struct TxnOutcome {
    /// Cost units charged.
    pub cost: f64,
    /// Rows written.
    pub rows_written: usize,
}

impl OltpSimulator {
    /// Wrap a catalog containing `customer`, `orders` and `lineitem` tables
    /// (with an index on `customer.custkey`).
    pub fn new(catalog: Catalog, ctx: ExecContext, seed: u64) -> Self {
        let next_orderkey = catalog
            .table("orders")
            .map(|t| t.nrows() as i64)
            .unwrap_or(0);
        OltpSimulator {
            catalog,
            ctx,
            rng: seeded(child_seed(seed, "oltp")),
            next_orderkey,
            transactions: 0,
        }
    }

    fn point_lookup(&self, table: &str, column: &str, key: i64) -> usize {
        // Charge a B-tree descent + one random page, like IndexScanOp.
        if let Some(ix) = self.catalog.index_on(table, column) {
            self.ctx.clock.charge(&rule::descend(ix.entries() as f64));
            let rids = ix.lookup_eq(&Value::Int(key));
            self.ctx.clock.charge(&rule::random_pages(1.0));
            self.ctx.clock.charge(&rule::emit(rids.len() as f64));
            rids.len()
        } else if let Ok(t) = self.catalog.table(table) {
            // No index: a full scan per lookup — the workload-manager
            // experiments use this to model an unindexed disaster.
            let rows = t.nrows() as f64;
            self.ctx.clock.charge(&rule::scan(self.ctx.clock.params().pages(rows), rows));
            t.column_by_name(column)
                .map(|c| {
                    c.iter_values()
                        .filter(|v| *v == Value::Int(key))
                        .count()
                })
                .unwrap_or(0)
        } else {
            0
        }
    }

    /// A `new-order` transaction: customer lookup, order append, 1–7
    /// lineitem appends.
    pub fn new_order(&mut self) -> TxnOutcome {
        let start = self.ctx.clock.now();
        let cust_n = self
            .catalog
            .table("customer")
            .map(|t| t.nrows())
            .unwrap_or(1)
            .max(1);
        let custkey = self.rng.gen_range(0..cust_n as i64);
        self.point_lookup("customer", "custkey", custkey);

        let orderkey = self.next_orderkey;
        self.next_orderkey += 1;
        let orderdate = self.rng.gen_range(0..crate::tpch::DATE_DOMAIN);
        let total = self.rng.gen_range(100.0..10_000.0);
        let mut written = 0usize;
        let order = vec![
            Value::Int(orderkey),
            Value::Int(custkey),
            Value::Int(orderdate),
            Value::Float(total),
        ];
        if self.catalog.append_rows("orders", vec![order]).is_ok() {
            written += 1;
        }
        let items = self.rng.gen_range(1..=7);
        let li_arity = self
            .catalog
            .table("lineitem")
            .map(|t| t.schema().len())
            .unwrap_or(0);
        for _ in 0..items {
            if li_arity == 8 {
                let row = vec![
                    Value::Int(orderkey),
                    Value::Int(self.rng.gen_range(0..100)),
                    Value::Int(self.rng.gen_range(0..5)),
                    Value::Int(self.rng.gen_range(1..50)),
                    Value::Float(self.rng.gen_range(900.0..105_000.0)),
                    Value::Float(self.rng.gen_range(0.0..0.1)),
                    Value::Int(orderdate),
                    Value::Int(self.rng.gen_range(0..3)),
                ];
                if self.catalog.append_rows("lineitem", vec![row]).is_ok() {
                    written += 1;
                }
            }
        }
        // Write cost: one page-ish of log per transaction + per-row CPU.
        self.ctx.clock.charge(&rule::emit(written as f64));
        self.ctx.clock.charge(&rule::random_pages(1.0));
        self.transactions += 1;
        TxnOutcome { cost: self.ctx.clock.now() - start, rows_written: written }
    }

    /// A `payment` transaction: two point lookups + one logical update.
    pub fn payment(&mut self) -> TxnOutcome {
        let start = self.ctx.clock.now();
        let cust_n = self
            .catalog
            .table("customer")
            .map(|t| t.nrows())
            .unwrap_or(1)
            .max(1);
        let custkey = self.rng.gen_range(0..cust_n as i64);
        self.point_lookup("customer", "custkey", custkey);
        let ord_n = self.catalog.table("orders").map(|t| t.nrows()).unwrap_or(1).max(1);
        let orderkey = self.rng.gen_range(0..ord_n as i64);
        self.point_lookup("orders", "orderkey", orderkey);
        self.ctx.clock.charge(&rule::random_pages(1.0)); // in-place update write
        self.transactions += 1;
        TxnOutcome { cost: self.ctx.clock.now() - start, rows_written: 0 }
    }

    /// Run a stream of `n` transactions (90% new-order, 10% payment) and
    /// return mean cost per transaction.
    pub fn run_stream(&mut self, n: usize) -> f64 {
        let mut total = 0.0;
        for i in 0..n {
            let out = if i % 10 == 9 { self.payment() } else { self.new_order() };
            total += out.cost;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{TpchDb, TpchParams};

    fn sim() -> OltpSimulator {
        let db = TpchDb::build(TpchParams { lineitem_rows: 2000, ..Default::default() }, 9);
        OltpSimulator::new(db.catalog, ExecContext::unbounded(), 9)
    }

    #[test]
    fn new_order_appends_rows() {
        let mut s = sim();
        let before = s.catalog.table("orders").unwrap().nrows();
        let out = s.new_order();
        assert!(out.cost > 0.0);
        assert!(out.rows_written >= 2, "order + ≥1 lineitem");
        assert_eq!(s.catalog.table("orders").unwrap().nrows(), before + 1);
    }

    /// The order and its lineitems reach the `orderkey` indexes, so a later
    /// point lookup (or index plan) finds what `new_order` wrote.
    #[test]
    fn new_order_rows_reach_the_orderkey_indexes() {
        let mut s = sim();
        let orderkey = s.catalog.table("orders").unwrap().nrows() as i64;
        let out = s.new_order();
        let mut indexed = 0;
        for table in ["orders", "lineitem"] {
            let t = s.catalog.table(table).unwrap();
            let scanned: Vec<usize> = (0..t.nrows())
                .filter(|&i| t.value(i, "orderkey").unwrap() == Value::Int(orderkey))
                .collect();
            let ix = s.catalog.index_on(table, "orderkey").expect("TPC-H orderkey index");
            let found: Vec<usize> = ix.lookup_eq(&Value::Int(orderkey)).collect();
            assert_eq!(found, scanned, "{table}.orderkey index vs a scan");
            assert_eq!(ix.entries(), t.nrows(), "{table}: every row indexed");
            indexed += found.len();
        }
        assert_eq!(indexed, out.rows_written, "the order and each of its lineitems");
    }

    #[test]
    fn payment_costs_comparable_and_writes_nothing() {
        let mut s = sim();
        let mut no = 0.0;
        let mut pay = 0.0;
        for _ in 0..20 {
            no += s.new_order().cost;
            let p = s.payment();
            assert_eq!(p.rows_written, 0);
            pay += p.cost;
        }
        // Both are short point-access transactions of the same order of
        // magnitude (payment does one more index probe, new-order writes).
        assert!(pay > 0.0 && no > 0.0);
        assert!(pay < no * 3.0 && no < pay * 3.0, "payment {pay} vs new_order {no}");
    }

    #[test]
    fn stream_accumulates_transactions() {
        let mut s = sim();
        let mean = s.run_stream(50);
        assert!(mean > 0.0);
        assert_eq!(s.transactions, 50);
    }

    #[test]
    fn unindexed_lookup_is_a_scan() {
        let db = TpchDb::build(
            TpchParams { lineitem_rows: 2000, with_indexes: false, ..Default::default() },
            9,
        );
        let ctx = ExecContext::unbounded();
        let mut s = OltpSimulator::new(db.catalog, ctx.clone(), 9);
        let out = s.payment();
        // Without indexes the point lookups degrade to scans — visibly
        // more expensive.
        assert!(out.cost > 5.0, "got {}", out.cost);
    }

    #[test]
    fn empty_catalog_does_not_panic() {
        let mut s = OltpSimulator::new(Catalog::new(), ExecContext::unbounded(), 1);
        let out = s.new_order();
        assert_eq!(out.rows_written, 0);
    }
}
