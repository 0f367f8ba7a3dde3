//! Adaptive indexing: database cracking vs adaptive merging vs the
//! scan/full-index extremes.
//!
//! Reproduces the seminar's adaptive-indexing story (Idreos/Kersten/Manegold
//! cracking; Graefe/Kuno adaptive merging): with no idle time and an unknown
//! workload, an index can be built *as a side effect of queries*. Watch the
//! per-query cost converge.
//!
//! ```sh
//! cargo run --release -p rqp --example adaptive_indexing
//! ```

use rqp::common::rng::seeded;
use rqp::common::rule;
use rqp::exec::{AMergeScanOp, CrackerScanOp, ExecContext, IndexScanOp, Operator, TableScanOp};
use rqp::metrics::ReportTable;
use rqp::storage::{AdaptiveMergeIndex, CrackerColumn};
use rqp::{Catalog, DataType, Schema, Table, Value};
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

const ROWS: usize = 200_000;
const QUERIES: usize = 20;
const RANGE: i64 = 2_000; // ~1% selectivity

fn drain(op: &mut dyn Operator) -> usize {
    let mut n = 0;
    while op.next().is_some() {
        n += 1;
    }
    n
}

fn main() {
    // One integer column, randomly permuted.
    let mut rng = seeded(2024);
    let mut catalog = Catalog::new();
    let mut t = Table::new("t", Schema::from_pairs(&[("k", DataType::Int)]));
    for _ in 0..ROWS {
        t.append(vec![Value::Int(rng.gen_range(0..ROWS as i64))]);
    }
    // The adaptive indexes belong to whoever queries through them.
    let cracker = Rc::new(RefCell::new(CrackerColumn::over(&t, "k").unwrap()));
    let merger = Rc::new(RefCell::new(AdaptiveMergeIndex::over(&t, "k", 0).unwrap()));
    catalog.add_table(t);

    // The "eager index" contender pays its build cost up front: we charge a
    // full sort's worth of comparisons on a dedicated clock.
    let eager_ctx = ExecContext::unbounded();
    eager_ctx.clock.charge(&rule::runs(ROWS as f64));
    catalog.create_index("ix_t_k", "t", &["k"]).unwrap();

    let scan_ctx = ExecContext::unbounded();
    let crack_ctx = ExecContext::unbounded();
    let amerge_ctx = ExecContext::unbounded();

    let mut table = ReportTable::new(&[
        "query", "scan", "crack", "amerge", "eager-index", "crack pieces",
    ]);
    let mut prev = [0.0f64; 4];
    for q in 0..QUERIES {
        let lo = rng.gen_range(0..(ROWS as i64 - RANGE));
        let hi = lo + RANGE - 1;

        let mut scan = TableScanOp::new(catalog.table("t").unwrap(), scan_ctx.clone());
        drain(&mut scan); // full scan each time (filtering omitted: same cost)

        let mut crack = CrackerScanOp::new(
            Rc::clone(&cracker),
            catalog.table("t").unwrap(),
            lo,
            hi,
            crack_ctx.clone(),
        );
        let crack_rows = drain(&mut crack);

        let mut amerge = AMergeScanOp::new(
            Rc::clone(&merger),
            catalog.table("t").unwrap(),
            lo,
            hi,
            amerge_ctx.clone(),
        );
        let amerge_rows = drain(&mut amerge);
        assert_eq!(crack_rows, amerge_rows, "all access paths agree");

        let mut ix = IndexScanOp::new(
            catalog.index("ix_t_k").unwrap(),
            catalog.table("t").unwrap(),
            Vec::new(),
            Some(Value::Int(lo)),
            Some(Value::Int(hi)),
            eager_ctx.clone(),
        );
        drain(&mut ix);

        let now = [
            scan_ctx.clock.now(),
            crack_ctx.clock.now(),
            amerge_ctx.clock.now(),
            eager_ctx.clock.now(),
        ];
        let pieces = cracker.borrow().pieces();
        table.row(&[
            format!("{q}"),
            format!("{:.0}", now[0] - prev[0]),
            format!("{:.0}", now[1] - prev[1]),
            format!("{:.0}", now[2] - prev[2]),
            format!("{:.0}", now[3] - prev[3]),
            format!("{pieces}"),
        ]);
        prev = now;
    }
    println!("Per-query cost (cost units); eager-index includes its up-front build in query 0 totals below\n{table}");
    println!(
        "cumulative: scan {:.0} | crack {:.0} | amerge {:.0} | eager index (incl. build) {:.0}",
        scan_ctx.clock.now(),
        crack_ctx.clock.now(),
        amerge_ctx.clock.now(),
        eager_ctx.clock.now(),
    );
    println!(
        "\nThe adaptive methods start near the scan and converge toward the \
         index,\nwithout ever paying the full build for ranges nobody queries."
    );
}
