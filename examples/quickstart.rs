//! Quickstart: build a database, load data, run queries, inspect plans.
//!
//! ```sh
//! cargo run --release -p rqp --example quickstart
//! ```

use rqp::expr::{col, lit};
use rqp::{AggFunc, AggSpec, Database, DataType, ExecutionMode, QuerySpec, Schema, Table, Value};

fn main() {
    // 1. Create tables and load rows.
    let mut db = Database::new();

    let mut orders = Table::new(
        "orders",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("customer", DataType::Int),
            ("total", DataType::Float),
        ]),
    );
    for i in 0..10_000i64 {
        orders.append(vec![
            Value::Int(i),
            Value::Int(i % 500),
            Value::Float((i % 97) as f64 * 10.0),
        ]);
    }
    db.add_table(orders);

    let mut customers = Table::new(
        "customers",
        Schema::from_pairs(&[("id", DataType::Int), ("region", DataType::Int)]),
    );
    for i in 0..500i64 {
        customers.append(vec![Value::Int(i), Value::Int(i % 7)]);
    }
    db.add_table(customers);

    // 2. Index + statistics.
    db.create_index("ix_orders_id", "orders", "id").unwrap();
    db.create_index("ix_customers_id", "customers", "id").unwrap();
    db.analyze();

    // 3. A join + aggregation query, via the fluent QuerySpec builder:
    //    SELECT customers.region, count(*), sum(orders.total)
    //    FROM orders JOIN customers ON orders.customer = customers.id
    //    WHERE orders.total > 500 GROUP BY customers.region ORDER BY region
    let query = QuerySpec::new()
        .join("orders", "customer", "customers", "id")
        .filter("orders", col("orders.total").gt(lit(500.0)))
        .aggregate(
            &["customers.region"],
            vec![
                AggSpec::count_star("n"),
                AggSpec::on(AggFunc::Sum, "orders.total", "revenue"),
            ],
        )
        .order(&["customers.region"]);

    // 4. EXPLAIN shows the chosen physical plan with estimates.
    println!("=== EXPLAIN ===\n{}", db.explain(&query).unwrap());

    // 5. Execute.
    let result = db.execute(&query).unwrap();
    println!("=== RESULT ({} groups, cost {:.1}) ===", result.rows.len(), result.cost);
    for row in &result.rows {
        println!(
            "region {} | n = {} | revenue = {}",
            row[0], row[1], row[2]
        );
    }

    // 6. The same query under every robustness mode — identical answers,
    //    different machinery.
    for (name, mode) in [
        ("static", ExecutionMode::Static),
        ("robust", ExecutionMode::robust()),
        ("pop", ExecutionMode::pop()),
        ("leo", ExecutionMode::Leo),
    ] {
        let r = db.execute_mode(&query, mode).unwrap();
        println!(
            "mode {name:<7} cost {:>9.1}  plan {}",
            r.cost,
            &r.plan_fingerprint[..r.plan_fingerprint.len().min(60)]
        );
    }
}
