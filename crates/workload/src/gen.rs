//! Deterministic column and table generators.

use rand::rngs::StdRng;
use rand::Rng;
use rqp_common::rng::Zipf;
use rqp_common::{DataType, Field, Schema};
use rqp_storage::{ColumnData, Table};

/// A column generator: how one column's values are produced.
pub enum ColumnGen {
    /// `0, 1, 2, …` (a synthetic key).
    Sequential,
    /// Uniform integers in `[lo, hi]`.
    UniformInt {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Zipf-skewed integers in `1..=n` with exponent `theta`.
    ZipfInt {
        /// Domain size.
        n: usize,
        /// Skew exponent (0 = uniform, 1 = heavy skew).
        theta: f64,
    },
    /// Uniform floats in `[lo, hi)`.
    UniformFloat {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// A deterministic function of another (already generated) column:
    /// `value = f(row_value_of(source))` — the correlation workhorse.
    Derived {
        /// Index of the source column in the builder.
        source: usize,
        /// The mapping applied to the source's integer value.
        f: Box<dyn Fn(i64) -> i64>,
    },
    /// Categorical strings `prefix0..prefix{n-1}`, uniform.
    Categorical {
        /// Prefix of each category label.
        prefix: String,
        /// Number of categories.
        n: usize,
    },
}

impl ColumnGen {
    fn data_type(&self) -> DataType {
        match self {
            ColumnGen::Sequential
            | ColumnGen::UniformInt { .. }
            | ColumnGen::ZipfInt { .. }
            | ColumnGen::Derived { .. } => DataType::Int,
            ColumnGen::UniformFloat { .. } => DataType::Float,
            ColumnGen::Categorical { .. } => DataType::Str,
        }
    }
}

/// Builds a table column by column from generators.
pub struct TableBuilder {
    name: String,
    columns: Vec<(String, ColumnGen)>,
}

impl TableBuilder {
    /// Start a builder for table `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder { name: name.into(), columns: Vec::new() }
    }

    /// Add a column.
    pub fn column(mut self, name: impl Into<String>, gen: ColumnGen) -> Self {
        self.columns.push((name.into(), gen));
        self
    }

    /// Generate `rows` rows with `rng`.
    ///
    /// Panics if a `Derived` column references a later or non-integer
    /// column (generator misuse is a programming error).
    pub fn build(self, rows: usize, rng: &mut StdRng) -> Table {
        let fields: Vec<Field> = self
            .columns
            .iter()
            .map(|(n, g)| Field::new(n.clone(), g.data_type()))
            .collect();
        let schema = Schema::new(fields);
        let mut data: Vec<ColumnData> = Vec::with_capacity(self.columns.len());
        for (ci, (_, gen)) in self.columns.iter().enumerate() {
            let col = match gen {
                ColumnGen::Sequential => {
                    ColumnData::Int((0..rows as i64).collect())
                }
                ColumnGen::UniformInt { lo, hi } => {
                    ColumnData::Int((0..rows).map(|_| rng.gen_range(*lo..=*hi)).collect())
                }
                ColumnGen::ZipfInt { n, theta } => {
                    let z = Zipf::new(*n, *theta);
                    ColumnData::Int((0..rows).map(|_| z.sample(rng) as i64).collect())
                }
                ColumnGen::UniformFloat { lo, hi } => ColumnData::Float(
                    (0..rows).map(|_| rng.gen_range(*lo..*hi)).collect(),
                ),
                ColumnGen::Derived { source, f } => {
                    assert!(*source < ci, "Derived must reference an earlier column");
                    let src = data[*source]
                        .as_int_slice()
                        .expect("Derived source must be an integer column");
                    ColumnData::Int(src.iter().map(f).collect())
                }
                ColumnGen::Categorical { prefix, n } => ColumnData::Str(
                    (0..rows)
                        .map(|_| format!("{prefix}{}", rng.gen_range(0..*n)))
                        .collect(),
                ),
            };
            data.push(col);
        }
        Table::from_columns(self.name, schema, data).expect("generated columns are consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::Value;
    use rqp_common::rng::seeded;

    #[test]
    fn builder_produces_consistent_table() {
        let mut rng = seeded(42);
        let t = TableBuilder::new("t")
            .column("id", ColumnGen::Sequential)
            .column("u", ColumnGen::UniformInt { lo: 0, hi: 9 })
            .column("z", ColumnGen::ZipfInt { n: 100, theta: 1.0 })
            .column("f", ColumnGen::UniformFloat { lo: 0.0, hi: 1.0 })
            .column("c", ColumnGen::Categorical { prefix: "cat".into(), n: 5 })
            .build(1000, &mut rng);
        assert_eq!(t.nrows(), 1000);
        assert_eq!(t.schema().len(), 5);
        assert_eq!(t.column_by_name("id").unwrap().get(7), Value::Int(7));
        let u = t.column_by_name("u").unwrap();
        assert!(u.iter_values().all(|v| (0..=9).contains(&v.as_int().unwrap())));
    }

    #[test]
    fn derived_column_is_perfectly_correlated() {
        let mut rng = seeded(7);
        let t = TableBuilder::new("t")
            .column("a", ColumnGen::UniformInt { lo: 0, hi: 99 })
            .column("b", ColumnGen::Derived { source: 0, f: Box::new(|v| v * 2 + 1) })
            .build(500, &mut rng);
        let a = t.column_by_name("a").unwrap().as_int_slice().unwrap().to_vec();
        let b = t.column_by_name("b").unwrap().as_int_slice().unwrap().to_vec();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(*y, x * 2 + 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = seeded(99);
            TableBuilder::new("t")
                .column("z", ColumnGen::ZipfInt { n: 50, theta: 0.8 })
                .build(200, &mut rng)
        };
        let a = build();
        let b = build();
        assert_eq!(
            a.column(0).as_int_slice().unwrap(),
            b.column(0).as_int_slice().unwrap()
        );
    }

    #[test]
    fn zipf_column_is_skewed() {
        let mut rng = seeded(3);
        let t = TableBuilder::new("t")
            .column("z", ColumnGen::ZipfInt { n: 1000, theta: 1.0 })
            .build(10_000, &mut rng);
        let z = t.column_by_name("z").unwrap().as_int_slice().unwrap();
        let ones = z.iter().filter(|&v| v == 1).count();
        assert!(ones > 800, "rank-1 should dominate, got {ones}");
    }

    #[test]
    #[should_panic(expected = "Derived must reference an earlier column")]
    fn derived_forward_reference_panics() {
        let mut rng = seeded(1);
        TableBuilder::new("t")
            .column("b", ColumnGen::Derived { source: 0, f: Box::new(|v| v) })
            .build(10, &mut rng);
    }
}
