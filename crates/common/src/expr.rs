//! Scalar and boolean expressions.
//!
//! [`Expr`] is the logical expression algebra shared by the optimizer,
//! statistics and executor. Expressions reference columns *by name*; the
//! executor calls [`Expr::bind`] once per operator to resolve names to row
//! indices, producing a [`BoundExpr`] whose evaluation does no string work.
//!
//! The [`rewrites`] submodule generates *semantically equivalent* variants of
//! an expression (double negation, `BETWEEN` vs two comparisons, `IN` vs `OR`,
//! De Morgan, commuted conjuncts). The Dagstuhl report's "Benchmarking
//! Robustness" break-out (Graefe et al.) proposes measuring whether a system
//! treats all such variants identically; experiment E06 drives these rewrites.

use crate::error::Result;
use crate::schema::{Row, Schema};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering between lhs and rhs.
    pub fn matches(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The logical negation (`NOT (a < b)` ⇔ `a >= b`).
    pub fn negated(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
}

impl ArithOp {
    /// The operator on two values: `Int∘Int` is an `Int` (wrapping on
    /// overflow in every build), a mixed numeric pair a `Float`, and
    /// anything with a `Str` or NULL operand is NULL.
    pub fn apply(self, a: &Value, b: &Value) -> Value {
        use ArithOp::*;
        match (a, b, a.as_float(), b.as_float()) {
            (Value::Int(x), Value::Int(y), _, _) => Value::Int(match self {
                Add => x.wrapping_add(*y),
                Sub => x.wrapping_sub(*y),
                Mul => x.wrapping_mul(*y),
            }),
            (_, _, Some(x), Some(y)) => Value::Float(match self {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
            }),
            _ => Value::Null,
        }
    }
}

/// SQL three-valued (Kleene) truth, the one definition of predicate logic:
/// the row evaluator ([`BoundExpr::truth`]) and the batch evaluator
/// ([`BoundExpr::truths`]) both call it, and a filter keeps a row only on
/// `True`. The variant order `False < Unknown < True` makes AND the minimum
/// and OR the maximum; NOT swaps True and False and keeps Unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Truth {
    /// Definitely false.
    False,
    /// Neither: a comparison with a NULL operand.
    Unknown,
    /// Definitely true.
    True,
}

impl Truth {
    /// Kleene AND.
    pub fn and(self, other: Truth) -> Truth {
        self.min(other)
    }

    /// Kleene OR.
    pub fn or(self, other: Truth) -> Truth {
        self.max(other)
    }

    /// `a <op> b` in [`Value::total_cmp`]'s order; Unknown when either side
    /// is NULL.
    pub fn compare(op: CmpOp, a: &Value, b: &Value) -> Truth {
        if a.is_null() || b.is_null() {
            Truth::Unknown
        } else {
            op.matches(a.total_cmp(b)).into()
        }
    }

    /// `v BETWEEN lo AND hi`, which is `v >= lo AND v <= hi`.
    pub fn between(v: &Value, lo: &Value, hi: &Value) -> Truth {
        Truth::compare(CmpOp::Ge, v, lo).and(Truth::compare(CmpOp::Le, v, hi))
    }

    /// `v IN (list…)`, which is `v = c₁ OR v = c₂ OR …`: a NULL candidate
    /// that does not match turns a miss into Unknown.
    pub fn in_list(v: &Value, list: &[Value]) -> Truth {
        Truth::any(list.iter().map(|c| Truth::compare(CmpOp::Eq, v, c)))
    }

    /// Kleene AND over `ts`, drawing no further once one is False.
    pub fn all(ts: impl IntoIterator<Item = Truth>) -> Truth {
        ts.into_iter()
            .try_fold(Truth::True, |t, x| (x != Truth::False).then(|| t.and(x)))
            .unwrap_or(Truth::False)
    }

    /// Kleene OR over `ts`, drawing no further once one is True.
    pub fn any(ts: impl IntoIterator<Item = Truth>) -> Truth {
        ts.into_iter()
            .try_fold(Truth::False, |t, x| (x != Truth::True).then(|| t.or(x)))
            .unwrap_or(Truth::True)
    }

    /// A value read as a predicate: NULL is Unknown, `Int(0)` False, any
    /// other value True.
    pub fn of_value(v: &Value) -> Truth {
        match v {
            Value::Null => Truth::Unknown,
            Value::Int(0) => Truth::False,
            _ => Truth::True,
        }
    }

    /// The value of a boolean node: `Int(1)`, `Int(0)`, or NULL for Unknown.
    pub fn to_value(self) -> Value {
        match self {
            Truth::False => Value::Int(0),
            Truth::Unknown => Value::Null,
            Truth::True => Value::Int(1),
        }
    }
}

impl From<bool> for Truth {
    fn from(b: bool) -> Truth {
        if b { Truth::True } else { Truth::False }
    }
}

impl std::ops::Not for Truth {
    type Output = Truth;

    /// Kleene NOT: Unknown stays Unknown.
    fn not(self) -> Truth {
        match self {
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
            Truth::True => Truth::False,
        }
    }
}

/// A logical scalar/boolean expression over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by (possibly qualified) name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Binary comparison producing a boolean.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Inclusive range test `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// Membership test `expr IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
    /// Conjunction of boolean expressions (empty = TRUE).
    And(Vec<Expr>),
    /// Disjunction of boolean expressions (empty = FALSE).
    Or(Vec<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic over numeric operands.
    Arith {
        /// Arithmetic operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

// -------------------------------------------------------------------------
// Ergonomic constructors
// -------------------------------------------------------------------------

/// Column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// Literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

impl Expr {
    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp { op: CmpOp::Eq, lhs: Box::new(self), rhs: Box::new(rhs) }
    }
    /// `self <> rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp { op: CmpOp::Ne, lhs: Box::new(self), rhs: Box::new(rhs) }
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp { op: CmpOp::Lt, lhs: Box::new(self), rhs: Box::new(rhs) }
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp { op: CmpOp::Le, lhs: Box::new(self), rhs: Box::new(rhs) }
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp { op: CmpOp::Gt, lhs: Box::new(self), rhs: Box::new(rhs) }
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp { op: CmpOp::Ge, lhs: Box::new(self), rhs: Box::new(rhs) }
    }
    /// `self BETWEEN lo AND hi` (inclusive).
    pub fn between(self, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        Expr::Between { expr: Box::new(self), lo: lo.into(), hi: hi.into() }
    }
    /// `self IN (list…)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList { expr: Box::new(self), list }
    }
    /// `self AND rhs`, flattening nested conjunctions.
    pub fn and(self, rhs: Expr) -> Expr {
        let mut parts = Vec::new();
        for e in [self, rhs] {
            match e {
                Expr::And(v) => parts.extend(v),
                other => parts.push(other),
            }
        }
        Expr::And(parts)
    }
    /// `self OR rhs`, flattening nested disjunctions.
    pub fn or(self, rhs: Expr) -> Expr {
        let mut parts = Vec::new();
        for e in [self, rhs] {
            match e {
                Expr::Or(v) => parts.extend(v),
                other => parts.push(other),
            }
        }
        Expr::Or(parts)
    }
    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith { op: ArithOp::Add, lhs: Box::new(self), rhs: Box::new(rhs) }
    }
    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith { op: ArithOp::Mul, lhs: Box::new(self), rhs: Box::new(rhs) }
    }

    /// The constant TRUE.
    pub fn true_() -> Expr {
        Expr::And(Vec::new())
    }

    // ---------------------------------------------------------------------
    // Analysis
    // ---------------------------------------------------------------------

    /// All column names referenced by this expression, in sorted order.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Col(c) => {
                out.insert(c.clone());
            }
            Expr::Lit(_) => {}
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::Between { expr, .. } | Expr::InList { expr, .. } | Expr::Not(expr) => {
                expr.collect_columns(out)
            }
            Expr::And(v) | Expr::Or(v) => {
                for e in v {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// Split a conjunction into its top-level conjuncts. A non-`And`
    /// expression is a single conjunct; `TRUE` yields none.
    pub fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::And(v) => v.iter().flat_map(|e| e.conjuncts()).collect(),
            other => vec![other.clone()],
        }
    }

    /// Conjoin a list of predicates back into one expression.
    pub fn conjoin(parts: Vec<Expr>) -> Expr {
        match parts.len() {
            0 => Expr::true_(),
            1 => parts.into_iter().next().expect("len checked"),
            _ => Expr::And(parts),
        }
    }

    /// Resolve column names against `schema`, producing a fast-path
    /// [`BoundExpr`] usable without further string lookups.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(schema.index_of(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp { op, lhs, rhs } => BoundExpr::Cmp {
                op: *op,
                lhs: Box::new(lhs.bind(schema)?),
                rhs: Box::new(rhs.bind(schema)?),
            },
            Expr::Between { expr, lo, hi } => BoundExpr::Between {
                expr: Box::new(expr.bind(schema)?),
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Expr::InList { expr, list } => BoundExpr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list.clone(),
            },
            Expr::And(v) => {
                BoundExpr::And(v.iter().map(|e| e.bind(schema)).collect::<Result<_>>()?)
            }
            Expr::Or(v) => {
                BoundExpr::Or(v.iter().map(|e| e.bind(schema)).collect::<Result<_>>()?)
            }
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(schema)?)),
            Expr::Arith { op, lhs, rhs } => BoundExpr::Arith {
                op: *op,
                lhs: Box::new(lhs.bind(schema)?),
                rhs: Box::new(rhs.bind(schema)?),
            },
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Between { expr, lo, hi } => write!(f, "({expr} BETWEEN {lo} AND {hi})"),
            Expr::InList { expr, list } => {
                write!(f, "({expr} IN (")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            Expr::And(v) if v.is_empty() => write!(f, "TRUE"),
            Expr::And(v) => {
                write!(f, "(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(v) if v.is_empty() => write!(f, "FALSE"),
            Expr::Or(v) => {
                write!(f, "(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Arith { op, lhs, rhs } => {
                let s = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                };
                write!(f, "({lhs} {s} {rhs})")
            }
        }
    }
}

/// An [`Expr`] with column names resolved to row indices. Produced by
/// [`Expr::bind`]; evaluation never errors (missing data yields `None`,
/// treated as NULL/false upstream).
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Column at row index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// Inclusive range.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        lo: Value,
        /// Upper bound.
        hi: Value,
    },
    /// List membership.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<Value>,
    },
    /// Conjunction.
    And(Vec<BoundExpr>),
    /// Disjunction.
    Or(Vec<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
}

impl BoundExpr {
    /// Evaluate against a row. A boolean node yields `Int(1)`, `Int(0)` or,
    /// for Unknown, NULL; a column past the row's end reads as NULL.
    pub fn eval(&self, row: &Row) -> Value {
        match self {
            BoundExpr::Col(i) => row.get(*i).cloned().unwrap_or(Value::Null),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Arith { op, lhs, rhs } => op.apply(&lhs.eval(row), &rhs.eval(row)),
            _ => self.truth(row).to_value(),
        }
    }

    /// Evaluate as a predicate under SQL three-valued logic ([`Truth`]).
    pub fn truth(&self, row: &Row) -> Truth {
        match self {
            BoundExpr::Cmp { op, lhs, rhs } => Truth::compare(*op, &lhs.eval(row), &rhs.eval(row)),
            BoundExpr::Between { expr, lo, hi } => Truth::between(&expr.eval(row), lo, hi),
            BoundExpr::InList { expr, list } => Truth::in_list(&expr.eval(row), list),
            BoundExpr::And(v) => Truth::all(v.iter().map(|e| e.truth(row))),
            BoundExpr::Or(v) => Truth::any(v.iter().map(|e| e.truth(row))),
            BoundExpr::Not(e) => !e.truth(row),
            BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Arith { .. } => {
                Truth::of_value(&self.eval(row))
            }
        }
    }

    /// Whether a filter keeps `row`: the predicate is `True` (not False,
    /// not Unknown).
    pub fn eval_bool(&self, row: &Row) -> bool {
        self.truth(row) == Truth::True
    }

    /// The row indices this expression reads, ascending.
    pub fn columns(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            BoundExpr::Col(i) => {
                out.insert(*i);
            }
            BoundExpr::Lit(_) => {}
            BoundExpr::Cmp { lhs, rhs, .. } | BoundExpr::Arith { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            BoundExpr::Between { expr, .. }
            | BoundExpr::InList { expr, .. }
            | BoundExpr::Not(expr) => expr.collect_columns(out),
            BoundExpr::And(v) | BoundExpr::Or(v) => {
                for e in v {
                    e.collect_columns(out);
                }
            }
        }
    }
}

/// A "simple" predicate over a single column, the currency of cardinality
/// estimation: histograms and samplers estimate these directly.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplePred {
    /// `col <op> value`
    Cmp {
        /// Column name.
        col: String,
        /// Operator.
        op: CmpOp,
        /// Comparison constant.
        value: Value,
    },
    /// `col BETWEEN lo AND hi` (inclusive).
    Range {
        /// Column name.
        col: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `col IN (values…)`
    InList {
        /// Column name.
        col: String,
        /// Candidate values.
        values: Vec<Value>,
    },
}

impl SimplePred {
    /// Try to view an [`Expr`] conjunct as a simple single-column predicate.
    ///
    /// Accepts `col <op> lit`, `lit <op> col` (flipped), `col BETWEEN`, and
    /// `col IN`. Everything else (arithmetic on columns, multi-column
    /// comparisons, disjunctions) returns `None` — exactly the "complex
    /// (known unknown) expressions" class the Nica et al. break-out flags as
    /// hard for estimators. So does a comparison or range with a NULL bound:
    /// it is Unknown on every row, not a range an index could scan.
    pub fn from_expr(e: &Expr) -> Option<SimplePred> {
        match e {
            Expr::Cmp { op, lhs, rhs } => match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) if !v.is_null() => Some(SimplePred::Cmp {
                    col: c.clone(),
                    op: *op,
                    value: v.clone(),
                }),
                (Expr::Lit(v), Expr::Col(c)) if !v.is_null() => Some(SimplePred::Cmp {
                    col: c.clone(),
                    op: op.flipped(),
                    value: v.clone(),
                }),
                _ => None,
            },
            Expr::Between { expr, lo, hi } => match expr.as_ref() {
                Expr::Col(c) if !lo.is_null() && !hi.is_null() => Some(SimplePred::Range {
                    col: c.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                }),
                _ => None,
            },
            Expr::InList { expr, list } => match expr.as_ref() {
                Expr::Col(c) => Some(SimplePred::InList {
                    col: c.clone(),
                    values: list.clone(),
                }),
                _ => None,
            },
            // NOT (col <> v)  ≡  col = v — normalize through negation.
            Expr::Not(inner) => match SimplePred::from_expr(inner) {
                Some(SimplePred::Cmp { col, op, value }) => Some(SimplePred::Cmp {
                    col,
                    op: op.negated(),
                    value,
                }),
                _ => None,
            },
            _ => None,
        }
    }

    /// The column this predicate constrains.
    pub fn column(&self) -> &str {
        match self {
            SimplePred::Cmp { col, .. }
            | SimplePred::Range { col, .. }
            | SimplePred::InList { col, .. } => col,
        }
    }
}

pub mod rewrites {
    //! Semantics-preserving rewrites for the equivalent-query benchmark (E06).
    //!
    //! Each function returns expressions logically equivalent to its input.
    //! `variants` composes them into a family; a robust system should estimate
    //! and execute every member of the family identically.

    use super::*;

    /// `a <op> b` → `b <flip(op)> a` for every comparison in the tree.
    pub fn flip_comparisons(e: &Expr) -> Expr {
        transform(e, &|x| match x {
            Expr::Cmp { op, lhs, rhs } => Some(Expr::Cmp {
                op: op.flipped(),
                lhs: rhs.clone(),
                rhs: lhs.clone(),
            }),
            _ => None,
        })
    }

    /// `e` → `NOT NOT e` at the root.
    pub fn double_negate(e: &Expr) -> Expr {
        e.clone().not().not()
    }

    /// `x BETWEEN lo AND hi` → `x >= lo AND x <= hi` throughout.
    pub fn between_to_cmps(e: &Expr) -> Expr {
        transform(e, &|x| match x {
            Expr::Between { expr, lo, hi } => Some(
                Expr::Cmp {
                    op: CmpOp::Ge,
                    lhs: expr.clone(),
                    rhs: Box::new(Expr::Lit(lo.clone())),
                }
                .and(Expr::Cmp {
                    op: CmpOp::Le,
                    lhs: expr.clone(),
                    rhs: Box::new(Expr::Lit(hi.clone())),
                }),
            ),
            _ => None,
        })
    }

    /// `x IN (a, b, …)` → `x = a OR x = b OR …` throughout.
    pub fn in_to_ors(e: &Expr) -> Expr {
        transform(e, &|x| match x {
            Expr::InList { expr, list } => Some(Expr::Or(
                list.iter()
                    .map(|v| Expr::Cmp {
                        op: CmpOp::Eq,
                        lhs: expr.clone(),
                        rhs: Box::new(Expr::Lit(v.clone())),
                    })
                    .collect(),
            )),
            _ => None,
        })
    }

    /// Reverse the order of top-level conjuncts/disjuncts throughout.
    pub fn commute(e: &Expr) -> Expr {
        transform(e, &|x| match x {
            Expr::And(v) if v.len() > 1 => {
                Some(Expr::And(v.iter().rev().cloned().collect()))
            }
            Expr::Or(v) if v.len() > 1 => Some(Expr::Or(v.iter().rev().cloned().collect())),
            _ => None,
        })
    }

    /// Push a root-level NOT through with De Morgan and comparison negation:
    /// `NOT (a AND b)` → `NOT a OR NOT b`, `NOT (x < v)` → `x >= v`.
    pub fn push_not(e: &Expr) -> Expr {
        transform(e, &|x| match x {
            Expr::Not(inner) => match inner.as_ref() {
                Expr::And(v) => Some(Expr::Or(v.iter().map(|c| c.clone().not()).collect())),
                Expr::Or(v) => Some(Expr::And(v.iter().map(|c| c.clone().not()).collect())),
                Expr::Cmp { op, lhs, rhs } => Some(Expr::Cmp {
                    op: op.negated(),
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                }),
                Expr::Not(e2) => Some(e2.as_ref().clone()),
                _ => None,
            },
            _ => None,
        })
    }

    /// A family of distinct equivalent variants of `e` (including `e` itself).
    pub fn variants(e: &Expr) -> Vec<Expr> {
        let mut out = vec![e.clone()];
        let candidates = [
            flip_comparisons(e),
            between_to_cmps(e),
            in_to_ors(e),
            commute(e),
            push_not(&double_negate(e)),
            double_negate(e),
            commute(&between_to_cmps(e)),
            flip_comparisons(&in_to_ors(e)),
        ];
        for c in candidates {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Bottom-up rewrite: apply `f` at every node; `None` keeps the
    /// (recursively rewritten) node.
    fn transform(e: &Expr, f: &dyn Fn(&Expr) -> Option<Expr>) -> Expr {
        let rebuilt = match e {
            Expr::Col(_) | Expr::Lit(_) => e.clone(),
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(transform(lhs, f)),
                rhs: Box::new(transform(rhs, f)),
            },
            Expr::Between { expr, lo, hi } => Expr::Between {
                expr: Box::new(transform(expr, f)),
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: Box::new(transform(expr, f)),
                list: list.clone(),
            },
            Expr::And(v) => Expr::And(v.iter().map(|x| transform(x, f)).collect()),
            Expr::Or(v) => Expr::Or(v.iter().map(|x| transform(x, f)).collect()),
            Expr::Not(inner) => Expr::Not(Box::new(transform(inner, f))),
            Expr::Arith { op, lhs, rhs } => Expr::Arith {
                op: *op,
                lhs: Box::new(transform(lhs, f)),
                rhs: Box::new(transform(rhs, f)),
            },
        };
        f(&rebuilt).unwrap_or(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)])
    }

    fn row(a: i64, b: f64) -> Row {
        vec![Value::Int(a), Value::Float(b)]
    }

    fn holds(e: &Expr, r: &Row) -> bool {
        e.bind(&schema()).unwrap().eval_bool(r)
    }

    #[test]
    fn cmp_eval() {
        let e = col("a").lt(lit(5i64));
        assert!(holds(&e, &row(3, 0.0)));
        assert!(!holds(&e, &row(7, 0.0)));
    }

    #[test]
    fn between_and_in() {
        let e = col("a").between(2i64, 4i64);
        assert!(holds(&e, &row(2, 0.0)));
        assert!(holds(&e, &row(4, 0.0)));
        assert!(!holds(&e, &row(5, 0.0)));
        let e = col("a").in_list(vec![Value::Int(1), Value::Int(9)]);
        assert!(holds(&e, &row(9, 0.0)));
        assert!(!holds(&e, &row(2, 0.0)));
    }

    #[test]
    fn boolean_combinators() {
        let e = col("a").gt(lit(0i64)).and(col("b").lt(lit(1.0)));
        assert!(holds(&e, &row(1, 0.5)));
        assert!(!holds(&e, &row(1, 1.5)));
        let e2 = col("a").eq(lit(0i64)).or(col("b").lt(lit(1.0)));
        assert!(holds(&e2, &row(5, 0.5)));
        assert!(!holds(&e2, &row(5, 1.5)));
        assert!(holds(&col("a").eq(lit(1i64)).not(), &row(2, 0.0)));
    }

    #[test]
    fn arithmetic_in_predicate() {
        // a * 2 + 1 > 5
        let e = col("a").mul(lit(2i64)).add(lit(1i64)).gt(lit(5i64));
        assert!(holds(&e, &row(3, 0.0)));
        assert!(!holds(&e, &row(2, 0.0)));
    }

    #[test]
    fn conjunct_split_and_flatten() {
        let e = col("a").gt(lit(1i64)).and(col("b").lt(lit(2.0))).and(col("a").ne(lit(0i64)));
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
        let back = Expr::conjoin(cs);
        assert_eq!(back.conjuncts().len(), 3);
        assert!(Expr::true_().conjuncts().len() == 1 || Expr::true_().conjuncts().is_empty());
    }

    #[test]
    fn columns_collected() {
        let e = col("t.a").gt(col("t.b")).and(col("u.c").eq(lit(1i64)));
        let cols = e.columns();
        assert_eq!(cols.len(), 3);
        assert!(cols.contains("t.a") && cols.contains("u.c"));
    }

    #[test]
    fn simple_pred_extraction() {
        let sp = SimplePred::from_expr(&col("a").le(lit(10i64))).unwrap();
        assert!(matches!(sp, SimplePred::Cmp { op: CmpOp::Le, .. }));
        // flipped literal-first form
        let sp = SimplePred::from_expr(&lit(10i64).le(col("a"))).unwrap();
        assert!(matches!(sp, SimplePred::Cmp { op: CmpOp::Ge, .. }));
        // NOT (a <> 3) normalizes to a = 3
        let sp = SimplePred::from_expr(&col("a").ne(lit(3i64)).not()).unwrap();
        assert!(matches!(sp, SimplePred::Cmp { op: CmpOp::Eq, .. }));
        assert_eq!(sp.column(), "a");
        // multi-column comparison is not simple
        assert!(SimplePred::from_expr(&col("a").lt(col("b"))).is_none());
    }

    #[test]
    fn rewrites_preserve_semantics() {
        let base = col("a")
            .between(2i64, 6i64)
            .and(col("b").lt(lit(0.5)))
            .and(col("a").in_list(vec![Value::Int(3), Value::Int(5), Value::Int(7)]));
        let rows: Vec<Row> = (0..10)
            .flat_map(|a| [row(a, 0.25), row(a, 0.75)])
            .collect();
        let fam = rewrites::variants(&base);
        assert!(fam.len() >= 5, "expected several variants, got {}", fam.len());
        for v in &fam {
            for r in &rows {
                assert_eq!(
                    holds(&base, r),
                    holds(v, r),
                    "variant {v} disagrees on row {r:?}"
                );
            }
        }
    }

    #[test]
    fn push_not_negates_comparison() {
        let e = col("a").lt(lit(5i64)).not();
        let pushed = rewrites::push_not(&e);
        assert_eq!(pushed, col("a").ge(lit(5i64)));
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = col("a").ge(lit(1i64)).and(col("b").lt(lit(2.0)));
        let s = e.to_string();
        assert!(s.contains(">=") && s.contains("AND"), "{s}");
    }

    #[test]
    fn null_comparisons_are_false() {
        let e = col("a").eq(lit(1i64));
        let r = vec![Value::Null, Value::Float(0.0)];
        assert!(!holds(&e, &r));
    }

    #[test]
    fn null_logic_is_kleene() {
        use Truth::{False as F, True as T, Unknown as U};
        let r = vec![Value::Null, Value::Float(0.0)];
        assert!(!holds(&col("a").eq(lit(1i64)).not(), &r), "NOT Unknown is Unknown");
        let null = || lit(Value::Null);
        assert!(!holds(&col("b").lt(null()).not(), &r));
        assert!(holds(&col("b").lt(null()).or(col("b").ge(lit(0.0))), &r));
        let miss = col("b").in_list(vec![Value::Int(1), Value::Null]);
        assert!(!holds(&miss, &r) && !holds(&miss.not(), &r), "a NULL candidate that misses");
        assert!(holds(&col("b").in_list(vec![Value::Null, Value::Int(0)]), &r));
        assert!(!holds(&col("b").between(Value::Null, 1.0).not(), &r));
        for (a, b, and, or) in [(T, U, U, T), (F, U, F, U), (U, U, U, U), (T, F, F, T)] {
            assert_eq!((a.and(b), b.and(a), a.or(b), b.or(a)), (and, and, or, or));
        }
        assert_eq!((!T, !F, !U), (F, T, U));
        // AND stops at the first False, OR at the first True.
        let boom = || std::iter::from_fn(|| -> Option<Truth> { panic!("drawn past the verdict") });
        assert_eq!(Truth::all([U, F].into_iter().chain(boom())), F);
        assert_eq!(Truth::any([U, T].into_iter().chain(boom())), T);
        let folds = (Truth::all([U, T]), Truth::any([U, F]), Truth::all([]), Truth::any([]));
        assert_eq!(folds, (U, U, T, F));
    }

    #[test]
    fn arithmetic_types_and_wraps() {
        let (i, f) = (Value::Int, Value::Float);
        assert_eq!(ArithOp::Add.apply(&i(2), &i(3)), i(5));
        assert_eq!(ArithOp::Sub.apply(&i(5), &i(2)), i(3));
        assert!(matches!(ArithOp::Mul.apply(&i(2), &f(1.5)), Value::Float(x) if x == 3.0));
        assert!(ArithOp::Add.apply(&Value::Null, &i(1)).is_null());
        assert!(ArithOp::Add.apply(&Value::Str("x".into()), &i(1)).is_null());
        // Overflow wraps in debug and release alike.
        assert!(matches!(ArithOp::Add.apply(&i(i64::MAX), &i(1)), Value::Int(i64::MIN)));
        assert!(matches!(ArithOp::Mul.apply(&i(i64::MIN), &i(-1)), Value::Int(i64::MIN)));
        let e = col("a").add(lit(1i64)).lt(lit(0i64));
        assert!(holds(&e, &row(i64::MAX, 0.0)));
    }
}
