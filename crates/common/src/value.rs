//! Dynamically typed scalar values.
//!
//! The engine is dynamically typed at the row level: every cell is a
//! [`Value`]. Storage keeps columns in typed vectors (`rqp-storage`), but rows
//! flowing between operators are `Vec<Value>`. A [`Value`] has a *total*
//! order (`Ord`), with floats ordered by `f64::total_cmp` and `Null` sorting
//! first, so values can be used directly as B-tree keys and sort keys.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column or scalar expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
        }
    }
}

/// A dynamically typed scalar value.
///
/// `Null` exists for outer-join padding and absent aggregates; the synthetic
/// data generators never produce it inside base tables.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (sorts before everything; equal to itself for grouping).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, coercing from float by truncation.
    ///
    /// **Not a key-normalization function**: `Float(2.9)` and `Float(2.1)`
    /// both truncate to `2` yet compare unequal, so any code building join,
    /// group-by, or partitioning keys must go through [`Value::key_atom`]
    /// instead, which only collapses values that [`Value::total_cmp`] calls
    /// equal. `as_int` is for sites that *want* lossy numeric coercion:
    /// workload parameter plumbing, literal extraction, index bounds.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Extract an `f64`, coercing from int.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Numeric comparison helper: compares Int/Float cross-type numerically,
    /// strings lexicographically, `Null` first. This is the engine-wide total
    /// order used by sorts, merges and B-trees.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            // Heterogeneous non-numeric comparisons order by type tag so the
            // order stays total; queries never rely on this.
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }

    /// Arithmetic addition (numeric only); `Null` propagates.
    pub fn add(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a + b, |a, b| a + b)
    }

    /// Arithmetic subtraction (numeric only); `Null` propagates.
    pub fn sub(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a - b, |a, b| a - b)
    }

    /// Arithmetic multiplication (numeric only); `Null` propagates.
    pub fn mul(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a * b, |a, b| a * b)
    }

    /// The canonical hashing identity of this value.
    ///
    /// Every hash the engine derives from a `Value` — the FNV stream behind
    /// hash repartitioning and row checksums, and batch join/group keys —
    /// must be computed from the atom, never from the raw variant, so that
    /// `a == b` (under [`Value::total_cmp`]) implies `a.key_atom() ==
    /// b.key_atom()`. The variant-level encoding cannot be used directly
    /// because equality is cross-type: `Int(3) == Float(3.0)`.
    ///
    /// Collapsing rules (collisions of *unequal* values are fine; splitting
    /// *equal* values is the bug this prevents):
    ///
    /// * `Int(v)` round-trips through `f64`: for `|v| ≤ 2^53` this is the
    ///   identity, beyond that it collapses the values `total_cmp` already
    ///   treats as equal to their shared `f64` image (`Int(2^53)` and
    ///   `Int(2^53 + 1)` both equal `Float(2^53.0)`, so all three share one
    ///   atom).
    /// * An integral, i64-representable `Float` becomes the same
    ///   [`KeyAtom::Int`] as its integer twin. `-0.0` lands on `Int(0)`
    ///   alongside `0.0` — a harmless collision: `total_cmp` still orders
    ///   `-0.0 < 0.0` and the two stay *unequal*, we just spend one hash
    ///   bucket on the pair.
    /// * Any other float (fractional, ±∞, NaN) keys on its exact bit
    ///   pattern, matching `total_cmp`'s bit-level float equality (each NaN
    ///   payload is its own key).
    pub fn key_atom(&self) -> KeyAtom<'_> {
        match self {
            Value::Null => KeyAtom::Null,
            Value::Int(v) => key_atom_i64(*v),
            Value::Float(f) => key_atom_f64(*f),
            Value::Str(s) => KeyAtom::Str(s),
        }
    }
}

/// The canonical hashing identity of a [`Value`]; see [`Value::key_atom`].
///
/// `Copy`, `Eq`, and `Hash`, so batch operators can use atoms directly as
/// hash-table keys without materializing `Value`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyAtom<'a> {
    /// `Null` (equal only to itself).
    Null,
    /// A numeric value exactly representable as `i64` (canonical numeric
    /// form: `Int(3)` and `Float(3.0)` both land here as `Int(3)`).
    Int(i64),
    /// A float with no `i64` twin, keyed by its exact bit pattern.
    FloatBits(u64),
    /// String contents.
    Str(&'a str),
}

/// [`Value::key_atom`] for a raw `i64`, without constructing a `Value`.
fn key_atom_i64(v: i64) -> KeyAtom<'static> {
    // Identity for |v| ≤ 2^53; beyond that, collapse to the f64 image so the
    // atom agrees with cross-type equality (see `Value::key_atom`). The
    // saturating cast is exact even at the edge: `i64::MAX as f64` rounds up
    // to 2^63, which saturates straight back to `i64::MAX`.
    KeyAtom::Int((v as f64) as i64)
}

/// [`Value::key_atom`] for a raw `f64`, without constructing a `Value`.
fn key_atom_f64(f: f64) -> KeyAtom<'static> {
    let i = f as i64; // saturating; NaN casts to 0 but fails the check below
    if f == f.trunc() && (i as f64) == f {
        KeyAtom::Int(i)
    } else {
        KeyAtom::FloatBits(f.to_bits())
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    f_int: impl Fn(i64, i64) -> i64,
    f_float: impl Fn(f64, f64) -> f64,
) -> Value {
    use Value::*;
    match (a, b) {
        (Int(x), Int(y)) => Int(f_int(*x, *y)),
        (Float(x), Float(y)) => Float(f_float(*x, *y)),
        (Int(x), Float(y)) => Float(f_float(*x as f64, *y)),
        (Float(x), Int(y)) => Float(f_float(*x, *y as f64)),
        _ => Null,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash ints and integral floats identically so Int(3) and
            // Float(3.0), which compare equal, also hash equal.
            Value::Int(v) => {
                1u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_order() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).mul(&Value::Float(1.5)), Value::Float(3.0));
        assert!(Value::Null.add(&Value::Int(1)).is_null());
        assert_eq!(Value::Int(5).sub(&Value::Int(2)), Value::Int(3));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Float(2.9).as_int(), Some(2));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn key_atom_collapses_numeric_twins() {
        // The headline bug class: numerically-equal mixed-type keys must
        // share one atom.
        assert_eq!(Value::Int(3).key_atom(), Value::Float(3.0).key_atom());
        assert_eq!(Value::Int(3).key_atom(), KeyAtom::Int(3));
        assert_eq!(Value::Int(-7).key_atom(), Value::Float(-7.0).key_atom());
        assert_eq!(Value::Int(0).key_atom(), Value::Float(0.0).key_atom());
        // Unequal values may share an atom (collision) but these must not:
        assert_ne!(Value::Float(2.5).key_atom(), Value::Int(2).key_atom());
        assert_ne!(Value::Float(2.5).key_atom(), Value::Int(3).key_atom());
        assert_eq!(Value::Float(2.5).key_atom(), KeyAtom::FloatBits(2.5f64.to_bits()));
        assert_eq!(Value::Null.key_atom(), KeyAtom::Null);
        assert_eq!(Value::Str("k".into()).key_atom(), KeyAtom::Str("k"));
    }

    #[test]
    fn key_atom_documented_edge_semantics() {
        // -0.0: unequal to 0.0 under total_cmp (deliberately), but shares
        // its hash bucket — a documented, harmless collision.
        assert_ne!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(Value::Float(-0.0).key_atom(), KeyAtom::Int(0));
        // Beyond 2^53 the equality classes blur: Int(2^53), Int(2^53 + 1)
        // and Float(2^53.0) all compare equal pairwise to the float, and all
        // three collapse to one atom.
        let big = 1i64 << 53;
        assert_eq!(Value::Int(big), Value::Float(big as f64));
        assert_eq!(Value::Int(big + 1), Value::Float(big as f64));
        assert_eq!(Value::Int(big).key_atom(), Value::Float(big as f64).key_atom());
        assert_eq!(Value::Int(big + 1).key_atom(), Value::Int(big).key_atom());
        // The i64 extremes survive the f64 round-trip via saturation.
        assert_eq!(Value::Int(i64::MAX).key_atom(), Value::Float(9.223372036854776e18).key_atom());
        assert_eq!(Value::Int(i64::MIN).key_atom(), KeyAtom::Int(i64::MIN));
        // Non-finite floats key on their bits; each NaN payload is its own key.
        assert_eq!(Value::Float(f64::INFINITY).key_atom(), KeyAtom::FloatBits(f64::INFINITY.to_bits()));
        assert_eq!(Value::Float(f64::NAN).key_atom(), KeyAtom::FloatBits(f64::NAN.to_bits()));
    }

    #[test]
    fn key_atom_agrees_with_equality_on_random_pairs() {
        // Pseudo-random Int/Float pairs across magnitudes: a == b must imply
        // atom(a) == atom(b). (An LCG keeps this dependency-free.)
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut equal_pairs = 0;
        for _ in 0..20_000 {
            let r = next();
            let magnitude = [1i64, 1000, 1 << 30, 1 << 53, i64::MAX][(r % 5) as usize];
            let i = (next() as i64) % magnitude;
            let f = if r & 8 == 0 { i as f64 } else { (next() as i64 % magnitude) as f64 / 4.0 };
            let (a, b) = (Value::Int(i), Value::Float(f));
            if a == b {
                equal_pairs += 1;
                assert_eq!(a.key_atom(), b.key_atom(), "{a:?} == {b:?} but atoms differ");
            }
            assert_eq!(a.key_atom(), Value::Int(i).key_atom());
            assert_eq!(b.key_atom(), Value::Float(f).key_atom());
        }
        assert!(equal_pairs > 100, "sweep must exercise equal mixed-type pairs: {equal_pairs}");
    }

    #[test]
    fn as_int_truncates_and_is_not_a_key_path() {
        // Pinned coercion semantics: as_int truncates toward zero…
        assert_eq!(Value::Float(2.9).as_int(), Some(2));
        assert_eq!(Value::Float(-2.9).as_int(), Some(-2));
        // …which collapses *unequal* values — exactly why key-building code
        // must use key_atom, where those stay distinct.
        assert_eq!(Value::Float(2.9).as_int(), Value::Float(2.1).as_int());
        assert_ne!(Value::Float(2.9).key_atom(), Value::Float(2.1).key_atom());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("a".into()).to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
