//! Keyed state: the one typed key map and the one group table that every
//! hash join build side and every aggregation — row, batch or standing
//! view — keys its rows through.
//!
//! ## The typed-key rule
//!
//! A key is the values of a join's or a group's key columns
//! ([`IndexKey`]). Keys are stored typed while they can be ([`Keys`]): a
//! one-column `Int` key lives in an `i64`-keyed map until a key it cannot
//! hold — anything but an `Int` within ±2^53 ([`TYPED_KEYS`]) — must be
//! stored; then every key moves to the `IndexKey`-keyed map, for good. So
//! every stored key keeps its variant and bits, and a lookup matches
//! exactly what `Value`'s `Eq` matches: a `Float(2.0)` finds the key
//! `Int(2)` ([`int_key`]); `-0.0`, `2.5`, a NaN, NULL or a `Str` find
//! nothing in a typed map. Within ±2^53 every `i64` has an `f64` image of
//! its own, so a `Float` equals at most one typed key. A batch pipeline's
//! string key enters on the typed path as its dictionary code, which is
//! exact because every input of one pipeline shares one dictionary.
//!
//! Both maps hash: a typed key under [`IntHasher`]'s one multiply, any
//! other under the standard hasher, which `Value`'s `Hash` keeps consistent
//! with its `Eq`.
//!
//! ## The group table
//!
//! [`GroupTable`] maps a group key to a slot of two flat arenas: the
//! slot's weighted row count and its [`Accumulator`]s, one per aggregate.
//! A query folds every row in at weight +1; a standing view folds a change
//! at ±w and drops a group every row has left, reusing its slot. Groups
//! come out in `Value::total_cmp` order of their keys — the order a query
//! emits — sorted once when asked for, so a lookup per row costs one hash
//! probe. The table keeps a running [`Footprint`] of what it holds — each
//! group's map entry and slot, and each MIN/MAX multiset value — that a
//! full [`recount`](GroupTable::recount) must equal at all times.

use rqp_common::{Accumulator, AggFunc, DataType, Row, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;

/// The values of a join's key columns, or of a group's. A one-column key —
/// every TPC-H join's — is held inline; a wider key holds one boxed slice
/// (an empty one, which allocates nothing, for the global group). Equal,
/// hashed and ordered as the slice of its values, so a one-column key
/// orders as its value does.
#[derive(Debug, Clone)]
pub enum IndexKey {
    /// A one-column key.
    One(Value),
    /// A key of zero or several columns.
    Many(Box<[Value]>),
}

impl IndexKey {
    /// The key of `row` under key `positions`.
    pub fn of(row: &[Value], positions: &[usize]) -> IndexKey {
        IndexKey::with(positions, |p| row[p].clone())
    }

    /// The key whose value at each of `positions` is `value(position)`.
    #[inline]
    pub fn with(positions: &[usize], value: impl Fn(usize) -> Value) -> IndexKey {
        match positions {
            [p] => IndexKey::One(value(*p)),
            _ => IndexKey::Many(positions.iter().map(|&p| value(p)).collect()),
        }
    }

    /// The key's values, one per key column.
    pub fn values(&self) -> &[Value] {
        match self {
            IndexKey::One(v) => std::slice::from_ref(v),
            IndexKey::Many(vs) => vs,
        }
    }

    /// Bytes the key holds outside its map entry: a wide key's boxed
    /// values and the key's string contents.
    pub fn heap_bytes(&self) -> usize {
        let boxed = match self {
            IndexKey::One(_) => 0,
            IndexKey::Many(vs) => vs.len() * size_of::<Value>(),
        };
        boxed + string_bytes(self.values())
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for IndexKey {}

impl std::hash::Hash for IndexKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

/// String contents held by `values`.
pub fn string_bytes(values: &[Value]) -> usize {
    values.iter().map(|v| if let Value::Str(s) = v { s.len() } else { 0 }).sum()
}

/// Bound on a typed map's keys: within ±2^53 every `i64` has an `f64`
/// image of its own, so a `Float` probe equals at most one stored key.
pub const TYPED_KEYS: std::ops::RangeInclusive<i64> = -(1 << 53)..=1 << 53;

/// The typed-map key that `Value`'s `Eq` matches `v` against: an `Int`
/// itself, an integral `Float` its one equal integer; `None` when no key
/// a typed map may hold equals `v`.
#[inline]
pub fn int_key(v: &Value) -> Option<i64> {
    match *v {
        Value::Int(x) => Some(x),
        Value::Float(f) => {
            let i = f as i64;
            (TYPED_KEYS.contains(&i) && (i as f64).to_bits() == f.to_bits()).then_some(i)
        }
        Value::Null | Value::Str(_) => None,
    }
}

/// Keys stored typed while they can be (see the module docs): an
/// `i64`-keyed map until a key it cannot hold must be stored, then an
/// `IndexKey`-keyed map, for good. Lookups match what `Value`'s `Eq`
/// matches either way. Where a map iterates is never observable: join
/// buckets keep their own order, a [`GroupTable`] sorts its keys, packets
/// and snapshots are canonicalized and footprints are sums.
#[derive(Debug)]
pub enum Keys<X> {
    /// One-column `Int` keys within [`TYPED_KEYS`].
    Int(HashMap<i64, X, IntHash>),
    /// Any keys.
    Values(HashMap<IndexKey, X>),
}

/// The typed maps' hasher: one multiply by a 64-bit odd constant, folded
/// so the low bits the table indexes by depend on every key bit — all a
/// map needs whose iteration order nobody observes.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// [`IntHasher`] as a map's hasher.
pub type IntHash = BuildHasherDefault<IntHasher>;

impl<X: Copy> Keys<X> {
    /// Bytes of one typed entry.
    pub const INT_BYTES: usize = size_of::<(i64, X)>();
    /// Bytes of one `IndexKey` entry, before the key's heap bytes.
    pub const VALUE_BYTES: usize = size_of::<(IndexKey, X)>();

    /// An empty map, typed if its keys are one `Int` column.
    pub fn new(key: &[DataType]) -> Self {
        if key == [DataType::Int] {
            Keys::Int(HashMap::default())
        } else {
            Keys::Values(HashMap::new())
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        match self {
            Keys::Int(m) => m.len(),
            Keys::Values(m) => m.len(),
        }
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Make room for `n` more keys.
    pub fn reserve(&mut self, n: usize) {
        match self {
            Keys::Int(m) => m.reserve(n),
            Keys::Values(m) => m.reserve(n),
        }
    }

    /// The value under the stored key `Value`'s `Eq` matches `key` with.
    #[inline]
    pub fn get(&self, key: &IndexKey) -> Option<X> {
        match (self, key) {
            (Keys::Int(m), IndexKey::One(v)) => m.get(&int_key(v)?).copied(),
            (Keys::Int(_), IndexKey::Many(_)) => None,
            (Keys::Values(m), key) => m.get(key).copied(),
        }
    }

    /// [`get`](Self::get), for update.
    #[inline]
    pub fn get_mut(&mut self, key: &IndexKey) -> Option<&mut X> {
        match (self, key) {
            (Keys::Int(m), IndexKey::One(v)) => m.get_mut(&int_key(v)?),
            (Keys::Int(_), IndexKey::Many(_)) => None,
            (Keys::Values(m), key) => m.get_mut(key),
        }
    }

    /// Counted bytes of `key`'s entry: a typed entry's whenever a typed
    /// map can hold the key, whichever map holds it now, so that the count
    /// depends on the keys alone and not on the ones that came and went.
    pub fn entry_bytes(key: &IndexKey) -> usize {
        match key {
            IndexKey::One(Value::Int(k)) if TYPED_KEYS.contains(k) => Self::INT_BYTES,
            _ => Self::VALUE_BYTES + key.heap_bytes(),
        }
    }

    /// Add `key`, which the map does not hold, switching to `IndexKey`s
    /// first when the typed map cannot hold it. Returns the entry's
    /// counted bytes.
    pub fn insert(&mut self, key: IndexKey, value: X) -> usize {
        let bytes = Self::entry_bytes(&key);
        if let Keys::Int(m) = self {
            match key {
                IndexKey::One(Value::Int(k)) if TYPED_KEYS.contains(&k) => {
                    m.insert(k, value);
                    return bytes;
                }
                _ => {
                    let mut values = HashMap::new();
                    for (k, x) in std::mem::take(m) {
                        values.insert(IndexKey::One(Value::Int(k)), x);
                    }
                    *self = Keys::Values(values);
                }
            }
        }
        let Keys::Values(m) = self else { unreachable!("switched above") };
        m.insert(key, value);
        bytes
    }

    /// Drop `key`'s entry (it is present), returning its value and the
    /// stored key's counted bytes.
    pub fn remove(&mut self, key: &IndexKey) -> (X, usize) {
        match (self, key) {
            (Keys::Int(m), IndexKey::One(v)) => {
                let (_, x) = int_key(v).and_then(|k| m.remove_entry(&k)).expect("a present key");
                (x, Self::INT_BYTES)
            }
            (Keys::Int(_), IndexKey::Many(_)) => unreachable!("typed keys are one column"),
            (Keys::Values(m), key) => {
                let (stored, x) = m.remove_entry(key).expect("a present key");
                (x, Self::entry_bytes(&stored))
            }
        }
    }

    /// Every entry as `(key, value, counted bytes)`, in map order.
    pub fn iter(&self) -> impl Iterator<Item = (IndexKey, X, usize)> + '_ {
        let (ints, values) = match self {
            Keys::Int(m) => (Some(m), None),
            Keys::Values(m) => (None, Some(m)),
        };
        let ints = ints.into_iter().flatten().map(|(&k, &x)| (IndexKey::One(Value::Int(k)), x));
        let values = values.into_iter().flatten().map(|(k, &x)| (k.clone(), x));
        ints.chain(values).map(|(k, x)| {
            let bytes = Self::entry_bytes(&k);
            (k, x, bytes)
        })
    }
}

/// A running count of resident entries and their payload bytes, adjusted
/// at every insertion into and removal from a keyed structure, so reading
/// it is O(1).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Resident entries.
    pub rows: usize,
    /// Their payload bytes.
    pub bytes: usize,
}

impl Footprint {
    /// One entry of `bytes` became resident.
    pub fn add(&mut self, bytes: usize) {
        self.rows += 1;
        self.bytes += bytes;
    }

    /// One entry of `bytes` was dropped.
    pub fn remove(&mut self, bytes: usize) {
        self.rows -= 1;
        self.bytes -= bytes;
    }
}

impl std::ops::Add for Footprint {
    type Output = Footprint;
    fn add(self, other: Footprint) -> Footprint {
        Footprint { rows: self.rows + other.rows, bytes: self.bytes + other.bytes }
    }
}

/// Grouped aggregation state: group key → a slot of two flat arenas, the
/// slot's weighted row count and its accumulators (see the module docs).
/// A group costs no heap allocation of its own beyond a wide key's boxed
/// values and its MIN/MAX multisets.
#[derive(Debug)]
pub struct GroupTable {
    /// One per aggregate, in output order.
    funcs: Vec<AggFunc>,
    /// Group key → its slot.
    keys: Keys<u32>,
    /// Weighted row count per slot.
    rows: Vec<i64>,
    /// Slot `g`'s accumulators at `accs[g * funcs.len()..][..funcs.len()]`.
    accs: Vec<Accumulator>,
    /// Slots of dropped groups, reused before the arenas grow.
    free: Vec<u32>,
    /// True for an aggregation without group columns.
    global: bool,
    /// What the table holds right now.
    footprint: Footprint,
}

impl GroupTable {
    /// A table of groups keyed by columns of types `key`, one accumulator
    /// per function of `funcs`. It has no groups yet — but for the global
    /// group, which an aggregation without group columns always has, so
    /// that it finishes to one row (COUNT = 0) even over no input.
    pub fn new(key: &[DataType], funcs: impl IntoIterator<Item = AggFunc>) -> GroupTable {
        let mut table = GroupTable {
            funcs: funcs.into_iter().collect(),
            keys: Keys::new(key),
            rows: Vec::new(),
            accs: Vec::new(),
            free: Vec::new(),
            global: key.is_empty(),
            footprint: Footprint::default(),
        };
        if table.global {
            table.group(IndexKey::Many(Box::new([])));
        }
        table
    }

    /// Size the key map and the arenas for `groups` more groups.
    pub fn reserve(&mut self, groups: usize) {
        self.keys.reserve(groups);
        self.rows.reserve(groups);
        self.accs.reserve(groups * self.funcs.len());
    }

    /// The group keys, for inspection.
    pub fn keys(&self) -> &Keys<u32> {
        &self.keys
    }

    /// Live groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the table holds no group (never, with no group columns).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every slot's weighted row count, freed slots included.
    pub fn row_counts(&self) -> &[i64] {
        &self.rows
    }

    /// Every slot's accumulators, freed slots included.
    pub fn accumulators(&self) -> &[Accumulator] {
        &self.accs
    }

    /// The arenas' capacities: row counts and accumulators.
    pub fn capacity(&self) -> (usize, usize) {
        (self.rows.capacity(), self.accs.capacity())
    }

    /// Slot `g`'s accumulators.
    fn accs(&self, g: u32) -> &[Accumulator] {
        let n = self.funcs.len();
        &self.accs[g as usize * n..][..n]
    }

    /// Counted bytes of a group's slot: its row count and the fixed part
    /// of each accumulator (multiset values are counted apart).
    pub fn slot_bytes(&self) -> usize {
        size_of::<i64>() + self.funcs.len() * size_of::<Accumulator>()
    }

    /// The slot of `key`'s group, created empty (and counted) when there is
    /// none.
    #[inline]
    pub fn group(&mut self, key: IndexKey) -> u32 {
        if let Some(g) = self.keys.get(&key) {
            return g;
        }
        let g = self.free.pop().unwrap_or_else(|| {
            self.rows.push(0);
            self.accs.extend(self.funcs.iter().map(|&f| Accumulator::for_func(f)));
            u32::try_from(self.rows.len() - 1).expect("fewer than u32::MAX groups")
        });
        let bytes = self.keys.insert(key, g) + self.slot_bytes();
        self.footprint.add(bytes);
        g
    }

    /// Add `weight` rows to slot `g`'s row count.
    #[inline]
    pub fn add_rows(&mut self, g: u32, weight: i64) {
        self.rows[g as usize] += weight;
    }

    /// Fold `v` at `weight` into aggregate `a` of slot `g` (see
    /// [`Accumulator::apply`]), counting the multiset value it added or
    /// dropped.
    #[inline]
    pub fn fold(&mut self, a: usize, g: u32, v: Option<&Value>, weight: i64) {
        let acc = &mut self.accs[g as usize * self.funcs.len() + a];
        let held = acc.multiset_len();
        acc.apply(v, weight);
        // The multiset gained or lost at most this one value.
        if let Some(v) = v {
            match acc.multiset_len().cmp(&held) {
                std::cmp::Ordering::Greater => {
                    self.footprint.add(Accumulator::multiset_entry_bytes(v))
                }
                std::cmp::Ordering::Less => {
                    self.footprint.remove(Accumulator::multiset_entry_bytes(v))
                }
                std::cmp::Ordering::Equal => {}
            }
        }
    }

    /// Fold the non-null number `x` at `weight` into aggregate `a` of slot
    /// `g`, a COUNT, SUM or AVG (see [`Accumulator::add`]).
    #[inline]
    pub fn add(&mut self, a: usize, g: u32, x: f64, weight: i64) {
        self.accs[g as usize * self.funcs.len() + a].add(x, weight);
    }

    /// Drop `key`'s group if every row has left it — a from-scratch run
    /// would not see it — resetting its slot for reuse. The global group
    /// stays, COUNT=0 and all.
    pub fn drop_if_empty(&mut self, key: &IndexKey) {
        if self.global {
            return;
        }
        let Some(g) = self.keys.get(key) else { return };
        if self.rows[g as usize] > 0 {
            return;
        }
        // A group without rows has had every value retracted: its
        // multisets are already empty and uncounted.
        let bytes = self.keys.remove(key).1 + self.slot_bytes();
        self.footprint.remove(bytes);
        let n = self.funcs.len();
        self.rows[g as usize] = 0;
        for (a, &f) in self.accs[g as usize * n..][..n].iter_mut().zip(&self.funcs) {
            *a = Accumulator::for_func(f);
        }
        self.free.push(g);
    }

    /// The group's current output row (group key ++ aggregate values);
    /// `None` when the group has no rows.
    pub fn output(&self, key: &IndexKey) -> Option<Row> {
        self.output_of(key, self.keys.get(key)?)
    }

    /// [`output`](Self::output) of the group at slot `g`.
    pub fn output_of(&self, key: &IndexKey, g: u32) -> Option<Row> {
        if self.rows[g as usize] <= 0 && !self.global {
            return None;
        }
        let finished = self.funcs.iter().zip(self.accs(g)).map(|(&f, a)| a.finish(f));
        Some(key.values().iter().cloned().chain(finished).collect())
    }

    /// Every group as `(key, slot)`, in key order.
    pub fn groups(&self) -> Vec<(IndexKey, u32)> {
        let mut groups: Vec<(IndexKey, u32)> = self.keys.iter().map(|(k, g, _)| (k, g)).collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        groups
    }

    /// Every group's output row, in key order — what a query emits.
    pub fn finish(&self) -> Vec<Row> {
        self.groups().into_iter().filter_map(|(k, g)| self.output_of(&k, g)).collect()
    }

    /// What the table holds: one entry per group and per multiset value.
    pub fn footprint(&self) -> Footprint {
        self.footprint
    }

    /// The footprint recounted by walking every group — what the running
    /// count must equal at all times.
    pub fn recount(&self) -> Footprint {
        let mut fp = Footprint::default();
        for (_, g, bytes) in self.keys.iter() {
            let accs = self.accs(g);
            fp.rows += 1 + accs.iter().map(Accumulator::multiset_len).sum::<usize>();
            fp.bytes += bytes
                + self.slot_bytes()
                + accs.iter().map(Accumulator::multiset_bytes).sum::<usize>();
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Float equal to a typed key finds it; an `Int` past ±2^53 and a
    /// NULL switch the map mid-build, and every key found before the
    /// switch is found after it.
    #[test]
    fn typed_keys_switch_mid_build_and_still_match_like_values() {
        let mut keys: Keys<u32> = Keys::new(&[DataType::Int]);
        let one = IndexKey::One;
        for k in 0..4 {
            assert_eq!(keys.insert(one(Value::Int(k)), k as u32), Keys::<u32>::INT_BYTES);
        }
        let late = [Value::Int((1 << 53) + 1), Value::Null];
        for (i, v) in late.into_iter().enumerate() {
            let typed = matches!(keys, Keys::Int(_));
            assert_eq!(typed, i == 0);
            assert_eq!(keys.get(&one(Value::Float(2.0))), Some(2));
            for miss in [Value::Float(-0.0), Value::Float(f64::NAN), Value::Float(2.5)] {
                assert_eq!(keys.get(&one(miss)), None);
            }
            assert_eq!(keys.get(&one(Value::Float(0.0))), Some(0));
            keys.insert(one(v), 10 + i as u32);
        }
        assert!(matches!(keys, Keys::Values(_)), "switched");
        assert_eq!(keys.get(&one(Value::Int((1 << 53) + 1))), Some(10));
        assert_eq!(keys.get(&one(Value::Null)), Some(11));
        assert_eq!(keys.get(&one(Value::Float(3.0))), Some(3));
        assert_eq!(keys.iter().map(|(_, _, b)| b).sum::<usize>(), {
            let values = Keys::<u32>::VALUE_BYTES;
            4 * Keys::<u32>::INT_BYTES + 2 * values
        });
    }

    /// Groups finish in `Value` order whichever map holds them, each group
    /// under the first key of its equal class, and the running footprint
    /// equals a recount.
    #[test]
    fn group_table_finishes_in_key_order() {
        let mut t = GroupTable::new(&[DataType::Int], [AggFunc::Count, AggFunc::Min]);
        let keys = [Value::Int(3), Value::Float(1.0), Value::Int(1), Value::Null, Value::Int(-2)];
        for (i, k) in keys.iter().enumerate() {
            let g = t.group(IndexKey::One(k.clone()));
            t.add_rows(g, 1);
            t.fold(0, g, None, 1);
            t.fold(1, g, Some(&Value::Int(i as i64)), 1);
        }
        let want = vec![
            vec![Value::Null, Value::Int(1), Value::Int(3)],
            vec![Value::Int(-2), Value::Int(1), Value::Int(4)],
            vec![Value::Float(1.0), Value::Int(2), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1), Value::Int(0)],
        ];
        assert_eq!(t.finish(), want);
        assert!(matches!(t.keys(), Keys::Values(_)), "a Float key switched the map");
        assert_eq!(t.footprint(), t.recount());
        let global = GroupTable::new(&[], [AggFunc::Count, AggFunc::Avg]);
        assert_eq!(global.finish(), vec![vec![Value::Int(0), Value::Null]]);
    }
}
