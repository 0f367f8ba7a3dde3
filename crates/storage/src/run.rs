//! The packed sorted run: the storage layout of every [`Index`](crate::Index).
//!
//! * the **base run** ([`Run`]) — the distinct key tuples ascending under
//!   [`Value::total_cmp`] in one typed [`ColumnData`] per indexed column,
//!   one `u32` offset per key, and the row ids as `u32`s grouped by key in
//!   insertion order. It is immutable; an index holds it behind an `Arc`;
//! * the **append partition** ([`Tail`], the partitioned-B-tree sense of
//!   adaptive merging) — a small tail of `(key, rid)` entries kept sorted by
//!   key, then insertion order. Lookups merge it in key order, base rids
//!   before tail rids within a key; [`Run::merged`] folds it into a fresh
//!   base.
//!
//! This module holds the layout and its searches; the index that owns a run
//! (names, clustering, lookups, inserts and when to merge) is
//! [`crate::index`].

use crate::column::ColumnData;
use crate::group::Groups;
use rqp_common::{Result, RqpError, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// How cell `i` of a key column orders against a probe value — exactly
/// `col.get(i).total_cmp(v)`, without building the `Value`.
fn cmp_cell(col: &ColumnData, i: usize, v: &Value) -> Ordering {
    match (col, v) {
        (_, Value::Null) => Ordering::Greater,
        (ColumnData::Int(k), Value::Int(x)) => k.get(i).cmp(x),
        (ColumnData::Int(k), Value::Float(x)) => (k.get(i) as f64).total_cmp(x),
        (ColumnData::Float(k), Value::Int(x)) => k[i].total_cmp(&(*x as f64)),
        (ColumnData::Float(k), Value::Float(x)) => k[i].total_cmp(x),
        (ColumnData::Str(k), Value::Str(x)) => k[i].as_str().cmp(x.as_str()),
        (ColumnData::Int(_) | ColumnData::Float(_), Value::Str(_)) => Ordering::Less,
        (ColumnData::Str(_), Value::Int(_) | Value::Float(_)) => Ordering::Greater,
    }
}

/// How key tuple `i` orders against the probe `prefix ++ next`, comparing
/// only as many leading columns as the probe has: a key that extends the
/// probe compares `Equal`.
pub(crate) fn cmp_probe(
    keys: &[ColumnData],
    i: usize,
    prefix: &[Value],
    next: Option<&Value>,
) -> Ordering {
    for (col, v) in keys.iter().zip(prefix.iter().chain(next)) {
        let ord = cmp_cell(col, i, v);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Lexicographic order of key tuple `a[i]` against `b[j]`; both sides have
/// the same column types.
pub(crate) fn cmp_rows<A, B>(a: &[A], i: usize, b: &[B], j: usize) -> Ordering
where
    A: Borrow<ColumnData>,
    B: Borrow<ColumnData>,
{
    for (ca, cb) in a.iter().zip(b) {
        let ord = match (ca.borrow(), cb.borrow()) {
            (ColumnData::Int(x), ColumnData::Int(y)) => x.get(i).cmp(&y.get(j)),
            (ColumnData::Float(x), ColumnData::Float(y)) => x[i].total_cmp(&y[j]),
            (ColumnData::Str(x), ColumnData::Str(y)) => x[i].cmp(&y[j]),
            _ => unreachable!("key columns of one index share their types"),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// First position in `[from, end)` whose key is not `Less` than the probe
/// (`cmp(i)` orders key `i` against it). One binary search.
pub(crate) fn lower_bound(from: usize, end: usize, cmp: impl Fn(usize) -> Ordering) -> usize {
    let (mut lo, mut hi) = (from, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(mid) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First position in `[from, end)` whose key is `Greater` than the probe,
/// galloping up from `from`: a point lookup ends one or two compares past
/// its lower bound instead of paying a second full binary search.
pub(crate) fn upper_bound(from: usize, end: usize, cmp: impl Fn(usize) -> Ordering) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step <= end && cmp(lo + step - 1) != Ordering::Greater {
        lo += step;
        step *= 2;
    }
    let mut hi = (lo + step - 1).min(end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(mid) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

pub(crate) fn empty_like<C: Borrow<ColumnData>>(cols: &[C]) -> Vec<ColumnData> {
    cols.iter().map(|c| ColumnData::empty(c.borrow().data_type())).collect()
}

fn push_key<C: Borrow<ColumnData>>(dst: &mut [ColumnData], src: &[C], i: usize) {
    for (d, s) in dst.iter_mut().zip(src) {
        d.push(s.borrow().get(i));
    }
}

/// Row ids and entry counts are `u32` inside an index.
pub(crate) fn to_u32(n: usize) -> Result<u32> {
    u32::try_from(n)
        .map_err(|_| RqpError::Invalid(format!("{n} exceeds the index limit of {} rows", u32::MAX)))
}

/// The immutable base: distinct keys, one offset per key, grouped row ids.
#[derive(Debug)]
pub(crate) struct Run {
    /// One typed column per indexed column; row `k` is the `k`-th distinct
    /// key tuple, strictly ascending.
    pub(crate) keys: Vec<ColumnData>,
    /// `rids[offsets[k]..offsets[k + 1]]` are key `k`'s rows;
    /// `offsets.len() == nkeys + 1`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) rids: Vec<u32>,
}

impl Run {
    pub(crate) fn nkeys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Close a run under construction (`offsets` ends with `rids.len()`):
    /// exact-size buffers.
    fn seal(mut keys: Vec<ColumnData>, mut offsets: Vec<u32>, rids: Vec<u32>) -> Run {
        keys.iter_mut().for_each(ColumnData::shrink_to_fit);
        offsets.shrink_to_fit();
        Run { keys, offsets, rids }
    }

    /// Group the rows by the indexed columns: row ids in key order,
    /// ascending within a key. A one-column numeric key goes through the
    /// grouping kernel ([`Groups`]): every TPC-H index key is an integer of
    /// narrow span, counted in O(n), so the seven indexes over 200 000
    /// `lineitem` rows build in ≈3.5 ms against ≈16–22 ms for the stable
    /// row-id sort (2-core x86-64 VM). A multi-column or string key sorts a
    /// row-id permutation with [`cmp_rows`].
    pub(crate) fn build(cols: &[&ColumnData], nrows: u32) -> Run {
        if let [col] = cols {
            if let Some((groups, rids)) = Groups::with_rids(col) {
                debug_assert_eq!(rids.len(), nrows as usize);
                return Run::seal(vec![groups.keys], groups.offsets, rids);
            }
        }
        Run::build_by_sort(cols, nrows)
    }

    /// Sort a row-id permutation by the indexed columns (stable, so rids
    /// stay ascending within a key) and cut it into key groups.
    pub(crate) fn build_by_sort(cols: &[&ColumnData], nrows: u32) -> Run {
        let mut rids: Vec<u32> = (0..nrows).collect();
        rids.sort_by(|&a, &b| cmp_rows(cols, a as usize, cols, b as usize));
        let mut keys = empty_like(cols);
        let mut offsets = Vec::new();
        for (pos, &r) in rids.iter().enumerate() {
            let new_key = pos == 0
                || cmp_rows(cols, rids[pos - 1] as usize, cols, r as usize) != Ordering::Equal;
            if new_key {
                push_key(&mut keys, cols, r as usize);
                offsets.push(pos as u32);
            }
        }
        offsets.push(nrows);
        Run::seal(keys, offsets, rids)
    }

    /// This run with `tail` merged in: one pass over both in key order, base
    /// rids before tail rids within a key.
    pub(crate) fn merged(&self, tail: &Tail) -> Run {
        let (nb, nt) = (self.nkeys(), tail.rids.len());
        let mut keys = empty_like(&self.keys);
        let mut offsets = Vec::with_capacity(nb + 1);
        let mut rids = Vec::with_capacity(self.rids.len() + nt);
        let (mut i, mut j) = (0, 0);
        while i < nb || j < nt {
            let ord = match (i < nb, j < nt) {
                (true, true) => cmp_rows(&self.keys, i, &tail.keys, j),
                (true, false) => Ordering::Less,
                _ => Ordering::Greater,
            };
            offsets.push(rids.len() as u32);
            if ord == Ordering::Greater {
                push_key(&mut keys, &tail.keys, j);
            } else {
                push_key(&mut keys, &self.keys, i);
                rids.extend_from_slice(
                    &self.rids[self.offsets[i] as usize..self.offsets[i + 1] as usize],
                );
                i += 1;
            }
            if ord != Ordering::Less {
                let group = j;
                while j < nt && cmp_rows(&tail.keys, j, &tail.keys, group) == Ordering::Equal {
                    rids.push(tail.rids[j]);
                    j += 1;
                }
            }
        }
        offsets.push(rids.len() as u32);
        Run::seal(keys, offsets, rids)
    }
}

/// The append partition: one key row per entry, sorted by key then insertion
/// order.
#[derive(Debug, Clone)]
pub(crate) struct Tail {
    pub(crate) keys: Vec<ColumnData>,
    pub(crate) rids: Vec<u32>,
}
