//! The grouping kernel: a numeric column's rows cut into runs of equal keys,
//! ascending — what ANALYZE counts distinct values and builds histograms
//! from, and what a one-column index lays out as its base run.
//!
//! Two strategies, chosen by the input:
//!
//! * **counting**, O(n + span) — an integer column whose values span at most
//!   `max(n, 2^16)` slots: one pass for the bounds, one counting pass at the
//!   stored width, keys and offsets from the prefix sums, and (for an index)
//!   one placing pass that writes each row id at its key's cursor, so row
//!   ids stay ascending within a key;
//! * **sorting**, O(n log n) — floats and sparse integers: each value
//!   becomes a `u64` whose unsigned order is the column's order (a float's
//!   bits under [`f64::total_cmp`], an integer with its sign bit flipped),
//!   sorted in place with no comparator, then cut into runs and mapped
//!   back. An index packs the row id under the key in a `u128`, so the
//!   unstable sort yields the stable order.
//!
//! Keys are equal when their bit patterns are: every NaN payload and each
//! zero is a key of its own, and a float column's runs ascend under
//! `total_cmp`.

use crate::column::{each_width, wide, ColumnData, IntSlice};

/// A column's values as runs of equal keys.
#[derive(Debug)]
pub struct Groups {
    /// The distinct keys, strictly ascending, in a column of the input's
    /// type.
    pub keys: ColumnData,
    /// `offsets.len() == keys.len() + 1`: key `k` covers positions
    /// `offsets[k]..offsets[k + 1]` of the values in key order, so
    /// `offsets[k + 1] - offsets[k]` is how many values equal it.
    pub offsets: Vec<u32>,
}

impl Groups {
    /// Group every row of `col`, or the rows `ids` (a sample; duplicates
    /// count twice). `None` for a string column. Panics beyond `u32::MAX`
    /// values.
    pub fn of(col: &ColumnData, ids: Option<&[usize]>) -> Option<Groups> {
        group(col, ids, false).map(|(groups, _)| groups)
    }

    /// Group every row of `col` and return the row ids in key order,
    /// ascending within a key. `None` for a string column.
    pub(crate) fn with_rids(col: &ColumnData) -> Option<(Groups, Vec<u32>)> {
        group(col, None, true)
    }
}

fn group(col: &ColumnData, ids: Option<&[usize]>, rids: bool) -> Option<(Groups, Vec<u32>)> {
    let n = ids.map_or(col.len(), <[usize]>::len);
    assert!(u32::try_from(n).is_ok(), "{n} values exceed the grouping limit of u32::MAX");
    Some(match col {
        ColumnData::Int(v) => {
            let (keys, offsets, rids) = each_width!(IntSlice, v.as_slice(), xs => match ids {
                None => ints(|| xs.iter().map(|&x| wide(x)), n, rids),
                Some(ids) => ints(|| ids.iter().map(|&i| wide(xs[i])), n, rids),
            });
            (Groups { keys: ColumnData::Int(keys.into()), offsets }, rids)
        }
        ColumnData::Float(xs) => {
            let (keys, offsets, rids) = match ids {
                None => sorted(xs.iter().map(|&x| float_key(x)), n, rids),
                Some(ids) => sorted(ids.iter().map(|&i| float_key(xs[i])), n, rids),
            };
            let keys = keys.into_iter().map(float_of).collect();
            (Groups { keys: ColumnData::Float(keys), offsets }, rids)
        }
        ColumnData::Str(_) => return None,
    })
}

/// A float's position in `total_cmp` order as an unsigned key: positive
/// values gain the sign bit, negative ones have every bit flipped.
fn float_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn float_of(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// An integer's position in signed order as an unsigned key.
fn int_key(x: i64) -> u64 {
    (x as u64) ^ 1 << 63
}

fn int_of(key: u64) -> i64 {
    (key ^ 1 << 63) as i64
}

/// The integers `vals()` yields (`n` of them) as ascending distinct keys,
/// run offsets and, if `with_rids`, row ids in key order — by counting when
/// their span allows, else by sorting.
fn ints<I: Iterator<Item = i64>>(
    vals: impl Fn() -> I,
    n: usize,
    with_rids: bool,
) -> (Vec<i64>, Vec<u32>, Vec<u32>) {
    let (lo, hi) = vals().fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
    let slots = i128::from(hi) - i128::from(lo) + 1;
    if n == 0 || slots > n.max(1 << 16) as i128 {
        let (keys, offsets, rids) = sorted(vals().map(int_key), n, with_rids);
        return (keys.into_iter().map(int_of).collect(), offsets, rids);
    }
    // Every value lies within `slots` of `lo`, so the wrapping difference is
    // the exact, in-range offset.
    let slot = |x: i64| x.wrapping_sub(lo) as u64 as usize;
    let mut counts = vec![0u32; slots as usize];
    for x in vals() {
        counts[slot(x)] += 1;
    }
    let ndv = counts.iter().filter(|&&c| c != 0).count();
    let (mut keys, mut offsets) = (Vec::with_capacity(ndv), Vec::with_capacity(ndv + 1));
    let mut at = 0u32;
    for (k, count) in counts.iter_mut().enumerate() {
        if *count != 0 {
            keys.push(lo.wrapping_add(k as i64));
            offsets.push(at);
            // The count becomes the key's first position: the cursor the
            // placing pass advances.
            (*count, at) = (at, at + *count);
        }
    }
    offsets.push(at);
    let mut rids = Vec::new();
    if with_rids {
        rids = vec![0u32; n];
        for (r, x) in vals().enumerate() {
            let cursor = &mut counts[slot(x)];
            rids[*cursor as usize] = r as u32;
            *cursor += 1;
        }
    }
    (keys, offsets, rids)
}

/// `n` order-preserving keys as ascending distinct keys, run offsets and,
/// if `with_rids`, row ids (positions in `keys`) in key order, ascending
/// within a key.
fn sorted(
    keys: impl Iterator<Item = u64>,
    n: usize,
    with_rids: bool,
) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::new();
    if !with_rids {
        let mut keys: Vec<u64> = keys.collect();
        keys.sort_unstable();
        // Cut the runs in place: the distinct keys move to the front.
        let mut ndv = 0;
        for i in 0..keys.len() {
            if i == 0 || keys[i] != keys[ndv - 1] {
                keys[ndv] = keys[i];
                offsets.push(i as u32);
                ndv += 1;
            }
        }
        offsets.push(n as u32);
        keys.truncate(ndv);
        return (keys, offsets, Vec::new());
    }
    // Key in the high 64 bits, row id in the low ones: one unstable sort of
    // the pairs is the stable sort of the keys.
    let mut pairs: Vec<u128> =
        keys.enumerate().map(|(r, k)| u128::from(k) << 64 | r as u128).collect();
    pairs.sort_unstable();
    let mut distinct = Vec::new();
    let mut rids = Vec::with_capacity(n);
    for (i, &p) in pairs.iter().enumerate() {
        let key = (p >> 64) as u64;
        if distinct.last() != Some(&key) {
            distinct.push(key);
            offsets.push(i as u32);
        }
        rids.push(p as u32);
    }
    offsets.push(n as u32);
    (distinct, offsets, rids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_preserving_keys_round_trip_and_follow_total_cmp() {
        let nan_payload = f64::from_bits(f64::NAN.to_bits() | 0xbeef);
        let floats = [
            f64::NEG_INFINITY, -f64::NAN, -1.5, -f64::MIN_POSITIVE, -0.0, 0.0, 5e-324,
            f64::MIN_POSITIVE, 2.0, f64::INFINITY, f64::NAN, nan_payload,
        ];
        for a in floats {
            assert_eq!(float_of(float_key(a)).to_bits(), a.to_bits());
            for b in floats {
                assert_eq!(float_key(a).cmp(&float_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        for x in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(int_of(int_key(x)), x);
            assert_eq!(int_key(x).cmp(&int_key(0)), x.cmp(&0));
        }
    }

    #[test]
    fn counting_and_sorting_cut_the_same_runs() {
        let vals = [5i64, -3, 5, 9, -3, 5, 0];
        let by_count = ints(|| vals.iter().copied(), vals.len(), true);
        let (keys, offsets, rids) = sorted(vals.iter().map(|&x| int_key(x)), vals.len(), true);
        let keys: Vec<i64> = keys.into_iter().map(int_of).collect();
        assert_eq!(by_count, (keys, offsets, rids));
        assert_eq!(by_count.0, [-3, 0, 5, 9]);
        assert_eq!(by_count.1, [0, 2, 3, 6, 7]);
        assert_eq!(by_count.2, [1, 4, 6, 0, 2, 5, 3]);
    }

    #[test]
    fn spans_up_to_the_full_i64_range_do_not_overflow() {
        let col = ColumnData::Int(vec![i64::MAX, i64::MIN, 0, i64::MAX].into());
        let (g, rids) = Groups::with_rids(&col).unwrap();
        assert_eq!(g.keys.as_int_slice().unwrap().to_vec(), [i64::MIN, 0, i64::MAX]);
        assert_eq!((g.offsets, rids), (vec![0, 1, 2, 4], vec![1, 2, 0, 3]));
        let sample = Groups::of(&col, Some(&[3, 0])).unwrap();
        assert_eq!((sample.keys.len(), sample.offsets), (1, vec![0, 2]));
    }

    #[test]
    fn empty_and_string_columns() {
        let g = Groups::of(&ColumnData::Float(Vec::new()), None).unwrap();
        assert_eq!((g.keys.len(), g.offsets), (0, vec![0]));
        let g = Groups::of(&ColumnData::Int(Vec::new().into()), None).unwrap();
        assert_eq!((g.keys.len(), g.offsets), (0, vec![0]));
        assert!(Groups::of(&ColumnData::Str(vec!["a".into()]), None).is_none());
    }
}
