//! The cost rules: one function per operator rule, turning counts — rows,
//! pages, hash builds and probes, comparisons, spilled rows, the workspace
//! [`grant`] — into the clock's [`Amounts`]. Operators charge through them
//! as they go (a scan charges `scan(1.0, 0.0)` per page it enters and
//! `scan(0.0, n)` per run of rows); the optimizer prices plan nodes with them
//! on estimated or observed counts. Equal counts give equal bits. The rules
//! operators charge per row are `#[inline]`, so that across crates a
//! `CostClock::charge` of one folds to the one atomic add it needs.

use crate::clock::*;

/// Workspace granted for an ask of `want` rows under a `budget`: at most the
/// budget, but never less than the one-page progress floor `min(want, 100)`,
/// so operators never deadlock and a small ask is not inflated.
pub fn grant(want: f64, budget: f64) -> f64 {
    let want = want.max(0.0);
    want.min(budget).max(want.min(100.0))
}

/// The share of `rows` a `grant` cannot hold (zero when it fits).
pub fn overflow(rows: f64, grant: f64) -> f64 {
    if rows > grant { 1.0 - grant / rows } else { 0.0 }
}

/// A sequential scan reading `pages` pages and touching `rows` rows.
#[inline]
pub fn scan(pages: f64, rows: f64) -> Amounts {
    Amounts::ZERO.with(SEQ_PAGES, pages).with(CPU_TUPLES, rows)
}

/// A predicate evaluated on `rows` rows: one comparison each.
#[inline]
pub fn filter(rows: f64) -> Amounts {
    Amounts::ZERO.with(COMPARES, rows)
}

/// `rows` rows produced by a join, sort, top-N, aggregate, projection or
/// checkpoint: one CPU tuple each.
#[inline]
pub fn emit(rows: f64) -> Amounts {
    Amounts::ZERO.with(CPU_TUPLES, rows)
}

/// One descent into a B-tree of `entries` entries.
#[inline]
pub fn descend(entries: f64) -> Amounts {
    Amounts::ZERO.with(COMPARES, entries.max(2.0).log2())
}

/// `pages` pages read or written at random positions: a buffer-pool fault,
/// an in-place write, a retried partition.
#[inline]
pub fn random_pages(pages: f64) -> Amounts {
    Amounts::ZERO.with(RAND_PAGES, pages)
}

/// Fetching `rows` rows through an index: a clustered index reads their
/// `pages` pages, the first of each of `hits` probes at a random position
/// and the rest in sequence (a range scan is no probe); an unclustered
/// index reads a random page per row.
#[inline]
pub fn fetch(clustered: bool, hits: f64, pages: f64, rows: f64) -> Amounts {
    match clustered {
        true => Amounts::ZERO.with(RAND_PAGES, hits).with(SEQ_PAGES, pages - hits),
        false => random_pages(rows),
    }
}

/// Spilling `rows` rows to temp storage and reading them back.
pub fn spill(p: &CostModelParams, rows: f64) -> Amounts {
    Amounts::ZERO.with(SPILL_PAGES, p.pages(rows))
}

/// Building a hash table over `rows` rows: one hash build each. The share
/// past the grant ([`overflow`]) [`spill`]s, on the build and the probe side.
#[inline]
pub fn hash_build(rows: f64) -> Amounts {
    Amounts::ZERO.with(HASH_BUILDS, rows)
}

/// `rows` probes into a hash table.
#[inline]
pub fn hash_probe(rows: f64) -> Amounts {
    Amounts::ZERO.with(HASH_PROBES, rows)
}

/// `steps` steps of a merge: one key comparison each.
#[inline]
pub fn merge(steps: f64) -> Amounts {
    Amounts::ZERO.with(COMPARES, steps)
}

/// Run generation over `rows` rows: n·log₂n comparisons (none for one row).
pub fn runs(rows: f64) -> Amounts {
    if rows <= 1.0 { Amounts::ZERO } else { merge(rows * rows.log2()) }
}

/// Merging the runs of `rows` rows that overflowed `grant`: one pass of
/// comparisons across ⌈rows / grant⌉ (at least two) runs.
pub fn merge_runs(rows: f64, grant: f64) -> Amounts {
    merge(rows * (rows / grant).ceil().max(2.0).log2())
}

/// A whole sort of `rows` rows under `grant`: its [`runs`], and past the
/// grant the overflow's [`spill`] and the [`merge_runs`].
pub fn sort(p: &CostModelParams, rows: f64, grant: f64) -> Amounts {
    match rows > 1.0 && rows > grant {
        true => runs(rows) + spill(p, rows - grant) + merge_runs(rows, grant),
        false => runs(rows),
    }
}

/// One g-join input of `rows` rows made ready to merge: a verification pass
/// over a sorted input, run generation (a [`sort`]) over an unsorted one.
pub fn prepare(p: &CostModelParams, rows: f64, sorted: bool, grant: f64) -> Amounts {
    match sorted {
        _ if rows <= 1.0 => Amounts::ZERO,
        true => merge(rows),
        false => sort(p, rows, grant),
    }
}

/// One row offered to a top-N buffer holding `held` rows: a binary search
/// and an insert.
#[inline]
pub fn top_n_offer(held: f64) -> Amounts {
    Amounts::ZERO.with(COMPARES, held.max(1.0).log2() + 1.0)
}

/// `rows` rows offered, one by one, to a top-`k` buffer that starts empty.
/// Bit for bit the sum of its offers while the buffer holds at most
/// 2¹⁶ rows; past that, the rest of the fill is summed in closed form
/// (Stirling's ln Γ), so pricing a huge LIMIT takes constant time.
pub fn top_n(rows: f64, k: f64) -> Amounts {
    let fill = rows.min(k).floor();
    let exact = fill.min(65_536.0);
    let filling: Amounts = (0..exact as u64).map(|held| top_n_offer(held as f64)).sum();
    // Σ_{h=exact}^{fill-1} (log₂h + 1) = fill - exact + (ln Γ(fill) - ln Γ(exact)) / ln 2.
    let ln_gamma =
        |x: f64| (x - 0.5) * x.ln() - x + 0.5 * std::f64::consts::TAU.ln() + 1.0 / (12.0 * x);
    let rest = match fill > exact {
        true => fill - exact + (ln_gamma(fill) - ln_gamma(exact)) / std::f64::consts::LN_2,
        false => 0.0,
    };
    filling + Amounts::ZERO.with(COMPARES, rest) + top_n_offer(fill).times(rows - fill)
}

/// Hash aggregation of `rows` rows into `groups` groups: one hash build per
/// row, one CPU tuple per group.
pub fn hash_agg(rows: f64, groups: f64) -> Amounts {
    hash_build(rows) + emit(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostClock;

    #[test]
    fn grant_keeps_the_progress_floor_below_the_ask() {
        assert_eq!(grant(0.0, 0.0), 0.0);
        assert_eq!(grant(5.0, 0.0), 5.0);
        assert_eq!(grant(500.0, 0.0), 100.0);
        assert_eq!(grant(500.0, 300.0), 300.0);
        assert_eq!(grant(500.0, f64::INFINITY), 500.0);
    }

    #[test]
    fn a_top_n_charged_row_by_row_folds_to_the_rule_bit_for_bit() {
        let p = CostModelParams::default();
        for (rows, k) in [(0usize, 5usize), (3, 5), (5, 5), (1_000, 10), (40, 0), (77, 1)] {
            let clock = CostClock::default_clock();
            let mut held = 0usize;
            for _ in 0..rows {
                clock.charge(&top_n_offer(held as f64));
                held = (held + 1).min(k);
            }
            let model = top_n(rows as f64, k as f64);
            assert_eq!(clock.amounts(), model, "{rows} rows, top {k}");
            assert_eq!(clock.now().to_bits(), model.cost(&p).to_bits());
        }
    }

    #[test]
    fn a_top_n_past_the_exact_fill_stays_close_and_prices_a_huge_limit_at_once() {
        let p = CostModelParams::default();
        let (rows, k) = (300_000usize, 200_000usize);
        let offers: Amounts =
            (0..rows).map(|i| top_n_offer(i.min(k) as f64)).sum();
        let (model, exact) = (top_n(rows as f64, k as f64).cost(&p), offers.cost(&p));
        assert!((model - exact).abs() <= exact * 1e-9, "{model} vs {exact}");
        let start = std::time::Instant::now();
        for rows in [1e12, f64::NAN] {
            let _ = top_n(rows, usize::MAX as f64).cost(&p);
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn times_is_exact_for_whole_counts() {
        let one = descend(20_000.0);
        let clock = CostClock::default_clock();
        (0..201).for_each(|_| clock.charge(&one));
        assert_eq!(clock.amounts(), one.times(201.0));
        assert_eq!(one.times(0.0), Amounts::ZERO);
    }
}
