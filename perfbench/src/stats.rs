//! Aggregation math: medians, quartiles, the per-instruction denominator
//! and the pairwise verdict used to compare two result sets.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones an outside
/// checker computes. A single value is its own three quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    match xs.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (xs[0], xs[0], xs[0]),
        ld => {
            let mut data = xs.to_vec();
            data.sort_by(f64::total_cmp);
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Sum over keys of the lowest value seen for each key.
///
/// Each key is a unit of work the run repeats once per pass. On a host
/// whose cores other tenants share, the same code runs up to 1.7x
/// slower in bursts of one to tens of seconds. Contention only ever
/// adds time, and a burst rarely covers every repetition of a unit, so
/// the sum of per-unit bests is the pass's cost on a quiet core: over
/// fifteen 20 s runs it spread 1.3 % where the median pass spread 8 %
/// (see the README).
pub fn best_sum<'a>(samples: impl IntoIterator<Item = (&'a str, f64)>) -> f64 {
    let mut best: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for (key, v) in samples {
        best.entry(key)
            .and_modify(|b| *b = b.min(v))
            .or_insert(v);
    }
    best.values().sum()
}

/// Host nanoseconds per retired instruction. Retired counts committed
/// plus squashed instructions: wrong-path work costs host time too, so
/// leaving it out would make a mix that squashes a lot look slow per
/// instruction.
pub fn ns_per_inst(measure_ns: f64, committed: u64, squashed: u64) -> f64 {
    let retired = committed + squashed;
    if retired == 0 {
        0.0
    } else {
        measure_ns / retired as f64
    }
}

/// Share of attempted runs that failed.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The pairwise rule: the change wins (or loses) when it beats (or
/// trails) the parent in at least nine tenths of the pairs, ties
/// counting for neither side, and the medians differ by more than the
/// parent's own interquartile distance. Pairs are formed in the given
/// order, so callers pair runs of the same seed. Anything else is
/// unresolved.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool) -> Verdict {
    let pairs: Vec<(f64, f64)> = parent.iter().copied().zip(change.iter().copied()).collect();
    if pairs.is_empty() {
        return Verdict::Unresolved;
    }
    let improves = |p: f64, c: f64| if lower_is_better { c < p } else { c > p };
    let wins = pairs.iter().filter(|&&(p, c)| improves(p, c)).count();
    let losses = pairs.iter().filter(|&&(p, c)| improves(c, p)).count();
    let needed = (pairs.len() * 9).div_ceil(10);
    let (q1, pm, q3) = quartiles(parent);
    let gap = median(change) - pm;
    if gap.abs() <= q3 - q1 {
        return Verdict::Unresolved;
    }
    let change_lower = gap < 0.0;
    if wins >= needed && change_lower == lower_is_better {
        Verdict::Better
    } else if losses >= needed && change_lower != lower_is_better {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn best_sum_adds_each_units_lowest_value() {
        let samples = [("a", 3.0), ("b", 10.0), ("a", 2.0), ("b", 12.0), ("a", 5.0)];
        assert_eq!(best_sum(samples), 12.0);
        assert_eq!(best_sum([]), 0.0);
    }

    #[test]
    fn ns_per_inst_counts_squashed_work() {
        assert_eq!(ns_per_inst(1000.0, 60, 40), 10.0);
        assert_eq!(ns_per_inst(1000.0, 100, 0), 10.0);
        assert_eq!(ns_per_inst(1000.0, 0, 0), 0.0);
    }

    #[test]
    fn failed_share_is_a_fraction_of_attempts() {
        assert_eq!(failed_share(1, 4), 0.25);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn verdict_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr() {
        let parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&parent, &faster, true), Verdict::Better);
        assert_eq!(verdict(&faster, &parent, true), Verdict::Worse);
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(verdict(&parent, &faster, false), Verdict::Worse);
        // A shift inside the parent's own spread resolves nothing.
        let nudged: Vec<f64> = parent.iter().map(|x| x - 0.05).collect();
        assert_eq!(verdict(&parent, &nudged, true), Verdict::Unresolved);
        // Winning only 8 of 10 pairs is not enough.
        let mut mixed = faster.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        assert_eq!(verdict(&parent, &mixed, true), Verdict::Unresolved);
        assert_eq!(verdict(&[], &[], true), Verdict::Unresolved);
    }
}
