//! The benchmark's own arithmetic: percentiles, the tail rule and span self
//! time.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`pct` in (0, 100]).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank, lower middle) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// The highest whole percentile that leaves at least [`TAIL_BEYOND`]
/// samples strictly above its nearest rank, or `None` when fewer than
/// `2 × TAIL_BEYOND` samples exist (not even the median qualifies).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        rank >= 1 && n - rank >= TAIL_BEYOND
    })
}

/// Median and tail of one timing distribution, with what defines the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// Percentile the tail is read at; 100 (the maximum) when too few
    /// samples exist for any percentile to keep ten beyond it.
    pub tail_pct: u32,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(s.len()).unwrap_or(100);
        Some(Summary {
            samples: s.len(),
            p50: percentile(&s, 50.0),
            tail_pct,
            tail: percentile(&s, tail_pct as f64),
        })
    }
}

/// An interval `[start, end]` in seconds.
pub type Interval = (f64, f64);

/// Self time of a span: its duration minus the part of it covered by the
/// union of its children (children may overlap each other and may stick
/// out of the parent; only the covered part inside the parent counts).
pub fn self_time(parent: Interval, children: &[Interval]) -> f64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(a, b)| (a.max(p0), b.min(p1)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<Interval> = None;
    for (a, b) in clipped {
        match cur {
            Some((c0, c1)) if a <= c1 => cur = Some((c0, c1.max(b))),
            Some((c0, c1)) => {
                covered += c1 - c0;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((c0, c1)) = cur {
        covered += c1 - c0;
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // Fewer than 20 samples: no percentile leaves ten beyond it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        // 100 samples: p90 has rank 90, ten beyond; p91 only nine.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        // 37 samples: p72 → rank ceil(26.64)=27, ten beyond; p73 → 28, nine.
        assert_eq!(tail_percentile(37), Some(72));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap() as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                let next = ((p + 1) * n).div_ceil(100);
                assert!(n - next < TAIL_BEYOND, "n={n}: p{} would also do", p + 1);
            }
        }
    }

    #[test]
    fn summary_reads_the_tail_at_that_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.samples, s.tail_pct), (100, 90));
        assert_eq!((s.p50, s.tail), (50.0, 90.0));
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.tail_pct, few.tail, few.p50), (100, 3.0, 2.0));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..10; children 1..4 and 3..6 overlap (union 1..6), 8..12
        // sticks out (counts 8..10 only): covered 7, self 3.
        let st = self_time((0.0, 10.0), &[(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]);
        assert!((st - 3.0).abs() < 1e-12, "{st}");
        // A child nested in another covers nothing extra.
        let nested = self_time((0.0, 10.0), &[(2.0, 8.0), (3.0, 4.0)]);
        assert!((nested - 4.0).abs() < 1e-12);
        // Children entirely outside the parent cover nothing.
        assert_eq!(self_time((0.0, 1.0), &[(2.0, 3.0)]), 1.0);
        assert_eq!(self_time((0.0, 1.0), &[]), 1.0);
    }
}
