//! Depth-k temporal blocking: a cyclic y-slab wavefront that advances the
//! whole grid `k` time steps in **one sweep through memory**.
//!
//! ## Why
//!
//! A fused stream+collide step is memory-bound: every step streams the full
//! population set through DRAM once (twice under AB). When the grid is much
//! larger than the last-level cache, running `k` consecutive steps costs `k`
//! full-grid traversals. Temporal blocking restructures those `k` steps into a
//! single skewed sweep in which a small window of y-rows — the only state the
//! in-flight time levels touch — stays cache-resident while every level
//! advances through it, cutting DRAM traffic toward `1/k` of the naive
//! schedule (see `docs/PERFORMANCE.md`, "Temporal blocking").
//!
//! ## The schedule
//!
//! The grid is cut into `s = ceil(ny / by)` y-slabs. Time level `j ∈ 1..=k`
//! processes the slabs in cyclic order starting at slab `j - 1`, lagging level
//! `j - 1` by three wavefront iterations:
//!
//! ```text
//! for w in 0 .. s + 3*(k-1):
//!     for j in 1 ..= k:
//!         i = w - 3*(j-1)
//!         if 0 <= i < s:  process slab (i + j - 1) mod s at level j
//! ```
//!
//! Both the lag and the rotated start are load-bearing:
//!
//! - **Forward dependencies.** A pull-scheme update of slab `t` at level `j`
//!   reads slabs `t-1, t, t+1` of level `j-1`. With lag 3 and the +1 rotation,
//!   level `j-1` is always at least one slab past `t+1` when level `j` reaches
//!   `t` — including the periodic wrap, because the rotation defers each
//!   level's wrap-dependent first slab to the *end* of the previous level's
//!   cycle.
//! - **Anti-dependencies.** Under AB storage levels `j` and `j+2` share a
//!   buffer; six wavefronts of separation mean level `j+1` has consumed a slab
//!   of level-`j` output before level `j+2` overwrites it. Under AA storage the
//!   odd flavor scatters into the ±1-row neighborhood; the slot-ownership
//!   invariant (one writer = one reader per slot) plus the ≥1-slab margin the
//!   lag provides keeps every gather/scatter pair ordered.
//!
//! Degenerate slab counts (`s ≤ 3`) simply collapse toward sequential full
//! steps — the activity windows of consecutive levels stop overlapping — and
//! stay correct.
//!
//! ## Bit-exactness
//!
//! The sweep skews along **y only**: every `(level, slab)` dispatch covers the
//! full x- and z-extent, so every z-pencil is walked whole, and the lane/tail
//! split of its runs and per-cell kernel eligibility are identical to the
//! unblocked dispatch. The blocked schedule
//! is a pure reordering of the same per-cell updates and therefore
//! **bit-identical** to `k` plain steps on every lane, vectorized ones
//! included.

use crate::collision::CollisionKind;
use crate::flags::FlagField;
use crate::kernels::InteriorIndex;
use crate::lattice::Lattice;
use crate::layout::{AaParity, SoaField};
use crate::parallel::ThreadPool;
use crate::simd::KernelClass;
use std::ops::Range;

/// The cyclic rotated-start wavefront: yields `(level, y-range)` work items in
/// an order that satisfies the forward and anti-dependencies documented above.
pub struct WavefrontSchedule {
    ny: usize,
    by: usize,
    s: usize,
    k: usize,
}

/// Lag (in wavefront iterations) between consecutive time levels.
const LAG: usize = 3;

impl WavefrontSchedule {
    /// Schedule `k` time levels over `ny` rows in slabs of `by` rows.
    pub fn new(ny: usize, by: usize, k: usize) -> Self {
        assert!(k >= 1 && ny >= 1 && by >= 1, "degenerate wavefront");
        WavefrontSchedule {
            ny,
            by,
            s: ny.div_ceil(by),
            k,
        }
    }

    /// Slab count.
    pub fn slabs(&self) -> usize {
        self.s
    }

    /// The y-range of slab `t`.
    fn slab_range(&self, t: usize) -> Range<usize> {
        t * self.by..((t + 1) * self.by).min(self.ny)
    }

    /// Drive `f(level, yr)` over every `(level, slab)` pair in wavefront
    /// order. `level` is 1-based; every slab is visited exactly once per
    /// level.
    pub fn for_each(&self, mut f: impl FnMut(usize, Range<usize>)) {
        let (s, k) = (self.s, self.k);
        for w in 0..s + LAG * (k - 1) {
            for j in 1..=k {
                let lagged = w as isize - (LAG * (j - 1)) as isize;
                if lagged < 0 || lagged >= s as isize {
                    continue;
                }
                let t = (lagged as usize + j - 1) % s;
                f(j, self.slab_range(t));
            }
        }
    }
}

/// Slab height for a blocked sweep: one row per worker thread, so each
/// `(level, slab)` dispatch still spreads across the pool while the resident
/// window (≈ `3k` slabs of `by` rows) stays as small as the thread count
/// allows.
pub fn slab_rows(pool: &ThreadPool) -> usize {
    pool.threads().max(1)
}

/// Advance an AB (double-buffered) grid `k` steps in one wavefront sweep.
///
/// `a` must hold the current (source) state; on return the final state is in
/// `a` when `k` is even and in `b` when `k` is odd — the caller flips its
/// buffer pair for odd `k`, exactly like `k` plain steps would have.
#[allow(clippy::too_many_arguments)]
pub fn ab_block<L: Lattice>(
    pool: &ThreadPool,
    flags: &FlagField,
    a: &mut SoaField<L>,
    b: &mut SoaField<L>,
    collision: &CollisionKind,
    interior: Option<&InteriorIndex>,
    k: usize,
) -> KernelClass {
    let dims = flags.dims();
    let schedule = WavefrontSchedule::new(dims.ny, slab_rows(pool), k);
    let mut class = KernelClass::Generic;
    schedule.for_each(|level, yr| {
        // Level j reads buffer (j-1)%2 and writes buffer j%2 (a = 0, b = 1).
        class = if level % 2 == 1 {
            pool.step_rect::<L, _>(flags, a, b, collision, 0..dims.nx, yr, interior)
        } else {
            pool.step_rect::<L, _>(flags, b, a, collision, 0..dims.nx, yr, interior)
        };
    });
    class
}

/// Advance an AA (single-grid) field `k` steps in one wavefront sweep.
///
/// The block must start at parity [`AaParity::Reversed`] and `k` must be even
/// so it also *ends* at `Reversed` — the canonical block-boundary parity
/// checkpoints and diagnostics rely on. Both are the caller's contract
/// (validated by `SolverBuilder::try_build`); this function only debug-asserts
/// them.
pub fn aa_block<L: Lattice>(
    pool: &ThreadPool,
    flags: &FlagField,
    field: &mut SoaField<L>,
    collision: &CollisionKind,
    parity: AaParity,
    interior: Option<&InteriorIndex>,
    k: usize,
) -> KernelClass {
    debug_assert_eq!(parity, AaParity::Reversed, "AA blocks start at Reversed");
    debug_assert_eq!(k % 2, 0, "AA blocks need even depth");
    let dims = flags.dims();
    let schedule = WavefrontSchedule::new(dims.ny, slab_rows(pool), k);
    let mut class = KernelClass::Generic;
    schedule.for_each(|level, yr| {
        let level_parity = if level % 2 == 1 {
            AaParity::Reversed
        } else {
            AaParity::Streamed
        };
        class = pool.aa_step_rect::<L>(
            flags,
            field,
            collision,
            level_parity,
            0..dims.nx,
            yr,
            interior,
        );
    });
    class
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (level, slab) pair appears exactly once, and by the time level j
    /// processes slab t, level j-1 has already processed t-1, t and t+1
    /// (cyclically) — the pull-scheme forward dependency.
    #[test]
    fn wavefront_covers_every_slab_and_respects_dependencies() {
        for ny in [1usize, 2, 3, 4, 5, 7, 12, 33] {
            for by in [1usize, 2, 3] {
                for k in [1usize, 2, 3, 4, 6] {
                    let sched = WavefrontSchedule::new(ny, by, k);
                    let s = sched.slabs();
                    let mut done = vec![vec![false; s]; k + 1];
                    sched.for_each(|j, yr| {
                        let t = yr.start / by;
                        assert!(!done[j][t], "duplicate: level {j} slab {t}");
                        if j > 1 {
                            for d in [s - 1, 0, 1] {
                                let dep = (t + d) % s;
                                assert!(
                                    done[j - 1][dep],
                                    "ny {ny} by {by} k {k}: level {j} slab {t} \
                                     before level {} slab {dep}",
                                    j - 1
                                );
                            }
                        }
                        done[j][t] = true;
                    });
                    for j in 1..=k {
                        assert!(done[j].iter().all(|&d| d), "level {j} incomplete");
                    }
                }
            }
        }
    }

    /// The AB anti-dependency: levels j and j+2 share a buffer, so level j+2
    /// must not write a slab before level j+1 has read it (level j+1 reads
    /// slab t of level-j output while processing t-1, t and t+1).
    #[test]
    fn wavefront_orders_buffer_reuse_after_consumption() {
        for ny in [1usize, 4, 5, 7, 10, 16, 33] {
            for k in [3usize, 4, 5] {
                let sched = WavefrontSchedule::new(ny, 1, k);
                let s = sched.slabs();
                // processed[j][t] = true once level j has processed slab t.
                let mut processed = vec![vec![false; s]; k + 1];
                sched.for_each(|j, yr| {
                    let t = yr.start;
                    // Level j (j >= 3) writes the buffer level j-2 wrote; the
                    // write is safe once level j-1 has processed t-1, t and
                    // t+1 — i.e. read everything it ever reads from slab t.
                    if j >= 3 {
                        for d in [s - 1, 0, 1] {
                            let reader = (t + d) % s;
                            assert!(
                                processed[j - 1][reader],
                                "ny {ny} k {k}: level {j} overwrites slab {t} before \
                                 level {} finished reading it (slab {reader} pending)",
                                j - 1
                            );
                        }
                    }
                    processed[j][t] = true;
                });
            }
        }
    }
}
