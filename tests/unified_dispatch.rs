//! Cross-layer equivalence of the unified execution pipeline.
//!
//! Every dispatch level must reproduce the serial generic reference: the
//! pooled shared-memory sweep and the distributed solver's
//! inner-rectangle/boundary-ring split under both exchange schedules — for
//! every combination of thread count and rank count, including degenerate
//! subdomains whose inner rectangle is empty. Parallelism and temporal
//! blocking only re-schedule independent per-cell updates, so paths with
//! scalar semantics (generic fallback, `SWLB_NO_SIMD=1`, the portable lane)
//! are compared with `assert_eq!`; when the host auto-selects an FMA lane
//! (AVX2 or AVX-512) its fused multiply-adds legitimately differ from the scalar reference
//! by rounding, and those comparisons use
//! `swlb_core::simd::dispatch_tolerance()` instead.

use swlb_comm::World;
use swlb_core::collision::{BgkParams, CollisionKind, SmagorinskyParams};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::fused_step;
use swlb_core::lattice::{Lattice, D2Q9, D3Q19};
use swlb_core::layout::{PopField, SoaField, StorageScheme};
use swlb_core::parallel::ThreadPool;
use swlb_core::Scalar;
use swlb_sim::engine::{DistributedSolver, ExchangeMode};

fn init_state(x: usize, y: usize, z: usize) -> (Scalar, [Scalar; 3]) {
    let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
    (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
}

fn reference_run<L: Lattice>(
    global: GridDims,
    flags: &FlagField,
    coll: &CollisionKind,
    steps: u64,
) -> SoaField<L> {
    let mut src = SoaField::<L>::new(global);
    swlb_core::kernels::initialize_with::<L, _>(flags, &mut src, init_state);
    let mut dst = SoaField::<L>::new(global);
    for _ in 0..steps {
        fused_step(flags, &src, &mut dst, coll);
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

#[allow(clippy::too_many_arguments)]
fn distributed_run<L: Lattice>(
    global: GridDims,
    flags: &FlagField,
    coll: CollisionKind,
    steps: u64,
    ranks: usize,
    mode: ExchangeMode,
    pool_threads: usize,
) -> SoaField<L> {
    let out = World::new(ranks).run(|comm| {
        let mut s = DistributedSolver::<L>::builder(&comm, global, flags, coll)
            .exchange(mode)
            .pool(ThreadPool::new(pool_threads))
            .build();
        s.initialize_with(init_state);
        s.run(steps).unwrap();
        s.gather_populations().unwrap()
    });
    out.into_iter().next().unwrap().expect("rank 0 gathers")
}

/// Like [`distributed_run`], but under single-grid AA-pattern storage. The
/// gather canonicalizes, so the result compares directly against the AB
/// ping-pong reference.
#[allow(clippy::too_many_arguments)]
fn distributed_run_aa<L: Lattice>(
    global: GridDims,
    flags: &FlagField,
    coll: CollisionKind,
    steps: u64,
    ranks: usize,
    mode: ExchangeMode,
    pool_threads: usize,
) -> SoaField<L> {
    let out = World::new(ranks).run(|comm| {
        let mut s = DistributedSolver::<L>::builder(&comm, global, flags, coll)
            .exchange(mode)
            .pool(ThreadPool::new(pool_threads))
            .storage(StorageScheme::Aa)
            .build();
        s.initialize_with(init_state);
        s.run(steps).unwrap();
        s.gather_populations().unwrap()
    });
    out.into_iter().next().unwrap().expect("rank 0 gathers")
}

/// The fully parameterized runner: storage scheme and temporal-blocking
/// depth on top of [`distributed_run`]'s axes.
#[allow(clippy::too_many_arguments)]
fn distributed_run_k<L: Lattice>(
    global: GridDims,
    flags: &FlagField,
    coll: CollisionKind,
    steps: u64,
    ranks: usize,
    mode: ExchangeMode,
    pool_threads: usize,
    scheme: StorageScheme,
    time_block: usize,
) -> SoaField<L> {
    let out = World::new(ranks).run(|comm| {
        let mut s = DistributedSolver::<L>::builder(&comm, global, flags, coll)
            .exchange(mode)
            .pool(ThreadPool::new(pool_threads))
            .storage(scheme)
            .time_block(time_block)
            .build();
        s.initialize_with(init_state);
        s.run(steps).unwrap();
        s.gather_populations().unwrap()
    });
    out.into_iter().next().unwrap().expect("rank 0 gathers")
}

fn assert_fields_equal<L: Lattice>(a: &SoaField<L>, b: &SoaField<L>, what: &str) {
    assert_fields_close(a, b, 0.0, what);
}

/// Fluid-cells-only comparison: AA wall slots are in-place scatter mailboxes,
/// so solid cells of a canonicalized AA field are not comparable to AB.
fn assert_fluid_cells_close<L: Lattice>(
    flags: &FlagField,
    a: &SoaField<L>,
    b: &SoaField<L>,
    tol: f64,
    what: &str,
) {
    for cell in 0..a.dims().cells() {
        if flags.kind(cell) != swlb_core::boundary::NodeKind::Fluid {
            continue;
        }
        for q in 0..L::Q {
            let (x, y) = (a.get(cell, q), b.get(cell, q));
            assert!(
                (x - y).abs() <= tol,
                "{what}: cell {cell} q {q}: {x} vs {y}"
            );
        }
    }
}

fn assert_fields_close<L: Lattice>(a: &SoaField<L>, b: &SoaField<L>, tol: f64, what: &str) {
    let cells = a.dims().cells();
    for cell in 0..cells {
        for q in 0..L::Q {
            let (x, y) = (a.get(cell, q), b.get(cell, q));
            assert!(
                (x - y).abs() <= tol,
                "{what}: cell {cell} q {q}: {x} vs {y}"
            );
        }
    }
}

/// The full matrix: (exchange mode × threads × rank count) against
/// the serial generic reference. The z extent is deep enough (nz = 12) that
/// interior z-runs reach full lane width, so on AVX2 hosts this matrix runs
/// the vectorized kernel, not just its scalar tail.
#[test]
fn distributed_unified_dispatch_matches_serial_reference() {
    let global = GridDims::new(12, 10, 12);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    flags.set(6, 5, 6, swlb_core::boundary::NodeKind::Wall);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let steps = 4;
    let reference = reference_run::<D3Q19>(global, &flags, &coll, steps);
    let tol = swlb_core::simd::dispatch_tolerance() * 100.0;

    for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
        for ranks in [1usize, 4] {
            for threads in [1, 2, 4] {
                let got =
                    distributed_run::<D3Q19>(global, &flags, coll, steps, ranks, mode, threads);
                assert_fields_close(
                    &reference,
                    &got,
                    tol,
                    &format!("{mode:?} ranks={ranks} threads={threads}"),
                );
            }
        }
    }
}

/// Degenerate subdomains: enough ranks that some own `lnx ≤ 2` or `lny ≤ 2`
/// columns/rows, so the inner rectangle is empty and the boundary ring is the
/// whole subdomain. Sequential and OnTheFly must still agree bit-for-bit with
/// the serial reference (the ring strips cover every owned cell exactly once).
#[test]
fn degenerate_subdomains_stay_bit_identical() {
    // 5 × 4 interior split 6 ways: subdomain widths of 1–2 cells.
    let global = GridDims::new(5, 4, 3);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
    let steps = 5;
    let reference = reference_run::<D3Q19>(global, &flags, &coll, steps);

    for ranks in [2usize, 6] {
        let seq = distributed_run::<D3Q19>(
            global,
            &flags,
            coll,
            steps,
            ranks,
            ExchangeMode::Sequential,
            2,
        );
        let otf = distributed_run::<D3Q19>(
            global,
            &flags,
            coll,
            steps,
            ranks,
            ExchangeMode::OnTheFly,
            2,
        );
        assert_fields_equal(&reference, &seq, &format!("Sequential ranks={ranks}"));
        assert_fields_equal(&reference, &otf, &format!("OnTheFly ranks={ranks}"));
    }
}

/// The AA-pattern storage matrix: (exchange mode × ranks × threads ×
/// odd/even step counts) against the serial AB reference. An odd step count
/// ends at Streamed parity, so the gather exercises canonicalization of the
/// "hard" half of the AA cycle; even counts end Reversed. Compared on fluid
/// cells within the dispatch tolerance (the AA kernels take the fused SIMD
/// path where the host offers it).
#[test]
fn aa_storage_matrix_matches_serial_reference() {
    let global = GridDims::new(12, 10, 12);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    flags.set(6, 5, 6, swlb_core::boundary::NodeKind::Wall);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let tol = swlb_core::simd::dispatch_tolerance() * 100.0;

    for steps in [4u64, 5] {
        let reference = reference_run::<D3Q19>(global, &flags, &coll, steps);
        for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
            for ranks in [1usize, 4] {
                for threads in [1, 2, 4] {
                    let got = distributed_run_aa::<D3Q19>(
                        global, &flags, coll, steps, ranks, mode, threads,
                    );
                    assert_fluid_cells_close(
                        &flags,
                        &reference,
                        &got,
                        tol,
                        &format!("AA {mode:?} steps={steps} ranks={ranks} threads={threads}"),
                    );
                }
            }
        }
    }
}

/// AA-pattern storage on degenerate subdomains (inner rectangle empty, the
/// boundary ring is the whole subdomain) — including the ring-only odd-step
/// path and self-neighbor wraparound merges.
#[test]
fn aa_degenerate_subdomains_match_reference() {
    let global = GridDims::new(5, 4, 8);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
    let tol = swlb_core::simd::dispatch_tolerance() * 100.0;

    for steps in [4u64, 5] {
        let reference = reference_run::<D3Q19>(global, &flags, &coll, steps);
        for ranks in [2usize, 6] {
            for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
                let got = distributed_run_aa::<D3Q19>(global, &flags, coll, steps, ranks, mode, 2);
                assert_fluid_cells_close(
                    &flags,
                    &reference,
                    &got,
                    tol,
                    &format!("AA degenerate {mode:?} steps={steps} ranks={ranks}"),
                );
            }
        }
    }
}

/// Temporal-blocking equivalence matrix: depth k ∈ {2, 4} against the same
/// configuration at k = 1, for both storage schemes (AA depths are even by
/// construction), both exchange schedules, rank counts including degenerate
/// subdomains (`lny ≤ 2`, where deep halos force multi-round exchange). A
/// blocked sweep performs the identical per-cell updates
/// in a different order, so this is exact on scalar-semantics lanes; the
/// dispatch tolerance absorbs fast/generic path differences at the
/// redundantly recomputed ghost fringe (same rationale as the engine's
/// `check_blocked_matches_reference`).
#[test]
fn temporal_blocking_matrix_matches_unblocked() {
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let steps = 8u64;
    let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
    for (global, lid) in [
        (GridDims::new(12, 10, 12), true),
        // 5 × 4 interior over 4 ranks: lny = 2 subdomains, so depth 4 needs
        // two exchange rounds per block to fill its 4-deep ghost rings.
        (GridDims::new(5, 4, 3), false),
    ] {
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        if lid {
            flags.paint_lid([0.05, 0.0, 0.0]);
            flags.set(6, 5, 6, swlb_core::boundary::NodeKind::Wall);
        }
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
                for ranks in [1usize, 2, 4] {
                    let base = distributed_run_k::<D3Q19>(
                        global, &flags, coll, steps, ranks, mode, 2, scheme, 1,
                    );
                    for k in [2usize, 4] {
                        let got = distributed_run_k::<D3Q19>(
                            global, &flags, coll, steps, ranks, mode, 2, scheme, k,
                        );
                        let what = format!("{scheme:?} {mode:?} ranks={ranks} k={k}");
                        match scheme {
                            StorageScheme::Ab => assert_fields_close(&base, &got, tol, &what),
                            StorageScheme::Aa => {
                                assert_fluid_cells_close(&flags, &base, &got, tol, &what)
                            }
                        }
                    }
                }
            }
        }
    }
}

/// 2-D lattice: the pooled dispatch has no D3Q19 fast path to take, so this
/// pins the generic pooled path through the distributed engine.
#[test]
fn d2q9_distributed_pooled_matches_reference() {
    let global = GridDims::new2d(9, 7);
    let flags = FlagField::new(global);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));
    let steps = 6;
    let reference = reference_run::<D2Q9>(global, &flags, &coll, steps);
    for ranks in [1usize, 4] {
        let got = distributed_run::<D2Q9>(
            global,
            &flags,
            coll,
            steps,
            ranks,
            ExchangeMode::OnTheFly,
            3,
        );
        assert_fields_equal(&reference, &got, &format!("D2Q9 ranks={ranks}"));
    }
}

/// Non-BGK operators fall back to the generic kernel at every level and still
/// agree exactly across the pooled distributed pipeline.
#[test]
fn smagorinsky_distributed_pooled_matches_reference() {
    let global = GridDims::new(8, 8, 4);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    let coll = CollisionKind::SmagorinskyLes(
        SmagorinskyParams::new(BgkParams::from_tau(0.8), 0.16).unwrap(),
    );
    let steps = 3;
    let reference = reference_run::<D3Q19>(global, &flags, &coll, steps);
    let got = distributed_run::<D3Q19>(global, &flags, coll, steps, 4, ExchangeMode::OnTheFly, 4);
    assert_fields_equal(&reference, &got, "SmagorinskyLes 4 ranks pooled");
}
