//! The fused streaming+collision kernel (the paper's production kernel).
//!
//! SunwayLB uses the **pull scheme** (Wellein et al., ref. \[40\]): one loop over the
//! domain in which every cell gathers its incoming populations from the previous
//! time level (`src`), applies boundary rules inline, collides, and stores the
//! post-collision state to the next time level (`dst`). With the A-B buffer pair
//! this is race-free and needs no synchronization between streaming and collision
//! — the property the paper exploits to fuse the memory-bound propagation with the
//! compute-bound collision (§IV-C.3, ~30 % gain on Sunway).
//!
//! Two implementations are provided:
//!
//! * [`fused_step_range`] — the generic reference kernel, valid for every lattice,
//!   layout and boundary condition. All other execution paths in the workspace
//!   (split kernels, push scheme, the CPE-cluster emulator in `swlb-arch`, the
//!   distributed engine in `swlb-sim`) are tested for exact agreement with it.
//! * [`fused_step_optimized`] / [`aa_fused_step_optimized`] — one streaming
//!   sweep per step for D3Q19/SoA/BGK: each z-pencil is walked once, its
//!   runs ([`InteriorRuns`]) go through a hand-unrolled lane kernel in
//!   [`crate::simd`] (the portable analog of the paper's assembly-level
//!   stage: hoisted neighbor offsets, unrolled direction loop) and each gap
//!   between runs goes through the generic per-cell update at that point.
//!
//! The runs are the paper's pre-processing classification (§IV-B): built
//! once per flag generation, they cover every BGK `Fluid` cell off the grid
//! edge, each run carrying a bounce-back descriptor ([`Bounce`]: which pull
//! sources are walls, which of those move, and how fast), so the lane kernel
//! reads bounced populations from the cell's own slots without looking at a
//! flag. Only open-boundary and NEBB cells, cells whose pulls wrap the grid,
//! cells next to two different wall velocities, solid cells and non-BGK
//! operators take [`generic_cell`] / [`aa_generic_cell`].

use crate::boundary::NodeKind;
use crate::collision::{collide, CollisionKind};
use crate::equilibrium::{equilibrium, moments};
use crate::flags::FlagField;
use crate::lattice::{Lattice, D3Q19};
use crate::layout::{AaParity, PopField, SoaField};
use crate::simd::KernelClass;
use crate::Scalar;
use std::collections::HashMap;
use std::ops::Range;

/// Largest `Q` across the supported lattices; sizes the per-cell stack buffer.
pub const MAX_Q: usize = 32;

/// Gather the incoming populations of cell `(x, y, z)` from `src` into `f`,
/// applying bounce-back rules against solid neighbors. Periodic wrap is the
/// default at domain edges.
#[inline(always)]
pub fn gather_pull<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    x: usize,
    y: usize,
    z: usize,
    f: &mut [Scalar],
) {
    let dims = flags.dims();
    let this = dims.idx(x, y, z);
    for q in 0..L::Q {
        let c = L::C[q];
        let [nx, ny, nz] = dims.neighbor_periodic(x, y, z, [-c[0], -c[1], -c[2]]);
        let n = dims.idx(nx, ny, nz);
        f[q] = match flags.kind(n) {
            NodeKind::Wall => src.get(this, L::OPP[q]),
            NodeKind::MovingWall { u } => {
                // Halfway bounce-back with wall-momentum correction
                // (Ladd): f_q = f*_opp(q) + 6 w_q ρ₀ (c_q · u_w), ρ₀ = 1.
                let cu = c[0] as Scalar * u[0] + c[1] as Scalar * u[1] + c[2] as Scalar * u[2];
                src.get(this, L::OPP[q]) + 6.0 * L::W[q] * cu
            }
            _ => src.get(n, q),
        };
    }
}

/// Write the post-step state of a non-fluid cell directly into `dst`.
///
/// * solid cells copy through (their populations are inert but kept deterministic
///   so that checkpoints and equivalence tests are exact),
/// * inlets are reset to their imposed equilibrium,
/// * outlets copy the full population vector of their interior neighbor
///   (zero-gradient closure).
#[inline]
pub fn apply_non_fluid<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    x: usize,
    y: usize,
    z: usize,
    kind: NodeKind,
) {
    let dims = flags.dims();
    let this = dims.idx(x, y, z);
    match kind {
        NodeKind::Wall | NodeKind::MovingWall { .. } => {
            for q in 0..L::Q {
                dst.set(this, q, src.get(this, q));
            }
        }
        NodeKind::Inlet { rho, u } => {
            let mut feq = [0.0; MAX_Q];
            equilibrium::<L>(rho, u, &mut feq[..L::Q]);
            dst.store_cell(this, &feq[..L::Q]);
        }
        NodeKind::Outlet { normal } => {
            let m = dims
                .neighbor_checked(x, y, z, [-normal[0], -normal[1], -normal[2]])
                .map(|[a, b, c]| dims.idx(a, b, c))
                .unwrap_or(this);
            for q in 0..L::Q {
                dst.set(this, q, src.get(m, q));
            }
        }
        NodeKind::Fluid | NodeKind::VelocityNebb { .. } | NodeKind::PressureNebb { .. } => {
            unreachable!("apply_non_fluid called on a streaming cell")
        }
    }
}

/// Reconstruct the unknown populations of a NEBB boundary cell in place (no-op
/// for other kinds). Called between gather and collision.
#[inline(always)]
pub fn reconstruct_nebb<L: Lattice>(f: &mut [Scalar], kind: NodeKind) {
    match kind {
        NodeKind::VelocityNebb { u, normal } => {
            crate::nebb::reconstruct_velocity::<L>(f, u, normal);
        }
        NodeKind::PressureNebb { rho, normal } => {
            crate::nebb::reconstruct_pressure::<L>(f, rho, normal);
        }
        _ => {}
    }
}

/// One generic fused pull update of cell `(x, y, z)`: stream + collide for
/// fluid and NEBB cells, the [`apply_non_fluid`] rules for everything else.
/// The result is written into `draw`, the raw storage of a destination laid
/// out like `src` (`index_of` addressing). `f` is scratch of at least `L::Q`.
///
/// This is the one per-cell update behind the generic kernels, the gaps of
/// the optimized sweep in [`crate::simd`], and the pooled generic slabs.
///
/// # Safety
/// `draw` must point at storage of `src`'s length and layout, distinct from
/// `src`, and no other thread may write cell `(x, y, z)` concurrently.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) unsafe fn generic_cell<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    draw: *mut Scalar,
    collision: &CollisionKind,
    x: usize,
    y: usize,
    z: usize,
    f: &mut [Scalar],
) {
    let dims = flags.dims();
    let this = dims.idx(x, y, z);
    let f = &mut f[..L::Q];
    match flags.kind(this) {
        kind
        @ (NodeKind::Fluid | NodeKind::VelocityNebb { .. } | NodeKind::PressureNebb { .. }) => {
            gather_pull::<L, F>(flags, src, x, y, z, f);
            reconstruct_nebb::<L>(f, kind);
            collide::<L>(f, collision);
        }
        NodeKind::Wall | NodeKind::MovingWall { .. } => src.load_cell(this, f),
        NodeKind::Inlet { rho, u } => equilibrium::<L>(rho, u, f),
        NodeKind::Outlet { normal } => {
            let m = dims
                .neighbor_checked(x, y, z, [-normal[0], -normal[1], -normal[2]])
                .map(|[a, b, c]| dims.idx(a, b, c))
                .unwrap_or(this);
            src.load_cell(m, f);
        }
    }
    for (q, v) in f.iter().enumerate() {
        // SAFETY: caller contract — in-bounds, exclusive cell.
        unsafe { *draw.add(src.index_of(this, q)) = *v };
    }
}

/// The generic kernel over the rectangle `xr × ys` (full z depth), writing
/// through the raw destination `draw` — shared by [`fused_step_rect`] and the
/// pooled generic slabs in [`crate::parallel`].
///
/// # Safety
/// As [`generic_cell`], for every cell of the rectangle.
pub(crate) unsafe fn generic_rect<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    draw: *mut Scalar,
    collision: &CollisionKind,
    xr: Range<usize>,
    ys: Range<usize>,
) {
    let dims = flags.dims();
    debug_assert!(ys.end <= dims.ny && xr.end <= dims.nx);
    let mut f = [0.0; MAX_Q];
    for y in ys {
        for x in xr.clone() {
            for z in 0..dims.nz {
                // SAFETY: caller contract.
                unsafe { generic_cell::<L, F>(flags, src, draw, collision, x, y, z, &mut f) };
            }
        }
    }
}

/// One fused stream+collide step over the y-slab `ys` (generic reference kernel).
///
/// `src` must hold the complete post-collision state of the previous step; `dst`
/// receives the new state. Slabs with disjoint `ys` touch disjoint `dst` cells,
/// which is what makes the multithreaded driver in [`crate::parallel`] sound.
pub fn fused_step_range<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    collision: &CollisionKind,
    ys: Range<usize>,
) {
    fused_step_rect::<L, F>(flags, src, dst, collision, 0..flags.dims().nx, ys);
}

/// [`fused_step_range`] restricted to the x range `xr` as well — the generic
/// kernel over the rectangle `xr × ys` (full z depth).
pub fn fused_step_rect<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    collision: &CollisionKind,
    xr: Range<usize>,
    ys: Range<usize>,
) {
    // SAFETY: `&mut dst` proves exclusive access to a distinct destination
    // of the same layout and length as `src`.
    unsafe { generic_rect::<L, F>(flags, src, dst.raw_mut().as_mut_ptr(), collision, xr, ys) };
}

/// Convenience wrapper: fused step over the whole domain.
pub fn fused_step<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    collision: &CollisionKind,
) {
    fused_step_range::<L, F>(flags, src, dst, collision, 0..flags.dims().ny);
}

/// Bounce-back descriptor shared by every cell of an interior run: which pull
/// sources are solid, which of those move, and how fast. Descriptor 0 of every
/// [`InteriorRuns`] table is [`Bounce::NONE`], the all-streaming neighborhood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounce {
    /// Bit `q` is set when the pull source `x − c_q` is `Wall` or `MovingWall`.
    pub mask: u32,
    /// The `MovingWall` subset of `mask`.
    pub moving: u32,
    /// Velocity of the moving walls (zero when `moving == 0`).
    pub u: [Scalar; 3],
}

impl Bounce {
    /// No solid pull source: the plain interior update.
    pub const NONE: Bounce = Bounce {
        mask: 0,
        moving: 0,
        u: [0.0; 3],
    };

    /// The descriptor of the cell at linear index `this`, whose pull sources
    /// `this + off[q]` are all in the grid; `None` when two of its moving
    /// walls disagree on the velocity (one run cannot carry both).
    fn of_cell(kinds: &[NodeKind], this: usize, off: &[isize]) -> Option<Self> {
        let mut b = Bounce::NONE;
        for (q, &o) in off.iter().enumerate().skip(1) {
            match kinds[this.wrapping_add_signed(o)] {
                NodeKind::Wall => b.mask |= 1 << q,
                NodeKind::MovingWall { u } => {
                    if b.moving != 0 && b.u != u {
                        return None;
                    }
                    b.mask |= 1 << q;
                    b.moving |= 1 << q;
                    b.u = u;
                }
                _ => {}
            }
        }
        Some(b)
    }

    /// Interning key: equal keys give bit-identical updates.
    fn key(&self) -> (u32, u32, [u64; 3]) {
        (self.mask, self.moving, self.u.map(Scalar::to_bits))
    }
}

/// One interior run: cells `z0..z1` of a z-pencil, all updated with
/// descriptor `desc` of the owning [`InteriorRuns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First cell (z) of the run.
    pub z0: u32,
    /// One past the last cell (z) of the run.
    pub z1: u32,
    /// Index of the run's [`Bounce`] descriptor.
    pub desc: u32,
}

/// The lane-kernel runs of a flag field: per z-pencil `p = y·nx + x`, the
/// maximal spans of consecutive cells that share one bounce-back descriptor,
/// CSR-packed, plus the interned descriptor table.
///
/// A run covers `Fluid` cells with `1 ≤ x, y, z ≤ n − 2`, so every pull
/// source and every AA scatter target is a linear in-grid offset; the lane
/// kernels in [`crate::simd`] load bounce directions from the cell's own
/// slots instead of the solid neighbor's (the paper's once-only node
/// classification, §IV-B). The SoA layout is z-innermost, so a span is a
/// contiguous stretch of linear indices — whole-lane loads with no per-cell
/// test. Built once per flag generation (cached on `Solver` /
/// `DistributedSolver`), not per step.
#[derive(Debug, Clone, PartialEq)]
pub struct InteriorRuns {
    /// The grid the runs were built for; the sweeps refuse any other, whose
    /// linear offsets the runs do not certify.
    dims: crate::geometry::GridDims,
    /// CSR row pointers: pencil `p` owns `spans[starts[p]..starts[p+1]]`.
    starts: Vec<u32>,
    /// Runs in ascending z order per pencil.
    spans: Vec<Span>,
    /// Interned descriptors; `descriptors[0]` is [`Bounce::NONE`].
    descriptors: Vec<Bounce>,
}

impl InteriorRuns {
    /// One pass over `flags`: classify every coverable cell and cut a run
    /// wherever the descriptor changes or a cell is left to the generic path
    /// (non-fluid, on the grid edge, or next to two wall velocities).
    fn build<L: Lattice>(flags: &FlagField) -> Self {
        let dims = flags.dims();
        let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
        let kinds = flags.as_slice();
        let off: Vec<isize> = L::C
            .iter()
            .map(|c| -((c[1] as isize * nx as isize + c[0] as isize) * nz as isize + c[2] as isize))
            .collect();
        let mut starts = Vec::with_capacity(nx * ny + 1);
        let mut spans: Vec<Span> = Vec::new();
        let mut descriptors = vec![Bounce::NONE];
        let mut ids = HashMap::from([(Bounce::NONE.key(), 0u32)]);
        let edges = nx < 3 || ny < 3 || nz < 3;
        starts.push(0u32);
        for y in 0..ny {
            for x in 0..nx {
                if edges || x == 0 || y == 0 || x == nx - 1 || y == ny - 1 {
                    starts.push(spans.len() as u32);
                    continue;
                }
                let base = dims.idx(x, y, 0);
                // The last cell's key and id: neighbors along z mostly agree,
                // so most cells skip the table lookup.
                let mut last = (Bounce::NONE.key(), 0u32);
                let mut open = false;
                for z in 1..nz - 1 {
                    let this = base + z;
                    let bounce = match kinds[this] {
                        NodeKind::Fluid => Bounce::of_cell(kinds, this, &off),
                        _ => None,
                    };
                    let Some(b) = bounce else {
                        open = false;
                        continue;
                    };
                    let key = b.key();
                    if key != last.0 {
                        let id = *ids.entry(key).or_insert_with(|| {
                            descriptors.push(b);
                            descriptors.len() as u32 - 1
                        });
                        last = (key, id);
                    }
                    let z = z as u32;
                    match spans.last_mut() {
                        Some(s) if open && s.desc == last.1 => s.z1 = z + 1,
                        _ => spans.push(Span {
                            z0: z,
                            z1: z + 1,
                            desc: last.1,
                        }),
                    }
                    open = true;
                }
                starts.push(spans.len() as u32);
            }
        }
        InteriorRuns {
            dims,
            starts,
            spans,
            descriptors,
        }
    }

    /// The grid the runs were built for.
    pub fn dims(&self) -> crate::geometry::GridDims {
        self.dims
    }

    /// The runs of z-pencil `p = y·nx + x`.
    #[inline(always)]
    pub fn pencil(&self, p: usize) -> &[Span] {
        &self.spans[self.starts[p] as usize..self.starts[p + 1] as usize]
    }

    /// The bounce-back descriptor with index `desc` (see [`Span::desc`]).
    #[inline(always)]
    pub fn descriptor(&self, desc: u32) -> &Bounce {
        &self.descriptors[desc as usize]
    }

    /// Total number of cells covered by all runs.
    pub fn cell_count(&self) -> usize {
        self.spans.iter().map(|s| (s.z1 - s.z0) as usize).sum()
    }

    /// Total number of runs (diagnostics).
    pub fn run_count(&self) -> usize {
        self.spans.len()
    }
}

/// The interior fast-path index: the runs ([`InteriorRuns`]) the optimized
/// sweep hands to its lane kernels. Build it once per flag generation with
/// [`InteriorIndex::build`].
#[derive(Debug, Clone)]
pub struct InteriorIndex {
    runs: InteriorRuns,
}

impl InteriorIndex {
    /// Classify the current flags into runs (one pass).
    pub fn build<L: Lattice>(flags: &FlagField) -> Self {
        InteriorIndex {
            runs: InteriorRuns::build::<L>(flags),
        }
    }

    /// The runs and their descriptor table.
    #[inline(always)]
    pub fn runs(&self) -> &InteriorRuns {
        &self.runs
    }
}

/// Full fused step as **one streaming sweep**, returning the [`KernelClass`]
/// that served the interior. Each z-pencil of the slab is walked once: its
/// interior runs go through the lane kernel selected by
/// [`crate::simd::select_fast_path`] (runtime CPU detection, `SWLB_NO_SIMD`,
/// [`crate::simd::LanePolicy`]), and each gap between runs through the generic
/// per-cell update with the caller's `collision`. Equivalent to
/// [`fused_step`]: bit-for-bit on the scalar-semantics lanes, within 1e-12
/// under the AVX2/AVX-512 lanes (FMA contraction is the only rounding
/// difference).
///
/// Plain constant-ω BGK takes the sweep; every other operator (LES, forced
/// BGK, MRT) runs the generic kernel over the whole slab.
pub fn fused_step_optimized(
    flags: &FlagField,
    src: &SoaField<D3Q19>,
    dst: &mut SoaField<D3Q19>,
    collision: &CollisionKind,
    interior: &InteriorIndex,
    ys: Range<usize>,
) -> KernelClass {
    fused_step_optimized_rect(flags, src, dst, collision, interior, 0..flags.dims().nx, ys)
}

/// [`fused_step_optimized`] restricted to the x range `xr` (used by the
/// distributed engine for the inner rectangle of a subdomain).
pub fn fused_step_optimized_rect(
    flags: &FlagField,
    src: &SoaField<D3Q19>,
    dst: &mut SoaField<D3Q19>,
    collision: &CollisionKind,
    interior: &InteriorIndex,
    xr: Range<usize>,
    ys: Range<usize>,
) -> KernelClass {
    let CollisionKind::Bgk(p) = collision else {
        // Variable-ω / forced / moment-space operators have no lane kernel;
        // run the generic reference kernel on the whole rect.
        fused_step_rect::<D3Q19, _>(flags, src, dst, collision, xr, ys);
        return KernelClass::Generic;
    };
    let (path, class) = crate::simd::select_fast_path();
    // SAFETY: `&mut dst` proves exclusive access to a distinct destination;
    // the runs came from this geometry's flags.
    unsafe {
        crate::simd::d3q19_sweep(
            flags,
            src,
            dst.raw_mut().as_mut_ptr(),
            collision,
            p.omega,
            xr,
            ys,
            interior.runs(),
            path,
        )
    };
    class
}

/// One generic AA-pattern update of cell `(x, y, z)` of the single grid
/// `raw` — the per-cell body of [`aa_generic_rect`], also used for the gaps
/// of the optimized AA sweep. Solid cells are left untouched (their slots are
/// bounce-back mailboxes); open boundary kinds panic. `f` is scratch of at
/// least `L::Q`.
///
/// # Safety
/// As [`aa_generic_rect`], for the one cell.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) unsafe fn aa_generic_cell<L: Lattice>(
    flags: &FlagField,
    raw: *mut Scalar,
    collision: &CollisionKind,
    parity: AaParity,
    x: usize,
    y: usize,
    z: usize,
    f: &mut [Scalar],
) {
    let dims = flags.dims();
    let cells = dims.cells();
    let this = dims.idx(x, y, z);
    match flags.kind(this) {
        NodeKind::Fluid => {}
        NodeKind::Wall | NodeKind::MovingWall { .. } => return,
        other => panic!(
            "AA-pattern streaming supports Fluid/Wall/MovingWall only, \
             found {other:?} at ({x},{y},{z}); use StorageScheme::Ab \
             for open/NEBB boundaries"
        ),
    }
    // SAFETY (all raw accesses below): caller contract — `raw` covers
    // `L::Q * cells` scalars and every index is a wrapped in-grid cell.
    match parity {
        AaParity::Reversed => {
            // Odd step: the reversed slot (x, q) holds f*_opp(q)(x), so
            // direction q's incoming population sits in plane opp(q) of the
            // upwind neighbor — or, against a wall, bounced back in our own
            // plane q.
            for q in 0..L::Q {
                let c = L::C[q];
                let [a, b, d] = dims.neighbor_periodic(x, y, z, [-c[0], -c[1], -c[2]]);
                let n = dims.idx(a, b, d);
                f[q] = match flags.kind(n) {
                    NodeKind::Wall => unsafe { *raw.add(q * cells + this) },
                    NodeKind::MovingWall { u } => {
                        let cu =
                            c[0] as Scalar * u[0] + c[1] as Scalar * u[1] + c[2] as Scalar * u[2];
                        unsafe { *raw.add(q * cells + this) + 6.0 * L::W[q] * cu }
                    }
                    _ => unsafe { *raw.add(L::OPP[q] * cells + n) },
                };
            }
            collide::<L>(&mut f[..L::Q], collision);
            // Scatter unconditionally — writes into solid neighbors are the
            // bounce-back mailboxes the even step reads.
            for q in 0..L::Q {
                let c = L::C[q];
                let [a, b, d] = dims.neighbor_periodic(x, y, z, [c[0], c[1], c[2]]);
                unsafe { *raw.add(q * cells + dims.idx(a, b, d)) = f[q] };
            }
        }
        AaParity::Streamed => {
            // Even step: the odd scatter already streamed, so slot (y, q)
            // holds f_q(y) — except where the writer cell is solid, in which
            // case our own odd scatter parked f*_opp(q)(y) in the wall's
            // mailbox (n, opp(q)).
            for q in 0..L::Q {
                let c = L::C[q];
                let [a, b, d] = dims.neighbor_periodic(x, y, z, [-c[0], -c[1], -c[2]]);
                let n = dims.idx(a, b, d);
                f[q] = match flags.kind(n) {
                    NodeKind::Wall => unsafe { *raw.add(L::OPP[q] * cells + n) },
                    NodeKind::MovingWall { u } => {
                        let cu =
                            c[0] as Scalar * u[0] + c[1] as Scalar * u[1] + c[2] as Scalar * u[2];
                        unsafe { *raw.add(L::OPP[q] * cells + n) + 6.0 * L::W[q] * cu }
                    }
                    _ => unsafe { *raw.add(q * cells + this) },
                };
            }
            collide::<L>(&mut f[..L::Q], collision);
            // Store locally reversed, returning to the Reversed state.
            for q in 0..L::Q {
                unsafe { *raw.add(L::OPP[q] * cells + this) = f[q] };
            }
        }
    }
}

/// Generic AA-pattern sweep over the rectangle `xr × ys` (full z depth) — the
/// single-grid counterpart of [`fused_step_rect`], valid for every lattice and
/// collision operator but only for Fluid/Wall/MovingWall node kinds (open
/// boundaries need the two-grid AB scheme; builders reject the combination).
///
/// `parity` names the *current* state of the grid: `Reversed` runs the odd
/// step (pull reversed neighbor slots, collide, scatter to neighbors — grid
/// becomes `Streamed`); `Streamed` runs the even step (gather own slots /
/// wall mailboxes, collide, store locally reversed — grid becomes
/// `Reversed`).
///
/// Solid cells are never processed; their slots serve as bounce-back
/// mailboxes and hold scheme-dependent (but always finite) values.
///
/// # Safety
/// `raw` must point at `L::Q * cells` writable scalars laid out SoA
/// (plane-major). Concurrent callers must cover disjoint cell sets; the AA
/// slot-ownership discipline (each slot is read and written only by the one
/// cell that owns it, gather-before-scatter) makes cross-slab odd-step
/// scatters race-free under any partition or pass order.
pub(crate) unsafe fn aa_generic_rect<L: Lattice>(
    flags: &FlagField,
    raw: *mut Scalar,
    collision: &CollisionKind,
    parity: AaParity,
    xr: Range<usize>,
    ys: Range<usize>,
) {
    let dims = flags.dims();
    debug_assert!(ys.end <= dims.ny && xr.end <= dims.nx);
    let mut f = [0.0; MAX_Q];
    for y in ys {
        for x in xr.clone() {
            for z in 0..dims.nz {
                // SAFETY: caller contract.
                unsafe { aa_generic_cell::<L>(flags, raw, collision, parity, x, y, z, &mut f) };
            }
        }
    }
}

/// Safe wrapper over [`aa_generic_rect`]: one AA half-step of the flavor named
/// by `parity` over the rectangle `xr × ys` of the single grid `field`.
pub fn aa_step_rect<L: Lattice>(
    flags: &FlagField,
    field: &mut SoaField<L>,
    collision: &CollisionKind,
    parity: AaParity,
    xr: Range<usize>,
    ys: Range<usize>,
) {
    debug_assert_eq!(field.raw().len(), L::Q * flags.dims().cells());
    // SAFETY: `&mut field` proves exclusive access to the grid.
    unsafe {
        aa_generic_rect::<L>(
            flags,
            field.raw_mut().as_mut_ptr(),
            collision,
            parity,
            xr,
            ys,
        );
    }
}

/// AA-pattern counterpart of [`fused_step_optimized`]: one in-place AA
/// half-step over the y-slab `ys` as one streaming sweep (interior runs
/// through the lane kernel, gaps through the generic AA cell update). The
/// grid's parity flips after this returns (the caller owns the parity
/// bookkeeping).
pub fn aa_fused_step_optimized(
    flags: &FlagField,
    field: &mut SoaField<D3Q19>,
    collision: &CollisionKind,
    interior: &InteriorIndex,
    parity: AaParity,
    ys: Range<usize>,
) -> KernelClass {
    aa_fused_step_optimized_rect(
        flags,
        field,
        collision,
        interior,
        parity,
        0..flags.dims().nx,
        ys,
    )
}

/// [`aa_fused_step_optimized`] restricted to the x range `xr` (used by the
/// distributed engine for the inner rectangle of a subdomain).
pub fn aa_fused_step_optimized_rect(
    flags: &FlagField,
    field: &mut SoaField<D3Q19>,
    collision: &CollisionKind,
    interior: &InteriorIndex,
    parity: AaParity,
    xr: Range<usize>,
    ys: Range<usize>,
) -> KernelClass {
    let raw = field.raw_mut().as_mut_ptr();
    let CollisionKind::Bgk(p) = collision else {
        // No AA lane kernel for variable-ω / forced / moment-space operators;
        // run the generic AA sweep on the whole rect.
        // SAFETY: `&mut field` proves exclusive access.
        unsafe { aa_generic_rect::<D3Q19>(flags, raw, collision, parity, xr, ys) };
        return KernelClass::Generic;
    };
    let (path, class) = crate::simd::select_fast_path();
    // SAFETY: `&mut field` proves exclusive access; the runs came from this
    // geometry's flags; slot ownership makes any visit order race-free.
    unsafe {
        crate::simd::aa_d3q19_sweep(
            flags,
            raw,
            collision,
            p.omega,
            parity,
            xr,
            ys,
            interior.runs(),
            path,
        )
    };
    class
}

/// Swap each direction plane `q` with its opposite `opp(q)` in place — the
/// whole-grid slot reversal that converts between the canonical (AB-ordered)
/// post-collision state and the AA `Reversed` state. An involution.
pub fn reverse_planes<L: Lattice>(field: &mut SoaField<L>) {
    let cells = field.dims().cells();
    let raw = field.raw_mut();
    for q in 0..L::Q {
        let o = L::OPP[q];
        if q < o {
            let (lo, hi) = raw.split_at_mut(o * cells);
            lo[q * cells..(q + 1) * cells].swap_with_slice(&mut hi[..cells]);
        }
    }
}

/// Canonicalize an AA grid in the `Streamed` state: slot `(y, q)` holds
/// `f*_q(y − c_q)`, so the canonical post-collision value of cell `x` in
/// direction `q` sits at `(x + c_q, q)` (periodic wrap; for a solid neighbor
/// that slot is the mailbox the odd scatter parked it in — same formula).
/// Solid cells' own canonical values are scheme-dependent mailbox leftovers
/// (always finite, never fed back into the dynamics).
pub fn canonicalize_streamed<L: Lattice>(grid: &SoaField<L>) -> SoaField<L> {
    let dims = grid.dims();
    let mut out = SoaField::<L>::new(dims);
    for y in 0..dims.ny {
        for x in 0..dims.nx {
            for z in 0..dims.nz {
                let this = dims.idx(x, y, z);
                for q in 0..L::Q {
                    let c = L::C[q];
                    let [a, b, d] = dims.neighbor_periodic(x, y, z, [c[0], c[1], c[2]]);
                    out.set(this, q, grid.get(dims.idx(a, b, d), q));
                }
            }
        }
    }
    out
}

/// Compute `(rho, u)` of a cell directly from a population field.
#[inline]
pub fn cell_moments<L: Lattice, F: PopField<L>>(field: &F, cell: usize) -> (Scalar, [Scalar; 3]) {
    let mut f = [0.0; MAX_Q];
    field.load_cell(cell, &mut f[..L::Q]);
    let (rho, j) = moments::<L>(&f[..L::Q]);
    (rho, crate::equilibrium::velocity(rho, j))
}

/// Initialize every non-solid cell of `field` to `f_eq(rho, u)`.
pub fn initialize_equilibrium<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    field: &mut F,
    rho: Scalar,
    u: [Scalar; 3],
) {
    let mut feq = [0.0; MAX_Q];
    equilibrium::<L>(rho, u, &mut feq[..L::Q]);
    for cell in 0..field.cells() {
        if !flags.kind(cell).is_solid() {
            field.store_cell(cell, &feq[..L::Q]);
        } else {
            // Deterministic inert state for solids.
            for q in 0..L::Q {
                field.set(cell, q, L::W[q] * rho);
            }
        }
    }
}

/// Initialize with a position-dependent velocity field (e.g. Taylor–Green).
pub fn initialize_with<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    field: &mut F,
    mut state: impl FnMut(usize, usize, usize) -> (Scalar, [Scalar; 3]),
) {
    let dims = flags.dims();
    let mut feq = [0.0; MAX_Q];
    for [x, y, z] in dims.iter() {
        let cell = dims.idx(x, y, z);
        let (rho, u) = state(x, y, z);
        if !flags.kind(cell).is_solid() {
            equilibrium::<L>(rho, u, &mut feq[..L::Q]);
            field.store_cell(cell, &feq[..L::Q]);
        } else {
            for q in 0..L::Q {
                field.set(cell, q, L::W[q] * rho);
            }
        }
    }
}

/// Count flop-relevant (fluid) cells — the "lattice updates" of GLUPS accounting.
pub fn active_cells(flags: &FlagField) -> usize {
    flags.census().fluid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::BgkParams;
    use crate::geometry::GridDims;
    use crate::lattice::D2Q9;
    use crate::layout::AosField;

    fn setup_random_field<L: Lattice, F: PopField<L>>(dims: GridDims, seed: u64) -> F {
        let mut field = F::new(dims);
        let mut s = seed;
        let mut next = move || {
            // xorshift64*
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as Scalar / (1u64 << 53) as Scalar
        };
        for cell in 0..field.cells() {
            for q in 0..L::Q {
                field.set(cell, q, 0.02 + 0.05 * next());
            }
        }
        field
    }

    #[test]
    fn fused_step_preserves_mass_on_periodic_domain() {
        let dims = GridDims::new(6, 5, 4);
        let flags = FlagField::new(dims);
        let src: SoaField<D3Q19> = setup_random_field(dims, 7);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        fused_step(&flags, &src, &mut dst, &coll);

        let total = |f: &SoaField<D3Q19>| -> Scalar {
            (0..f.cells())
                .map(|c| cell_moments::<D3Q19, _>(f, c).0)
                .sum()
        };
        assert!((total(&src) - total(&dst)).abs() < 1e-10);
    }

    #[test]
    fn fused_step_preserves_momentum_on_periodic_domain() {
        let dims = GridDims::new(4, 4, 4);
        let flags = FlagField::new(dims);
        let src: SoaField<D3Q19> = setup_random_field(dims, 99);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        fused_step(&flags, &src, &mut dst, &coll);

        let mom = |f: &SoaField<D3Q19>| -> [Scalar; 3] {
            let mut m = [0.0; 3];
            let mut buf = [0.0; MAX_Q];
            for c in 0..f.cells() {
                f.load_cell(c, &mut buf[..19]);
                let (_, j) = moments::<D3Q19>(&buf[..19]);
                for a in 0..3 {
                    m[a] += j[a];
                }
            }
            m
        };
        let (m0, m1) = (mom(&src), mom(&dst));
        for a in 0..3 {
            assert!(
                (m0[a] - m1[a]).abs() < 1e-10,
                "axis {a}: {} vs {}",
                m0[a],
                m1[a]
            );
        }
    }

    #[test]
    fn soa_and_aos_produce_identical_states() {
        let dims = GridDims::new(5, 4, 3);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));

        let soa_src: SoaField<D3Q19> = setup_random_field(dims, 5);
        let mut aos_src = AosField::<D3Q19>::new(dims);
        for c in 0..dims.cells() {
            for q in 0..19 {
                aos_src.set(c, q, soa_src.get(c, q));
            }
        }
        let mut soa_dst = SoaField::<D3Q19>::new(dims);
        let mut aos_dst = AosField::<D3Q19>::new(dims);
        fused_step(&flags, &soa_src, &mut soa_dst, &coll);
        fused_step(&flags, &aos_src, &mut aos_dst, &coll);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(soa_dst.get(c, q), aos_dst.get(c, q), "cell {c} q {q}");
            }
        }
    }

    #[test]
    fn optimized_kernel_matches_generic() {
        let dims = GridDims::new(8, 7, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        // Add an off-center obstacle to exercise the mask boundary.
        flags.set(3, 3, 3, NodeKind::Wall);
        flags.set(4, 3, 3, NodeKind::Wall);

        let tau = 0.85;
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
        let src: SoaField<D3Q19> = setup_random_field(dims, 21);
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut ref_dst = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut ref_dst, &coll);

        // Bit-for-bit on the scalar-semantics paths (the collision kind is
        // threaded through with no ω→τ→ω round-trip), within 1e-12 when an
        // FMA lane is auto-selected.
        let tol = crate::simd::dispatch_tolerance();
        let mut opt_dst = SoaField::<D3Q19>::new(dims);
        let class = fused_step_optimized(&flags, &src, &mut opt_dst, &coll, &interior, 0..dims.ny);
        assert_ne!(class, KernelClass::Generic, "BGK must take a fast path");
        for c in 0..dims.cells() {
            for q in 0..19 {
                let (r, o) = (ref_dst.get(c, q), opt_dst.get(c, q));
                assert!(
                    (r - o).abs() <= tol,
                    "cell {c} q {q}: generic {r} vs optimized {o} (tol {tol:e})"
                );
            }
        }
    }

    #[test]
    fn optimized_dispatch_falls_back_for_non_bgk_operators() {
        let dims = GridDims::new(6, 6, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src: SoaField<D3Q19> = setup_random_field(dims, 41);
        let interior = InteriorIndex::build::<D3Q19>(&flags);
        let coll = CollisionKind::SmagorinskyLes(
            crate::collision::SmagorinskyParams::new(BgkParams::from_tau(0.8), 0.12).unwrap(),
        );

        let mut ref_dst = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut ref_dst, &coll);
        let mut opt_dst = SoaField::<D3Q19>::new(dims);
        let class = fused_step_optimized(&flags, &src, &mut opt_dst, &coll, &interior, 0..dims.ny);
        assert_eq!(class, KernelClass::Generic);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(ref_dst.get(c, q), opt_dst.get(c, q), "cell {c} q {q}");
            }
        }
    }

    #[test]
    fn simd_interior_kernel_matches_scalar_on_runs() {
        // Direct sweep-level check over every lane, masked runs (walls, two
        // moving-wall velocities) and open faces included: the 4- and 8-wide
        // portable lanes are bit-exact against the one-wide scalar lane, the
        // hardware lanes (when present) within 1e-12.
        use crate::simd::{avx512_available, d3q19_sweep, simd_available, FastPath};
        let dims = GridDims::new(8, 6, 29); // nz−2 = 27: full 8-lanes + tails
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
        flags.paint_lid([0.05, 0.0, 0.02]); // moving-wall runs next to y = ny − 1
        flags.set(3, 2, 6, NodeKind::Wall); // split runs mid-pencil
        flags.set(
            5,
            3,
            12,
            NodeKind::MovingWall {
                u: [0.0, 0.0, 0.03],
            },
        );
        let src: SoaField<D3Q19> = setup_random_field(dims, 77);
        let interior = InteriorIndex::build::<D3Q19>(&flags);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.85));
        let sweep = |path: FastPath| {
            let mut dst = SoaField::<D3Q19>::new(dims);
            // SAFETY: fresh exclusive destination; runs from these flags;
            // hardware paths are only requested when detected below.
            unsafe {
                d3q19_sweep(
                    &flags,
                    &src,
                    dst.raw_mut().as_mut_ptr(),
                    &coll,
                    BgkParams::from_tau(0.85).omega,
                    0..dims.nx,
                    0..dims.ny,
                    interior.runs(),
                    path,
                )
            };
            dst
        };

        let scalar = sweep(FastPath::Scalar);
        let mut generic = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut generic, &coll);
        assert_eq!(
            scalar.raw(),
            generic.raw(),
            "scalar lane diverged from generic"
        );
        for path in [FastPath::Portable, FastPath::Portable8] {
            assert_eq!(scalar.raw(), sweep(path).raw(), "{path:?} lane diverged");
        }
        let mut hw = Vec::new();
        if simd_available() {
            hw.push(FastPath::Avx2);
        }
        if avx512_available() {
            hw.push(FastPath::Avx512);
        }
        for path in hw {
            for (s, v) in scalar.raw().iter().zip(sweep(path).raw()) {
                assert!(
                    (s - v).abs() <= 1e-12,
                    "{path:?} out of tolerance: {s} vs {v}"
                );
            }
        }
    }

    #[test]
    fn interior_runs_carry_obstacle_neighbors_as_bounce_masks() {
        let dims = GridDims::new(7, 7, 7);
        let mut flags = FlagField::new(dims);
        flags.set(3, 3, 3, NodeKind::Wall);
        flags.set(3, 3, 1, NodeKind::MovingWall { u: [0.1, 0.0, 0.0] });
        let index = InteriorIndex::build::<D3Q19>(&flags);
        let runs = index.runs();
        let desc_at = |x: usize, y: usize, z: u32| {
            runs.pencil(y * dims.nx + x)
                .iter()
                .find(|s| (s.z0..s.z1).contains(&z))
                .map(|s| *runs.descriptor(s.desc))
        };
        // The walls themselves and the grid edge are left to the generic path.
        assert_eq!(desc_at(3, 3, 3), None);
        assert_eq!(desc_at(3, 3, 1), None);
        assert_eq!(desc_at(0, 3, 3), None);
        assert_eq!(desc_at(3, 3, 0), None);
        // A far-away cell runs the plain update.
        assert_eq!(desc_at(5, 5, 5), Some(Bounce::NONE));
        // (4,3,3) pulls direction 1 (c = +x) from the wall at x − c.
        let b = desc_at(4, 3, 3).unwrap();
        assert_eq!((b.mask, b.moving), (1 << 1, 0));
        // (3,3,2) sits between the wall above (direction 6, c = −z) and the
        // moving wall below (direction 5, c = +z).
        let b = desc_at(3, 3, 2).unwrap();
        assert_eq!(
            (b.mask, b.moving, b.u),
            (1 << 5 | 1 << 6, 1 << 5, [0.1, 0.0, 0.0])
        );
        // A second wall velocity in one neighborhood cannot share a run.
        flags.set(3, 3, 3, NodeKind::MovingWall { u: [0.0, 0.2, 0.0] });
        let index = InteriorIndex::build::<D3Q19>(&flags);
        let runs = index.runs();
        assert!(runs
            .pencil(3 * dims.nx + 3)
            .iter()
            .all(|s| !(s.z0..s.z1).contains(&2)));
    }

    #[test]
    fn inlet_cells_hold_imposed_equilibrium_after_step() {
        let dims = GridDims::new(6, 4, 3);
        let mut flags = FlagField::new(dims);
        let u_in = [0.07, 0.0, 0.0];
        flags.paint_inflow_outflow_x(1.0, u_in);
        let src: SoaField<D3Q19> = setup_random_field(dims, 3);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        fused_step(&flags, &src, &mut dst, &coll);

        let (rho, u) = cell_moments::<D3Q19, _>(&dst, dims.idx(0, 2, 1));
        assert!((rho - 1.0).abs() < 1e-12);
        assert!((u[0] - 0.07).abs() < 1e-12);
        assert!(u[1].abs() < 1e-12);
    }

    #[test]
    fn outlet_cells_copy_interior_neighbor() {
        let dims = GridDims::new(6, 4, 3);
        let mut flags = FlagField::new(dims);
        flags.paint_inflow_outflow_x(1.0, [0.05, 0.0, 0.0]);
        let src: SoaField<D3Q19> = setup_random_field(dims, 11);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        fused_step(&flags, &src, &mut dst, &coll);

        let out = dims.idx(5, 1, 1);
        let nb = dims.idx(4, 1, 1);
        for q in 0..19 {
            assert_eq!(dst.get(out, q), src.get(nb, q));
        }
    }

    #[test]
    fn moving_wall_injects_momentum() {
        // A sealed 2-D cavity with a moving lid must develop net x-momentum.
        let dims = GridDims::new2d(8, 8);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_lid([0.1, 0.0, 0.0]);
        let mut src = SoaField::<D2Q9>::new(dims);
        initialize_equilibrium::<D2Q9, _>(&flags, &mut src, 1.0, [0.0; 3]);
        let mut dst = SoaField::<D2Q9>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        for _ in 0..10 {
            fused_step(&flags, &src, &mut dst, &coll);
            std::mem::swap(&mut src, &mut dst);
        }
        let mut jx = 0.0;
        for c in 0..dims.cells() {
            if flags.kind(c).is_fluid() {
                let (rho, u) = cell_moments::<D2Q9, _>(&src, c);
                jx += rho * u[0];
            }
        }
        assert!(jx > 1e-6, "lid failed to drag fluid: jx = {jx}");
    }

    #[test]
    fn static_walls_keep_fluid_at_rest() {
        // Equilibrium fluid at rest in a sealed box stays exactly at rest.
        let dims = GridDims::new(6, 6, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let mut src = SoaField::<D3Q19>::new(dims);
        initialize_equilibrium::<D3Q19, _>(&flags, &mut src, 1.0, [0.0; 3]);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.6));
        for _ in 0..5 {
            fused_step(&flags, &src, &mut dst, &coll);
            std::mem::swap(&mut src, &mut dst);
        }
        for c in 0..dims.cells() {
            if flags.kind(c).is_fluid() {
                let (rho, u) = cell_moments::<D3Q19, _>(&src, c);
                assert!((rho - 1.0).abs() < 1e-12);
                for a in 0..3 {
                    assert!(u[a].abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn slab_union_equals_full_step() {
        let dims = GridDims::new(5, 6, 4);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src: SoaField<D3Q19> = setup_random_field(dims, 17);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.75));

        let mut whole = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut whole, &coll);

        let mut pieces = SoaField::<D3Q19>::new(dims);
        fused_step_range(&flags, &src, &mut pieces, &coll, 0..2);
        fused_step_range(&flags, &src, &mut pieces, &coll, 2..5);
        fused_step_range(&flags, &src, &mut pieces, &coll, 5..6);

        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(whole.get(c, q), pieces.get(c, q));
            }
        }
    }
}
