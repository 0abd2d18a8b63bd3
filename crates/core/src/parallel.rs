//! Shared-memory parallel execution of the fused kernel.
//!
//! On the Sunway machines fine-grained parallelism belongs to the CPE cluster
//! (emulated in `swlb-arch`); on an ordinary multicore host the natural analog is
//! a thread per y-slab. The pull scheme makes this easy to reason about: a step
//! reads only from `src` and writes only to `dst`, and slabs with disjoint y-ranges
//! write disjoint `dst` cells, so the only unsafe code needed is a `Send + Sync`
//! raw-pointer wrapper around the destination buffer.
//!
//! The pool is **persistent**: `threads − 1` workers are spawned once at
//! construction and parked on a condvar between steps, and a step dispatches a
//! plain `(fn, ctx)` pair — no per-step thread spawn, no boxed closures, no
//! channel traffic — so a steady-state step performs zero heap allocations.
//! Work is distributed by atomic slab stealing over a contiguous, balanced
//! y-partition; the caller participates as worker 0.
//!
//! Each slab is one streaming sweep (see [`crate::simd::d3q19_sweep`]) when
//! the field is SoA/D3Q19, the collision is plain BGK, and the caller supplied
//! an interior index: every z-pencil is walked once, its interior runs go
//! through the fastest eligible lane kernel (AVX-512, AVX2+FMA, portable or
//! scalar; see [`crate::simd`]) and the gaps between runs through the generic
//! per-cell update. Everything else — other lattices, layouts and operators —
//! runs the generic reference kernel over the whole slab. Results are
//! bit-for-bit identical to [`crate::kernels::fused_step`] regardless of
//! thread count on the scalar-semantics paths (per-cell updates are
//! independent), and within 1e-12 under the FMA lanes.

use crate::collision::CollisionKind;
use crate::flags::FlagField;
use crate::kernels::{aa_generic_rect, generic_rect, InteriorIndex, InteriorRuns};
use crate::lattice::{Lattice, D3Q19};
use crate::layout::{AaParity, PopField, SoaField};
use crate::simd::{FastPath, KernelClass};
use crate::Scalar;
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A `Send + Sync` writer over a population field's raw storage.
///
/// # Safety contract
/// Constructed from a uniquely-borrowed field; concurrent users must write
/// disjoint `(cell, q)` index sets. The parallel driver below guarantees this by
/// assigning disjoint y-slabs.
struct SharedWriter(*mut Scalar);

// SAFETY: the pointer refers to a buffer whose unique borrow is held (and not
// otherwise used) for the lifetime of the job; disjointness of writes is
// guaranteed by the slab partition.
unsafe impl Send for SharedWriter {}
unsafe impl Sync for SharedWriter {}

// ---------------------------------------------------------------------------
// Persistent worker pool.
// ---------------------------------------------------------------------------

/// A type-erased job: workers call `func(ctx)` once per wake-up. The context
/// points into the dispatching caller's stack; the dispatch protocol (the
/// caller blocks until every worker has finished) keeps it alive.
#[derive(Clone, Copy)]
struct Job {
    func: unsafe fn(*const ()),
    ctx: *const (),
}

// SAFETY: `ctx` only ever points at a `StepCtx`, whose contents are Send+Sync
// (shared references to field data plus the SharedWriter).
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per dispatched job; workers run each generation exactly once.
    generation: u64,
    /// Workers still executing the current generation.
    active: usize,
    shutdown: bool,
    panicked: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

struct PoolInner {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    if let Some(job) = st.job {
                        seen = st.generation;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // The job body only touches per-slab state; a panic is recorded and
        // re-raised on the dispatching thread so the pool stays usable.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.func)(job.ctx) }));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Thread-count configuration and the persistent worker pool that executes
/// fused steps.
///
/// Cloning is cheap and shares the underlying workers. Equality and `Debug`
/// look at the configuration only.
#[derive(Clone)]
pub struct ThreadPool {
    threads: usize,
    inner: Option<Arc<PoolInner>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl PartialEq for ThreadPool {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for ThreadPool {}

impl ThreadPool {
    /// Use exactly `threads` worker threads (≥ 1). `threads − 1` persistent
    /// workers are spawned immediately; the calling thread participates in
    /// every step as the remaining worker.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = (threads > 1).then(|| {
            let shared = Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    job: None,
                    generation: 0,
                    active: 0,
                    shutdown: false,
                    panicked: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            });
            let handles = (0..threads - 1)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(shared))
                })
                .collect();
            Arc::new(PoolInner {
                shared,
                handles: Mutex::new(handles),
            })
        });
        Self { threads, inner }
    }

    /// Use the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Number of worker threads (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Partition `0..ny` into at most `threads` contiguous, balanced slabs.
    pub fn slabs(&self, ny: usize) -> Vec<Range<usize>> {
        let n = self.threads.min(ny).max(1);
        (0..n).map(|i| slab_range(&(0..ny), i, n)).collect()
    }

    /// One fused stream+collide step executed by all worker threads, returning
    /// the [`KernelClass`] that served the interior cells.
    ///
    /// Produces the same `dst` state as [`crate::kernels::fused_step`]
    /// (verified by tests and property tests), independent of thread count —
    /// bit-for-bit on the scalar-semantics paths, within 1e-12 under the FMA
    /// lanes. When `interior` is supplied, the field is SoA/D3Q19 and the
    /// collision is plain BGK, each slab is one streaming sweep (interior runs
    /// through the fastest eligible lane kernel, gaps through the generic
    /// per-cell update); otherwise the whole slab runs the generic kernel.
    pub fn fused_step<L: Lattice, F: PopField<L>>(
        &self,
        flags: &FlagField,
        src: &F,
        dst: &mut F,
        collision: &CollisionKind,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        let dims = flags.dims();
        self.step_rect::<L, F>(flags, src, dst, collision, 0..dims.nx, 0..dims.ny, interior)
    }

    /// [`ThreadPool::fused_step`] restricted to the rectangle `xr × yr` (full z
    /// depth) — the entry point the distributed engine uses for the inner
    /// rectangle of a subdomain.
    #[allow(clippy::too_many_arguments)]
    pub fn step_rect<L: Lattice, F: PopField<L>>(
        &self,
        flags: &FlagField,
        src: &F,
        dst: &mut F,
        collision: &CollisionKind,
        xr: Range<usize>,
        yr: Range<usize>,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        let ny = yr.end.saturating_sub(yr.start);
        if ny == 0 || xr.end <= xr.start {
            return KernelClass::Generic;
        }
        // Fast-path eligibility: plain constant-ω BGK on an SoA/D3Q19 field
        // with a caller-provided interior index.
        let fast = match (collision, interior) {
            (CollisionKind::Bgk(p), Some(ix)) => (src as &dyn Any)
                .downcast_ref::<SoaField<D3Q19>>()
                .map(|s| (s, p.omega, ix.runs())),
            _ => None,
        };
        let (path, class) = crate::simd::select_fast_path();
        let class = if fast.is_some() {
            class
        } else {
            KernelClass::Generic
        };

        let n_slabs = self.threads.min(ny);
        let ctx = StepCtx::<L, F> {
            flags,
            src,
            writer: SharedWriter(dst.raw_mut().as_mut_ptr()),
            collision,
            fast,
            path,
            xr,
            yr,
            n_slabs,
            next: AtomicUsize::new(0),
            _lattice: std::marker::PhantomData,
        };

        match &self.inner {
            None => unsafe { run_step_job::<L, F>(&ctx as *const StepCtx<L, F> as *const ()) },
            Some(inner) => {
                let workers = {
                    let mut st = inner.shared.state.lock().unwrap();
                    st.job = Some(Job {
                        func: run_step_job::<L, F>,
                        ctx: &ctx as *const StepCtx<L, F> as *const (),
                    });
                    st.generation += 1;
                    st.active = self.threads - 1;
                    st.active
                };
                if workers > 0 {
                    inner.shared.work_cv.notify_all();
                }
                // Participate as worker 0. Even if this panics, we must wait
                // for the workers before unwinding: the job context lives on
                // this stack frame.
                let mine = catch_unwind(AssertUnwindSafe(|| unsafe {
                    run_step_job::<L, F>(&ctx as *const StepCtx<L, F> as *const ())
                }));
                let panicked = {
                    let mut st = inner.shared.state.lock().unwrap();
                    while st.active > 0 {
                        st = inner.shared.done_cv.wait(st).unwrap();
                    }
                    st.job = None;
                    std::mem::replace(&mut st.panicked, false)
                };
                if let Err(payload) = mine {
                    resume_unwind(payload);
                }
                if panicked {
                    panic!("worker thread panicked");
                }
            }
        }
        class
    }

    /// One in-place AA-pattern half-step executed by all worker threads,
    /// returning the [`KernelClass`] that served the interior cells.
    ///
    /// `parity` names the grid's *current* state (the caller flips it after
    /// this returns). The AA slot-ownership discipline — every slot is read
    /// and written only by the single cell that owns it, which gathers before
    /// scattering — makes the odd step's cross-slab scatters race-free for any
    /// slab partition, so the same atomic slab-stealing driver as
    /// [`ThreadPool::fused_step`] applies unchanged. Thread count never
    /// changes the result (bit-for-bit on every lane).
    pub fn aa_fused_step<L: Lattice>(
        &self,
        flags: &FlagField,
        field: &mut SoaField<L>,
        collision: &CollisionKind,
        parity: AaParity,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        let dims = flags.dims();
        self.aa_step_rect::<L>(flags, field, collision, parity, 0..dims.nx, 0..dims.ny, interior)
    }

    /// [`ThreadPool::aa_fused_step`] restricted to the rectangle `xr × yr`
    /// (full z depth) — the entry point the distributed engine uses for the
    /// inner rectangle of a subdomain.
    #[allow(clippy::too_many_arguments)]
    pub fn aa_step_rect<L: Lattice>(
        &self,
        flags: &FlagField,
        field: &mut SoaField<L>,
        collision: &CollisionKind,
        parity: AaParity,
        xr: Range<usize>,
        yr: Range<usize>,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        let ny = yr.end.saturating_sub(yr.start);
        if ny == 0 || xr.end <= xr.start {
            return KernelClass::Generic;
        }
        // Fast-path eligibility mirrors `step_rect`: plain constant-ω BGK on a
        // D3Q19 grid with a caller-provided interior index.
        let fast = match (collision, interior) {
            (CollisionKind::Bgk(p), Some(ix))
                if std::any::TypeId::of::<L>() == std::any::TypeId::of::<D3Q19>() =>
            {
                Some((p.omega, ix.runs()))
            }
            _ => None,
        };
        let (path, class) = crate::simd::select_fast_path();
        let class = if fast.is_some() {
            class
        } else {
            KernelClass::Generic
        };

        let n_slabs = self.threads.min(ny);
        let ctx = AaStepCtx::<L> {
            flags,
            grid: SharedWriter(field.raw_mut().as_mut_ptr()),
            collision,
            parity,
            fast,
            path,
            xr,
            yr,
            n_slabs,
            next: AtomicUsize::new(0),
            _lattice: std::marker::PhantomData,
        };

        match &self.inner {
            None => unsafe { run_aa_step_job::<L>(&ctx as *const AaStepCtx<L> as *const ()) },
            Some(inner) => {
                let workers = {
                    let mut st = inner.shared.state.lock().unwrap();
                    st.job = Some(Job {
                        func: run_aa_step_job::<L>,
                        ctx: &ctx as *const AaStepCtx<L> as *const (),
                    });
                    st.generation += 1;
                    st.active = self.threads - 1;
                    st.active
                };
                if workers > 0 {
                    inner.shared.work_cv.notify_all();
                }
                // Participate as worker 0; wait for the workers even on panic
                // (the job context lives on this stack frame).
                let mine = catch_unwind(AssertUnwindSafe(|| unsafe {
                    run_aa_step_job::<L>(&ctx as *const AaStepCtx<L> as *const ())
                }));
                let panicked = {
                    let mut st = inner.shared.state.lock().unwrap();
                    while st.active > 0 {
                        st = inner.shared.done_cv.wait(st).unwrap();
                    }
                    st.job = None;
                    std::mem::replace(&mut st.panicked, false)
                };
                if let Err(payload) = mine {
                    resume_unwind(payload);
                }
                if panicked {
                    panic!("worker thread panicked");
                }
            }
        }
        class
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::auto()
    }
}

/// Contiguous balanced slab `i` of `n` over `yr`.
fn slab_range(yr: &Range<usize>, i: usize, n: usize) -> Range<usize> {
    let ny = yr.end - yr.start;
    let base = ny / n;
    let extra = ny % n;
    let start = yr.start + i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// The type-erased per-step context shared by all participants. Lives on the
/// dispatching caller's stack for the duration of the step.
struct StepCtx<'a, L: Lattice, F: PopField<L>> {
    flags: &'a FlagField,
    src: &'a F,
    writer: SharedWriter,
    collision: &'a CollisionKind,
    /// `Some((src, ω, runs))` ⇒ each slab is one streaming sweep.
    fast: Option<(&'a SoaField<D3Q19>, Scalar, &'a InteriorRuns)>,
    /// Which lane the sweep executes (resolved once per step).
    path: FastPath,
    xr: Range<usize>,
    yr: Range<usize>,
    n_slabs: usize,
    next: AtomicUsize,
    _lattice: std::marker::PhantomData<L>,
}

/// Job body: steal slabs until the partition is exhausted.
///
/// # Safety
/// `ctx` must point at a live `StepCtx<L, F>` whose writer targets a buffer no
/// other code touches during the job.
unsafe fn run_step_job<L: Lattice, F: PopField<L>>(ctx: *const ()) {
    let ctx = unsafe { &*(ctx as *const StepCtx<L, F>) };
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.n_slabs {
            break;
        }
        let ys = slab_range(&ctx.yr, i, ctx.n_slabs);
        let xr = ctx.xr.clone();
        // SAFETY: disjoint y-slabs ⇒ disjoint writes into a buffer of the
        // source's layout. Slabs never split a z-pencil, so the lane/tail
        // split of every run is identical for every thread count.
        unsafe {
            match ctx.fast {
                Some((src, omega, runs)) => crate::simd::d3q19_sweep(
                    ctx.flags,
                    src,
                    ctx.writer.0,
                    ctx.collision,
                    omega,
                    xr,
                    ys,
                    runs,
                    ctx.path,
                ),
                None => {
                    generic_rect::<L, F>(ctx.flags, ctx.src, ctx.writer.0, ctx.collision, xr, ys)
                }
            }
        }
    }
}

/// The type-erased per-step context of the in-place AA driver. Lives on the
/// dispatching caller's stack for the duration of the step.
struct AaStepCtx<'a, L: Lattice> {
    flags: &'a FlagField,
    /// The single grid, shared read+write: the AA slot-ownership discipline
    /// guarantees no two threads ever touch the same slot.
    grid: SharedWriter,
    collision: &'a CollisionKind,
    /// The grid's current state (selects the odd or even step flavor).
    parity: AaParity,
    /// `Some((ω, runs))` ⇒ each slab is one streaming sweep.
    fast: Option<(Scalar, &'a InteriorRuns)>,
    path: FastPath,
    xr: Range<usize>,
    yr: Range<usize>,
    n_slabs: usize,
    next: AtomicUsize,
    _lattice: std::marker::PhantomData<L>,
}

/// AA job body: steal slabs until the partition is exhausted.
///
/// # Safety
/// `ctx` must point at a live `AaStepCtx<L>` whose grid no other code touches
/// during the job.
unsafe fn run_aa_step_job<L: Lattice>(ctx: *const ()) {
    let ctx = unsafe { &*(ctx as *const AaStepCtx<L>) };
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.n_slabs {
            break;
        }
        let ys = slab_range(&ctx.yr, i, ctx.n_slabs);
        let xr = ctx.xr.clone();
        // SAFETY: slot ownership ⇒ disjoint slot access across slabs even for
        // cross-slab odd scatters; each cell is processed exactly once. Slabs
        // never split a z-pencil, so the lane/tail split of every run is
        // identical for every thread count.
        unsafe {
            match ctx.fast {
                Some((omega, runs)) => crate::simd::aa_d3q19_sweep(
                    ctx.flags,
                    ctx.grid.0,
                    ctx.collision,
                    omega,
                    ctx.parity,
                    xr,
                    ys,
                    runs,
                    ctx.path,
                ),
                None => {
                    aa_generic_rect::<L>(ctx.flags, ctx.grid.0, ctx.collision, ctx.parity, xr, ys)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::NodeKind;
    use crate::collision::BgkParams;
    use crate::geometry::GridDims;
    use crate::kernels::fused_step;
    use crate::lattice::{D2Q9, D3Q19};
    use crate::layout::{AosField, SoaField};

    fn random_field<L: Lattice, F: PopField<L>>(dims: GridDims, seed: u64) -> F {
        let mut field = F::new(dims);
        let mut s = seed.max(1);
        for cell in 0..field.cells() {
            for q in 0..L::Q {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let r =
                    (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as Scalar / (1u64 << 53) as Scalar;
                field.set(cell, q, 0.02 + 0.05 * r);
            }
        }
        field
    }

    #[test]
    fn slab_partition_is_balanced_and_covers() {
        let pool = ThreadPool::new(4);
        let slabs = pool.slabs(10);
        assert_eq!(slabs.len(), 4);
        let total: usize = slabs.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(slabs[0], 0..3);
        assert_eq!(slabs.last().unwrap().end, 10);
        // Sizes differ by at most one.
        let sizes: Vec<usize> = slabs.iter().map(|r| r.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn more_threads_than_rows_degrades_gracefully() {
        let pool = ThreadPool::new(16);
        let slabs = pool.slabs(3);
        assert_eq!(slabs.len(), 3);
        assert!(slabs.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn parallel_matches_serial_exactly_soa() {
        let dims = GridDims::new(9, 11, 5);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(4, 5, 2, NodeKind::Wall);
        let src: SoaField<D3Q19> = random_field(dims, 42);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

        let mut serial = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);

        for threads in [1, 2, 3, 8] {
            let mut par = SoaField::<D3Q19>::new(dims);
            ThreadPool::new(threads).fused_step(&flags, &src, &mut par, &coll, None);
            for c in 0..dims.cells() {
                for q in 0..19 {
                    assert_eq!(
                        serial.get(c, q),
                        par.get(c, q),
                        "threads={threads} cell={c} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_optimized_dispatch_matches_serial() {
        let dims = GridDims::new(9, 11, 7);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(4, 5, 3, NodeKind::Wall);
        let src: SoaField<D3Q19> = random_field(dims, 99);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut serial = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);

        // Bit-exact on the scalar-semantics paths; 1e-12 under the FMA lanes.
        let tol = crate::simd::dispatch_tolerance();
        for threads in [1, 2, 4] {
            let mut par = SoaField::<D3Q19>::new(dims);
            let class =
                ThreadPool::new(threads).fused_step(&flags, &src, &mut par, &coll, Some(&interior));
            assert_ne!(class, KernelClass::Generic);
            for c in 0..dims.cells() {
                for q in 0..19 {
                    let (s, p) = (serial.get(c, q), par.get(c, q));
                    assert!(
                        (s - p).abs() <= tol,
                        "threads={threads} cell={c} q={q}: {s} vs {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_dispatch_is_thread_count_invariant_bitwise() {
        // The thread count never changes results bitwise, even under FMA:
        // y-slabs never split a z-pencil, so the vector/scalar chunking of
        // every run is identical for every slab partition.
        let dims = GridDims::new(9, 11, 7);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(4, 5, 3, NodeKind::Wall);
        let src: SoaField<D3Q19> = random_field(dims, 99);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut one = SoaField::<D3Q19>::new(dims);
        ThreadPool::new(1).fused_step(&flags, &src, &mut one, &coll, Some(&interior));
        for threads in [2, 4, 8] {
            let mut par = SoaField::<D3Q19>::new(dims);
            ThreadPool::new(threads).fused_step(&flags, &src, &mut par, &coll, Some(&interior));
            for c in 0..dims.cells() {
                for q in 0..19 {
                    assert_eq!(one.get(c, q), par.get(c, q), "threads={threads} cell={c}");
                }
            }
        }
    }

    #[test]
    fn rect_dispatch_composes_with_ring() {
        // Computing the inner rectangle (pooled sweep) and the boundary ring
        // (generic) separately must reproduce the full-domain step — the same
        // decomposition the distributed engine uses.
        let dims = GridDims::new(10, 9, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src: SoaField<D3Q19> = random_field(dims, 5);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.75));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut whole = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut whole, &coll);

        let pool = ThreadPool::new(3);
        let mut pieces = SoaField::<D3Q19>::new(dims);
        pool.step_rect::<D3Q19, _>(
            &flags,
            &src,
            &mut pieces,
            &coll,
            2..8,
            2..7,
            Some(&interior),
        );
        // Ring strips (generic path), exactly once per remaining cell.
        use crate::kernels::fused_step_rect;
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 0..10, 0..2);
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 0..10, 7..9);
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 0..2, 2..7);
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 8..10, 2..7);

        let tol = crate::simd::dispatch_tolerance();
        for c in 0..dims.cells() {
            for q in 0..19 {
                let (w, p) = (whole.get(c, q), pieces.get(c, q));
                assert!((w - p).abs() <= tol, "cell {c} q {q}: {w} vs {p}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly_aos_with_io_boundaries() {
        let dims = GridDims::new(8, 6, 4);
        let mut flags = FlagField::new(dims);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.03, 0.0, 0.0]);
        let src: AosField<D3Q19> = random_field(dims, 7);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.65));

        let mut serial = AosField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);
        let mut par = AosField::<D3Q19>::new(dims);
        ThreadPool::new(4).fused_step(&flags, &src, &mut par, &coll, None);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(serial.get(c, q), par.get(c, q));
            }
        }
    }

    #[test]
    fn parallel_2d_with_moving_lid() {
        let dims = GridDims::new2d(16, 16);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_lid([0.1, 0.0, 0.0]);
        let src: SoaField<D2Q9> = random_field(dims, 3);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));

        let mut serial = SoaField::<D2Q9>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);
        let mut par = SoaField::<D2Q9>::new(dims);
        ThreadPool::new(3).fused_step(&flags, &src, &mut par, &coll, None);
        for c in 0..dims.cells() {
            for q in 0..9 {
                assert_eq!(serial.get(c, q), par.get(c, q));
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_steps_and_clones() {
        let dims = GridDims::new(6, 8, 5);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let pool = ThreadPool::new(4);
        let clone = pool.clone();
        let mut a: SoaField<D3Q19> = random_field(dims, 11);
        let mut b = SoaField::<D3Q19>::new(dims);
        let mut serial_a = a.clone();
        let mut serial_b = SoaField::<D3Q19>::new(dims);
        for step in 0..6 {
            // Alternate pool handle and indexed/unindexed dispatch.
            let p = if step % 2 == 0 { &pool } else { &clone };
            let m = if step % 3 == 0 { Some(&interior) } else { None };
            p.fused_step(&flags, &a, &mut b, &coll, m);
            std::mem::swap(&mut a, &mut b);
            fused_step(&flags, &serial_a, &mut serial_b, &coll);
            std::mem::swap(&mut serial_a, &mut serial_b);
        }
        // Exact on scalar-semantics paths; the AVX2 lane's 1e-12 per-step
        // deviation compounds over the 6 steps, so allow a small multiple.
        let tol = crate::simd::dispatch_tolerance() * 100.0;
        for c in 0..dims.cells() {
            for q in 0..19 {
                let (x, s) = (a.get(c, q), serial_a.get(c, q));
                assert!((x - s).abs() <= tol, "cell {c} q {q}: {x} vs {s}");
            }
        }
    }

    #[test]
    fn auto_pool_reports_at_least_one_thread() {
        assert!(ThreadPool::auto().threads() >= 1);
        assert!(ThreadPool::default().threads() >= 1);
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }
}
