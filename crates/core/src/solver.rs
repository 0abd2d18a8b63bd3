//! Single-domain solver driver.
//!
//! [`Solver`] owns the population [`Storage`] (an A-B buffer pair or a single
//! AA-pattern grid, per [`StorageScheme`]), the flag field and the collision
//! parameters, and advances the lattice in time through **one unified
//! execution pipeline**: every step goes through [`ThreadPool::fused_step`]
//! (AB) or [`ThreadPool::aa_fused_step`] (AA), which run one streaming sweep
//! per y-slab — interior runs through the hand-optimized D3Q19 lane kernel,
//! gaps through the generic per-cell update — whenever the field/collision
//! combination supports it, and the generic reference kernel everywhere
//! else. Thread count is configuration, not a mode — a 1-thread pool runs
//! inline with no worker threads and identical (bit-exact) results. It is the unit the distributed engine (`swlb-sim`)
//! instantiates per rank, and the reference implementation the architecture
//! emulator (`swlb-arch`) is validated against.
//!
//! Construction goes through [`SolverBuilder`] — the single path for dims,
//! collision, storage scheme, thread pool, temporal-blocking depth and
//! observability recorder. The historical `Solver::new` + `with_*` chain and
//! the `ExecMode` selector were removed after every in-tree caller migrated;
//! contradictory settings (e.g. `time_block == 0`) are rejected by
//! [`SolverBuilder::try_build`].
//!
//! The scheme-agnostic state surface is [`Solver::state`]/[`Solver::state_mut`]
//! (the raw current grid, whose slot interpretation depends on the scheme and
//! [`Solver::parity`]) plus [`Solver::canonical_populations`]/
//! [`Solver::restore_canonical`] (the scheme-portable post-collision view used
//! by checkpoints, diagnostics and equivalence tests). The AB-only
//! `populations()`/`populations_mut()` accessors are deprecated.

use crate::collision::{BgkParams, CollisionKind};
use crate::error::CoreError;
use crate::flags::FlagField;
use crate::geometry::GridDims;
use crate::kernels::{self, initialize_equilibrium, initialize_with, InteriorIndex};
use crate::lattice::Lattice;
use crate::layout::{AaParity, PopField, SoaField, Storage, StorageScheme};
use crate::macroscopic::MacroFields;
use crate::parallel::ThreadPool;
use crate::simd::KernelClass;
use crate::Scalar;
use std::borrow::Cow;
use std::marker::PhantomData;
use swlb_obs::{Counter, Gauge, Phase, Recorder, SwlbError};

use crate::kernels::{canonicalize_streamed, reverse_planes};

/// Summary statistics of one (or the latest) time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Completed time steps since construction.
    pub step: u64,
    /// Total fluid mass.
    pub mass: Scalar,
    /// Maximum velocity magnitude (lattice units) — the Mach monitor.
    pub max_velocity: Scalar,
    /// Total kinetic energy.
    pub kinetic_energy: Scalar,
}

/// The single construction path for [`Solver`]: dims and BGK parameters up
/// front, everything else optional with sensible defaults.
///
/// ```
/// use swlb_core::prelude::*;
///
/// let solver = Solver::<D2Q9>::builder(GridDims::new2d(16, 16), BgkParams::from_tau(0.8))
///     .pool(ThreadPool::new(4))
///     .time_block(2)
///     .build();
/// assert_eq!(solver.step_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SolverBuilder<L: Lattice> {
    dims: GridDims,
    collision: CollisionKind,
    storage: StorageScheme,
    pool: Option<ThreadPool>,
    time_block: usize,
    recorder: Recorder,
    _lattice: PhantomData<L>,
}

impl<L: Lattice> SolverBuilder<L> {
    /// Start a builder for a `dims` grid with BGK collision `params`.
    pub fn new(dims: GridDims, params: BgkParams) -> Self {
        SolverBuilder {
            dims,
            collision: CollisionKind::Bgk(params),
            storage: StorageScheme::default(),
            pool: None,
            time_block: 1,
            recorder: Recorder::disabled(),
            _lattice: PhantomData,
        }
    }

    /// Population storage scheme (default [`StorageScheme::Ab`]). `Aa` keeps a
    /// single grid and streams in place — half the distribution-storage
    /// footprint and bytes/LUP — but supports only Fluid/Wall/MovingWall node
    /// kinds (flags are painted after build, so the boundary check happens
    /// lazily: [`Solver::try_step`]/[`Solver::run_checked`] return a typed
    /// error, [`Solver::step`] panics).
    pub fn storage(mut self, scheme: StorageScheme) -> Self {
        self.storage = scheme;
        self
    }

    /// Replace the collision operator (overrides the BGK params given to
    /// [`SolverBuilder::new`]).
    pub fn collision(mut self, collision: CollisionKind) -> Self {
        self.collision = collision;
        self
    }

    /// Thread pool for the unified execution pipeline (default: one thread,
    /// which runs inline with no worker threads).
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach an observability recorder (default: disabled — the instrumented
    /// step path then costs nothing).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Temporal-blocking depth `k` (default 1 = no blocking): [`Solver::run`]
    /// and [`Solver::run_checked`] then advance `k` steps per cache-resident
    /// wavefront sweep (see [`crate::temporal`]), bit-identical to `k` plain
    /// steps. Under [`StorageScheme::Aa`] the depth must be even so a block
    /// ends at the canonical `Reversed` parity.
    pub fn time_block(mut self, k: usize) -> Self {
        self.time_block = k;
        self
    }

    /// Build the solver, rejecting contradictory settings.
    ///
    /// Errors: `time_block == 0`, and an odd `time_block > 1` under AA
    /// storage.
    pub fn try_build(self) -> Result<Solver<L>, SwlbError> {
        if self.time_block == 0 {
            return Err(SwlbError::InvalidConfig(
                "time_block must be >= 1 (1 disables temporal blocking)".into(),
            ));
        }
        if self.storage == StorageScheme::Aa && self.time_block > 1 && !self.time_block.is_multiple_of(2) {
            return Err(SwlbError::InvalidConfig(format!(
                "AA-pattern storage needs an even time_block so a block ends at the \
                 canonical Reversed parity; got {}",
                self.time_block
            )));
        }
        let pool = self.pool.unwrap_or_else(|| ThreadPool::new(1));
        let obs_mlups = self.recorder.gauge("mlups");
        let obs_steps = self.recorder.counter("steps");
        let obs_kernel_class = self.recorder.gauge("kernel_class");
        let dims = self.dims;
        Ok(Solver {
            dims,
            flags: FlagField::new(dims),
            storage: Storage::with_scheme(self.storage, || SoaField::new(dims)),
            collision: self.collision,
            pool,
            step: 0,
            time_block: self.time_block,
            interior: None,
            interior_dirty: true,
            active: 0,
            last_class: KernelClass::Generic,
            recorder: self.recorder,
            obs_mlups,
            obs_steps,
            obs_kernel_class,
        })
    }

    /// Build the solver (all-fluid periodic flag field; paint boundaries via
    /// [`Solver::flags_mut`] afterwards).
    ///
    /// # Panics
    /// Panics on the configuration contradictions [`SolverBuilder::try_build`]
    /// reports as errors.
    pub fn build(self) -> Solver<L> {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid solver configuration: {e}"))
    }
}

/// A single-box LBM solver with SoA storage, double-buffered (AB) or
/// single-grid AA-pattern per the builder's [`StorageScheme`].
#[derive(Debug, Clone)]
pub struct Solver<L: Lattice> {
    dims: GridDims,
    flags: FlagField,
    storage: Storage<SoaField<L>>,
    collision: CollisionKind,
    pool: ThreadPool,
    step: u64,
    /// Temporal-blocking depth: [`Solver::run`] advances this many steps per
    /// wavefront sweep (1 = plain per-step execution).
    time_block: usize,
    /// Interior fast-path index (run-length interior runs), rebuilt lazily when
    /// the flags change.
    interior: Option<InteriorIndex>,
    interior_dirty: bool,
    /// Fluid-cell count, cached alongside the index (MLUPS accounting).
    active: usize,
    /// Which kernel class served the most recent step.
    last_class: KernelClass,
    recorder: Recorder,
    obs_mlups: Gauge,
    obs_steps: Counter,
    obs_kernel_class: Gauge,
}

impl<L: Lattice> Solver<L> {
    /// Start a [`SolverBuilder`] — the single construction path.
    pub fn builder(dims: GridDims, params: BgkParams) -> SolverBuilder<L> {
        SolverBuilder::new(dims, params)
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Collision configuration.
    pub fn collision(&self) -> &CollisionKind {
        &self.collision
    }

    /// The observability recorder this solver reports into (disabled unless
    /// one was attached at construction).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Overwrite the completed step count — the checkpoint-resume hook: after
    /// restoring populations via [`Solver::restore_canonical`], set the count
    /// to the checkpointed step so accounting (stats, obs, slice budgets)
    /// continues where the saved run left off.
    pub fn set_step_count(&mut self, step: u64) {
        self.step = step;
    }

    /// The storage scheme this solver was built with.
    pub fn scheme(&self) -> StorageScheme {
        self.storage.scheme()
    }

    /// AA parity of the current state (`None` under the AB scheme).
    pub fn parity(&self) -> Option<AaParity> {
        self.storage.parity()
    }

    /// Immutable flag field.
    pub fn flags(&self) -> &FlagField {
        &self.flags
    }

    /// Mutable flag field (pre-processing). Invalidates the interior fast-path
    /// index, which is rebuilt lazily on the next step.
    pub fn flags_mut(&mut self) -> &mut FlagField {
        self.interior_dirty = true;
        &mut self.flags
    }

    /// The raw grid holding the current state. Under AB this is the readable
    /// `src` buffer (canonical post-collision populations); under AA the slot
    /// interpretation depends on [`Solver::parity`] — use
    /// [`Solver::canonical_populations`] for a scheme-portable view.
    pub fn state(&self) -> &SoaField<L> {
        self.storage.state()
    }

    /// Mutable access to the raw current-state grid. Under AA the caller is
    /// responsible for honoring the current [`Solver::parity`] slot
    /// interpretation; prefer [`Solver::restore_canonical`] for restarts.
    pub fn state_mut(&mut self) -> &mut SoaField<L> {
        self.storage.state_mut()
    }

    /// Current (readable) population field — AB scheme only.
    ///
    /// # Panics
    /// Panics under AA storage, where the raw grid is not canonically ordered;
    /// use [`Solver::state`] or [`Solver::canonical_populations`] instead.
    #[deprecated(
        since = "0.7.0",
        note = "use the scheme-agnostic `state()` / `canonical_populations()` instead"
    )]
    pub fn populations(&self) -> &SoaField<L> {
        assert_eq!(
            self.storage.scheme(),
            StorageScheme::Ab,
            "populations() is AB-only; use state()/canonical_populations() under AA storage"
        );
        self.storage.state()
    }

    /// Mutable access to the current populations — AB scheme only.
    ///
    /// # Panics
    /// Panics under AA storage; use [`Solver::state_mut`] or
    /// [`Solver::restore_canonical`] instead.
    #[deprecated(
        since = "0.7.0",
        note = "use the scheme-agnostic `state_mut()` / `restore_canonical()` instead"
    )]
    pub fn populations_mut(&mut self) -> &mut SoaField<L> {
        assert_eq!(
            self.storage.scheme(),
            StorageScheme::Ab,
            "populations_mut() is AB-only; use state_mut()/restore_canonical() under AA storage"
        );
        self.storage.state_mut()
    }

    /// The canonical (AB-ordered) post-collision populations of the current
    /// state: borrowed zero-copy under AB, materialized under AA by undoing
    /// the slot reversal (`Reversed`) or the in-place streaming (`Streamed`).
    /// This is the scheme-portable payload checkpoints and diagnostics use.
    /// Solid cells hold scheme-dependent (finite) values.
    pub fn canonical_populations(&self) -> Cow<'_, SoaField<L>> {
        match &self.storage {
            Storage::Ab(b) => Cow::Borrowed(b.src()),
            Storage::Aa { field, parity } => match parity {
                AaParity::Reversed => {
                    let mut f = field.clone();
                    reverse_planes::<L>(&mut f);
                    Cow::Owned(f)
                }
                AaParity::Streamed => Cow::Owned(canonicalize_streamed::<L>(field)),
            },
        }
    }

    /// Restore a canonical (AB-ordered) post-collision state — the payload of
    /// [`Solver::canonical_populations`] — into whichever scheme this solver
    /// uses, and set the step count. Under AA the grid is re-reversed in place
    /// and the parity reset to `Reversed` (restarting any canonical state with
    /// an odd step is exactly equivalent to the AB continuation).
    pub fn restore_canonical(&mut self, data: &[Scalar], step: u64) -> Result<(), SwlbError> {
        let expect = L::Q * self.dims.cells();
        if data.len() != expect {
            return Err(SwlbError::InvalidConfig(format!(
                "canonical state has {} scalars, grid needs {expect}",
                data.len()
            )));
        }
        match &mut self.storage {
            Storage::Ab(b) => b.src_mut().raw_mut().copy_from_slice(data),
            Storage::Aa { field, parity } => {
                field.raw_mut().copy_from_slice(data);
                reverse_planes::<L>(field);
                *parity = AaParity::Reversed;
            }
        }
        self.step = step;
        Ok(())
    }

    /// Initialize every non-solid cell to `f_eq(rho, u)` and reset the step count.
    pub fn initialize_uniform(&mut self, rho: Scalar, u: [Scalar; 3]) {
        initialize_equilibrium::<L, _>(&self.flags, self.storage.state_mut(), rho, u);
        self.finish_init();
    }

    /// Initialize with a position-dependent state and reset the step count.
    pub fn initialize_field(
        &mut self,
        state: impl FnMut(usize, usize, usize) -> (Scalar, [Scalar; 3]),
    ) {
        initialize_with::<L, _>(&self.flags, self.storage.state_mut(), state);
        self.finish_init();
    }

    /// Convert the canonical state the initializers wrote into the scheme's
    /// raw representation and reset step accounting.
    fn finish_init(&mut self) {
        if let Storage::Aa { field, parity } = &mut self.storage {
            reverse_planes::<L>(field);
            *parity = AaParity::Reversed;
        }
        self.step = 0;
    }

    fn ensure_interior(&mut self) -> Result<(), SwlbError> {
        if self.interior_dirty {
            if self.storage.scheme() == StorageScheme::Aa {
                let c = self.flags.census();
                if c.inlet != 0 || c.outlet != 0 {
                    return Err(SwlbError::InvalidConfig(format!(
                        "AA-pattern storage supports Fluid/Wall/MovingWall nodes only, \
                         but the flag field has {} inlet and {} outlet nodes; \
                         build with StorageScheme::Ab for open/NEBB boundaries",
                        c.inlet, c.outlet
                    )));
                }
            }
            self.interior = Some(InteriorIndex::build::<L>(&self.flags));
            self.active = kernels::active_cells(&self.flags);
            self.interior_dirty = false;
        }
        Ok(())
    }

    /// The [`KernelClass`] (simd / scalar / generic) that served the interior
    /// cells of the most recent step — also exported as the `kernel_class`
    /// observability gauge.
    pub fn last_kernel_class(&self) -> KernelClass {
        self.last_class
    }

    /// Advance one time step.
    ///
    /// # Panics
    /// Panics when the flag field is incompatible with the storage scheme
    /// (AA + open boundaries) — use [`Solver::try_step`] or
    /// [`Solver::run_checked`] for the typed error.
    pub fn step(&mut self) {
        self.try_step()
            .unwrap_or_else(|e| panic!("solver step failed: {e}"));
    }

    /// Advance one time step, reporting scheme/boundary incompatibilities as a
    /// typed error instead of panicking.
    pub fn try_step(&mut self) -> Result<(), SwlbError> {
        self.ensure_interior()?;
        // `now()` is `None` for a disabled recorder: the instrumented path
        // then takes no clock reading and touches no atomic.
        let t0 = self.recorder.now();
        // One pipeline for every configuration: the pool dispatches the
        // fastest eligible interior kernel per y-slab where the field/collision
        // combination allows (SoA + D3Q19 + plain BGK, via the cached interior
        // index — vectorized when the CPU supports it) and the generic kernel
        // everywhere else. A 1-thread pool runs inline.
        let flags = &self.flags;
        let collision = self.collision;
        let interior = self.interior.as_ref();
        let pool = &self.pool;
        let class = match &mut self.storage {
            Storage::Ab(bufs) => {
                let (src, dst) = bufs.pair_mut();
                let class = pool.fused_step::<L, _>(flags, src, dst, &collision, interior);
                bufs.flip();
                class
            }
            Storage::Aa { field, parity } => {
                let class = pool.aa_fused_step::<L>(flags, field, &collision, *parity, interior);
                *parity = parity.flip();
                class
            }
        };
        self.last_class = class;
        if let Some(t0) = t0 {
            let ns = (t0.elapsed().as_nanos() as u64).max(1);
            self.recorder.record_phase_ns(Phase::CollideStream, ns);
            self.obs_steps.inc();
            // MLUPS = cells / seconds / 1e6 = cells · 1000 / ns.
            self.obs_mlups.set(self.active as f64 * 1e3 / ns as f64);
            self.obs_kernel_class.set(class.as_gauge());
        }
        self.step += 1;
        self.recorder.maybe_flush(self.step);
        Ok(())
    }

    /// The temporal-blocking depth this solver was built with (1 = no
    /// blocking).
    pub fn time_block(&self) -> usize {
        self.time_block
    }

    /// Whether a depth-`time_block` wavefront sweep may start now: always
    /// under AB, and only from the canonical `Reversed` parity under AA (an
    /// even completed step count — blocks both start and end there).
    fn block_ready(&self) -> bool {
        self.time_block > 1
            && match self.storage.parity() {
                None => true,
                Some(p) => p == AaParity::Reversed,
            }
    }

    /// Advance `time_block` steps in one cache-resident wavefront sweep —
    /// bit-identical to that many [`Solver::try_step`] calls, but touching
    /// DRAM roughly once instead of `time_block` times. Falls back to a plain
    /// step when blocking is disabled.
    pub fn try_block(&mut self) -> Result<(), SwlbError> {
        let k = self.time_block;
        if k <= 1 {
            return self.try_step();
        }
        self.ensure_interior()?;
        let t0 = self.recorder.now();
        let flags = &self.flags;
        let collision = self.collision;
        let interior = self.interior.as_ref();
        let pool = &self.pool;
        let class = match &mut self.storage {
            Storage::Ab(bufs) => {
                let (src, dst) = bufs.both_mut();
                let class =
                    crate::temporal::ab_block::<L>(pool, flags, src, dst, &collision, interior, k);
                // Level k leaves the final state in `dst` only for odd depths.
                if k % 2 == 1 {
                    bufs.flip();
                }
                class
            }
            Storage::Aa { field, parity } => {
                if *parity != AaParity::Reversed {
                    return Err(SwlbError::InvalidConfig(
                        "an AA temporal block must start at Reversed parity \
                         (even completed step count)"
                            .into(),
                    ));
                }
                // Even depth: the block returns to Reversed, parity unchanged.
                crate::temporal::aa_block::<L>(pool, flags, field, &collision, *parity, interior, k)
            }
        };
        self.last_class = class;
        if let Some(t0) = t0 {
            let ns = (t0.elapsed().as_nanos() as u64).max(1);
            self.recorder.record_phase_ns(Phase::CollideStream, ns);
            self.obs_steps.add(k as u64);
            self.obs_mlups
                .set(self.active as f64 * k as f64 * 1e3 / ns as f64);
            self.obs_kernel_class.set(class.as_gauge());
        }
        self.step += k as u64;
        self.recorder.maybe_flush(self.step);
        Ok(())
    }

    /// Advance `n` steps — in depth-`time_block` wavefront sweeps where the
    /// depth divides the remaining count (any remainder runs per-step, with
    /// identical results).
    pub fn run(&mut self, n: u64) {
        let mut done = 0;
        while done < n {
            let k = self.time_block as u64;
            if n - done >= k && self.block_ready() {
                self.try_block()
                    .unwrap_or_else(|e| panic!("solver step failed: {e}"));
                done += k;
            } else {
                self.step();
                done += 1;
            }
        }
    }

    /// Advance `n` steps, checking for divergence every `check_every` steps
    /// (rounded up to temporal-block boundaries when blocking is on).
    pub fn run_checked(&mut self, n: u64, check_every: u64) -> Result<(), SwlbError> {
        let every = check_every.max(1);
        let mut done = 0;
        let mut next_check = every;
        while done < n {
            let k = self.time_block as u64;
            if n - done >= k && self.block_ready() {
                self.try_block()?;
                done += k;
            } else {
                self.try_step()?;
                done += 1;
            }
            if done >= next_check || done == n {
                let m = self.macroscopic();
                if m.has_non_finite() {
                    return Err(CoreError::Diverged { step: self.step }.into());
                }
                while next_check <= done {
                    next_check += every;
                }
            }
        }
        Ok(())
    }

    /// Extract the macroscopic fields of the current state (computed from the
    /// canonical view, so AA parity never leaks into diagnostics).
    pub fn macroscopic(&self) -> MacroFields {
        MacroFields::compute::<L, _>(&self.flags, self.canonical_populations().as_ref())
    }

    /// Summary statistics of the current state.
    pub fn stats(&self) -> StepStats {
        let m = self.macroscopic();
        StepStats {
            step: self.step,
            mass: m.total_mass(&self.flags),
            max_velocity: m.max_velocity(),
            kinetic_energy: m.kinetic_energy(&self.flags),
        }
    }

    /// Number of fluid cells — the "lattice updates" of GLUPS accounting.
    pub fn active_cells(&self) -> usize {
        kernels::active_cells(&self.flags)
    }

    /// Million lattice updates per second for a measured wall time per step.
    pub fn mlups(&self, seconds_per_step: f64) -> f64 {
        if seconds_per_step <= 0.0 {
            return 0.0;
        }
        self.active_cells() as f64 / seconds_per_step / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{D2Q9, D3Q19};
    use swlb_obs::MemorySink;

    #[test]
    fn solver_runs_and_counts_steps() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(8, 8), BgkParams::from_tau(0.8)).build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(5);
        assert_eq!(s.step_count(), 5);
        assert!(!s.macroscopic().has_non_finite());
    }

    #[test]
    fn set_step_count_resumes_accounting() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(8, 8), BgkParams::from_tau(0.8)).build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(3);
        s.set_step_count(120);
        s.step();
        assert_eq!(s.step_count(), 121);
        assert_eq!(s.stats().step, 121);
    }

    #[test]
    fn unified_dispatch_agrees_across_pool_configs() {
        // The unified pipeline must agree across thread counts (formerly
        // Serial vs Parallel vs Optimized modes): bit-exact across thread
        // counts, because slabs never split a z-pencil.
        let dims = GridDims::new(8, 8, 8);
        let tau = 0.7;
        let make = |pool: Option<ThreadPool>| {
            let mut b = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(tau));
            if let Some(p) = pool {
                b = b.pool(p);
            }
            let mut s = b.build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(8);
            s
        };
        let a = make(None);
        let b = make(Some(ThreadPool::new(4)));
        let c = make(Some(ThreadPool::new(3)));
        let tol = crate::simd::dispatch_tolerance() * 100.0;
        for cell in 0..dims.cells() {
            for q in 0..19 {
                let va = a.state().get(cell, q);
                assert_eq!(
                    va,
                    b.state().get(cell, q),
                    "4-thread mismatch at cell {cell} q {q}"
                );
                let vc = c.state().get(cell, q);
                assert!(
                    (va - vc).abs() <= tol,
                    "3-thread mismatch at cell {cell} q {q}: {va} vs {vc}"
                );
            }
        }
    }

    #[test]
    fn solver_reports_kernel_class() {
        // D3Q19 + BGK takes a fast path (scalar or simd, per host/env);
        // D2Q9 has no fast path and must report Generic.
        let mut s3 =
            Solver::<D3Q19>::builder(GridDims::new(6, 6, 6), BgkParams::from_tau(0.8)).build();
        s3.flags_mut().set_box_walls();
        s3.initialize_uniform(1.0, [0.0; 3]);
        s3.step();
        assert_eq!(s3.last_kernel_class(), crate::simd::selected_kernel_class());
        assert_ne!(s3.last_kernel_class(), KernelClass::Generic);

        let mut s2 =
            Solver::<D2Q9>::builder(GridDims::new2d(8, 8), BgkParams::from_tau(0.8)).build();
        s2.initialize_uniform(1.0, [0.0; 3]);
        s2.step();
        assert_eq!(s2.last_kernel_class(), KernelClass::Generic);

        // The gauge mirrors the accessor when a recorder is attached.
        let rec = Recorder::enabled();
        let mut s = Solver::<D3Q19>::builder(GridDims::new(6, 6, 6), BgkParams::from_tau(0.8))
            .recorder(rec.clone())
            .build();
        s.flags_mut().set_box_walls();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(2);
        let snap = rec.snapshot(2).unwrap();
        assert_eq!(
            snap.gauge("kernel_class"),
            Some(s.last_kernel_class().as_gauge())
        );
    }

    #[test]
    fn temporal_block_is_bit_identical_to_plain_steps() {
        // The wavefront sweep is a pure reordering of the same per-cell
        // updates: depth-k runs must equal the per-step run bit-for-bit, on
        // every lane, for both storage schemes, across thread counts — and
        // for step counts that are not multiples of k (remainder per-step).
        let dims = GridDims::new(9, 11, 8);
        let run = |scheme: StorageScheme, k: usize, threads: usize, steps: u64| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.7))
                .storage(scheme)
                .time_block(k)
                .pool(ThreadPool::new(threads))
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(steps);
            assert_eq!(s.step_count(), steps);
            s
        };
        for steps in [8u64, 7] {
            let ab_ref = run(StorageScheme::Ab, 1, 1, steps);
            for k in [2usize, 3, 4] {
                for threads in [1usize, 3] {
                    let blocked = run(StorageScheme::Ab, k, threads, steps);
                    assert_canonical_match(&ab_ref, &blocked, 0.0, "ab-blocked");
                }
            }
            let aa_ref = run(StorageScheme::Aa, 1, 1, steps);
            for k in [2usize, 4] {
                for threads in [1usize, 3] {
                    let blocked = run(StorageScheme::Aa, k, threads, steps);
                    assert_canonical_match(&aa_ref, &blocked, 0.0, "aa-blocked");
                }
            }
        }
    }

    #[test]
    fn temporal_block_handles_periodic_and_generic_paths() {
        // Fully periodic box (wavefront wrap in y) and a D2Q9 generic-path
        // lattice: both must stay bit-identical to per-step runs.
        let dims3 = GridDims::new(6, 7, 5);
        let run3 = |k: usize| {
            let mut s = Solver::<D3Q19>::builder(dims3, BgkParams::from_tau(0.8))
                .time_block(k)
                .build();
            s.initialize_field(|x, y, z| {
                let v = 0.01 * ((x * 5 + y * 3 + z) % 7) as Scalar;
                (1.0 + v, [v, -v, 0.5 * v])
            });
            s.run(6);
            s
        };
        let (a, b) = (run3(1), run3(3));
        assert_canonical_match(&a, &b, 0.0, "periodic-3d");

        let dims2 = GridDims::new2d(12, 9);
        let run2 = |k: usize| {
            let mut s = Solver::<D2Q9>::builder(dims2, BgkParams::from_tau(0.9))
                .time_block(k)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.04, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(4);
            assert_eq!(s.last_kernel_class(), KernelClass::Generic);
            s
        };
        let (a, b) = (run2(1), run2(4));
        assert_canonical_match(&a, &b, 0.0, "generic-d2q9");
    }

    #[test]
    fn builder_rejects_bad_time_block() {
        let dims = GridDims::new2d(8, 8);
        let err = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .time_block(0)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        // AA needs an even depth (a block must end at Reversed parity).
        let err = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .storage(StorageScheme::Aa)
            .time_block(3)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        // Even AA depths and any AB depth are fine.
        assert!(Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .storage(StorageScheme::Aa)
            .time_block(4)
            .try_build()
            .is_ok());
        assert!(Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .time_block(5)
            .try_build()
            .is_ok());
    }

    #[test]
    fn mass_is_conserved_in_sealed_cavity() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(12, 12), BgkParams::from_tau(0.9)).build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.08, 0.0, 0.0]);
        s.initialize_uniform(1.0, [0.0; 3]);
        let m0 = s.stats().mass;
        s.run(50);
        let m1 = s.stats().mass;
        assert!((m0 - m1).abs() / m0 < 1e-12, "mass drift: {m0} → {m1}");
    }

    #[test]
    fn run_checked_reports_divergence() {
        // Force instability: tau barely above 0.5 with a violent lid.
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(16, 16), BgkParams::from_tau(0.501)).build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.8, 0.0, 0.0]); // wildly super-stable limit
        s.initialize_uniform(1.0, [0.0; 3]);
        let r = s.run_checked(2000, 10);
        match r {
            Err(SwlbError::Diverged { step }) => assert!(step > 0),
            Ok(()) => {
                // Some parameter sets survive; the stats must then be finite.
                assert!(!s.macroscopic().has_non_finite());
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn flags_mut_invalidates_fast_path_mask() {
        let dims = GridDims::new(6, 6, 6);
        let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8)).build();
        s.flags_mut().set_box_walls();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(2);
        // Now drop an obstacle in and keep running; results must stay finite and
        // the obstacle must influence the flow (mask rebuilt).
        s.flags_mut().set(3, 3, 3, crate::boundary::NodeKind::Wall);
        s.run(2);
        assert!(!s.macroscopic().has_non_finite());
    }

    #[test]
    fn solver_runs_mrt_and_matches_bgk_limit() {
        // Through the full Solver driver: MRT with equal rates equals BGK.
        let dims = GridDims::new(6, 6, 6);
        let tau = 0.8;
        let run = |coll: CollisionKind| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(tau))
                .collision(coll)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.04, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(6);
            s.state().clone()
        };
        let bgk = run(CollisionKind::Bgk(BgkParams::from_tau(tau)));
        let mrt = run(CollisionKind::MrtD3Q19(crate::mrt::MrtParams::bgk_limit(
            tau,
        )));
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert!(
                    (bgk.get(c, q) - mrt.get(c, q)).abs() < 1e-12,
                    "cell {c} q {q}"
                );
            }
        }
    }

    #[test]
    fn parallel_solver_handles_nebb_boundaries() {
        let dims = GridDims::new(10, 8, 3);
        let make = |pool: ThreadPool| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.9))
                .pool(pool)
                .build();
            s.flags_mut().paint_channel_walls_y();
            s.flags_mut()
                .paint_nebb_inflow_outflow_x([0.03, 0.0, 0.0], 1.0);
            s.initialize_uniform(1.0, [0.03, 0.0, 0.0]);
            s.run(5);
            s.state().clone()
        };
        let serial = make(ThreadPool::new(1));
        let pooled = make(ThreadPool::new(3));
        // Thread count never changes the lane split ⇒ bit-exact on every path.
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(serial.get(c, q), pooled.get(c, q), "pooled c{c} q{q}");
            }
        }
    }

    #[test]
    fn forced_collision_through_solver_accelerates_periodic_flow() {
        // A periodic box under constant force gains momentum every step
        // (F per fluid cell), visible through the Solver stats.
        let dims = GridDims::new2d(6, 6);
        let params = BgkParams::from_tau(0.8);
        let fx = 1e-4;
        let mut s = Solver::<D2Q9>::builder(dims, params)
            .collision(CollisionKind::BgkForced {
                params,
                force: [fx, 0.0, 0.0],
            })
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        let flags = s.flags().clone();
        s.run(10);
        let m = s.macroscopic().total_momentum(&flags);
        let expect = fx * dims.cells() as Scalar * 10.0;
        assert!(
            (m[0] - expect).abs() / expect < 1e-9,
            "momentum {} vs forced impulse {expect}",
            m[0]
        );
    }

    #[test]
    fn mlups_accounting() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(10, 10), BgkParams::from_tau(0.8)).build();
        s.flags_mut().set_box_walls();
        let fluid = s.active_cells();
        assert_eq!(fluid, 8 * 8);
        assert!((s.mlups(1.0) - fluid as f64 / 1e6).abs() < 1e-12);
        assert_eq!(s.mlups(0.0), 0.0);
    }

    #[test]
    fn recorder_observes_steps_phases_and_mlups() {
        let rec = Recorder::enabled();
        let (sink, log) = MemorySink::new();
        rec.add_sink(Box::new(sink));
        rec.set_flush_every(4);
        let mut s = Solver::<D2Q9>::builder(GridDims::new2d(16, 16), BgkParams::from_tau(0.8))
            .recorder(rec.clone())
            .build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(8);
        let snap = rec.snapshot(8).unwrap();
        assert_eq!(snap.counter("steps"), Some(8));
        assert!(
            snap.phase_ns(Phase::CollideStream) > 0,
            "phase timer must accumulate"
        );
        assert!(
            snap.gauge("mlups").unwrap() > 0.0,
            "MLUPS gauge must be set"
        );
        // Auto-flush fired at steps 4 and 8.
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    /// Lid-driven cavity under AA storage must match AB — the canonical view
    /// is compared on non-solid cells only (solid slots are AA mailboxes).
    fn assert_canonical_match<L: Lattice>(a: &Solver<L>, b: &Solver<L>, tol: f64, what: &str) {
        let ca = a.canonical_populations();
        let cb = b.canonical_populations();
        let dims = a.dims();
        for cell in 0..dims.cells() {
            if !a.flags().kind(cell).is_fluid() {
                continue;
            }
            for q in 0..L::Q {
                let (va, vb) = (ca.get(cell, q), cb.get(cell, q));
                assert!(
                    (va - vb).abs() <= tol,
                    "{what}: cell {cell} q {q}: {va} vs {vb}"
                );
            }
        }
    }

    #[test]
    fn aa_matches_ab_in_lid_driven_cavity() {
        let dims = GridDims::new(10, 9, 8);
        let make = |scheme: StorageScheme, threads: usize, steps: u64| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.7))
                .storage(scheme)
                .pool(ThreadPool::new(threads))
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(steps);
            s
        };
        // Odd and even step counts exercise both mid-parity canonicalizations.
        for steps in [5u64, 6] {
            let ab = make(StorageScheme::Ab, 1, steps);
            let aa = make(StorageScheme::Aa, 1, steps);
            assert_eq!(aa.scheme(), StorageScheme::Aa);
            let want = if steps % 2 == 1 {
                AaParity::Streamed
            } else {
                AaParity::Reversed
            };
            assert_eq!(aa.parity(), Some(want));
            assert_canonical_match(&ab, &aa, crate::simd::dispatch_tolerance() * 100.0, "1T");
            // Thread count must not change AA results (slot ownership).
            let aa4 = make(StorageScheme::Aa, 4, steps);
            assert_canonical_match(&aa, &aa4, 0.0, "4T");
        }
    }

    #[test]
    fn aa_rejects_open_boundaries_with_typed_error() {
        let mut s = Solver::<D3Q19>::builder(GridDims::new(10, 8, 6), BgkParams::from_tau(0.9))
            .storage(StorageScheme::Aa)
            .build();
        s.flags_mut().paint_channel_walls_y();
        s.flags_mut()
            .paint_nebb_inflow_outflow_x([0.03, 0.0, 0.0], 1.0);
        s.initialize_uniform(1.0, [0.0; 3]);
        let err = s.try_step().unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        // run_checked surfaces the same typed error.
        let err = s.run_checked(3, 1).unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn aa_canonical_roundtrip_mid_parity() {
        // Save the canonical state mid-AA-parity (after an odd step), restore
        // into a fresh AA solver, continue, and compare against the
        // uninterrupted run — and against AB restored from the same payload.
        let dims = GridDims::new(8, 8, 8);
        let build = |scheme| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8))
                .storage(scheme)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.04, 0.0, 0.0]);
            s
        };
        let mut full = build(StorageScheme::Aa);
        full.initialize_uniform(1.0, [0.0; 3]);
        full.run(3); // odd count ⇒ Streamed parity at save time
        let saved = full.canonical_populations().into_owned();
        let saved_step = full.step_count();
        full.run(4);

        let mut resumed = build(StorageScheme::Aa);
        resumed.restore_canonical(saved.raw(), saved_step).unwrap();
        assert_eq!(resumed.parity(), Some(AaParity::Reversed));
        assert_eq!(resumed.step_count(), 3);
        resumed.run(4);
        assert_canonical_match(&full, &resumed, 0.0, "aa-resume");

        let mut ab = build(StorageScheme::Ab);
        ab.restore_canonical(saved.raw(), saved_step).unwrap();
        ab.run(4);
        assert_canonical_match(
            &ab,
            &resumed,
            crate::simd::dispatch_tolerance() * 100.0,
            "ab-resume",
        );
    }

    #[test]
    fn restore_canonical_rejects_wrong_length() {
        let mut s = Solver::<D2Q9>::builder(GridDims::new2d(4, 4), BgkParams::from_tau(0.8))
            .storage(StorageScheme::Aa)
            .build();
        let err = s.restore_canonical(&[0.0; 7], 1).unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn aa_generic_lattice_and_collision_fall_back() {
        // D2Q9 (no fast path) and MRT (generic collision) both run under AA
        // and agree with their AB twins.
        let dims = GridDims::new2d(10, 10);
        let run = |scheme| {
            let mut s = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
                .storage(scheme)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(7);
            assert_eq!(s.last_kernel_class(), KernelClass::Generic);
            s
        };
        let ab = run(StorageScheme::Ab);
        let aa = run(StorageScheme::Aa);
        assert_canonical_match(&ab, &aa, 0.0, "d2q9");
    }
}
