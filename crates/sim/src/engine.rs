//! The distributed solver: halo exchange + fused kernel per rank.
//!
//! Each rank owns an `(lnx + 2) × (lny + 2) × nz` local grid — interior plus a
//! one-cell halo ring in x/y. Under the default A-B (double-buffer) storage a
//! time step is:
//!
//! 1. send the 8 boundary strips of the current state to the neighbors,
//! 2. (on-the-fly mode) compute the inner cells that need no halo,
//! 3. receive the 8 halo strips into the current state's ring,
//! 4. compute the remaining cells,
//! 5. flip the A-B buffers.
//!
//! Sends are buffered (never block) and receives match `(source, direction)`
//! tags, so the two schedules are both deadlock-free and *bit-identical* —
//! overlap changes only when work happens, not what is computed. This is the
//! property the paper relies on when pipelining the MPE (communication) against
//! the CPE cluster (inner-domain computation), Fig. 6(2)/Fig. 9(2).
//!
//! ## AA-pattern (single-grid) storage
//!
//! With [`StorageScheme::Aa`] each rank holds ONE grid and alternates two step
//! flavors (see `swlb_core::layout`):
//!
//! - **Odd steps** (parity `Reversed`) gather from the upwind neighborhood and
//!   scatter downwind — including *into the ghost ring*, whose cells stand in
//!   for the neighbor's boundary cells. The schedule is the AB pre-exchange
//!   (tags `0..8`, populating the ghosts so gathers see the neighbor's state)
//!   plus a **post-exchange** (tags `8..16`): each rank ships its ghost strips
//!   — now holding scatters that belong to the neighbor — back across, and
//!   the receiver merges exactly those slots `(cell, q)` whose *writer*
//!   `cell − c_q` lies in the sender's region. Slot ownership (each slot has a
//!   unique writer, which is also its unique reader) makes the merge
//!   predicates disjoint across the 8 senders, wraparound self-sends included.
//! - **Even steps** (parity `Streamed`) read and write only the cell's own
//!   slots and the mailbox slots of adjacent walls, all of which the rank's
//!   own odd step wrote locally: even steps need **no communication at all** —
//!   the AA scheme halves both the resident set and the halo traffic.
//!
//! ## Depth-k temporal blocking (deep halos)
//!
//! With `time_block(k)` (k > 1) each rank's ghost ring is `k` cells deep and
//! the halo exchange runs **once per k steps** instead of once per step. A
//! block starts with the deep exchange, then advances the grid `k` times,
//! shrinking the computed rectangle by one ghost layer per intra-block step:
//! step `s` (1-based) computes the owned block *expanded* by `e = k − s` ghost
//! layers. The expanded region redundantly recomputes ghost cells with exactly
//! the data the owning neighbor uses (the flags there sample the same global
//! field), so owned cells after every intra-block step are identical to a
//! per-step exchange — results stay bit-identical to `k = 1` on
//! scalar-semantics lanes and within the usual dispatch tolerance otherwise.
//! Validity accounting per scheme:
//!
//! - **AB** pulls from distance 1, so validity shrinks by one layer per step:
//!   step `s` may compute to depth `k − s` because depth `k − s + 1 ≤ k` was
//!   valid before it.
//! - **AA** alternates the odd (gather + scatter, shrinks validity by two
//!   layers) and even (cell-local, shrinks by zero) flavors; the same
//!   `e = k − s` schedule is exactly tight for even `k`, which is why the
//!   builder requires it. The odd-step scatters that `k = 1` returns with a
//!   post-exchange are instead *recomputed* by the neighbor inside its own
//!   ghost ring, so a blocked AA step needs the pre-exchange only.
//!
//! When a subdomain is shallower than the ring (`ln < k`) one exchange cannot
//! fill it, so the exchange repeats for `R = ceil(k / min_ln)` rounds (tags
//! `64 + 16·(round−1) + d` past round 0): each round forwards what the
//! previous round made valid, advancing the valid front by at least `min_ln`
//! layers per round. Checkpoint capture stays valid mid-block (owned cells are
//! always current); restore lands on a block *boundary* — it resets the
//! intra-block phase so the next step re-exchanges before anything reads the
//! (then stale) ghosts.

use crate::partition::Partition2d;
use std::ops::Range;
use std::time::Duration;
use swlb_comm::cart::NEIGHBOR_OFFSETS;
use swlb_comm::frame::{check_frame, seal_frame, FrameCheck, FRAME_HEADER};
use swlb_comm::{Comm, CommError, Communicator, Tag};
use swlb_core::collision::{collide, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::{
    apply_non_fluid, canonicalize_streamed, gather_pull, reverse_planes, InteriorIndex, MAX_Q,
};
use swlb_core::lattice::Lattice;
use swlb_core::layout::{AaParity, PopField, SoaField, Storage, StorageScheme};
use swlb_core::macroscopic::MacroFields;
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::KernelClass;
use swlb_core::Scalar;
use swlb_io::ChunkedCheckpoint;
use swlb_obs::{exponential_buckets, Counter, Gauge, Histogram, Phase, Recorder, SwlbError};

/// Halo-exchange schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Exchange first, then compute everything (paper Fig. 6(1)).
    Sequential,
    /// Overlap communication with inner-domain computation (paper Fig. 6(2)).
    OnTheFly,
}

/// Index of the opposite direction in [`NEIGHBOR_OFFSETS`] order.
fn opposite_dir(d: usize) -> usize {
    // E↔W, N↔S, NE↔SW, SE↔NW.
    d ^ 1
}

/// Tag base of the AA odd-step post-exchange (ghost-scatter return traffic);
/// the pre-exchange uses tags `0..8` and the restart scatter uses `40`.
const AA_POST_TAG_BASE: u64 = 8;

/// Tag base of deep-halo exchange rounds past the first: round `r ≥ 1` in
/// direction `d` uses `ROUND_TAG_BASE + ROUND_TAG_STRIDE·(r−1) + d`, keeping
/// every round's 8 strips distinguishable from round 0 (`0..8`), the AA
/// post-exchange (`8..16`) and the restart tags (`40`, `41`).
const ROUND_TAG_BASE: u64 = 64;
const ROUND_TAG_STRIDE: u64 = 16;

/// The tag of halo direction `d` in exchange round `round`.
fn round_tag(round: usize, d: usize) -> u64 {
    if round == 0 {
        d as u64
    } else {
        ROUND_TAG_BASE + ROUND_TAG_STRIDE * (round as u64 - 1) + d as u64
    }
}

/// Retry/backoff policy for halo receives.
///
/// Each halo receive waits up to `timeout_for(attempt)` — the base timeout
/// doubled per attempt and capped — and is retried until `max_attempts`, at
/// which point the failure escalates as [`CommError::Timeout`] (message never
/// arrived) or [`CommError::Corrupt`] (every copy that arrived failed its
/// checksum). Retrying heals delayed and duplicated messages in place; dropped
/// or corrupted ones escalate to the recovery layer, which rolls back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloRetry {
    /// Deadline for the first attempt.
    pub base_timeout: Duration,
    /// Upper bound on any single attempt's deadline.
    pub max_backoff: Duration,
    /// Attempts before escalating (≥ 1).
    pub max_attempts: u32,
}

impl Default for HaloRetry {
    /// Patient defaults for production runs: ~30 s of total waiting before a
    /// halo failure escalates.
    fn default() -> Self {
        HaloRetry {
            base_timeout: Duration::from_secs(1),
            max_backoff: Duration::from_secs(8),
            max_attempts: 6,
        }
    }
}

impl HaloRetry {
    /// Tight deadlines for fault-injection tests (milliseconds, not seconds).
    pub fn snappy() -> Self {
        HaloRetry {
            base_timeout: Duration::from_millis(50),
            max_backoff: Duration::from_millis(400),
            max_attempts: 4,
        }
    }

    fn timeout_for(&self, attempt: u32) -> Duration {
        let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_timeout
            .checked_mul(mult)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

/// One rank's share of a distributed LBM simulation.
///
/// Generic over the [`Communicator`] so the identical solver code runs on the
/// production transport ([`Comm`], the default) and under fault injection
/// ([`ChaosComm`](swlb_comm::ChaosComm)).
pub struct DistributedSolver<'c, L: Lattice, C: Communicator = Comm> {
    comm: &'c C,
    part: Partition2d,
    flags: FlagField,
    store: Storage<SoaField<L>>,
    collision: CollisionKind,
    mode: ExchangeMode,
    lnx: usize,
    lny: usize,
    /// Temporal-blocking depth: steps advanced per halo exchange.
    time_block: usize,
    /// Ghost-ring width (= `time_block`). The owned block is
    /// `halo..halo+lnx × halo..halo+lny` in local coordinates.
    halo: usize,
    /// Exchange rounds per deep-halo fill: 1 unless some subdomain is
    /// shallower than the ring (see the module docs).
    rounds: usize,
    /// Intra-block phase `0..time_block`; 0 means the next step starts a
    /// block (exchanges halos). Reset by initialize/restore so a resumed run
    /// never reads stale ghosts.
    phase: usize,
    /// Execution pipeline for the inner rectangle: the same pooled sweep
    /// dispatch the shared-memory [`Solver`](swlb_core::solver::Solver) uses.
    pool: ThreadPool,
    /// Interior fast-path index of the local grid (run-length interior runs,
    /// halo ring excluded), enabling the vectorized / hand-optimized
    /// D3Q19 kernels inside the pooled dispatch. Rebuilt lazily when the local
    /// flags change (see [`DistributedSolver::local_flags_mut`]).
    interior: InteriorIndex,
    /// Set by [`DistributedSolver::local_flags_mut`]; the next step rebuilds
    /// the interior index and the active-cell count before dispatch.
    interior_dirty: bool,
    /// Which kernel class served the most recent step's inner rectangle.
    last_class: KernelClass,
    /// Reusable halo frame buffers: once capacities stabilize, the
    /// steady-state step performs no heap allocation.
    send_buf: Vec<f64>,
    recv_buf: Vec<f64>,
    step: u64,
    /// Restart generation: bumped on rollback so in-flight pre-rollback halo
    /// frames are recognized as stale and discarded.
    epoch: u64,
    retry: HaloRetry,
    /// Interior fluid-cell count (MLUPS accounting for this rank).
    active: usize,
    recorder: Recorder,
    obs_mlups: Gauge,
    obs_steps: Counter,
    obs_retries: Counter,
    obs_timeouts: Counter,
    obs_corrupt: Counter,
    obs_halo_us: Histogram,
    obs_halo_msgs: Counter,
    obs_halo_bytes: Counter,
    obs_kernel_class: Gauge,
}

/// Interior (halo-ring-excluded) fluid-cell count of a local grid.
fn count_active(flags: &FlagField, lnx: usize, lny: usize, h: usize) -> usize {
    let local = flags.dims();
    let mut active = 0;
    for y in h..h + lny {
        for x in h..h + lnx {
            for z in 0..local.nz {
                if flags.kind(local.idx(x, y, z)).is_fluid() {
                    active += 1;
                }
            }
        }
    }
    active
}

/// The single construction path for [`DistributedSolver`]: communicator,
/// global problem and collision up front; exchange schedule, halo retry policy
/// and observability recorder optional.
///
/// The default exchange mode is [`ExchangeMode::OnTheFly`] — the
/// communication/computation overlap the paper's pipelined schedule uses
/// (Fig. 6(2)); pick [`ExchangeMode::Sequential`] explicitly for the
/// exchange-first baseline.
pub struct DistributedSolverBuilder<'c, 'f, L: Lattice, C: Communicator = Comm> {
    comm: &'c C,
    global: GridDims,
    global_flags: &'f FlagField,
    collision: CollisionKind,
    mode: ExchangeMode,
    storage: StorageScheme,
    retry: HaloRetry,
    recorder: Recorder,
    pool: Option<ThreadPool>,
    time_block: usize,
    _lattice: std::marker::PhantomData<L>,
}

impl<'c, 'f, L: Lattice, C: Communicator> DistributedSolverBuilder<'c, 'f, L, C> {
    /// Start a builder for this rank's share of the global problem.
    pub fn new(
        comm: &'c C,
        global: GridDims,
        global_flags: &'f FlagField,
        collision: CollisionKind,
    ) -> Self {
        DistributedSolverBuilder {
            comm,
            global,
            global_flags,
            collision,
            mode: ExchangeMode::OnTheFly,
            storage: StorageScheme::Ab,
            retry: HaloRetry::default(),
            recorder: Recorder::disabled(),
            pool: None,
            time_block: 1,
            _lattice: std::marker::PhantomData,
        }
    }

    /// Advance `k` steps per halo exchange with a `k`-deep ghost ring
    /// (default 1 — exchange every step). AA storage requires an even `k` so
    /// a block ends at the canonical `Reversed` parity.
    pub fn time_block(mut self, k: usize) -> Self {
        self.time_block = k;
        self
    }

    /// Run this rank's inner rectangle on the given thread pool (default: a
    /// single-threaded pool). This is the second level of the paper's two-level
    /// parallelism: ranks partition the domain, the pool's threads partition
    /// each rank's inner rectangle into y-slabs, one streaming sweep each.
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Select the halo-exchange schedule (default [`ExchangeMode::OnTheFly`]).
    pub fn exchange(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Select the population storage scheme (default [`StorageScheme::Ab`]).
    /// [`StorageScheme::Aa`] halves each rank's resident set and makes every
    /// second step communication-free, but supports only
    /// Fluid/Wall/MovingWall flags — [`DistributedSolverBuilder::try_build`]
    /// rejects the combination with open/NEBB boundaries.
    pub fn storage(mut self, scheme: StorageScheme) -> Self {
        self.storage = scheme;
        self
    }

    /// Replace the halo retry/backoff policy (default [`HaloRetry::default`]).
    pub fn halo_retry(mut self, retry: HaloRetry) -> Self {
        assert!(
            retry.max_attempts >= 1,
            "halo retry needs at least one attempt"
        );
        self.retry = retry;
        self
    }

    /// Attach an observability recorder (default: disabled).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Build this rank's solver, panicking on an invalid configuration.
    pub fn build(self) -> DistributedSolver<'c, L, C> {
        self.try_build()
            .unwrap_or_else(|e| panic!("distributed solver build failed: {e}"))
    }

    /// Build this rank's solver, rejecting unsupported scheme/flag
    /// combinations with a typed error: AA-pattern storage has no streaming
    /// rule for open (inlet/outlet/NEBB) boundaries.
    pub fn try_build(self) -> Result<DistributedSolver<'c, L, C>, SwlbError> {
        if self.storage == StorageScheme::Aa {
            let c = self.global_flags.census();
            if c.inlet != 0 || c.outlet != 0 {
                return Err(SwlbError::InvalidConfig(format!(
                    "AA-pattern storage supports Fluid/Wall/MovingWall nodes only, but the \
                     flag field has {} inlet and {} outlet nodes; build with StorageScheme::Ab \
                     for open/NEBB boundaries",
                    c.inlet, c.outlet
                )));
            }
        }
        if self.time_block == 0 {
            return Err(SwlbError::InvalidConfig(
                "time_block must be >= 1 (1 disables temporal blocking)".into(),
            ));
        }
        if self.storage == StorageScheme::Aa && self.time_block > 1 && self.time_block % 2 == 1 {
            return Err(SwlbError::InvalidConfig(format!(
                "AA-pattern storage needs an even time_block so a block ends at the canonical \
                 Reversed parity; got {}",
                self.time_block
            )));
        }
        let comm = self.comm;
        let h = self.time_block;
        let part = Partition2d::new(self.global, comm.size());
        let ((_, lnx), (_, lny)) = part.owned(comm.rank());
        let flags = part.local_flags_h(comm.rank(), self.global_flags, h);
        let local = part.local_dims_h(comm.rank(), h);
        let active = count_active(&flags, lnx, lny, h);
        // Rounds needed to fill an h-deep ring when subdomains may be
        // shallower than h: each round advances the valid front by at least
        // the shallowest owned extent along that axis. Every rank must agree,
        // so the minima run over the whole layout, not this rank.
        let min_lnx = (0..part.cart.px)
            .map(|cx| swlb_comm::Cart2d::block_range(self.global.nx, part.cart.px, cx).1)
            .min()
            .expect("at least one column");
        let min_lny = (0..part.cart.py)
            .map(|cy| swlb_comm::Cart2d::block_range(self.global.ny, part.cart.py, cy).1)
            .min()
            .expect("at least one row");
        let rounds = h.div_ceil(min_lnx).max(h.div_ceil(min_lny)).max(1);
        let recorder = self.recorder;
        let interior = InteriorIndex::build::<L>(&flags);
        Ok(DistributedSolver {
            comm,
            part,
            flags,
            store: Storage::with_scheme(self.storage, || SoaField::new(local)),
            collision: self.collision,
            mode: self.mode,
            lnx,
            lny,
            time_block: self.time_block,
            halo: h,
            rounds,
            phase: 0,
            pool: self.pool.unwrap_or_else(|| ThreadPool::new(1)),
            interior,
            interior_dirty: false,
            last_class: KernelClass::Generic,
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
            step: 0,
            epoch: 0,
            retry: self.retry,
            active,
            obs_mlups: recorder.gauge("mlups"),
            obs_steps: recorder.counter("steps"),
            obs_retries: recorder.counter("halo.retries"),
            obs_timeouts: recorder.counter("halo.timeouts"),
            obs_corrupt: recorder.counter("halo.corrupt"),
            obs_halo_us: recorder.histogram("halo.latency_us", &exponential_buckets(10.0, 4.0, 8)),
            obs_halo_msgs: recorder.counter("halo.messages"),
            obs_halo_bytes: recorder.counter("halo.bytes"),
            obs_kernel_class: recorder.gauge("kernel_class"),
            recorder,
        })
    }
}

impl<'c, L: Lattice, C: Communicator> DistributedSolver<'c, L, C> {
    /// Start a [`DistributedSolverBuilder`] — the single construction path.
    pub fn builder<'f>(
        comm: &'c C,
        global: GridDims,
        global_flags: &'f FlagField,
        collision: CollisionKind,
    ) -> DistributedSolverBuilder<'c, 'f, L, C> {
        DistributedSolverBuilder::new(comm, global, global_flags, collision)
    }

    /// The observability recorder this rank reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Replace the halo retry/backoff policy.
    pub fn set_halo_retry(&mut self, retry: HaloRetry) {
        assert!(
            retry.max_attempts >= 1,
            "halo retry needs at least one attempt"
        );
        self.retry = retry;
    }

    /// The active halo retry/backoff policy.
    pub fn halo_retry(&self) -> HaloRetry {
        self.retry
    }

    /// Current restart generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enter the next restart generation. Called by the recovery layer after a
    /// rollback, on every rank, so halo frames sent before the rollback are
    /// discarded as stale rather than consumed as fresh data.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Rank id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// The communicator this rank runs on (used by the recovery layer for its
    /// status reductions and rollback collectives).
    pub fn comm(&self) -> &'c C {
        self.comm
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Temporal-blocking depth (steps per halo exchange; 1 = unblocked).
    pub fn time_block(&self) -> usize {
        self.time_block
    }

    /// Ghost-ring width in cells (= [`DistributedSolver::time_block`]).
    pub fn halo_width(&self) -> usize {
        self.halo
    }

    /// Intra-block phase `0..time_block`; 0 means the next step starts a new
    /// block (and pays the halo exchange). Checkpoint capture is valid at any
    /// phase, but a *restore* always resumes at phase 0.
    pub fn block_phase(&self) -> usize {
        self.phase
    }

    /// The partition (for output assembly).
    pub fn partition(&self) -> Partition2d {
        self.part
    }

    /// Local flags (with halo ring).
    pub fn local_flags(&self) -> &FlagField {
        &self.flags
    }

    /// Mutable access to the local flags (with halo ring). Marks the cached
    /// interior fast-path index dirty; the next [`DistributedSolver::step`]
    /// rebuilds it (and the active-cell count) before dispatch.
    pub fn local_flags_mut(&mut self) -> &mut FlagField {
        self.interior_dirty = true;
        &mut self.flags
    }

    /// Which kernel class served the most recent step's inner rectangle
    /// ([`KernelClass::Generic`] before the first step).
    pub fn last_kernel_class(&self) -> KernelClass {
        self.last_class
    }

    /// Rebuild the interior index and active-cell count if the flags changed.
    fn ensure_interior(&mut self) {
        if self.interior_dirty {
            if self.store.scheme() == StorageScheme::Aa {
                let c = self.flags.census();
                assert!(
                    c.inlet == 0 && c.outlet == 0,
                    "AA-pattern storage supports Fluid/Wall/MovingWall nodes only, but the \
                     mutated local flags now have {} inlet and {} outlet nodes; use \
                     StorageScheme::Ab for open/NEBB boundaries",
                    c.inlet,
                    c.outlet
                );
            }
            self.interior = InteriorIndex::build::<L>(&self.flags);
            self.active = count_active(&self.flags, self.lnx, self.lny, self.halo);
            self.interior_dirty = false;
        }
    }

    /// Which storage scheme this rank runs.
    pub fn scheme(&self) -> StorageScheme {
        self.store.scheme()
    }

    /// AA step-flavor parity (`None` under AB storage). `Reversed` means the
    /// next step is the odd (communicating) flavor.
    pub fn parity(&self) -> Option<AaParity> {
        self.store.parity()
    }

    /// Initialize all local cells from a *global-coordinate* state function.
    pub fn initialize_with(
        &mut self,
        mut state: impl FnMut(usize, usize, usize) -> (Scalar, [Scalar; 3]),
    ) {
        let part = self.part;
        let rank = self.comm.rank();
        let global = part.global;
        let ((x0, _), (y0, _)) = part.owned(rank);
        let h = self.halo;
        let flags = self.flags.clone();
        swlb_core::kernels::initialize_with::<L, _>(&flags, self.store.state_mut(), |lx, ly, z| {
            let gx = (x0 as isize + lx as isize - h as isize).rem_euclid(global.nx as isize);
            let gy = (y0 as isize + ly as isize - h as isize).rem_euclid(global.ny as isize);
            state(gx as usize, gy as usize, z)
        });
        // The initializer writes the canonical (AB-ordered) state; convert to
        // the scheme's raw representation.
        if let Storage::Aa { field, parity } = &mut self.store {
            reverse_planes::<L>(field);
            *parity = AaParity::Reversed;
        }
        self.step = 0;
        self.phase = 0;
    }

    /// Initialize to a uniform equilibrium.
    pub fn initialize_uniform(&mut self, rho: Scalar, u: [Scalar; 3]) {
        self.initialize_with(|_, _, _| (rho, u));
    }

    /// Send ranges for direction component `d ∈ {−1, 0, +1}` along an axis
    /// with `ln` owned cells and an `h`-deep ghost ring: the `h` cells
    /// adjacent to that neighbor. When `ln < h` the strip dips into this
    /// rank's own ghost ring — valid in multi-round exchanges, where earlier
    /// rounds filled it (see the module docs).
    fn send_range(d: i32, ln: usize, h: usize) -> Range<usize> {
        match d {
            1 => ln..ln + h,
            -1 => h..2 * h,
            _ => h..ln + h,
        }
    }

    /// Receive (ghost) ranges for direction component `d`.
    fn recv_range(d: i32, ln: usize, h: usize) -> Range<usize> {
        match d {
            1 => ln + h..ln + 2 * h,
            -1 => 0..h,
            _ => h..ln + h,
        }
    }

    /// Append the strip `xr × yr` (full z) of `field` to `out` in halo wire
    /// order (y → x → z → q).
    fn pack_strip(field: &SoaField<L>, xr: Range<usize>, yr: Range<usize>, out: &mut Vec<f64>) {
        let dims = field.dims();
        out.reserve(xr.len() * yr.len() * dims.nz * L::Q);
        for y in yr {
            for x in xr.clone() {
                for z in 0..dims.nz {
                    let cell = dims.idx(x, y, z);
                    for q in 0..L::Q {
                        out.push(field.get(cell, q));
                    }
                }
            }
        }
    }

    /// Append the strip `xr × yr` of the current raw state to `out`.
    fn pack_into(&self, xr: Range<usize>, yr: Range<usize>, out: &mut Vec<f64>) {
        Self::pack_strip(self.store.state(), xr, yr, out);
    }

    fn unpack(&mut self, xr: Range<usize>, yr: Range<usize>, data: &[f64]) {
        let dims = self.flags.dims();
        let dst = self.store.state_mut();
        let mut it = data.iter();
        for y in yr {
            for x in xr.clone() {
                for z in 0..dims.nz {
                    let cell = dims.idx(x, y, z);
                    for q in 0..L::Q {
                        dst.set(cell, q, *it.next().expect("halo message too short"));
                    }
                }
            }
        }
        assert!(it.next().is_none(), "halo message too long");
    }

    /// Post all 8 halo sends of the current state for exchange round `round`.
    /// Each frame is built in place in the reusable send buffer:
    /// `[epoch, step, crc]` header, then the packed strip, then the checksum
    /// filled into its slot.
    fn post_sends(&mut self, round: usize) -> Result<(), CommError> {
        let mut buf = std::mem::take(&mut self.send_buf);
        let result = (|| {
            for (d, (dx, dy)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                let dst = self
                    .part
                    .cart
                    .neighbor(self.comm.rank(), *dx, *dy)
                    .expect("periodic topology always has neighbors");
                buf.clear();
                buf.resize(FRAME_HEADER, 0.0);
                self.pack_into(
                    Self::send_range(*dx, self.lnx, self.halo),
                    Self::send_range(*dy, self.lny, self.halo),
                    &mut buf,
                );
                seal_frame(&mut buf, self.epoch, self.step);
                self.obs_halo_msgs.inc();
                self.obs_halo_bytes
                    .add((buf.len() * std::mem::size_of::<f64>()) as u64);
                self.comm.send_buffered(dst, round_tag(round, d), &buf)?;
            }
            Ok(())
        })();
        self.send_buf = buf;
        result
    }

    /// Receive one halo frame for the current `(epoch, step)`, retrying with
    /// capped exponential backoff. Delayed messages are healed by waiting
    /// longer; duplicates and pre-rollback stragglers are discarded; dropped
    /// or corrupted messages exhaust the attempts and escalate as
    /// [`CommError::Timeout`] / [`CommError::Corrupt`] for the recovery layer.
    /// On success the full frame (header included) is left in `buf`; the
    /// payload is `buf[FRAME_HEADER..]`.
    fn recv_framed_into(&self, src: usize, tag: Tag, buf: &mut Vec<f64>) -> Result<(), CommError> {
        let retry = self.retry;
        let mut attempts: u32 = 0;
        let mut saw_corrupt = false;
        loop {
            match self
                .comm
                .recv_deadline_buffered(src, tag, retry.timeout_for(attempts), buf)
            {
                Ok(()) => {}
                Err(CommError::Timeout { .. }) => {
                    attempts += 1;
                    self.obs_retries.inc();
                    if attempts >= retry.max_attempts {
                        return if saw_corrupt {
                            self.obs_corrupt.inc();
                            Err(CommError::Corrupt { rank: src, tag })
                        } else {
                            self.obs_timeouts.inc();
                            Err(CommError::Timeout {
                                rank: src,
                                tag,
                                attempts,
                            })
                        };
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            match check_frame(buf, self.epoch, self.step) {
                FrameCheck::Valid => return Ok(()),
                // Stale frames are bounded by what was actually in flight, so
                // discarding them without charging an attempt cannot loop.
                FrameCheck::Stale => continue,
                FrameCheck::Corrupt => {
                    saw_corrupt = true;
                    attempts += 1;
                    self.obs_retries.inc();
                    if attempts >= retry.max_attempts {
                        self.obs_corrupt.inc();
                        return Err(CommError::Corrupt { rank: src, tag });
                    }
                }
                FrameCheck::Gap => {
                    self.obs_timeouts.inc();
                    return Err(CommError::Timeout {
                        rank: src,
                        tag,
                        attempts: attempts + 1,
                    });
                }
            }
        }
    }

    /// Receive all 8 halo strips of exchange round `round` into the current
    /// state's ring.
    fn recv_halos(&mut self, round: usize) -> Result<(), CommError> {
        let mut buf = std::mem::take(&mut self.recv_buf);
        let result = (|| {
            for (d, (dx, dy)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                let src_rank = self
                    .part
                    .cart
                    .neighbor(self.comm.rank(), *dx, *dy)
                    .expect("periodic topology always has neighbors");
                let t_recv = self.recorder.now();
                self.recv_framed_into(src_rank, round_tag(round, opposite_dir(d)), &mut buf)?;
                if let Some(t) = t_recv {
                    let ns = t.elapsed().as_nanos() as u64;
                    self.recorder.record_phase_ns(Phase::HaloExchange, ns);
                    self.obs_halo_us.record(ns as f64 / 1e3);
                }
                let rec = self.recorder.clone();
                let _unpack = rec.phase(Phase::HaloUnpack);
                self.unpack(
                    Self::recv_range(*dx, self.lnx, self.halo),
                    Self::recv_range(*dy, self.lny, self.halo),
                    &buf[FRAME_HEADER..],
                );
            }
            Ok(())
        })();
        self.recv_buf = buf;
        result
    }

    /// Complete a deep-halo exchange whose round-0 sends are already posted:
    /// receive round 0, then run any further rounds needed to fill a ring
    /// deeper than the shallowest subdomain.
    fn finish_exchange(&mut self) -> Result<(), CommError> {
        self.recv_halos(0)?;
        for round in 1..self.rounds {
            {
                let rec = self.recorder.clone();
                let _pack = rec.phase(Phase::HaloPack);
                self.post_sends(round)?;
            }
            self.recv_halos(round)?;
        }
        Ok(())
    }

    /// Fused stream+collide over the inner rectangle `2..lnx × 2..lny` (the
    /// cells that touch no halo), dispatched through the thread pool: y-slabs
    /// across threads, each one streaming sweep with the D3Q19 lane kernel on
    /// interior BGK run-length runs and the generic update on the gaps. Matches the serial generic path bit-for-bit on scalar-semantics
    /// lanes and within the FMA dispatch tolerance under AVX2.
    fn step_inner(&mut self) {
        if self.lnx <= 2 || self.lny <= 2 {
            self.last_class = KernelClass::Generic;
            return;
        }
        let (xr, yr) = self.inner_ranges();
        let collision = self.collision;
        let flags = &self.flags;
        let pool = &self.pool;
        let interior = &self.interior;
        let Storage::Ab(bufs) = &mut self.store else {
            unreachable!("step_inner is the AB path")
        };
        let (src, dst) = bufs.pair_mut();
        let class = pool.step_rect::<L, _>(flags, src, dst, &collision, xr, yr, Some(interior));
        self.last_class = class;
    }

    /// The inner rectangle: owned cells whose step-1 pulls and scatters touch
    /// no ghost cell (empty for degenerate subdomains).
    fn inner_ranges(&self) -> (Range<usize>, Range<usize>) {
        let h = self.halo;
        (h + 1..h + self.lnx - 1, h + 1..h + self.lny - 1)
    }

    /// The owned block expanded by `e` ghost layers on every side.
    fn expanded_ranges(&self, e: usize) -> (Range<usize>, Range<usize>) {
        let h = self.halo;
        debug_assert!(e < h, "expansion exceeds the ring");
        (h - e..h + self.lnx + e, h - e..h + self.lny + e)
    }

    /// Fused stream+collide over the boundary ring (the four strips adjacent
    /// to the halo, corners included exactly once) on the generic serial path.
    /// Together with [`DistributedSolver::step_inner`] this covers every
    /// owned cell exactly once, including degenerate subdomains (`lnx ≤ 2` or
    /// `lny ≤ 2`) where the inner rectangle is empty and the ring is the
    /// whole subdomain.
    fn step_ring(&mut self) {
        let (lnx, lny) = (self.lnx, self.lny);
        let h = self.halo;
        self.step_rect(h..h + lnx, h..h + 1); // south row
        if lny > 1 {
            self.step_rect(h..h + lnx, h + lny - 1..h + lny); // north row
        }
        if lny > 2 {
            self.step_rect(h..h + 1, h + 1..h + lny - 1); // west column
            if lnx > 1 {
                self.step_rect(h + lnx - 1..h + lnx, h + 1..h + lny - 1); // east column
            }
        }
    }

    /// Fused stream+collide over the rectangle `xr × yr` (local coords, full z).
    fn step_rect(&mut self, xr: Range<usize>, yr: Range<usize>) {
        let dims = self.flags.dims();
        let collision = self.collision;
        let flags = &self.flags;
        let Storage::Ab(bufs) = &mut self.store else {
            unreachable!("step_rect is the AB path")
        };
        let (src, dst) = bufs.pair_mut();
        let mut f = [0.0; MAX_Q];
        for y in yr {
            for x in xr.clone() {
                for z in 0..dims.nz {
                    let cell = dims.idx(x, y, z);
                    let kind = flags.kind(cell);
                    if kind.is_fluid() || kind.is_nebb() {
                        gather_pull::<L, _>(flags, src, x, y, z, &mut f[..L::Q]);
                        swlb_core::kernels::reconstruct_nebb::<L>(&mut f[..L::Q], kind);
                        collide::<L>(&mut f[..L::Q], &collision);
                        dst.store_cell(cell, &f[..L::Q]);
                    } else {
                        apply_non_fluid::<L, _>(flags, src, dst, x, y, z, kind);
                    }
                }
            }
        }
    }

    /// Fused AA stream+collide over the inner rectangle `2..lnx × 2..lny`
    /// (whose gathers *and scatters* stay within owned cells), dispatched
    /// through the thread pool exactly like the AB inner rectangle.
    fn aa_step_inner(&mut self) {
        if self.lnx <= 2 || self.lny <= 2 {
            self.last_class = KernelClass::Generic;
            return;
        }
        let (xr, yr) = self.inner_ranges();
        let collision = self.collision;
        let flags = &self.flags;
        let pool = &self.pool;
        let interior = &self.interior;
        let Storage::Aa { field, parity } = &mut self.store else {
            unreachable!("aa_step_inner is the AA path")
        };
        let class =
            pool.aa_step_rect::<L>(flags, field, &collision, *parity, xr, yr, Some(interior));
        self.last_class = class;
    }

    /// AA sweep over the boundary ring on the generic serial path. Odd-step
    /// ring cells gather from and scatter into the ghost ring; slot ownership
    /// (unique writer = unique reader per slot) makes the order against
    /// [`DistributedSolver::aa_step_inner`] irrelevant — the schedules stay
    /// bit-identical.
    fn aa_step_ring(&mut self) {
        let (lnx, lny) = (self.lnx, self.lny);
        let h = self.halo;
        self.aa_step_rect(h..h + lnx, h..h + 1); // south row
        if lny > 1 {
            self.aa_step_rect(h..h + lnx, h + lny - 1..h + lny); // north row
        }
        if lny > 2 {
            self.aa_step_rect(h..h + 1, h + 1..h + lny - 1); // west column
            if lnx > 1 {
                self.aa_step_rect(h + lnx - 1..h + lnx, h + 1..h + lny - 1); // east column
            }
        }
    }

    /// AA sweep over the rectangle `xr × yr` (local coords, full z).
    fn aa_step_rect(&mut self, xr: Range<usize>, yr: Range<usize>) {
        let collision = self.collision;
        let flags = &self.flags;
        let Storage::Aa { field, parity } = &mut self.store else {
            unreachable!("aa_step_rect is the AA path")
        };
        swlb_core::kernels::aa_step_rect::<L>(flags, field, &collision, *parity, xr, yr);
    }

    /// One pooled AA dispatch over every owned cell `1..=lnx × 1..=lny` — the
    /// even (cell-local) step flavor, which needs no halo traffic.
    fn aa_step_owned(&mut self) {
        let collision = self.collision;
        let flags = &self.flags;
        let pool = &self.pool;
        let interior = &self.interior;
        let h = self.halo;
        let (xr, yr) = (h..h + self.lnx, h..h + self.lny);
        let Storage::Aa { field, parity } = &mut self.store else {
            unreachable!("aa_step_owned is the AA path")
        };
        let class =
            pool.aa_step_rect::<L>(flags, field, &collision, *parity, xr, yr, Some(interior));
        self.last_class = class;
    }

    /// AA odd-step post-exchange: ship the ghost strips (which now hold this
    /// rank's scatters into the neighbors' cells) across, and merge the 8
    /// incoming strips into the owned boundary ring — but only the slots
    /// `(cell, q)` whose writer `cell − c_q` lies in the *sender's* region.
    /// Every slot has exactly one writer, so the merge predicates are disjoint
    /// across senders (wraparound self-sends included) and never clobber a
    /// locally-computed value.
    fn aa_post_exchange(&mut self) -> Result<(), CommError> {
        let mut buf = std::mem::take(&mut self.send_buf);
        let send_result = (|| {
            for (d, (dx, dy)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                let dst = self
                    .part
                    .cart
                    .neighbor(self.comm.rank(), *dx, *dy)
                    .expect("periodic topology always has neighbors");
                buf.clear();
                buf.resize(FRAME_HEADER, 0.0);
                self.pack_into(
                    Self::recv_range(*dx, self.lnx, self.halo),
                    Self::recv_range(*dy, self.lny, self.halo),
                    &mut buf,
                );
                seal_frame(&mut buf, self.epoch, self.step);
                self.obs_halo_msgs.inc();
                self.obs_halo_bytes
                    .add((buf.len() * std::mem::size_of::<f64>()) as u64);
                self.comm
                    .send_buffered(dst, AA_POST_TAG_BASE + d as u64, &buf)?;
            }
            Ok(())
        })();
        self.send_buf = buf;
        send_result?;

        let mut buf = std::mem::take(&mut self.recv_buf);
        let recv_result = (|| {
            for (d, (dx, dy)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                let src_rank = self
                    .part
                    .cart
                    .neighbor(self.comm.rank(), *dx, *dy)
                    .expect("periodic topology always has neighbors");
                let t_recv = self.recorder.now();
                self.recv_framed_into(
                    src_rank,
                    AA_POST_TAG_BASE + opposite_dir(d) as u64,
                    &mut buf,
                )?;
                if let Some(t) = t_recv {
                    let ns = t.elapsed().as_nanos() as u64;
                    self.recorder.record_phase_ns(Phase::HaloExchange, ns);
                    self.obs_halo_us.record(ns as f64 / 1e3);
                }
                self.aa_merge_strip(*dx, *dy, &buf[FRAME_HEADER..]);
            }
            Ok(())
        })();
        self.recv_buf = buf;
        recv_result
    }

    /// Merge one post-exchange strip from the neighbor in direction
    /// `(dx, dy)`. The payload mirrors my owned boundary strip
    /// `send_range(dx) × send_range(dy)` in halo wire order; a slot is taken
    /// iff its writer cell lies in the sender's region (beyond my owned block
    /// in exactly the directions the sender sits, in unwrapped local coords).
    fn aa_merge_strip(&mut self, dx: i32, dy: i32, data: &[f64]) {
        fn writer_in_sender(w: isize, d: i32, ln: usize, h: usize) -> bool {
            match d {
                1 => w >= (ln + h) as isize,
                -1 => w < h as isize,
                _ => w >= h as isize && w < (ln + h) as isize,
            }
        }
        let dims = self.flags.dims();
        let (lnx, lny, h) = (self.lnx, self.lny, self.halo);
        let dst = self.store.state_mut();
        let mut it = data.iter();
        for y in Self::send_range(dy, lny, h) {
            for x in Self::send_range(dx, lnx, h) {
                for z in 0..dims.nz {
                    let cell = dims.idx(x, y, z);
                    for q in 0..L::Q {
                        let v = *it.next().expect("post-exchange message too short");
                        let c = L::C[q];
                        let wx = x as isize - c[0] as isize;
                        let wy = y as isize - c[1] as isize;
                        if writer_in_sender(wx, dx, lnx, h) && writer_in_sender(wy, dy, lny, h) {
                            dst.set(cell, q, v);
                        }
                    }
                }
            }
        }
        assert!(it.next().is_none(), "post-exchange message too long");
    }

    /// One AB time step: pre-exchange, compute, buffer flip.
    fn step_ab(&mut self, rec: &Recorder) -> Result<(), CommError> {
        {
            let _pack = rec.phase(Phase::HaloPack);
            self.post_sends(0)?;
        }
        // Both schedules run the identical inner-rectangle (pooled, optimized)
        // and boundary-ring (generic) kernels; they differ only in *when* the
        // inner rectangle runs relative to the halo receives. That is what
        // keeps them bit-identical.
        match self.mode {
            ExchangeMode::Sequential => {
                self.recv_halos(0)?;
                {
                    let _cs = rec.phase(Phase::CollideStream);
                    self.step_inner();
                }
                let _bd = rec.phase(Phase::Boundary);
                self.step_ring();
            }
            ExchangeMode::OnTheFly => {
                // Inner cells touch no halo: compute them while messages fly.
                {
                    let _cs = rec.phase(Phase::CollideStream);
                    self.step_inner();
                }
                self.recv_halos(0)?;
                let _bd = rec.phase(Phase::Boundary);
                self.step_ring();
            }
        }
        let Storage::Ab(bufs) = &mut self.store else {
            unreachable!("step_ab is the AB path")
        };
        bufs.flip();
        Ok(())
    }

    /// One pooled AB dispatch over an arbitrary rectangle of the expanded
    /// local grid (blocked intra-block steps; ghost cells included).
    fn ab_dispatch_rect(&mut self, xr: Range<usize>, yr: Range<usize>) {
        let collision = self.collision;
        let flags = &self.flags;
        let pool = &self.pool;
        let interior = &self.interior;
        let Storage::Ab(bufs) = &mut self.store else {
            unreachable!("ab_dispatch_rect is the AB path")
        };
        let (src, dst) = bufs.pair_mut();
        let class = pool.step_rect::<L, _>(flags, src, dst, &collision, xr, yr, Some(interior));
        self.last_class = class;
    }

    /// One pooled AA dispatch over an arbitrary rectangle of the expanded
    /// local grid.
    fn aa_dispatch_rect(&mut self, xr: Range<usize>, yr: Range<usize>) {
        let collision = self.collision;
        let flags = &self.flags;
        let pool = &self.pool;
        let interior = &self.interior;
        let Storage::Aa { field, parity } = &mut self.store else {
            unreachable!("aa_dispatch_rect is the AA path")
        };
        let class =
            pool.aa_step_rect::<L>(flags, field, &collision, *parity, xr, yr, Some(interior));
        self.last_class = class;
    }

    /// The frame of the expansion-`e` rectangle left after the inner
    /// rectangle — four pooled strips (or the whole rectangle when the inner
    /// one is empty). Per-cell results are independent of how the region is
    /// cut into dispatch rectangles: z-runs are never split by an x/y cut, so
    /// this decomposition is exactly as bit-stable as one big dispatch.
    fn frame_rects(&self, e: usize) -> Vec<(Range<usize>, Range<usize>)> {
        let (xo, yo) = self.expanded_ranges(e);
        if self.lnx <= 2 || self.lny <= 2 {
            return vec![(xo, yo)];
        }
        let (xi, yi) = self.inner_ranges();
        vec![
            (xo.clone(), yo.start..yi.start),       // south strip
            (xo.clone(), yi.end..yo.end),           // north strip
            (xo.start..xi.start, yi.start..yi.end), // west strip
            (xi.end..xo.end, yi.start..yi.end),     // east strip
        ]
    }

    /// One intra-block AB step under temporal blocking. Phase 0 pays the deep
    /// exchange and computes the widest expanded rectangle; later phases
    /// shrink by one ghost layer each and need no communication.
    fn step_block_ab(&mut self, rec: &Recorder) -> Result<(), CommError> {
        let s = self.phase + 1; // intra-block step, 1-based
        let e = self.time_block - s; // ghost layers to recompute this step
        if s == 1 {
            {
                let _pack = rec.phase(Phase::HaloPack);
                self.post_sends(0)?;
            }
            // Same inner/frame split in both modes (so they stay
            // bit-identical); OnTheFly just overlaps the inner rectangle with
            // the receives.
            match self.mode {
                ExchangeMode::Sequential => {
                    self.finish_exchange()?;
                    {
                        let _cs = rec.phase(Phase::CollideStream);
                        self.step_inner();
                    }
                }
                ExchangeMode::OnTheFly => {
                    {
                        let _cs = rec.phase(Phase::CollideStream);
                        self.step_inner();
                    }
                    self.finish_exchange()?;
                }
            }
            let _bd = rec.phase(Phase::Boundary);
            for (xr, yr) in self.frame_rects(e) {
                self.ab_dispatch_rect(xr, yr);
            }
        } else {
            let _cs = rec.phase(Phase::CollideStream);
            let (xr, yr) = self.expanded_ranges(e);
            self.ab_dispatch_rect(xr, yr);
        }
        let Storage::Ab(bufs) = &mut self.store else {
            unreachable!("step_block_ab is the AB path")
        };
        bufs.flip();
        Ok(())
    }

    /// One intra-block AA step under temporal blocking. The odd flavor's
    /// ghost-bound scatters are recomputed by the neighbor inside its own
    /// ring, so blocked AA needs the phase-0 pre-exchange only — no
    /// post-exchange (see the module docs).
    fn step_block_aa(&mut self, rec: &Recorder) -> Result<(), CommError> {
        let s = self.phase + 1;
        let e = self.time_block - s;
        if s == 1 {
            debug_assert_eq!(
                self.store.parity(),
                Some(AaParity::Reversed),
                "an AA block starts on the odd flavor"
            );
            {
                let _pack = rec.phase(Phase::HaloPack);
                self.post_sends(0)?;
            }
            // AA updates in place, so the overlap is sound only for a
            // single-round exchange: with `rounds > 1` the round-1 re-pack
            // reads strips (`send_range` spans ghost layers when `h > ln`)
            // that the inner sweep's odd-flavor scatters have already
            // mutated, and the deep ring would carry post-step values.
            let overlap = self.mode == ExchangeMode::OnTheFly && self.rounds == 1;
            if overlap {
                {
                    let _cs = rec.phase(Phase::CollideStream);
                    self.aa_step_inner();
                }
                self.finish_exchange()?;
            } else {
                self.finish_exchange()?;
                {
                    let _cs = rec.phase(Phase::CollideStream);
                    self.aa_step_inner();
                }
            }
            let _bd = rec.phase(Phase::Boundary);
            for (xr, yr) in self.frame_rects(e) {
                self.aa_dispatch_rect(xr, yr);
            }
        } else {
            let _cs = rec.phase(Phase::CollideStream);
            let (xr, yr) = self.expanded_ranges(e);
            self.aa_dispatch_rect(xr, yr);
        }
        let Storage::Aa { parity, .. } = &mut self.store else {
            unreachable!("step_block_aa is the AA path")
        };
        *parity = parity.flip();
        Ok(())
    }

    /// One AA time step: odd flavor communicates (pre- and post-exchange),
    /// even flavor is entirely local; the parity flips afterwards.
    fn step_aa(&mut self, rec: &Recorder) -> Result<(), CommError> {
        let parity = self.store.parity().expect("step_aa is the AA path");
        match parity {
            AaParity::Reversed => {
                {
                    let _pack = rec.phase(Phase::HaloPack);
                    self.post_sends(0)?;
                }
                match self.mode {
                    ExchangeMode::Sequential => {
                        self.recv_halos(0)?;
                        {
                            let _cs = rec.phase(Phase::CollideStream);
                            self.aa_step_inner();
                        }
                        let _bd = rec.phase(Phase::Boundary);
                        self.aa_step_ring();
                    }
                    ExchangeMode::OnTheFly => {
                        // The inner rectangle neither gathers from nor
                        // scatters into the ghost ring: overlap it with the
                        // pre-exchange receives.
                        {
                            let _cs = rec.phase(Phase::CollideStream);
                            self.aa_step_inner();
                        }
                        self.recv_halos(0)?;
                        let _bd = rec.phase(Phase::Boundary);
                        self.aa_step_ring();
                    }
                }
                self.aa_post_exchange()?;
            }
            AaParity::Streamed => {
                let _cs = rec.phase(Phase::CollideStream);
                self.aa_step_owned();
            }
        }
        let Storage::Aa { parity, .. } = &mut self.store else {
            unreachable!("step_aa is the AA path")
        };
        *parity = parity.flip();
        Ok(())
    }

    /// Advance one time step.
    pub fn step(&mut self) -> Result<(), CommError> {
        // Cheap handle clone so phase guards don't hold a borrow of `self`.
        let rec = self.recorder.clone();
        let t_step = rec.now();
        self.ensure_interior();
        self.comm.notify_step(self.step);
        let blocked = self.time_block > 1;
        match (self.store.scheme(), blocked) {
            (StorageScheme::Ab, false) => self.step_ab(&rec)?,
            (StorageScheme::Aa, false) => self.step_aa(&rec)?,
            (StorageScheme::Ab, true) => self.step_block_ab(&rec)?,
            (StorageScheme::Aa, true) => self.step_block_aa(&rec)?,
        }
        self.phase = (self.phase + 1) % self.time_block;
        self.step += 1;
        if let Some(t) = t_step {
            let ns = (t.elapsed().as_nanos() as u64).max(1);
            self.obs_steps.inc();
            // Per-rank MLUPS = interior fluid cells · 1000 / step-ns.
            self.obs_mlups.set(self.active as f64 * 1e3 / ns as f64);
            self.obs_kernel_class.set(self.last_class.as_gauge());
        }
        self.recorder.maybe_flush(self.step);
        Ok(())
    }

    /// Advance `n` steps, surfacing any halo failure as the workspace error.
    pub fn run(&mut self, n: u64) -> Result<(), SwlbError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// The canonical (AB-ordered post-collision) view of the local grid:
    /// borrowed zero-copy under AB, materialized under AA. Owned cells are
    /// always correct; ghost-ring values are only meaningful under AB and AA
    /// `Reversed` (under `Streamed` canonicalizing a ghost would need the
    /// neighbor's data).
    pub fn local_canonical(&self) -> std::borrow::Cow<'_, SoaField<L>> {
        use std::borrow::Cow;
        match &self.store {
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

    /// Local macroscopic snapshot (includes the halo ring; interior is
    /// `1..=lnx × 1..=lny`).
    pub fn local_macroscopic(&self) -> MacroFields {
        MacroFields::compute::<L, _>(&self.flags, self.local_canonical().as_ref())
    }

    /// Current local raw state (with halo ring). Under AB this is the source
    /// buffer; under AA the slot meaning depends on
    /// [`DistributedSolver::parity`] — use
    /// [`DistributedSolver::local_canonical`] for a scheme-portable view.
    pub fn local_populations(&self) -> &SoaField<L> {
        self.store.state()
    }

    /// Mutable local raw state (restart, fault injection in tests).
    pub fn local_populations_mut(&mut self) -> &mut SoaField<L> {
        self.store.state_mut()
    }

    /// This rank's fluid mass over interior cells (no communication). A NaN or
    /// Inf anywhere in the interior poisons the sum, which is what lets the
    /// recovery layer detect divergence from one reduced scalar.
    ///
    /// Scheme-invariant: under AA `Reversed` the slots of a cell are a
    /// permutation of its canonical values, and under `Streamed` the cell's
    /// canonical values sit at `(cell + c_q, q)` — which for owned cells never
    /// leaves the local grid.
    pub fn local_mass(&self) -> Scalar {
        let dims = self.flags.dims();
        let src = self.store.state();
        let streamed = self.store.parity() == Some(AaParity::Streamed);
        let h = self.halo;
        let mut mass = 0.0;
        for y in h..h + self.lny {
            for x in h..h + self.lnx {
                for z in 0..dims.nz {
                    let cell = dims.idx(x, y, z);
                    if self.flags.kind(cell).is_fluid() {
                        for q in 0..L::Q {
                            let slot = if streamed {
                                let c = L::C[q];
                                let [a, b, d] = dims.neighbor_periodic(x, y, z, [c[0], c[1], c[2]]);
                                dims.idx(a, b, d)
                            } else {
                                cell
                            };
                            mass += src.get(slot, q);
                        }
                    }
                }
            }
        }
        mass
    }

    /// Global fluid mass (allreduce over interior cells).
    pub fn global_mass(&self) -> Result<Scalar, CommError> {
        Ok(self.comm.allreduce_sum(&[self.local_mass()])?[0])
    }

    /// Scatter a global population field from rank 0 to every rank's interior
    /// (the restart path: inverse of [`DistributedSolver::gather_populations`]).
    /// Ranks other than 0 may pass `None`.
    pub fn scatter_populations(
        &mut self,
        global_field: Option<&SoaField<L>>,
        step: u64,
    ) -> Result<(), CommError> {
        const SCATTER_TAG: u64 = 40;
        let global = self.part.global;
        if self.comm.rank() == 0 {
            let field = global_field.expect("rank 0 must supply the global field");
            assert_eq!(field.dims(), global, "checkpoint dims mismatch");
            for rank in (0..self.comm.size()).rev() {
                let ((x0, lnx), (y0, lny)) = self.part.owned(rank);
                let mut payload = Vec::with_capacity(lnx * lny * global.nz * L::Q);
                for y in 0..lny {
                    for x in 0..lnx {
                        for z in 0..global.nz {
                            let cell = global.idx(x0 + x, y0 + y, z);
                            for q in 0..L::Q {
                                payload.push(field.get(cell, q));
                            }
                        }
                    }
                }
                if rank == 0 {
                    self.unpack(
                        self.halo..self.halo + self.lnx,
                        self.halo..self.halo + self.lny,
                        &payload,
                    );
                } else {
                    self.comm.send(rank, SCATTER_TAG, payload)?;
                }
            }
        } else {
            let payload = self.comm.recv(0, SCATTER_TAG)?;
            self.unpack(
                self.halo..self.halo + self.lnx,
                self.halo..self.halo + self.lny,
                &payload,
            );
        }
        // The payload is canonical (AB-ordered); convert to the scheme's raw
        // representation. Restarting AA on the odd flavor from a canonical
        // state is exactly the AB continuation; the stale ghost ring is
        // overwritten by the pre-exchange before anything reads it.
        if let Storage::Aa { field, parity } = &mut self.store {
            reverse_planes::<L>(field);
            *parity = AaParity::Reversed;
        }
        self.step = step;
        self.phase = 0;
        Ok(())
    }

    /// Gather the full global *canonical* population field on rank 0 (`None`
    /// elsewhere) — scheme-portable: AA ranks canonicalize their owned block
    /// before packing.
    pub fn gather_populations(&self) -> Result<Option<SoaField<L>>, CommError> {
        let mut payload = Vec::new();
        Self::pack_strip(
            self.local_canonical().as_ref(),
            self.halo..self.halo + self.lnx,
            self.halo..self.halo + self.lny,
            &mut payload,
        );
        let gathered = self.comm.gather_to_root(&payload)?;
        if self.comm.rank() != 0 {
            return Ok(None);
        }
        let global = self.part.global;
        let mut field = SoaField::<L>::new(global);
        for (rank, data) in gathered.iter().enumerate() {
            let ((x0, lnx), (y0, lny)) = self.part.owned(rank);
            let mut it = data.iter();
            for y in 0..lny {
                for x in 0..lnx {
                    for z in 0..global.nz {
                        let cell = global.idx(x0 + x, y0 + y, z);
                        for q in 0..L::Q {
                            field.set(cell, q, *it.next().expect("gather payload short"));
                        }
                    }
                }
            }
        }
        Ok(Some(field))
    }

    /// Capture a rank-count-independent (v3) checkpoint on rank 0 (`None`
    /// elsewhere): each rank packs its owned interior's *canonical*
    /// populations in chunk wire order (y → x → z → q — the same order the
    /// scatter/gather paths use), and rank 0 tags each payload with its
    /// global rectangle. Unlike [`DistributedSolver::gather_populations`]
    /// nothing is re-assembled into a whole-domain field — the chunks stay
    /// per-source-rank, which is what lets a later resume re-shard them onto
    /// any layout.
    pub fn capture_chunked(&self) -> Result<Option<ChunkedCheckpoint>, CommError> {
        let mut payload = Vec::new();
        Self::pack_strip(
            self.local_canonical().as_ref(),
            self.halo..self.halo + self.lnx,
            self.halo..self.halo + self.lny,
            &mut payload,
        );
        let gathered = self.comm.gather_to_root(&payload)?;
        if self.comm.rank() != 0 {
            return Ok(None);
        }
        let global = self.part.global;
        let chunks = gathered
            .into_iter()
            .enumerate()
            .map(|(rank, data)| {
                let ((x0, lnx), (y0, lny)) = self.part.owned(rank);
                swlb_io::CheckpointChunk {
                    meta: swlb_io::ChunkMeta {
                        x0: x0 as u32,
                        y0: y0 as u32,
                        lnx: lnx as u32,
                        lny: lny as u32,
                    },
                    data,
                }
            })
            .collect();
        Ok(Some(ChunkedCheckpoint {
            step: self.step,
            dims: (global.nx as u32, global.ny as u32, global.nz as u32),
            q: L::Q as u32,
            scheme: match self.store.scheme() {
                StorageScheme::Ab => swlb_io::checkpoint::SCHEME_AB,
                StorageScheme::Aa => swlb_io::checkpoint::SCHEME_AA,
            },
            parity: 0,
            chunks,
        }))
    }

    /// Restore from a rank-count-independent (v3) checkpoint — the elastic
    /// resume path. Rank 0 holds the checkpoint and extracts each
    /// destination rank's owned rectangle from whichever source chunks
    /// overlap it, so the producing partition (its rank count, its
    /// `px × py` shape, even a serial single-chunk capture) never needs to
    /// match the current one. Payloads are canonical; AA ranks convert to
    /// their raw representation exactly as the scatter path does. Ranks
    /// other than 0 pass `None`.
    pub fn restore_chunked(&mut self, ck: Option<&ChunkedCheckpoint>) -> Result<(), SwlbError> {
        const RESHARD_TAG: u64 = 41;
        let global = self.part.global;
        let step = if self.comm.rank() == 0 {
            let ck = ck.expect("rank 0 must supply the checkpoint");
            let want = (global.nx as u32, global.ny as u32, global.nz as u32);
            if ck.dims != want || ck.q != L::Q as u32 {
                return Err(SwlbError::CorruptData(format!(
                    "checkpoint is {}x{}x{}x{}, solver needs {}x{}x{}x{}",
                    ck.dims.0,
                    ck.dims.1,
                    ck.dims.2,
                    ck.q,
                    want.0,
                    want.1,
                    want.2,
                    L::Q
                )));
            }
            self.comm
                .broadcast(&[ck.step as f64])
                .map_err(SwlbError::from)?;
            for rank in (0..self.comm.size()).rev() {
                let ((x0, lnx), (y0, lny)) = self.part.owned(rank);
                let payload = ck
                    .extract_rect(x0, y0, lnx, lny)
                    .map_err(swlb_obs::SwlbError::from)?;
                if rank == 0 {
                    self.unpack(
                        self.halo..self.halo + self.lnx,
                        self.halo..self.halo + self.lny,
                        &payload,
                    );
                } else {
                    self.comm
                        .send(rank, RESHARD_TAG, payload)
                        .map_err(SwlbError::from)?;
                }
            }
            ck.step
        } else {
            let step = self.comm.broadcast(&[0.0]).map_err(SwlbError::from)?[0] as u64;
            let payload = self.comm.recv(0, RESHARD_TAG).map_err(SwlbError::from)?;
            self.unpack(
                self.halo..self.halo + self.lnx,
                self.halo..self.halo + self.lny,
                &payload,
            );
            step
        };
        // Same scheme conversion as `scatter_populations`: the payload is
        // canonical, AA restarts on the odd flavor.
        if let Storage::Aa { field, parity } = &mut self.store {
            reverse_planes::<L>(field);
            *parity = AaParity::Reversed;
        }
        self.step = step;
        self.phase = 0;
        Ok(())
    }
}

/// Wrap a legacy (v1/v2) whole-domain checkpoint as a single-chunk v3
/// checkpoint: decode the SoA payload into a field and re-pack it in chunk
/// wire order (y → x → z → q). This is what lets pre-v3 files flow through
/// the re-sharding [`DistributedSolver::restore_chunked`] path onto any
/// destination layout.
pub fn chunked_from_legacy<L: Lattice>(
    ck: &swlb_io::Checkpoint,
) -> Result<ChunkedCheckpoint, SwlbError> {
    let dims = GridDims::new(ck.dims.0 as usize, ck.dims.1 as usize, ck.dims.2 as usize);
    if ck.q != L::Q as u32 || ck.data.len() != dims.cells() * L::Q {
        return Err(SwlbError::CorruptData(format!(
            "legacy checkpoint is {}x{}x{}x{} ({} values), lattice needs q = {}",
            ck.dims.0,
            ck.dims.1,
            ck.dims.2,
            ck.q,
            ck.data.len(),
            L::Q
        )));
    }
    let mut field = SoaField::<L>::new(dims);
    field.raw_mut().copy_from_slice(&ck.data);
    let mut data = Vec::with_capacity(ck.data.len());
    for y in 0..dims.ny {
        for x in 0..dims.nx {
            for z in 0..dims.nz {
                let cell = dims.idx(x, y, z);
                for q in 0..L::Q {
                    data.push(field.get(cell, q));
                }
            }
        }
    }
    Ok(ChunkedCheckpoint::single_chunk(
        ck.step, ck.dims, ck.q, ck.scheme, data,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swlb_comm::World;
    use swlb_core::collision::BgkParams;
    use swlb_core::kernels::fused_step;
    use swlb_core::lattice::{D2Q9, D3Q19};

    fn reference_run<L: Lattice>(
        global: GridDims,
        flags: &FlagField,
        coll: &CollisionKind,
        steps: u64,
        init: impl Fn(usize, usize, usize) -> (Scalar, [Scalar; 3]),
    ) -> SoaField<L> {
        let mut src = SoaField::<L>::new(global);
        swlb_core::kernels::initialize_with::<L, _>(flags, &mut src, init);
        let mut dst = SoaField::<L>::new(global);
        for _ in 0..steps {
            fused_step(flags, &src, &mut dst, coll);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }

    fn check_distributed_matches_reference<L: Lattice>(
        global: GridDims,
        flags: FlagField,
        nranks: usize,
        mode: ExchangeMode,
        steps: u64,
    ) {
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<L>(global, &flags, &coll, steps, init);

        let flags_ref = &flags;
        let out = World::new(nranks).run(|comm| {
            let mut s = DistributedSolver::<L>::builder(&comm, global, flags_ref, coll)
                .exchange(mode)
                .build();
            s.initialize_with(init);
            s.run(steps).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        // Exact when dispatch has scalar semantics; under auto-selected AVX2
        // the fused multiply-adds differ from the serial reference by rounding.
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            for q in 0..L::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!(
                    (r - g).abs() < tol,
                    "cell {cell} q {q}: reference {r}, distributed {g}"
                );
            }
        }
    }

    /// Run the same problem distributed under AA-pattern storage and compare
    /// the gathered canonical field against the serial AB reference on every
    /// fluid cell (solid cells hold scheme-dependent mailbox leftovers).
    fn check_aa_distributed_matches_reference<L: Lattice>(
        global: GridDims,
        flags: FlagField,
        nranks: usize,
        mode: ExchangeMode,
        steps: u64,
    ) {
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<L>(global, &flags, &coll, steps, init);

        let flags_ref = &flags;
        let out = World::new(nranks).run(|comm| {
            let mut s = DistributedSolver::<L>::builder(&comm, global, flags_ref, coll)
                .exchange(mode)
                .storage(StorageScheme::Aa)
                .build();
            s.initialize_with(init);
            s.run(steps).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            if !flags.kind(cell).is_fluid() {
                continue;
            }
            for q in 0..L::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!(
                    (r - g).abs() < tol,
                    "cell {cell} q {q}: reference {r}, AA-distributed {g}"
                );
            }
        }
    }

    #[test]
    fn aa_single_rank_matches_reference_both_parities() {
        // 5 steps end on the Streamed parity (gather canonicalizes in place),
        // 6 on Reversed (gather un-reverses); both must match AB.
        let global = GridDims::new(6, 6, 3);
        for steps in [5, 6] {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            check_aa_distributed_matches_reference::<D3Q19>(
                global,
                flags,
                1,
                ExchangeMode::Sequential,
                steps,
            );
        }
    }

    #[test]
    fn aa_four_ranks_matches_reference_3d_both_modes() {
        let global = GridDims::new(8, 8, 4);
        for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
            check_aa_distributed_matches_reference::<D3Q19>(global, flags, 4, mode, 5);
        }
    }

    #[test]
    fn aa_six_ranks_periodic_2d_matches_reference() {
        let global = GridDims::new2d(12, 9);
        let flags = FlagField::new(global);
        check_aa_distributed_matches_reference::<D2Q9>(global, flags, 6, ExchangeMode::OnTheFly, 5);
    }

    #[test]
    fn aa_two_ranks_wraparound_neighbors() {
        // px = 2: the post-exchange self-send must route wrapped ghost
        // scatters back into the correct owned strips.
        let global = GridDims::new2d(8, 4);
        let flags = FlagField::new(global);
        check_aa_distributed_matches_reference::<D2Q9>(
            global,
            flags,
            2,
            ExchangeMode::Sequential,
            5,
        );
    }

    #[test]
    fn aa_degenerate_subdomains_match_reference() {
        // 6 ranks on 6×4 leave subdomains with lnx ≤ 2: the inner rectangle
        // is empty and the whole odd step runs on the ring path.
        let global = GridDims::new2d(6, 4);
        let flags = FlagField::new(global);
        check_aa_distributed_matches_reference::<D2Q9>(global, flags, 6, ExchangeMode::OnTheFly, 6);
    }

    #[test]
    fn aa_uneven_partition_matches_reference() {
        let global = GridDims::new(10, 7, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_aa_distributed_matches_reference::<D3Q19>(
            global,
            flags,
            3,
            ExchangeMode::Sequential,
            4,
        );
    }

    #[test]
    fn aa_modes_are_bit_identical() {
        let global = GridDims::new(9, 8, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.06, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let flags_ref = &flags;
        let run = |mode: ExchangeMode| {
            World::new(4).run(|comm| {
                let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                    .exchange(mode)
                    .storage(StorageScheme::Aa)
                    .build();
                s.initialize_uniform(1.0, [0.0; 3]);
                s.run(5).unwrap();
                s.gather_populations().unwrap()
            })
        };
        let a = run(ExchangeMode::Sequential);
        let b = run(ExchangeMode::OnTheFly);
        let (fa, fb) = (a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
        for cell in 0..global.cells() {
            for q in 0..19 {
                assert_eq!(fa.get(cell, q), fb.get(cell, q), "cell {cell} q {q}");
            }
        }
    }

    #[test]
    fn aa_global_mass_conserved_at_both_parities() {
        let global = GridDims::new2d(12, 12);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));
        let flags_ref = &flags;
        let masses = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .storage(StorageScheme::Aa)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let m0 = s.global_mass().unwrap();
            s.run(7).unwrap(); // odd count: mass measured at Streamed parity
            assert_eq!(s.parity(), Some(AaParity::Streamed));
            let m1 = s.global_mass().unwrap();
            s.run(1).unwrap(); // and again at Reversed
            assert_eq!(s.parity(), Some(AaParity::Reversed));
            let m2 = s.global_mass().unwrap();
            (m0, m1, m2)
        });
        for (m0, m1, m2) in masses {
            assert!((m0 - m1).abs() / m0 < 1e-12, "mass drift {m0} → {m1}");
            assert!((m0 - m2).abs() / m0 < 1e-12, "mass drift {m0} → {m2}");
        }
    }

    #[test]
    fn aa_rejects_open_boundaries_with_typed_error() {
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        let errs = World::new(2).run(|comm| {
            DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .storage(StorageScheme::Aa)
                .try_build()
                .err()
        });
        for e in errs {
            match e {
                Some(SwlbError::InvalidConfig(msg)) => {
                    assert!(msg.contains("AA-pattern"), "unexpected message: {msg}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_rank_matches_reference() {
        let global = GridDims::new(6, 6, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_distributed_matches_reference::<D3Q19>(global, flags, 1, ExchangeMode::Sequential, 4);
    }

    #[test]
    fn four_ranks_sequential_matches_reference_3d() {
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
        check_distributed_matches_reference::<D3Q19>(global, flags, 4, ExchangeMode::Sequential, 5);
    }

    #[test]
    fn four_ranks_on_the_fly_matches_reference_3d() {
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
        check_distributed_matches_reference::<D3Q19>(global, flags, 4, ExchangeMode::OnTheFly, 5);
    }

    #[test]
    fn six_ranks_periodic_2d_matches_reference() {
        let global = GridDims::new2d(12, 9);
        let flags = FlagField::new(global);
        check_distributed_matches_reference::<D2Q9>(global, flags, 6, ExchangeMode::OnTheFly, 6);
    }

    #[test]
    fn uneven_partition_matches_reference() {
        // 10 is not divisible by 3: block sizes 4/3/3 exercise the uneven path.
        let global = GridDims::new(10, 7, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_distributed_matches_reference::<D3Q19>(global, flags, 3, ExchangeMode::Sequential, 4);
    }

    #[test]
    fn two_ranks_with_wraparound_neighbors() {
        // px = 2: east and west neighbor are the same rank; periodic exchange
        // must still route the strips to the correct halos.
        let global = GridDims::new2d(8, 4);
        let flags = FlagField::new(global);
        check_distributed_matches_reference::<D2Q9>(global, flags, 2, ExchangeMode::Sequential, 5);
    }

    #[test]
    fn sequential_and_on_the_fly_are_bit_identical() {
        let global = GridDims::new(9, 8, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.06, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let flags_ref = &flags;

        let run = |mode: ExchangeMode| {
            World::new(4).run(|comm| {
                let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                    .exchange(mode)
                    .build();
                s.initialize_uniform(1.0, [0.0; 3]);
                s.run(6).unwrap();
                s.gather_populations().unwrap()
            })
        };
        let a = run(ExchangeMode::Sequential);
        let b = run(ExchangeMode::OnTheFly);
        let (fa, fb) = (a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
        for cell in 0..global.cells() {
            for q in 0..19 {
                assert_eq!(fa.get(cell, q), fb.get(cell, q), "cell {cell} q {q}");
            }
        }
    }

    #[test]
    fn global_mass_is_conserved_across_ranks() {
        let global = GridDims::new2d(12, 12);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));
        let flags_ref = &flags;
        let masses = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let m0 = s.global_mass().unwrap();
            s.run(20).unwrap();
            let m1 = s.global_mass().unwrap();
            (m0, m1)
        });
        for (m0, m1) in masses {
            assert!((m0 - m1).abs() / m0 < 1e-12, "mass drift {m0} → {m1}");
        }
    }

    #[test]
    fn flag_mutation_rebuilds_interior_index_and_reports_kernel_class() {
        let global = GridDims::new(10, 10, 12);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        let out = World::new(1).run(|comm| {
            let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.step().unwrap();
            let class_before = s.last_kernel_class();
            let runs_before = s.interior.runs().run_count();
            // Carve an obstacle out of the inner rectangle through the public
            // mutator; the next step must pick it up (more runs, fewer active
            // cells) without an explicit rebuild call.
            // Mid-pencil in z: the excluded 1-neighborhood leaves interior
            // cells on both sides, so the pencil splits into two runs.
            s.local_flags_mut()
                .set(5, 5, 5, swlb_core::boundary::NodeKind::Wall);
            let active_before = s.active;
            s.step().unwrap();
            (
                class_before,
                runs_before,
                s.interior.runs().run_count(),
                active_before,
                s.active,
                s.last_kernel_class(),
            )
        });
        let (class_before, runs_before, runs_after, active_before, active_after, class_after) =
            out[0];
        assert_eq!(class_before, swlb_core::simd::selected_kernel_class());
        assert_ne!(class_before, KernelClass::Generic);
        assert_eq!(class_after, class_before);
        assert!(runs_after > runs_before, "wall must split a z-run");
        assert_eq!(active_after, active_before - 1);
    }

    /// Distributed depth-k run vs the serial per-step reference. Exact on
    /// scalar-semantics lanes; the dispatch tolerance absorbs fast/generic
    /// path differences at the redundantly recomputed ghost borders.
    fn check_blocked_matches_reference<L: Lattice>(
        global: GridDims,
        flags: FlagField,
        nranks: usize,
        mode: ExchangeMode,
        scheme: StorageScheme,
        time_block: usize,
        steps: u64,
    ) {
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<L>(global, &flags, &coll, steps, init);

        let flags_ref = &flags;
        let out = World::new(nranks).run(|comm| {
            let mut s = DistributedSolver::<L>::builder(&comm, global, flags_ref, coll)
                .exchange(mode)
                .storage(scheme)
                .time_block(time_block)
                .build();
            s.initialize_with(init);
            s.run(steps).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            if scheme == StorageScheme::Aa && !flags.kind(cell).is_fluid() {
                continue;
            }
            for q in 0..L::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!(
                    (r - g).abs() < tol,
                    "k={time_block} {scheme:?} {mode:?} cell {cell} q {q}: \
                     reference {r}, blocked {g}"
                );
            }
        }
    }

    #[test]
    fn blocked_ab_matches_reference_both_modes() {
        let global = GridDims::new(8, 8, 4);
        for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
            for k in [2usize, 4] {
                let mut flags = FlagField::new(global);
                flags.set_box_walls();
                flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
                check_blocked_matches_reference::<D3Q19>(
                    global,
                    flags,
                    4,
                    mode,
                    StorageScheme::Ab,
                    k,
                    8,
                );
            }
        }
    }

    #[test]
    fn blocked_aa_matches_reference_both_modes() {
        let global = GridDims::new(8, 8, 4);
        for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
            for k in [2usize, 4] {
                let mut flags = FlagField::new(global);
                flags.set_box_walls();
                flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
                check_blocked_matches_reference::<D3Q19>(
                    global,
                    flags,
                    4,
                    mode,
                    StorageScheme::Aa,
                    k,
                    8,
                );
            }
        }
    }

    #[test]
    fn blocked_run_may_end_mid_block() {
        // Owned cells are valid after every intra-block step, so a step count
        // that is not a multiple of k still gathers the exact state.
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_blocked_matches_reference::<D3Q19>(
            global,
            flags,
            4,
            ExchangeMode::OnTheFly,
            StorageScheme::Ab,
            4,
            7,
        );
    }

    #[test]
    fn blocked_degenerate_subdomains_use_multiple_rounds() {
        // 6 ranks on 6x4: every subdomain is 2x2, so an h=4 ring needs
        // R = ceil(4/2) = 2 exchange rounds per block.
        let global = GridDims::new(6, 4, 3);
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            check_blocked_matches_reference::<D3Q19>(
                global,
                flags,
                6,
                ExchangeMode::Sequential,
                scheme,
                4,
                8,
            );
        }
    }

    #[test]
    fn blocked_2d_periodic_matches_reference() {
        // Fully periodic D2Q9 with wraparound neighbors exercises the
        // deep-ring ghost sampling across the domain edge.
        let global = GridDims::new2d(9, 8);
        check_blocked_matches_reference::<D2Q9>(
            global,
            FlagField::new(global),
            2,
            ExchangeMode::OnTheFly,
            StorageScheme::Ab,
            2,
            6,
        );
    }

    #[test]
    fn blocked_halo_messages_drop_by_exactly_k() {
        // 8 sends per exchange; blocking exchanges once per k steps, so the
        // per-step message count falls by exactly k for both schemes.
        let global = GridDims::new(8, 8, 4);
        let steps = 8u64;
        let count = |scheme: StorageScheme, k: usize| -> u64 {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            let flags_ref = &flags;
            let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
            let out = World::new(4).run(|comm| {
                let rec = Recorder::enabled();
                let msgs = rec.counter("halo.messages");
                let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                    .storage(scheme)
                    .time_block(k)
                    .recorder(rec)
                    .build();
                s.initialize_uniform(1.0, [0.0; 3]);
                s.run(steps).unwrap();
                msgs.get()
            });
            out.iter().sum()
        };
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            let base = count(scheme, 1);
            for k in [2u64, 4] {
                let blocked = count(scheme, k as usize);
                assert_eq!(
                    blocked * k,
                    base,
                    "{scheme:?}: k={k} must cut messages by exactly {k}x \
                     ({base} -> {blocked})"
                );
            }
        }
    }

    #[test]
    fn blocked_builder_rejects_odd_aa_depth() {
        let global = GridDims::new(8, 8, 4);
        let flags = FlagField::new(global);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        World::new(1).run(|comm| {
            let err = DistributedSolver::<D3Q19>::builder(&comm, global, &flags, coll)
                .storage(StorageScheme::Aa)
                .time_block(3)
                .try_build()
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
            let err = DistributedSolver::<D3Q19>::builder(&comm, global, &flags, coll)
                .time_block(0)
                .try_build()
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        });
    }

    #[test]
    fn blocked_restore_resumes_at_block_boundary() {
        // Capture mid-run, restore into a blocked solver, continue: the
        // restore resets the intra-block phase, so the continuation
        // re-exchanges before reading ghosts and still matches the reference.
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<D3Q19>(global, &flags, &coll, 10, init);
        let flags_ref = &flags;
        let out = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .time_block(2)
                .build();
            s.initialize_with(init);
            s.run(6).unwrap();
            assert_eq!(s.block_phase(), 0, "6 steps = 3 whole blocks");
            let ck = s.capture_chunked().unwrap();
            // Wreck the live state, then roll back to the checkpoint.
            s.local_populations_mut().raw_mut().fill(7.0);
            s.bump_epoch();
            s.restore_chunked(ck.as_ref()).unwrap();
            s.run(4).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            for q in 0..D3Q19::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!((r - g).abs() < tol, "cell {cell} q {q}: {r} vs {g}");
            }
        }
    }
}
