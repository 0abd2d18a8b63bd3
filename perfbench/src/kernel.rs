//! The two kernel-bound workloads: `cavity-ab` (pooled serial solver, AB
//! storage) and `canopy-ranks` (2-rank distributed solver, AA storage with
//! temporal blocking over a seeded urban canopy).

use std::time::{Duration, Instant};

use swlb_comm::World;
use swlb_core::boundary::NodeKind;
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::fused_step;
use swlb_core::lattice::{Lattice, D3Q19};
use swlb_core::layout::{PopField, SoaField, StorageScheme};
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::dispatch_tolerance;
use swlb_core::solver::Solver;
use swlb_mesh::urban::{UrbanParams, UrbanScene};
use swlb_obs::{Phase, Recorder};
use swlb_sim::engine::{DistributedSolver, ExchangeMode};

use crate::host;
use crate::stats::median;
use crate::{Ctx, Report, Rng};

/// Edge of the cubic grid. One D3Q19 population buffer is 208³·19·8 B =
/// 1.37 GB, more than four times a 300 MiB last-level cache.
pub const GRID: usize = 208;
/// Edge of the reduced grids the equivalence checks run on.
const SMALL: usize = 40;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Pool threads `cavity-ab` steps on. On the 2-vCPU reference host an
/// `nproc`-thread pool waits at every step for whichever thread another
/// process preempted: the per-step tail spread by 0.29–0.31 (IQR ÷ median)
/// between runs, against 0.04 at one thread. The traced run still measures
/// the `nproc` pool for `core.parallel.speedup`.
const CAVITY_THREADS: usize = 1;
/// Relative mass drift the physics suite tolerates.
const MASS_TOL: f64 = 1e-10;
/// Canopy: street-grid pitch and the storage/blocking of the run.
const CANOPY_PITCH: usize = 24;
const CANOPY_K: usize = 2;
const RANKS: usize = 2;

/// Bytes per lattice update of the traffic model in docs/PERFORMANCE.md
/// (computed, not measured): AB reads and writes each of the `q`
/// populations once and write-allocates the destination (3 · 8 B each,
/// 456 B for D3Q19), AA reads and writes them in place (2 · 8 B, 304 B);
/// temporal blocking of depth `k` divides either by `k`.
pub fn bytes_per_lup(q: u32, storage: StorageScheme, k: usize) -> f64 {
    let per_population = match storage {
        StorageScheme::Ab => 24.0,
        StorageScheme::Aa => 16.0,
    };
    per_population * q as f64 / k as f64
}

/// Nanoseconds of all phases the recorder has timed so far, and of the
/// collide-stream phase alone.
fn phase_ns(rec: &Recorder) -> (u64, u64) {
    (
        swlb_obs::PHASES.iter().map(|&p| rec.phase_ns(p)).sum(),
        rec.phase_ns(Phase::CollideStream),
    )
}

/// Lid speed and relaxation time drawn from the seed (the grid is fixed).
fn physics(rng: &mut Rng) -> (f64, f64) {
    (0.56 + 0.08 * rng.unit(), 0.04 + 0.02 * rng.unit())
}

fn cube(n: usize) -> GridDims {
    GridDims::new(n, n, n)
}

fn cavity_flags(dims: GridDims, lid: f64) -> FlagField {
    let mut flags = FlagField::new(dims);
    flags.set_box_walls();
    flags.paint_lid([lid, 0.0, 0.0]);
    flags
}

fn build_cavity(
    dims: GridDims,
    tau: f64,
    lid: f64,
    threads: usize,
    recorder: Recorder,
) -> Solver<D3Q19> {
    let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(tau))
        .pool(ThreadPool::new(threads))
        .recorder(recorder)
        .build();
    *s.flags_mut() = cavity_flags(dims, lid);
    s.initialize_uniform(1.0, [0.0; 3]);
    s
}

/// Step one at a time through `Solver::run` until `budget` has passed
/// (after one warm-up step); returns the per-step seconds.
fn timed_steps(s: &mut Solver<D3Q19>, budget: Duration, min_steps: usize) -> Vec<f64> {
    s.run(1);
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_steps || start.elapsed() < budget {
        let t0 = Instant::now();
        s.run(1);
        times.push(t0.elapsed().as_secs_f64());
    }
    times
}

fn mlups(cells: usize, step_s: f64) -> f64 {
    cells as f64 / step_s / 1e6
}

/// The reduced-grid kernel check of `cavity-ab`: the same builder path on a
/// small grid against the generic per-cell kernel, within
/// `dispatch_tolerance()`.
fn cavity_matches_generic(tau: f64, lid: f64, threads: usize) -> bool {
    let dims = cube(SMALL);
    let mut s = build_cavity(dims, tau, lid, threads, Recorder::disabled());
    let flags = s.flags().clone();
    let mut src = s.state().clone();
    let mut dst = SoaField::<D3Q19>::new(dims);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
    let steps = 6;
    s.run(steps);
    for _ in 0..steps {
        fused_step(&flags, &src, &mut dst, &coll);
        std::mem::swap(&mut src, &mut dst);
    }
    fields_close(&flags, s.state(), &src, dispatch_tolerance())
}

/// Fluid cells of `a` and `b` agree within `tol` (the populations of solid
/// cells carry no state).
fn fields_close(flags: &FlagField, a: &SoaField<D3Q19>, b: &SoaField<D3Q19>, tol: f64) -> bool {
    (0..flags.dims().cells())
        .filter(|&c| flags.kind(c) == NodeKind::Fluid)
        .all(|c| (0..D3Q19::Q).all(|q| (a.get(c, q) - b.get(c, q)).abs() <= tol))
}

pub fn cavity_ab(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::new(ctx.seed);
    let (tau, lid) = physics(&mut rng);
    let dims = cube(GRID);
    let threads = CAVITY_THREADS;
    let mut r = Report::default();
    if ctx.trace.enabled() {
        return cavity_traced(ctx, tau, lid);
    }

    let mut setups = Vec::new();
    let mut setup = || {
        let t0 = Instant::now();
        let s = build_cavity(dims, tau, lid, threads, Recorder::disabled());
        setups.push(t0.elapsed().as_secs_f64());
        s
    };
    for _ in 1..SETUP_REPS {
        drop(setup());
    }
    let mut s = setup();
    let cells = s.active_cells();
    let mass0 = s.stats().mass;
    let steps = timed_steps(&mut s, Duration::from_secs_f64(ctx.seconds), 5);
    r.attempted += steps.len() as u64;

    let end = s.stats();
    let finite = end.mass.is_finite() && end.max_velocity.is_finite();
    r.check("cavity-ab state is finite", finite);
    r.check(
        "cavity-ab mass conserved",
        ((end.mass - mass0) / mass0).abs() < MASS_TOL,
    );
    r.metric("mlups", mlups(cells, median(&steps)), "MLUPS");
    r.summary(Some("latency_p50_s"), Some("latency_tail_s"), &steps, true);
    r.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    drop(s);
    r.check(
        "cavity-ab reduced grid matches the generic kernel",
        cavity_matches_generic(tau, lid, threads),
    );
    r.metric("setup_s", median(&setups), "s");
    r.success_rate();
    r.detail(
        "cavity-ab",
        [("steps", steps.len() as f64), ("cells", cells as f64)],
    );
    Ok(r)
}

fn cavity_traced(ctx: &Ctx, tau: f64, lid: f64) -> Result<Report, String> {
    let t = &ctx.trace;
    let dims = cube(GRID);
    let (threads, nproc) = (CAVITY_THREADS, host::nproc());
    let mut r = Report::default();
    let probe = {
        let _s = t.open("host.copy_probe", None, None);
        host::copy_probe(nproc, 5)
    };
    r.probe(&probe);
    let part = Duration::from_secs_f64(ctx.seconds / 3.0);

    // Untraced baseline for obs.trace_overhead.
    let mut s = build_cavity(dims, tau, lid, threads, Recorder::disabled());
    let cells = s.active_cells();
    let base = mlups(cells, median(&timed_steps(&mut s, part, 3)));
    drop(s);

    // Traced: spans around the builder and every Solver::run call, plus
    // the solver's own recorder.
    let rec = Recorder::enabled();
    let build = t.open("core.solver.build", None, None);
    let mut s = build_cavity(dims, tau, lid, threads, rec.clone());
    let build_s = build.end();
    s.run(1);
    // The warm-up step first-touches the second buffer; leave it out.
    let (phases_ns0, kernel_ns0) = phase_ns(&rec);
    let run = t.open("core.solver.run", None, None);
    let run_id = run.id();
    let start = Instant::now();
    let mut steps = Vec::new();
    while steps.len() < 3 || start.elapsed() < part {
        let step = t.open("core.solver.step", run_id, None);
        s.run(1);
        steps.push(step.end());
    }
    drop(run);
    let traced = mlups(cells, median(&steps));
    let (phases_ns, kernel_ns) = phase_ns(&rec);
    let wall: f64 = steps.iter().sum();
    let kernel_s = (kernel_ns - kernel_ns0) as f64 / 1e9 / steps.len() as f64;
    let phases_s = (phases_ns - phases_ns0) as f64 / 1e9;
    r.attempted += steps.len() as u64;
    drop(s);

    let wide = {
        let _s = t.open("core.solver.run_nt", None, None);
        let mut s = build_cavity(dims, tau, lid, nproc, Recorder::disabled());
        mlups(cells, median(&timed_steps(&mut s, part, 3)))
    };
    r.check(
        "cavity-ab reduced grid matches the generic kernel",
        cavity_matches_generic(tau, lid, threads),
    );

    r.metric("core.solver.build_s", build_s, "s");
    r.metric("core.solver.step_s", median(&steps), "s");
    r.metric("core.kernels.collide_stream_s", kernel_s, "s");
    r.metric("core.kernels.mlups", traced, "MLUPS");
    r.metric("core.parallel.mlups_nt", wide, "MLUPS");
    let bpl = bytes_per_lup(D3Q19::Q as u32, StorageScheme::Ab, 1);
    r.metric("core.kernels.bytes_per_lup", bpl, "B/LUP");
    r.metric(
        "core.kernels.pct_bw",
        100.0 * traced * 1e6 * bpl / (probe.gbs_1t * 1e9),
        "%",
    );
    r.metric(
        "core.kernels.compute_share",
        kernel_s * steps.len() as f64 / wall,
        "ratio",
    );
    r.metric("obs.unattributed_share", (wall - phases_s) / wall, "ratio");
    r.metric("core.parallel.speedup", wide / base, "x");
    // As a time ratio: traced ÷ untraced seconds per step.
    r.metric("obs.trace_overhead", base / traced, "ratio");
    r.detail(
        "core.kernels.bytes_per_lup",
        [("computed", 1.0), ("k", 1.0), ("threads", threads as f64)],
    );
    Ok(r)
}

// ---------------------------------------------------------------------------
// canopy-ranks
// ---------------------------------------------------------------------------

/// The closed lid-driven box with seeded buildings on its `z = 0` floor;
/// returns the flags and the building share of all cells.
fn canopy_flags(dims: GridDims, lid: f64, seed: u64) -> (FlagField, f64) {
    let scene = UrbanScene::generate(
        dims,
        UrbanParams {
            block_pitch: CANOPY_PITCH,
            street_width: 8,
            min_height: dims.nz / 13,
            max_height: dims.nz * 7 / 12,
            occupancy: 0.85,
            seed,
        },
    );
    let mask = scene.to_mask(dims);
    let solid = mask.iter().filter(|&&m| m).count() as f64 / mask.len() as f64;
    let mut flags = cavity_flags(dims, lid);
    flags.apply_mask(&mask).expect("mask matches the grid");
    (flags, solid)
}

fn fluid_cells(flags: &FlagField) -> usize {
    flags.census().fluid
}

/// What each rank reports from one distributed run.
struct RankRun {
    build_s: f64,
    /// Seconds per block of `CANOPY_K` steps, timed on this rank.
    blocks: Vec<f64>,
    /// Per-phase nanoseconds (traced runs), in `swlb_obs::PHASES` order.
    phases: Vec<u64>,
    halo_messages: u64,
    halo_bytes: u64,
    finite: bool,
}

/// Build the distributed solver on a `RANKS`-rank world and step it in
/// blocks for `budget` (zero: build only). Rank 0 decides when to stop and
/// broadcasts it, so both ranks run the same number of blocks.
fn run_ranks(
    dims: GridDims,
    flags: &FlagField,
    tau: f64,
    budget: Option<Duration>,
    traced: bool,
) -> Vec<RankRun> {
    World::new(RANKS).run(|comm| {
        let rec = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let t0 = Instant::now();
        let mut s = DistributedSolver::<D3Q19>::builder(
            &comm,
            dims,
            flags,
            CollisionKind::Bgk(BgkParams::from_tau(tau)),
        )
        .storage(StorageScheme::Aa)
        .time_block(CANOPY_K)
        .exchange(ExchangeMode::OnTheFly)
        .pool(ThreadPool::new(1))
        .recorder(rec.clone())
        .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        comm.barrier();
        let build_s = t0.elapsed().as_secs_f64();
        let mut blocks = Vec::new();
        if let Some(budget) = budget {
            s.run(CANOPY_K as u64).expect("warm-up block");
            let start = Instant::now();
            loop {
                let t = Instant::now();
                s.run(CANOPY_K as u64).expect("halo exchange");
                blocks.push(t.elapsed().as_secs_f64());
                let go = (blocks.len() < 3 || start.elapsed() < budget) as u8 as f64;
                let go = comm.broadcast(&[go]).expect("broadcast");
                if go[0] == 0.0 {
                    break;
                }
            }
        }
        let finite = s.global_mass().is_ok_and(f64::is_finite);
        let snap = rec.snapshot(s.step_count());
        RankRun {
            build_s,
            blocks,
            phases: swlb_obs::PHASES.iter().map(|&p| rec.phase_ns(p)).collect(),
            halo_messages: snap
                .as_ref()
                .and_then(|s| s.counter("halo.messages"))
                .unwrap_or(0),
            halo_bytes: snap
                .as_ref()
                .and_then(|s| s.counter("halo.bytes"))
                .unwrap_or(0),
            finite,
        }
    })
}

/// Per block, the slowest rank's time: the world advances at its pace.
fn block_times(ranks: &[RankRun]) -> Vec<f64> {
    (0..ranks[0].blocks.len())
        .map(|i| ranks.iter().map(|r| r.blocks[i]).fold(0.0, f64::max))
        .collect()
}

/// The reduced-grid check of `canopy-ranks`: the gathered 2-rank state
/// matches the serial `Solver` on the same flags, within
/// `dispatch_tolerance()`.
fn canopy_matches_serial(tau: f64, lid: f64, seed: u64) -> bool {
    let dims = cube(SMALL + 8);
    let (flags, _) = canopy_flags(dims, lid, seed);
    let params = BgkParams::from_tau(tau);
    let steps = 4 * CANOPY_K as u64;
    let mut serial = Solver::<D3Q19>::builder(dims, params)
        .storage(StorageScheme::Aa)
        .time_block(CANOPY_K)
        .build();
    *serial.flags_mut() = flags.clone();
    serial.initialize_uniform(1.0, [0.0; 3]);
    serial.run(steps);
    let reference = serial.canonical_populations().into_owned();
    let gathered = World::new(RANKS).run(|comm| {
        let mut s =
            DistributedSolver::<D3Q19>::builder(&comm, dims, &flags, CollisionKind::Bgk(params))
                .storage(StorageScheme::Aa)
                .time_block(CANOPY_K)
                .exchange(ExchangeMode::OnTheFly)
                .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(steps).expect("halo exchange");
        s.gather_populations().expect("gather")
    });
    match gathered.into_iter().next().flatten() {
        Some(g) => fields_close(&flags, &reference, &g, dispatch_tolerance()),
        None => false,
    }
}

pub fn canopy_ranks(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::new(ctx.seed);
    let (tau, lid) = physics(&mut rng);
    let scene_seed = rng.next_u64();
    let dims = cube(GRID);
    if ctx.trace.enabled() {
        return canopy_traced(ctx, tau, lid, scene_seed);
    }
    let mut r = Report::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        let t0 = Instant::now();
        let (flags, _) = canopy_flags(dims, lid, scene_seed);
        let ranks = run_ranks(dims, &flags, tau, None, false);
        setups.push(t0.elapsed().as_secs_f64());
        drop(ranks);
    }
    let t0 = Instant::now();
    let (flags, _) = canopy_flags(dims, lid, scene_seed);
    let scene_s = t0.elapsed().as_secs_f64();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let ranks = run_ranks(dims, &flags, tau, Some(budget), false);
    setups.push(scene_s + ranks.iter().map(|x| x.build_s).fold(0.0, f64::max));
    let blocks = block_times(&ranks);
    r.attempted += blocks.len() as u64;
    r.check(
        "canopy-ranks state is finite",
        ranks.iter().all(|x| x.finite),
    );
    let cells = fluid_cells(&flags);
    r.metric("mlups", mlups(cells * CANOPY_K, median(&blocks)), "MLUPS");
    let step_times: Vec<f64> = blocks.iter().map(|b| b / CANOPY_K as f64).collect();
    r.summary(
        Some("latency_p50_s"),
        Some("latency_tail_s"),
        &step_times,
        true,
    );
    r.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    drop((ranks, flags));
    r.check(
        "canopy-ranks reduced grid matches the serial solver",
        canopy_matches_serial(tau, lid, scene_seed),
    );
    r.metric("setup_s", median(&setups), "s");
    r.success_rate();
    r.detail(
        "canopy-ranks",
        [("blocks", blocks.len() as f64), ("cells", cells as f64)],
    );
    Ok(r)
}

fn canopy_traced(ctx: &Ctx, tau: f64, lid: f64, scene_seed: u64) -> Result<Report, String> {
    let t = &ctx.trace;
    let dims = cube(GRID);
    let mut r = Report::default();
    let probe = {
        let _s = t.open("host.copy_probe", None, None);
        host::copy_probe(RANKS, 5)
    };
    r.probe(&probe);
    let part = Duration::from_secs_f64(ctx.seconds / 3.0);

    let scene = t.open("mesh.scene", None, None);
    let (flags, solid) = canopy_flags(dims, lid, scene_seed);
    let scene_s = scene.end();
    let cells = fluid_cells(&flags);

    let base = run_ranks(dims, &flags, tau, Some(part), false);
    let base_mlups = mlups(cells * CANOPY_K, median(&block_times(&base)));
    drop(base);

    let run = t.open("sim.engine.run", None, None);
    let ranks = run_ranks(dims, &flags, tau, Some(part), true);
    drop(run);
    let blocks = block_times(&ranks);
    r.attempted += blocks.len() as u64;
    r.check(
        "canopy-ranks state is finite",
        ranks.iter().all(|x| x.finite),
    );
    let traced = mlups(cells * CANOPY_K, median(&blocks));
    // Phase timers cover the warm-up block as well.
    let steps = ((blocks.len() + 1) * CANOPY_K) as f64;
    let phase_idx = |p: Phase| {
        swlb_obs::PHASES
            .iter()
            .position(|&q| q == p)
            .expect("PHASES lists every phase")
    };
    let phases: Vec<f64> = (0..swlb_obs::PHASES.len())
        .map(|i| ranks.iter().map(|x| x.phases[i] as f64).sum::<f64>() / 1e9 / RANKS as f64 / steps)
        .collect();
    let per_step = |p: Phase| phases[phase_idx(p)];
    let step_s = median(&blocks) / CANOPY_K as f64;
    let phase_sum: f64 = [
        Phase::CollideStream,
        Phase::HaloPack,
        Phase::HaloExchange,
        Phase::HaloUnpack,
        Phase::Boundary,
    ]
    .into_iter()
    .map(per_step)
    .sum();
    // A rank's busy time: every phase except waiting for halo frames.
    let wait = phase_idx(Phase::HaloExchange);
    let busy: Vec<f64> = ranks
        .iter()
        .map(|x| {
            x.phases
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != wait)
                .map(|(_, &n)| n as f64)
                .sum()
        })
        .collect();
    let skew =
        busy.iter().cloned().fold(0.0, f64::max) / busy.iter().cloned().fold(f64::MAX, f64::min);
    let msgs: u64 = ranks.iter().map(|x| x.halo_messages).sum();
    let bytes: u64 = ranks.iter().map(|x| x.halo_bytes).sum();
    let build_s = ranks.iter().map(|x| x.build_s).fold(0.0, f64::max);
    drop(ranks);

    // The pooled serial solver on the same grid, scheme and depth.
    let pooled = {
        let _s = t.open("core.solver.run_pooled", None, None);
        let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(tau))
            .pool(ThreadPool::new(RANKS))
            .storage(StorageScheme::Aa)
            .time_block(CANOPY_K)
            .build();
        *s.flags_mut() = flags.clone();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(CANOPY_K as u64);
        let start = Instant::now();
        let mut blocks = Vec::new();
        while blocks.len() < 3 || start.elapsed() < part {
            let t0 = Instant::now();
            s.run(CANOPY_K as u64);
            blocks.push(t0.elapsed().as_secs_f64());
        }
        mlups(cells * CANOPY_K, median(&blocks))
    };
    r.check(
        "canopy-ranks reduced grid matches the serial solver",
        canopy_matches_serial(tau, lid, scene_seed),
    );

    let bpl = bytes_per_lup(D3Q19::Q as u32, StorageScheme::Aa, CANOPY_K);
    let all_phases: f64 = phases.iter().sum();
    r.metric("mesh.scene_s", scene_s, "s");
    r.metric("mesh.solid_fraction", solid, "ratio");
    r.metric("sim.engine.build_s", build_s, "s");
    r.metric("sim.engine.step_s", step_s, "s");
    r.metric("sim.engine.rank_skew", skew, "ratio");
    r.metric("core.kernels.mlups", traced, "MLUPS");
    r.metric("sim.engine.vs_pooled", traced / pooled, "ratio");
    r.metric(
        "sim.engine.collide_stream_s",
        per_step(Phase::CollideStream),
        "s",
    );
    r.metric("sim.engine.halo_pack_s", per_step(Phase::HaloPack), "s");
    r.metric(
        "sim.engine.halo_exchange_s",
        per_step(Phase::HaloExchange),
        "s",
    );
    r.metric("sim.engine.halo_unpack_s", per_step(Phase::HaloUnpack), "s");
    r.metric("sim.engine.boundary_s", per_step(Phase::Boundary), "s");
    r.metric("sim.engine.unattributed_s", step_s - phase_sum, "s");
    r.metric(
        "core.kernels.compute_share",
        per_step(Phase::CollideStream) / step_s,
        "ratio",
    );
    r.metric(
        "obs.unattributed_share",
        (step_s - all_phases) / step_s,
        "ratio",
    );
    r.metric("comm.halo_messages_per_step", msgs as f64 / steps, "count");
    r.metric("comm.halo_bytes_per_step", bytes as f64 / steps, "B");
    r.metric("core.kernels.bytes_per_lup", bpl, "B/LUP");
    r.metric(
        "core.kernels.pct_bw",
        100.0 * traced * 1e6 * bpl / (probe.gbs_nt * 1e9),
        "%",
    );
    // As a time ratio: traced ÷ untraced seconds per step.
    r.metric("obs.trace_overhead", base_mlups / traced, "ratio");
    r.detail(
        "core.kernels.bytes_per_lup",
        [
            ("computed", 1.0),
            ("k", CANOPY_K as f64),
            ("threads", RANKS as f64),
        ],
    );
    Ok(r)
}
