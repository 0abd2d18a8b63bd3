//! Host-native measured performance — the real-hardware anchor of the model.
//!
//! Everything in Figs. 13–17 above one node is modeled; this harness *measures*
//! the actual Rust kernels on the machine running it: single-thread MLUPS per
//! kernel variant (the paper's Fig. 8 in miniature: generic vs hand-optimized,
//! split vs fused, SoA vs AoS, scalar vs SIMD) and a scalar-vs-SIMD thread
//! sweep of the unified pooled dispatch on a lid-driven cavity — so the
//! repository reports at least one set of honest measured numbers next to
//! every modeled one.
//!
//! Two measured artifacts come out of this binary, each with host metadata
//! (CPU features, core counts, auto-selected kernel class):
//!
//! * the scalar-vs-SIMD dispatch sweep, written to [`PR4_JSON`];
//! * with `--pr6`, the AB-vs-AA storage-scheme sweep (scheme × grid ×
//!   threads × SIMD lane, with distribution-storage footprint and estimated
//!   bytes/LUP per configuration), written to [`PR6_JSON`];
//! * with `--pr9`, the temporal-blocking sweep (depth k × scheme × grid ×
//!   threads, plus a distributed halo-message-count column showing the
//!   exactly-k× per-step message reduction), written to [`PR9_JSON`].
//!
//! Every emitted number is the *minimum* over `iters >= 3` timed repetitions
//! after at least one untimed warmup (noise only ever adds time), and the
//! artifacts record `iters`/`warmup` so the numbers are reproducible. Thread
//! sweeps are clamped to the host's physical core count — an oversubscribed
//! point measures the scheduler, not the kernel — and the skipped counts are
//! listed under `skipped_oversubscribed`.
//!
//! Flags:
//!
//! * `--quick` — small grids + minimal iterations (CI smoke).
//! * `--pr6` — run the AB-vs-AA storage-scheme sweep instead of the
//!   scalar-vs-SIMD dispatch sweep.
//! * `--pr9` — run the temporal-blocking sweep.
//! * `--json P` — write the sweep to `P` instead of the mode's default.
//! * `--validate P` — check that `P` holds a well-formed sweep of any known
//!   schema (auto-detected from its `bench` id), then exit.

use swlb_bench::{header, min_time_per_call, row, MIN_BENCH_ITERS};
use swlb_comm::World;
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::{fused_step, fused_step_optimized, InteriorIndex};
use swlb_core::lattice::D3Q19;
use swlb_core::layout::{AosField, PopField, SoaField, StorageScheme};
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::{
    avx512_available, cpu_features, logical_cores, physical_cores, selected_kernel_class,
    set_lane_policy, LanePolicy,
};
use swlb_core::solver::Solver;
use swlb_core::stream::split_step;
use swlb_obs::Recorder;
use swlb_sim::engine::DistributedSolver;

/// Default artifact of the scalar-vs-SIMD dispatch sweep. The single source
/// of truth for the path: main() and the docs both refer here instead of
/// repeating the literal.
const PR4_JSON: &str = "BENCH_pr4.json";
/// Default artifact of the AB-vs-AA storage-scheme sweep (`--pr6`).
const PR6_JSON: &str = "BENCH_pr6.json";
/// Default artifact of the temporal-blocking sweep (`--pr9`).
const PR9_JSON: &str = "BENCH_pr9.json";

/// Split a candidate thread sweep into (runnable, skipped): counts above the
/// physical core count measure scheduler contention rather than the kernel,
/// so they are skipped and *recorded as skipped* in the artifact.
fn clamp_threads(candidates: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let cores = physical_cores().max(1);
    let (keep, skip) = candidates.iter().partition(|&&t| t <= cores);
    (keep, skip)
}

/// Min-of-N seconds per call: the noise-hardened measurement every emitted
/// number goes through (one untimed warmup, minimum over `iters >= 3` reps).
fn min_secs(iters: usize, f: impl FnMut()) -> f64 {
    min_time_per_call(iters, 1, f).secs
}

/// Render a `[a, b, c]` JSON list of usizes.
fn json_list(xs: &[usize]) -> String {
    let body = xs
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{body}]")
}

fn init<F: PopField<D3Q19>>(flags: &FlagField, dims: GridDims) -> F {
    let mut f = F::new(dims);
    swlb_core::kernels::initialize_with::<D3Q19, _>(flags, &mut f, |x, y, z| {
        (1.0 + 0.001 * ((x + y + z) % 7) as f64, [0.02, 0.0, 0.0])
    });
    f
}

/// One measured sweep configuration.
struct SweepPoint {
    kernel: &'static str,
    threads: usize,
    seconds_per_step: f64,
    mlups: f64,
}

/// Hand-rolled JSON (no serde in the dependency set): flat schema, two levels.
#[allow(clippy::too_many_arguments)]
fn sweep_json(
    grid: GridDims,
    iters: u32,
    skipped: &[usize],
    serial_mlups: f64,
    scalar_mlups: f64,
    simd_mlups: f64,
    points: &[SweepPoint],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pr4_simd_dispatch\",\n");
    out.push_str(&format!(
        "  \"grid\": [{}, {}, {}],\n",
        grid.nx, grid.ny, grid.nz
    ));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"warmup\": 1,\n");
    out.push_str(&format!(
        "  \"skipped_oversubscribed\": {},\n",
        json_list(skipped)
    ));
    out.push_str("  \"host\": {\n");
    out.push_str(&format!("    \"cpu_features\": \"{}\",\n", cpu_features()));
    out.push_str(&format!("    \"logical_cores\": {},\n", logical_cores()));
    out.push_str(&format!("    \"physical_cores\": {},\n", physical_cores()));
    out.push_str(&format!(
        "    \"kernel_class\": \"{}\"\n",
        selected_kernel_class().name()
    ));
    out.push_str("  },\n");
    out.push_str(&format!("  \"serial_generic_mlups\": {serial_mlups:.3},\n"));
    out.push_str(&format!(
        "  \"scalar_single_thread_mlups\": {scalar_mlups:.3},\n"
    ));
    out.push_str(&format!(
        "  \"simd_single_thread_mlups\": {simd_mlups:.3},\n"
    ));
    out.push_str(&format!(
        "  \"simd_vs_scalar_speedup\": {:.3},\n",
        simd_mlups / scalar_mlups
    ));
    out.push_str("  \"configs\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"threads\": {}, \"seconds_per_step\": {:.6}, \"mlups\": {:.3}}}{}\n",
            p.kernel,
            p.threads,
            p.seconds_per_step,
            p.mlups,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Schema check for a sweep file, tolerant of formatting: every required key
/// must appear (including the host-metadata and SIMD acceptance fields), the
/// config list must be non-empty, and every `mlups` / `speedup` value must
/// parse as a positive number.
fn validate_sweep(text: &str) -> Result<usize, String> {
    for key in [
        "\"bench\"",
        "\"grid\"",
        "\"iters\"",
        "\"host\"",
        "\"cpu_features\"",
        "\"logical_cores\"",
        "\"physical_cores\"",
        "\"kernel_class\"",
        "\"serial_generic_mlups\"",
        "\"scalar_single_thread_mlups\"",
        "\"simd_single_thread_mlups\"",
        "\"simd_vs_scalar_speedup\"",
        "\"configs\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    if !text.contains("pr4_simd_dispatch") {
        return Err("wrong bench id (want pr4_simd_dispatch)".into());
    }
    let parse_after = |key: &str| -> Result<f64, String> {
        let chunk = text
            .split(key)
            .nth(1)
            .ok_or_else(|| format!("missing key {key}"))?;
        let num: String = chunk
            .trim_start_matches(|c: char| c == ':' || c.is_whitespace())
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        num.parse()
            .map_err(|_| format!("unparsable value after {key}: {num:?}"))
    };
    let speedup = parse_after("\"simd_vs_scalar_speedup\"")?;
    if speedup.is_nan() || speedup <= 0.0 {
        return Err(format!("non-positive simd_vs_scalar_speedup: {speedup}"));
    }
    let mut configs = 0usize;
    for chunk in text.split("\"mlups\":").skip(1) {
        let num: String = chunk
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        let v: f64 = num
            .parse()
            .map_err(|_| format!("unparsable mlups value: {num:?}"))?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("non-positive mlups value: {v}"));
        }
        configs += 1;
    }
    if configs == 0 {
        return Err("no configs with an mlups field".into());
    }
    Ok(configs)
}

/// Estimated main-memory traffic per lattice update, by scheme. AB's fused
/// pull kernel reads 19 populations from the source grid and writes 19 into a
/// *different* grid, whose cache lines must first be read in (write-allocate):
/// 3 × 19 × 8 B. AA touches one grid: 19 reads + 19 writes to lines already
/// resident from the read, 2 × 19 × 8 B.
fn est_bytes_per_lup(scheme: StorageScheme) -> u64 {
    match scheme {
        StorageScheme::Ab => 3 * 19 * 8,
        StorageScheme::Aa => 2 * 19 * 8,
    }
}

/// Distribution-storage footprint in bytes: two full grids for AB, one for AA.
fn footprint_bytes(dims: GridDims, scheme: StorageScheme) -> u64 {
    let grids = match scheme {
        StorageScheme::Ab => 2,
        StorageScheme::Aa => 1,
    };
    dims.cells() as u64 * 19 * 8 * grids
}

/// One measured configuration of the AB-vs-AA storage-scheme sweep.
struct SchemePoint {
    scheme: StorageScheme,
    n: usize,
    threads: usize,
    lane: &'static str,
    seconds_per_step: f64,
    mlups: f64,
}

/// Measure one (scheme, grid, threads) lid-driven-cavity configuration under
/// the currently pinned lane policy.
fn measure_scheme(n: usize, threads: usize, scheme: StorageScheme, iters: usize) -> (f64, f64) {
    let dims = GridDims::new(n, n, n);
    let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8))
        .pool(ThreadPool::new(threads))
        .storage(scheme)
        .build();
    s.flags_mut().set_box_walls();
    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
    s.initialize_uniform(1.0, [0.0; 3]);
    // Warm up a full odd/even AA cycle so the timed window mixes both step
    // flavors the same way a long run does.
    s.run(2);
    let t = min_secs(iters, || s.run(1));
    (t, dims.cells() as f64 / t / 1e6)
}

/// Serialize the pr6 sweep (hand-rolled JSON, same dependency-free style as
/// [`sweep_json`]).
fn pr6_json(grids: &[usize], iters: usize, skipped: &[usize], points: &[SchemePoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pr6_storage_schemes\",\n");
    out.push_str(&format!("  \"grids\": {},\n", json_list(grids)));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"warmup\": 1,\n");
    out.push_str(&format!(
        "  \"skipped_oversubscribed\": {},\n",
        json_list(skipped)
    ));
    out.push_str("  \"host\": {\n");
    out.push_str(&format!("    \"cpu_features\": \"{}\",\n", cpu_features()));
    out.push_str(&format!("    \"logical_cores\": {},\n", logical_cores()));
    out.push_str(&format!("    \"physical_cores\": {},\n", physical_cores()));
    out.push_str(&format!(
        "    \"kernel_class\": \"{}\"\n",
        selected_kernel_class().name()
    ));
    out.push_str("  },\n");

    // Acceptance summary: at the largest grid and the widest available lane,
    // how does AA compare against AB?
    let big = *grids.iter().max().unwrap();
    let lane = if avx512_available() { "avx512" } else { "avx2" };
    let find = |scheme: StorageScheme, threads: usize| {
        points
            .iter()
            .find(|p| p.scheme == scheme && p.n == big && p.threads == threads && p.lane == lane)
            .map(|p| p.mlups)
    };
    let dims = GridDims::new(big, big, big);
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"grid\": {big},\n"));
    out.push_str(&format!("    \"lane\": \"{lane}\",\n"));
    out.push_str(&format!(
        "    \"footprint_ratio_ab_over_aa\": {:.3},\n",
        footprint_bytes(dims, StorageScheme::Ab) as f64
            / footprint_bytes(dims, StorageScheme::Aa) as f64
    ));
    if let (Some(ab), Some(aa)) = (find(StorageScheme::Ab, 1), find(StorageScheme::Aa, 1)) {
        out.push_str(&format!("    \"aa_vs_ab_speedup_1t\": {:.3},\n", aa / ab));
    }
    if let (Some(ab), Some(aa)) = (find(StorageScheme::Ab, 4), find(StorageScheme::Aa, 4)) {
        out.push_str(&format!("    \"aa_vs_ab_speedup_4t\": {:.3},\n", aa / ab));
    }
    out.push_str(&format!(
        "    \"est_bytes_per_lup_ratio\": {:.3}\n",
        est_bytes_per_lup(StorageScheme::Ab) as f64 / est_bytes_per_lup(StorageScheme::Aa) as f64
    ));
    out.push_str("  },\n");

    out.push_str("  \"configs\": [\n");
    for (i, p) in points.iter().enumerate() {
        let dims = GridDims::new(p.n, p.n, p.n);
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"n\": {}, \"threads\": {}, \"lane\": \"{}\", \
             \"seconds_per_step\": {:.6}, \"mlups\": {:.3}, \"footprint_bytes\": {}, \
             \"est_bytes_per_lup\": {}}}{}\n",
            p.scheme.name(),
            p.n,
            p.threads,
            p.lane,
            p.seconds_per_step,
            p.mlups,
            footprint_bytes(dims, p.scheme),
            est_bytes_per_lup(p.scheme),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Schema check for a pr6 storage-scheme sweep (same tolerance philosophy as
/// [`validate_sweep`]): all required keys present, both schemes measured,
/// every `mlups` positive, and the footprint summary showing AB = 2× AA.
fn validate_pr6(text: &str) -> Result<usize, String> {
    for key in [
        "\"bench\"",
        "\"grids\"",
        "\"host\"",
        "\"cpu_features\"",
        "\"logical_cores\"",
        "\"physical_cores\"",
        "\"kernel_class\"",
        "\"summary\"",
        "\"footprint_ratio_ab_over_aa\"",
        "\"est_bytes_per_lup_ratio\"",
        "\"configs\"",
        "\"footprint_bytes\"",
        "\"est_bytes_per_lup\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    if !text.contains("pr6_storage_schemes") {
        return Err("wrong bench id (want pr6_storage_schemes)".into());
    }
    for scheme in ["\"scheme\": \"ab\"", "\"scheme\": \"aa\""] {
        if !text.contains(scheme) {
            return Err(format!("no configs for {scheme}"));
        }
    }
    let parse_after = |key: &str| -> Result<f64, String> {
        let chunk = text
            .split(key)
            .nth(1)
            .ok_or_else(|| format!("missing key {key}"))?;
        let num: String = chunk
            .trim_start_matches(|c: char| c == ':' || c.is_whitespace())
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        num.parse()
            .map_err(|_| format!("unparsable value after {key}: {num:?}"))
    };
    let ratio = parse_after("\"footprint_ratio_ab_over_aa\"")?;
    if !(1.99..=2.01).contains(&ratio) {
        return Err(format!(
            "AA must halve the AB footprint; ratio in file is {ratio}"
        ));
    }
    let mut configs = 0usize;
    for chunk in text.split("\"mlups\":").skip(1) {
        let num: String = chunk
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        let v: f64 = num
            .parse()
            .map_err(|_| format!("unparsable mlups value: {num:?}"))?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("non-positive mlups value: {v}"));
        }
        configs += 1;
    }
    if configs == 0 {
        return Err("no configs with an mlups field".into());
    }
    Ok(configs)
}

/// The `--pr6` mode: AB vs AA across grid × threads × SIMD lane.
fn run_pr6(quick: bool, json_path: &str) {
    header(
        "AB vs AA storage schemes (D3Q19 lid-driven cavity, f64)",
        "single-grid AA-pattern streaming: the memory-traffic lever for memory-bound LBM",
    );
    println!(
        "host: {} logical / {} physical core(s), features [{}], auto kernel class: {}\n",
        logical_cores(),
        physical_cores(),
        cpu_features(),
        selected_kernel_class().name()
    );
    let grids: &[usize] = if quick { &[32, 48] } else { &[128, 256] };
    let iters = MIN_BENCH_ITERS;
    let (thread_counts, skipped) = clamp_threads(&[1, 2, 4]);
    if !skipped.is_empty() {
        println!(
            "(host has {} physical core(s): skipping oversubscribed thread counts {:?})",
            physical_cores(),
            skipped
        );
    }
    let mut lanes = vec![("avx2", LanePolicy::ForceAvx2)];
    if avx512_available() {
        lanes.push(("avx512", LanePolicy::ForceAvx512));
    } else {
        println!("(no avx512f on this host: sweeping the avx2 lane only)");
    }

    row(&[
        "scheme".into(),
        "grid".into(),
        "lane/threads".into(),
        "MLUPS".into(),
        "footprint".into(),
    ]);
    let mut points = Vec::new();
    for &n in grids {
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            for &(lane, policy) in &lanes {
                set_lane_policy(policy);
                for &threads in &thread_counts {
                    let (t, mlups) = measure_scheme(n, threads, scheme, iters);
                    let fp = footprint_bytes(GridDims::new(n, n, n), scheme);
                    row(&[
                        scheme.name().into(),
                        format!("{n}^3"),
                        format!("{lane}/{threads}t"),
                        format!("{mlups:.1}"),
                        format!("{:.2} GiB", fp as f64 / (1u64 << 30) as f64),
                    ]);
                    points.push(SchemePoint {
                        scheme,
                        n,
                        threads,
                        lane,
                        seconds_per_step: t,
                        mlups,
                    });
                }
            }
        }
    }
    set_lane_policy(LanePolicy::Auto);

    let json = pr6_json(grids, iters, &skipped, &points);
    std::fs::write(json_path, &json).unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("\nsweep written to {json_path}");
}

// ───────────────────────── pr9: temporal blocking ─────────────────────────

/// One measured configuration of the temporal-blocking sweep.
struct BlockPoint {
    scheme: StorageScheme,
    k: usize,
    n: usize,
    threads: usize,
    seconds_per_step: f64,
    mlups: f64,
}

/// One distributed halo-message count: total messages over a fixed run, and
/// the per-step reduction relative to the unblocked (`k = 1`) baseline.
struct HaloPoint {
    scheme: StorageScheme,
    k: usize,
    messages: u64,
    reduction: f64,
}

/// Measure one (scheme, depth, grid, threads) lid-driven-cavity configuration
/// in seconds per *step*: each timed call advances one full depth-`k` block.
fn measure_blocked(
    n: usize,
    threads: usize,
    scheme: StorageScheme,
    k: usize,
    iters: usize,
) -> (f64, f64) {
    let dims = GridDims::new(n, n, n);
    let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8))
        .pool(ThreadPool::new(threads))
        .storage(scheme)
        .time_block(k)
        .try_build()
        .expect("valid blocked configuration");
    s.flags_mut().set_box_walls();
    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
    s.initialize_uniform(1.0, [0.0; 3]);
    // Pre-run two blocks so the timed window mixes both AA parities and the
    // wavefront schedule runs cache-warm, matching a long production run.
    s.run(2 * k as u64);
    let t = min_secs(iters, || s.run(k as u64)) / k as f64;
    (t, dims.cells() as f64 / t / 1e6)
}

/// Total halo messages across 4 in-process ranks over `steps` steps at
/// blocking depth `k` (grid size only changes message *sizes*, not counts).
fn count_halo_messages(scheme: StorageScheme, k: usize, steps: u64) -> u64 {
    let global = GridDims::new(16, 16, 8);
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
    out.into_iter().sum()
}

/// Serialize the pr9 sweep (hand-rolled JSON, same style as the others).
#[allow(clippy::too_many_arguments)]
fn pr9_json(
    grids: &[usize],
    iters: usize,
    threads: &[usize],
    skipped: &[usize],
    halo_steps: u64,
    halo: &[HaloPoint],
    points: &[BlockPoint],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pr9_temporal_blocking\",\n");
    out.push_str(&format!("  \"grids\": {},\n", json_list(grids)));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"warmup\": 1,\n");
    out.push_str(&format!("  \"thread_counts\": {},\n", json_list(threads)));
    out.push_str(&format!(
        "  \"skipped_oversubscribed\": {},\n",
        json_list(skipped)
    ));
    out.push_str("  \"host\": {\n");
    out.push_str(&format!("    \"cpu_features\": \"{}\",\n", cpu_features()));
    out.push_str(&format!("    \"logical_cores\": {},\n", logical_cores()));
    out.push_str(&format!("    \"physical_cores\": {},\n", physical_cores()));
    out.push_str(&format!(
        "    \"kernel_class\": \"{}\"\n",
        selected_kernel_class().name()
    ));
    out.push_str("  },\n");

    // Acceptance summary: single-thread depth-k speedups at the largest grid.
    let big = *grids.iter().max().unwrap();
    let find = |scheme: StorageScheme, k: usize| {
        points
            .iter()
            .find(|p| p.scheme == scheme && p.k == k && p.n == big && p.threads == 1)
            .map(|p| p.mlups)
    };
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"grid\": {big},\n"));
    let mut best_k2 = f64::NAN;
    for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
        let base = find(scheme, 1);
        for k in [2usize, 4] {
            if let (Some(b), Some(m)) = (base, find(scheme, k)) {
                let speedup = m / b;
                out.push_str(&format!(
                    "    \"speedup_k{k}_{}_1t\": {speedup:.3},\n",
                    scheme.name()
                ));
                if k == 2 {
                    // f64::max ignores the NaN sentinel on the first hit.
                    best_k2 = best_k2.max(speedup);
                }
            }
        }
    }
    out.push_str(&format!("    \"best_speedup_k2_1t\": {best_k2:.3}\n"));
    out.push_str("  },\n");

    out.push_str("  \"configs\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"k\": {}, \"n\": {}, \"threads\": {}, \
             \"seconds_per_step\": {:.6}, \"mlups\": {:.3}, \"iters\": {}, \"warmup\": 1}}{}\n",
            p.scheme.name(),
            p.k,
            p.n,
            p.threads,
            p.seconds_per_step,
            p.mlups,
            iters,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    // The distributed column: total messages over a fixed run, per scheme and
    // depth, with the per-step reduction against that scheme's k = 1 run.
    out.push_str("  \"halo\": {\n");
    out.push_str("    \"ranks\": 4,\n");
    out.push_str(&format!("    \"steps\": {halo_steps},\n"));
    out.push_str("    \"exchanges\": [\n");
    for (i, h) in halo.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"scheme\": \"{}\", \"k\": {}, \"messages\": {}, \
             \"reduction_vs_k1\": {:.3}}}{}\n",
            h.scheme.name(),
            h.k,
            h.messages,
            h.reduction,
            if i + 1 < halo.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// Schema check for a pr9 temporal-blocking sweep: all required keys present,
/// `iters >= 3` and `warmup >= 1` (the noise-hardening contract), every
/// `mlups` positive, every halo entry's per-step message reduction *exactly*
/// its depth `k` (counts are integers; blocking may not lose messages), and —
/// when the sweep includes the 256³ grid — the headline single-thread k = 2
/// speedup at that grid must clear 1.15×.
fn validate_pr9(text: &str) -> Result<usize, String> {
    for key in [
        "\"bench\"",
        "\"grids\"",
        "\"iters\"",
        "\"warmup\"",
        "\"thread_counts\"",
        "\"skipped_oversubscribed\"",
        "\"host\"",
        "\"cpu_features\"",
        "\"logical_cores\"",
        "\"physical_cores\"",
        "\"kernel_class\"",
        "\"summary\"",
        "\"best_speedup_k2_1t\"",
        "\"configs\"",
        "\"halo\"",
        "\"reduction_vs_k1\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    if !text.contains("pr9_temporal_blocking") {
        return Err("wrong bench id (want pr9_temporal_blocking)".into());
    }
    let parse_leading = |chunk: &str| -> Result<f64, String> {
        let num: String = chunk
            .trim_start_matches(|c: char| c == ':' || c.is_whitespace())
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        num.parse()
            .map_err(|_| format!("unparsable number: {num:?}"))
    };
    let parse_after = |key: &str| -> Result<f64, String> {
        parse_leading(
            text.split(key)
                .nth(1)
                .ok_or_else(|| format!("missing key {key}"))?,
        )
    };
    let iters = parse_after("\"iters\"")?;
    if iters < 3.0 {
        return Err(format!("iters must be >= 3 (min-of-N), got {iters}"));
    }
    let warmup = parse_after("\"warmup\"")?;
    if warmup < 1.0 {
        return Err(format!("warmup must be >= 1, got {warmup}"));
    }
    let mut configs = 0usize;
    for chunk in text.split("\"mlups\":").skip(1) {
        let v = parse_leading(chunk)?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("non-positive mlups value: {v}"));
        }
        configs += 1;
    }
    if configs == 0 {
        return Err("no configs with an mlups field".into());
    }
    // Every halo entry must reduce per-step messages by exactly its k.
    let parts: Vec<&str> = text.split("\"reduction_vs_k1\":").collect();
    let mut ks_seen = Vec::new();
    for i in 1..parts.len() {
        let (_, after_k) = parts[i - 1]
            .rsplit_once("\"k\":")
            .ok_or("halo entry without a \"k\" field")?;
        let k = parse_leading(after_k)?;
        let reduction = parse_leading(parts[i])?;
        if (reduction - k).abs() > 1e-9 {
            return Err(format!(
                "halo reduction must be exactly k ({k}), got {reduction}"
            ));
        }
        ks_seen.push(k as u64);
    }
    for want in [2u64, 4] {
        if !ks_seen.contains(&want) {
            return Err(format!("no halo entry for k = {want}"));
        }
    }
    // The headline acceptance number only binds on the full-size sweep.
    let grids_chunk = text
        .split("\"grids\"")
        .nth(1)
        .and_then(|c| c.split(']').next())
        .unwrap_or("");
    if grids_chunk.contains("256") {
        let best = parse_after("\"best_speedup_k2_1t\"")?;
        if best < 1.15 {
            return Err(format!(
                "k = 2 single-thread speedup at 256^3 must be >= 1.15, got {best}"
            ));
        }
    }
    Ok(configs)
}

/// The `--pr9` mode: depth-k temporal blocking across scheme × grid × threads,
/// plus the distributed halo-message column.
fn run_pr9(quick: bool, json_path: &str) {
    header(
        "Depth-k temporal blocking (D3Q19 lid-driven cavity, f64)",
        "fused k-step wavefront sweeps: k lattice updates per sweep of memory traffic",
    );
    println!(
        "host: {} logical / {} physical core(s), features [{}], auto kernel class: {}\n",
        logical_cores(),
        physical_cores(),
        cpu_features(),
        selected_kernel_class().name()
    );
    let grids: &[usize] = if quick { &[32, 48] } else { &[128, 256] };
    let iters = MIN_BENCH_ITERS;
    let (thread_counts, skipped) = clamp_threads(&[1, 2, 4]);
    if !skipped.is_empty() {
        println!(
            "(host has {} physical core(s): skipping oversubscribed thread counts {:?})",
            physical_cores(),
            skipped
        );
    }
    let ks = [1usize, 2, 4];

    row(&[
        "scheme".into(),
        "grid".into(),
        "k".into(),
        "threads".into(),
        "MLUPS".into(),
        "vs k=1".into(),
    ]);
    let mut points = Vec::new();
    for &n in grids {
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            for &threads in &thread_counts {
                let mut base = f64::NAN;
                for &k in &ks {
                    let (t, mlups) = measure_blocked(n, threads, scheme, k, iters);
                    if k == 1 {
                        base = mlups;
                    }
                    row(&[
                        scheme.name().into(),
                        format!("{n}^3"),
                        format!("{k}"),
                        format!("{threads}t"),
                        format!("{mlups:.1}"),
                        format!("{:.2}x", mlups / base),
                    ]);
                    points.push(BlockPoint {
                        scheme,
                        k,
                        n,
                        threads,
                        seconds_per_step: t,
                        mlups,
                    });
                }
            }
        }
    }

    let halo_steps = 8u64;
    println!("\ndistributed halo messages (4 ranks, {halo_steps} steps, 16x16x8 cavity):");
    row(&[
        "scheme".into(),
        "k".into(),
        "messages".into(),
        "per step".into(),
        "reduction".into(),
    ]);
    let mut halo = Vec::new();
    for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
        let base = count_halo_messages(scheme, 1, halo_steps);
        for &k in &ks {
            let messages = if k == 1 {
                base
            } else {
                count_halo_messages(scheme, k, halo_steps)
            };
            let reduction = base as f64 / messages as f64;
            row(&[
                scheme.name().into(),
                format!("{k}"),
                format!("{messages}"),
                format!("{:.1}", messages as f64 / halo_steps as f64),
                format!("{reduction:.2}x"),
            ]);
            halo.push(HaloPoint {
                scheme,
                k,
                messages,
                reduction,
            });
        }
    }

    let json = pr9_json(
        grids,
        iters,
        &thread_counts,
        &skipped,
        halo_steps,
        &halo,
        &points,
    );
    std::fs::write(json_path, &json).unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("\nsweep written to {json_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let pr6 = args.iter().any(|a| a == "--pr6");
    let pr9 = args.iter().any(|a| a == "--pr9");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(path) = flag_value("--validate") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let result = if text.contains("pr9_temporal_blocking") {
            validate_pr9(&text)
        } else if text.contains("pr6_storage_schemes") {
            validate_pr6(&text)
        } else {
            validate_sweep(&text)
        };
        match result {
            Ok(n) => {
                println!("{path}: valid sweep with {n} configurations");
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID sweep: {e}");
                std::process::exit(1);
            }
        }
    }
    if pr9 {
        let json_path = flag_value("--json").unwrap_or_else(|| PR9_JSON.into());
        run_pr9(quick, &json_path);
        return;
    }
    if pr6 {
        let json_path = flag_value("--json").unwrap_or_else(|| PR6_JSON.into());
        run_pr6(quick, &json_path);
        return;
    }
    let json_path = flag_value("--json").unwrap_or_else(|| PR4_JSON.into());

    header(
        "Host-native measured kernel performance (D3Q19, f64)",
        "anchors the model; mirrors the paper's Fig. 8 ablations on this CPU",
    );
    println!(
        "host: {} logical / {} physical core(s), features [{}], auto kernel class: {}\n",
        logical_cores(),
        physical_cores(),
        cpu_features(),
        selected_kernel_class().name()
    );
    let n = if quick { 48 } else { 96 };
    let dims = GridDims::new(n, n, n);
    let cells = dims.cells() as f64;
    let flags = FlagField::new(dims);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let iters = MIN_BENCH_ITERS;

    println!(
        "grid: {}x{}x{} = {:.1}M cells\n",
        dims.nx,
        dims.ny,
        dims.nz,
        cells / 1e6
    );
    row(&[
        "kernel".into(),
        "s/step".into(),
        "MLUPS".into(),
        "vs fused".into(),
        "".into(),
    ]);

    let src: SoaField<D3Q19> = init(&flags, dims);
    let mut dst = SoaField::<D3Q19>::new(dims);
    let t_fused = min_secs(iters, || fused_step(&flags, &src, &mut dst, &coll));
    row(&[
        "fused generic (SoA)".into(),
        format!("{t_fused:.3}"),
        format!("{:.1}", cells / t_fused / 1e6),
        "1.00x".into(),
        "".into(),
    ]);

    let t_split = min_secs(iters, || split_step(&flags, &src, &mut dst, &coll));
    row(&[
        "split stream+collide".into(),
        format!("{t_split:.3}"),
        format!("{:.1}", cells / t_split / 1e6),
        format!("{:.2}x", t_fused / t_split),
        "".into(),
    ]);

    let interior = InteriorIndex::build::<D3Q19>(&flags);
    set_lane_policy(LanePolicy::ForceScalar);
    let t_opt = min_secs(iters, || {
        fused_step_optimized(&flags, &src, &mut dst, &coll, &interior, 0..dims.ny);
    });
    row(&[
        "fused hand-optimized (scalar)".into(),
        format!("{t_opt:.3}"),
        format!("{:.1}", cells / t_opt / 1e6),
        format!("{:.2}x", t_fused / t_opt),
        "".into(),
    ]);

    set_lane_policy(LanePolicy::Auto);
    let t_simd = min_secs(iters, || {
        fused_step_optimized(&flags, &src, &mut dst, &coll, &interior, 0..dims.ny);
    });
    row(&[
        format!("fused {} lanes", selected_kernel_class().name()),
        format!("{t_simd:.3}"),
        format!("{:.1}", cells / t_simd / 1e6),
        format!("{:.2}x", t_fused / t_simd),
        "".into(),
    ]);

    let aos: AosField<D3Q19> = init(&flags, dims);
    let mut aos_dst = AosField::<D3Q19>::new(dims);
    let t_aos = min_secs(iters, || fused_step(&flags, &aos, &mut aos_dst, &coll));
    row(&[
        "fused generic (AoS)".into(),
        format!("{t_aos:.3}"),
        format!("{:.1}", cells / t_aos / 1e6),
        format!("{:.2}x", t_fused / t_aos),
        "".into(),
    ]);

    // ── Scalar vs SIMD dispatch sweep: threads on a lid-driven cavity ──
    // The host mirror of the paper's Fig. 8 vectorization rung: the pooled
    // dispatch partitions y-slabs across threads, runs the interior over
    // run-length runs, and the lane policy pins the kernel class per pass.
    let sn = if quick { 64 } else { 128 };
    let sdims = GridDims::new(sn, sn, sn);
    let scells = sdims.cells() as f64;
    let mut sflags = FlagField::new(sdims);
    sflags.set_box_walls();
    sflags.paint_lid([0.05, 0.0, 0.0]);
    let ssrc: SoaField<D3Q19> = init(&sflags, sdims);
    let mut sdst = SoaField::<D3Q19>::new(sdims);
    let sinterior = InteriorIndex::build::<D3Q19>(&sflags);

    println!("\nscalar vs SIMD dispatch sweep: {sn}^3 lid-driven cavity, kernel x threads:");
    let t_serial = min_secs(iters, || fused_step(&sflags, &ssrc, &mut sdst, &coll));
    let serial_mlups = scells / t_serial / 1e6;
    println!("serial generic baseline: {t_serial:.3} s/step = {serial_mlups:.1} MLUPS");
    row(&[
        "kernel".into(),
        "threads".into(),
        "s/step".into(),
        "MLUPS".into(),
        "vs serial".into(),
    ]);

    let (thread_counts, skipped) = clamp_threads(&[1, 2, 4]);
    if !skipped.is_empty() {
        println!(
            "(host has {} physical core(s): skipping oversubscribed thread counts {:?})",
            physical_cores(),
            skipped
        );
    }

    let mut points = Vec::new();
    let mut scalar_1t = f64::NAN;
    let mut simd_1t = f64::NAN;
    for (kernel, policy) in [
        ("scalar", LanePolicy::ForceScalar),
        ("simd", LanePolicy::Auto),
    ] {
        set_lane_policy(policy);
        for &threads in &thread_counts {
            let pool = ThreadPool::new(threads);
            let t = min_secs(iters, || {
                pool.fused_step(&sflags, &ssrc, &mut sdst, &coll, Some(&sinterior));
            });
            let mlups = scells / t / 1e6;
            row(&[
                kernel.into(),
                format!("{threads}"),
                format!("{t:.3}"),
                format!("{mlups:.1}"),
                format!("{:.2}x", t_serial / t),
            ]);
            if threads == 1 {
                match kernel {
                    "scalar" => scalar_1t = mlups,
                    _ => simd_1t = mlups,
                }
            }
            points.push(SweepPoint {
                kernel,
                threads,
                seconds_per_step: t,
                mlups,
            });
        }
    }
    set_lane_policy(LanePolicy::Auto);
    println!(
        "\nSIMD vs scalar single-thread: {:.1} vs {:.1} MLUPS = {:.2}x",
        simd_1t,
        scalar_1t,
        simd_1t / scalar_1t
    );

    let json = sweep_json(
        sdims,
        iters as u32,
        &skipped,
        serial_mlups,
        scalar_1t,
        simd_1t,
        &points,
    );
    std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("sweep written to {json_path}");

    println!("\nroofline context for this host: the fused kernel moves ~380 B/LUP;");
    println!("measured MLUPS x 380 B = implied memory bandwidth actually sustained.");
    let best = points.iter().map(|p| p.mlups).fold(serial_mlups, f64::max);
    println!(
        "best configuration implies {:.1} GB/s sustained on this machine.",
        best * 1e6 * 380.0 / 1e9
    );
}
