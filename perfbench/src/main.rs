//! One benchmark for the whole swlb stack.
//!
//! ```text
//! perfbench --workload <cavity-ab|canopy-ranks|fleet-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from the seed, measures for `--seconds`,
//! checks the program's outputs, and prints as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are [`END_TO_END`], measured with every recorder disabled and
//! no spans; with `--trace 1` they are [`PER_LAYER`], taken from spans the
//! benchmark records around its calls into each layer and from the
//! recorders the public configs accept. Every workload reports every metric
//! of its list; a run that misses one fails. The line before the last
//! carries details: percentiles and sample counts, the host probe, the
//! service's own latencies, span self times, and (traced) the layer
//! metrics only some workloads have, each with the end-to-end metric it
//! should move. Spans are written to
//! `.perfbench_out/trace-<workload>-<seed>.jsonl`.

mod host;
mod kernel;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use swlb_serve::Json;

/// Where the benchmark writes its scratch state and span files, relative to
/// the directory it runs in.
const OUT_DIR: &str = ".perfbench_out";

/// The end-to-end metrics every workload reports with `--trace 0`. A
/// workload's operation is what `latency_*` times: one solver step on the
/// grids (the inverse of their MLUPS, which the details carry), one job
/// from its due time to its terminal state on the fleet. `latency_tail_s`
/// is a detail only: on the 2-vCPU reference host the fleet's tail moved
/// by 28% between sets of ten runs, past any bound the benchmark may set.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("latency_p50_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.copy_gbs_1t", "GB/s"),
    ("host.copy_gbs_nt", "GB/s"),
    ("core.kernels.mlups", "MLUPS"),
    ("core.kernels.bytes_per_lup", "B/LUP"),
    ("core.kernels.pct_bw", "%"),
    ("core.kernels.compute_share", "ratio"),
    ("obs.unattributed_share", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// The end-to-end metric (and workload) each per-layer metric should move.
const LAYER_TARGETS: &[(&str, &str)] = &[
    ("core.solver.", "setup_s, latency_p50_s @ cavity-ab"),
    ("core.kernels.", "latency_p50_s @ every workload"),
    (
        "core.parallel.",
        "none gated: cavity-ab steps on one thread",
    ),
    ("host.", "denominator of core.kernels.pct_bw"),
    ("mesh.", "setup_s @ canopy-ranks"),
    ("sim.engine.", "latency_p50_s @ canopy-ranks"),
    ("comm.", "latency_p50_s @ canopy-ranks"),
    ("sim.cases.", "latency_p50_s @ fleet-churn"),
    ("io.checkpoint.", "latency_tail_s @ fleet-churn"),
    ("io.journal.", "ack_latency_p50_s @ fleet-churn"),
    (
        "serve.scheduler.",
        "start_latency_*, latency_* @ fleet-churn",
    ),
    (
        "fleet.controller.",
        "start_latency_*, latency_* @ fleet-churn",
    ),
    ("fleet.registry.", "latency_tail_s @ fleet-churn"),
    ("obs.unattributed_share", "latency_p50_s @ every workload"),
    ("obs.", "none; must stay small"),
    ("bench.", "validity of the open-loop runs"),
];

/// Run parameters shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: trace::Tracer,
    /// Scratch directory of this run (emptied before and after).
    pub dir: PathBuf,
}

/// Deterministic generator (splitmix64) for every seeded input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    details: Vec<(String, Json)>,
    failures: Vec<String>,
}

impl Report {
    /// Count one output check; a failed check fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Share of the output checks that passed.
    pub fn success_rate(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.metric("success_rate", ok / self.attempted.max(1) as f64, "ratio");
    }

    pub fn detail<const N: usize>(&mut self, name: &str, pairs: [(&'static str, f64); N]) {
        self.detail_json(name, Json::obj(pairs.map(|(k, v)| (k, Json::num(v)))));
    }

    pub fn detail_json(&mut self, name: &str, value: Json) {
        self.details.push((name.to_string(), value));
    }

    /// Report a timing distribution: its median under the name `p50` and
    /// its tail under the name `tail` (either may be omitted), with the
    /// percentile and sample count in the details. Ungated values go to the
    /// details only, outside the metrics that regression bounds apply to.
    pub fn summary(&mut self, p50: Option<&str>, tail: Option<&str>, samples: &[f64], gated: bool) {
        let Some(s) = stats::Summary::of(samples) else {
            return;
        };
        for (name, value, pct) in [(p50, s.p50, 50), (tail, s.tail, s.tail_pct)] {
            if let Some(name) = name {
                if gated {
                    self.metric(name, value, "s");
                }
                let n = s.samples as f64;
                self.detail(
                    name,
                    [("value", value), ("percentile", pct as f64), ("samples", n)],
                );
            }
        }
    }

    pub fn probe(&mut self, p: &host::CopyProbe) {
        self.metric("host.copy_gbs_1t", p.gbs_1t, "GB/s");
        self.metric("host.copy_gbs_nt", p.gbs_nt, "GB/s");
        self.detail(
            "host.copy_probe",
            [
                ("array_bytes", (p.elems * 8) as f64),
                ("llc_bytes", p.llc_bytes as f64),
                ("threads", p.threads as f64),
                ("bytes_per_pass_computed", host::copy_bytes(p.elems)),
            ],
        );
    }
}

fn arg(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .ok_or_else(|| format!("missing {name}"))
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload")?;
    let seed = arg(&args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = arg(&args, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match arg(&args, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let dir = PathBuf::from(OUT_DIR).join(format!("{workload}-{seed}-{}", trace as u8));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace: trace::Tracer::new(trace),
        dir,
    })
}

fn target_of(metric: &str) -> &'static str {
    LAYER_TARGETS
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("", |(_, t)| t)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.dir.display());
        return ExitCode::FAILURE;
    }
    let result = match ctx.workload.as_str() {
        "cavity-ab" => kernel::cavity_ab(&ctx),
        "canopy-ranks" => kernel::canopy_ranks(&ctx),
        "fleet-churn" => service::fleet_churn(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let mut r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.trace.enabled() {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
        if let Err(e) = ctx.trace.write_out(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        let spans = ctx.trace.by_name();
        r.detail_json(
            "spans",
            Json::Obj(
                spans
                    .into_iter()
                    .map(|(name, (n, total, own))| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("count", Json::num(n as f64)),
                                ("total_s", Json::num(total)),
                                ("self_s", Json::num(own)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        );
    }
    for f in &r.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let required = if ctx.trace.enabled() {
        PER_LAYER
    } else {
        END_TO_END
    };
    let value =
        |v: f64, unit: &str| Json::obj([("value", Json::num(v)), ("unit", Json::str(unit))]);
    let mut metrics = Vec::new();
    for &(name, unit) in required {
        match r.metrics.iter().find(|(n, _, _)| n == name) {
            Some(&(_, v, u)) if u == unit && v.is_finite() => {
                metrics.push((name.to_string(), value(v, unit)));
            }
            found => {
                eprintln!(
                    "perfbench: {}: no valid {name} in {unit}: {:?}",
                    ctx.workload,
                    found.map(|&(_, v, u)| (v, u))
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if ctx.trace.enabled() {
        let targets = PER_LAYER
            .iter()
            .map(|&(name, _)| (name.to_string(), Json::str(target_of(name))))
            .collect();
        r.detail_json("targets", Json::Obj(targets));
    }
    // What only some workloads measure: details, with their targets.
    let others = r
        .metrics
        .iter()
        .filter(|(n, _, _)| !required.iter().any(|(name, _)| name == n))
        .map(|(n, v, u)| {
            let mut m = value(*v, u);
            if let (Json::Obj(fields), true) = (&mut m, ctx.trace.enabled()) {
                fields.push(("target".to_string(), Json::str(target_of(n))));
            }
            (n.clone(), m)
        })
        .collect();
    r.detail_json("workload_metrics", Json::Obj(others));
    let details: Vec<(String, Json)> = std::mem::take(&mut r.details);
    println!("{}", Json::obj([("details", Json::Obj(details))]).to_text());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(r.failed == 0)),
            ("attempted", Json::num(r.attempted.max(1) as f64)),
            ("failed", Json::num(r.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_text()
    );
    ExitCode::SUCCESS
}
