//! The service workload, `fleet-churn`: an in-process `swlb_fleet`
//! controller over two worker-mode `swlb_serve` servers, one of which is
//! replaced mid-run.
//!
//! It is driven open loop: one generator thread submits a seeded job mix
//! at a fixed offered rate, timing every request from when it was due; one
//! reader thread polls the status of every outstanding job (and, every few
//! cycles, the list and the stats), recording when each job is first seen
//! running and first seen terminal.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use swlb_core::parallel::ThreadPool;
use swlb_core::simd::dispatch_tolerance;
use swlb_fleet::{Controller, FleetConfig};
use swlb_io::CheckpointStore;
use swlb_obs::Recorder;
use swlb_serve::{
    CaseKind, CaseSpec, JobSpec, Json, LatticeKind, OutputKind, Priority, ServeClient, ServeConfig,
    Server, StorageScheme,
};

use crate::stats::{self, median};
use crate::{host, Ctx, Report, Rng};

/// Offered rate (jobs/s): with about 0.03 s of compute per job of this mix
/// on the 2-vCPU reference host, it keeps the two one-thread workers about
/// 15% busy, so latencies measure the service, not a queue that happens to
/// be growing.
pub const RATE: f64 = 10.0;
/// Arrivals are evenly spaced at `RATE`, each moved by a seeded jitter of up
/// to this share of the spacing either way.
const JITTER: f64 = 0.5;
/// Reader sleep between poll cycles; a cycle stays well below the shortest
/// job.
const POLL: Duration = Duration::from_millis(10);
/// Every this-many poll cycles the reader also reads the job list and the
/// service stats.
const LIST_EVERY: u64 = 10;
/// How long after the last arrival the run waits for stragglers.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Admission bound, high enough that the mix never sees a 429.
const CAPACITY: usize = 512;

/// The job mix as a deck of 20 cards, dealt in a seeded order (so every
/// 20 consecutive jobs carry exactly these proportions): 12 interactive
/// D2Q9 jobs, 6 batch D3Q19 jobs over AB/AA and `time_block` 1/2, and 2
/// D3Q19 jobs that request width 2.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Interactive,
    Batch(StorageScheme, usize),
    Wide(StorageScheme),
}

const DECK: [Class; 20] = {
    use Class::*;
    use StorageScheme::{Aa, Ab};
    [
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Interactive,
        Batch(Ab, 1),
        Batch(Ab, 2),
        Batch(Aa, 1),
        Batch(Aa, 1),
        Batch(Aa, 2),
        Batch(Aa, 2),
        Wide(Ab),
        Wide(Aa),
    ]
};
/// One job in this many (dealt from a shuffled deck too) requests VTK
/// output for the density check.
const VTK_EVERY: usize = 8;

fn spec_of(class: Class, vtk: bool, rng: &mut Rng) -> JobSpec {
    let (tenant, priority, lattice, n, storage, time_block, width) = match class {
        Class::Interactive => (
            "interactive",
            Priority::Interactive,
            LatticeKind::D2Q9,
            48,
            StorageScheme::Ab,
            1,
            1,
        ),
        Class::Batch(s, k) => ("batch", Priority::Batch, LatticeKind::D3Q19, 16, s, k, 1),
        Class::Wide(s) => ("wide", Priority::Batch, LatticeKind::D3Q19, 16, s, 1, 2),
    };
    JobSpec {
        name: String::new(),
        case: CaseSpec {
            case: CaseKind::Cavity,
            lattice,
            nx: n,
            ny: n,
            nz: if lattice == LatticeKind::D2Q9 { 1 } else { n },
            tau: 0.6 + 0.1 * rng.unit(),
            u_lattice: 0.05,
            storage,
            time_block,
        },
        steps: 64,
        priority,
        deadline_ms: None,
        outputs: if vtk { vec![OutputKind::Vtk] } else { vec![] },
        chaos_nan_at_step: None,
        width,
        tenant: tenant.into(),
    }
}

/// One job of the arrival schedule.
pub struct Planned {
    pub due: f64,
    pub spec: JobSpec,
}

/// The seeded arrival schedule: `rate × seconds` jobs named `pb-<index>`
/// in due order.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let mut deck = Vec::new();
    let mut vtk = Vec::new();
    (0..(rate * seconds).round() as usize)
        .map(|i| {
            if deck.is_empty() {
                deck = DECK.to_vec();
                rng.shuffle(&mut deck);
            }
            if vtk.is_empty() {
                vtk = (0..VTK_EVERY).map(|j| j == 0).collect();
                rng.shuffle(&mut vtk);
            }
            let jitter = JITTER * (2.0 * rng.unit() - 1.0);
            let class = deck.pop().expect("deck refilled above");
            let mut spec = spec_of(class, vtk.pop().expect("refilled above"), &mut rng);
            spec.name = format!("pb-{i}");
            Planned {
                due: (i as f64 + 0.5 + jitter) / rate,
                spec,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The open-loop generator
// ---------------------------------------------------------------------------

/// Time source of the generator (a fake one in tests).
pub trait Clock {
    /// Seconds since the run started.
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
    fn sleep_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// One request as the generator saw it; all times from run start.
#[derive(Debug, Clone, PartialEq)]
pub struct Sent {
    pub due: f64,
    pub sent: f64,
    pub acked: f64,
    pub ok: bool,
}

impl Sent {
    /// How late the generator sent it.
    pub fn lag(&self) -> f64 {
        self.sent - self.due
    }
    /// Acknowledgement latency, from the due time.
    pub fn ack_latency(&self) -> f64 {
        self.acked - self.due
    }
}

/// Send request `i` at `due[i]` (or as soon after as the generator can),
/// recording every request against its due time, so a stall delays — and is
/// charged to — every request due while it lasts.
pub fn drive(clock: &impl Clock, due: &[f64], mut send: impl FnMut(usize) -> bool) -> Vec<Sent> {
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            clock.sleep_until(d);
            let sent = clock.now();
            let ok = send(i);
            Sent {
                due: d,
                sent,
                acked: clock.now(),
                ok,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// What the reader observed, per job index (times from run start).
#[derive(Default)]
struct Obs {
    started: Vec<Option<f64>>,
    terminal: Vec<Option<(f64, String)>>,
    /// First seen placed on a worker, every `(worker, local id)` it was
    /// seen placed at (the last one current), and when a worker first
    /// reported it completed.
    placed: Vec<Option<f64>>,
    locations: Vec<Vec<(String, u64)>>,
    worker_done: Vec<Option<f64>>,
    /// `(t, seconds)` per status/list/stats read of the front end.
    reads: Vec<(f64, f64)>,
    read_errors: u64,
    cycles: u64,
    /// When the dropped worker was first reported dead.
    dead_seen: Option<f64>,
}

impl Obs {
    fn new(jobs: usize) -> Obs {
        Obs {
            started: vec![None; jobs],
            terminal: vec![None; jobs],
            placed: vec![None; jobs],
            locations: vec![Vec::new(); jobs],
            worker_done: vec![None; jobs],
            ..Obs::default()
        }
    }

    /// Fold one status row of job `i`, read through the front end at `t`.
    fn front(&mut self, i: usize, row: &Json, t: f64) {
        let Some(state) = row.get("state").and_then(Json::as_str) else {
            return;
        };
        let steps = row.get("steps_done").and_then(Json::as_f64).unwrap_or(0.0);
        if state == "running" || steps > 0.0 || is_terminal(state) {
            self.started[i].get_or_insert(t);
        }
        if state == "placed" {
            self.placed[i].get_or_insert(t);
            let at = row
                .get("worker")
                .and_then(Json::as_str)
                .zip(row.get("local").and_then(Json::as_u64));
            if let Some((worker, local)) = at {
                if self.locations[i]
                    .last()
                    .is_none_or(|(w, l)| (w.as_str(), *l) != (worker, local))
                {
                    self.locations[i].push((worker.to_string(), local));
                }
            }
        }
        if is_terminal(state) {
            self.terminal[i].get_or_insert((t, state.to_string()));
        }
    }

    /// Fold the status row of job `i` read from the worker it is placed on.
    fn worker(&mut self, i: usize, row: &Json, t: f64) {
        let state = row.get("state").and_then(Json::as_str).unwrap_or("");
        let steps = row.get("steps_done").and_then(Json::as_f64).unwrap_or(0.0);
        if state == "running" || steps > 0.0 {
            self.started[i].get_or_insert(t);
        }
        if state == "completed" {
            self.worker_done[i].get_or_insert(t);
        }
    }
}

/// A worker the reader polls directly (fleet only). Its state directory
/// is `<pool dir>/<name>`.
#[derive(Clone)]
struct WorkerRef {
    name: String,
    addr: String,
}

struct Shared {
    t0: Instant,
    obs: Mutex<Obs>,
    /// `(job index, front-end id)` of every acknowledged job, in ack order.
    acked: Mutex<Vec<(usize, u64)>>,
    stop: AtomicBool,
    workers: Mutex<Vec<WorkerRef>>,
    /// Name of the worker that was dropped.
    killed: Mutex<Option<String>>,
}

impl Shared {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn timed<T>(&self, reads: &mut Vec<(f64, f64)>, f: impl FnOnce() -> T) -> T {
        let at = self.now();
        let t = Instant::now();
        let out = f();
        reads.push((at, t.elapsed().as_secs_f64()));
        out
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked holding shared state")
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "completed" | "failed" | "cancelled")
}

fn job_index(entry: &Json) -> Option<usize> {
    entry
        .get("name")?
        .as_str()?
        .strip_prefix("pb-")?
        .parse()
        .ok()
}

fn reader(sh: &Shared, client: &ServeClient) {
    let mut outstanding: Vec<(usize, u64)> = Vec::new();
    let mut taken = 0;
    let mut cycle = 0u64;
    while !sh.stop.load(Ordering::Relaxed) {
        cycle += 1;
        {
            let acked = lock(&sh.acked);
            outstanding.extend_from_slice(&acked[taken..]);
            taken = acked.len();
        }
        let mut reads = Vec::new();
        let mut errors = 0;
        let mut rows = Vec::with_capacity(outstanding.len());
        for &(i, id) in &outstanding {
            match sh.timed(&mut reads, || client.status(id)) {
                Ok(row) => rows.push((i, row, sh.now())),
                Err(_) => errors += 1,
            }
        }
        // Where the placed jobs run, read from their workers.
        let mut on_workers = Vec::new();
        let workers = lock(&sh.workers).clone();
        for (i, row, _) in &rows {
            let (Some(name), Some(local)) = (
                row.get("worker").and_then(Json::as_str),
                row.get("local").and_then(Json::as_u64),
            ) else {
                continue;
            };
            if let Some(w) = workers.iter().find(|w| w.name == name) {
                if let Ok(wrow) = ServeClient::new(w.addr.clone()).status(local) {
                    on_workers.push((*i, wrow, sh.now()));
                }
            }
        }
        let mut stats = None;
        if cycle.is_multiple_of(LIST_EVERY) {
            errors += sh.timed(&mut reads, || client.list()).is_err() as u64;
            stats = sh.timed(&mut reads, || client.stats()).ok();
            errors += stats.is_none() as u64;
        }

        let mut o = lock(&sh.obs);
        o.cycles += 1;
        o.reads.extend(reads);
        o.read_errors += errors;
        for (i, row, t) in &rows {
            o.front(*i, row, *t);
        }
        for (i, row, t) in &on_workers {
            o.worker(*i, row, *t);
        }
        if let (Some(s), Some(victim)) = (&stats, lock(&sh.killed).as_deref()) {
            let dead = s.get("workers").and_then(Json::as_arr).is_some_and(|ws| {
                ws.iter().any(|w| {
                    w.get("name").and_then(Json::as_str) == Some(victim)
                        && w.get("alive").and_then(Json::as_bool) == Some(false)
                })
            });
            if dead && o.dead_seen.is_none() {
                o.dead_seen = Some(sh.now());
            }
        }
        outstanding.retain(|(i, _)| o.terminal[*i].is_none());
        drop(o);
        std::thread::sleep(POLL);
    }
}

// ---------------------------------------------------------------------------
// Running the mix against a front end
// ---------------------------------------------------------------------------

/// The fleet the generator submits to: a controller and its workers.
struct Front {
    controller: Controller,
    workers: Vec<(WorkerRef, Server)>,
    next_worker: usize,
    /// Holds every worker's state directory (`<pool dir>/<worker name>`).
    pool_dir: PathBuf,
    /// Given to the controller and every worker it spawns.
    recorder: Recorder,
}

impl Front {
    fn addr(&self) -> String {
        self.controller.addr().to_string()
    }

    /// Register one more worker-mode server with the controller.
    fn add_worker(&mut self) -> Result<(), String> {
        let w = spawn_worker(
            &self.pool_dir,
            self.next_worker,
            &self.addr(),
            self.recorder.clone(),
        )?;
        self.workers.push(w);
        self.next_worker += 1;
        Ok(())
    }

    fn shutdown(self) {
        for (_, w) in self.workers {
            w.shutdown();
        }
        self.controller.shutdown();
    }
}

/// Spawn one worker-mode server with one compute thread and register it.
fn spawn_worker(
    pool_dir: &Path,
    idx: usize,
    controller: &str,
    recorder: Recorder,
) -> Result<(WorkerRef, Server), String> {
    let dir = pool_dir.join(format!("worker-{idx}"));
    let mut cfg = ServeConfig::new(&dir);
    cfg.worker_routes = true;
    cfg.threads = 1;
    cfg.capacity = CAPACITY;
    cfg.recorder = recorder;
    let server = Server::spawn(cfg).map_err(|e| format!("spawn worker: {e}"))?;
    let dir = dir.canonicalize().unwrap_or(dir);
    let w = WorkerRef {
        name: format!("worker-{idx}"),
        addr: server.addr().to_string(),
    };
    let body = Json::obj([
        ("name", Json::str(w.name.clone())),
        ("addr", Json::str(w.addr.clone())),
        ("dir", Json::str(dir.display().to_string())),
    ])
    .to_text();
    match swlb_serve::http::roundtrip(controller, "POST", "/v1/fleet/register", body.as_bytes()) {
        Ok((200, _)) => Ok((w, server)),
        other => Err(format!("register {}: {other:?}", w.name)),
    }
}

fn spawn_front(dir: &Path, recorder: Recorder) -> Result<Front, String> {
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(50);
    cfg.recorder = recorder.clone();
    let controller = Controller::spawn(cfg).map_err(|e| format!("spawn controller: {e}"))?;
    let mut front = Front {
        controller,
        workers: Vec::new(),
        next_worker: 0,
        pool_dir: dir.to_path_buf(),
        recorder,
    };
    for _ in 0..2 {
        front.add_worker()?;
    }
    Ok(front)
}

/// Spawn the front end `SETUP_REPS` times; keep the last.
fn timed_setup(ctx: &Ctx, recorder: &Recorder) -> Result<(Front, Vec<f64>), String> {
    let mut setups = Vec::new();
    for i in 0..SETUP_REPS {
        let dir = ctx.dir.join(format!("setup-{i}"));
        let t0 = Instant::now();
        let front = spawn_front(&dir, recorder.clone())?;
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPS {
            return Ok((front, setups));
        }
        front.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("SETUP_REPS >= 1")
}

/// Everything one open-loop run produced.
struct Run {
    /// The instant every time of the run counts from.
    t0: Instant,
    plan: Vec<Planned>,
    sent: Vec<Sent>,
    obs: Obs,
    /// When the worker was dropped, and the jobs last seen on it and not
    /// yet terminal then.
    kill_at: Option<f64>,
    orphans: Vec<usize>,
    /// Per job index, the completed status row of the worker that finished
    /// it, read when the run ends.
    worker_rows: HashMap<usize, Json>,
    /// The directory holding every worker's state directory.
    out_dir: PathBuf,
}

/// Drive the seeded mix for `seconds` against `front`, shut it down, and
/// check the outputs into `r`.
fn run_mix(r: &mut Report, seed: u64, seconds: f64, mut front: Front) -> Run {
    let plan = schedule(seed, RATE, seconds);
    let out_dir = front.pool_dir.clone();
    let addr = front.addr();
    let sh = Arc::new(Shared {
        t0: Instant::now(),
        obs: Mutex::new(Obs::new(plan.len())),
        acked: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
        workers: Mutex::new(front.workers.iter().map(|(w, _)| w.clone()).collect()),
        killed: Mutex::new(None),
    });
    let specs: Vec<JobSpec> = plan.iter().map(|p| p.spec.clone()).collect();
    let due: Vec<f64> = plan.iter().map(|p| p.due).collect();

    let reader_h = {
        let sh = sh.clone();
        let client = ServeClient::new(addr.clone());
        std::thread::spawn(move || reader(&sh, &client))
    };
    let gen_h = {
        let sh = sh.clone();
        let client = ServeClient::new(addr.clone());
        std::thread::spawn(move || {
            drive(&WallClock(sh.t0), &due, |i| {
                match client.submit(&specs[i]) {
                    Ok(id) => {
                        lock(&sh.acked).push((i, id));
                        true
                    }
                    Err(e) => {
                        eprintln!("perfbench: submit {i}: {e}");
                        false
                    }
                }
            })
        })
    };

    // Drop the second worker without drain half-way through and register a
    // fresh one in its place. Always the same one: which of the two goes
    // changes how many jobs are rescued, and with it every latency.
    let half = sh.t0 + Duration::from_secs_f64(seconds / 2.0);
    std::thread::sleep(half.saturating_duration_since(Instant::now()));
    let (w, server) = front.workers.remove(1);
    lock(&sh.workers).retain(|x| x.name != w.name);
    let orphans = {
        let o = lock(&sh.obs);
        (0..plan.len())
            .filter(|&i| {
                o.terminal[i].is_none()
                    && o.locations[i]
                        .last()
                        .is_some_and(|(name, _)| *name == w.name)
            })
            .collect()
    };
    *lock(&sh.killed) = Some(w.name);
    let kill_at = Some(sh.now());
    drop(server);
    match front.add_worker() {
        Ok(()) => lock(&sh.workers).push(front.workers.last().expect("just added").0.clone()),
        Err(e) => eprintln!("perfbench: replacement worker: {e}"),
    }

    let sent = gen_h.join().expect("generator thread");
    let accepted = sent.iter().filter(|s| s.ok).count();
    let deadline = Instant::now() + DRAIN_LIMIT;
    loop {
        let done = lock(&sh.obs).terminal.iter().flatten().count();
        if done >= accepted || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    sh.stop.store(true, Ordering::Relaxed);
    reader_h.join().expect("reader thread");
    let mut worker_rows = HashMap::new();
    for (w, _) in &front.workers {
        for row in ServeClient::new(w.addr.clone()).list().unwrap_or_default() {
            let completed = row.get("state").and_then(Json::as_str) == Some("completed");
            if let (true, Some(i)) = (completed, job_index(&row)) {
                worker_rows.insert(i, row);
            }
        }
    }
    front.shutdown();
    let obs = std::mem::take(&mut *lock(&sh.obs));
    let run = Run {
        t0: sh.t0,
        plan,
        sent,
        obs,
        kill_at,
        orphans,
        worker_rows,
        out_dir,
    };
    check_run(r, &run);
    run
}

// ---------------------------------------------------------------------------
// Checks and metrics
// ---------------------------------------------------------------------------

/// Density field of a legacy-VTK file in memory order (z fastest).
fn read_vtk_rho(path: &Path, spec: &CaseSpec) -> Option<Vec<f64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let dims = spec.dims();
    let body = text.split("LOOKUP_TABLE default").nth(1)?;
    let vals: Vec<f64> = body
        .split_whitespace()
        .take(dims.cells())
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    if vals.len() != dims.cells() {
        return None;
    }
    // VTK order is x fastest, then y, then z.
    let mut rho = vec![0.0; dims.cells()];
    let mut k = 0;
    for z in 0..dims.nz {
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                rho[dims.idx(x, y, z)] = vals[k];
                k += 1;
            }
        }
    }
    Some(rho)
}

/// The same case solved directly in-process.
fn direct_rho(spec: &JobSpec) -> Result<Vec<f64>, String> {
    let mut s = spec
        .case
        .build_with_width(ThreadPool::new(1), Recorder::disabled(), spec.width)
        .map_err(|e| e.to_string())?;
    s.run_checked(spec.steps, spec.steps)
        .map_err(|e| e.to_string())?;
    Ok(s.rho())
}

fn check_vtk(r: &mut Report, spec: &JobSpec, path: Option<PathBuf>) {
    let ok = path
        .and_then(|p| read_vtk_rho(&p, &spec.case))
        .zip(direct_rho(spec).ok())
        .is_some_and(|(served, direct)| {
            let tol = dispatch_tolerance();
            served.len() == direct.len()
                && served
                    .iter()
                    .zip(&direct)
                    .all(|(a, b)| (a - b).abs() <= tol)
        });
    r.check(&format!("{} density matches a direct solve", spec.name), ok);
}

/// Where job `i` of the run wrote its VTK output: the newest placement
/// whose worker holds the file (a job can move between workers).
fn vtk_path(run: &Run, i: usize) -> Option<PathBuf> {
    run.obs.locations[i]
        .iter()
        .rev()
        .map(|(worker, local)| {
            run.out_dir
                .join(worker)
                .join("jobs")
                .join(format!("job-{local}"))
                .join("fields.vtk")
        })
        .find(|p| p.exists())
}

/// Checks every run makes: each accepted job completed, sampled densities
/// match a direct solve, no read failed.
fn check_run(r: &mut Report, run: &Run) {
    r.attempted += run.plan.len() as u64 + run.obs.reads.len() as u64;
    for (i, p) in run.plan.iter().enumerate() {
        let state = run.obs.terminal[i].as_ref().map(|(_, s)| s.as_str());
        if state != Some("completed") {
            r.fail(format!(
                "{} ended {}",
                p.spec.name,
                state.unwrap_or("unfinished")
            ));
        }
        if p.spec.outputs.contains(&OutputKind::Vtk) {
            check_vtk(r, &p.spec, vtk_path(run, i));
        }
    }
    if run.obs.read_errors > 0 {
        r.fail(format!("{} reads failed", run.obs.read_errors));
    }
}

/// Per-job latencies from each job's due time: `(ack, start, done)`, `None`
/// when not observed (or, for `done`, when the job did not complete).
fn latencies(run: &Run) -> Vec<(Option<f64>, Option<f64>, Option<f64>)> {
    run.plan
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let s = &run.sent[i];
            let done = match &run.obs.terminal[i] {
                Some((t, state)) if state == "completed" => Some(t - p.due),
                _ => None,
            };
            (
                s.ok.then(|| s.ack_latency()),
                run.obs.started[i].map(|t| t - p.due),
                done,
            )
        })
        .collect()
}

/// The end-to-end metrics: those every workload reports, with a job (due
/// to terminal) as the operation `latency_*` times, and the service's own
/// latencies as details.
fn e2e_metrics(r: &mut Report, run: &Run, setups: &[f64]) {
    let lat = latencies(run);
    let pick =
        |f: &dyn Fn(usize) -> Option<f64>| -> Vec<f64> { (0..lat.len()).filter_map(f).collect() };
    let interactive = |i: usize| run.plan[i].spec.priority == Priority::Interactive;
    let reads: Vec<f64> = run.obs.reads.iter().map(|(_, s)| *s).collect();
    let starts = pick(&|i| lat[i].1);
    r.summary(
        Some("latency_p50_s"),
        Some("latency_tail_s"),
        &pick(&|i| lat[i].2),
        true,
    );
    r.metric("mlups", job_work(run).mlups(), "MLUPS");
    r.summary(Some("ack_latency_p50_s"), None, &pick(&|i| lat[i].0), false);
    r.summary(
        Some("start_latency_p50_s"),
        Some("start_latency_tail_s"),
        &starts,
        false,
    );
    r.summary(
        None,
        Some("interactive_start_tail_s"),
        &pick(&|i| lat[i].1.filter(|_| interactive(i))),
        false,
    );
    r.summary(None, Some("read_latency_tail_s"), &reads, false);
    r.metric("setup_s", median(setups), "s");
    r.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    r.success_rate();
    generator_lag(r, run, false);
    r.detail(
        "offered",
        [("rate_jobs_per_s", RATE), ("jobs", run.plan.len() as f64)],
    );
}

/// Lattice work of the completed jobs as their workers report it.
#[derive(Default)]
struct JobWork {
    /// Cell updates.
    updates: f64,
    /// Bytes moved, computed from each job's storage scheme and depth.
    bytes: f64,
    /// Seconds the updates take at the median seconds per update of their
    /// job class (lattice, storage, depth, width), so that a job the OS
    /// descheduled mid-slice does not swing it.
    compute_s: f64,
    /// Seconds the workers report running the jobs.
    run_s: f64,
}

impl JobWork {
    fn mlups(&self) -> f64 {
        self.updates / self.compute_s / 1e6
    }
}

fn job_work(run: &Run) -> JobWork {
    let mut w = JobWork::default();
    // Per job class: its updates and each job's seconds per update.
    let mut classes: BTreeMap<String, (f64, Vec<f64>)> = BTreeMap::new();
    for (&i, row) in &run.worker_rows {
        let (mlups, steps) = (status_f64(row, "mlups"), status_f64(row, "steps_done"));
        if mlups <= 0.0 {
            continue;
        }
        let spec = &run.plan[i].spec;
        let case = &spec.case;
        let updates = case.dims().cells() as f64 * steps;
        w.updates += updates;
        w.bytes +=
            updates * crate::kernel::bytes_per_lup(case.lattice.q(), case.storage, case.time_block);
        let key = format!(
            "{:?}-{:?}-{}-{}",
            case.lattice, case.storage, case.time_block, spec.width
        );
        let class = classes.entry(key).or_default();
        class.0 += updates;
        class.1.push(1.0 / (mlups * 1e6));
        w.run_s += updates / (mlups * 1e6);
    }
    w.compute_s = classes
        .values()
        .map(|(updates, per_update)| updates * median(per_update))
        .sum();
    w
}

fn generator_lag(r: &mut Report, run: &Run, per_layer: bool) {
    let mut lags: Vec<f64> = run.sent.iter().map(Sent::lag).collect();
    lags.sort_by(f64::total_cmp);
    let Some(&max) = lags.last() else { return };
    let p99 = stats::percentile(&lags, 99.0);
    if per_layer {
        r.metric("bench.generator_lag_p99_s", p99, "s");
        r.metric("bench.generator_lag_max_s", max, "s");
    } else {
        r.detail("bench.generator_lag", [("p99_s", p99), ("max_s", max)]);
    }
}

fn status_f64(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Record each job's timeline as spans: the job, with its ack, queue wait
/// and run below it.
fn trace_jobs(ctx: &Ctx, run: &Run) {
    let t = &ctx.trace;
    // Run times count from the run's start; spans from the tracer's.
    let base = t.offset_of(run.t0);
    for (i, (p, l)) in run.plan.iter().zip(latencies(run)).enumerate() {
        let (Some(start), Some(done)) = (l.1, l.2) else {
            continue;
        };
        let (due, acked) = (base + p.due, base + run.sent[i].acked);
        let job = Some(i as u64);
        let root = t.record("job", (due, due + done), None, job);
        t.record("job.ack", (due, acked), root, job);
        t.record("job.queue_wait", (acked, due + start), root, job);
        t.record("job.run", (due + start, due + done), root, job);
    }
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

/// Write back dirty pages left by earlier work, so their writeback does not
/// land in the journal fsyncs measured next.
fn flush_writeback() {
    let _ = std::process::Command::new("sync").status();
}

fn job_latency_p50(run: &Run) -> f64 {
    let done: Vec<f64> = latencies(run).into_iter().filter_map(|l| l.2).collect();
    if done.is_empty() {
        f64::NAN
    } else {
        median(&done)
    }
}

pub fn fleet_churn(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    if !ctx.trace.enabled() {
        // Set-up creates journals too: write back what came before first.
        flush_writeback();
        let (front, setups) = timed_setup(ctx, &Recorder::disabled())?;
        flush_writeback();
        let run = run_mix(&mut r, ctx.seed, ctx.seconds, front);
        e2e_metrics(&mut r, &run, &setups);
        return Ok(r);
    }
    let probe = {
        let _s = ctx.trace.open("host.copy_probe", None, None);
        host::copy_probe(host::nproc(), 5)
    };
    r.probe(&probe);
    // Traced: an untraced run of half the length first, the baseline of
    // obs.trace_overhead, then a traced one with the recorders enabled.
    let half = ctx.seconds / 2.0;
    let front = spawn_front(&ctx.dir.join("untraced"), Recorder::disabled())?;
    let base = run_mix(&mut r, ctx.seed, half, front);
    let recorder = Recorder::enabled();
    let front = spawn_front(&ctx.dir.join("traced"), recorder.clone())?;
    let span = ctx.trace.open("fleet.run", None, None);
    let run = run_mix(&mut r, ctx.seed, half, front);
    drop(span);
    r.metric(
        "obs.trace_overhead",
        job_latency_p50(&run) / job_latency_p50(&base),
        "ratio",
    );
    trace_jobs(ctx, &run);
    generator_lag(&mut r, &run, true);
    let accepted = run.sent.iter().filter(|s| s.ok).count().max(1) as f64;
    r.metric(
        "io.journal.fsync_ms_per_job",
        recorder.counter("journal.fsync_ns").get() as f64 / 1e6 / accepted,
        "ms",
    );
    // Workers run one compute thread each: their kernels are held against
    // the one-thread copy bandwidth.
    let work = job_work(&run);
    r.metric("core.kernels.mlups", work.mlups(), "MLUPS");
    r.metric(
        "core.kernels.bytes_per_lup",
        work.bytes / work.updates,
        "B/LUP",
    );
    r.metric(
        "core.kernels.pct_bw",
        100.0 * work.bytes / work.compute_s / (probe.gbs_1t * 1e9),
        "%",
    );
    attribution(&mut r, &run, &work);
    serve_layers(&mut r, &run, &recorder);
    fleet_layers(&mut r, &run, &recorder)?;
    cases_layer(ctx, &mut r, &run)?;
    checkpoint_layer(ctx, &mut r, &run)?;
    Ok(r)
}

/// `serve.scheduler`, from the workers' recorders and final job rows.
fn serve_layers(r: &mut Report, run: &Run, recorder: &Recorder) {
    let waits: Vec<f64> = (0..run.plan.len())
        .filter_map(|i| Some(run.obs.started[i]? - run.sent[i].acked))
        .collect();
    r.summary(Some("serve.scheduler.queue_wait_s_p50"), None, &waits, true);
    let slice = recorder
        .snapshot(0)
        .and_then(|s| {
            s.histograms
                .into_iter()
                .find(|(n, _)| n == "serve.slice_ms")
        })
        .map(|(_, h)| histogram_median(&h));
    r.metric("serve.scheduler.slice_ms_p50", slice.unwrap_or(0.0), "ms");
    let jobs = run.plan.len() as f64;
    r.metric(
        "serve.scheduler.preemptions_per_job",
        recorder.counter("serve.preemptions").get() as f64 / jobs,
        "count",
    );
    let reshards: f64 = run
        .worker_rows
        .values()
        .map(|row| status_f64(row, "reshards"))
        .sum();
    r.metric("serve.scheduler.reshards_per_job", reshards / jobs, "count");
}

/// Median of a fixed-bucket histogram, interpolated linearly inside the
/// bucket that holds it.
fn histogram_median(h: &swlb_obs::HistogramSnapshot) -> f64 {
    let half = h.count as f64 / 2.0;
    let mut below = 0.0;
    let mut lo = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        let hi = h.bounds.get(i).copied().unwrap_or(lo * 2.0);
        if below + c as f64 >= half && c > 0 {
            return lo + (hi - lo) * (half - below) / c as f64;
        }
        below += c as f64;
        lo = hi;
    }
    lo
}

/// Split the jobs' latency into ack, wait (ack until first seen running:
/// placement and the worker's queue), compute (the workers' own run time),
/// sync (a worker reporting it completed until the controller does),
/// observation lag and what none of these covers.
fn attribution(r: &mut Report, run: &Run, work: &JobWork) {
    // Start and terminal are each seen half a poll cycle late on average.
    let cycle = run.plan.last().map_or(0.0, |p| p.due) / run.obs.cycles.max(1) as f64;
    let o = &run.obs;
    let (mut total, mut ack, mut wait, mut sync, mut obs) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (i, l) in latencies(run).into_iter().enumerate() {
        let (Some(a), Some(done), true) = (l.0, l.2, run.worker_rows.contains_key(&i)) else {
            continue;
        };
        total += done;
        ack += a;
        wait += o.started[i].map_or(0.0, |t| t - run.sent[i].acked - cycle / 2.0);
        sync += o.worker_done[i]
            .zip(o.terminal[i].as_ref())
            .map_or(0.0, |(w, (t, _))| t - w);
        obs += cycle;
    }
    let total = total.max(f64::MIN_POSITIVE);
    let compute = work.run_s;
    r.metric("core.kernels.compute_share", compute / total, "ratio");
    r.metric(
        "obs.unattributed_share",
        (total - ack - wait - compute - sync - obs) / total,
        "ratio",
    );
    r.detail(
        "attribution_shares",
        [
            ("ack", ack / total),
            ("wait", wait / total),
            ("compute", compute / total),
            ("sync", sync / total),
            ("observation_lag", obs / total),
            ("poll_cycle_s", cycle),
        ],
    );
}

/// `sim.cases`: timed `run_checked` slices of one width-2 mix spec at width
/// 1 and at width 2.
fn cases_layer(ctx: &Ctx, r: &mut Report, run: &Run) -> Result<(), String> {
    let spec = run
        .plan
        .iter()
        .find(|p| p.spec.width == 2)
        .map(|p| p.spec.clone())
        .ok_or("no width-2 job in the mix")?;
    let slice_steps = ServeConfig::new("").slice_steps;
    let mut per_width = Vec::new();
    for (width, name) in [(1u32, "sim.cases.slice_w1"), (2, "sim.cases.slice_w2")] {
        let mut s = spec
            .case
            .build_with_width(ThreadPool::new(host::nproc()), Recorder::disabled(), width)
            .map_err(|e| e.to_string())?;
        s.run_checked(slice_steps, slice_steps)
            .map_err(|e| e.to_string())?;
        let slices = (0..6)
            .map(|_| {
                let span = ctx.trace.open(name, None, None);
                s.run_checked(slice_steps, slice_steps).map(|()| span.end())
            })
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|e| e.to_string())?;
        per_width.push(median(&slices));
    }
    r.metric("sim.cases.slice_s_w1", per_width[0], "s");
    r.metric("sim.cases.slice_s_w2", per_width[1], "s");
    r.metric(
        "sim.cases.elastic_overhead",
        per_width[1] / per_width[0],
        "ratio",
    );
    Ok(())
}

/// `io.checkpoint`: the largest mix job through a `CheckpointStore`.
fn checkpoint_layer(ctx: &Ctx, r: &mut Report, run: &Run) -> Result<(), String> {
    let spec = run
        .plan
        .iter()
        .max_by_key(|p| p.spec.case.dims().cells() * p.spec.case.lattice.q() as usize)
        .map(|p| p.spec.clone())
        .ok_or("empty mix")?;
    let mut s = spec
        .case
        .build(ThreadPool::new(1), Recorder::disabled())
        .map_err(|e| e.to_string())?;
    s.run_checked(8, 8).map_err(|e| e.to_string())?;
    let ck = s.capture_chunked();
    let store = CheckpointStore::new(ctx.dir.join("ckpt-probe"), 2).map_err(|e| e.to_string())?;
    let (mut saves, mut loads, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..5 {
        let span = ctx.trace.open("io.checkpoint.save", None, None);
        let path = store.save_chunked(&ck).map_err(|e| e.to_string())?;
        saves.push(span.end());
        bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let span = ctx.trace.open("io.checkpoint.load", None, None);
        let loaded = store.load_latest_valid_any().map_err(|e| e.to_string())?;
        loads.push(span.end());
        r.check(
            "checkpoint loads back",
            loaded.is_some_and(|(c, _)| c.step() == ck.step),
        );
    }
    r.metric("io.checkpoint.save_s", median(&saves), "s");
    r.metric("io.checkpoint.load_s", median(&loads), "s");
    r.metric("io.checkpoint.bytes", bytes as f64, "B");
    Ok(())
}

// ---------------------------------------------------------------------------
// fleet-churn
// ---------------------------------------------------------------------------

fn fleet_layers(r: &mut Report, run: &Run, recorder: &Recorder) -> Result<(), String> {
    let o = &run.obs;
    let n = run.plan.len();
    let acks: Vec<f64> = run
        .sent
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.acked - s.sent)
        .collect();
    r.summary(Some("fleet.controller.ack_s"), None, &acks, true);
    let placement: Vec<f64> = (0..n)
        .filter_map(|i| Some(o.placed[i]? - run.sent[i].acked))
        .collect();
    r.summary(
        Some("fleet.controller.placement_s_p50"),
        None,
        &placement,
        true,
    );
    let sync: Vec<f64> = (0..n)
        .filter_map(|i| Some(o.terminal[i].as_ref()?.0 - o.worker_done[i]?))
        .collect();
    r.summary(Some("fleet.controller.sync_lag_s"), None, &sync, true);
    let kill_at = run.kill_at.ok_or("no worker was replaced")?;
    // Rescue: the jobs last seen on the dropped worker, from the drop until
    // the controller reports them terminal.
    let rescued: Vec<f64> = run
        .orphans
        .iter()
        .filter_map(|&i| Some(o.terminal[i].as_ref()?.0 - kill_at))
        .collect();
    if !rescued.is_empty() {
        r.metric("fleet.controller.rescue_s", median(&rescued), "s");
    }
    r.detail("fleet.rescued_jobs", [("jobs", rescued.len() as f64)]);
    for counter in ["placements", "migrations", "rescues"] {
        let v = recorder.counter(&format!("fleet.{counter}")).get() as f64;
        r.metric(&format!("fleet.controller.{counter}"), v, "count");
    }
    r.metric(
        "fleet.registry.detect_s",
        o.dead_seen.map_or(0.0, |t| t - kill_at),
        "s",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when the generator sleeps or a send takes
    /// time.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn latency_is_charged_from_the_due_time_under_a_stalled_generator() {
        let clock = FakeClock(Cell::new(0.0));
        let due: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        // Request 3 stalls the generator for a second; the rest take 1 ms.
        let sent = drive(&clock, &due, |i| {
            clock
                .0
                .set(clock.0.get() + if i == 3 { 1.0 } else { 0.001 });
            true
        });
        assert!((sent[2].ack_latency() - 0.001).abs() < 1e-9);
        assert!((sent[3].ack_latency() - 1.0).abs() < 1e-9);
        // Request 4 was due at 0.4 but could only go out at 1.3: its
        // latency counts the 0.9 s it waited behind the stall.
        assert!((sent[4].lag() - 0.9).abs() < 1e-9, "{:?}", sent[4]);
        assert!((sent[4].ack_latency() - 0.901).abs() < 1e-9);
        // Every request due during the stall is charged for it.
        for s in &sent[4..10] {
            assert!(s.ack_latency() > 1.3 - s.due - 1e-9, "{s:?}");
        }
        // Measured from send time instead, the stall would vanish.
        assert!(sent[5].acked - sent[5].sent < 0.01);
    }

    #[test]
    fn schedule_is_seeded_and_keeps_the_mix_proportions() {
        let a = schedule(7, 20.0, 3.0);
        let b = schedule(7, 20.0, 3.0);
        assert_eq!(a.len(), 60);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.spec == y.spec));
        assert!(a
            .iter()
            .zip(schedule(8, 20.0, 3.0))
            .any(|(x, y)| x.spec != y.spec));
        let count = |f: &dyn Fn(&Planned) -> bool| a.iter().filter(|p| f(p)).count();
        assert_eq!(count(&|p| p.spec.priority == Priority::Interactive), 36);
        assert_eq!(count(&|p| p.spec.width == 2), 6);
        assert!(count(&|p| p.spec.outputs.contains(&OutputKind::Vtk)) >= 60 / VTK_EVERY);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|p| p.due >= 0.0 && p.due < 3.0 && p.spec.validate().is_ok()));
    }

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        let h = swlb_obs::HistogramSnapshot {
            bounds: vec![1.0, 4.0, 16.0],
            counts: vec![0, 4, 4, 0],
            sum: 0.0,
            count: 8,
        };
        assert!((histogram_median(&h) - 4.0).abs() < 1e-12);
    }
}
