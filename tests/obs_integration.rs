//! Observability acceptance suite: the three end-to-end guarantees the
//! `swlb-obs` facade makes.
//!
//! 1. **Disabled is free**: a solver built without a recorder performs zero
//!    heap allocations per step (asserted with a counting global allocator).
//! 2. **Exports are well-formed**: an instrumented run emits structurally
//!    valid JSONL with the documented keys (`docs/OBSERVABILITY.md`).
//! 3. **Counters tell the truth**: after a chaos run with injected faults,
//!    the recovery counters agree with the [`RecoveryReport`] the recovery
//!    driver returns, and the halo retry counter reflects the healed fault.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use swlb_comm::{ChaosComm, Communicator, FaultPlan, World};
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::D2Q9;
use swlb_core::layout::PopField;
use swlb_core::prelude::Solver;
use swlb_io::CheckpointStore;
use swlb_sim::prelude::{JsonlSink, Recorder};
use swlb_sim::{
    run_with_recovery_instrumented, DistributedSolver, ExchangeMode, HaloRetry, RecoveryPolicy,
};

// ---------------------------------------------------------------------------
// Counting allocator. Per-thread counters keep the zero-allocation assertion
// immune to the other tests in this binary running on sibling threads. The
// `const` initializer matters: it makes the TLS slot allocation-free, so the
// hook cannot recurse into itself.
// ---------------------------------------------------------------------------

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Guarantee 1: with the default (disabled) recorder, the instrumented
/// `Solver::step` allocates nothing — observability off costs nothing.
#[test]
fn disabled_recorder_step_makes_no_allocations() {
    let dims = GridDims::new2d(24, 24);
    let mut s = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8)).build();
    s.flags_mut().set_box_walls();
    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
    s.initialize_uniform(1.0, [0.0; 3]);
    assert!(!s.recorder().is_enabled());

    // Warm up: the first step builds the cached row mask and active-cell count.
    s.run(3);

    let before = thread_allocs();
    s.run(32);
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state step with a disabled recorder must not allocate"
    );
    assert_eq!(s.step_count(), 35);
}

/// Guarantee 1, distributed: with metrics off, the steady-state
/// `DistributedSolver::step` — halo pack, framing, buffered send/receive,
/// pooled inner-rectangle dispatch, boundary ring — performs zero heap
/// allocations on the rank thread. The warm-up steps let every reusable
/// buffer (frame buffers, the world's payload freelist, channel queues, the
/// unexpected-message stash) reach its steady capacity.
#[test]
fn distributed_steady_state_step_makes_no_allocations() {
    use swlb_core::lattice::D3Q19;
    use swlb_core::parallel::ThreadPool;

    let global = GridDims::new(8, 4, 4);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.04, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

    let flags_ref = &flags;
    let out = World::new(2).run(|comm| {
        let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
            .exchange(ExchangeMode::OnTheFly)
            .pool(ThreadPool::new(2))
            .build();
        assert!(!s.recorder().is_enabled());
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(30).unwrap();

        // Every remaining allocation is a one-time capacity growth (a freelist
        // or queue hitting a new concurrency high-water mark), monotone toward
        // a finite ceiling — so keep warming until a full window is clean on
        // EVERY rank. The break must be collective (allreduce over the window
        // counts): a rank that stopped stepping alone would starve its
        // neighbor's halo receives. The reduction itself allocates, but sits
        // outside the measured window.
        let mut allocs = u64::MAX;
        for _ in 0..10 {
            let before = thread_allocs();
            s.run(20).unwrap();
            allocs = thread_allocs() - before;
            let worst = comm.allreduce_max(&[allocs as f64]).unwrap()[0];
            if worst == 0.0 {
                break;
            }
        }
        allocs
    });
    for (rank, allocs) in out.iter().enumerate() {
        assert_eq!(
            *allocs, 0,
            "rank {rank}: distributed stepping with metrics off must reach a \
             zero-allocation steady state (20 consecutive allocation-free steps)"
        );
    }
}

// ---------------------------------------------------------------------------
// JSONL structural validation (no JSON parser in the dependency tree — a
// brace/bracket balance walk that honors string escapes is enough to reject
// any malformed line).
// ---------------------------------------------------------------------------

fn assert_structurally_valid_json(line: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(
            depth_obj >= 0 && depth_arr >= 0,
            "unbalanced close in {line}"
        );
    }
    assert!(!in_str, "unterminated string in {line}");
    assert_eq!(depth_obj, 0, "unbalanced braces in {line}");
    assert_eq!(depth_arr, 0, "unbalanced brackets in {line}");
    assert!(line.starts_with('{') && line.ends_with('}'));
}

/// Guarantee 2: an instrumented shared-memory run exports one well-formed
/// JSONL record per flush period, carrying the documented keys.
#[test]
fn enabled_recorder_exports_valid_jsonl() {
    let path = std::env::temp_dir().join(format!("swlb-obs-int-{}.jsonl", std::process::id()));
    let rec = Recorder::enabled();
    rec.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
    rec.set_flush_every(8);

    let dims = GridDims::new2d(16, 16);
    let mut s = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
        .recorder(rec.clone())
        .build();
    s.flags_mut().set_box_walls();
    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
    s.initialize_uniform(1.0, [0.0; 3]);
    s.run(24);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "24 steps / flush_every 8");
    for line in &lines {
        assert_structurally_valid_json(line);
        assert!(line.contains("\"phases\""), "{line}");
        assert!(line.contains("\"collide_stream\""), "{line}");
        assert!(line.contains("\"counters\""), "{line}");
        assert!(line.contains("\"gauges\""), "{line}");
        assert!(line.contains("\"mlups\""), "{line}");
    }
    assert!(lines[0].starts_with("{\"step\":8,"));
    assert!(lines[2].starts_with("{\"step\":24,"));
    assert!(
        lines[2].contains("\"steps\":24"),
        "step counter reaches the run length"
    );
    std::fs::remove_file(&path).unwrap();
}

/// Guarantee 3: after a 2-rank chaos run — one delayed halo message (healed
/// in place by the retry loop) plus one injected divergence (forces a
/// rollback) — every rank's counters agree with its `RecoveryReport`, and the
/// retry counter saw the delay.
#[test]
fn chaos_run_counters_match_recovery_report() {
    let global = GridDims::new2d(12, 12);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

    let plan = Arc::new(FaultPlan::new(0xAB5).delay_message(0, 1, 3, Duration::from_millis(80)));
    let dir = std::env::temp_dir().join(format!("swlb-obs-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 3).unwrap();

    let (flags_ref, store_ref) = (&flags, &store);
    let out = World::new(2).run_chaos(&plan, |comm| {
        let rec = Recorder::enabled();
        let mut s = DistributedSolver::<D2Q9, ChaosComm>::builder(&comm, global, flags_ref, coll)
            .exchange(ExchangeMode::Sequential)
            .recorder(rec.clone())
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.set_halo_retry(HaloRetry::snappy());
        let policy = RecoveryPolicy {
            checkpoint_every: 4,
            backoff: Duration::from_millis(1),
            status_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let mut injected = false;
        let report = run_with_recovery_instrumented(&mut s, 12, &policy, store_ref, |s| {
            if !injected && s.rank() == 0 && s.step_count() == 6 {
                injected = true;
                let dims = s.local_flags().dims();
                let cell = dims.idx(2, 2, 0);
                s.local_populations_mut().set(cell, 0, f64::NAN);
            }
        })
        .unwrap();
        let snap = rec.snapshot(report.steps_completed).unwrap();
        (comm.rank(), report, snap)
    });

    let mut total_retries = 0u64;
    for (rank, report, snap) in &out {
        assert_eq!(report.steps_completed, 12, "rank {rank}");
        assert!(report.restarts >= 1, "the NaN injection forces a rollback");
        assert_eq!(
            snap.counter("recovery.rollbacks"),
            Some(report.restarts as u64),
            "rank {rank}"
        );
        assert_eq!(
            snap.counter("recovery.wasted_steps"),
            Some(report.wasted_steps),
            "rank {rank}"
        );
        if *rank == 0 {
            assert_eq!(
                snap.counter("recovery.checkpoints"),
                Some(report.checkpoints_written),
                "rank 0 writes the checkpoints"
            );
            assert!(report.checkpoints_written >= 1);
        }
        total_retries += snap.counter("halo.retries").unwrap_or(0);
    }
    assert!(
        total_retries >= 1,
        "the delayed halo message must show up in the retry counter"
    );
    std::fs::remove_dir_all(store.dir()).unwrap();
}
