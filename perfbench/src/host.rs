//! Host facts: thread count, last-level cache, peak RSS, and a STREAM-style
//! copy probe that gives the bandwidth denominator of `core.kernels.pct_bw`.

use std::time::Instant;

/// Threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the highest-level cache sysfs reports for cpu0, in bytes.
pub fn llc_bytes() -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok().map(|m| m << 20),
                None => size.parse().ok(),
            },
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of the copy probe.
pub struct CopyProbe {
    /// Elements per array (f64).
    pub elems: usize,
    pub llc_bytes: u64,
    /// GB/s at 1 thread and at `threads` threads, medians of the passes.
    pub gbs_1t: f64,
    pub gbs_nt: f64,
    pub threads: usize,
}

/// Bytes a copy pass moves, computed (never measured) in the STREAM
/// convention: one 8-byte read plus one 8-byte write per element.
pub fn copy_bytes(elems: usize) -> f64 {
    16.0 * elems as f64
}

fn parallel_copy(dst: &mut [f64], src: &[f64], threads: usize) {
    let chunk = dst.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
            s.spawn(move || d.copy_from_slice(c));
        }
    });
}

/// STREAM-style copy with each array at least four times the last-level
/// cache, `passes` timed passes per thread count after one warm-up.
pub fn copy_probe(threads: usize, passes: usize) -> CopyProbe {
    let llc = llc_bytes().unwrap_or(64 << 20);
    let elems = (4 * llc).div_ceil(8) as usize;
    let src = vec![1.0f64; elems];
    let mut dst = vec![0.0f64; elems];
    let mut measure = |t: usize| {
        parallel_copy(&mut dst, &src, t);
        let rates: Vec<f64> = (0..passes)
            .map(|_| {
                let t0 = Instant::now();
                parallel_copy(&mut dst, &src, t);
                copy_bytes(elems) / t0.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        crate::stats::median(&rates)
    };
    let gbs_1t = measure(1);
    let gbs_nt = measure(threads);
    assert!(dst[elems - 1] == 1.0, "copy probe lost data");
    CopyProbe {
        elems,
        llc_bytes: llc,
        gbs_1t,
        gbs_nt,
        threads,
    }
}
