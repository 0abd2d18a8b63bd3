//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, written out once when the run ends.
//!
//! A disabled tracer (the end-to-end runs) records nothing and reads no
//! clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use swlb_serve::Json;

/// One finished span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    /// Benchmark-side job index, for spans that belong to one job.
    pub job: Option<u64>,
}

struct Inner {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Cheap to clone; clones share one span list.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

/// An open span; records itself when ended or dropped.
pub struct Open {
    tracer: Tracer,
    id: u64,
    name: &'static str,
    start: f64,
    parent: Option<u64>,
    job: Option<u64>,
    done: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer(enabled.then(|| {
            Arc::new(Inner {
                t0: Instant::now(),
                next: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn now(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |i| i.t0.elapsed().as_secs_f64())
    }

    /// Open a span under `parent` (a span id), optionally tagged with a job.
    pub fn open(&self, name: &'static str, parent: Option<u64>, job: Option<u64>) -> Open {
        let id = self
            .0
            .as_ref()
            .map_or(0, |i| i.next.fetch_add(1, Ordering::Relaxed));
        Open {
            tracer: self.clone(),
            id,
            name,
            start: self.now(),
            parent,
            job,
            done: !self.enabled(),
        }
    }

    /// Record an interval measured elsewhere (e.g. a job's ack → terminal
    /// window observed by the poller) as a span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        (start, end): (f64, f64),
        parent: Option<u64>,
        job: Option<u64>,
    ) -> Option<u64> {
        let inner = self.0.as_ref()?;
        let id = inner.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            name,
            start,
            end,
            parent,
            job,
        });
        Some(id)
    }

    fn push(&self, span: Span) {
        if let Some(inner) = &self.0 {
            inner
                .spans
                .lock()
                .expect("span list lock poisoned")
                .push(span);
        }
    }

    /// Seconds since the tracer started, for intervals fed to [`record`].
    ///
    /// [`record`]: Tracer::record
    pub fn offset_of(&self, t: Instant) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |i| t.saturating_duration_since(i.t0).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |i| {
            i.spans.lock().expect("span list lock poisoned").clone()
        })
    }

    /// Per span name: `(count, total seconds, total self seconds)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += crate::stats::self_time((s.start, s.end), kids);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_out(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::num(v as f64));
            text.push_str(
                &Json::obj([
                    ("id", Json::num(s.id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_s", Json::num(s.start)),
                    ("end_s", Json::num(s.end)),
                    ("parent", opt(s.parent)),
                    ("job", opt(s.job)),
                ])
                .to_text(),
            );
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

impl Open {
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled().then_some(self.id)
    }

    /// Close the span; returns its duration in seconds (0 when disabled).
    pub fn end(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        if self.done {
            return 0.0;
        }
        self.done = true;
        let end = self.tracer.now();
        self.tracer.push(Span {
            id: self.id,
            name: self.name,
            start: self.start,
            end,
            parent: self.parent,
            job: self.job,
        });
        end - self.start
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.open("x", None, None);
        assert_eq!(s.end(), 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_is_taken_from_the_children_of_each_span() {
        let t = Tracer::new(true);
        let root = t.record("root", (0.0, 10.0), None, None);
        t.record("child", (1.0, 4.0), root, Some(7));
        t.record("child", (3.0, 6.0), root, Some(7));
        let outer = t.open("outer", None, None);
        t.open("inner", outer.id(), None).end();
        let outer_s = outer.end();
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer_s >= inner.end - inner.start);
        let by = t.by_name();
        let (n, total, own) = by["root"];
        assert_eq!(n, 1);
        assert!((total - 10.0).abs() < 1e-12 && (own - 5.0).abs() < 1e-12);
        let (n, total, own) = by["child"];
        assert_eq!(n, 2);
        assert!((total - 6.0).abs() < 1e-12 && (own - 6.0).abs() < 1e-12);
    }
}
