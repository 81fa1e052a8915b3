//! Benchmark-side spans: one around each call into a layer, recorded in
//! memory and written out when the run ends. Nothing here touches the
//! product crates; a layer is seen only through the time its public calls
//! take.

use dlr_core::scoring::DocumentScorer;
use dlr_core::serve::{ScoreError, ServedBy};
use dlr_serve::{BatchEngine, RequestMeta};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Spans kept per run; later ones are counted in `dropped` instead, so a
/// long phase cannot grow the trace file without bound.
const MAX_SPANS: usize = 200_000;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `core.scoring.score_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one began.
    pub parent: Option<u32>,
    /// Request, batch or call number the span belongs to; 0 for none.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The innermost span open on this thread.
    static OPEN: Cell<Option<u32>> = const { Cell::new(None) };
}

/// In-memory span store shared by the load generator and the wrappers the
/// server's dispatcher thread calls through.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, child of whatever span is open
    /// on this thread.
    pub fn scope<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(Cell::get);
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
            if spans.len() < MAX_SPANS {
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    request,
                });
                u32::try_from(spans.len() - 1).ok()
            } else {
                None
            }
        };
        let Some(index) = index else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return f();
        };
        OPEN.with(|open| open.set(Some(index)));
        let result = f();
        OPEN.with(|open| open.set(parent));
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans[index as usize].end_ns = end_ns;
        result
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Each span's duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Write `spans` as JSON: a name table, the spans as
/// `[name, start_ns, end_ns, parent or -1, request]` rows, and per name the
/// call count with total and self time.
pub fn write_trace_file(
    path: &std::path::Path,
    meta_json: &str,
    spans: &[Span],
    dropped: u64,
) -> std::io::Result<()> {
    let own = self_times_ns(spans);
    let mut names: Vec<&'static str> = Vec::new();
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(&own) {
        if !names.contains(&span.name) {
            names.push(span.name);
        }
        let row = by_name.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.duration_ns();
        row.2 += own_ns;
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"meta\":{meta_json},\"dropped\":{dropped},\"layers\":{{"
    )?;
    for (i, (name, (calls, total, own_ns))) in by_name.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(
            w,
            "{comma}\"{name}\":{{\"calls\":{calls},\"total_us\":{:.3},\"self_us\":{:.3}}}",
            *total as f64 / 1e3,
            *own_ns as f64 / 1e3
        )?;
    }
    write!(w, "}},\"names\":[")?;
    for (i, name) in names.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(w, "{comma}\"{name}\"")?;
    }
    write!(w, "],\"spans\":[")?;
    for (i, span) in spans.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let name = names
            .iter()
            .position(|n| *n == span.name)
            .expect("every span name was tabled above");
        let parent = span.parent.map_or(-1, i64::from);
        write!(
            w,
            "{comma}[{name},{},{},{parent},{}]",
            span.start_ns, span.end_ns, span.request
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// A [`DocumentScorer`] seen from outside: with a tracer every batch is one
/// span, without one the call goes straight through.
pub struct TimedScorer {
    inner: Box<dyn DocumentScorer + Send>,
    tracer: Option<Arc<Tracer>>,
    span: &'static str,
    calls: u64,
}

impl TimedScorer {
    pub fn new(
        inner: Box<dyn DocumentScorer + Send>,
        tracer: Option<Arc<Tracer>>,
        span: &'static str,
    ) -> TimedScorer {
        TimedScorer {
            inner,
            tracer,
            span,
            calls: 0,
        }
    }
}

impl DocumentScorer for TimedScorer {
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
        match &self.tracer {
            Some(tracer) => {
                self.calls += 1;
                let inner = &mut self.inner;
                tracer.scope(self.span, self.calls, || inner.score_batch(rows, out));
            }
            None => self.inner.score_batch(rows, out),
        }
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Engine time and documents summed over the micro-batches run so far. The
/// dispatcher thread adds, the load generator reads at block boundaries, so
/// a served workload knows its scoring time per document without a phase of
/// direct scoring beside the server.
#[derive(Debug, Default)]
pub struct EngineMeter {
    busy_ns: AtomicU64,
    docs: AtomicU64,
}

impl EngineMeter {
    /// Nanoseconds inside the engine and documents it was handed, so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.busy_ns.load(Ordering::Relaxed),
            self.docs.load(Ordering::Relaxed),
        )
    }
}

/// A [`BatchEngine`] seen from outside: every micro-batch the dispatcher
/// hands over is timed into the [`EngineMeter`], and with a tracer it is one
/// `serve.engine` span.
pub struct TimedEngine<E> {
    pub inner: E,
    tracer: Option<Arc<Tracer>>,
    meter: Arc<EngineMeter>,
    batches: u64,
}

impl<E: BatchEngine> TimedEngine<E> {
    pub fn new(inner: E, tracer: Option<Arc<Tracer>>) -> TimedEngine<E> {
        TimedEngine {
            inner,
            tracer,
            meter: Arc::default(),
            batches: 0,
        }
    }

    pub fn meter(&self) -> Arc<EngineMeter> {
        Arc::clone(&self.meter)
    }
}

impl<E: BatchEngine> BatchEngine for TimedEngine<E> {
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn score_batch(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
    ) -> Result<ServedBy, ScoreError> {
        self.score_batch_meta(rows, out, budget, &[])
    }

    fn score_batch_meta(
        &mut self,
        rows: &[f32],
        out: &mut [f32],
        budget: Option<Duration>,
        metas: &[RequestMeta<'_>],
    ) -> Result<ServedBy, ScoreError> {
        let t0 = Instant::now();
        let result = match &self.tracer {
            Some(tracer) => {
                self.batches += 1;
                let inner = &mut self.inner;
                tracer.scope("serve.engine", self.batches, || {
                    inner.score_batch_meta(rows, out, budget, metas)
                })
            }
            None => self.inner.score_batch_meta(rows, out, budget, metas),
        };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.meter.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.meter
            .docs
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        result
    }

    fn served_version(&self) -> Option<Arc<str>> {
        self.inner.served_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let tracer = Tracer::new();
        tracer.scope("outer", 1, || {
            tracer.scope("inner", 1, || std::thread::sleep(Duration::from_millis(2)));
            tracer.scope("inner", 2, || std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = self_times_ns(&spans);
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(own[0], spans[0].duration_ns() - children);
        assert_eq!(own[1], spans[1].duration_ns());
        assert!(
            own[0] < 1_000_000,
            "outer did nothing itself: {} ns",
            own[0]
        );
        assert_eq!(durations_us(&spans, "inner").len(), 2);
    }

    #[test]
    fn a_scorer_without_a_tracer_records_nothing() {
        struct First;
        impl DocumentScorer for First {
            fn num_features(&self) -> usize {
                2
            }
            fn score_batch(&mut self, rows: &[f32], out: &mut [f32]) {
                for (row, o) in rows.chunks_exact(2).zip(out.iter_mut()) {
                    *o = row[0];
                }
            }
            fn name(&self) -> String {
                "first".into()
            }
        }
        let tracer = Tracer::new();
        let mut out = [0.0f32; 2];
        let mut off = TimedScorer::new(Box::new(First), None, "x");
        off.score_batch(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(out, [1.0, 3.0]);
        assert!(tracer.spans().is_empty());
        let mut on = TimedScorer::new(Box::new(First), Some(Arc::clone(&tracer)), "x");
        on.score_batch(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(tracer.spans().len(), 1);
        assert_eq!(tracer.spans()[0].request, 1);
    }
}
