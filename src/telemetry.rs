//! Dependency-free telemetry: counters, gauges, log2-bucket latency
//! histograms, a bounded ring of per-cycle [`PhaseBreakdown`]s, a JSONL
//! trace stream, and the exposition formats behind the `metrics`
//! command.
//!
//! Design constraints, in order:
//!
//! * **~Zero cost when disabled.** [`Telemetry`] is a cloneable handle
//!   over `Option<Arc<…>>`; [`Telemetry::disabled`] is `None`, every
//!   record method starts with an `is_none` branch, and the hot paths
//!   pay that branch and nothing else — no allocation, no clock read.
//! * **Lock-free when enabled.** Counters, gauges, and histogram
//!   buckets are relaxed atomics; the only mutex guards the bounded
//!   ring of recent cycles, touched once per write cycle (never per
//!   request), and the trace buffer, drained by its own writer thread.
//! * **No dependencies.** The workspace is offline: histograms are
//!   fixed 64-bucket log2 arrays (bucket = position of the value's
//!   highest set bit), quantiles report the bucket's upper bound (at
//!   most 2× the true quantile), and both JSON and Prometheus text are
//!   rendered by hand like the rest of the wire tier.
//!
//! The module also hosts the [`StatSet`] trait and `stat_set!` macro
//! behind the registry-driven `stats` frame: each stats struct declares
//! its serialized fields exactly once, with an exhaustive destructuring
//! that turns "added a counter but forgot the wire frame" into a
//! compile error.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

/// Recover a poisoned guard: telemetry must never take the service
/// down, and every protected structure is valid after a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Primitive instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Relaxed atomics: totals are
/// exact, cross-counter consistency is not promised (nor needed).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-write-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

const BUCKETS: usize = 64;

/// A fixed log2-bucket latency histogram. `record` is wait-free: one
/// bucket increment plus count/sum/max updates, all relaxed. Bucket
/// `i > 0` holds values whose highest set bit is `i - 1`, i.e. the
/// range `[2^(i-1), 2^i)`; quantiles report the bucket's inclusive
/// upper bound, so a reported p99 is at most 2× the true p99 — the
/// honest trade for never allocating and never locking.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .field("max", &s.max)
            .finish()
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// A point-in-time copy with quantiles computed from one coherent
    /// bucket scan (count is derived from the copied buckets so the
    /// quantile targets can never overrun them).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] = std::array::from_fn(|i| self.buckets[i].load(Relaxed));
        let count: u64 = buckets.iter().sum();
        let max = self.max.load(Relaxed);
        // A bucket's upper bound can overshoot the largest sample it
        // holds; no quantile lies above the recorded max.
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            max,
            p50: quantile(&buckets, count, 0.50).min(max),
            p90: quantile(&buckets, count, 0.90).min(max),
            p99: quantile(&buckets, count, 0.99).min(max),
        }
    }
}

fn quantile(buckets: &[u64; BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= target {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

/// The exported view of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    pub fn to_json(&self) -> String {
        let HistogramSnapshot {
            count,
            sum,
            max,
            p50,
            p90,
            p99,
        } = self;
        format!(
            "{{\"count\":{count},\"sum\":{sum},\"max\":{max},\
             \"p50\":{p50},\"p90\":{p90},\"p99\":{p99}}}"
        )
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Every instrument the engine exports, as plain struct fields: hot
/// paths record through a direct field access (no name lookup), and
/// the exhaustive destructuring in `MetricsRegistry::parts` makes it
/// a compile error to add an instrument without exposing it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Whole write cycle: batch applied to snapshot published.
    pub cycle_total_ns: Histogram,
    /// Grounding the submitted deltas (rule bodies instantiated).
    pub ground_ns: Histogram,
    /// In-place condensation repair after the delta.
    pub repair_ns: Histogram,
    /// Condensation (re)build.
    pub condense_ns: Histogram,
    /// Scheduled component evaluation, wall clock.
    pub solve_ns: Histogram,
    /// Journal record appends for the cycle.
    pub journal_append_ns: Histogram,
    /// The pre-publish durability sync.
    pub fsync_ns: Histogram,
    /// Snapshot/version/changelog publication.
    pub publish_ns: Histogram,
    /// Submission enqueue to writer pickup (async tier).
    pub queue_wait_ns: Histogram,
    /// One framed request: read to response written (net tier).
    pub request_ns: Histogram,
    /// Write cycles recorded.
    pub cycles: Counter,
    /// Cycles at or over the `--slow-cycle-ms` threshold.
    pub slow_cycles: Counter,
    /// Trace events discarded because the bounded buffer was full.
    pub trace_dropped: Counter,
    /// Phase breakdowns currently held in the recent-cycle ring.
    pub recent_cycles: Gauge,
    /// Trace events buffered and not yet written.
    pub trace_buffered: Gauge,
}

struct RegistryParts<'a> {
    histograms: Vec<(&'static str, &'a Histogram)>,
    counters: Vec<(&'static str, &'a Counter)>,
    gauges: Vec<(&'static str, &'a Gauge)>,
}

impl MetricsRegistry {
    fn parts(&self) -> RegistryParts<'_> {
        // Exhaustive: a new field fails this pattern until it is
        // routed into one of the three exposition lists.
        let MetricsRegistry {
            cycle_total_ns,
            ground_ns,
            repair_ns,
            condense_ns,
            solve_ns,
            journal_append_ns,
            fsync_ns,
            publish_ns,
            queue_wait_ns,
            request_ns,
            cycles,
            slow_cycles,
            trace_dropped,
            recent_cycles,
            trace_buffered,
        } = self;
        RegistryParts {
            histograms: vec![
                ("cycle_total_ns", cycle_total_ns),
                ("ground_ns", ground_ns),
                ("repair_ns", repair_ns),
                ("condense_ns", condense_ns),
                ("solve_ns", solve_ns),
                ("journal_append_ns", journal_append_ns),
                ("fsync_ns", fsync_ns),
                ("publish_ns", publish_ns),
                ("queue_wait_ns", queue_wait_ns),
                ("request_ns", request_ns),
            ],
            counters: vec![
                ("cycles", cycles),
                ("slow_cycles", slow_cycles),
                ("trace_dropped", trace_dropped),
            ],
            gauges: vec![
                ("recent_cycles", recent_cycles),
                ("trace_buffered", trace_buffered),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// Phase breakdowns
// ---------------------------------------------------------------------------

/// Per-cycle wall-clock split of one write cycle, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Version the cycle published.
    pub version: u64,
    /// Deltas applied by the cycle (its coalesced batch width).
    pub width: u64,
    pub total_ns: u64,
    pub ground_ns: u64,
    pub repair_ns: u64,
    pub condense_ns: u64,
    pub solve_ns: u64,
    pub journal_append_ns: u64,
    pub fsync_ns: u64,
    pub publish_ns: u64,
}

impl PhaseBreakdown {
    pub fn to_json(&self) -> String {
        let PhaseBreakdown {
            version,
            width,
            total_ns,
            ground_ns,
            repair_ns,
            condense_ns,
            solve_ns,
            journal_append_ns,
            fsync_ns,
            publish_ns,
        } = self;
        format!(
            "{{\"version\":{version},\"width\":{width},\"total_ns\":{total_ns},\
             \"ground_ns\":{ground_ns},\"repair_ns\":{repair_ns},\
             \"condense_ns\":{condense_ns},\"solve_ns\":{solve_ns},\
             \"journal_append_ns\":{journal_append_ns},\"fsync_ns\":{fsync_ns},\
             \"publish_ns\":{publish_ns}}}"
        )
    }

    /// The human rendering behind the `--slow-cycle-ms` log line.
    pub fn describe(&self) -> String {
        let us = |ns: u64| ns / 1_000;
        format!(
            "version {} width {} total {}us: ground {}us repair {}us condense {}us \
             solve {}us journal {}us fsync {}us publish {}us",
            self.version,
            self.width,
            us(self.total_ns),
            us(self.ground_ns),
            us(self.repair_ns),
            us(self.condense_ns),
            us(self.solve_ns),
            us(self.journal_append_ns),
            us(self.fsync_ns),
            us(self.publish_ns),
        )
    }
}

/// Phase time a [`crate::engine::Session`] accumulates between
/// [`crate::engine::Session::take_phases`] calls: grounding and repair
/// at mutation time, condense/solve at solve time. The service drains
/// it once per write cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionPhases {
    pub ground_ns: u64,
    pub repair_ns: u64,
    pub condense_ns: u64,
    pub solve_ns: u64,
}

// ---------------------------------------------------------------------------
// Trace stream
// ---------------------------------------------------------------------------

/// Events buffered before the writer thread has drained them; beyond
/// this the hot path drops (and counts) rather than blocks.
const TRACE_BUFFER: usize = 4096;

/// A bounded JSONL trace stream in Chrome trace-event format: the file
/// opens with `[` and every line after it is one complete (`"ph":"X"`)
/// event followed by a comma — a stream `chrome://tracing` and Perfetto
/// load as-is, even mid-write (the closing `]` is optional there).
/// Emission never blocks the recording thread: a full buffer drops the
/// event and the drop is counted.
pub struct TraceSink {
    shared: Arc<TraceShared>,
    handle: Option<thread::JoinHandle<()>>,
}

struct TraceShared {
    queue: Mutex<TraceQueue>,
    cv: Condvar,
}

struct TraceQueue {
    events: VecDeque<String>,
    stop: bool,
}

impl TraceSink {
    /// Create (truncate) `path` and start the writer thread.
    pub fn create(path: &Path) -> io::Result<TraceSink> {
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(b"[\n")?;
        let shared = Arc::new(TraceShared {
            queue: Mutex::new(TraceQueue {
                events: VecDeque::new(),
                stop: false,
            }),
            cv: Condvar::new(),
        });
        let writer_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("afp-trace".into())
            .spawn(move || trace_writer(&writer_shared, file))
            .map_err(|e| io::Error::other(format!("spawn trace writer: {e}")))?;
        Ok(TraceSink {
            shared,
            handle: Some(handle),
        })
    }

    /// Queue one event line; `false` means the buffer was full and the
    /// event was dropped (callers count it, never retry).
    fn try_emit(&self, event: String) -> bool {
        let mut q = lock(&self.shared.queue);
        if q.events.len() >= TRACE_BUFFER {
            return false;
        }
        q.events.push_back(event);
        drop(q);
        self.shared.cv.notify_one();
        true
    }

    fn buffered(&self) -> usize {
        lock(&self.shared.queue).events.len()
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.stop = true;
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn trace_writer(shared: &TraceShared, mut file: BufWriter<File>) {
    loop {
        let (batch, stop) = {
            let mut q = lock(&shared.queue);
            while q.events.is_empty() && !q.stop {
                q = shared.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            (q.events.drain(..).collect::<Vec<_>>(), q.stop)
        };
        for ev in &batch {
            let _ = file.write_all(ev.as_bytes());
            let _ = file.write_all(b",\n");
        }
        let _ = file.flush();
        if stop {
            return;
        }
    }
}

/// One Chrome trace-event line (`"ph":"X"` complete event, µs units).
fn trace_event(name: &str, cat: &str, ts_us: u64, dur_us: u64, args: &str) -> String {
    format!(
        "{{\"name\":{name:?},\"cat\":{cat:?},\"ph\":\"X\",\"ts\":{ts_us},\
         \"dur\":{dur_us},\"pid\":1,\"tid\":1,\"args\":{{{args}}}}}"
    )
}

fn cycle_trace_events(b: &PhaseBreakdown, end_us: u64) -> Vec<String> {
    let us = |ns: u64| ns / 1_000;
    let total = us(b.total_ns);
    let start = end_us.saturating_sub(total);
    let mut events = Vec::with_capacity(8);
    events.push(trace_event(
        "cycle",
        "cycle",
        start,
        total,
        &format!("\"version\":{},\"width\":{}", b.version, b.width),
    ));
    // Phases ran sequentially inside the cycle; lay them out in order.
    let args = format!("\"version\":{}", b.version);
    let mut cursor = start;
    for (name, ns) in [
        ("ground", b.ground_ns),
        ("repair", b.repair_ns),
        ("condense", b.condense_ns),
        ("solve", b.solve_ns),
        ("journal_append", b.journal_append_ns),
        ("fsync", b.fsync_ns),
        ("publish", b.publish_ns),
    ] {
        events.push(trace_event(name, "phase", cursor, us(ns), &args));
        cursor += us(ns);
    }
    events
}

// ---------------------------------------------------------------------------
// The telemetry handle
// ---------------------------------------------------------------------------

/// Exposition format for the `metrics` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The hand-rolled JSON object the rest of the wire tier speaks.
    #[default]
    Json,
    /// Prometheus text exposition (counters, gauges, and summary-style
    /// quantiles per histogram).
    Prom,
}

impl MetricsFormat {
    pub fn parse(s: &str) -> Option<MetricsFormat> {
        match s {
            "json" => Some(MetricsFormat::Json),
            "prom" | "prometheus" => Some(MetricsFormat::Prom),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            MetricsFormat::Json => "json",
            MetricsFormat::Prom => "prom",
        }
    }
}

/// Breakdowns retained in the recent-cycle ring.
const RING: usize = 64;

/// Breakdowns included in the JSON `metrics` rendering (newest last).
const RECENT_SHOWN: usize = 8;

struct TelemetryInner {
    registry: MetricsRegistry,
    ring: Mutex<VecDeque<PhaseBreakdown>>,
    trace: Option<TraceSink>,
    format: MetricsFormat,
    slow_cycle_ms: Option<u64>,
    /// Trace timestamps are µs since this instant.
    epoch: Instant,
}

/// The cloneable recording handle threaded through the service, writer
/// and net tiers. [`Telemetry::disabled`] carries no state and
/// makes every record call a single branch.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("format", &inner.format)
                .field("trace", &inner.trace.is_some())
                .field("slow_cycle_ms", &inner.slow_cycle_ms)
                .finish(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An enabled handle with default options (JSON, no trace stream,
    /// no slow-cycle threshold).
    pub fn new() -> Telemetry {
        Telemetry::configured(MetricsFormat::Json, None, None)
    }

    /// The no-op handle: recording costs one branch, `render` reports
    /// `enabled: false`.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle with explicit exposition format, optional
    /// trace stream, and optional slow-cycle threshold.
    pub fn configured(
        format: MetricsFormat,
        trace: Option<TraceSink>,
        slow_cycle_ms: Option<u64>,
    ) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                registry: MetricsRegistry::default(),
                ring: Mutex::new(VecDeque::with_capacity(RING)),
                trace,
                format,
                slow_cycle_ms,
                epoch: Instant::now(),
            })),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub fn format(&self) -> MetricsFormat {
        self.inner
            .as_ref()
            .map(|i| i.format)
            .unwrap_or(MetricsFormat::Json)
    }

    /// Direct instrument access (tests and benches); `None` when
    /// disabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Record one completed write cycle: histograms, the cycle
    /// counter, the recent ring, the trace stream, and the slow-cycle
    /// log line.
    pub fn record_cycle(&self, b: &PhaseBreakdown) {
        let Some(inner) = &self.inner else { return };
        let r = &inner.registry;
        r.cycles.add(1);
        r.cycle_total_ns.record(b.total_ns);
        r.ground_ns.record(b.ground_ns);
        r.repair_ns.record(b.repair_ns);
        r.condense_ns.record(b.condense_ns);
        r.solve_ns.record(b.solve_ns);
        r.journal_append_ns.record(b.journal_append_ns);
        r.fsync_ns.record(b.fsync_ns);
        r.publish_ns.record(b.publish_ns);
        {
            let mut ring = lock(&inner.ring);
            if ring.len() == RING {
                ring.pop_front();
            }
            ring.push_back(*b);
            r.recent_cycles.set(ring.len() as i64);
        }
        if let Some(trace) = &inner.trace {
            let end_us = inner.epoch.elapsed().as_micros() as u64;
            for ev in cycle_trace_events(b, end_us) {
                if !trace.try_emit(ev) {
                    r.trace_dropped.add(1);
                }
            }
            r.trace_buffered.set(trace.buffered() as i64);
        }
        if let Some(ms) = inner.slow_cycle_ms {
            if b.total_ns >= ms.saturating_mul(1_000_000) {
                r.slow_cycles.add(1);
                eprintln!("slow cycle: {}", b.describe());
            }
        }
    }

    /// Async-tier submission latency: enqueue to writer pickup.
    pub fn record_queue_wait(&self, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.queue_wait_ns.record(ns);
        }
    }

    /// Net-tier request latency: frame read to response written.
    pub fn record_request(&self, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.request_ns.record(ns);
        }
    }

    /// The retained recent breakdowns, oldest first.
    pub fn recent_cycles(&self) -> Vec<PhaseBreakdown> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock(&inner.ring).iter().copied().collect(),
        }
    }

    /// The `metrics` frame body in the handle's configured format —
    /// the same bytes over stdin, TCP, and unix transports.
    pub fn render(&self) -> String {
        let Some(inner) = &self.inner else {
            return match self.format() {
                MetricsFormat::Json => "{\"telemetry\":{\"enabled\":false}}".into(),
                MetricsFormat::Prom => "# telemetry disabled\n".into(),
            };
        };
        match inner.format {
            MetricsFormat::Json => render_json(inner),
            MetricsFormat::Prom => render_prom(inner),
        }
    }
}

fn render_json(inner: &TelemetryInner) -> String {
    let parts = inner.registry.parts();
    let counters: Vec<String> = parts
        .counters
        .iter()
        .map(|(k, c)| format!("{k:?}:{}", c.get()))
        .collect();
    let gauges: Vec<String> = parts
        .gauges
        .iter()
        .map(|(k, g)| format!("{k:?}:{}", g.get()))
        .collect();
    let hists: Vec<String> = parts
        .histograms
        .iter()
        .map(|(k, h)| format!("{k:?}:{}", h.snapshot().to_json()))
        .collect();
    let ring = lock(&inner.ring);
    let skip = ring.len().saturating_sub(RECENT_SHOWN);
    let recent: Vec<String> = ring.iter().skip(skip).map(|b| b.to_json()).collect();
    drop(ring);
    format!(
        "{{\"telemetry\":{{\"enabled\":true,\"format\":{:?},\
         \"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\
         \"recent_cycles\":[{}]}}}}",
        inner.format.as_str(),
        counters.join(","),
        gauges.join(","),
        hists.join(","),
        recent.join(","),
    )
}

fn render_prom(inner: &TelemetryInner) -> String {
    let parts = inner.registry.parts();
    let mut out = String::new();
    for (k, c) in &parts.counters {
        out.push_str(&format!("# TYPE afp_{k}_total counter\n"));
        out.push_str(&format!("afp_{k}_total {}\n", c.get()));
    }
    for (k, g) in &parts.gauges {
        out.push_str(&format!("# TYPE afp_{k} gauge\n"));
        out.push_str(&format!("afp_{k} {}\n", g.get()));
    }
    for (k, h) in &parts.histograms {
        let s = h.snapshot();
        out.push_str(&format!("# TYPE afp_{k} summary\n"));
        out.push_str(&format!("afp_{k}{{quantile=\"0.5\"}} {}\n", s.p50));
        out.push_str(&format!("afp_{k}{{quantile=\"0.9\"}} {}\n", s.p90));
        out.push_str(&format!("afp_{k}{{quantile=\"0.99\"}} {}\n", s.p99));
        out.push_str(&format!("afp_{k}_sum {}\n", s.sum));
        out.push_str(&format!("afp_{k}_count {}\n", s.count));
        out.push_str(&format!("# TYPE afp_{k}_max gauge\n"));
        out.push_str(&format!("afp_{k}_max {}\n", s.max));
    }
    out
}

// ---------------------------------------------------------------------------
// Registry-driven stats serialization
// ---------------------------------------------------------------------------

/// A stats struct whose counters are serialized generically: every
/// field in declaration order, as `(json_key, value)`. Implement via
/// `stat_set!`, whose exhaustive destructuring makes a field added to
/// the struct but missing from the wire frame a compile error.
pub trait StatSet {
    fn stat_fields(&self) -> Vec<(&'static str, u64)>;
}

/// Render a [`StatSet`] as a JSON object, keys in declaration order.
pub fn stat_object(stats: &dyn StatSet) -> String {
    let body: Vec<String> = stats
        .stat_fields()
        .iter()
        .map(|(k, v)| format!("{k:?}:{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Implement [`StatSet`] for a struct by listing every field once, in
/// the order the wire frame should carry them. The `let Self {{ … }}`
/// pattern has no `..`, so the impl stops compiling the moment a field
/// is added to the struct without being listed here.
macro_rules! stat_set {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::telemetry::StatSet for $ty {
            fn stat_fields(&self) -> Vec<(&'static str, u64)> {
                let Self { $($field),+ } = self;
                vec![$((stringify!($field), *$field as u64)),+]
            }
        }
    };
}
pub(crate) use stat_set;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000, 1000, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1_003_006);
        assert_eq!(s.max, 1_000_000);
        // p50 target = ceil(8 × 0.5) = the 4th smallest value (3, the
        // lower median), whose bucket [2, 4) reports upper bound 3.
        assert_eq!(s.p50, 3);
        // p90 = the 8th smallest = the 1e6, so it matches p99 below.
        // p99 = the top value's bucket upper bound clamped to the max,
        // within 2× of 1e6.
        assert!(s.p99 >= 1_000_000 && s.p99 < 2_097_152, "p99 = {}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "quantiles are monotone");
    }

    #[test]
    fn histogram_extremes() {
        // One sample: every quantile is that sample, never the upper
        // bound of its bucket.
        let h = Histogram::default();
        h.record(5);
        let s = h.snapshot();
        assert_eq!((s.max, s.p50, s.p90, s.p99), (5, 5, 5, 5));

        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.snapshot().p99, 0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99, u64::MAX);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.record_cycle(&PhaseBreakdown::default());
        t.record_queue_wait(5);
        t.record_request(5);
        assert!(t.recent_cycles().is_empty());
        assert_eq!(t.render(), "{\"telemetry\":{\"enabled\":false}}");
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let t = Telemetry::new();
        for v in 0..(RING as u64 + 10) {
            t.record_cycle(&PhaseBreakdown {
                version: v,
                total_ns: 1_000,
                ..PhaseBreakdown::default()
            });
        }
        let recent = t.recent_cycles();
        assert_eq!(recent.len(), RING);
        assert_eq!(recent.first().unwrap().version, 10);
        assert_eq!(recent.last().unwrap().version, RING as u64 + 9);
        let r = t.registry().unwrap();
        assert_eq!(r.cycles.get(), RING as u64 + 10);
        assert_eq!(r.recent_cycles.get(), RING as i64);
    }

    #[test]
    fn json_render_has_every_section() {
        let t = Telemetry::new();
        t.record_cycle(&PhaseBreakdown {
            version: 1,
            width: 2,
            total_ns: 10_000,
            solve_ns: 7_000,
            ..PhaseBreakdown::default()
        });
        let body = t.render();
        for key in [
            "\"enabled\":true",
            "\"counters\":{",
            "\"gauges\":{",
            "\"histograms\":{",
            "\"cycle_total_ns\":{",
            "\"solve_ns\":{",
            "\"p50\":",
            "\"p99\":",
            "\"recent_cycles\":[",
            "\"version\":1",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
    }

    #[test]
    fn prom_render_is_typed_text() {
        let t = Telemetry::configured(MetricsFormat::Prom, None, None);
        t.record_cycle(&PhaseBreakdown {
            total_ns: 2_000,
            ..PhaseBreakdown::default()
        });
        let body = t.render();
        assert!(body.contains("# TYPE afp_cycles_total counter"));
        assert!(body.contains("afp_cycles_total 1"));
        assert!(body.contains("# TYPE afp_cycle_total_ns summary"));
        assert!(body.contains("afp_cycle_total_ns{quantile=\"0.99\"}"));
        assert!(body.contains("afp_cycle_total_ns_count 1"));
    }

    #[test]
    fn trace_sink_streams_and_bounds() {
        let path = std::env::temp_dir().join(format!(
            "afp-telemetry-trace-{}-{:?}.json",
            std::process::id(),
            thread::current().id()
        ));
        let trace = TraceSink::create(&path).expect("create trace");
        let t = Telemetry::configured(MetricsFormat::Json, Some(trace), None);
        for v in 0..5u64 {
            t.record_cycle(&PhaseBreakdown {
                version: v,
                total_ns: 3_000,
                solve_ns: 2_000,
                ..PhaseBreakdown::default()
            });
        }
        drop(t); // joins the writer thread, flushing everything
        let body = std::fs::read_to_string(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        assert!(body.starts_with("[\n"));
        assert!(body.contains("\"name\":\"cycle\""));
        assert!(body.contains("\"name\":\"solve\""));
        assert!(body.contains("\"ph\":\"X\""));
        // 5 cycles × (1 cycle event + 7 phase events), one per line.
        let events = body.lines().filter(|l| l.starts_with('{')).count();
        assert_eq!(events, 40);
    }

    #[test]
    fn slow_cycle_threshold_counts() {
        let t = Telemetry::configured(MetricsFormat::Json, None, Some(1));
        t.record_cycle(&PhaseBreakdown {
            total_ns: 500_000, // 0.5ms: under threshold
            ..PhaseBreakdown::default()
        });
        t.record_cycle(&PhaseBreakdown {
            total_ns: 2_000_000, // 2ms: over
            ..PhaseBreakdown::default()
        });
        assert_eq!(t.registry().unwrap().slow_cycles.get(), 1);
    }

    #[test]
    fn stat_set_serializes_in_declaration_order() {
        struct Demo {
            alpha: u64,
            beta: usize,
        }
        stat_set!(Demo { alpha, beta });
        let d = Demo { alpha: 7, beta: 9 };
        assert_eq!(super::stat_object(&d), "{\"alpha\":7,\"beta\":9}");
    }
}
