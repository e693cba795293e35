//! Per-layer timers and coarse spans for the shadow drivers.
//!
//! A shadow driver wraps each call into a layer of the program in
//! [`Tracer::time`]. Timed calls never nest, so a layer's self time is
//! the sum of its call durations, and the layers together cover the
//! shadow's wall time except for the driver's own glue (the
//! `trace.coverage` metric). Spans are coarse (one per explorer level,
//! campaign run, service unit or fuzz seed), kept in memory and written
//! as JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A layer of the program, timed from outside by a shadow driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A protocol factory building a fresh `System`.
    SystemBuild,
    /// Dropping a `System`: a finished run, a duplicate explorer child,
    /// an expanded frontier entry.
    SystemDrop,
    /// `analyze::preflight`.
    Preflight,
    /// `InterferenceMatrix::build`.
    MatrixBuild,
    /// The protocol check on a configuration.
    Check,
    /// Happens-before dependence: the explorer's step masks
    /// (`System::poised` + `hb::independent` per enabled pair) or a
    /// campaign run's trace audit (`hb::independent` over adjacent
    /// events).
    Hb,
    /// `System::clone` forking an explorer child.
    Fork,
    /// `System::step`.
    Step,
    /// `System::config_fingerprint` of an explorer child.
    Fingerprint,
    /// `config_fingerprint` + `FingerprintCache::insert_fingerprint`.
    CacheInsert,
    /// A lookup in the explorer's visited map from a worker.
    Visited,
    /// The explorer's canonical merge of one level.
    Merge,
    /// Scheduler construction and `Scheduler::next`.
    Sched,
    /// Folding run records into a `CampaignReport`.
    Assemble,
    /// `CampaignReport::to_json`.
    ReportJson,
    /// Capture, ddmin shrink and re-execution of a failing run.
    Shrink,
    /// `GenSpec::from_seed` + `GenSpec::canonical`.
    GenSpec,
    /// `Mutation::apply`.
    GenMutate,
    /// `shrink::capture`.
    ShrinkCapture,
    /// `shrink::shrink` (ddmin).
    ShrinkDdmin,
    /// `shrink::execute` of the shrunk counterexample.
    ShrinkExecute,
    /// `ReplayBundle::replay`.
    BundleReplay,
    /// `ReplayBundle::store` / `store_dedup`.
    BundleStore,
    /// `CampaignCheckpoint::to_json` + `json::write_atomic`.
    CheckpointWrite,
    /// `CampaignCheckpoint::load`.
    CheckpointLoad,
    /// Frame encode + decode + message parse of the worker protocol.
    Proto,
    /// `JobQueue::append` of one journal record.
    Queue,
    /// `merge_report` over the service shards.
    ServiceMerge,
    /// Spawning a `campaign-worker` process and reaping it.
    WorkerSpawn,
}

/// Every layer, in report order.
pub const ALL_LAYERS: [Layer; 29] = [
    Layer::SystemBuild,
    Layer::SystemDrop,
    Layer::Preflight,
    Layer::MatrixBuild,
    Layer::Check,
    Layer::Hb,
    Layer::Fork,
    Layer::Step,
    Layer::Fingerprint,
    Layer::CacheInsert,
    Layer::Visited,
    Layer::Merge,
    Layer::Sched,
    Layer::Assemble,
    Layer::ReportJson,
    Layer::Shrink,
    Layer::GenSpec,
    Layer::GenMutate,
    Layer::ShrinkCapture,
    Layer::ShrinkDdmin,
    Layer::ShrinkExecute,
    Layer::BundleReplay,
    Layer::BundleStore,
    Layer::CheckpointWrite,
    Layer::CheckpointLoad,
    Layer::Proto,
    Layer::Queue,
    Layer::ServiceMerge,
    Layer::WorkerSpawn,
];

impl Layer {
    /// Metric-name prefix and the unit its mean time per call is
    /// reported in.
    pub fn name_and_unit(self) -> (&'static str, &'static str) {
        match self {
            Layer::SystemBuild => ("system.build", "us"),
            Layer::SystemDrop => ("system.drop", "ns"),
            Layer::Preflight => ("analyze.preflight", "us"),
            Layer::MatrixBuild => ("analyze.matrix_build", "us"),
            Layer::Check => ("check", "ns"),
            Layer::Hb => ("hb", "ns"),
            Layer::Fork => ("system.fork", "ns"),
            Layer::Step => ("system.step", "ns"),
            Layer::Fingerprint => ("fingerprint.config", "ns"),
            Layer::CacheInsert => ("fingerprint.cache_insert", "ns"),
            Layer::Visited => ("explore.visited", "ns"),
            Layer::Merge => ("explore.merge", "us"),
            Layer::Sched => ("sched", "ns"),
            Layer::Assemble => ("campaign.assemble", "us"),
            Layer::ReportJson => ("campaign.report_json", "us"),
            Layer::Shrink => ("shrink", "ms"),
            Layer::GenSpec => ("gen.spec", "us"),
            Layer::GenMutate => ("gen.mutate", "us"),
            Layer::ShrinkCapture => ("shrink.capture", "us"),
            Layer::ShrinkDdmin => ("shrink.ddmin", "us"),
            Layer::ShrinkExecute => ("shrink.execute", "us"),
            Layer::BundleReplay => ("bundle.replay", "us"),
            Layer::BundleStore => ("bundle.store", "us"),
            Layer::CheckpointWrite => ("json.checkpoint_write", "us"),
            Layer::CheckpointLoad => ("json.checkpoint_load", "us"),
            Layer::Proto => ("service.proto", "us"),
            Layer::Queue => ("service.queue", "us"),
            Layer::ServiceMerge => ("service.merge", "us"),
            Layer::WorkerSpawn => ("service.worker_spawn", "ms"),
        }
    }
}

/// Nanoseconds per unit of a per-call time.
pub fn unit_nanos(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        other => panic!("not a time unit: {other}"),
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    calls: u64,
    nanos: u128,
}

/// One coarse span.
#[derive(Clone, Debug)]
struct Span {
    parent: Option<usize>,
    name: String,
    start: Duration,
    end: Duration,
}

/// Layer tallies plus coarse spans for one or more shadow runs.
pub struct Tracer {
    tallies: [Tally; ALL_LAYERS.len()],
    counters: BTreeMap<&'static str, u64>,
    peaks: BTreeMap<&'static str, u64>,
    origin: Instant,
    spans: Vec<Span>,
    /// Spans are recorded only while this is set, so repetitions after
    /// the first add nothing to the span file.
    pub record_spans: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            tallies: [Tally::default(); ALL_LAYERS.len()],
            counters: BTreeMap::new(),
            peaks: BTreeMap::new(),
            origin: Instant::now(),
            spans: Vec::new(),
            record_spans: true,
        }
    }
}

impl Tracer {
    /// Times one call into `layer`.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    /// Records one call into `layer` that took `elapsed`.
    #[inline]
    pub fn add(&mut self, layer: Layer, elapsed: Duration) {
        let tally = &mut self.tallies[layer as usize];
        tally.calls += 1;
        tally.nanos += elapsed.as_nanos();
    }

    /// Calls and total nanoseconds recorded for `layer`.
    pub fn tally(&self, layer: Layer) -> (u64, u128) {
        let t = self.tallies[layer as usize];
        (t.calls, t.nanos)
    }

    /// Adds `n` to a work counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Raises a high-water mark to at least `value`.
    pub fn peak(&mut self, name: &'static str, value: u64) {
        let slot = self.peaks.entry(name).or_default();
        *slot = (*slot).max(value);
    }

    /// Work counters, summed over every shadow run.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// High-water marks over every shadow run.
    pub fn peaks(&self) -> &BTreeMap<&'static str, u64> {
        &self.peaks
    }

    /// Sum of every layer's self time, in nanoseconds.
    pub fn layer_nanos(&self) -> u128 {
        self.tallies.iter().map(|t| t.nanos).sum()
    }

    /// Sum of the given layers' self times, in nanoseconds.
    pub fn nanos_of(&self, layers: &[Layer]) -> u128 {
        layers.iter().map(|&l| self.tallies[l as usize].nanos).sum()
    }

    /// Timed calls across all layers.
    pub fn layer_calls(&self) -> u64 {
        self.tallies.iter().map(|t| t.calls).sum()
    }

    /// Opens a span; returns its id for children and [`Tracer::close`].
    /// `name` is only called while spans are recorded.
    pub fn open(&mut self, name: impl FnOnce() -> String, parent: Option<usize>) -> Option<usize> {
        if !self.record_spans {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            parent,
            name: name(),
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// The spans as JSONL: one object per line with `id`, `parent`,
    /// `name`, `start_us` and `dur_us` (relative to the tracer's start).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {}, \"name\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
                span.parent.map_or("null".into(), |p| p.to_string()),
                rsim_smr::json::escape(&span.name),
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
            );
        }
        out
    }
}

/// The time one `Instant::now()` pair adds to every timed interval, in
/// nanoseconds: the median over batches of back-to-back readings.
pub fn timer_cost_ns() -> f64 {
    let mut batches: Vec<f64> = (0..21)
        .map(|_| {
            const PAIRS: u32 = 20_000;
            let mut total = Duration::ZERO;
            for _ in 0..PAIRS {
                let a = Instant::now();
                total += std::hint::black_box(Instant::now()) - a;
            }
            total.as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
