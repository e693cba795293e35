//! The traced run: real call and shadow, repeated for the run's time,
//! folded into per-layer metrics.

use crate::layers::{timer_cost_ns, unit_nanos, Layer, Tracer, ALL_LAYERS};
use crate::stats::median;
use crate::workload::Workload;
use std::path::Path;
use std::time::Instant;

/// What one traced run measured.
pub struct Traced {
    /// Real-call/shadow pairs run.
    pub attempted: usize,
    /// Pairs whose shadow failed or disagreed with the real call.
    pub failed: usize,
    /// `(name, value, unit)` of every layer metric the run produced.
    pub metrics: Vec<(String, f64, String)>,
    /// The first pair's coarse spans, as JSONL.
    pub spans: String,
}

/// Runs `w`'s real call and shadow back to back until `seconds` have
/// passed (at least once).
pub fn trace(w: Workload, seed: u64, seconds: f64, cli: &Path, dir: &Path) -> Traced {
    let timer_ns = timer_cost_ns();
    let mut t = Tracer::default();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut real_walls = Vec::new();
    let mut shadow_nanos = 0.0;
    let start = Instant::now();
    while attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        let checked = w
            .shadow(seed, cli, dir, &mut t)
            .and_then(|s| s.check().map(|()| s));
        match checked {
            Ok(s) => {
                real_walls.push(s.real_wall.as_secs_f64());
                shadow_nanos += s.shadow_wall.as_nanos() as f64;
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                failed += 1;
                break;
            }
        }
        t.record_spans = false;
    }
    let reps = real_walls.len().max(1) as f64;
    let real_wall = if real_walls.is_empty() {
        0.0
    } else {
        median(&real_walls)
    };
    let layer_nanos = t.layer_nanos() as f64;
    // Each timed call adds about one clock reading inside its interval
    // and one outside it. The inside one is taken out of the layers
    // before they are compared with the untraced real call; the outside
    // one is the tracer's own cost, not the shadow's work.
    let clock_nanos = t.layer_calls() as f64 * timer_ns;
    let attributed = (layer_nanos - clock_nanos) / reps;

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut push = |name: String, value: f64, unit: &str| {
        metrics.push((
            name,
            if value.is_finite() { value } else { 0.0 },
            unit.to_string(),
        ));
    };
    push(
        "trace.coverage".into(),
        layer_nanos / (shadow_nanos - clock_nanos),
        "ratio",
    );
    push("trace.timer_ns".into(), timer_ns, "ns");
    push("engine.wall_ms".into(), real_wall * 1e3, "ms");
    push(
        "engine.overhead_frac".into(),
        1.0 - attributed / (real_wall * 1e9),
        "ratio",
    );
    for layer in ALL_LAYERS {
        let (name, unit) = layer.name_and_unit();
        let (calls, nanos) = t.tally(layer);
        push(format!("{name}.calls"), calls as f64 / reps, "count");
        push(
            format!("{name}.{unit}"),
            nanos as f64 / calls as f64 / unit_nanos(unit),
            unit,
        );
    }
    let counter = |name: &str| t.counters().get(name).copied().unwrap_or(0) as f64 / reps;
    for (name, value) in t.counters() {
        push((*name).to_string(), *value as f64 / reps, "count");
    }
    for (name, value) in t.peaks() {
        push((*name).to_string(), *value as f64, "count");
    }
    // Ratios of one workload's counters; on the others their counts are
    // 0 and `push` reports 0.
    let forks = t.tally(Layer::Fork).0 as f64 / reps;
    push(
        "explore.fork_useful_frac".into(),
        counter("explore.new_configs") / forks,
        "ratio",
    );
    push(
        "fuzz.runs_per_kill".into(),
        counter("fuzz.kill_runs") / counter("fuzz.kills"),
        "count",
    );
    // The traced service runs one worker, so a unit's share of the
    // wall time is wall ÷ units.
    let units = counter("service.units");
    let unit_wall_ms = real_wall * 1e3 / units;
    push("service.unit_wall_ms".into(), unit_wall_ms, "ms");
    push(
        "service.unit_compute_ms".into(),
        counter("service.unit_compute_ns") / units / 1e6,
        "ms",
    );
    push(
        "service.unit_unattributed_ms".into(),
        unit_wall_ms - attributed / units / 1e6,
        "ms",
    );
    Traced {
        attempted,
        failed,
        metrics,
        spans: t.spans_jsonl(),
    }
}
