//! `rsim-perfbench`: the repository's benchmark.
//!
//! ```text
//! rsim-perfbench --workload W --seed S --seconds T --trace 0|1
//! rsim-perfbench run [--seeds A..B] [--seconds T] [--trace 0|1] --out FILE
//! rsim-perfbench compare BASE.jsonl CHANGED.jsonl
//! ```
//!
//! The first form measures one workload for `T` seconds and prints one
//! JSON result line: with `--trace 0` the end-to-end metrics of the
//! release CLI, with `--trace 1` the per-layer split from the in-process
//! shadow drivers. `run` repeats that over seeds, interleaving the
//! workloads, and appends one line per run (every metric the run
//! produced) to `FILE`. `compare` labels each (metric, workload) pair of
//! two such files improved, within bound, regressed or unresolved.
//!
//! Metric names, units, directions and bounds come from
//! `BENCHMARK.json` in the working directory (the repository root). The
//! CLI is the `revisionist-simulations` binary next to this one.

mod calibrate;
mod e2e;
mod layers;
mod shadow;
mod stats;
mod trace;
mod workload;

use rsim_smr::json::{escape, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_single(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rsim-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch space for running invocations, beside the binary (inside
/// the build directory).
pub fn work_root() -> PathBuf {
    exe_dir().join("perfbench-work")
}

fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locating the running binary");
    exe.parent().expect("binary has a directory").to_path_buf()
}

/// One metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
struct Bench {
    run_seconds: f64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn load_bench() -> Result<Bench, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json lacks `{key}`"))
    };
    let text_of = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json entry lacks `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher_is_better: text_of(m, "better")? == "higher",
                    bound: m.get("bound").and_then(number),
                })
            })
            .collect()
    };
    Ok(Bench {
        run_seconds: doc
            .get("run_seconds")
            .and_then(number)
            .ok_or("BENCHMARK.json lacks `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| {
                let name = text_of(w, "name")?;
                Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))
            })
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// Reads `--key value` pairs, rejecting keys outside `known`.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|k| known.contains(k))
            .ok_or(format!("unexpected argument `{arg}`"))?;
        let value = it.next().ok_or(format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| v.parse().map_err(|_| format!("bad --{key} `{v}`")))
        .transpose()
}

fn parse_trace(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    match flags.get("trace").map(String::as_str) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("bad --trace `{other}` (0 or 1)")),
    }
}

/// The single-run form: one workload, one seed, one result line.
fn cmd_single(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["workload", "seed", "seconds", "trace"])?;
    let bench = load_bench()?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let w = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = parse_num(&flags, "seed")?.ok_or("--seed is required")?;
    let seconds = parse_num(&flags, "seconds")?.unwrap_or(bench.run_seconds);
    let (line, _) = run_one(&bench, w, seed, seconds, parse_trace(&flags)?)?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Measures one (workload, seed) run. Returns the result line (the
/// metrics `BENCHMARK.json` lists, in its order) and every metric the
/// run produced as a JSON object.
fn run_one(
    bench: &Bench,
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(String, String), String> {
    let cli = exe_dir().join("revisionist-simulations");
    if !cli.is_file() {
        return Err(format!("{} is not built", cli.display()));
    }
    let dir = work_root().join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (attempted, failed, produced, listed) = if traced {
        let t = trace::trace(w, seed, seconds, &cli, &dir);
        let spans = exe_dir()
            .join("perfbench-out")
            .join(format!("{}-seed{seed}.spans.jsonl", w.name()));
        write_file(&spans, &t.spans)?;
        (t.attempted, t.failed, t.metrics, &bench.per_layer)
    } else {
        let m = e2e::measure(w, seed, seconds, &cli, &dir);
        (m.attempted, m.failed, m.metrics, &bench.end_to_end)
    };
    let _ = std::fs::remove_dir_all(&dir);

    let by_name: BTreeMap<&str, (f64, &str)> = produced
        .iter()
        .map(|(n, v, u)| (n.as_str(), (*v, u.as_str())))
        .collect();
    let mut metrics = String::new();
    for (i, m) in listed.iter().enumerate() {
        let (value, unit) = by_name.get(m.name.as_str()).ok_or(format!(
            "{} does not produce metric `{}`",
            w.name(),
            m.name
        ))?;
        if *unit != m.unit {
            return Err(format!(
                "metric `{}` is in {unit}, BENCHMARK.json says {}",
                m.name, m.unit
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            escape(&m.name),
            escape(unit)
        );
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    );
    let all: Vec<String> = produced
        .iter()
        .map(|(n, v, u)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", escape(n), escape(u)))
        .collect();
    Ok((line, format!("{{{}}}", all.join(", "))))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run`: every workload once per seed, interleaved, one JSONL line per
/// run appended to `--out`.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["seeds", "seconds", "trace", "out"])?;
    let bench = load_bench()?;
    let out = PathBuf::from(flags.get("out").ok_or("--out is required")?);
    let seeds = match flags.get("seeds") {
        None => 1..11,
        Some(raw) => {
            let (a, b) = raw
                .split_once("..")
                .ok_or(format!("bad --seeds `{raw}` (A..B)"))?;
            let bad = |_| format!("bad --seeds `{raw}`");
            a.parse::<u64>().map_err(bad)?..b.parse::<u64>().map_err(bad)?
        }
    };
    let seconds = parse_num(&flags, "seconds")?.unwrap_or(bench.run_seconds);
    let traced = parse_trace(&flags)?;
    for seed in seeds {
        for &w in &bench.workloads {
            let (line, all) = run_one(&bench, w, seed, seconds, traced)?;
            eprintln!("{} seed {seed}: {line}", w.name());
            let record = format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {line}, \"all\": {all}}}\n",
                escape(w.name()),
                u8::from(traced),
            );
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&out)
                .map_err(|e| format!("{}: {e}", out.display()))?;
            std::io::Write::write_all(&mut file, record.as_bytes())
                .map_err(|e| format!("{}: {e}", out.display()))?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `(workload, metric) -> seed -> value` of the untraced lines of a
/// `run` file.
type Runs = BTreeMap<(String, String), BTreeMap<u64, f64>>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = || format!("{path}:{}: not a `run` record", n + 1);
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if doc.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = doc.get("workload").and_then(Json::as_str).ok_or_else(bad)?;
        let seed = doc.get("seed").and_then(Json::as_u64).ok_or_else(bad)?;
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(bad());
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(number).ok_or_else(bad)?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .insert(seed, value);
        }
    }
    Ok(runs)
}

/// `compare`: one verdict per (metric, workload). Exits 1 when any pair
/// regressed.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, changed] = args else {
        return Err("usage: rsim-perfbench compare BASE.jsonl CHANGED.jsonl".into());
    };
    let bench = load_bench()?;
    let (base, changed) = (load_runs(base)?, load_runs(changed)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<16} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3] n", "changed median [q1, q3] n", "delta"
    );
    for w in &bench.workloads {
        for m in &bench.end_to_end {
            let key = (w.name().to_string(), m.name.clone());
            let (Some(a), Some(b)) = (base.get(&key), changed.get(&key)) else {
                continue;
            };
            let av: Vec<f64> = a.values().copied().collect();
            let bv: Vec<f64> = b.values().copied().collect();
            let pairs: Vec<(f64, f64)> = a
                .iter()
                .filter_map(|(s, &x)| b.get(s).map(|&y| (x, y)))
                .collect();
            let verdict =
                stats::verdict(&av, &bv, &pairs, m.bound.unwrap_or(0.0), m.higher_is_better);
            regressed |= verdict == stats::Verdict::Regressed;
            let summary = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}] {}", stats::median(v), v.len())
            };
            let delta = stats::median(&bv) / stats::median(&av) - 1.0;
            println!(
                "{:<16} {:<16} {:>30} {:>30} {:>+7.1}%  {}",
                w.name(),
                m.name,
                summary(&av),
                summary(&bv),
                delta * 100.0,
                verdict.label()
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
