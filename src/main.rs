//! The `revisionist-simulations` command-line tool: the paper's bounds,
//! simulations, campaigns, explorer, analyzer, fuzzer and campaign
//! service. `revisionist-simulations help` lists every subcommand with
//! its flags.
//!
//! Each subcommand declares its flags once, in its entry of `COMMANDS`.
//! The parser accepts exactly those flags, the usage text is generated
//! from them, and in debug builds reading an undeclared flag panics.
//! Flags are `--key value` pairs or bare `--switch`es; no external
//! argument parser is used.

use revisionist_simulations::core::bounds;
use revisionist_simulations::core::replay;
use revisionist_simulations::core::simulation::{Simulation, SimulationConfig};
use revisionist_simulations::core::stats;
use revisionist_simulations::protocols::racing::PhasedRacing;
use revisionist_simulations::smr::analyze::nearest_match;
use revisionist_simulations::smr::campaign::CampaignConfig;
use revisionist_simulations::smr::value::Value;
use revisionist_simulations::snapshot::client::AugOutcome;
use revisionist_simulations::tasks::agreement::consensus;
use revisionist_simulations::tasks::task::ColorlessTask;
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

/// One flag-table row: the flag's name without the leading `--`, and
/// the placeholder of its value. An empty placeholder marks a switch.
type Flag = (&'static str, &'static str);

/// A subcommand: everything its parser and its usage text know.
struct Command {
    name: &'static str,
    /// The positional synopsis (`BUNDLE.json`); a bracketed one
    /// (`[N K X]`) may be left out as a whole.
    args: &'static str,
    /// The flag table, in slices so that rows several subcommands share
    /// are declared once.
    flags: &'static [&'static [Flag]],
    about: &'static str,
    run: fn(&Flags) -> ExitCode,
}

/// The rows of every subcommand that builds a protocol family.
const PROTOCOL: &[Flag] = &[
    ("protocol", "racing|contrarian|ladder|illformed|serializable|gen:SEED[:MUT]"),
    ("procs", "N"), ("m", "M"), ("rounds", "R"),
];

/// The campaign-matrix rows `campaign` and `campaign-service` share.
const MATRIX: &[Flag] = &[
    ("sched", "rr,random,quantum:2,obstruction:1,crash:1"), ("runs", "R"), ("budget", "B"),
    ("seed-start", "S"), ("faults", "PLANS|sweep[:MAXSTEP]"), ("json", ""),
    ("json-out", "PATH"), ("no-preflight", ""),
];

/// The plain-campaign rows. A fault report has no replay mode and no
/// truncation or checkpoint fields, so `campaign --faults` rejects
/// these flags rather than ignore them.
const PLAIN_CAMPAIGN: &[Flag] = &[
    ("seed", "S"), ("wall-limit", "SECS"), ("stop-after", "N"), ("checkpoint", "PATH"),
    ("checkpoint-every", "N"), ("resume", "PATH"),
];

/// Every subcommand, in usage order.
const COMMANDS: &[Command] = &[
    Command {
        name: "bounds", args: "[N K X]", run: cmd_bounds, flags: &[],
        about: "the Corollary 33 bound table, or one grid point and its partition feasibility",
    },
    Command {
        name: "simulate", args: "", run: cmd_simulate,
        flags: &[&[("n", "N"), ("m", "M"), ("f", "F"), ("d", "D"), ("seed", "S"), ("trace", "")]],
        about: "one revisionist simulation over phased racing, replay-validated",
    },
    Command {
        name: "sweep", args: "", run: cmd_sweep,
        flags: &[&[("n", "N"), ("m", "M"), ("f", "F"), ("runs", "R"), ("threads", "T")]],
        about: "simulation statistics over seeds 0..R, identical at any --threads",
    },
    Command {
        name: "campaign", args: "", run: cmd_campaign,
        flags: &[PROTOCOL, MATRIX, &[("threads", "T"), ("bundle", "PATH")], PLAIN_CAMPAIGN],
        about: "seeded randomised campaign; --seed replays one run of the first --sched spec, \
                --faults certifies progress under fault plans, --bundle shrinks the first \
                failure into a replay bundle",
    },
    Command {
        name: "explore", args: "", run: cmd_explore,
        flags: &[PROTOCOL, &[("depth", "D"), ("max-configs", "C"), ("threads", "T"), ("seed", "S")],
            &[("json", ""), ("no-preflight", ""), ("no-dpor", ""), ("no-static", "")]],
        about: "bounded exhaustive model checking, exit 1 on a violation; --no-dpor and \
                --no-static keep the verdicts and drop a reduction",
    },
    Command {
        name: "campaign-service", args: "", run: cmd_campaign_service,
        flags: &[PROTOCOL, MATRIX,
            &[("workers", "W"), ("unit-runs", "U"), ("state", "DIR"), ("corpus", "DIR")],
            &[("listen", "ADDR")],
            &[("chaos", "kill@unit:U,torn@result:U,drop@N,delay@N,dup@N,corrupt@N,partition@A-B")],
            &[("max-lease-attempts", "K"), ("lease-timeout", "SECS"), ("summary", "")]],
        about: "crash-tolerant multi-process campaign, resumable from --state; --listen serves \
                TCP workers, and --workers 0 leaves the fleet to be managed externally",
    },
    Command {
        name: "campaign-worker", args: "", run: cmd_campaign_worker,
        flags: &[&[("connect", "ADDR"), ("tag", "K")]],
        about: "service worker: spawned over stdio pipes, or over TCP via --connect",
    },
    Command {
        name: "analyze", args: "", run: cmd_analyze,
        flags: &[PROTOCOL, &[("seed", "S"), ("budget", "B"), ("steps", "K")],
            &[("deny", "CODES"), ("warn", "CODES"), ("allow", "CODES")],
            &[("matrix", ""), ("explain", "RS-W0NN")]],
        about: "pre-flight analysis, exit 1 on a deny-level finding; CODES are comma-separated \
                RS-Wxxx",
    },
    Command {
        name: "fuzz", args: "", run: cmd_fuzz,
        flags: &[&[("seeds", "A..B"), ("mutants", ""), ("corpus", "DIR")],
            &[("kill-runs", "R"), ("clean-runs", "R"), ("budget", "B"), ("threads", "T")],
            &[("json", ""), ("json-out", "PATH")]],
        about: "generated-protocol mutation-kill fuzzing, exit 0 iff every prediction holds",
    },
    Command {
        name: "replay", args: "BUNDLE.json", run: cmd_replay, flags: &[&[("threads", "T")]],
        about: "replay a bundle T times at once, exit 0 only if each reproduces it bit-for-bit",
    },
    Command {
        name: "aug", args: "", run: cmd_aug,
        flags: &[&[("f", "F"), ("m", "M"), ("ops", "K"), ("seed", "S")],
            &[("certify", ""), ("bundle", "PATH")]],
        about: "the augmented snapshot's §3 check; --certify tries every crash and stall \
                placement and --bundle stores the first failed one",
    },
    Command {
        name: "audit", args: "", run: cmd_audit,
        flags: &[&[("n", "N"), ("k", "K"), ("x", "X"), ("m", "M"), ("schedules", "S")]],
        about: "Corollary 33 applied to a claimed register count, with evidence",
    },
    Command {
        name: "report", args: "", flags: &[], about: "the full experiments report",
        run: |_| {
            println!("run `cargo run --release --example experiments_report`");
            ExitCode::SUCCESS
        },
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    match COMMANDS.iter().find(|c| c.name == name) {
        Some(command) => match command.parse(&args[1..]) {
            Ok(flags) => (command.run)(&flags),
            Err(e) => usage_error(command, &e),
        },
        None if matches!(name.as_str(), "help" | "--help" | "-h") => {
            print_usage();
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown command: {name}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    let usage: String = COMMANDS.iter().map(Command::usage).collect();
    eprintln!("revisionist-simulations — the PODC 2018 revisionist simulation, runnable\n");
    eprintln!("USAGE:\n{usage}");
}

/// Prints `message` to stderr; exit code 1.
fn fail(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// Reports a usage error of `command`: the message, then its usage.
fn usage_error(command: &Command, message: &str) -> ExitCode {
    fail(&format!("{message}\n\nusage:\n{}", command.usage()))
}

impl Command {
    fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        let flags: &'static [&'static [Flag]] = self.flags;
        flags.iter().copied().flatten()
    }

    /// Parses the subcommand's arguments against its table. A usage
    /// error is an unknown flag (with a did-you-mean), a value flag
    /// without its value, a switch given a value, a repeated flag, or
    /// positionals the synopsis does not take.
    fn parse(&'static self, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags { command: self, given: HashMap::new(), args: Vec::new() };
        let (mut args, mut last_switch) = (args.iter().peekable(), None);
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if let Some(switch) = last_switch {
                    return Err(format!("--{switch} takes no value (got `{arg}`)"));
                }
                flags.args.push(arg.clone());
                continue;
            };
            let Some(&(name, value)) = self.rows().find(|(name, _)| *name == key) else {
                let hint = nearest_match(key, self.rows().map(|(name, _)| *name))
                    .map_or(String::new(), |name| format!(" (did you mean --{name}?)"));
                return Err(format!("unknown flag --{key} for {}{hint}", self.name));
            };
            let raw = match value {
                "" => String::new(),
                _ => args.next_if(|a| !a.starts_with("--")).cloned()
                    .ok_or_else(|| format!("--{name} needs a value ({value})"))?,
            };
            last_switch = value.is_empty().then_some(name);
            if flags.given.insert(name, raw).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        let (count, wanted) = (flags.args.len(), self.args.split_whitespace().count());
        if count != wanted && !(count == 0 && self.args.starts_with('[')) {
            return Err(match &flags.args[..] {
                [extra, ..] if wanted == 0 => format!("unexpected argument `{extra}`"),
                _ => format!("{} takes {} (got {count} arguments)", self.name, self.args),
            });
        }
        Ok(flags)
    }

    /// The usage block: the command line with every flag, then the
    /// summary in parentheses, wrapped at 80 columns.
    fn usage(&self) -> String {
        let flags = self.rows().map(|&(name, value)| match value {
            "" => format!("[--{name}]"),
            _ => format!("[--{name} {value}]"),
        });
        let about = format!("({})", self.about);
        // The empty word breaks the line: the summary starts its own.
        let words = flags.chain([String::new()]).chain(about.split(' ').map(String::from));
        let mut out = String::new();
        let mut line = format!("  revisionist-simulations {} {}", self.name, self.args);
        line.truncate(line.trim_end().len());
        for word in words {
            if word.is_empty() || line.len() + 1 + word.len() > 80 {
                out += &line;
                out += "\n";
                line = "    ".into();
            }
            if !word.is_empty() {
                line += " ";
                line += &word;
            }
        }
        out + &line + "\n"
    }
}

/// A subcommand's parsed arguments. Every flag read goes through
/// [`Flags::value`].
struct Flags {
    command: &'static Command,
    /// The given flags; a switch maps to the empty string.
    given: HashMap<&'static str, String>,
    /// The positional arguments.
    args: Vec<String>,
}

impl Flags {
    /// The raw value of `--name` (empty for a switch), `None` when the
    /// flag is absent. Panics in debug builds when the subcommand's
    /// table does not declare `name`.
    fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(self.command.rows().any(|&(row, _)| row == name), "undeclared --{name}");
        self.given.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// Reads the numeric flag `--name`: `None` when it is absent. A
    /// malformed value is never read as the default — it ends the
    /// process with exit code 1 and a message naming the flag and the
    /// value.
    fn num<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = self.value(name)?;
        let value = raw.parse().ok();
        if value.is_none() {
            eprintln!("bad --{name} `{raw}` (expected a non-negative integer)");
            std::process::exit(1);
        }
        value
    }

    /// [`Flags::num`] with a default for an absent flag.
    fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        self.num(name).unwrap_or(default)
    }
}

fn cmd_bounds(flags: &Flags) -> ExitCode {
    let Ok(nums) = flags.args.iter().map(|a| a.parse()).collect::<Result<Vec<usize>, _>>() else {
        return usage_error(flags.command, "N K X must be non-negative integers");
    };
    match nums.as_slice() {
        [n, k, x] => {
            if !(1 <= *x && *x <= *k && *k < *n) {
                eprintln!("need 1 <= x <= k < n");
                return ExitCode::FAILURE;
            }
            let lo = bounds::kset_space_lower_bound(*n, *k, *x);
            let hi = bounds::kset_space_upper_bound(*n, *k, *x);
            println!("{x}-obstruction-free {k}-set agreement among {n} processes:");
            println!("  lower bound (Corollary 33): {lo} registers");
            println!("  upper bound (n-k+x, [16]):  {hi} registers");
            println!("  partition feasibility with f = k+1 simulators, d = x direct:");
            for m in 1..=*n {
                println!(
                    "    m = {m:>3}: {}",
                    if bounds::simulation_feasible(*n, m, k + 1, *x) {
                        "feasible  (m < bound: the reduction applies)"
                    } else {
                        "infeasible (m >= bound)"
                    }
                );
            }
        }
        _ => {
            println!("{:>4} {:>4} {:>4} | {:>6} {:>6}", "n", "k", "x", "lower", "upper");
            for n in [4usize, 8, 16, 32, 64] {
                for (k, x) in [(1usize, 1usize), (2, 1), (2, 2), (n / 2, 1), (n - 1, 1)] {
                    if k == 0 || k >= n || x > k {
                        continue;
                    }
                    println!(
                        "{:>4} {:>4} {:>4} | {:>6} {:>6}",
                        n,
                        k,
                        x,
                        bounds::kset_space_lower_bound(n, k, x),
                        bounds::kset_space_upper_bound(n, k, x)
                    );
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_simulate(flags: &Flags) -> ExitCode {
    let n = flags.get("n", 4);
    let m = flags.get("m", 2);
    let f = flags.get("f", 2);
    let d = flags.get("d", 0);
    let seed = flags.get::<u64>("seed", 0);
    let config = SimulationConfig::new(n, m, f, d);
    if !config.is_feasible() {
        eprintln!(
            "infeasible: ({f} - {d})*{m} + {d} > {n} — m is at or above the space bound"
        );
        return ExitCode::FAILURE;
    }
    let inputs: Vec<Value> = (1..=f as i64).map(Value::Int).collect();
    let mut sim = Simulation::new(config, inputs.clone(), move |i| {
        PhasedRacing::new(m, Value::Int(i as i64 + 1))
    })
    .expect("feasible");
    sim.run_random(seed, 50_000_000).expect("protocol is OF");
    println!(
        "simulation n={n} m={m} f={f} d={d} seed={seed}: {} H-steps",
        sim.real().log().len()
    );
    for i in 0..f {
        let (scans, bus) = sim.op_counts(i);
        println!(
            "  q{i}: output {:?}; {scans} Scans, {bus} Block-Updates (b({}) = {}), \
             {} revisions",
            sim.output(i),
            i + 1,
            bounds::b_bound(m, i + 1),
            sim.revisions(i).len()
        );
    }
    let outs: Vec<Value> = sim.outputs().into_iter().flatten().collect();
    match consensus().validate(&inputs, &outs) {
        Ok(()) => println!("  outputs satisfy consensus"),
        Err(e) => println!("  EXTRACTED VIOLATION: {e}"),
    }
    let report = replay::validate(&sim, move |i| {
        PhasedRacing::new(m, Value::Int(i as i64 + 1))
    })
    .expect("reconstruction");
    println!(
        "  Lemma 26/27 replay: {} ({} steps, {} hidden)",
        if report.is_ok() { "LEGAL" } else { "MISMATCH" },
        report.steps,
        report.hidden_steps
    );
    if flags.has("trace") {
        println!("\nM operations:");
        for (idx, rec) in sim.real().oplog().iter().enumerate() {
            match &rec.outcome {
                AugOutcome::Scan(s) => {
                    println!("  #{idx:<3} q{}  Scan -> {:?}", rec.pid, s.view)
                }
                AugOutcome::BlockUpdate(b) => println!(
                    "  #{idx:<3} q{}  BU {:?} {:?} -> {}",
                    rec.pid,
                    b.components,
                    b.values,
                    match &b.result {
                        Some(v) => format!("atomic {v:?}"),
                        None => "YIELD".into(),
                    }
                ),
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_audit(flags: &Flags) -> ExitCode {
    use revisionist_simulations::core::audit::{audit_kset, AuditVerdict};
    let n = flags.get("n", 4);
    let k = flags.get("k", 1);
    let x = flags.get("x", 1);
    let m = flags.get("m", 2);
    let schedules = flags.get::<u64>("schedules", 300);
    if !(1 <= x && x <= k && k < n) {
        eprintln!("need 1 <= x <= k < n");
        return ExitCode::FAILURE;
    }
    let inputs: Vec<Value> = (1..=k as i64 + 1).map(Value::Int).collect();
    let verdict = audit_kset(
        n,
        k,
        x,
        m,
        &inputs,
        move |i| PhasedRacing::new(m, Value::Int(i as i64 + 1)),
        schedules,
    )
    .expect("audit run");
    println!(
        "audit: {x}-obstruction-free {k}-set agreement, n = {n}, claimed m = {m}"
    );
    match verdict {
        AuditVerdict::Consistent { bound, .. } => {
            println!("  CONSISTENT with Corollary 33 (bound {bound} <= m).");
            println!("  (Consistency does not certify correctness.)");
        }
        AuditVerdict::Impossible { bound, evidence, schedules_tried, .. } => {
            println!("  IMPOSSIBLE: m = {m} < {bound} = the Corollary 33 bound.");
            match evidence {
                Some(ev) => {
                    println!(
                        "  evidence: seed {} extracts wait-free outputs {:?} \
                         ({} H-steps) — a task violation.",
                        ev.seed, ev.outputs, ev.h_steps
                    );
                }
                None => println!(
                    "  no violating schedule within {schedules_tried} tries \
                     (the bound holds regardless)."
                ),
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_sweep(flags: &Flags) -> ExitCode {
    let n = flags.get("n", 4);
    let m = flags.get("m", 2);
    let f = flags.get("f", 2);
    let runs = flags.get::<u64>("runs", 100);
    let config = SimulationConfig::new(n, m, f, 0);
    if !config.is_feasible() {
        eprintln!("infeasible partition");
        return ExitCode::FAILURE;
    }
    let threads = flags.get("threads", 0);
    let inputs: Vec<Value> = (1..=f as i64).map(Value::Int).collect();
    let point = match stats::sweep_parallel(
        config,
        &inputs,
        move |i| PhasedRacing::new(m, Value::Int(i as i64 + 1)),
        &consensus(),
        0..runs,
        50_000_000,
        threads,
    ) {
        Ok(point) => point,
        Err(e) => return fail(&format!("sweep failed: {e}")),
    };
    println!("  n   m   f | runs   wf replay  viol |    maxH    meanH | maxBU≤b(i)");
    println!("{}", point.row());
    println!(
        "budgets hold: {}; revisions: {}; hidden steps: {}",
        point.budgets_hold(),
        point.revisions,
        point.hidden_steps
    );
    ExitCode::SUCCESS
}

/// The protocol instance a subcommand builds: from the `PROTOCOL`
/// rows of its command line, or from the system description of a work
/// unit or replay bundle.
struct SystemArgs {
    protocol: String,
    procs: usize,
    m: usize,
    rounds: usize,
}

impl SystemArgs {
    fn from_flags(flags: &Flags) -> SystemArgs {
        SystemArgs {
            protocol: flags.value("protocol").unwrap_or("racing").to_string(),
            procs: flags.get("procs", 3),
            m: flags.get("m", 2),
            rounds: flags.get("rounds", 3),
        }
    }

    /// The ordered system description stamped into replay bundles and
    /// service work units: how `replay` and `campaign-worker` rebuild
    /// exactly this campaign's system and check.
    fn to_system(&self) -> Vec<(String, String)> {
        vec![
            ("kind".into(), "campaign".into()),
            ("protocol".into(), self.protocol.clone()),
            ("procs".into(), self.procs.to_string()),
            ("m".into(), self.m.to_string()),
            ("rounds".into(), self.rounds.to_string()),
        ]
    }

    /// The inverse of [`SystemArgs::to_system`]. It fails closed: a
    /// missing or malformed field is an error naming it, never a
    /// default. Only `ladder` and `iis` read `rounds`, so other
    /// protocols may omit it.
    fn from_system(system: &[(String, String)]) -> Result<SystemArgs, String> {
        let protocol: String = system_field(system, "protocol")?;
        let has_rounds = matches!(protocol.as_str(), "ladder" | "iis")
            || system.iter().any(|(k, _)| k == "rounds");
        let rounds = if has_rounds { system_field(system, "rounds")? } else { 0 };
        let (procs, m) = (system_field(system, "procs")?, system_field(system, "m")?);
        Ok(SystemArgs { protocol, procs, m, rounds })
    }
}

/// Field `key` of a system description, parsed; a missing or malformed
/// field is an error naming it.
fn system_field<T: FromStr>(system: &[(String, String)], key: &str) -> Result<T, String> {
    let missing = || format!("system description lacks `{key}`");
    let (_, raw) = system.iter().find(|(k, _)| k == key).ok_or_else(missing)?;
    raw.parse().map_err(|_| format!("bad `{key}` `{raw}` in system description"))
}

/// A boxed seeded system factory for a campaign protocol family.
type ProtocolFactory =
    Box<dyn Fn(u64) -> revisionist_simulations::smr::system::System + Sync>;

/// Builds the seeded system factory for a campaign protocol family.
/// Shared by `campaign` (finding violations) and `replay` (reproducing
/// them from a bundle), so a bundle's `system` description rebuilds
/// exactly the system the campaign ran. An unknown protocol is an
/// error naming the known ones.
fn protocol_factory(sys: &SystemArgs) -> Result<ProtocolFactory, String> {
    use revisionist_simulations::protocols::contrarian::contrarian_system;
    use revisionist_simulations::protocols::iis::iis_system;
    use revisionist_simulations::protocols::illformed::illformed_system;
    use revisionist_simulations::protocols::ladder::ladder_system;
    use revisionist_simulations::protocols::racing::racing_system;
    use revisionist_simulations::protocols::serializable::serializable_system;
    let (protocol, procs, m, rounds) = (sys.protocol.as_str(), sys.procs, sys.m, sys.rounds);
    let inputs: Vec<Value> = (1..=procs as i64).map(Value::Int).collect();
    // Generated protocols carry their whole configuration in the name
    // (`gen:SEED[:MUTATION]`); --procs/--m/--rounds are ignored.
    if protocol.starts_with("gen:") {
        let spec = revisionist_simulations::smr::gen::GenSpec::parse_cli(protocol)
            .map_err(|e| e.to_string())?;
        return Ok(Box::new(move |_seed| spec.build_system()));
    }
    Ok(match protocol {
        "racing" => Box::new(move |_seed| racing_system(m, &inputs)),
        "ladder" => Box::new(move |_seed| ladder_system(&inputs, rounds)),
        "contrarian" => Box::new(move |seed| {
            // Input bits vary with the seed so the campaign covers all
            // 2^procs input assignments (deterministically per seed).
            let bits: Vec<bool> = (0..procs).map(|i| (seed >> i) & 1 == 1).collect();
            contrarian_system(&bits)
        }),
        // Iterated immediate snapshot: the explorer's closed-form
        // oracle, Fubini(procs)^rounds terminal output vectors.
        "iis" => Box::new(move |_seed| iis_system(procs, rounds)),
        // The analyzer's acceptance fixture (fixed shape: 4 processes,
        // one 8-component single-writer snapshot). A campaign over it
        // is rejected by the pre-flight unless --no-preflight is given.
        "illformed" => Box::new(move |_seed| illformed_system()),
        // The statically serializable fixture: n blind max-register
        // writers whose independence matrix is edge-free (RS-W010).
        "serializable" => Box::new(move |_seed| {
            let stamps: Vec<i64> = (1..=procs as i64).collect();
            serializable_system(&stamps)
        }),
        _ => {
            return Err(format!(
                "unknown --protocol {protocol} (racing, contrarian, ladder, iis, illformed, \
                 serializable, gen:SEED[:MUTATION])"
            ))
        }
    })
}

/// A boxed campaign check: inspects a terminated system, returns the
/// violation message if the protocol's task was violated.
type ProtocolCheck =
    Box<dyn Fn(&revisionist_simulations::smr::system::System) -> Option<String> + Sync>;

/// The campaign check for a protocol family. Terminated runs of the
/// agreement protocols must satisfy consensus; a violation is the
/// observable Theorem 21 artifact and is recorded with its replayable
/// seed. The contrarian family has no output task — there the campaign
/// measures termination only.
fn protocol_check(sys: &SystemArgs) -> ProtocolCheck {
    let (protocol, procs) = (sys.protocol.as_str(), sys.procs);
    // Generated protocols use the fuzz harness's partial-output check —
    // the same message text, so fuzz-corpus bundle fingerprints
    // reproduce under `replay` and `campaign`.
    if protocol.starts_with("gen:") {
        if let Ok(spec) = revisionist_simulations::smr::gen::GenSpec::parse_cli(protocol)
        {
            return Box::new(revisionist_simulations::smr::gen::fuzz::consensus_check(
                spec.inputs(),
            ));
        }
    }
    // Iterated immediate snapshot outputs views, which must have the
    // immediate snapshot properties.
    if protocol == "iis" {
        return Box::new(|sys| {
            let outs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
            (outs.len() == sys.process_count())
                .then(|| revisionist_simulations::protocols::iis::immediate_snapshot_violation(&outs))
                .flatten()
        });
    }
    // The contrarian family has no output task; the serializable
    // writers each output their own stamp, so consensus does not apply.
    let validate_consensus = protocol != "contrarian" && protocol != "serializable";
    let inputs: Vec<Value> = (1..=procs as i64).map(Value::Int).collect();
    Box::new(move |sys| {
        if !validate_consensus || !sys.all_terminated() {
            return None;
        }
        let outs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
        consensus().validate(&inputs, &outs).err().map(|e| e.to_string())
    })
}

/// Captures and ddmin-minimises one failing cell: re-runs the
/// (spec, seed, plan) cell to record its decision trace, shrinks it
/// while preserving the violation fingerprint, prints the shrink ratio
/// (stderr, so `--json` stdout stays machine-parseable), and returns
/// the minimized counterexample as a portable replay bundle.
fn minimized_bundle(
    system: &[(String, String)],
    spec: &revisionist_simulations::smr::campaign::SchedulerSpec,
    seed: u64,
    budget: usize,
    plan: &revisionist_simulations::smr::fault::FaultPlan,
    factory: &dyn Fn(u64) -> revisionist_simulations::smr::system::System,
    check: revisionist_simulations::smr::shrink::CexCheck,
) -> Option<revisionist_simulations::smr::bundle::ReplayBundle> {
    use revisionist_simulations::smr::bundle::{tool_id, ReplayBundle, BUNDLE_VERSION};
    use revisionist_simulations::smr::shrink;

    let Some((cex, _)) = shrink::capture(spec, seed, budget, plan, factory, check)
    else {
        eprintln!("  could not re-capture the failure as a decision trace");
        return None;
    };
    let seeded = || factory(seed);
    let (shrunk, report) = shrink::shrink(&cex, &seeded, check);
    eprintln!("  shrunk counterexample: {}", report.ratio());
    let outcome = shrink::execute(&seeded, &shrunk, check);
    let (Some(violation), Some(fingerprint)) =
        (outcome.violation.clone(), outcome.fingerprint())
    else {
        eprintln!("  shrunk trace no longer violates — not bundling");
        return None;
    };
    Some(ReplayBundle {
        version: BUNDLE_VERSION,
        tool: tool_id(),
        system: system.to_vec(),
        scheduler: spec.to_string(),
        seed,
        plan: shrunk.plan.to_string(),
        decisions: shrunk.decisions.iter().map(|p| p.0).collect(),
        fingerprint,
        violation,
    })
}

/// The tail every campaign report shares, plain or `--faults`: writes
/// `--json-out`, then shrinks the first violating run, given as its
/// `(scheduler, fault plan, seed)` cell. A raw violating schedule is
/// replayable but noisy; the ddmin-minimized trace (and, with
/// `--bundle PATH`, its portable artifact) is the useful reproducer.
/// Returns false only when `--json-out` could not be written.
fn publish_campaign_report(
    flags: &Flags,
    json: &str,
    first_violation: Option<Result<FailingCell, String>>,
    budget: usize,
    bundle_system: &[(String, String)],
    factory: &dyn Fn(u64) -> revisionist_simulations::smr::system::System,
    check: revisionist_simulations::smr::shrink::CexCheck,
) -> bool {
    if !write_json_out(flags, json) {
        return false;
    }
    let (spec, plan, seed) = match first_violation {
        Some(Ok(cell)) => cell,
        Some(Err(e)) => {
            eprintln!("  cannot shrink failure: {e}");
            return true;
        }
        None => {
            if flags.has("bundle") {
                eprintln!("  no violation to bundle (bundles record violations only)");
            }
            return true;
        }
    };
    let Some(minimized) =
        minimized_bundle(bundle_system, &spec, seed, budget, &plan, factory, check)
    else {
        return true;
    };
    if let Some(path) = flags.value("bundle") {
        match minimized.store(std::path::Path::new(path)) {
            Ok(()) => eprintln!("  replay bundle written to {path}"),
            Err(e) => eprintln!("  cannot write bundle {path}: {e}"),
        }
    }
    true
}

/// A failing run's replay coordinates: scheduler, fault plan, seed.
type FailingCell = (
    revisionist_simulations::smr::campaign::SchedulerSpec,
    revisionist_simulations::smr::fault::FaultPlan,
    u64,
);

/// Writes a JSON report atomically when `--json-out PATH` was given.
fn write_json_out(flags: &Flags, json: &str) -> bool {
    let Some(path) = flags.value("json-out") else {
        return true;
    };
    match revisionist_simulations::smr::json::write_atomic(
        std::path::Path::new(path),
        json,
    ) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("cannot write --json-out {path}: {e}");
            false
        }
    }
}

/// The `explore` subcommand: bounded exhaustive model checking of one
/// protocol fixture through the deterministic parallel frontier, with
/// happens-before-guided partial-order reduction on by default
/// (`--no-dpor` disables it; the active setting is recorded in the
/// report so artifacts stay self-describing). Exits nonzero on a
/// violation or an exploration error.
fn cmd_explore(flags: &Flags) -> ExitCode {
    use revisionist_simulations::smr::explore::{Explorer, Limits};

    let sys = SystemArgs::from_flags(flags);
    let protocol = sys.protocol.as_str();
    let depth = flags.get("depth", 64);
    let max_configs = flags.get("max-configs", 200_000);
    // `0` means one worker per core, as for `sweep` and `fuzz`; the
    // report names the count it resolved to.
    let threads = revisionist_simulations::smr::pool::resolve_threads(flags.get("threads", 1));
    let seed = flags.get::<u64>("seed", 0);

    let factory = match protocol_factory(&sys) {
        Ok(factory) => factory,
        Err(e) => return fail(&e),
    };
    let system = factory(seed);
    let check = protocol_check(&sys);
    let explorer = Explorer::new(Limits { max_depth: depth, max_configs })
        .with_threads(threads)
        .with_dpor(!flags.has("no-dpor"))
        .with_static(!flags.has("no-static"))
        .with_preflight(!flags.has("no-preflight"));
    let start = std::time::Instant::now();
    let report = match explorer.explore_parallel(&system, &*check) {
        Ok(report) => report,
        Err(e) => return fail(&format!("exploration failed: {e}")),
    };
    let elapsed = start.elapsed();
    let states_per_sec = report.configs_visited as f64 / elapsed.as_secs_f64().max(1e-9);

    if flags.has("json") {
        let violation = report.violation.as_ref().map_or("null".to_string(), |(sched, msg)| {
            format!(
                "{{\"schedule\": [{}], \"message\": {}}}",
                sched.iter().map(|p| p.0.to_string()).collect::<Vec<_>>().join(", "),
                revisionist_simulations::smr::json::escape(msg),
            )
        });
        println!(
            "{{\n  \"protocol\": {},\n  \"procs\": {},\n  \"threads\": {},\n  \
             \"dpor\": {},\n  \"static_seed\": {},\n  \"static_indep_pairs\": {},\n  \
             \"prefilter_hits\": {},\n  \
             \"configs_visited\": {},\n  \"terminals\": {},\n  \
             \"pruned\": {},\n  \"reduction_factor\": {:.4},\n  \
             \"truncated\": {},\n  \"truncation\": {},\n  \"violation\": {},\n  \
             \"elapsed_ms\": {},\n  \"states_per_sec\": {:.0}\n}}",
            revisionist_simulations::smr::json::escape(protocol),
            system.process_count(),
            threads,
            report.dpor,
            report.static_seed,
            report.static_indep_pairs,
            report.prefilter_hits,
            report.configs_visited,
            report.terminals,
            report.pruned,
            report.reduction_factor(),
            report.truncated,
            report
                .truncation
                .as_deref()
                .map_or("null".into(), revisionist_simulations::smr::json::escape),
            violation,
            elapsed.as_millis(),
            states_per_sec,
        );
    } else {
        println!(
            "explore {protocol}: {} processes, depth ≤ {depth}, threads {threads}, \
             dpor {}, static seeding {}",
            system.process_count(),
            if report.dpor { "on" } else { "off" },
            if report.static_seed { "on" } else { "off" },
        );
        if report.static_seed {
            println!(
                "  static matrix: {} independent pairs, {} prefilter hits",
                report.static_indep_pairs, report.prefilter_hits,
            );
        }
        println!(
            "  visited {} configurations ({} terminals) in {:.1}ms ({:.0} states/s)",
            report.configs_visited,
            report.terminals,
            elapsed.as_secs_f64() * 1e3,
            states_per_sec,
        );
        println!(
            "  reduction: {} forks pruned, factor {:.2}x",
            report.pruned,
            report.reduction_factor(),
        );
        if report.truncated {
            println!(
                "  TRUNCATED: {}",
                report.truncation.as_deref().unwrap_or("limits reached")
            );
        }
        match &report.violation {
            None => println!("  no violations"),
            Some((sched, msg)) => {
                println!("  VIOLATION: {msg}");
                println!(
                    "  schedule: {}",
                    sched.iter().map(|p| format!("p{}", p.0)).collect::<Vec<_>>().join(" ")
                );
            }
        }
    }
    if report.violation.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The set-up `campaign` and `campaign-service` share: reads the
/// `MATRIX` rows into a campaign shape (defaults from
/// `CampaignConfig::default()`, threads left to the caller) whose
/// `--sched` mix has exactly one spec under `--faults`, since a fault
/// matrix runs every plan on one base scheduler. It then builds the
/// protocol factory and runs the mandatory pre-flight, which lints the
/// system before any run burns exploration time. Warnings go to stderr
/// (stdout stays machine-parseable for `--json`); deny-level findings
/// reject the `what` unless `--no-preflight`. Errors are printed;
/// `None` means exit 1.
fn campaign_setup(
    flags: &Flags,
    sys: &SystemArgs,
    what: &str,
) -> Option<(CampaignConfig, ProtocolFactory)> {
    use revisionist_simulations::smr::analyze::LintConfig;
    use revisionist_simulations::smr::campaign::{preflight_campaign, SchedulerSpec};

    let mut config = CampaignConfig::default();
    if let Some(raw) = flags.value("sched") {
        let specs = raw.split(',').filter(|p| !p.is_empty()).map(SchedulerSpec::parse);
        config.schedulers = match specs.collect::<Result<Vec<_>, _>>() {
            Ok(specs) => specs,
            Err(e) => {
                eprintln!(
                    "{e}\nvalid --sched specs: rr | random | quantum:Q | obstruction:X \
                     | crash:C (comma-separated)"
                );
                return None;
            }
        };
        if config.schedulers.is_empty() {
            eprintln!("--sched needs at least one scheduler spec");
            return None;
        }
        if config.schedulers.len() > 1 && flags.has("faults") {
            eprintln!(
                "--faults takes exactly one --sched spec (the base scheduler), \
                 got `{raw}`"
            );
            return None;
        }
    }
    let factory = protocol_factory(sys).map_err(|e| eprintln!("{e}")).ok()?;
    config.seed_start = flags.get("seed-start", config.seed_start);
    config.runs = flags.get("runs", config.runs);
    config.budget = flags.get("budget", config.budget);
    if !flags.has("no-preflight") {
        match preflight_campaign(&factory, config.seed_start, &LintConfig::default()) {
            Ok(report) => {
                if report.warn_count() > 0 {
                    eprintln!("{}", report.render());
                }
                eprintln!("preflight: ok ({} warnings)", report.warn_count());
            }
            Err(e) => {
                eprintln!("{e}");
                eprintln!("(--no-preflight runs the {what} anyway)");
                return None;
            }
        }
    }
    Some((config, factory))
}

fn cmd_campaign(flags: &Flags) -> ExitCode {
    use revisionist_simulations::smr::campaign::{
        replay_run, run_campaign_with, CampaignCheckpoint, CampaignOptions, SchedulerSpec,
    };
    use revisionist_simulations::smr::fault::FaultPlan;
    use std::time::Duration;

    let plain = PLAIN_CAMPAIGN.iter().find(|(name, _)| flags.has("faults") && flags.has(name));
    if let Some((flag, _)) = plain {
        eprintln!("--{flag} does not apply to a --faults campaign");
        if *flag == "seed" {
            eprintln!("to replay one fault run: --faults PLAN --seed-start S --runs 1");
        }
        return ExitCode::FAILURE;
    }
    let sys = SystemArgs::from_flags(flags);
    let Some((mut config, factory)) = campaign_setup(flags, &sys, "campaign") else {
        return ExitCode::FAILURE;
    };
    config.threads = flags.get("threads", config.threads);
    let bundle_system = sys.to_system();

    if let Some(faults_raw) = flags.value("faults") {
        return cmd_campaign_faults(flags, faults_raw, &config, &sys, &factory, &bundle_system);
    }
    let check = protocol_check(&sys);
    if let Some(seed) = flags.num::<u64>("seed") {
        let record = replay_run(&config.schedulers[0], seed, config.budget, &factory, &check);
        println!(
            "replay {} seed {}: {} steps, {}",
            record.scheduler,
            record.seed,
            record.steps,
            if record.terminated { "terminated" } else { "not terminated" }
        );
        match (&record.violation, &record.error) {
            (Some(v), _) => println!("  VIOLATION: {v}"),
            (None, Some(e)) => println!("  ERROR: {e}"),
            (None, None) => println!("  clean"),
        }
        return ExitCode::SUCCESS;
    }

    // The campaign identity stamped into checkpoints; resume refuses a
    // checkpoint from any other campaign instead of silently merging
    // incompatible aggregates.
    let spec_id =
        revisionist_simulations::smr::campaign::campaign_spec_id(&sys.protocol, &config);
    let mut options = CampaignOptions {
        wall_limit: flags.num("wall-limit").map(Duration::from_secs),
        stop_after: flags.num("stop-after"),
        checkpoint_every: flags.num("checkpoint-every"),
        checkpoint_path: flags.value("checkpoint").map(std::path::PathBuf::from),
        resume_from: None,
        spec_id: Some(spec_id.clone()),
    };
    if let Some(path) = flags.value("resume") {
        match CampaignCheckpoint::load(std::path::Path::new(path)) {
            Ok(checkpoint) => {
                if let Err(e) = checkpoint.ensure_matches(&spec_id) {
                    return fail(&format!("cannot resume: {e}"));
                }
                options.resume_from = Some(checkpoint);
                // Keep checkpointing to the same file unless overridden.
                if options.checkpoint_path.is_none() {
                    options.checkpoint_path = Some(std::path::PathBuf::from(path));
                }
            }
            Err(e) => return fail(&format!("cannot resume: {e}")),
        }
    }
    let report = run_campaign_with(&config, &options, &factory, &check);
    let first_violation = report.failures.iter().find(|r| r.violation.is_some()).map(|r| {
        SchedulerSpec::parse(&r.scheduler)
            .map(|spec| (spec, FaultPlan::none(), r.seed))
            .map_err(|e| e.to_string())
    });
    if !publish_campaign_report(
        flags,
        &report.to_json(),
        first_violation,
        config.budget,
        &bundle_system,
        &|seed| factory(seed),
        &|sys, _crashed| check(sys),
    ) {
        return ExitCode::FAILURE;
    }
    if flags.has("json") {
        print!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }
    println!(
        "campaign: protocol={} procs={} schedulers=[{}] seeds={}..{}",
        sys.protocol,
        sys.procs,
        config
            .schedulers
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(","),
        config.seed_start,
        config.seed_start + config.runs as u64,
    );
    print_campaign_outcome(&report);
    ExitCode::SUCCESS
}

/// The human-readable body of a campaign report, shared by `campaign`
/// and `campaign-service`: aggregates, the truncation notice,
/// per-scheduler tallies, and the first failing runs with
/// their replay flags.
fn print_campaign_outcome(
    report: &revisionist_simulations::smr::campaign::CampaignReport,
) {
    println!(
        "  {} runs: {} terminated, {} distinct configs, {} total steps",
        report.total_runs,
        report.terminated_runs,
        report.distinct_configs,
        report.total_steps,
    );
    if let Some(notice) = &report.truncation {
        println!("  TRUNCATED: {notice} ({} runs skipped)", report.skipped_runs);
    }
    for tally in &report.per_scheduler {
        println!(
            "  {:<14} {} runs, {} terminated, {} failures",
            tally.scheduler, tally.runs, tally.terminated, tally.failures
        );
    }
    if report.failures.is_empty() {
        println!("  no violations or errors");
    } else {
        println!("  {} failing runs (each replayable):", report.failures.len());
        for r in report.failures.iter().take(10) {
            println!(
                "    --sched {} --seed {}: {}",
                r.scheduler,
                r.seed,
                r.violation.as_deref().or(r.error.as_deref()).unwrap_or("?")
            );
        }
        if report.failures.len() > 10 {
            println!("    ... and {} more", report.failures.len() - 10);
        }
    }
}

/// The `analyze` subcommand: Pass 1 (static lint of the protocol's
/// footprints) plus Pass 2 (happens-before check of a seeded bounded
/// round-robin run). A runtime `WriterViolation` during the driven run
/// is converted into an RS-W006 diagnostic (and the offending process
/// marked stuck) instead of aborting — the ill-formed fixture's
/// trespasser is reportable, not fatal. Exits nonzero iff any
/// deny-level diagnostic fires.
fn cmd_analyze(flags: &Flags) -> ExitCode {
    use revisionist_simulations::smr::analyze::{self, LintCode, LintConfig};
    use revisionist_simulations::smr::error::ModelError;
    use revisionist_simulations::smr::process::ProcessId;

    // `--explain RS-W0NN` needs no protocol: print the code's summary
    // and paper rationale, exit 1 on an unknown code (with the parser's
    // did-you-mean suggestion on stderr).
    if let Some(spec) = flags.value("explain") {
        return match LintCode::parse(spec) {
            Ok(code) => {
                println!("{}: {}", code.id(), code.summary());
                println!();
                println!("{}", code.rationale());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                eprintln!("known lint codes: {}", analyze::known_codes());
                ExitCode::FAILURE
            }
        };
    }

    let sys = SystemArgs::from_flags(flags);
    let protocol = sys.protocol.as_str();
    let budget = flags.get("budget", analyze::DEFAULT_BUDGET);
    let seed = flags.get::<u64>("seed", 0);
    let steps = flags.get("steps", 2_000);

    let mut config = LintConfig::default();
    let codes = |severity| flags.value(severity).unwrap_or("");
    if let Err(e) = config.apply_overrides(codes("deny"), codes("warn"), codes("allow")) {
        return fail(&format!("{e}\nknown lint codes: {}", analyze::known_codes()));
    }

    let factory = match protocol_factory(&sys) {
        Ok(factory) => factory,
        Err(e) => return fail(&e),
    };
    let initial = factory(seed);
    let n = initial.process_count();
    println!(
        "analyze: protocol={protocol} n={n} m={} (seed {seed})",
        initial.space_complexity()
    );

    // Pass 1: static lint — no schedule executes.
    let mut findings = analyze::lint_system(&initial, budget);

    // Pass 3: static interference over the same covering budget.
    // `--matrix` prints the exact matrix the findings derive from.
    let matrix = analyze::InterferenceMatrix::build(&initial, budget);
    if flags.has("matrix") {
        println!("{}", matrix.render());
    }
    findings.extend(analyze::interfere_findings(&initial, &matrix));

    // Pass 2: happens-before check over a seeded bounded round-robin
    // run. Ownership violations the runtime rejects become RS-W006
    // findings; the trace itself then replays cleanly.
    let mut sys = initial.clone();
    let mut stuck = vec![false; n];
    for slot in 0..steps {
        let pid = ProcessId(slot % n);
        if stuck[pid.0] || sys.is_terminated(pid) {
            if (0..n).all(|i| stuck[i] || sys.is_terminated(ProcessId(i))) {
                break;
            }
            continue;
        }
        match sys.step(pid) {
            Ok(_) => {}
            Err(ModelError::WriterViolation { process, component }) => {
                findings.push((
                    LintCode::HappensBefore,
                    format!(
                        "run (seed {seed}): runtime rejected p{process}'s write to \
                         single-writer component {component}; process marked stuck"
                    ),
                ));
                stuck[process] = true;
            }
            Err(e) => return fail(&format!("analyze: driven run failed: {e}")),
        }
    }
    let events = sys.trace().to_vec();
    findings.extend(analyze::check_execution(&initial, &events));

    let report = analyze::AnalysisReport::from_findings(findings, &config);
    for diagnostic in &report.diagnostics {
        println!("{diagnostic}");
    }
    if report.is_clean() {
        println!("analysis: clean ({} warnings)", report.warn_count());
        ExitCode::SUCCESS
    } else {
        println!(
            "analysis: {} deny-level, {} warn-level diagnostics",
            report.deny_count(),
            report.warn_count()
        );
        ExitCode::FAILURE
    }
}

/// The `fuzz` subcommand: seeded protocol generation plus the
/// mutation-kill harness. Exit code 0 iff every generated base passed
/// pre-flight and every mutant matched its paper-predicted verdict.
fn cmd_fuzz(flags: &Flags) -> ExitCode {
    use revisionist_simulations::smr::gen::fuzz::MutantResult;
    use revisionist_simulations::smr::gen::{run_fuzz, FuzzConfig};

    let seeds_raw = flags.value("seeds").unwrap_or("0..16");
    let seeds = match seeds_raw.split_once("..") {
        Some((a, b)) => match (a.parse::<u64>(), b.parse::<u64>()) {
            (Ok(a), Ok(b)) if a < b => a..b,
            _ => return fail(&format!("bad --seeds `{seeds_raw}` (need A..B with A < B)")),
        },
        None => return fail(&format!("bad --seeds `{seeds_raw}` (need A..B, e.g. 0..100)")),
    };
    let defaults = FuzzConfig::default();
    let config = FuzzConfig {
        seeds,
        mutants: flags.has("mutants"),
        corpus: flags.value("corpus").map(std::path::PathBuf::from),
        kill_runs: flags.get("kill-runs", defaults.kill_runs),
        clean_runs: flags.get("clean-runs", defaults.clean_runs),
        budget: flags.get("budget", defaults.budget),
        threads: flags.get("threads", 0),
    };

    let report = run_fuzz(&config);
    let json = report.to_json();
    if !write_json_out(flags, &json) {
        return ExitCode::FAILURE;
    }
    if flags.has("json") {
        print!("{json}");
    } else {
        println!(
            "fuzz: {} protocols generated from seeds {}..{}",
            report.generated(),
            config.seeds.start,
            config.seeds.end
        );
        println!(
            "  preflight: {} ok, {} rejected",
            report.generated() - report.preflight_rejected(),
            report.preflight_rejected()
        );
        if config.mutants {
            println!(
                "  must-violate:    {} killed, {} survived",
                report.killed(),
                report.survived()
            );
            println!(
                "  must-stay-clean: {} clean, {} flagged",
                report.clean(),
                report.flagged()
            );
            println!(
                "  analyzer-reject: {} rejected at preflight, {} missed",
                report.rejected(),
                report.rejected_missed()
            );
            println!("  bundles stored:  {}", report.bundles_stored());
        }
        for seed in &report.per_seed {
            for mutant in &seed.mutants {
                if !mutant.prediction_held() {
                    println!(
                        "  PREDICTION FAILED: gen:{}:{} predicted {}, got {}",
                        seed.seed,
                        mutant.mutation.name(),
                        mutant.mutation.verdict().name(),
                        mutant.result.tag()
                    );
                    if let MutantResult::Flagged { seed: s, violation } = &mutant.result
                    {
                        println!("    run seed {s}: {violation}");
                    }
                }
            }
        }
        println!(
            "fuzz: predictions {}",
            if report.predictions_hold() { "hold" } else { "VIOLATED" }
        );
    }
    if report.predictions_hold() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--faults` usage hint, shared by `campaign` and
/// `campaign-service`.
const FAULTS_HINT: &str = "valid --faults: `sweep[:MAXSTEP]` (every single-crash \
                           placement) or comma-separated plans of crash@P:S, \
                           stall@P:FROM-TO, crash-after@P:OP:K joined by `+`";

/// Expands a `--faults` argument into concrete fault plans for a system
/// of `procs` processes: `sweep` crashes each process before each
/// Block-Update step, anything else is a comma-separated plan list,
/// whose faults must each name one of the `procs` processes.
fn parse_fault_plans(
    faults_raw: &str,
    procs: usize,
) -> Result<Vec<revisionist_simulations::smr::fault::FaultPlan>, String> {
    use revisionist_simulations::smr::fault::FaultPlan;
    let plans = if let Some(rest) = faults_raw.strip_prefix("sweep") {
        let max_step = if rest.is_empty() {
            5 // The 6-step Block-Update sequence: crash before each step.
        } else if let Some(bound) = rest.strip_prefix(':') {
            bound
                .parse()
                .map_err(|_| format!("bad --faults sweep bound `{bound}`"))?
        } else {
            return Err(format!("bad --faults `{faults_raw}`"));
        };
        FaultPlan::single_crash_plans(procs, max_step)
    } else {
        let mut parsed = Vec::new();
        for part in faults_raw.split(',').filter(|p| !p.is_empty()) {
            parsed.push(FaultPlan::parse(part).map_err(|e| e.to_string())?);
        }
        let mut faults = parsed.iter().flat_map(|plan| &plan.faults);
        if let Some(fault) = faults.find(|f| f.process().0 >= procs) {
            return Err(format!(
                "bad --faults `{fault}`: the system has processes p0..p{}",
                procs.saturating_sub(1)
            ));
        }
        parsed
    };
    if plans.is_empty() {
        return Err("--faults needs at least one plan".into());
    }
    Ok(plans)
}

/// The fault-campaign certificate for a protocol family, shared by the
/// single-process `campaign --faults` runner and service workers — both
/// sides must agree exactly or merged fault reports would drift from
/// the single-process reference.
///
/// Validity survives crashes: any output a survivor produces must be
/// some process's input. Agreement need not — obstruction-free
/// consensus is not crash-tolerant, which is the paper's point — so
/// the certificate here is non-blocking progress plus validity.
fn fault_validity_check(sys: &SystemArgs) -> impl Fn(
    &revisionist_simulations::smr::system::System,
    &[revisionist_simulations::smr::process::ProcessId],
) -> Option<String>
       + Sync {
    let inputs: Option<Vec<Value>> = (sys.protocol != "contrarian")
        .then(|| (1..=sys.procs as i64).map(Value::Int).collect());
    move |sys, _crashed| {
        let inputs = inputs.as_ref()?;
        sys.outputs()
            .into_iter()
            .flatten()
            .find(|out| !inputs.contains(out))
            .map(|out| format!("output {out:?} is not any process's input"))
    }
}

/// `campaign --faults`: runs the fault matrix (plans × seeds on the one
/// base scheduler) and certifies it; exits 1 unless every run certified.
fn cmd_campaign_faults(
    flags: &Flags,
    faults_raw: &str,
    config: &CampaignConfig,
    sys: &SystemArgs,
    factory: &ProtocolFactory,
    bundle_system: &[(String, String)],
) -> ExitCode {
    use revisionist_simulations::smr::campaign::run_fault_campaign;
    use revisionist_simulations::smr::fault::FaultPlan;

    let procs = factory(config.seed_start).process_count();
    let plans = match parse_fault_plans(faults_raw, procs) {
        Ok(plans) => plans,
        Err(e) => return fail(&format!("{e}\n{FAULTS_HINT}")),
    };
    let check = fault_validity_check(sys);
    let report = run_fault_campaign(config, &plans, factory, &check);
    // As in the plain campaign, the first violating run shrinks — here
    // over its decisions *and* its fault plan.
    let first_violation = report.failures.iter().find(|r| r.violation.is_some()).map(|r| {
        FaultPlan::parse(&r.plan)
            .map(|plan| (config.schedulers[0].clone(), plan, r.seed))
            .map_err(|e| e.to_string())
    });
    if !publish_campaign_report(
        flags,
        &report.to_json(),
        first_violation,
        config.budget,
        bundle_system,
        &|seed| factory(seed),
        &check,
    ) {
        return ExitCode::FAILURE;
    }
    if flags.has("json") {
        print!("{}", report.to_json());
        return if report.is_certified() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    println!(
        "fault campaign: base={} plans={} seeds={}..{}",
        report.scheduler,
        report.plans,
        config.seed_start,
        config.seed_start + config.runs as u64,
    );
    print_fault_outcome(&report)
}

/// The human-readable body of a fault report, shared by `campaign
/// --faults` and `campaign-service --faults`; exits 1 unless certified.
fn print_fault_outcome(
    report: &revisionist_simulations::smr::campaign::FaultCampaignReport,
) -> ExitCode {
    println!(
        "  {} runs, {} certified, {} total steps",
        report.total_runs, report.certified_runs, report.total_steps,
    );
    if report.missing_runs > 0 {
        println!(
            "  {} runs missing (quarantined units veto certification)",
            report.missing_runs
        );
    }
    if report.is_certified() {
        println!("  CERTIFIED: survivors made progress under every fault plan");
        return ExitCode::SUCCESS;
    }
    println!("  {} failing runs (each replayable):", report.failures.len());
    for r in report.failures.iter().take(10) {
        let why = r
            .violation
            .as_deref()
            .or(r.error.as_deref())
            .unwrap_or("survivors did not terminate");
        println!("    --faults {} --seed-start {} --runs 1: {}", r.plan, r.seed, why);
    }
    if report.failures.len() > 10 {
        println!("    ... and {} more", report.failures.len() - 10);
    }
    ExitCode::FAILURE
}

/// Executes one leased work unit inside a `campaign-worker` process:
/// rebuilds the protocol from the unit's system description, runs its
/// seed range single-threaded in memory, and returns the shard result
/// in global matrix coordinates. The worker writes nothing to the state
/// directory: the coordinator settles the shard it sends, and a unit
/// whose worker dies is leased again and reruns from its first seed,
/// which the merge layer's first-wins dedup cannot tell apart from one
/// run. A scheduler unit publishes every violation as a deduplicated
/// corpus bundle; a fault unit (non-empty plan) runs the same record
/// runner and certificate as `campaign --faults`.
fn worker_execute_unit(
    unit: &revisionist_simulations::smr::service::WorkUnit,
    corpus_dir: &std::path::Path,
) -> Result<revisionist_simulations::smr::service::ShardResult, String> {
    use revisionist_simulations::smr::campaign::{
        run_campaign_records, run_fault_records, SchedulerSpec,
    };
    use revisionist_simulations::smr::fault::FaultPlan;
    use revisionist_simulations::smr::service::ShardResult;

    let sys = SystemArgs::from_system(&unit.system)?;
    let factory = protocol_factory(&sys)?;
    let sched =
        SchedulerSpec::parse(&unit.scheduler).map_err(|e| e.to_string())?;
    // The unit's slice of the matrix, as a one-row campaign of its own.
    let config = CampaignConfig {
        schedulers: vec![sched.clone()],
        seed_start: unit.seed_start,
        runs: unit.runs,
        budget: unit.budget,
        threads: 1,
    };
    let mut shard = ShardResult {
        unit: unit.id,
        records: Vec::new(),
        fault_records: Vec::new(),
        fingerprints: Vec::new(),
        degraded_runs: 0,
        cache_truncated: false,
    };

    if !unit.plan.is_empty() {
        let plan = FaultPlan::parse(&unit.plan).map_err(|e| e.to_string())?;
        let check = fault_validity_check(&sys);
        let records = run_fault_records(&config, &[plan], &factory, &check);
        shard.fault_records = records
            .into_iter()
            .enumerate()
            .map(|(local, record)| (unit.index_base + local, record))
            .collect();
    } else {
        let check = protocol_check(&sys);
        let (records, fingerprints) = run_campaign_records(&config, &factory, &check);

        // Every violating run becomes a minimized, deduplicated corpus
        // bundle; dedup is by violation fingerprint, so crash/retry
        // replays of the same failure collapse to one artifact.
        for (_, record) in records.iter().filter(|(_, r)| r.violation.is_some()) {
            let Some(bundle) = minimized_bundle(
                &unit.system,
                &sched,
                record.seed,
                unit.budget,
                &FaultPlan::none(),
                &|seed| factory(seed),
                &|sys, _crashed| check(sys),
            ) else {
                continue;
            };
            match bundle.store_dedup(corpus_dir) {
                Ok(true) => eprintln!(
                    "  corpus: new bundle {} (seed {})",
                    bundle.corpus_file_name(),
                    record.seed
                ),
                Ok(false) => {}
                Err(e) => return Err(format!("cannot write corpus bundle: {e}")),
            }
        }
        shard.records = records
            .into_iter()
            .map(|(local, record)| (unit.index_base + local, record))
            .collect();
        shard.fingerprints = fingerprints;
    }

    let recorded = shard.records.len() + shard.fault_records.len();
    if recorded < unit.runs {
        return Err(format!("unit incomplete: {recorded} of {} runs recorded", unit.runs));
    }
    Ok(shard)
}

/// The `campaign-worker` subcommand: a service worker process. Without
/// `--connect` it reads length-prefixed [`CoordMsg`] frames from stdin
/// and writes its own to stdout (the spawned-process transport); with
/// `--connect ADDR` it dials the coordinator over TCP instead
/// ([`campaign_worker_remote`]). Both transports feed the same
/// [`serve_leases`] loop. Exits nonzero on any error — the
/// coordinator's lease machinery treats a dead worker as a requeue.
///
/// [`CoordMsg`]: revisionist_simulations::smr::service::CoordMsg
fn cmd_campaign_worker(flags: &Flags) -> ExitCode {
    use revisionist_simulations::smr::service::{read_frame, write_frame, CoordMsg};

    if let Some(addr) = flags.value("connect") {
        let tag = flags.num("tag");
        return campaign_worker_remote(addr, tag);
    }

    let mut stdin = std::io::stdin().lock();
    serve_leases(
        || match read_frame(&mut stdin) {
            Ok(Some(frame)) => CoordMsg::parse(&frame).map_err(|e| {
                eprintln!("campaign-worker: {e}");
                ExitCode::FAILURE
            }),
            // Clean EOF between frames: the coordinator went away.
            Ok(None) => Err(ExitCode::SUCCESS),
            Err(e) => {
                eprintln!("campaign-worker: bad frame: {e}");
                Err(ExitCode::FAILURE)
            }
        },
        // The stdout lock is held for the whole frame, so a heartbeat
        // never interleaves with a result frame in the pipe.
        |payload| write_frame(&mut std::io::stdout().lock(), payload),
    )
}

/// The TCP worker: dial and handshake through a self-healing
/// [`Remote`], then serve leases until the coordinator says shutdown.
/// Wire hiccups heal transparently — the session token presented on
/// reconnect keeps the current lease alive — and a coordinator that
/// stays gone past the bounded reconnect budget ends the worker
/// cleanly (its lease has been requeued by then anyway).
///
/// [`Remote`]: revisionist_simulations::smr::service::Remote
fn campaign_worker_remote(addr: &str, tag: Option<u64>) -> ExitCode {
    use revisionist_simulations::smr::service::{read_frame, CoordMsg, Remote, RemoteError};
    use std::io::BufReader;

    let remote = Remote::new(addr, tag);
    let mut link = None;
    let next = || loop {
        let (reader, generation) = match &mut link {
            Some(link) => link,
            None => match remote.ensure() {
                Ok((stream, generation)) => link.insert((BufReader::new(stream), generation)),
                Err(RemoteError::Fatal(e)) => {
                    eprintln!("campaign-worker: {e}");
                    return Err(ExitCode::FAILURE);
                }
                Err(RemoteError::Unreachable(e)) => {
                    // After a completed handshake, a coordinator gone
                    // past the reconnect budget is a normal end of
                    // service (the lease is requeued by then); before
                    // one it's a startup failure.
                    if remote.session().is_some() {
                        eprintln!("campaign-worker: coordinator gone ({e}), exiting");
                        return Err(ExitCode::SUCCESS);
                    }
                    eprintln!("campaign-worker: {e}");
                    return Err(ExitCode::FAILURE);
                }
            },
        };
        let generation = *generation;
        // EOF or a read error (including the idle timeout) ends this
        // connection; so does a corrupt coordinator frame, rather than
        // act on garbage. Either way: reconnect and resume.
        if let Ok(Some(frame)) = read_frame(reader) {
            match CoordMsg::parse(&frame) {
                Ok(msg) => return Ok(msg),
                Err(e) => eprintln!("campaign-worker: bad frame: {e}"),
            }
        }
        remote.disconnect(generation);
        link = None;
    };
    // `send` reconnects on its own; a hard failure means the
    // coordinator is past saving.
    serve_leases(next, |payload| remote.send(payload))
}

/// The worker loop both transports share: take the next coordinator
/// message from `next` (`Err` carries the exit code that ends the
/// worker), execute each leased unit, and send frames through `send`.
///
/// While a unit runs, a beat thread sends a heartbeat at once (the
/// lease is live before the first run finishes, and chaos
/// `kill@unit` fires on it), then one per period. It ends the moment
/// the unit does: dropping `done` wakes its `recv_timeout`. A failed
/// beat send ends it too; the unit still runs to completion, since
/// the result frame may yet get through. The result frame goes out
/// after the last beat.
fn serve_leases<E: std::fmt::Display>(
    mut next: impl FnMut() -> Result<revisionist_simulations::smr::service::CoordMsg, ExitCode>,
    send: impl Fn(&str) -> Result<(), E> + Sync,
) -> ExitCode {
    use revisionist_simulations::smr::service::{CoordMsg, WorkerMsg};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    loop {
        let (unit, corpus_dir, heartbeat_ms) = match next() {
            Err(code) => return code,
            Ok(CoordMsg::Shutdown) => return ExitCode::SUCCESS,
            Ok(CoordMsg::Lease { unit, corpus_dir, heartbeat_ms, .. }) => {
                (unit, corpus_dir, heartbeat_ms)
            }
            // Handshake frames carry no work; tolerate strays.
            Ok(CoordMsg::Welcome { .. } | CoordMsg::Reject { .. }) => continue,
        };
        let period = Duration::from_millis(heartbeat_ms.max(1));
        let beat = WorkerMsg::Heartbeat { unit: unit.id }.to_json();
        let result = std::thread::scope(|scope| {
            let (done, finished) = mpsc::channel::<()>();
            let send = &send;
            let beat = &beat;
            scope.spawn(move || {
                while send(beat).is_ok()
                    && finished.recv_timeout(period) == Err(RecvTimeoutError::Timeout)
                {}
            });
            let result = worker_execute_unit(&unit, std::path::Path::new(&corpus_dir));
            drop(done);
            result
        });
        let shard = match result {
            Ok(shard) => shard,
            Err(e) => return fail(&format!("campaign-worker: unit {}: {e}", unit.id)),
        };
        if let Err(e) = send(&WorkerMsg::Result { unit: unit.id, shard }.to_json()) {
            return fail(&format!("campaign-worker: cannot send result: {e}"));
        }
    }
}

/// The `campaign-service` subcommand: the crash-tolerant multi-process
/// campaign front-end. Builds the service spec from campaign-style
/// flags, pre-flights the protocol, then hands the matrix to
/// [`run_service`] — which partitions it into journaled work units,
/// leases them to `campaign-worker` processes, and merges shard
/// results into a report byte-identical to a single-process
/// `campaign` run of the same spec.
fn cmd_campaign_service(flags: &Flags) -> ExitCode {
    use revisionist_simulations::smr::service::{
        run_service, run_service_with_transport, ChaosPlan, MergedReport,
        ServiceOptions, ServiceSpec, Transport,
    };
    use std::path::PathBuf;
    use std::time::Duration;

    let sys = SystemArgs::from_flags(flags);
    // Same set-up and pre-flight as `campaign`: lint once in the
    // coordinator rather than once per worker process.
    let Some((config, factory)) = campaign_setup(flags, &sys, "service") else {
        return ExitCode::FAILURE;
    };

    let spec = ServiceSpec {
        // The same ordered description `campaign` stamps into replay
        // bundles — workers rebuild the system from it, and corpus
        // bundles replay under the stock `replay` subcommand.
        system: sys.to_system(),
        config: CampaignConfig { threads: 1, ..config },
        unit_runs: flags.get("unit-runs", 8).max(1),
        // A fault matrix shards across workers exactly like a
        // scheduler matrix: plans × seeds under the one base scheduler.
        faults: match flags.value("faults") {
            Some(raw) => {
                let procs = factory(config.seed_start).process_count();
                match parse_fault_plans(raw, procs) {
                    Ok(plans) => plans.iter().map(|p| p.to_string()).collect(),
                    Err(e) => return fail(&format!("{e}\n{FAULTS_HINT}")),
                }
            }
            None => Vec::new(),
        },
    };

    let state_dir = PathBuf::from(flags.value("state").unwrap_or("campaign-state"));
    let corpus_dir = flags.value("corpus").map_or_else(|| state_dir.join("corpus"), PathBuf::from);
    let exe = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => return fail(&format!("campaign-service: cannot locate own binary: {e}")),
    };
    let mut opts = ServiceOptions::new(
        state_dir,
        corpus_dir,
        vec![exe.display().to_string(), "campaign-worker".into()],
    );
    let listen = flags.value("listen");
    // `--workers 0` is meaningful only with `--listen`: an externally
    // managed TCP fleet. Over stdio the service must spawn someone.
    let workers = flags.get("workers", 2);
    opts.workers = if listen.is_some() { workers } else { workers.max(1) };
    opts.max_lease_attempts = flags.get("max-lease-attempts", 3).max(1);
    if let Some(secs) = flags.num("lease-timeout") {
        opts.lease_timeout = Duration::from_secs(secs);
    }
    if let Some(raw) = flags.value("chaos") {
        match ChaosPlan::parse(raw) {
            Ok(plan) => {
                if !plan.is_empty() {
                    eprintln!("chaos plan armed: {plan}");
                }
                opts.chaos = plan;
            }
            Err(e) => {
                return fail(&format!(
                    "{e}\nvalid --chaos directives: kill@unit:U | torn@result:U | \
                     drop@N | delay@N | dup@N | corrupt@N | partition@A-B (comma-separated)"
                ))
            }
        }
    }

    let run = if let Some(listen_addr) = listen {
        let listener = match std::net::TcpListener::bind(listen_addr) {
            Ok(listener) => listener,
            Err(e) => return fail(&format!("campaign-service: cannot bind {listen_addr}: {e}")),
        };
        // Resolve port 0 to the actual address before telling workers
        // where to dial.
        let addr = match listener.local_addr() {
            Ok(addr) => addr.to_string(),
            Err(e) => return fail(&format!("campaign-service: cannot resolve listen address: {e}")),
        };
        eprintln!("campaign-service: listening on {addr}");
        opts.worker_cmd.extend(["--connect".to_string(), addr]);
        run_service_with_transport(&spec, &opts, &Transport::Tcp(listener))
    } else {
        run_service(&spec, &opts)
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => return fail(&format!("campaign-service: {e}")),
    };
    let stats = &outcome.stats;
    eprintln!(
        "service: {} units ({} recovered), {} leases, {} requeues, \
         {} quarantined, {} workers spawned",
        stats.units,
        stats.recovered_units,
        stats.leases,
        stats.requeues,
        stats.quarantined_units,
        stats.workers_spawned,
    );
    if stats.kills_injected + stats.torn_injected > 0 {
        eprintln!(
            "  chaos: {} worker kills, {} torn journal writes injected",
            stats.kills_injected, stats.torn_injected,
        );
    }
    if stats.dropped_journal_lines > 0 {
        eprintln!(
            "  journal: {} damaged lines dropped during recovery",
            stats.dropped_journal_lines,
        );
    }
    if listen.is_some() {
        eprintln!(
            "  tcp: {} sessions ({} resumed), {} corrupt frames rejected",
            stats.sessions, stats.resumed_sessions, stats.corrupt_frames,
        );
    }
    let net_injected = stats.net_dropped
        + stats.net_delayed
        + stats.net_duplicated
        + stats.net_corrupted
        + stats.net_severed;
    if net_injected > 0 {
        eprintln!(
            "  net chaos: {} dropped, {} delayed, {} duplicated, \
             {} corrupted, {} severed",
            stats.net_dropped,
            stats.net_delayed,
            stats.net_duplicated,
            stats.net_corrupted,
            stats.net_severed,
        );
    }
    // The summary table goes to stderr: stdout must stay byte-identical
    // to the single-process `campaign` report under --json.
    if flags.has("summary") {
        eprint!("{}", outcome.summary.render());
    }

    let report = &outcome.report;
    if !write_json_out(flags, &report.to_json()) {
        return ExitCode::FAILURE;
    }
    let certified = match report {
        MergedReport::Campaign(_) => true,
        MergedReport::Faults(r) => r.is_certified(),
    };
    if flags.has("json") {
        print!("{}", report.to_json());
        return if certified { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let (protocol, procs) = (&sys.protocol, sys.procs);
    match report {
        MergedReport::Campaign(report) => {
            println!(
                "campaign-service: protocol={protocol} procs={procs} schedulers=[{}] \
                 seeds={}..{} workers={}",
                report
                    .config
                    .schedulers
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                report.config.seed_start,
                report.config.seed_start + report.config.runs as u64,
                opts.workers,
            );
            print_campaign_outcome(report);
            ExitCode::SUCCESS
        }
        MergedReport::Faults(report) => {
            println!(
                "campaign-service: protocol={protocol} procs={procs} fault base={} \
                 plans={} seeds={}..{} workers={}",
                report.scheduler,
                report.plans,
                spec.config.seed_start,
                spec.config.seed_start + spec.config.runs as u64,
                opts.workers,
            );
            print_fault_outcome(report)
        }
    }
}

fn cmd_replay(flags: &Flags) -> ExitCode {
    use revisionist_simulations::smr::bundle::ReplayBundle;
    use revisionist_simulations::smr::error::ModelError;
    use revisionist_simulations::smr::fingerprint::fingerprint;
    use revisionist_simulations::smr::shrink::CexOutcome;

    let path = &flags.args[0];
    let bundle = match ReplayBundle::load(std::path::Path::new(path)) {
        Ok(bundle) => bundle,
        Err(e) => return fail(&format!("replay: {e}")),
    };
    let threads = flags.get("threads", 1).max(1);

    // Each bundle kind yields one replay, which runs `threads` times
    // concurrently; every run must reproduce the recorded fingerprint,
    // so the portable artifact doubles as an in-process determinism
    // check across thread counts.
    type Replay<'a> = Box<dyn Fn() -> Result<CexOutcome, ModelError> + Sync + 'a>;
    let bundle = &bundle;
    let replay_once = || -> Result<Replay, String> {
        match bundle.system_field("kind") {
            Some("campaign") => {
                let sys = SystemArgs::from_system(&bundle.system)?;
                let factory = protocol_factory(&sys)?;
                let check = protocol_check(&sys);
                Ok(Box::new(move || {
                    bundle.replay(&|| factory(bundle.seed), &|sys, _crashed| check(sys))
                }))
            }
            Some("aug-certify") => {
                use revisionist_simulations::snapshot::certify::{
                    check_fault_placement, FaultAction, Placement,
                };
                let system = bundle.system.as_slice();
                let action = match system_field::<String>(system, "action")?.as_str() {
                    "crash" => FaultAction::Crash,
                    "stall" => FaultAction::Stall,
                    other => return Err(format!("bad certify action `{other}`")),
                };
                let victim = system_field(system, "victim")?;
                let after_steps = system_field(system, "after_steps")?;
                let placement = Placement { victim, after_steps, action };
                let (f, m) = (system_field(system, "f")?, system_field(system, "m")?);
                Ok(Box::new(move || {
                    let failures = check_fault_placement(f, m, placement);
                    let actual = match failures.first() {
                        Some(msg) if fingerprint(msg) == bundle.fingerprint => {
                            let violation = Some(msg.clone());
                            return Ok(CexOutcome { violation, steps: 0, crashed: Vec::new() });
                        }
                        Some(msg) => format!("failure `{msg}` (fingerprint {})", fingerprint(msg)),
                        None => format!("placement `{placement}` certifies cleanly"),
                    };
                    Err(ModelError::BundleMismatch { expected: bundle.fingerprint, actual })
                }))
            }
            other => Err(format!(
                "unsupported bundle kind {:?} (campaign, aug-certify)",
                other.unwrap_or("<missing>")
            )),
        }
    };
    let replay_once = match replay_once() {
        Ok(replay) => replay,
        Err(e) => return fail(&format!("replay: {e}")),
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(&replay_once)).collect();
        workers.into_iter().map(|w| w.join().expect("replay worker")).collect()
    });

    for result in &results {
        if let Err(e) = result {
            return fail(&format!("replay: FAILED: {e}"));
        }
    }
    let outcome = results[0].as_ref().expect("all results ok");
    println!(
        "replay {path}: violation reproduced bit-for-bit across {threads} \
         concurrent run{} ({} decisions, fingerprint {})",
        if threads == 1 { "" } else { "s" },
        bundle.decisions.len(),
        bundle.fingerprint,
    );
    println!(
        "  violation: {}",
        outcome.violation.as_deref().unwrap_or("<none>")
    );
    ExitCode::SUCCESS
}

fn cmd_aug(flags: &Flags) -> ExitCode {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use revisionist_simulations::snapshot::client::AugOp;
    use revisionist_simulations::snapshot::real::RealSystem;
    use revisionist_simulations::snapshot::spec;

    let f = flags.get("f", 3);
    let m = flags.get("m", 2);
    let ops = flags.get("ops", 6);
    let seed = flags.get::<u64>("seed", 0);
    if flags.has("certify") {
        use revisionist_simulations::smr::bundle::{
            tool_id, ReplayBundle, BUNDLE_VERSION,
        };
        use revisionist_simulations::smr::fingerprint::fingerprint;
        use revisionist_simulations::snapshot::certify;
        let report = certify::certify_block_update_faults(f, m);
        println!(
            "non-blocking certification f={f} m={m}: {} placements \
             (every victim × every Block-Update step × crash/stall)",
            report.placements.len()
        );
        if report.is_certified() {
            println!(
                "  CERTIFIED: every crash leaves survivors unblocked, every \
                 stalled victim completes, and §3 holds throughout"
            );
            return ExitCode::SUCCESS;
        }
        println!("  {} placements FAILED:", report.failures.len());
        for (_, failure) in &report.failures {
            println!("  !! {failure}");
        }
        // Failed certifications are portable too: bundle the first
        // failed placement so `replay` can re-check it anywhere.
        if let Some(path) = flags.value("bundle") {
            let (placement, message) = &report.failures[0];
            let bundle = ReplayBundle {
                version: BUNDLE_VERSION,
                tool: tool_id(),
                system: vec![
                    ("kind".into(), "aug-certify".into()),
                    ("f".into(), f.to_string()),
                    ("m".into(), m.to_string()),
                    ("victim".into(), placement.victim.to_string()),
                    ("after_steps".into(), placement.after_steps.to_string()),
                    ("action".into(), placement.action.to_string()),
                ],
                scheduler: "round-robin".into(),
                seed: 0,
                plan: "none".into(),
                decisions: Vec::new(),
                fingerprint: fingerprint(message),
                violation: message.clone(),
            };
            match bundle.store(std::path::Path::new(path)) {
                Ok(()) => eprintln!("  replay bundle written to {path}"),
                Err(e) => eprintln!("  cannot write bundle {path}: {e}"),
            }
        }
        return ExitCode::FAILURE;
    }
    let mut rs = RealSystem::new(f, m);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining = vec![ops; f];
    let mut counter = 0i64;
    loop {
        let live: Vec<usize> = (0..f)
            .filter(|&p| remaining[p] > 0 || !rs.is_idle(p))
            .collect();
        if live.is_empty() {
            break;
        }
        let pid = live[rng.gen_range(0..live.len())];
        if rs.is_idle(pid) {
            remaining[pid] -= 1;
            counter += 1;
            let op = if rng.gen_bool(0.5) {
                AugOp::Scan
            } else {
                AugOp::BlockUpdate {
                    components: vec![(counter as usize) % m],
                    values: vec![Value::Int(counter)],
                }
            };
            rs.begin(pid, op);
        }
        rs.step(pid);
    }
    let report = spec::check(&rs, m);
    println!(
        "augmented snapshot f={f} m={m} ops/proc={ops} seed={seed}: {} H-steps",
        rs.log().len()
    );
    println!(
        "  {} atomic Block-Updates, {} yields, {} Scans",
        report.atomic_block_updates, report.yielded_block_updates, report.scans
    );
    println!(
        "  §3 specification: {}",
        if report.is_ok() { "SATISFIED" } else { "VIOLATED" }
    );
    for e in &report.errors {
        println!("  !! {e}");
    }
    if report.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    /// Every `cargo run [--release] -- CMD ...` line of the docs, the
    /// justfile and CI must parse against its subcommand's flag table,
    /// so none of them advertises a flag the CLI rejects.
    #[test]
    fn documented_commands_parse() {
        let docs = [
            ("README.md", include_str!("../README.md")),
            ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
            ("DESIGN.md", include_str!("../DESIGN.md")),
            ("justfile", include_str!("../justfile")),
            ("ci.yml", include_str!("../.github/workflows/ci.yml")),
        ];
        let mut checked = 0;
        for (file, text) in docs {
            let text = text.replace("\\\n", " ");
            let commands = text.lines().filter_map(|line| {
                let release = line.split_once("cargo run --release -- ");
                release.or_else(|| line.split_once("cargo run -- "))
            });
            for (_, line) in commands {
                // The command ends at a comment, a pipe, a redirection,
                // `;` or the close of an inline code span.
                let mut args = Vec::new();
                for token in line.split_whitespace() {
                    if ["#", "|", ">", "2>", "&&"].iter().any(|op| token.starts_with(op)) {
                        break;
                    }
                    let word = token.trim_end_matches([';', '`']);
                    args.push(word.trim_matches(['"', '\'']).to_string());
                    if word.len() < token.len() {
                        break;
                    }
                }
                let command = super::COMMANDS.iter().find(|c| c.name == args[0]);
                let command = command.unwrap_or_else(|| panic!("{file}: unknown command: {line}"));
                command.parse(&args[1..]).unwrap_or_else(|e| panic!("{file}: {e}: {line}"));
                checked += 1;
            }
        }
        assert!(checked >= 90, "only {checked} documented commands found");
    }
}
