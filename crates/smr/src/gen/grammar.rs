//! The protocol grammar: seeded, byte-deterministic generation of
//! well-formed Assumption 1 protocols.
//!
//! A generated protocol has two parts:
//!
//! 1. An **announce prologue**: each process writes a short script of
//!    globally fresh tokens to its own single-writer announce
//!    component. This is the scripted surface the analyzer-facing
//!    mutations edit (trespass a neighbour's component, reuse a value
//!    ABA-style, leak the yield symbol) and the scripted protocol
//!    stream the covering-simulation fuzz tests drive.
//! 2. A **phased-racing agreement core** over `race_m` multi-writer
//!    components, in the style of the space-optimal algorithms the
//!    paper's bounds target (Bouzid–Raynal–Sutra \[16\], Zhu \[47\]):
//!    adopt the frontier, escalate on same-level conflict, defer to
//!    committed values (the *helping write*), decide when every race
//!    component carries your triple. The runtime-facing mutations
//!    disable exactly one of these rules at a time.
//!
//! Generation draws from a self-contained SplitMix64 stream derived
//! from the seed — deliberately *not* the workspace `rand` shim, so the
//! canonical form of a seed can never drift with scheduler RNG changes
//! (see CHANGES.md, PR 1). [`GenSpec::canonical`] renders every field;
//! two specs are byte-identical iff their canonical strings are.

use crate::fingerprint::{write_i64, write_u64};
use crate::object::{Object, ObjectId};
use crate::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
use crate::system::System;
use crate::value::Value;
use std::fmt;

use super::mutate::Mutation;

/// SplitMix64 step: the standard 64-bit mixing recipe. Self-contained
/// so generated protocols are byte-deterministic independently of any
/// scheduler RNG.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fully elaborated generated-protocol specification. The grammar's
/// free dimensions are the process count, the race footprint, and the
/// per-process prologue scripts; the rule toggles are all on for a
/// well-formed base spec and are switched off (or the scripts edited)
/// by [`Mutation::apply`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GenSpec {
    /// The generating seed (recorded for replay coordinates).
    pub seed: u64,
    /// Process count `n` (2 or 3).
    pub procs: usize,
    /// Multi-writer race components; the base grammar emits `n + 1` or
    /// `n + 2` — strictly above the Theorem 21 / Corollary 33 bound,
    /// with slack so the base family is robustly clean (racing *at* the
    /// bound, `m = n`, has rare genuine violations and is left to the
    /// hand-written families). Total footprint is `procs + race_m` (one
    /// single-writer announce component per process, then the race
    /// components).
    pub race_m: usize,
    /// Per-process announce scripts: `(component, value)` update steps
    /// run before the agreement core. Base scripts write only the
    /// process's own announce component, with globally fresh tokens.
    pub prologue: Vec<Vec<(usize, Value)>>,
    /// Rule 1: adopt the largest `(round, phase, value)` entry when
    /// behind the frontier.
    pub adopt: bool,
    /// Rule 2: escalate to a fresh round on a same-level value
    /// conflict (rather than racing values in place).
    pub escalation: bool,
    /// Rule 2 rider: carry the largest conflicting value upward.
    pub carry: bool,
    /// Rule 2b: defer to an earlier-round committed value — the
    /// *helping write* that keeps late escalators from overrunning a
    /// decided value.
    pub commit_deference: bool,
    /// Torn commit window: decide directly on the phase-1 coverage
    /// certificate, skipping the phase-2 recertification pass — as if
    /// the second half of the §3 Block-Update window was lost.
    pub torn_commit: bool,
    /// The mutation this spec was derived with, if any (base = `None`).
    pub mutation: Option<Mutation>,
}

impl GenSpec {
    /// Elaborates the grammar at `seed`. Pure function of the seed:
    /// byte-deterministic at any thread count.
    pub fn from_seed(seed: u64) -> GenSpec {
        let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
        let mut draw = || splitmix64(&mut state);
        let procs = 2 + (draw() % 2) as usize;
        let race_m = procs + 1 + (draw() % 2) as usize;
        let mut token = 0;
        let prologue = (0..procs)
            .map(|i| {
                let len = 2 + (draw() % 2) as usize;
                (0..len)
                    .map(|_| {
                        token += 1;
                        // Fresh, process-disjoint tokens, far from the
                        // 1..=n input domain: no ABA reuse, no
                        // collision with race values.
                        (i, Value::Int(1_000 + 100 * i as i64 + token))
                    })
                    .collect()
            })
            .collect();
        GenSpec {
            seed,
            procs,
            race_m,
            prologue,
            adopt: true,
            escalation: true,
            carry: true,
            commit_deference: true,
            torn_commit: false,
            mutation: None,
        }
    }

    /// The canonical textual form: renders every field, so two specs
    /// are identical iff their canonical strings are byte-identical.
    /// This is the artifact the determinism property tests compare
    /// across threads.
    pub fn canonical(&self) -> String {
        let mut out = format!(
            "gen:v1;seed={};n={};race={};adopt={};esc={};carry={};help={};tear={}",
            self.seed,
            self.procs,
            self.race_m,
            u8::from(self.adopt),
            u8::from(self.escalation),
            u8::from(self.carry),
            u8::from(self.commit_deference),
            u8::from(self.torn_commit),
        );
        for (i, script) in self.prologue.iter().enumerate() {
            out.push_str(&format!(";p{i}="));
            for (j, (c, v)) in script.iter().enumerate() {
                if j > 0 {
                    out.push('+');
                }
                out.push_str(&format!("U[{c}]={v:?}"));
            }
        }
        if let Some(mutation) = self.mutation {
            out.push_str(&format!(";mut={}", mutation.name()));
        }
        out
    }

    /// The consensus inputs of the generated system: process `i`
    /// proposes `i + 1`.
    pub fn inputs(&self) -> Vec<Value> {
        (1..=self.procs as i64).map(Value::Int).collect()
    }

    /// Total snapshot footprint: announce components plus race
    /// components.
    pub fn total_components(&self) -> usize {
        self.procs + self.race_m
    }

    /// The generated protocol state machine for process `i`.
    pub fn protocol(&self, i: usize) -> GenProtocol {
        GenProtocol {
            script: self.prologue[i].clone(),
            pos: 0,
            base: self.procs,
            race_m: self.race_m,
            round: 1,
            phase: 1,
            value: Value::Int(i as i64 + 1),
            adopt: self.adopt,
            escalation: self.escalation,
            carry: self.carry,
            commit_deference: self.commit_deference,
            torn_commit: self.torn_commit,
        }
    }

    /// Builds the system: one `(procs + race_m)`-component snapshot,
    /// announce components single-writer-restricted to their owners.
    pub fn build_system(&self) -> System {
        let processes = (0..self.procs)
            .map(|i| {
                Box::new(SnapshotProcess::new(self.protocol(i), ObjectId(0)))
                    as Box<dyn Process>
            })
            .collect();
        let mut sys =
            System::new(vec![Object::snapshot(self.total_components())], processes);
        for i in 0..self.procs {
            sys.restrict_writer(ObjectId(0), i, ProcessId(i));
        }
        sys
    }

    /// Wait-free scripted protocols for the covering-simulation fuzz
    /// harness: each simulator replays this spec's prologue values over
    /// a small `m`-component footprint, then outputs its tag. This is
    /// the single entry point `tests/fuzz_simulation.rs` drives.
    pub fn script_protocol(&self, i: usize, m: usize, tag: i64) -> ScriptProtocol {
        let script = self.prologue[i % self.procs]
            .iter()
            .enumerate()
            .map(|(j, (_, v))| ((i + j) % m, v.clone()))
            .collect();
        ScriptProtocol { script, pos: 0, m, tag }
    }

    /// Parses the CLI protocol syntax `gen:SEED[:MUTATION]`, e.g.
    /// `gen:7` or `gen:7:shrink-m`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed part.
    pub fn parse_cli(spec: &str) -> Result<GenSpec, String> {
        let rest = spec
            .strip_prefix("gen:")
            .ok_or_else(|| format!("`{spec}` does not start with gen:"))?;
        let (seed_part, mutation_part) = match rest.split_once(':') {
            Some((s, m)) => (s, Some(m)),
            None => (rest, None),
        };
        let seed: u64 = seed_part
            .parse()
            .map_err(|_| format!("bad gen seed `{seed_part}` in `{spec}`"))?;
        let base = GenSpec::from_seed(seed);
        match mutation_part {
            None => Ok(base),
            Some(name) => {
                let mutation = Mutation::parse(name)
                    .ok_or_else(|| format!("unknown gen mutation `{name}` in `{spec}`"))?;
                Ok(mutation.apply(&base))
            }
        }
    }

    /// The CLI protocol syntax for this spec (`gen:SEED[:MUTATION]`).
    pub fn cli_name(&self) -> String {
        match self.mutation {
            Some(mutation) => format!("gen:{}:{}", self.seed, mutation.name()),
            None => format!("gen:{}", self.seed),
        }
    }
}

/// Entry in a race component: `(round, phase, value)`; ⊥ is "no entry".
fn parse_entry(entry: &Value) -> Option<(i64, i64, &Value)> {
    match entry.as_tuple()? {
        [r, ph, v] => Some((r.as_int()?, ph.as_int()?, v)),
        _ => None,
    }
}

fn encode_entry(round: i64, phase: i64, v: &Value) -> Value {
    Value::triple(Value::Int(round), Value::Int(phase), v.clone())
}

/// Writes the derived `Debug` rendering of an update script,
/// `[(c, v), …]`, without `core::fmt`.
fn write_script(out: &mut dyn fmt::Write, script: &[(usize, Value)]) -> fmt::Result {
    out.write_str("[")?;
    for (i, (c, v)) in script.iter().enumerate() {
        out.write_str(if i == 0 { "(" } else { ", (" })?;
        write_u64(out, *c as u64)?;
        out.write_str(", ")?;
        v.write_key(out)?;
        out.write_str(")")?;
    }
    out.write_str("]")
}

fn write_bool(out: &mut dyn fmt::Write, b: bool) -> fmt::Result {
    out.write_str(if b { "true" } else { "false" })
}

/// A generated protocol instance: announce prologue, then the
/// toggle-parameterised phased-racing core over the race components.
#[derive(Clone, Debug)]
pub struct GenProtocol {
    script: Vec<(usize, Value)>,
    pos: usize,
    /// First race component (announce components sit below).
    base: usize,
    race_m: usize,
    round: i64,
    phase: i64,
    value: Value,
    adopt: bool,
    escalation: bool,
    carry: bool,
    commit_deference: bool,
    torn_commit: bool,
}

impl SnapshotProtocol for GenProtocol {
    fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
        if self.pos < self.script.len() {
            let (c, v) = self.script[self.pos].clone();
            self.pos += 1;
            return ProtocolStep::Update(c, v);
        }
        let eff = &view[self.base..];
        let entries = || eff.iter().filter_map(parse_entry);
        // Rule 1: behind the frontier? Adopt the largest entry.
        if self.adopt {
            if let Some((r, ph, v)) = entries().max() {
                if (r, ph) > (self.round, self.phase) {
                    self.round = r;
                    self.phase = ph;
                    self.value = v.clone();
                }
            }
        }
        // Rule 2: same-level value conflict → escalate (carrying the
        // larger value up).
        let rival = entries()
            .filter(|&(r, ph, v)| r == self.round && ph == self.phase && *v != self.value)
            .map(|(_, _, v)| v)
            .max();
        if let Some(w) = rival {
            if self.escalation {
                self.round += 1;
                self.phase = 1;
            }
            if self.carry && *w > self.value {
                self.value = w.clone();
            }
        }
        // Rule 2b: the helping write — defer to an earlier round's
        // committed value before proposing over it.
        if self.commit_deference && self.phase == 1 {
            let committed = entries()
                .filter(|&(r, ph, _)| ph == 2 && r < self.round)
                .map(|(_, _, v)| v)
                .max();
            if let Some(w) = committed {
                if *w != self.value {
                    self.value = w.clone();
                }
            }
        }
        // Rule 3: every race component carries my triple? Full phase-1
        // coverage earns the commit phase; full phase-2 coverage earns
        // the decision. A torn commit window collapses the two: decide
        // on the phase-1 certificate alone, as if the recertification
        // half of the Block-Update window was lost.
        let mine = Some((self.round, self.phase, &self.value));
        if eff.iter().all(|e| parse_entry(e) == mine) {
            if self.phase == 2 || self.torn_commit {
                return ProtocolStep::Output(self.value.clone());
            }
            self.phase = 2;
        }
        // Rule 4: write over the smallest race component.
        let target = (0..self.race_m)
            .min_by(|&a, &b| eff[a].cmp(&eff[b]))
            .expect("race_m >= 1");
        ProtocolStep::Update(
            self.base + target,
            encode_entry(self.round, self.phase, &self.value),
        )
    }

    fn components(&self) -> usize {
        self.base + self.race_m
    }

    // Campaigns and the fuzzer fingerprint every step; this writes the
    // same bytes as the default `{self:?}` without `core::fmt`.
    fn write_key(&self, out: &mut dyn fmt::Write) {
        let _ = self.write_debug(out);
    }
}

impl GenProtocol {
    /// The derived `Debug` rendering, written without `core::fmt`.
    fn write_debug(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str("GenProtocol { script: ")?;
        write_script(out, &self.script)?;
        out.write_str(", pos: ")?;
        write_u64(out, self.pos as u64)?;
        out.write_str(", base: ")?;
        write_u64(out, self.base as u64)?;
        out.write_str(", race_m: ")?;
        write_u64(out, self.race_m as u64)?;
        out.write_str(", round: ")?;
        write_i64(out, self.round)?;
        out.write_str(", phase: ")?;
        write_i64(out, self.phase)?;
        out.write_str(", value: ")?;
        self.value.write_key(out)?;
        out.write_str(", adopt: ")?;
        write_bool(out, self.adopt)?;
        out.write_str(", escalation: ")?;
        write_bool(out, self.escalation)?;
        out.write_str(", carry: ")?;
        write_bool(out, self.carry)?;
        out.write_str(", commit_deference: ")?;
        write_bool(out, self.commit_deference)?;
        out.write_str(", torn_commit: ")?;
        write_bool(out, self.torn_commit)?;
        out.write_str(" }")
    }
}

/// A wait-free scripted protocol: replays its update script, then
/// outputs its tag. This is the Π shape the covering-simulation fuzz
/// tests feed to `core::Simulation` (wait-free by construction, hence
/// obstruction-free — all Theorem 21 asks of Π).
#[derive(Clone, Debug)]
pub struct ScriptProtocol {
    script: Vec<(usize, Value)>,
    pos: usize,
    m: usize,
    tag: i64,
}

impl SnapshotProtocol for ScriptProtocol {
    fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
        if self.pos >= self.script.len() {
            return ProtocolStep::Output(Value::Int(self.tag));
        }
        let (c, v) = self.script[self.pos].clone();
        self.pos += 1;
        ProtocolStep::Update(c % self.m, v)
    }

    fn components(&self) -> usize {
        self.m
    }

    // The same bytes as the default `{self:?}`, without `core::fmt`.
    fn write_key(&self, out: &mut dyn fmt::Write) {
        let _ = self.write_debug(out);
    }
}

impl ScriptProtocol {
    /// The derived `Debug` rendering, written without `core::fmt`.
    fn write_debug(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str("ScriptProtocol { script: ")?;
        write_script(out, &self.script)?;
        out.write_str(", pos: ")?;
        write_u64(out, self.pos as u64)?;
        out.write_str(", m: ")?;
        write_u64(out, self.m as u64)?;
        out.write_str(", tag: ")?;
        write_i64(out, self.tag)?;
        out.write_str(" }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{self, AnalysisReport, LintConfig};
    use crate::process::ProcessId;
    use crate::sched::Random;

    #[test]
    fn same_seed_same_canonical_bytes() {
        for seed in 0..64 {
            let a = GenSpec::from_seed(seed).canonical();
            let b = GenSpec::from_seed(seed).canonical();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn canonical_is_thread_independent() {
        let on_main: Vec<String> =
            (0..16).map(|s| GenSpec::from_seed(s).canonical()).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..16).map(|s| GenSpec::from_seed(s).canonical()).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), on_main);
        }
    }

    #[test]
    fn base_specs_pass_static_lint_without_denials() {
        for seed in 0..32 {
            let spec = GenSpec::from_seed(seed);
            let findings =
                analyze::lint_system(&spec.build_system(), analyze::DEFAULT_BUDGET);
            let report = AnalysisReport::from_findings(findings, &LintConfig::default());
            assert_eq!(
                report.deny_count(),
                0,
                "seed {seed} denied:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn solo_runs_decide_own_input() {
        for seed in [0, 1, 7, 23] {
            let spec = GenSpec::from_seed(seed);
            for i in 0..spec.procs {
                let mut sys = spec.build_system();
                let out = sys.run_solo(ProcessId(i), 256).unwrap();
                assert_eq!(out, Value::Int(i as i64 + 1), "seed {seed} p{i}");
            }
        }
    }

    #[test]
    fn contended_runs_terminate_and_agree_often() {
        // The base core is the escalating racing family: random
        // schedules terminate in consensus (the must-stay-clean
        // baseline the benign mutants are judged against).
        let spec = GenSpec::from_seed(3);
        let inputs = spec.inputs();
        let mut terminated = 0;
        for seed in 0..20 {
            let mut sys = spec.build_system();
            sys.run(&mut Random::seeded(seed), 20_000).unwrap();
            if sys.all_terminated() {
                terminated += 1;
                let outs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
                assert!(outs.iter().all(|o| *o == outs[0]), "disagreement: {outs:?}");
                assert!(outs.iter().all(|o| inputs.contains(o)));
            }
        }
        assert!(terminated >= 15, "only {terminated}/20 runs terminated");
    }

    #[test]
    fn write_key_matches_debug() {
        use crate::gen::mutate::ALL_MUTATIONS;
        let check = |protocol: &dyn Fn(&mut String), debug: String| {
            let mut written = String::new();
            protocol(&mut written);
            assert_eq!(written, debug);
        };
        for seed in 0..64 {
            let base = GenSpec::from_seed(seed);
            let specs = std::iter::once(base.clone())
                .chain(ALL_MUTATIONS.iter().map(|m| m.apply(&base)));
            for spec in specs {
                for i in 0..spec.procs {
                    let mut p = spec.protocol(i);
                    check(&|out| p.write_key(out), format!("{p:?}"));
                    // Past the prologue, in the racing core.
                    let view = vec![Value::triple(3.into(), 2.into(), (-5).into()); p.components()];
                    for _ in 0..=p.script.len() {
                        p.on_scan(&view);
                    }
                    check(&|out| p.write_key(out), format!("{p:?}"));
                    let mut s = spec.script_protocol(i, 2, -(seed as i64));
                    check(&|out| s.write_key(out), format!("{s:?}"));
                    s.on_scan(&view);
                    check(&|out| s.write_key(out), format!("{s:?}"));
                }
            }
        }
    }

    #[test]
    fn parse_cli_round_trips() {
        let base = GenSpec::from_seed(9);
        assert_eq!(GenSpec::parse_cli("gen:9").unwrap(), base);
        assert_eq!(GenSpec::parse_cli(&base.cli_name()).unwrap(), base);
        assert!(GenSpec::parse_cli("gen:x").is_err());
        assert!(GenSpec::parse_cli("gen:9:no-such-mutation").is_err());
        assert!(GenSpec::parse_cli("racing").is_err());
    }
}
