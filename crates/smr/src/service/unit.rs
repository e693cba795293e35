//! Service specs and self-describing work units.
//!
//! A [`ServiceSpec`] is the whole campaign; [`ServiceSpec::partition`]
//! cuts its matrix into [`WorkUnit`]s, each carrying *everything* a
//! worker process needs to execute it — the system description, one
//! scheduler, a seed sub-range, the budget, and the global matrix
//! offset its records map back through. Units are self-describing on
//! purpose: a unit recovered from the journal months later, or leased
//! to a worker on a different machine, still means exactly one thing.

use crate::campaign::{campaign_spec_id, CampaignConfig, Matrix, SchedulerSpec};
use crate::error::ModelError;
use crate::json::{escape, Json};

/// The full description of a service campaign: an ordered key/value
/// system description (the CLI interprets it; the service treats it as
/// opaque, exactly like [`crate::bundle::ReplayBundle::system`]), the
/// campaign shape, and the partition grain.
#[derive(Clone, PartialEq, Debug)]
pub struct ServiceSpec {
    /// Ordered key/value system description (e.g. `kind=campaign`,
    /// `protocol=racing`, `procs=3`, `m=2`, `rounds=3`).
    pub system: Vec<(String, String)>,
    /// The campaign shape. `threads` is ignored by the service —
    /// workers execute units single-threaded so checkpoint state never
    /// interleaves.
    pub config: CampaignConfig,
    /// Seeds per work unit (the partition grain). The last unit of a
    /// scheduler may be smaller.
    pub unit_runs: usize,
    /// Fault plans, in their parseable syntax. Empty for ordinary
    /// campaigns; non-empty switches the partition to the fault
    /// matrix: plans × seeds under the *first* scheduler (the base),
    /// exactly the matrix `campaign --faults` walks single-process.
    pub faults: Vec<String>,
}

impl ServiceSpec {
    /// The campaign identity this service run must match on resume:
    /// system description plus every matrix-shaping parameter
    /// (including the fault-plan list when present).
    pub fn identity(&self) -> String {
        let mut desc: Vec<String> =
            self.system.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if !self.faults.is_empty() {
            desc.push(format!("faults={}", self.faults.join(";")));
        }
        campaign_spec_id(&desc.join(","), &self.config)
    }

    /// Serialises the spec as JSON. The `faults` field is emitted only
    /// when non-empty so pre-fault journals stay byte-identical.
    pub fn to_json(&self) -> String {
        let faults = if self.faults.is_empty() {
            String::new()
        } else {
            format!(
                ", \"faults\": [{}]",
                self.faults
                    .iter()
                    .map(|p| escape(p))
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        };
        format!(
            "{{\"system\": {{{}}}, \"schedulers\": [{}], \"seed_start\": {}, \
             \"runs\": {}, \"budget\": {}, \"unit_runs\": {}{faults}}}",
            self.system
                .iter()
                .map(|(k, v)| format!("{}: {}", escape(k), escape(v)))
                .collect::<Vec<_>>()
                .join(", "),
            self.config
                .schedulers
                .iter()
                .map(|s| escape(&s.to_string()))
                .collect::<Vec<_>>()
                .join(", "),
            self.config.seed_start,
            self.config.runs,
            self.config.budget,
            self.unit_runs,
        )
    }

    /// Parses a spec from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on missing or mistyped fields.
    pub fn parse(doc: &Json) -> Result<ServiceSpec, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "service spec".into(),
            reason: reason.into(),
        };
        let mut system = Vec::new();
        match doc.get("system") {
            Some(Json::Obj(members)) => {
                for (key, value) in members {
                    let value = value
                        .as_str()
                        .ok_or_else(|| bad("`system` values must be strings"))?;
                    system.push((key.clone(), value.to_string()));
                }
            }
            _ => return Err(bad("missing `system` object")),
        }
        let mut schedulers = Vec::new();
        for s in doc
            .get("schedulers")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `schedulers` array"))?
        {
            schedulers.push(SchedulerSpec::parse(
                s.as_str().ok_or_else(|| bad("bad scheduler entry"))?,
            )?);
        }
        if schedulers.is_empty() {
            return Err(bad("`schedulers` must be non-empty"));
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| bad(&format!("missing `{key}`")))
        };
        Ok(ServiceSpec {
            system,
            config: CampaignConfig {
                schedulers,
                seed_start: doc
                    .get("seed_start")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing `seed_start`"))?,
                runs: num("runs")?,
                budget: num("budget")?,
                threads: 1,
            },
            unit_runs: num("unit_runs")?.max(1),
            faults: match doc.get("faults") {
                None => Vec::new(),
                Some(arr) => arr
                    .as_arr()
                    .ok_or_else(|| bad("`faults` must be an array"))?
                    .iter()
                    .map(|p| {
                        p.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("`faults` entries must be strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            },
        })
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed JSON or fields.
    pub fn parse_str(text: &str) -> Result<ServiceSpec, ModelError> {
        ServiceSpec::parse(&Json::parse(text)?)
    }

    /// The campaign matrix: schedulers × seeds for an ordinary
    /// campaign, plans × seeds under the base scheduler for a fault
    /// campaign — exactly the matrix `campaign` / `campaign --faults`
    /// walks single-process.
    pub fn matrix(&self) -> Matrix<'_, String> {
        Matrix::new(&self.config, &self.faults)
    }

    /// Total runs in the campaign matrix.
    pub fn total_runs(&self) -> usize {
        self.matrix().total()
    }

    /// Cuts the matrix into work units: major-axis row (scheduler, or
    /// fault plan when `faults` is non-empty), then seed chunks of
    /// `unit_runs`. The partition is a pure function of the spec —
    /// every coordinator (re)start derives the identical unit list,
    /// which is what lets the journal refer to units by id alone.
    pub fn partition(&self) -> Vec<WorkUnit> {
        let matrix = self.matrix();
        let chunks = matrix.chunks(self.unit_runs);
        (0u64..)
            .zip(chunks)
            .map(|(id, range)| {
                let (scheduler, plan, seed_start) = matrix.cell(range.start);
                WorkUnit {
                    id,
                    index_base: range.start,
                    scheduler: scheduler.to_string(),
                    plan: plan.cloned().unwrap_or_default(),
                    seed_start,
                    runs: range.len(),
                    budget: self.config.budget,
                    system: self.system.clone(),
                }
            })
            .collect()
    }
}

/// One leasable slice of the campaign matrix: a single scheduler, a
/// contiguous seed range, and the system description — everything a
/// worker process needs, with no access to the coordinator's state.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkUnit {
    /// Stable unit id (position in the deterministic partition).
    pub id: u64,
    /// Global matrix index of this unit's first run; local run `i`
    /// maps to global index `index_base + i`.
    pub index_base: usize,
    /// The scheduler spec, in its parseable syntax.
    pub scheduler: String,
    /// The fault plan, in its parseable syntax — empty for ordinary
    /// campaign units. A fault unit runs its seed range under this one
    /// crash/stall placement instead of a plain campaign slice.
    pub plan: String,
    /// First seed of the unit's range.
    pub seed_start: u64,
    /// Runs in the unit.
    pub runs: usize,
    /// Step budget per run.
    pub budget: usize,
    /// Ordered key/value system description (see
    /// [`ServiceSpec::system`]).
    pub system: Vec<(String, String)>,
}

impl WorkUnit {
    /// The identity stamped into this unit's worker checkpoint, so a
    /// re-leased worker can only resume state written for *this* unit
    /// of *this* campaign (see
    /// [`crate::campaign::CampaignCheckpoint::ensure_matches`]).
    pub fn spec_id(&self) -> String {
        let desc: Vec<String> =
            self.system.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let plan = if self.plan.is_empty() {
            String::new()
        } else {
            format!(" plan={}", self.plan)
        };
        format!(
            "unit={} base={} {} sched={}{plan} seeds={}+{} budget={}",
            self.id,
            self.index_base,
            desc.join(","),
            self.scheduler,
            self.seed_start,
            self.runs,
            self.budget,
        )
    }

    /// Serialises the unit as JSON. The `plan` field is emitted only
    /// when non-empty so pre-fault journals stay byte-identical.
    pub fn to_json(&self) -> String {
        let plan = if self.plan.is_empty() {
            String::new()
        } else {
            format!(", \"plan\": {}", escape(&self.plan))
        };
        format!(
            "{{\"id\": {}, \"index_base\": {}, \"scheduler\": {}{plan}, \
             \"seed_start\": {}, \"runs\": {}, \"budget\": {}, \
             \"system\": {{{}}}}}",
            self.id,
            self.index_base,
            escape(&self.scheduler),
            self.seed_start,
            self.runs,
            self.budget,
            self.system
                .iter()
                .map(|(k, v)| format!("{}: {}", escape(k), escape(v)))
                .collect::<Vec<_>>()
                .join(", "),
        )
    }

    /// Parses a unit from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on missing or mistyped fields.
    pub fn parse(doc: &Json) -> Result<WorkUnit, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "work unit".into(),
            reason: reason.into(),
        };
        let mut system = Vec::new();
        match doc.get("system") {
            Some(Json::Obj(members)) => {
                for (key, value) in members {
                    let value = value
                        .as_str()
                        .ok_or_else(|| bad("`system` values must be strings"))?;
                    system.push((key.clone(), value.to_string()));
                }
            }
            _ => return Err(bad("missing `system` object")),
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| bad(&format!("missing `{key}`")))
        };
        Ok(WorkUnit {
            id: doc
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `id`"))?,
            index_base: num("index_base")?,
            scheduler: doc
                .get("scheduler")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing `scheduler`"))?
                .to_string(),
            plan: doc
                .get("plan")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            seed_start: doc
                .get("seed_start")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `seed_start`"))?,
            runs: num("runs")?,
            budget: num("budget")?,
            system,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServiceSpec {
        ServiceSpec {
            system: vec![
                ("kind".into(), "campaign".into()),
                ("protocol".into(), "racing".into()),
                ("procs".into(), "3".into()),
            ],
            config: CampaignConfig {
                schedulers: vec![
                    SchedulerSpec::RoundRobin,
                    SchedulerSpec::Random,
                ],
                seed_start: 5,
                runs: 10,
                budget: 500,
                threads: 1,
            },
            unit_runs: 4,
            faults: Vec::new(),
        }
    }

    fn fault_spec() -> ServiceSpec {
        let mut s = spec();
        s.config.schedulers = vec![SchedulerSpec::RoundRobin];
        s.faults = vec!["crash@0:2".into(), "crash@1:2".into(), "crash@2:2".into()];
        s
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        assert_eq!(ServiceSpec::parse_str(&s.to_json()).unwrap(), s);
        let f = fault_spec();
        assert_eq!(ServiceSpec::parse_str(&f.to_json()).unwrap(), f);
    }

    #[test]
    fn faultless_spec_json_has_no_faults_field() {
        assert!(
            !spec().to_json().contains("faults"),
            "pre-fault journal byte-compatibility requires omitting the field"
        );
    }

    #[test]
    fn fault_partition_is_plan_major_under_the_base_scheduler() {
        let f = fault_spec();
        let units = f.partition();
        // 3 plans × 10 runs at grain 4 → (4+4+2) × 3.
        assert_eq!(units.len(), 9);
        let covered: usize = units.iter().map(|u| u.runs).sum();
        assert_eq!(covered, f.total_runs());
        assert_eq!(f.total_runs(), 30);
        for u in &units {
            assert_eq!(u.scheduler, "rr", "fault units run the base scheduler");
            assert!(!u.plan.is_empty());
        }
        // Plan-major tiling matches run_fault_campaign's index order.
        assert_eq!(units[3].plan, "crash@1:2");
        assert_eq!(units[3].index_base, 10);
        assert_eq!(units[3].seed_start, 5);
        assert_eq!(units[8].plan, "crash@2:2");
        assert_eq!(units[8].index_base, 28);
    }

    #[test]
    fn fault_plans_change_the_identity() {
        assert_ne!(spec().identity(), fault_spec().identity());
        let mut other = fault_spec();
        other.faults.pop();
        assert_ne!(fault_spec().identity(), other.identity());
        assert_eq!(fault_spec().identity(), fault_spec().identity());
    }

    #[test]
    fn partition_tiles_the_matrix_exactly() {
        let s = spec();
        let units = s.partition();
        // 10 runs at grain 4 → 4+4+2 per scheduler, two schedulers.
        assert_eq!(units.len(), 6);
        let covered: usize = units.iter().map(|u| u.runs).sum();
        assert_eq!(covered, s.total_runs());
        // Unit ids are their partition positions; index bases tile the
        // matrix scheduler-major with seeds re-based per chunk.
        assert_eq!(units[2].index_base, 8);
        assert_eq!(units[2].runs, 2);
        assert_eq!(units[2].seed_start, 5 + 8);
        assert_eq!(units[3].index_base, 10);
        assert_eq!(units[3].scheduler, "random");
        assert_eq!(units[3].seed_start, 5);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.id, i as u64);
        }
    }

    #[test]
    fn partition_is_deterministic() {
        assert_eq!(spec().partition(), spec().partition());
    }

    #[test]
    fn unit_round_trips_through_json() {
        for unit in spec().partition().into_iter().chain(fault_spec().partition()) {
            let doc = Json::parse(&unit.to_json()).unwrap();
            assert_eq!(WorkUnit::parse(&doc).unwrap(), unit);
        }
    }

    #[test]
    fn identity_distinguishes_campaign_shapes() {
        let a = spec();
        let mut b = spec();
        b.config.runs = 11;
        let mut c = spec();
        c.system[1].1 = "contrarian".into();
        assert_ne!(a.identity(), b.identity());
        assert_ne!(a.identity(), c.identity());
        assert_eq!(a.identity(), spec().identity());
    }

    #[test]
    fn unit_spec_ids_are_unique_per_unit() {
        let units = spec().partition();
        let mut ids: Vec<String> = units.iter().map(WorkUnit::spec_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), units.len());
    }

    #[test]
    fn malformed_specs_are_structured_errors() {
        for bad in ["{}", "{\"system\": {}}", "not json"] {
            assert!(ServiceSpec::parse_str(bad).is_err(), "`{bad}`");
        }
    }
}
