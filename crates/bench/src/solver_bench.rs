//! The `--bench-json` sidecar: per-experiment wall-clock, solver effort
//! and phase cost attribution, written as a small schema-versioned JSON
//! document so CI can track solver-performance drift between commits
//! (the committed `BENCH_solver.json` snapshot at the repository root is
//! one of these).
//!
//! Schema `mixsig.solver-bench/2` extends `/1` with three members per
//! experiment:
//!
//! * `linear_only` — true when the experiment never entered the Newton
//!   solver (purely behavioural models), so its `newton_iterations: 0`
//!   is a statement rather than a plumbing gap;
//! * `workers` — the campaign worker count the run used (phase times
//!   are per-thread, so this is the attribution ceiling multiplier);
//! * `phases` — the experiment's solver-phase self-time breakdown, one
//!   `{"ns", "calls"}` object per [`Phase`] label. The key set is the
//!   full phase taxonomy regardless of which phases ran, so documents
//!   diff structurally.
//!
//! Schema `mixsig.solver-bench/3` extends `/2` with the
//! factorisation-reuse economy of the sparse solver core:
//!
//! * `factor_reuse_hits` / `factor_reuse_misses` — how often a Newton
//!   iteration was served by an existing factorisation (cached or stale
//!   modified-Newton) versus how often one had to be computed;
//! * the `phases` key set grows to the full phase taxonomy (`symbolic`
//!   and `refactor` join the legacy seven). Documents written before
//!   the golden-factorisation update tier was retired also carry its
//!   phase; [`validate`] ignores phase keys outside the taxonomy.
//!
//! Schema `mixsig.solver-bench/4` extends `/3` with the numerical
//! resilience economy:
//!
//! * `hazards` — total numerical hazards the solver detected (pivot
//!   breakdowns, non-finite iterates, refinement stalls, advisory
//!   growth/conditioning flags);
//! * `demotions` — how often a hazard cost a solve its one refactor
//!   retry (`solver.demote.refactor`);
//! * `refinement_rounds` — iterative-refinement rounds spent vetting
//!   reused factorisations at the residual acceptance gate.
//!
//! [`validate`] accepts all four schema versions. For `/2` it checks
//! the legacy seven-phase key set; for `/3`+ the full taxonomy plus the
//! reuse members, and lints the solver-economy invariant directly: an
//! experiment that entered the Newton loop must not have factorised
//! more often than it iterated (`lu_factor.calls ≤
//! newton_iterations`) — if it did, factorisation reuse is not working.
//! The lint survives `/4` unchanged: a refactor retry consumes one
//! Newton iteration and every iteration factorises at most once, so
//! even a solve that retries never factorises more often than it
//! iterates. For `/4` the resilience members must be present and
//! well-formed. Every version ≥ `/2` gets the
//! physically-impossible-attribution lint: phase nanoseconds must fit
//! in `workers` threads of wall-clock.

use obs::json::JsonValue;
use obs::profile::{Phase, PhaseSnapshot};

/// Schema tag written into every new solver-bench document.
pub const SCHEMA: &str = "mixsig.solver-bench/4";

/// The previous schema (full phase taxonomy and reuse counters, no
/// numerical-resilience counters), still accepted by [`validate`].
pub const SCHEMA_V3: &str = "mixsig.solver-bench/3";

/// The seven-phase-taxonomy schema without reuse counters, still
/// accepted by [`validate`].
pub const SCHEMA_V2: &str = "mixsig.solver-bench/2";

/// The original schema, still accepted by [`validate`].
pub const SCHEMA_V1: &str = "mixsig.solver-bench/1";

/// One experiment's cost line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Experiment tag (`e1` … `e8`, `e6c1`, `ablation`, `diverge`).
    pub name: String,
    /// Wall-clock time of the whole experiment in milliseconds.
    pub wall_ms: f64,
    /// Newton iterations the experiment spent (0 for experiments that
    /// never enter the nonlinear solver).
    pub newton_iterations: u64,
    /// True when the experiment runs no Newton solves at all — its
    /// zero `newton_iterations` is by construction, not a measurement.
    pub linear_only: bool,
    /// Campaign worker threads the run used; bounds how far the phase
    /// totals can legitimately exceed the wall-clock.
    pub workers: usize,
    /// Newton iterations served by an existing factorisation (cached
    /// direct solve or accepted stale modified-Newton step).
    pub factor_reuse_hits: u64,
    /// Newton iterations that had to (re)factorise.
    pub factor_reuse_misses: u64,
    /// Numerical hazards detected across every solve of the experiment
    /// (all `solver.hazard.*` categories summed).
    pub hazards: u64,
    /// Tier demotions the hazards forced (all `solver.demote.*`
    /// rungs summed).
    pub demotions: u64,
    /// Iterative-refinement rounds spent at the residual acceptance
    /// gate when vetting reused factorisations.
    pub refinement_rounds: u64,
    /// Solver-phase self-times attributed to this experiment.
    pub phases: PhaseSnapshot,
}

/// Renders the document. Entries appear in the order given (the order
/// experiments ran); wall-clock values are rounded to microsecond
/// precision so the file diffs readably.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut obj = Vec::new();
    obj.push(("schema".to_owned(), JsonValue::Str(SCHEMA.to_owned())));
    let rows = entries
        .iter()
        .map(|e| {
            let phases = Phase::ALL
                .iter()
                .map(|&phase| {
                    (
                        phase.label().to_owned(),
                        JsonValue::Obj(vec![
                            ("ns".to_owned(), JsonValue::Num(e.phases.ns(phase) as f64)),
                            (
                                "calls".to_owned(),
                                JsonValue::Num(e.phases.calls(phase) as f64),
                            ),
                        ]),
                    )
                })
                .collect();
            JsonValue::Obj(vec![
                ("name".to_owned(), JsonValue::Str(e.name.clone())),
                (
                    "wall_ms".to_owned(),
                    JsonValue::Num((e.wall_ms * 1e3).round() / 1e3),
                ),
                (
                    "newton_iterations".to_owned(),
                    JsonValue::Num(e.newton_iterations as f64),
                ),
                ("linear_only".to_owned(), JsonValue::Bool(e.linear_only)),
                ("workers".to_owned(), JsonValue::Num(e.workers as f64)),
                (
                    "factor_reuse_hits".to_owned(),
                    JsonValue::Num(e.factor_reuse_hits as f64),
                ),
                (
                    "factor_reuse_misses".to_owned(),
                    JsonValue::Num(e.factor_reuse_misses as f64),
                ),
                ("hazards".to_owned(), JsonValue::Num(e.hazards as f64)),
                ("demotions".to_owned(), JsonValue::Num(e.demotions as f64)),
                (
                    "refinement_rounds".to_owned(),
                    JsonValue::Num(e.refinement_rounds as f64),
                ),
                ("phases".to_owned(), JsonValue::Obj(phases)),
            ])
        })
        .collect();
    obj.push(("experiments".to_owned(), JsonValue::Arr(rows)));
    JsonValue::Obj(obj).to_json_pretty()
}

/// Validates a previously written solver-bench document (any accepted
/// schema version): schema tag, non-empty experiment list, finite
/// wall-clock values; for `/2`+ well-formed `linear_only` and `phases`
/// members and the impossible-attribution lint; for `/3`+ the reuse
/// counters and the factorisation-economy lint (`lu_factor.calls ≤
/// newton_iterations` whenever the experiment entered the Newton
/// loop — demotion retries consume an iteration each, so the lint holds
/// even for hazard-heavy runs); for `/4` the numerical-resilience
/// counters (`hazards`, `demotions`, `refinement_rounds`).
///
/// # Errors
///
/// Returns a message naming the first structural problem found.
pub fn validate(text: &str) -> Result<usize, String> {
    let parsed = obs::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = match parsed.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SCHEMA => 4,
        Some(s) if s == SCHEMA_V3 => 3,
        Some(s) if s == SCHEMA_V2 => 2,
        Some(s) if s == SCHEMA_V1 => 1,
        _ => {
            return Err(format!(
                "schema is none of {SCHEMA_V1}, {SCHEMA_V2}, {SCHEMA_V3}, {SCHEMA}"
            ))
        }
    };
    let entries = parsed
        .get("experiments")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "experiments array missing".to_owned())?;
    if entries.is_empty() {
        return Err("experiments array is empty".to_owned());
    }
    for (i, e) in entries.iter().enumerate() {
        if e.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(format!("experiments[{i}].name missing"));
        }
        let wall_ms = match e.get("wall_ms").and_then(JsonValue::as_f64) {
            Some(w) if w.is_finite() && w >= 0.0 => w,
            _ => return Err(format!("experiments[{i}].wall_ms missing or invalid")),
        };
        let newton = match e.get("newton_iterations").and_then(JsonValue::as_f64) {
            Some(n) if n.is_finite() && n >= 0.0 => n,
            _ => return Err(format!("experiments[{i}].newton_iterations missing")),
        };
        if version < 2 {
            continue;
        }
        if e.get("linear_only").and_then(JsonValue::as_bool).is_none() {
            return Err(format!("experiments[{i}].linear_only missing"));
        }
        let workers = match e.get("workers").and_then(JsonValue::as_f64) {
            Some(w) if w.is_finite() && w >= 1.0 => w,
            _ => return Err(format!("experiments[{i}].workers missing or invalid")),
        };
        if version >= 3 {
            for key in ["factor_reuse_hits", "factor_reuse_misses"] {
                match e.get(key).and_then(JsonValue::as_f64) {
                    Some(v) if v.is_finite() && v >= 0.0 => {}
                    _ => return Err(format!("experiments[{i}].{key} missing or invalid")),
                }
            }
        }
        if version >= 4 {
            for key in ["hazards", "demotions", "refinement_rounds"] {
                match e.get(key).and_then(JsonValue::as_f64) {
                    Some(v) if v.is_finite() && v >= 0.0 => {}
                    _ => return Err(format!("experiments[{i}].{key} missing or invalid")),
                }
            }
        }
        // `/2` documents predate the reuse phases: only the legacy
        // seven-phase prefix of the taxonomy is required of them.
        let required = if version >= 3 {
            &Phase::ALL[..]
        } else {
            &Phase::ALL[..Phase::LEGACY_COUNT]
        };
        let phases = e
            .get("phases")
            .ok_or_else(|| format!("experiments[{i}].phases missing"))?;
        let mut total_ns = 0.0;
        let mut lu_factor_calls = 0.0;
        for &phase in required {
            let label = phase.label();
            let entry = phases.get(label).ok_or_else(|| {
                format!("experiments[{i}].phases.{label} missing")
            })?;
            let ns = match entry.get("ns").and_then(JsonValue::as_f64) {
                Some(ns) if ns.is_finite() && ns >= 0.0 => ns,
                _ => return Err(format!("experiments[{i}].phases.{label}.ns invalid")),
            };
            let calls = match entry.get("calls").and_then(JsonValue::as_f64) {
                Some(c) if c.is_finite() && c >= 0.0 => c,
                _ => return Err(format!("experiments[{i}].phases.{label}.calls invalid")),
            };
            if phase == Phase::Factor {
                lu_factor_calls = calls;
            }
            total_ns += ns;
        }
        // Impossible attribution: phase self-times are disjoint slices
        // of per-thread execution, so `workers` threads can attribute
        // at most `workers × wall_ms` between them (modulo the µs
        // rounding of wall_ms).
        if total_ns / 1e6 > wall_ms * workers + 1e-3 {
            return Err(format!(
                "experiments[{i}]: phase total {:.3} ms exceeds wall_ms {wall_ms} \
                 across {workers} worker(s) (impossible attribution)",
                total_ns / 1e6
            ));
        }
        // Factorisation economy: with reuse working, at most one fresh
        // factorisation per Newton iteration — any more means the solver
        // is factorising outside its own iteration accounting.
        if version >= 3 && newton > 0.0 && lu_factor_calls > newton {
            return Err(format!(
                "experiments[{i}]: lu_factor.calls {lu_factor_calls} exceeds \
                 newton_iterations {newton} (factorisation reuse is not engaging)"
            ));
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<BenchEntry> {
        let mut phases = PhaseSnapshot::default();
        phases.ns[Phase::Factor as usize] = 200_000_000; // 200 ms
        phases.calls[Phase::Factor as usize] = 12_000;
        vec![
            BenchEntry {
                name: "e2".to_owned(),
                wall_ms: 12.3456789,
                newton_iterations: 0,
                linear_only: true,
                workers: 1,
                factor_reuse_hits: 0,
                factor_reuse_misses: 0,
                hazards: 0,
                demotions: 0,
                refinement_rounds: 0,
                phases: PhaseSnapshot::default(),
            },
            BenchEntry {
                name: "e6c1".to_owned(),
                wall_ms: 456.7,
                newton_iterations: 12345,
                linear_only: false,
                workers: 1,
                factor_reuse_hits: 345,
                factor_reuse_misses: 12_000,
                hazards: 7,
                demotions: 3,
                refinement_rounds: 4,
                phases,
            },
        ]
    }

    #[test]
    fn rendered_document_validates_and_round_trips() {
        let text = render(&entries());
        assert_eq!(validate(&text), Ok(2));
        let parsed = obs::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some(SCHEMA)
        );
        let rows = parsed.get("experiments").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows[0].get("name").and_then(JsonValue::as_str), Some("e2"));
        assert_eq!(
            rows[1]
                .get("newton_iterations")
                .and_then(JsonValue::as_f64),
            Some(12345.0)
        );
        assert_eq!(
            rows[0].get("linear_only").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            rows[1].get("factor_reuse_hits").and_then(JsonValue::as_f64),
            Some(345.0)
        );
        assert_eq!(
            rows[1]
                .get("factor_reuse_misses")
                .and_then(JsonValue::as_f64),
            Some(12000.0)
        );
        assert_eq!(rows[1].get("hazards").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(
            rows[1].get("demotions").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            rows[1]
                .get("refinement_rounds")
                .and_then(JsonValue::as_f64),
            Some(4.0)
        );
        // Wall-clock rounded to µs precision.
        assert_eq!(
            rows[0].get("wall_ms").and_then(JsonValue::as_f64),
            Some(12.346)
        );
        // Full phase key set even for entries that ran no phases.
        let phases = rows[0].get("phases").unwrap();
        for phase in Phase::ALL {
            assert!(phases.get(phase.label()).is_some(), "{}", phase.label());
        }
        assert_eq!(
            rows[1]
                .get("phases")
                .and_then(|p| p.get("lu_factor"))
                .and_then(|p| p.get("calls"))
                .and_then(JsonValue::as_f64),
            Some(12000.0)
        );
    }

    #[test]
    fn v1_documents_still_validate() {
        let text = format!(
            "{{\"schema\": \"{SCHEMA_V1}\", \"experiments\": [\
             {{\"name\": \"e1\", \"wall_ms\": 5.0, \"newton_iterations\": 0}}]}}"
        );
        assert_eq!(validate(&text), Ok(1));
    }

    #[test]
    fn v2_documents_validate_with_the_legacy_phase_set() {
        // A /2 document carries only the legacy seven phases and no
        // reuse counters; it must keep validating as-is.
        let phases: Vec<String> = Phase::ALL[..Phase::LEGACY_COUNT]
            .iter()
            .map(|p| format!("\"{}\": {{\"ns\": 0, \"calls\": 0}}", p.label()))
            .collect();
        let text = format!(
            "{{\"schema\": \"{SCHEMA_V2}\", \"experiments\": [\
             {{\"name\": \"e1\", \"wall_ms\": 5.0, \"newton_iterations\": 3, \
             \"linear_only\": false, \"workers\": 1, \
             \"phases\": {{{}}}}}]}}",
            phases.join(", ")
        );
        assert_eq!(validate(&text), Ok(1));
    }

    #[test]
    fn v3_documents_validate_without_resilience_counters() {
        // A /3 document carries the full phase taxonomy and the reuse
        // counters but predates the hazard/demotion members; it must
        // keep validating as-is (the committed BENCH_solver.json
        // baseline is one of these).
        let phases: Vec<String> = Phase::ALL
            .iter()
            .map(|p| format!("\"{}\": {{\"ns\": 0, \"calls\": 0}}", p.label()))
            .collect();
        let text = format!(
            "{{\"schema\": \"{SCHEMA_V3}\", \"experiments\": [\
             {{\"name\": \"e1\", \"wall_ms\": 5.0, \"newton_iterations\": 3, \
             \"linear_only\": false, \"workers\": 1, \
             \"factor_reuse_hits\": 2, \"factor_reuse_misses\": 1, \
             \"phases\": {{{}}}}}]}}",
            phases.join(", ")
        );
        assert_eq!(validate(&text), Ok(1));
    }

    #[test]
    fn impossible_attribution_is_flagged() {
        let mut rows = entries();
        // 200 ms of lu_factor inside a 10 ms experiment: impossible.
        rows[1].wall_ms = 10.0;
        let err = validate(&render(&rows)).unwrap_err();
        assert!(err.contains("impossible attribution"), "{err}");
    }

    #[test]
    fn parallel_attribution_is_bounded_by_worker_count() {
        // 200 ms of phase time in a 150 ms experiment: impossible on
        // one thread, fine across two campaign workers.
        let mut rows = entries();
        rows[1].wall_ms = 150.0;
        assert!(validate(&render(&rows)).is_err());
        rows[1].workers = 2;
        assert_eq!(validate(&render(&rows)), Ok(2));
    }

    #[test]
    fn factorising_more_than_iterating_is_flagged() {
        let mut rows = entries();
        // 12 000 factorisations against 11 999 Newton iterations: the
        // solver factorised outside its own iteration accounting.
        rows[1].newton_iterations = 11_999;
        let err = validate(&render(&rows)).unwrap_err();
        assert!(err.contains("reuse is not engaging"), "{err}");
        // Linear-only experiments (newton_iterations 0) are exempt.
        rows[1].newton_iterations = 0;
        assert_eq!(validate(&render(&rows)), Ok(2));
    }

    #[test]
    fn validation_names_the_failure() {
        assert!(validate("{oops").is_err());
        assert!(validate("{\"schema\": \"wrong\"}").unwrap_err().contains("schema"));
        let no_rows = format!("{{\"schema\": \"{SCHEMA}\", \"experiments\": []}}");
        assert!(validate(&no_rows).unwrap_err().contains("empty"));
        // Current-schema entry without the reuse members.
        let missing = format!(
            "{{\"schema\": \"{SCHEMA}\", \"experiments\": [\
             {{\"name\": \"e1\", \"wall_ms\": 5.0, \"newton_iterations\": 0, \
             \"linear_only\": true, \"workers\": 1}}]}}"
        );
        assert!(validate(&missing).unwrap_err().contains("factor_reuse_hits"));
        // /4 entry with reuse counters but no resilience counters.
        let missing = format!(
            "{{\"schema\": \"{SCHEMA}\", \"experiments\": [\
             {{\"name\": \"e1\", \"wall_ms\": 5.0, \"newton_iterations\": 0, \
             \"linear_only\": true, \"workers\": 1, \
             \"factor_reuse_hits\": 0, \"factor_reuse_misses\": 0}}]}}"
        );
        assert!(validate(&missing).unwrap_err().contains("hazards"));
    }
}
