//! Fault campaigns: golden-vs-faulty response collection and detection
//! statistics.
//!
//! A campaign simulates the fault-free circuit once, then re-simulates
//! with each fault of the universe injected, extracts a response
//! signature from each run, and scores every fault with the paper's
//! detection-instance metric (the percentage of signature samples at
//! which the faulty response deviates detectably from golden — Figure 4
//! of the paper plots exactly this per faulty circuit).
//!
//! # Resilience
//!
//! Injected faults regularly produce circuits the solver finds much
//! harder than the design it was tuned on, so the engine is built to
//! survive an entire universe without hanging or aborting:
//!
//! * every extraction runs under a [`SolveBudget`] (step and wall-clock
//!   ceiling);
//! * a failed extraction is retried down a [`SolverRung`] escalation
//!   ladder of progressively more conservative solver settings;
//! * each fault ends in a typed [`FaultStatus`] — there is no way for a
//!   fault to leave the campaign without an outcome;
//! * faults can be simulated on a configurable number of worker
//!   threads, with results collected in universe order so reports are
//!   identical regardless of thread count.
//!
//! A fault whose circuit cannot be simulated at all still counts as
//! *detected* (the paper's hard-fault convention: a chip whose faulty
//! circuit cannot reach a stable state fails test trivially).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anasim::flight::FlightRecorder;
use anasim::metrics::{SolverMetrics, SolverSnapshot};
use anasim::mna::MnaLayout;
use anasim::netlist::Netlist;
use anasim::robust::{escalation_ladder, CancelToken, SolveBudget, SolveSettings, SolverRung};
use anasim::solver::WarmStart;
use anasim::AnalysisError;
use obs::chaos::FaultPlan;
use obs::journal::{JournalOptions, JournalWriter, RetryPolicy};
use obs::profile::PhaseProfiler;
use obs::{Postmortem, Recorder, Section};
use sigproc::correlation::detection_instances;

use crate::inject::inject;
use crate::journal;
use crate::model::Fault;
use crate::telemetry::{StatusEmitter, TelemetryConfig};

/// How one fault's simulation ended.
///
/// Every fault in a campaign gets exactly one of these; simulation
/// failure is an outcome, not an abort.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultStatus {
    /// The signature deviated on at least the configured fraction of
    /// instances.
    Detected {
        /// Percentage (0–100) of deviating signature instances.
        pct: f64,
    },
    /// The signature stayed within threshold on too many instances.
    Undetected {
        /// Percentage (0–100) of deviating signature instances.
        pct: f64,
    },
    /// Every rung of the escalation ladder failed to converge.
    /// Counts as detected (the hard-fault convention).
    SimFailed {
        /// The error from the last rung attempted.
        error: AnalysisError,
        /// How many ladder rungs were tried.
        rungs_tried: usize,
    },
    /// The per-fault resource budget ran out. Counts as detected.
    BudgetExceeded {
        /// How many ladder rungs were tried before the budget expired.
        rungs_tried: usize,
    },
    /// The extraction produced a signature of the wrong length; the
    /// detection metric is undefined. Counts as detected.
    SignatureMismatch {
        /// Faulty-signature length.
        got: usize,
        /// Golden-signature length.
        want: usize,
    },
    /// The extraction panicked. The panic was caught at the fault
    /// boundary ([`std::panic::catch_unwind`]), so it poisons neither
    /// the campaign nor its worker thread — it is terminal for this
    /// fault only. Counts as detected (the hard-fault convention: the
    /// faulty circuit drove the solver somewhere undefined).
    Panicked {
        /// The panic payload, when it was a string (the overwhelmingly
        /// common case); a placeholder otherwise.
        payload: String,
    },
}

impl FaultStatus {
    /// Short stable tag for reports (`"detected"`, `"sim-failed"`, ...).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultStatus::Detected { .. } => "detected",
            FaultStatus::Undetected { .. } => "undetected",
            FaultStatus::SimFailed { .. } => "sim-failed",
            FaultStatus::BudgetExceeded { .. } => "budget-exceeded",
            FaultStatus::SignatureMismatch { .. } => "signature-mismatch",
            FaultStatus::Panicked { .. } => "panicked",
        }
    }
}

/// Outcome of one fault's simulation.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// The fault that was injected.
    pub fault: Fault,
    /// The extracted signature, when any ladder rung produced one.
    pub signature: Option<Vec<f64>>,
    /// How the simulation ended.
    pub status: FaultStatus,
}

impl FaultOutcome {
    /// The measured deviation percentage, if the simulation produced a
    /// comparable signature.
    pub fn detection_pct(&self) -> Option<f64> {
        match self.status {
            FaultStatus::Detected { pct } | FaultStatus::Undetected { pct } => Some(pct),
            _ => None,
        }
    }

    /// Deviation percentage for the paper's Figure-4 series: failed
    /// simulations plot as 100 % (the hard-fault convention).
    pub fn figure_pct(&self) -> f64 {
        self.detection_pct().unwrap_or(100.0)
    }

    /// True if the fault is detected: either at least `min_pct` of
    /// instances deviate, or the faulty circuit failed to simulate.
    pub fn is_detected(&self, min_pct: f64) -> bool {
        match self.detection_pct() {
            Some(pct) => pct >= min_pct,
            None => true,
        }
    }
}

/// Per-fault solver telemetry.
#[derive(Debug, Clone, Default)]
pub struct FaultTelemetry {
    /// Solver counters accumulated across every ladder rung for this
    /// fault (each fault gets a fresh [`SolverMetrics`] handle, so
    /// counts cannot bleed between faults or threads).
    pub solver: SolverSnapshot,
    /// Index of the ladder rung that produced the signature, if any
    /// (0 = nominal settings).
    pub rung: Option<usize>,
    /// Number of ladder rungs attempted.
    pub rungs_tried: usize,
    /// Wall-clock time spent on this fault.
    pub wall: Duration,
    /// Worker lane (0-based thread index) that simulated this fault.
    /// Scheduling-dependent wall-clock metadata for timeline rendering
    /// ([`crate::trace`]): never part of canonical output, and not
    /// journaled — replayed faults report lane 0.
    pub lane: usize,
    /// Offset of this fault's simulation start from the campaign epoch
    /// (the instant [`run_campaign_with`] began). Same caveats as
    /// [`FaultTelemetry::lane`].
    pub start: Duration,
    /// Frozen flight-recorder trace, present only when the campaign's
    /// flight recorder was armed ([`CampaignConfig::flight`]) *and* the
    /// fault exhausted every ladder rung without producing a signature.
    pub postmortem: Option<Postmortem>,
}

impl FaultTelemetry {
    /// Newton iterations spent across every ladder rung for this fault.
    pub fn newton_iterations(&self) -> u64 {
        self.solver.newton_iterations
    }
}

/// Aggregate campaign telemetry, surfaced through
/// [`CampaignReport::stats`].
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Solver counters of the golden extraction.
    pub golden_solver: SolverSnapshot,
    /// Wall-clock time of the golden extraction.
    pub golden_wall: Duration,
    /// One telemetry record per fault, in universe order.
    pub per_fault: Vec<FaultTelemetry>,
    /// Campaign-level elapsed wall time: golden extraction through
    /// result collection, measured once on the coordinating thread. On
    /// a resumed campaign this covers only the resumed portion.
    pub campaign_wall: Duration,
    /// Number of faults whose extraction panicked
    /// ([`FaultStatus::Panicked`]).
    pub panicked: usize,
    /// Journal append attempts absorbed by the writer's
    /// [`RetryPolicy`] (0 when no journal is configured or nothing
    /// failed transiently). Reported as the `journal.retries` section
    /// counter; excluded from canonical *text*, which describes
    /// campaign semantics rather than storage weather.
    pub journal_retries: u64,
}

impl CampaignStats {
    /// Newton iterations spent on the golden extraction.
    pub fn golden_newton_iterations(&self) -> u64 {
        self.golden_solver.newton_iterations
    }

    /// Newton iterations summed over every fault (excluding golden).
    pub fn total_newton_iterations(&self) -> u64 {
        self.per_fault.iter().map(|t| t.solver.newton_iterations).sum()
    }

    /// Solver counters summed over golden and every fault.
    pub fn total_solver(&self) -> SolverSnapshot {
        self.per_fault
            .iter()
            .fold(self.golden_solver, |acc, t| acc + t.solver)
    }

    /// Per-fault wall-clock times as a millisecond histogram (e.g. for
    /// percentiles in run reports).
    pub fn fault_wall_ms(&self) -> obs::Histogram {
        let mut hist = obs::Histogram::new();
        for t in &self.per_fault {
            hist.record(t.wall.as_secs_f64() * 1e3);
        }
        hist
    }

    /// Histogram of successful escalation rungs: `histogram[i]` is the
    /// number of faults whose signature came from ladder rung `i`.
    /// Faults that produced no signature are not counted.
    pub fn rung_histogram(&self) -> Vec<usize> {
        let max_rung = self.per_fault.iter().filter_map(|t| t.rung).max();
        let mut hist = vec![0usize; max_rung.map_or(0, |m| m + 1)];
        for t in &self.per_fault {
            if let Some(r) = t.rung {
                hist[r] += 1;
            }
        }
        hist
    }

    /// Total *CPU-ish* wall-clock time: golden plus the sum of every
    /// per-fault time. Under parallel workers the per-fault times
    /// overlap, so this deliberately exceeds elapsed time — it measures
    /// aggregate solver effort. For the elapsed (human-experienced)
    /// duration of the campaign use
    /// [`CampaignStats::campaign_wall`], which is measured once on the
    /// coordinating thread and never double-counts.
    pub fn total_wall(&self) -> Duration {
        self.golden_wall + self.per_fault.iter().map(|t| t.wall).sum::<Duration>()
    }
}

/// Checkpoint-journal configuration for a campaign
/// ([`CampaignConfig::journal`]).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// JSONL journal file. Always opened in append mode — several
    /// campaigns (distinguished by label) may share one file, and a
    /// resumed campaign appends to what survived. Truncation policy
    /// belongs to the caller.
    pub path: PathBuf,
    /// Label distinguishing this campaign's records within the file.
    pub label: String,
    /// When true, the journal is read before simulating and faults with
    /// journaled outcomes are replayed instead of re-simulated. A
    /// missing journal file is not an error — the campaign simply runs
    /// fresh.
    pub resume: bool,
    /// Retry policy for journal appends. The default absorbs a few
    /// transient I/O faults with millisecond backoff before the
    /// campaign's [`DegradePolicy`] takes over; [`RetryPolicy::none`]
    /// restores fail-fast appends.
    pub retry: RetryPolicy,
    /// Deterministic fault-injection plan wrapped around the journal
    /// file ([`obs::chaos`]). `None` (the default) journals against the
    /// real filesystem only — chaos is strictly opt-in.
    pub chaos: Option<FaultPlan>,
}

impl JournalConfig {
    /// Journal a fresh campaign run to `path` under `label`.
    pub fn fresh(path: impl Into<PathBuf>, label: impl Into<String>) -> Self {
        JournalConfig {
            path: path.into(),
            label: label.into(),
            resume: false,
            retry: RetryPolicy::default(),
            chaos: None,
        }
    }

    /// Resume from (and keep journaling to) `path` under `label`.
    pub fn resume(path: impl Into<PathBuf>, label: impl Into<String>) -> Self {
        JournalConfig {
            resume: true,
            ..JournalConfig::fresh(path, label)
        }
    }

    /// Replaces the append retry policy.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a deterministic fault-injection plan on the journal's
    /// storage path (chaos testing).
    #[must_use]
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }
}

/// What a campaign does when its checkpoint journal fails persistently
/// (every retry of an append exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Stop claiming new faults at the next fault boundary, append a
    /// best-effort `cancelled` terminal record so the journal replays,
    /// and fail the campaign with the journal error. Completed faults
    /// stay journaled; a resume picks up from them. This is the
    /// default: silently dropping checkpoints would break the resume
    /// guarantee.
    #[default]
    Abort,
    /// Keep simulating without checkpoints: the campaign completes and
    /// its report is fully populated, but outcomes after the failure
    /// exist only in memory. The report carries a
    /// [`JournalDegradation`] (surfaced as a canonical
    /// `[journal degraded …]` marker, a `journal_degraded.faults`
    /// counter and a recorder event), and a best-effort `degraded`
    /// terminal record marks the journal itself as incomplete.
    Continue,
}

/// How a completed campaign's journal degraded
/// ([`CampaignReport::degradation`], policy
/// [`DegradePolicy::Continue`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalDegradation {
    /// Fault outcomes that made it into the journal (including
    /// replayed ones).
    pub journaled: usize,
    /// Fault outcomes completed after journaling stopped — present in
    /// the report, absent from the journal.
    pub unjournaled: usize,
    /// The terminal journal error that triggered degradation.
    pub reason: String,
}

/// Configuration for [`run_campaign_with`].
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Per-instance deviation threshold for the detection metric.
    pub threshold: f64,
    /// Minimum deviation percentage for [`FaultStatus::Detected`]
    /// (the paper's detection criterion; default 50 %).
    pub min_detect_pct: f64,
    /// Worker threads simulating faults (default 1 = serial). Reports
    /// are identical for any worker count.
    pub workers: usize,
    /// Escalation ladder tried in order for each fault. Must not be
    /// empty.
    pub ladder: Vec<SolverRung>,
    /// Resource budget applied to each extraction attempt.
    pub budget: SolveBudget,
    /// Ring capacity of the per-fault convergence flight recorder, or
    /// `None` (the default) to leave it disarmed. Armed, each fault gets
    /// its own [`FlightRecorder`] shared across every ladder rung; a
    /// fault that fails terminally freezes it into
    /// [`FaultTelemetry::postmortem`].
    pub flight: Option<usize>,
    /// Checkpoint journal: every completed fault is appended (fsync'd)
    /// to this JSONL file, and with [`JournalConfig::resume`] set,
    /// previously journaled faults are replayed instead of
    /// re-simulated. `None` (the default) disables checkpointing.
    pub journal: Option<JournalConfig>,
    /// Cooperative-cancellation token. Raised (from Ctrl-C, another
    /// thread, anywhere), it stops the campaign: in-flight extractions
    /// abort within one Newton iteration, workers stop claiming faults,
    /// and [`run_campaign_with`] returns [`AnalysisError::Cancelled`]
    /// after journaling a clean `cancelled` terminal record. Completed
    /// faults stay journaled, so the campaign resumes where it stopped.
    pub cancel: Option<CancelToken>,
    /// What to do when the journal fails persistently (all append
    /// retries exhausted): abort cleanly at the next fault boundary
    /// (the default) or continue journal-less with the degradation
    /// accounted for in the report.
    pub degrade: DegradePolicy,
    /// Arms phase-level cost attribution: the golden extraction and
    /// every fault get a fresh [`PhaseProfiler`] shared across ladder
    /// rungs, and the per-phase nanosecond rollup lands in
    /// [`FaultTelemetry::solver`] (the
    /// [`SolverSnapshot::phases`](anasim::metrics::SolverSnapshot)
    /// field). Phase times are wall-clock measurements and never reach
    /// canonical report output, so arming this cannot perturb
    /// byte-stability; the cost is a few monotonic-clock reads per
    /// Newton iteration. Disarmed (the default), no clocks are read.
    pub profile: bool,
    /// Live telemetry: per-worker heartbeat records and periodically
    /// rewritten `mixsig.campaign-status/1` snapshots in the configured
    /// directory ([`TelemetryConfig`]), tailed by `experiments watch`.
    /// Purely advisory — telemetry writes are best-effort (failures are
    /// counted in the next snapshot, never surfaced as campaign
    /// errors), and nothing here reaches canonical report output, so
    /// arming it cannot perturb byte-stability. `None` (the default)
    /// runs without live telemetry and spawns no monitor thread.
    pub telemetry: Option<TelemetryConfig>,
    /// Numeric-chaos plan: deterministic arithmetic fault injection
    /// into each *fault* extraction's solver (pivot breakdowns, factor
    /// perturbations, NaN solutions).
    /// Each fault arms a fresh firing state shared across its ladder
    /// rungs, so injection is a pure function of the fault's solve
    /// sequence and reports stay byte-identical at any worker count.
    /// The golden extraction always runs clean — chaos probes the
    /// solver's recovery, not the reference signature. `None` (the
    /// default) keeps every site inert.
    pub numeric_chaos: Option<obs::NumericChaosPlan>,
}

impl CampaignConfig {
    /// A configuration with the given detection threshold, the default
    /// escalation ladder, a generous step budget, one worker and the
    /// 50 % detection criterion.
    pub fn new(threshold: f64) -> Self {
        CampaignConfig {
            threshold,
            min_detect_pct: 50.0,
            workers: 1,
            ladder: escalation_ladder(),
            budget: SolveBudget::unlimited().steps(5_000_000),
            flight: None,
            journal: None,
            cancel: None,
            degrade: DegradePolicy::default(),
            profile: false,
            telemetry: None,
            numeric_chaos: None,
        }
    }

    /// Replaces the detection threshold (used when the threshold is
    /// derived from the golden signature after construction).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the minimum deviation percentage for `Detected`.
    pub fn min_detect_pct(mut self, pct: f64) -> Self {
        self.min_detect_pct = pct;
        self
    }

    /// Sets the number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the escalation ladder.
    pub fn ladder(mut self, ladder: Vec<SolverRung>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Replaces the per-extraction budget. A wall-clock ceiling makes
    /// outcomes timing-dependent, which sacrifices report determinism —
    /// prefer step budgets when byte-stable reports matter.
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms the convergence flight recorder with the given ring
    /// capacity ([`FlightRecorder::DEFAULT_CAPACITY`] is a sensible
    /// choice): faults that fail every ladder rung carry a frozen
    /// [`Postmortem`] in their telemetry.
    pub fn flight(mut self, capacity: usize) -> Self {
        self.flight = Some(capacity);
        self
    }

    /// Installs a checkpoint journal ([`JournalConfig::fresh`] /
    /// [`JournalConfig::resume`]).
    pub fn journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Installs a cooperative-cancellation token; see
    /// [`CampaignConfig::cancel`].
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the persistent-journal-failure policy; see
    /// [`DegradePolicy`].
    pub fn degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }

    /// Arms (or disarms) phase-level cost attribution; see
    /// [`CampaignConfig::profile`].
    pub fn profile(mut self, armed: bool) -> Self {
        self.profile = armed;
        self
    }

    /// Arms live telemetry; see [`CampaignConfig::telemetry`].
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Arms deterministic numeric-chaos injection for every fault
    /// extraction (the golden extraction always runs clean); see
    /// [`CampaignConfig::numeric_chaos`].
    pub fn numeric_chaos(mut self, plan: obs::NumericChaosPlan) -> Self {
        self.numeric_chaos = Some(plan);
        self
    }
}

/// Full report of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The golden (fault-free) signature.
    pub golden: Vec<f64>,
    /// One outcome per fault, in universe order.
    pub outcomes: Vec<FaultOutcome>,
    /// The deviation threshold used.
    pub threshold: f64,
    /// Solver telemetry for the run.
    pub stats: CampaignStats,
    /// Set when the journal failed persistently under
    /// [`DegradePolicy::Continue`]: the report is complete, the journal
    /// is not. `None` for unjournaled campaigns and for journals that
    /// stayed healthy (possibly via retries).
    pub degradation: Option<JournalDegradation>,
}

impl CampaignReport {
    /// Fault coverage: fraction (0–1) of faults detected at the given
    /// minimum detection percentage.
    pub fn coverage(&self, min_pct: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let detected = self
            .outcomes
            .iter()
            .filter(|o| o.is_detected(min_pct))
            .count();
        detected as f64 / self.outcomes.len() as f64
    }

    /// Detection percentages in universe order (failed simulations show
    /// as 100 %), the series plotted in the paper's Figure 4.
    pub fn detection_series(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.figure_pct()).collect()
    }

    /// Number of faults whose status is anything but `Undetected` (the
    /// criterion already applied when statuses were assigned).
    pub fn detected_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !matches!(o.status, FaultStatus::Undetected { .. }))
            .count()
    }

    /// Publishes the completed campaign to a recorder: golden and
    /// per-fault spans, summed solver counters, and one
    /// `campaign.rung.<i>` counter per escalation-ladder rung that
    /// produced a signature. Events follow universe order, so what the
    /// recorder sees is deterministic for any worker count (aside from
    /// the wall-clock span durations themselves).
    pub fn emit_to(&self, recorder: &dyn Recorder) {
        recorder.span("campaign.golden", self.stats.golden_wall);
        self.stats.golden_solver.emit_to(recorder);
        for t in &self.stats.per_fault {
            recorder.span("campaign.fault", t.wall);
            t.solver.emit_to(recorder);
        }
        recorder.add("campaign.faults", self.outcomes.len() as u64);
        recorder.add("campaign.detected", self.detected_count() as u64);
        recorder.add("campaign.panicked", self.stats.panicked as u64);
        recorder.add("campaign.journal.retries", self.stats.journal_retries);
        if let Some(d) = &self.degradation {
            recorder.add("campaign.journal.degraded", d.unjournaled as u64);
        }
        for (i, count) in self.stats.rung_histogram().iter().enumerate() {
            recorder.add(&format!("campaign.rung.{i}"), *count as u64);
        }
    }

    /// Postmortems frozen during the campaign, paired with the name of
    /// the fault they belong to, in universe order.
    pub fn postmortems(&self) -> impl Iterator<Item = (&str, &Postmortem)> {
        self.outcomes
            .iter()
            .zip(&self.stats.per_fault)
            .filter_map(|(o, t)| t.postmortem.as_ref().map(|pm| (o.fault.name(), pm)))
    }

    /// Campaign-level rollup of the flight recorder's worst-offender
    /// histograms: which circuit nodes most often dominated the Newton
    /// update across *all* failed faults, descending by count then name.
    /// Empty when the flight recorder was disarmed or nothing failed.
    pub fn top_offending_nodes(&self) -> Vec<(String, u64)> {
        let mut counts: std::collections::BTreeMap<&str, u64> =
            std::collections::BTreeMap::new();
        for t in &self.stats.per_fault {
            if let Some(pm) = &t.postmortem {
                for (node, count) in &pm.worst_nodes {
                    *counts.entry(node.as_str()).or_default() += count;
                }
            }
        }
        let mut out: Vec<(String, u64)> = counts
            .into_iter()
            .map(|(node, count)| (node.to_owned(), count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Renders the campaign as a named [`Section`] for a
    /// [`obs::RunReport`]: fault/detection counters, coverage, the
    /// combined solver counters, the escalation-rung histogram, the
    /// golden/per-fault wall-clock histograms, and — when the flight
    /// recorder was armed — every frozen postmortem plus `worst_node.*`
    /// counters for the top offending nodes.
    pub fn to_section(&self, name: &str) -> Section {
        let mut section = Section::new(name);
        section
            .counter("faults", self.outcomes.len() as u64)
            .counter("detected", self.detected_count() as u64)
            // Emitted even at zero so the counter key set is stable
            // across runs (canonical diffs stay structural).
            .counter("panicked.faults", self.stats.panicked as u64)
            .counter(
                "journal_degraded.faults",
                self.degradation.as_ref().map_or(0, |d| d.unjournaled as u64),
            )
            .counter("journal.retries", self.stats.journal_retries)
            .value("threshold", self.threshold)
            .value(
                "coverage",
                if self.outcomes.is_empty() {
                    100.0
                } else {
                    100.0 * self.detected_count() as f64 / self.outcomes.len() as f64
                },
            );
        let total = self.stats.total_solver();
        for (counter, value) in anasim::metrics::COUNTER_NAMES.iter().zip(total.as_array()) {
            section.counter(counter, value);
        }
        section.histogram(
            "escalation_rungs",
            self.stats.rung_histogram().iter().map(|&n| n as u64).collect(),
        );
        section.timing_ms(
            "campaign.golden",
            self.stats.golden_wall.as_secs_f64() * 1e3,
        );
        section.timing_ms(
            "campaign.wall",
            self.stats.campaign_wall.as_secs_f64() * 1e3,
        );
        for t in &self.stats.per_fault {
            section.timing_ms("campaign.fault", t.wall.as_secs_f64() * 1e3);
        }
        for (node, count) in self.top_offending_nodes().into_iter().take(5) {
            section.counter(&format!("worst_node.{node}"), count);
        }
        for t in &self.stats.per_fault {
            if let Some(pm) = &t.postmortem {
                section.postmortem(pm.clone());
            }
        }
        section
    }

    /// Canonical plain-text rendering of the report.
    ///
    /// Contains only deterministic quantities (statuses, percentages,
    /// rung indices, Newton iteration counts) — never wall-clock times —
    /// so the text is byte-identical across runs and worker counts as
    /// long as no wall-clock budget is configured.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} faults, threshold {:.6}, {} golden samples",
            self.outcomes.len(),
            self.threshold,
            self.golden.len()
        );
        for (o, t) in self.outcomes.iter().zip(&self.stats.per_fault) {
            let _ = write!(out, "{}: {}", o.fault.name(), o.status.tag());
            match &o.status {
                FaultStatus::Detected { pct } | FaultStatus::Undetected { pct } => {
                    let _ = write!(out, " {pct:.4}%");
                }
                FaultStatus::SimFailed { error, rungs_tried } => {
                    let _ = write!(out, " after {rungs_tried} rungs: {error}");
                }
                FaultStatus::BudgetExceeded { rungs_tried } => {
                    let _ = write!(out, " after {rungs_tried} rungs");
                }
                FaultStatus::SignatureMismatch { got, want } => {
                    let _ = write!(out, " got {got} want {want}");
                }
                FaultStatus::Panicked { .. } => {}
            }
            if let Some(r) = t.rung {
                let _ = write!(out, " [rung {r}]");
            }
            if let Some((node, _)) = t.postmortem.as_ref().and_then(|pm| pm.worst_nodes.first())
            {
                let _ = write!(out, " [worst {node}]");
            }
            if let FaultStatus::Panicked { payload } = &o.status {
                let _ = write!(out, " [panic {}]", payload.lines().next().unwrap_or(""));
            }
            // Counter-derived numerical-resilience marker, in the same
            // family as [rung]/[worst]/[panic]: hazards the solver
            // observed for this fault and the refactor retries they
            // cost. Healthy faults carry no marker, so canonical bytes
            // are untouched unless something actually went wrong.
            let join = |pairs: &[(&'static str, u64)]| -> String {
                pairs
                    .iter()
                    .filter(|(_, count)| *count > 0)
                    .map(|(label, count)| {
                        if *count == 1 {
                            (*label).to_owned()
                        } else {
                            format!("{label} x {count}")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let hazards = join(&t.solver.hazards());
            let demotes = join(&t.solver.demotions());
            match (hazards.is_empty(), demotes.is_empty()) {
                (false, false) => {
                    let _ = write!(out, " [hazard {hazards} → demote {demotes}]");
                }
                (false, true) => {
                    let _ = write!(out, " [hazard {hazards}]");
                }
                (true, false) => {
                    let _ = write!(out, " [demote {demotes}]");
                }
                (true, true) => {}
            }
            let _ = writeln!(out, " [newton {}]", t.solver.newton_iterations);
        }
        let _ = writeln!(out, "coverage@50%: {:.4}", self.coverage(50.0));
        if let Some(d) = &self.degradation {
            let _ = writeln!(
                out,
                "[journal degraded: {} unjournaled of {} faults ({})]",
                d.unjournaled,
                self.outcomes.len(),
                d.reason
            );
        }
        out
    }
}

/// Shared journal bookkeeping for one campaign run: the writer plus the
/// failure/degradation state workers consult at every fault boundary.
struct JournalState {
    writer: Mutex<JournalWriter>,
    label: String,
    /// Outcomes replayed from the journal before simulation started.
    replayed: usize,
    /// Latched on the first persistent (retries-exhausted) append
    /// failure; `reason` holds the error (first one wins).
    failed: AtomicBool,
    /// Under [`DegradePolicy::Abort`]: tells workers to stop claiming
    /// faults, exactly like a raised cancel token.
    abort: AtomicBool,
    /// Fault outcomes appended to the journal by this run.
    journaled: AtomicUsize,
    /// Fault outcomes completed after journaling stopped
    /// ([`DegradePolicy::Continue`] only).
    unjournaled: AtomicUsize,
    reason: Mutex<Option<String>>,
}

impl JournalState {
    fn new(writer: JournalWriter, label: String, replayed: usize) -> Self {
        JournalState {
            writer: Mutex::new(writer),
            label,
            replayed,
            failed: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            journaled: AtomicUsize::new(0),
            unjournaled: AtomicUsize::new(0),
            reason: Mutex::new(None),
        }
    }

    /// Records a persistent append failure and applies the policy.
    fn degrade(&self, err: &std::io::Error, policy: DegradePolicy) {
        let mut reason = self.reason.lock().expect("journal reason lock");
        if reason.is_none() {
            *reason = Some(err.to_string());
        }
        drop(reason);
        self.failed.store(true, Ordering::Release);
        if policy == DegradePolicy::Abort {
            self.abort.store(true, Ordering::Release);
        }
    }

    /// Total fault outcomes the journal holds: replayed plus appended.
    fn journaled_total(&self) -> usize {
        self.replayed + self.journaled.load(Ordering::Acquire)
    }

    fn reason(&self) -> String {
        self.reason
            .lock()
            .expect("journal reason lock")
            .clone()
            .unwrap_or_else(|| "unknown journal failure".into())
    }
}

/// Runs a fault campaign with the resilient engine.
///
/// `extract` simulates a netlist under the given [`SolveSettings`] and
/// produces its response signature (e.g. sampled output waveform or
/// correlation function). The golden netlist is extracted first at
/// nominal settings; each fault is then injected and extracted, walking
/// the configured escalation ladder until a rung converges, the budget
/// expires, or the ladder is exhausted. Every fault yields a typed
/// [`FaultStatus`] — per-fault failures never abort the campaign.
///
/// With `config.workers > 1`, faults are distributed over that many
/// threads; outcomes are collected in universe order, so the report is
/// independent of the worker count.
///
/// Three more failure modes stay contained at the fault boundary:
///
/// * a **panicking** extraction is caught ([`std::panic::catch_unwind`])
///   and becomes that fault's terminal [`FaultStatus::Panicked`];
/// * a raised [`CampaignConfig::cancel`] token stops the campaign at
///   the next fault boundary (in-flight extractions abort within one
///   Newton iteration) and returns [`AnalysisError::Cancelled`];
/// * with [`CampaignConfig::journal`] configured, every completed fault
///   is checkpointed to an fsync'd JSONL journal, so a crash, kill or
///   cancellation can be resumed ([`JournalConfig::resume`]) without
///   redoing completed work.
///
/// # Errors
///
/// Returns the golden circuit's analysis error if the fault-free
/// extraction fails, [`AnalysisError::InvalidParameter`] if the ladder
/// is empty or the journal is unusable (foreign campaign, write
/// failure), or [`AnalysisError::Cancelled`] when the campaign was
/// cancelled before every fault completed.
pub fn run_campaign_with<F>(
    golden: &Netlist,
    faults: &[Fault],
    config: &CampaignConfig,
    extract: F,
) -> Result<CampaignReport, AnalysisError>
where
    F: Fn(&Netlist, &SolveSettings) -> Result<Vec<f64>, AnalysisError> + Sync,
{
    if config.ladder.is_empty() {
        return Err(AnalysisError::InvalidParameter(
            "campaign escalation ladder is empty".into(),
        ));
    }

    let campaign_start = Instant::now();

    // Golden extraction at nominal settings, same budget as faults.
    // Each extraction gets its own SolverMetrics handle: counts are
    // exact per extraction and nothing is shared between threads.
    // A resumed campaign re-runs this too: the solver is deterministic,
    // so re-deriving the golden signature is both cheap (one fault's
    // worth of work) and exactly reproducible, which keeps the journal
    // free of bulk golden data.
    let golden_profile = config.profile.then(|| Arc::new(PhaseProfiler::new()));
    let golden_metrics = {
        let mut metrics = SolverMetrics::new();
        if let Some(p) = &golden_profile {
            metrics = metrics.with_profile(Arc::clone(p));
        }
        Arc::new(metrics)
    };
    // What every extraction shares; golden and faults add their own
    // handles on top. The golden run always solves clean: chaos tests
    // the recovery ladder against faults, never the reference signature.
    let base_settings = SolveSettings {
        budget: config.budget,
        cancel: config.cancel.clone(),
        ..SolveSettings::default()
    };
    let golden_settings = SolveSettings {
        metrics: Some(Arc::clone(&golden_metrics)),
        profile: golden_profile.clone(),
        ..base_settings.clone()
    };
    let golden_start = Instant::now();
    let golden_sig = extract(golden, &golden_settings)?;
    let golden_wall = golden_start.elapsed();
    let golden_solver = golden_metrics.snapshot();

    // Golden DC operating point, reused as the Newton seed for every
    // fault: injection appends hardware at the end of the netlist, so
    // golden unknowns map directly onto the faulty layout and only the
    // fault's own unknowns start cold. Best-effort — a circuit whose
    // golden DC point does not converge simply skips warm-starting.
    let warm_start: Option<Arc<WarmStart>> = anasim::dc::dc_operating_point(golden)
        .ok()
        .map(|op| {
            let node_count = MnaLayout::new(golden).node_count();
            Arc::new(WarmStart::new(op.into_solution(), node_count))
        });

    // Replay the checkpoint journal (resume) and open it for appending.
    // `results[i]` starts as the replayed outcome for fault `i`, or
    // `None` for faults still to simulate.
    let is_cancelled = || config.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
    let mut results: Vec<Option<(FaultOutcome, FaultTelemetry)>> =
        faults.iter().map(|_| None).collect();
    let journal_state: Option<JournalState> = match &config.journal {
        Some(jc) => {
            let journal_err =
                |e: String| AnalysisError::InvalidParameter(format!("campaign journal: {e}"));
            let mut replayed_campaign = None;
            if jc.resume && jc.path.exists() {
                let replay = journal::load(&jc.path).map_err(journal_err)?;
                if let Some(campaign) = replay.campaign(&jc.label) {
                    // Refuse a journal that belongs to a different
                    // campaign: replaying foreign outcomes would be
                    // silent corruption, not resilience.
                    if campaign.names.iter().map(String::as_str).ne(faults.iter().map(Fault::name))
                    {
                        return Err(journal_err(format!(
                            "label {:?} was journaled with a different fault universe",
                            jc.label
                        )));
                    }
                    if campaign.threshold.to_bits() != config.threshold.to_bits() {
                        return Err(journal_err(format!(
                            "label {:?} was journaled with threshold {}, campaign has {}",
                            jc.label, campaign.threshold, config.threshold
                        )));
                    }
                    if campaign.golden_len != golden_sig.len() {
                        return Err(journal_err(format!(
                            "label {:?} was journaled with {} golden samples, campaign has {}",
                            jc.label,
                            campaign.golden_len,
                            golden_sig.len()
                        )));
                    }
                    replayed_campaign = Some(campaign.clone());
                }
            }
            // Opening and the `start` record go through the configured
            // retry/chaos options too; errors here carry the path and
            // operation from `obs::journal::JournalError`.
            let mut writer = JournalWriter::append_to_with(
                &jc.path,
                JournalOptions {
                    retry: jc.retry.clone(),
                    chaos: jc.chaos.clone(),
                },
            )
            .map_err(|e| journal_err(e.to_string()))?;
            writer
                .append(&journal::start_record(
                    &jc.label,
                    faults,
                    config.threshold,
                    golden_sig.len(),
                ))
                .map_err(|e| journal_err(e.to_string()))?;
            let mut replayed = 0usize;
            if let Some(campaign) = replayed_campaign {
                for fault in campaign.faults.values() {
                    // Replaying a big journal decodes thousands of
                    // records; honour cancellation at record
                    // granularity, terminating the fresh segment
                    // cleanly so the journal still replays.
                    if is_cancelled() {
                        writer
                            .append(&journal::cancelled_record(&jc.label, replayed))
                            .map_err(|e| journal_err(e.to_string()))?;
                        return Err(AnalysisError::Cancelled);
                    }
                    if fault.index >= faults.len() || fault.name != faults[fault.index].name()
                    {
                        return Err(journal_err(format!(
                            "fault record {:?} (index {}) does not match the universe",
                            fault.name, fault.index
                        )));
                    }
                    results[fault.index] = Some((
                        FaultOutcome {
                            fault: faults[fault.index].clone(),
                            signature: fault.signature.clone(),
                            status: fault.status.clone(),
                        },
                        fault.telemetry.clone(),
                    ));
                    replayed += 1;
                }
            }
            Some(JournalState::new(writer, jc.label.clone(), replayed))
        }
        None => None,
    };

    // Live telemetry arms after replay so replayed outcomes seed the
    // progress rollup, and before any fault simulates so the first
    // snapshot is on disk the moment workers start. Everything the
    // emitter does is advisory and best-effort: a dead telemetry
    // directory costs dropped snapshots, never the campaign.
    let emitter: Option<StatusEmitter> = config.telemetry.as_ref().map(|tc| {
        let mut rollup = (0usize, 0usize, 0usize);
        for (outcome, _) in results.iter().flatten() {
            match outcome.status.tag() {
                "detected" => rollup.0 += 1,
                "undetected" => rollup.1 += 1,
                _ => rollup.2 += 1,
            }
        }
        StatusEmitter::arm(
            tc.clone(),
            config
                .journal
                .as_ref()
                .map_or("campaign", |jc| jc.label.as_str()),
            config.journal.as_ref().map(|jc| jc.path.as_path()),
            faults.len(),
            config.workers.max(1),
            rollup,
            config.budget,
        )
    });

    let simulate_fault = |fault: &Fault, lane: usize| -> Option<(FaultOutcome, FaultTelemetry)> {
        let faulty = inject(golden, fault);
        // One handle per fault, accumulated across ladder rungs. When
        // profiling is armed the profiler is fresh per fault too, so the
        // phase rollup in the telemetry is exact for this fault alone.
        let profile = config.profile.then(|| Arc::new(PhaseProfiler::new()));
        let metrics = {
            let mut metrics = SolverMetrics::new();
            if let Some(p) = &profile {
                metrics = metrics.with_profile(Arc::clone(p));
            }
            Arc::new(metrics)
        };
        // One flight recorder per fault too, shared across every rung so
        // a frozen postmortem shows the whole escalation path.
        let flight = config.flight.map(|cap| Arc::new(FlightRecorder::new(cap)));
        // Fresh numeric-chaos firing state per fault, shared across
        // rungs: attempt indices depend only on this fault's own solve
        // sequence, so the injection schedule — and with it the typed
        // outcome — replays bit-for-bit at any worker count.
        let numeric_chaos = config
            .numeric_chaos
            .as_ref()
            .filter(|plan| !plan.is_empty())
            .map(|plan| Arc::new(plan.arm()));
        // Built once per fault; each ladder step swaps only the rung.
        let mut settings = SolveSettings {
            metrics: Some(Arc::clone(&metrics)),
            flight: flight.clone(),
            profile: profile.clone(),
            warm_start: warm_start.clone(),
            numeric_chaos,
            ..base_settings.clone()
        };
        let start_offset = campaign_start.elapsed();
        let start = Instant::now();

        let mut rungs_tried = 0usize;
        let mut last_err: Option<AnalysisError> = None;
        let mut produced: Option<(usize, Vec<f64>)> = None;
        let mut out_of_budget = false;
        let mut panicked: Option<String> = None;
        for (i, rung) in config.ladder.iter().enumerate() {
            rungs_tried += 1;
            if let Some(flight) = &flight {
                flight.begin_rung(i, &rung.label());
            }
            settings.rung = *rung;
            // The extraction is the untrusted part of the engine: a
            // panicking solver must become this fault's outcome, not
            // take down the worker (which would poison the thread-pool
            // scope and abort the whole campaign).
            match catch_unwind(AssertUnwindSafe(|| extract(&faulty, &settings))) {
                Err(panic) => {
                    if let Some(flight) = &flight {
                        flight.end_rung("panic");
                    }
                    // Terminal for this fault: a panic means solver
                    // state is suspect, so walking further down the
                    // ladder would prove nothing.
                    panicked = Some(panic_payload(panic.as_ref()));
                    break;
                }
                Ok(Ok(sig)) => {
                    if let Some(flight) = &flight {
                        flight.end_rung("ok");
                    }
                    produced = Some((i, sig));
                    break;
                }
                Ok(Err(AnalysisError::Cancelled)) => {
                    if let Some(flight) = &flight {
                        flight.end_rung("cancelled");
                    }
                    // Cancellation abandons the in-flight fault: it is
                    // not journaled and carries no outcome — a resume
                    // will simulate it from scratch.
                    return None;
                }
                Ok(Err(err @ AnalysisError::BudgetExceeded { .. })) => {
                    // The budget bounds total effort per fault: do not
                    // walk further down the ladder.
                    if let Some(flight) = &flight {
                        flight.end_rung("budget");
                    }
                    last_err = Some(err);
                    out_of_budget = true;
                    break;
                }
                Ok(Err(err)) => {
                    if let Some(flight) = &flight {
                        flight.end_rung(match &err {
                            AnalysisError::NoConvergence { .. } => "no-convergence",
                            AnalysisError::SingularMatrix { .. } => "singular",
                            AnalysisError::Numerical { .. } => "numerical",
                            _ => "error",
                        });
                    }
                    last_err = Some(err);
                }
            }
        }

        let wall = start.elapsed();
        let solver = metrics.snapshot();

        // A fault that exhausted the ladder (or its budget), or died in
        // a panic, freezes its flight recorder into a postmortem before
        // the failure is moved into the status.
        let postmortem = if let Some(payload) = &panicked {
            flight.as_ref().map(|f| f.freeze_panic(fault.name(), payload))
        } else {
            match (&flight, &last_err, &produced) {
                (Some(flight), Some(err), None) => {
                    let budget_steps = match err {
                        AnalysisError::BudgetExceeded { steps, .. } => Some(*steps as u64),
                        _ => None,
                    };
                    Some(flight.freeze(fault.name(), err, budget_steps))
                }
                _ => None,
            }
        };

        let (signature, rung, status) = if let Some(payload) = panicked {
            (None, None, FaultStatus::Panicked { payload })
        } else {
            match produced {
                Some((i, sig)) => {
                    if sig.len() != golden_sig.len() {
                        let status = FaultStatus::SignatureMismatch {
                            got: sig.len(),
                            want: golden_sig.len(),
                        };
                        (Some(sig), Some(i), status)
                    } else {
                        let pct = detection_instances(&golden_sig, &sig, config.threshold);
                        let status = if pct >= config.min_detect_pct {
                            FaultStatus::Detected { pct }
                        } else {
                            FaultStatus::Undetected { pct }
                        };
                        (Some(sig), Some(i), status)
                    }
                }
                None if out_of_budget => {
                    (None, None, FaultStatus::BudgetExceeded { rungs_tried })
                }
                None => (
                    None,
                    None,
                    FaultStatus::SimFailed {
                        error: last_err.expect("non-empty ladder records an error"),
                        rungs_tried,
                    },
                ),
            }
        };

        Some((
            FaultOutcome {
                fault: fault.clone(),
                signature,
                status,
            },
            FaultTelemetry {
                solver,
                rung,
                rungs_tried,
                wall,
                lane,
                start: start_offset,
                postmortem,
            },
        ))
    };

    // One completed fault = one fsync'd journal line, appended from
    // whichever worker finished it. Journal order is completion order;
    // the record's index restores universe order on replay. Transient
    // write failures are absorbed by the writer's retry policy; a
    // persistent one latches the degradation state, and the configured
    // `DegradePolicy` decides whether workers stop claiming (Abort) or
    // keep simulating with the gap accounted (Continue) — dropping
    // checkpoints *silently* would break the resume guarantee.
    let run_one = |i: usize, lane: usize| -> Option<(FaultOutcome, FaultTelemetry)> {
        if let Some(em) = &emitter {
            em.fault_claimed(lane, i, faults[i].name());
        }
        let Some(result) = simulate_fault(&faults[i], lane) else {
            // Cancellation abandoned the in-flight fault: release the
            // lane so the terminal snapshot shows it idle, not hung.
            if let Some(em) = &emitter {
                em.fault_abandoned(lane);
            }
            return None;
        };
        if let Some(em) = &emitter {
            em.fault_done(lane, i, faults[i].name(), result.0.status.tag(), &result.1.solver);
        }
        if let Some(js) = &journal_state {
            if js.failed.load(Ordering::Acquire) {
                js.unjournaled.fetch_add(1, Ordering::AcqRel);
            } else {
                let record = journal::fault_record(
                    &js.label,
                    i,
                    faults[i].name(),
                    result.0.signature.as_deref(),
                    &result.0.status,
                    &result.1,
                );
                match js.writer.lock().expect("journal lock").append(&record) {
                    Ok(()) => {
                        js.journaled.fetch_add(1, Ordering::AcqRel);
                    }
                    Err(err) => {
                        js.degrade(&err, config.degrade);
                        js.unjournaled.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
        }
        Some(result)
    };
    // Workers stop claiming for either reason — user cancellation or a
    // journal abort — through the same fault-boundary check.
    let should_stop = || {
        is_cancelled()
            || journal_state
                .as_ref()
                .is_some_and(|js| js.abort.load(Ordering::Acquire))
    };

    // Only faults without a replayed outcome are simulated. The whole
    // execution block runs inside one scope so the telemetry monitor
    // (when armed) can tick on its own scoped thread beside either the
    // serial loop or the worker pool; it is told to stop (and joins at
    // scope exit) before results are inspected.
    let pending: Vec<usize> = (0..faults.len()).filter(|&i| results[i].is_none()).collect();
    let workers = config.workers.max(1).min(pending.len().max(1));
    std::thread::scope(|scope| {
        if let Some(em) = &emitter {
            scope.spawn(move || em.monitor());
        }
        if workers <= 1 {
            for &i in &pending {
                if should_stop() {
                    break;
                }
                let Some(result) = run_one(i, 0) else { break };
                results[i] = Some(result);
            }
        } else {
            // Deterministic parallel execution: an atomic cursor hands
            // out pending fault indices, each fault runs entirely on
            // one thread, and results land in per-index slots so
            // universe order is restored exactly regardless of
            // scheduling. Workers check the cancellation token (and the
            // journal-abort latch) at every fault boundary and stop
            // claiming once either trips.
            let slots: Vec<Mutex<Option<(FaultOutcome, FaultTelemetry)>>> =
                pending.iter().map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for lane in 0..workers {
                    let (cursor, slots, pending) = (&cursor, &slots, &pending);
                    let (run_one, should_stop) = (&run_one, &should_stop);
                    scope.spawn(move || loop {
                        if should_stop() {
                            break;
                        }
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = pending.get(k) else { break };
                        let Some(result) = run_one(i, lane) else { break };
                        *slots[k].lock().expect("slot lock") = Some(result);
                    });
                }
            });
            for (k, slot) in slots.into_iter().enumerate() {
                if let Some(result) = slot.into_inner().expect("slot lock") {
                    results[pending[k]] = Some(result);
                }
            }
        }
        if let Some(em) = &emitter {
            em.finish();
        }
    });

    // A persistent journal failure under Abort fails the campaign at
    // the fault boundary it stopped at, exactly like a cancellation: a
    // best-effort `cancelled` terminal record keeps the journal
    // replayable when the underlying fault was bounded (an ENOSPC that
    // cleared), and its own failure is ignored — the journal is already
    // known-broken, and the error the caller needs is the original one.
    if let Some(js) = &journal_state {
        if js.failed.load(Ordering::Acquire) && config.degrade == DegradePolicy::Abort {
            let _ = js
                .writer
                .lock()
                .expect("journal lock")
                .append(&journal::cancelled_record(&js.label, js.journaled_total()));
            if let Some(em) = &emitter {
                em.emit_terminal("aborted");
            }
            return Err(AnalysisError::InvalidParameter(format!(
                "campaign journal: write failed ({} of {} fault outcomes journaled, \
                 aborted at the next fault boundary): {}",
                js.journaled_total(),
                faults.len(),
                js.reason()
            )));
        }
    }

    // A missing outcome past this point can only mean cancellation
    // (every other path produces a typed status). Journal a clean
    // terminal record so the file replays, then report cancellation to
    // the caller.
    let completed = results.iter().filter(|r| r.is_some()).count();
    if completed < faults.len() {
        if let Some(js) = &journal_state {
            let append = js
                .writer
                .lock()
                .expect("journal lock")
                .append(&journal::cancelled_record(&js.label, js.journaled_total()));
            match append {
                Ok(()) => {}
                // A journal that already degraded (Continue policy)
                // gets best-effort terminal records only.
                Err(_) if js.failed.load(Ordering::Acquire) => {}
                Err(err) => {
                    if let Some(em) = &emitter {
                        em.emit_terminal("cancelled");
                    }
                    return Err(AnalysisError::InvalidParameter(format!(
                        "campaign journal: write failed: {err}"
                    )));
                }
            }
        }
        // After the journal's terminal record, like the complete path:
        // a watcher seeing a terminal snapshot can rely on the journal
        // being finished too.
        if let Some(em) = &emitter {
            em.emit_terminal("cancelled");
        }
        return Err(AnalysisError::Cancelled);
    }

    let mut outcomes = Vec::with_capacity(results.len());
    let mut per_fault = Vec::with_capacity(results.len());
    for result in results {
        let (outcome, telemetry) = result.expect("complete campaign has every outcome");
        outcomes.push(outcome);
        per_fault.push(telemetry);
    }
    let panicked = outcomes
        .iter()
        .filter(|o| matches!(o.status, FaultStatus::Panicked { .. }))
        .count();

    let mut report = CampaignReport {
        golden: golden_sig,
        outcomes,
        threshold: config.threshold,
        stats: CampaignStats {
            golden_solver,
            golden_wall,
            per_fault,
            campaign_wall: campaign_start.elapsed(),
            panicked,
            journal_retries: 0,
        },
        degradation: None,
    };

    // Terminal record: `complete` for a healthy journal, `degraded`
    // (best-effort) for one that failed under Continue — a bounded
    // outage lets the degraded record land, making the journal
    // self-describing about its own gap.
    if let Some(js) = &journal_state {
        let mut writer = js.writer.lock().expect("journal lock");
        if !js.failed.load(Ordering::Acquire) {
            if let Err(err) = writer.append(&journal::complete_record(&js.label)) {
                if config.degrade == DegradePolicy::Abort {
                    return Err(AnalysisError::InvalidParameter(format!(
                        "campaign journal: write failed: {err}"
                    )));
                }
                // Continue: every fault outcome is journaled and the
                // campaign is complete — only the terminal record is
                // missing, so degrade with zero unjournaled faults.
                js.degrade(&err, config.degrade);
            }
        }
        if js.failed.load(Ordering::Acquire) {
            let degradation = JournalDegradation {
                journaled: js.journaled_total(),
                unjournaled: js.unjournaled.load(Ordering::Acquire),
                reason: js.reason(),
            };
            let _ = writer.append(&journal::degraded_record(
                &js.label,
                degradation.journaled,
                degradation.unjournaled,
                &degradation.reason,
            ));
            report.degradation = Some(degradation);
        }
        report.stats.journal_retries = writer.retries();
    }

    // The terminal snapshot lands after the journal's own terminal
    // records, so a watcher seeing `state: "complete"` can rely on the
    // journal being finished too.
    if let Some(em) = &emitter {
        em.emit_terminal("complete");
    }

    Ok(report)
}

/// Best-effort string form of a caught panic payload (`&str` and
/// `String` payloads cover `panic!` in practice).
fn panic_payload(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs a fault campaign with a settings-unaware extractor: one nominal
/// attempt per fault, serial execution.
///
/// This is the simple entry point for extractors that build their own
/// analysis configuration; [`run_campaign_with`] adds the escalation
/// ladder, budgets and parallelism.
///
/// # Errors
///
/// Returns the golden circuit's analysis error if the fault-free
/// extraction fails (per-fault failures are recorded in the report, not
/// propagated).
pub fn run_campaign<F>(
    golden: &Netlist,
    faults: &[Fault],
    threshold: f64,
    extract: F,
) -> Result<CampaignReport, AnalysisError>
where
    F: Fn(&Netlist) -> Result<Vec<f64>, AnalysisError> + Sync,
{
    let config = CampaignConfig::new(threshold)
        .ladder(vec![SolverRung::nominal()])
        .budget(SolveBudget::unlimited());
    run_campaign_with(golden, faults, &config, |nl, _settings| extract(nl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Fault;
    use anasim::dc::dc_operating_point;
    use anasim::source::SourceWaveform;
    use anasim::transient::TransientAnalysis;

    /// A divider whose mid-node voltage is the (1-sample) signature.
    fn divider_fixture() -> (Netlist, anasim::netlist::NodeId) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.resistor("R1", a, b, 10e3);
        nl.resistor("R2", b, Netlist::GROUND, 10e3);
        (nl, b)
    }

    #[test]
    fn campaign_detects_hard_faults() {
        let (nl, b) = divider_fixture();
        let faults = vec![Fault::stuck_at_0("sa0", b), Fault::stuck_at_1("sa1", b)];
        let report = run_campaign(&nl, &faults, 0.5, |n| {
            Ok(vec![dc_operating_point(n)?.voltage(b)])
        })
        .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.coverage(50.0), 1.0);
        assert_eq!(report.detection_series(), vec![100.0, 100.0]);
        for o in &report.outcomes {
            assert!(matches!(o.status, FaultStatus::Detected { .. }));
        }
    }

    #[test]
    fn undetectable_fault_scores_zero() {
        let (nl, b) = divider_fixture();
        // A bridge across R2 with huge impedance barely moves the node.
        let a = nl.find_node("a").unwrap();
        let faults = vec![Fault::bridge("weak", a, b).with_impedance(1e9)];
        let report = run_campaign(&nl, &faults, 0.5, |n| {
            Ok(vec![dc_operating_point(n)?.voltage(b)])
        })
        .unwrap();
        assert_eq!(report.coverage(50.0), 0.0);
        assert_eq!(report.detection_series(), vec![0.0]);
        assert!(matches!(
            report.outcomes[0].status,
            FaultStatus::Undetected { .. }
        ));
    }

    #[test]
    fn failed_fault_simulation_counts_as_detected() {
        let (nl, b) = divider_fixture();
        let faults = vec![Fault::stuck_at_0("sa0", b)];
        // Extractor that fails for any netlist containing a fault device.
        let report = run_campaign(&nl, &faults, 0.5, |n| {
            if n.find_device("fault:sa0:V").is_some() {
                Err(AnalysisError::NoConvergence {
                    time: 0.0,
                    residual: 1.0,
                    iterations: 1,
                })
            } else {
                Ok(vec![dc_operating_point(n)?.voltage(b)])
            }
        })
        .unwrap();
        assert!(report.outcomes[0].detection_pct().is_none());
        // Flight recorder disarmed: no postmortem rides the telemetry.
        assert!(report.stats.per_fault[0].postmortem.is_none());
        assert!(report.outcomes[0].is_detected(50.0));
        assert_eq!(report.coverage(50.0), 1.0);
        assert!(matches!(
            report.outcomes[0].status,
            FaultStatus::SimFailed { rungs_tried: 1, .. }
        ));
    }

    #[test]
    fn golden_failure_propagates() {
        let (nl, _) = divider_fixture();
        let err = run_campaign(&nl, &[], 0.5, |_| {
            Err(AnalysisError::InvalidParameter("boom".into()))
        });
        assert!(err.is_err());
    }

    #[test]
    fn empty_universe_has_full_coverage() {
        let (nl, b) = divider_fixture();
        let report = run_campaign(&nl, &[], 0.5, |n| {
            Ok(vec![dc_operating_point(n)?.voltage(b)])
        })
        .unwrap();
        assert_eq!(report.coverage(50.0), 1.0);
        assert!(report.detection_series().is_empty());
    }

    #[test]
    fn empty_ladder_is_rejected() {
        let (nl, b) = divider_fixture();
        let config = CampaignConfig::new(0.5).ladder(Vec::new());
        let err = run_campaign_with(&nl, &[], &config, |n, _| {
            Ok(vec![dc_operating_point(n)?.voltage(b)])
        });
        assert!(matches!(err, Err(AnalysisError::InvalidParameter(_))));
    }

    #[test]
    fn escalation_ladder_rescues_flaky_extraction() {
        use std::sync::atomic::AtomicUsize;
        let (nl, b) = divider_fixture();
        let faults = vec![Fault::stuck_at_0("sa0", b)];
        // Fail at nominal settings; succeed on any damped rung. This is
        // the shape of a fault circuit that only converges under
        // backward Euler.
        let calls = AtomicUsize::new(0);
        let config = CampaignConfig::new(0.5);
        let report = run_campaign_with(&nl, &faults, &config, |n, settings| {
            if n.find_device("fault:sa0:V").is_some() {
                calls.fetch_add(1, Ordering::Relaxed);
                if settings.rung.is_nominal() {
                    return Err(AnalysisError::NoConvergence {
                        time: 0.0,
                        residual: 1.0,
                        iterations: 1,
                    });
                }
            }
            Ok(vec![dc_operating_point(n)?.voltage(b)])
        })
        .unwrap();
        // Nominal failed, rung 1 succeeded.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert!(matches!(
            report.outcomes[0].status,
            FaultStatus::Detected { .. }
        ));
        assert_eq!(report.stats.per_fault[0].rung, Some(1));
        assert_eq!(report.stats.per_fault[0].rungs_tried, 2);
        assert_eq!(report.stats.rung_histogram(), vec![0, 1]);
    }

    #[test]
    fn budget_exhaustion_stops_the_ladder() {
        let (nl, b) = divider_fixture();
        let faults = vec![Fault::stuck_at_0("sa0", b)];
        let config = CampaignConfig::new(0.5);
        let report = run_campaign_with(&nl, &faults, &config, |n, _| {
            if n.find_device("fault:sa0:V").is_some() {
                Err(AnalysisError::BudgetExceeded {
                    time: 1e-6,
                    steps: 100,
                    kind: anasim::BudgetKind::Steps,
                })
            } else {
                Ok(vec![dc_operating_point(n)?.voltage(b)])
            }
        })
        .unwrap();
        // The ladder stops at the first BudgetExceeded: one rung tried.
        assert!(matches!(
            report.outcomes[0].status,
            FaultStatus::BudgetExceeded { rungs_tried: 1 }
        ));
        assert!(report.outcomes[0].is_detected(50.0));
    }

    #[test]
    fn signature_length_mismatch_is_typed() {
        let (nl, b) = divider_fixture();
        let faults = vec![Fault::stuck_at_0("sa0", b)];
        let report = run_campaign(&nl, &faults, 0.5, |n| {
            if n.find_device("fault:sa0:V").is_some() {
                Ok(vec![0.0, 1.0, 2.0])
            } else {
                Ok(vec![dc_operating_point(n)?.voltage(b)])
            }
        })
        .unwrap();
        assert!(matches!(
            report.outcomes[0].status,
            FaultStatus::SignatureMismatch { got: 3, want: 1 }
        ));
        assert!(report.outcomes[0].is_detected(50.0));
        assert_eq!(report.detection_series(), vec![100.0]);
    }

    /// A transient extraction over an RC circuit: the realistic path the
    /// campaign engine takes in the experiments.
    fn rc_fixture() -> (Netlist, Vec<Fault>) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let c = nl.node("c");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::step(5.0, 1e-5));
        nl.resistor("R1", a, b, 10e3);
        nl.capacitor("C1", b, Netlist::GROUND, 1e-9);
        nl.resistor("R2", b, c, 10e3);
        nl.capacitor("C2", c, Netlist::GROUND, 1e-9);
        let faults = vec![
            Fault::stuck_at_0("b-sa0", b),
            Fault::stuck_at_1("b-sa1", b),
            Fault::stuck_at_0("c-sa0", c),
            Fault::stuck_at_1("c-sa1", c),
            Fault::bridge("b-c-br", b, c),
            Fault::bridge("a-c-br", a, c).with_impedance(1e9),
        ];
        (nl, faults)
    }

    fn transient_extract(
        nl: &Netlist,
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        let c = nl.find_node("c").expect("node c");
        let result = TransientAnalysis::new(2e-4, 2e-6)
            .with_settings(settings)
            .run(nl)?;
        let w = result.voltage(c);
        Ok((0..20).map(|k| w.value_at(k as f64 * 1e-5)).collect())
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        let (nl, faults) = rc_fixture();
        let serial = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05).workers(1),
            transient_extract,
        )
        .unwrap();
        let parallel = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05).workers(4),
            transient_extract,
        )
        .unwrap();
        assert_eq!(serial.canonical_text(), parallel.canonical_text());
        // And with more workers than faults.
        let oversubscribed = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05).workers(32),
            transient_extract,
        )
        .unwrap();
        assert_eq!(serial.canonical_text(), oversubscribed.canonical_text());
    }

    #[test]
    fn telemetry_counts_newton_iterations_per_fault() {
        let (nl, faults) = rc_fixture();
        let report = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05),
            transient_extract,
        )
        .unwrap();
        assert_eq!(report.stats.per_fault.len(), faults.len());
        assert!(report.stats.golden_newton_iterations() > 0);
        for t in &report.stats.per_fault {
            assert!(t.newton_iterations() > 0, "telemetry missing iterations");
            assert!(t.solver.steps_accepted > 0, "telemetry missing steps");
            assert!(t.rungs_tried >= 1);
        }
        assert!(report.stats.total_newton_iterations() > 0);
        assert!(report.stats.total_solver().newton_iterations > 0);
        assert!(report.stats.total_wall() > Duration::ZERO);
    }

    #[test]
    fn canonical_text_lists_every_fault() {
        let (nl, faults) = rc_fixture();
        let report = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05),
            transient_extract,
        )
        .unwrap();
        let text = report.canonical_text();
        for fault in &faults {
            assert!(text.contains(fault.name()), "missing {}", fault.name());
        }
        assert!(text.starts_with("campaign: 6 faults"));
        assert!(text.contains("coverage@50%"));
    }

    #[test]
    fn per_fault_telemetry_stays_in_universe_order_across_worker_counts() {
        let (nl, faults) = rc_fixture();
        let reference = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05).workers(1),
            transient_extract,
        )
        .unwrap();
        for workers in [2, 3, 8] {
            let report = run_campaign_with(
                &nl,
                &faults,
                &CampaignConfig::new(0.05).workers(workers),
                transient_extract,
            )
            .unwrap();
            // Outcomes align with the fault universe positionally...
            for (i, fault) in faults.iter().enumerate() {
                assert_eq!(
                    report.outcomes[i].fault.name(),
                    fault.name(),
                    "outcome {i} out of order at {workers} workers"
                );
            }
            // ...and the telemetry rows carry the same per-index solver
            // counts as the serial run (solver work is deterministic, so
            // a shuffled row would show a different count).
            assert_eq!(report.stats.per_fault.len(), faults.len());
            for (i, (t, t_ref)) in report
                .stats
                .per_fault
                .iter()
                .zip(&reference.stats.per_fault)
                .enumerate()
            {
                assert_eq!(
                    t.solver, t_ref.solver,
                    "telemetry row {i} differs at {workers} workers"
                );
                assert_eq!(t.rung, t_ref.rung);
                assert_eq!(t.rungs_tried, t_ref.rungs_tried);
            }
        }
    }

    #[test]
    fn run_report_is_byte_identical_across_worker_counts() {
        let (nl, faults) = rc_fixture();
        let canonical = |workers: usize| {
            let report = run_campaign_with(
                &nl,
                &faults,
                &CampaignConfig::new(0.05).workers(workers),
                transient_extract,
            )
            .unwrap();
            let mut run = obs::RunReport::new();
            run.push(report.to_section("campaign.rc"));
            run.canonical_json_string()
        };
        let serial = canonical(1);
        assert_eq!(serial, canonical(4));
        let parsed = obs::json::parse(&serial).unwrap();
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("coverage").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            summary
                .get("newton_iterations")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn recorder_sees_campaign_spans_and_counters() {
        let (nl, faults) = rc_fixture();
        let recorder = obs::AggregatingRecorder::new();
        let config = CampaignConfig::new(0.05).workers(2);
        let report = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap();
        report.emit_to(&recorder);
        let agg = recorder.snapshot();
        assert_eq!(agg.spans["campaign.golden"].count(), 1);
        assert_eq!(agg.spans["campaign.fault"].count(), faults.len());
        assert_eq!(agg.counters["campaign.faults"], faults.len() as u64);
        assert_eq!(
            agg.counters["solver.newton_iterations"],
            report.stats.total_solver().newton_iterations
        );
        // The rung histogram reaches the recorder as indexed counters.
        let rungs: u64 = (0..report.stats.rung_histogram().len())
            .map(|i| agg.counters[&format!("campaign.rung.{i}")])
            .sum();
        assert_eq!(
            rungs,
            report.stats.per_fault.iter().filter(|t| t.rung.is_some()).count() as u64
        );
    }

    #[test]
    fn campaign_section_carries_solver_and_rung_telemetry() {
        let (nl, faults) = rc_fixture();
        let report = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05),
            transient_extract,
        )
        .unwrap();
        let section = report.to_section("campaign.rc");
        assert_eq!(section.counters["faults"], faults.len() as u64);
        assert_eq!(
            section.counters["solver.newton_iterations"],
            report.stats.total_solver().newton_iterations
        );
        assert_eq!(
            section.histograms["escalation_rungs"].iter().sum::<u64>() as usize,
            report.stats.per_fault.iter().filter(|t| t.rung.is_some()).count()
        );
        assert_eq!(
            section.timings["campaign.fault"].count(),
            faults.len()
        );
        let cov = section.values["coverage"];
        assert!((0.0..=100.0).contains(&cov));
    }

    /// A fixture whose fault is *deterministically* unsolvable: the
    /// golden circuit is a mild divider with a reverse-biased diode
    /// (nonlinear, so no linear fast path, but trivially convergent),
    /// while the stuck-at-1 fault demands the injected 5 V generator
    /// node travel further than Newton can move under the tight
    /// `max_iterations × vstep_limit` product below. A `Uic` start
    /// keeps the DC homotopies (which would rescue the clamp by source
    /// stepping) out of the picture, and `min_dt = dt` forbids the
    /// halving rescue — so every escalation rung fails the same way.
    fn divergent_fixture() -> (Netlist, Vec<Fault>) {
        let mut nl = Netlist::new();
        let a = nl.node("in");
        let b = nl.node("out");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(0.2));
        nl.resistor("R1", a, b, 1e3);
        nl.resistor("R2", b, Netlist::GROUND, 1e3);
        nl.diode(
            "D1",
            Netlist::GROUND,
            b,
            anasim::devices::DiodeParams::default(),
        );
        // Both stuck-at-1 clamps demand an unreachable 5 V generator
        // node; two faults make the parallel byte-stability test use
        // more than one worker for real.
        let faults = vec![
            Fault::stuck_at_1("diverge", b),
            Fault::stuck_at_1("diverge-in", a),
        ];
        (nl, faults)
    }

    fn tight_extract(
        nl: &Netlist,
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        use anasim::mna::NewtonOptions;
        use anasim::transient::StartCondition;
        let out = nl.find_node("out").expect("node out");
        let newton = NewtonOptions {
            max_iterations: 6,
            vstep_limit: 0.25,
            ..NewtonOptions::default()
        };
        let result = TransientAnalysis::new(1e-5, 1e-6)
            .start_condition(StartCondition::Uic)
            .newton_options(newton)
            .min_dt(1e-6)
            .with_settings(settings)
            .run(nl)?;
        let w = result.voltage(out);
        Ok((0..10).map(|k| w.value_at(k as f64 * 1e-6)).collect())
    }

    #[test]
    fn divergent_fault_freezes_a_postmortem() {
        let (nl, faults) = divergent_fixture();
        let config = CampaignConfig::new(0.05).flight(64);
        let report = run_campaign_with(&nl, &faults, &config, tight_extract).unwrap();

        // Every rung failed; the hard-fault convention detects it.
        assert!(matches!(
            report.outcomes[0].status,
            FaultStatus::SimFailed { rungs_tried: 4, .. }
        ));
        assert!(report.outcomes[0].is_detected(50.0));

        let pm = report.stats.per_fault[0]
            .postmortem
            .as_ref()
            .expect("terminal failure with armed flight freezes a postmortem");
        assert_eq!(pm.label, "diverge");
        assert!(!pm.trace.is_empty(), "iteration trace must not be empty");
        assert!(pm.total_iterations > 0);
        assert!(pm.residual.is_finite() && pm.residual > 0.0);
        // The worst node resolves to a real netlist name, not a
        // positional fallback.
        let (worst, count) = &pm.worst_nodes[0];
        assert!(!worst.is_empty() && !worst.starts_with("x["), "worst {worst}");
        assert_eq!(*worst, "fault:diverge:gen");
        assert!(*count > 0);
        for it in &pm.trace {
            assert!(!it.worst_node.starts_with("x["));
            assert_eq!(it.phase, "transient");
        }
        // The full ladder path is on record, each rung non-convergent.
        assert_eq!(pm.ladder.len(), 4);
        for step in &pm.ladder {
            assert_eq!(step.outcome, "no-convergence");
        }
        // And the campaign rollup surfaces the same offender.
        let top = report.top_offending_nodes();
        assert!(top.iter().any(|(n, _)| n == "fault:diverge:gen"), "{top:?}");
        assert!(top.iter().all(|(_, c)| *c > 0));
        let pms: Vec<_> = report.postmortems().collect();
        assert_eq!(pms.len(), 2);
        assert_eq!(pms[0].0, "diverge");
        assert_eq!(pms[1].0, "diverge-in");
    }

    #[test]
    fn postmortem_reports_are_byte_identical_across_worker_counts() {
        let (nl, faults) = divergent_fixture();
        let canonical = |workers: usize| {
            let config = CampaignConfig::new(0.05).flight(64).workers(workers);
            let report = run_campaign_with(&nl, &faults, &config, tight_extract).unwrap();
            let mut run = obs::RunReport::new();
            run.push(report.to_section("campaign.diverge"));
            run.canonical_json_string()
        };
        let serial = canonical(1);
        assert_eq!(serial, canonical(4));
        // The canonical bytes actually contain the postmortem.
        assert!(serial.contains("\"postmortems\""));
        assert!(serial.contains("fault:diverge:gen"));
        // The section counter rollup carries the top offender too.
        assert!(serial.contains("worst_node.fault:diverge:gen"));
    }

    #[test]
    fn canonical_text_names_the_worst_node_when_flight_is_armed() {
        let (nl, faults) = divergent_fixture();
        let config = CampaignConfig::new(0.05).flight(64);
        let report = run_campaign_with(&nl, &faults, &config, tight_extract).unwrap();
        let text = report.canonical_text();
        assert!(text.contains("[worst fault:diverge:gen]"), "{text}");
    }

    /// Wraps [`transient_extract`] with a panic on one named fault — the
    /// shape of a solver bug tripped by a pathological fault circuit.
    fn panicking_extract(
        nl: &Netlist,
        settings: &SolveSettings,
    ) -> Result<Vec<f64>, AnalysisError> {
        if nl.find_device("fault:b-sa1:V").is_some() {
            panic!("solver invariant violated for b-sa1");
        }
        transient_extract(nl, settings)
    }

    #[test]
    fn panic_in_one_fault_is_isolated() {
        let (nl, faults) = rc_fixture();
        // Hide the panic backtraces this test deliberately provokes.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let config = CampaignConfig::new(0.05).workers(4);
        let report = run_campaign_with(&nl, &faults, &config, panicking_extract);
        std::panic::set_hook(prev_hook);
        let report = report.unwrap();

        // The panicking fault got a typed terminal outcome...
        let idx = faults.iter().position(|f| f.name() == "b-sa1").unwrap();
        match &report.outcomes[idx].status {
            FaultStatus::Panicked { payload } => {
                assert!(payload.contains("solver invariant violated"), "{payload}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // ...that counts as detected (hard-fault convention)...
        assert!(report.outcomes[idx].is_detected(50.0));
        assert_eq!(report.outcomes[idx].figure_pct(), 100.0);
        // ...while every other fault completed normally.
        for (i, o) in report.outcomes.iter().enumerate() {
            if i != idx {
                assert!(!matches!(o.status, FaultStatus::Panicked { .. }));
            }
        }
        assert_eq!(report.stats.panicked, 1);
        // The canonical text carries the [panic ...] marker and the
        // section carries the counter.
        let text = report.canonical_text();
        assert!(
            text.contains("b-sa1: panicked"),
            "missing panicked status: {text}"
        );
        assert!(
            text.contains("[panic solver invariant violated for b-sa1]"),
            "missing panic marker: {text}"
        );
        let section = report.to_section("campaign.panic");
        assert_eq!(section.counters["panicked.faults"], 1);
    }

    #[test]
    fn panicked_fault_freezes_a_postmortem_when_flight_is_armed() {
        let (nl, faults) = rc_fixture();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let config = CampaignConfig::new(0.05).flight(64);
        let report = run_campaign_with(&nl, &faults, &config, panicking_extract);
        std::panic::set_hook(prev_hook);
        let report = report.unwrap();
        let idx = faults.iter().position(|f| f.name() == "b-sa1").unwrap();
        let pm = report.stats.per_fault[idx]
            .postmortem
            .as_ref()
            .expect("panicked fault freezes a postmortem");
        assert_eq!(pm.label, "b-sa1");
        assert!(pm.error.starts_with("panic:"), "{}", pm.error);
        // The panic fired before the first Newton iteration, so the
        // trace is empty — but the escalation path records the rung
        // that died, tagged "panic".
        assert_eq!(pm.ladder.len(), 1);
        assert_eq!(pm.ladder[0].outcome, "panic");
    }

    #[test]
    fn section_counter_key_set_is_stable_without_panics() {
        let (nl, faults) = rc_fixture();
        let report = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05),
            transient_extract,
        )
        .unwrap();
        // Zero panics still emits the counter, so canonical diffs
        // between clean and panicky runs stay structural.
        let section = report.to_section("campaign.rc");
        assert_eq!(section.counters["panicked.faults"], 0);
        assert!(section.timings.contains_key("campaign.wall"));
        assert!(report.stats.campaign_wall > Duration::ZERO);
        // Serial campaign: elapsed time covers the summed per-fault
        // times (no overlap to double-count).
        assert!(report.stats.campaign_wall >= report.stats.golden_wall);
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("faultsim-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn cancellation_stops_at_the_fault_boundary_with_a_clean_journal() {
        let (nl, faults) = rc_fixture();
        let path = temp_journal("cancel.jsonl");
        let token = CancelToken::new();
        let config = CampaignConfig::new(0.05)
            .journal(JournalConfig::fresh(&path, "rc"))
            .cancel(token.clone());
        // Cancel while simulating c-sa0 (universe index 2): the two
        // faults before it complete and are journaled, c-sa0 itself is
        // abandoned, everything after is never claimed.
        let err = run_campaign_with(&nl, &faults, &config, |n, settings| {
            if n.find_device("fault:c-sa0:V").is_some() {
                token.cancel();
                return Err(AnalysisError::Cancelled);
            }
            transient_extract(n, settings)
        })
        .unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);

        // The journal is valid, replayable, and records the partial run.
        let replayed = journal::load(&path).unwrap();
        let campaign = replayed.campaign("rc").expect("campaign journaled");
        assert!(campaign.cancelled);
        assert!(!campaign.complete);
        assert_eq!(campaign.faults.len(), 2);
        assert!(campaign.faults.contains_key(&0));
        assert!(campaign.faults.contains_key(&1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_campaign_is_byte_identical_to_uninterrupted() {
        let (nl, faults) = rc_fixture();
        let reference = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05),
            transient_extract,
        )
        .unwrap();

        let path = temp_journal("resume.jsonl");
        let token = CancelToken::new();
        let config = CampaignConfig::new(0.05)
            .journal(JournalConfig::fresh(&path, "rc"))
            .cancel(token.clone());
        let err = run_campaign_with(&nl, &faults, &config, |n, settings| {
            if n.find_device("fault:c-sa0:V").is_some() {
                token.cancel();
                return Err(AnalysisError::Cancelled);
            }
            transient_extract(n, settings)
        })
        .unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);

        // Resume with a counting extractor: only the four faults that
        // never completed are re-simulated.
        let fault_calls = AtomicUsize::new(0);
        let config = CampaignConfig::new(0.05).journal(JournalConfig::resume(&path, "rc"));
        let resumed = run_campaign_with(&nl, &faults, &config, |n, settings| {
            if n.devices().any(|(_, name, _)| name.starts_with("fault:")) {
                fault_calls.fetch_add(1, Ordering::Relaxed);
            }
            transient_extract(n, settings)
        })
        .unwrap();
        assert_eq!(fault_calls.load(Ordering::Relaxed), 4);

        assert_eq!(resumed.canonical_text(), reference.canonical_text());
        let canonical = |report: &CampaignReport| {
            let mut run = obs::RunReport::new();
            run.push(report.to_section("campaign.rc"));
            run.canonical_json_string()
        };
        assert_eq!(canonical(&resumed), canonical(&reference));

        // The journal now ends complete; a second resume replays
        // everything without simulating a single fault.
        let replayed = journal::load(&path).unwrap();
        assert!(replayed.campaign("rc").unwrap().complete);
        let again_calls = AtomicUsize::new(0);
        let again = run_campaign_with(&nl, &faults, &config, |n, settings| {
            if n.devices().any(|(_, name, _)| name.starts_with("fault:")) {
                again_calls.fetch_add(1, Ordering::Relaxed);
            }
            transient_extract(n, settings)
        })
        .unwrap();
        assert_eq!(again_calls.load(Ordering::Relaxed), 0);
        assert_eq!(again.canonical_text(), reference.canonical_text());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let (nl, faults) = rc_fixture();
        let path = temp_journal("foreign.jsonl");
        // Journal a campaign over a different universe under the same
        // label.
        let config = CampaignConfig::new(0.05).journal(JournalConfig::fresh(&path, "rc"));
        run_campaign_with(&nl, &faults[..2], &config, transient_extract).unwrap();
        // Resuming the full universe from it must refuse.
        let config = CampaignConfig::new(0.05).journal(JournalConfig::resume(&path, "rc"));
        let err = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap_err();
        assert!(
            matches!(&err, AnalysisError::InvalidParameter(msg)
                if msg.contains("different fault universe")),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_missing_journal_runs_fresh() {
        let (nl, faults) = rc_fixture();
        let path = temp_journal("fresh-on-missing.jsonl");
        let config = CampaignConfig::new(0.05).journal(JournalConfig::resume(&path, "rc"));
        let report = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap();
        assert_eq!(report.outcomes.len(), faults.len());
        assert!(journal::load(&path).unwrap().campaign("rc").unwrap().complete);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn linear_bridge_faults_reuse_exact_factorisations() {
        // rc_fixture is linear, so a bridge fault's matrix depends only
        // on the stamp parameters: once factorised at a timestep size,
        // every later timestep solves exactly through the cached
        // factors instead of factorising the faulty matrix again.
        let (nl, faults) = rc_fixture();
        let config = CampaignConfig::new(0.05).profile(true);
        let report = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap();
        let idx = faults.iter().position(|f| f.name() == "b-c-br").unwrap();
        let t = &report.stats.per_fault[idx];
        assert!(
            t.solver.factor_reuse_hits > 0,
            "bridge fault never reused a factorisation: {:?}",
            t.solver
        );
        // Reuse must far outnumber factorisations: the whole point is
        // that a faulty timestep costs back-substitutions, not LU.
        assert!(
            t.solver.factor_reuse_hits > t.solver.factor_reuse_misses,
            "hits {} vs misses {}",
            t.solver.factor_reuse_hits,
            t.solver.factor_reuse_misses
        );
        // The bridge outcome is unchanged by the reuse path: same
        // detection verdict the direct-solve tests established.
        assert!(matches!(
            report.outcomes[idx].status,
            FaultStatus::Detected { .. }
        ));
    }

    #[test]
    fn numeric_chaos_sweep_yields_typed_outcomes_and_hazard_counters() {
        // Every chaos site armed at once: a forced pivot breakdown on
        // the first factorisation, a corrupted pivot on the second and
        // a poisoned solution on the third. The campaign must absorb
        // all of it through the refactor retry and the escalation
        // ladder: typed statuses only, no panic, no NaN anywhere in the
        // report.
        let (nl, faults) = rc_fixture();
        let plan = obs::NumericChaosPlan::parse("pivot@0,perturb@1,nan@2").expect("valid spec");
        let report = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05).numeric_chaos(plan).flight(64),
            transient_extract,
        )
        .unwrap();
        let total = report.stats.total_solver();
        let hazards: u64 = total.hazards().iter().map(|(_, n)| n).sum();
        let demotions: u64 = total.demotions().iter().map(|(_, n)| n).sum();
        assert!(hazards > 0, "injected hazards must be counted: {total:?}");
        assert!(demotions > 0, "recovery must demote: {total:?}");
        for o in &report.outcomes {
            assert!(
                !matches!(o.status, FaultStatus::Panicked { .. }),
                "chaos must never panic: {:?}",
                o.status
            );
            if let Some(sig) = &o.signature {
                assert!(
                    sig.iter().all(|v| v.is_finite()),
                    "NaN leaked into a signature"
                );
            }
        }
        let text = report.canonical_text();
        assert!(!text.contains("NaN"), "NaN leaked into the report:\n{text}");
        assert!(
            text.contains("[hazard "),
            "hazard marker missing from canonical text:\n{text}"
        );
        assert!(
            text.contains("demote "),
            "demotion marker missing from canonical text:\n{text}"
        );
    }

    #[test]
    fn numeric_chaos_report_is_worker_count_deterministic() {
        // Injection is keyed to each fault's own solve sequence (a
        // fresh firing state per fault), so scheduling must not shift
        // which solves get hit.
        let (nl, faults) = rc_fixture();
        let run = |workers: usize| {
            let plan = obs::NumericChaosPlan::parse("pivot@0,nan@3").expect("valid spec");
            run_campaign_with(
                &nl,
                &faults,
                &CampaignConfig::new(0.05).numeric_chaos(plan).workers(workers),
                transient_extract,
            )
            .unwrap()
        };
        assert_eq!(run(1).canonical_text(), run(4).canonical_text());
    }

    #[test]
    fn disarmed_numeric_chaos_is_byte_identical_to_none() {
        // A plan whose windows never fire must not perturb a single
        // byte of the canonical report — the probes themselves (gate
        // checks, counters) are exercised but observe nothing.
        let (nl, faults) = rc_fixture();
        let plain = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05),
            transient_extract,
        )
        .unwrap();
        let inert = obs::NumericChaosPlan::parse("pivot@99999999").expect("valid spec");
        let armed = run_campaign_with(
            &nl,
            &faults,
            &CampaignConfig::new(0.05).numeric_chaos(inert),
            transient_extract,
        )
        .unwrap();
        assert_eq!(plain.canonical_text(), armed.canonical_text());
        let total = armed.stats.total_solver();
        assert!(
            total.hazards().iter().all(|(_, n)| *n == 0)
                && total.demotions().iter().all(|(_, n)| *n == 0)
                && total.refinement_rounds == 0,
            "healthy run must keep every resilience counter at zero: {total:?}"
        );
    }
}
