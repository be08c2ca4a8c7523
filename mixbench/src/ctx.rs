//! Per-pass context: the timers and counters the workloads feed while
//! they call the program, and the pass summary they fold into.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use anasim::metrics::{SolverMetrics, SolverSnapshot};
use anasim::netlist::{DeviceId, Netlist, NodeId};
use anasim::robust::SolveSettings;
use anasim::AnalysisError;
use faultsim::campaign::{CampaignReport, FaultStatus};
use msbist::transtest::TransientTestBench;
use obs::profile::PhaseProfiler;
use sigproc::correlation::{cross_correlation, energy};

use crate::measure::{span, Tracer};

/// A signature extraction as the benchmark's campaign closures make
/// it: netlist, solve settings, parent span, extraction group.
pub type Extract<'a> = dyn Fn(&Netlist, &SolveSettings, Option<usize>, u64) -> Result<Vec<f64>, AnalysisError>
    + Sync
    + 'a;

/// What a pass is armed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timers only: the configuration end-to-end metrics come from.
    Plain,
    /// Spans recorded and the solver's phase profiler armed.
    Traced,
    /// Phase profiler armed, no spans (determinism reference passes).
    Profiled,
}

/// Accumulators for one pass. Shared by reference with campaign worker
/// threads, so everything mutable is atomic or locked.
pub struct Ctx {
    /// Span recorder, armed in [`Mode::Traced`].
    pub tracer: Option<Arc<Tracer>>,
    /// Solver phase profiler, armed in [`Mode::Traced`] and
    /// [`Mode::Profiled`].
    pub profile: Option<Arc<PhaseProfiler>>,
    /// Campaign worker threads.
    pub workers: usize,
    /// Counters of solves made outside any campaign.
    metrics: Arc<SolverMetrics>,
    /// Solver counters of every campaign report.
    campaign_solver: Mutex<SolverSnapshot>,
    /// Transient analyses started (`TransientTestBench::*_with`).
    pub response_calls: AtomicU64,
    /// Hashes of the distinct netlists simulated (traced passes only).
    netlists: Mutex<HashSet<u64>>,
    /// Wall time of every fault extraction, ms.
    pub op_ms: Mutex<Vec<f64>>,
    /// Σ wall of campaign extractions (golden and faulty), ns.
    pub extraction_ns: AtomicU64,
    /// Operations attempted.
    pub ops: AtomicU64,
    /// One line per failed operation.
    pub failures: Mutex<Vec<String>>,
    /// One line per campaign fault whose extraction did not reach a
    /// signature. Whether each is a failure is decided against the
    /// reference, through the `*/sim_failed` outputs.
    pub unsimulated: Mutex<Vec<String>>,
    /// Named outputs the workload checks against references.
    pub outputs: Mutex<BTreeMap<String, f64>>,
    /// Σ golden-extraction wall reported by campaigns, ns.
    pub golden_ns: AtomicU64,
    /// Faults that settled on an escalation rung above nominal.
    pub escalated: AtomicU64,
    /// Faults whose extraction did not produce a signature.
    pub campaign_failed: AtomicU64,
    /// Journal records written.
    pub journal_records: AtomicU64,
    /// Journal bytes written.
    pub journal_bytes: AtomicU64,
}

impl Ctx {
    /// A fresh context for one pass.
    pub fn new(mode: Mode, workers: usize) -> Self {
        let profile = (mode != Mode::Plain).then(|| Arc::new(PhaseProfiler::new()));
        let mut metrics = SolverMetrics::new();
        if let Some(p) = &profile {
            metrics = metrics.with_profile(Arc::clone(p));
        }
        Ctx {
            tracer: (mode == Mode::Traced).then(|| Arc::new(Tracer::default())),
            profile,
            workers,
            metrics: Arc::new(metrics),
            campaign_solver: Mutex::new(SolverSnapshot::default()),
            response_calls: AtomicU64::new(0),
            netlists: Mutex::new(HashSet::new()),
            op_ms: Mutex::new(Vec::new()),
            extraction_ns: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
            unsimulated: Mutex::new(Vec::new()),
            outputs: Mutex::new(BTreeMap::new()),
            golden_ns: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            campaign_failed: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
        }
    }

    /// The tracer, if armed.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// A fresh extraction group id (0 when untraced).
    pub fn group(&self) -> u64 {
        self.tracer().map_or(0, Tracer::group)
    }

    /// Settings for solves made outside campaigns: counters always,
    /// the phase profiler when armed.
    pub fn settings(&self) -> SolveSettings {
        let mut s = SolveSettings::default().metrics(Arc::clone(&self.metrics));
        if let Some(p) = &self.profile {
            s = s.profile(Arc::clone(p));
        }
        s
    }

    /// Records a failed operation.
    pub fn fail(&self, what: String) {
        self.failures.lock().expect("failures lock").push(what);
    }

    /// Records a named output.
    pub fn output(&self, key: String, value: f64) {
        self.outputs
            .lock()
            .expect("outputs lock")
            .insert(key, value);
    }

    /// Records one fault extraction's wall time.
    pub fn op_done(&self, started: Instant) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.op_ms
            .lock()
            .expect("op lock")
            .push(started.elapsed().as_secs_f64() * 1e3);
    }

    fn count_netlist(&self, netlist: &Netlist) {
        self.response_calls.fetch_add(1, Ordering::Relaxed);
        if self.tracer.is_some() {
            let mut h = DefaultHasher::new();
            format!("{netlist:?}").hash(&mut h);
            self.netlists
                .lock()
                .expect("netlist lock")
                .insert(h.finish());
        }
    }

    /// Distinct netlists simulated (traced passes only).
    pub fn distinct_netlists(&self) -> usize {
        self.netlists.lock().expect("netlist lock").len()
    }

    /// `TransientTestBench::response_at_with` in a `transtest.response`
    /// span.
    pub fn response_at(
        &self,
        bench: &TransientTestBench,
        netlist: &Netlist,
        node: NodeId,
        settings: &SolveSettings,
        parent: Option<usize>,
        group: u64,
    ) -> Result<Vec<f64>, AnalysisError> {
        self.count_netlist(netlist);
        span(self.tracer(), "transtest.response", parent, group, |_| {
            bench.response_at_with(netlist, node, settings)
        })
    }

    /// The correlation signature, composed as
    /// `TransientTestBench::correlation_signature_with` composes it:
    /// `TransientTestBench::response_with` then
    /// `sigproc::correlation::cross_correlation` against the stimulus
    /// correlation signal, normalised by the signal's energy — each
    /// call in its own span.
    pub fn correlation_signature(
        &self,
        bench: &TransientTestBench,
        netlist: &Netlist,
        settings: &SolveSettings,
        parent: Option<usize>,
        group: u64,
    ) -> Result<Vec<f64>, AnalysisError> {
        self.count_netlist(netlist);
        let y = span(self.tracer(), "transtest.response", parent, group, |_| {
            bench.response_with(netlist, settings)
        })?;
        let periods = bench.periods();
        let samples_per_bit = bench.sample_count() / (bench.stimulus().bits().len() * periods);
        let p: Vec<f64> = std::iter::repeat_n(
            bench.stimulus().correlation_signal(samples_per_bit),
            periods,
        )
        .flatten()
        .collect();
        let e_p = energy(&p);
        let r = span(self.tracer(), "sigproc.correlation", parent, group, |_| {
            cross_correlation(&y, &p)
        });
        Ok(r.into_iter().map(|v| v / e_p).collect())
    }

    /// `TransientTestBench::current_response_with` in a
    /// `transtest.response` span.
    pub fn current_response(
        &self,
        bench: &TransientTestBench,
        netlist: &Netlist,
        supplies: &[DeviceId],
        settings: &SolveSettings,
        parent: Option<usize>,
        group: u64,
    ) -> Result<Vec<f64>, AnalysisError> {
        self.count_netlist(netlist);
        span(self.tracer(), "transtest.response", parent, group, |_| {
            bench.current_response_with(netlist, supplies, settings)
        })
    }

    /// Runs `faultsim::campaign::run_campaign_with` in a
    /// `faultsim.campaign` span; `label` names the campaign in messages. `extract` is the benchmark's own
    /// closure; each call is one extraction, timed, and faulty ones
    /// count as operations. The report is folded into the pass
    /// roll-ups.
    pub fn campaign<E>(
        &self,
        label: &str,
        golden: &Netlist,
        faults: &[faultsim::model::Fault],
        config: &faultsim::campaign::CampaignConfig,
        extract: E,
    ) -> Result<CampaignReport, AnalysisError>
    where
        E: Fn(&Netlist, &SolveSettings, Option<usize>, u64) -> Result<Vec<f64>, AnalysisError>
            + Sync,
    {
        let report = span(self.tracer(), "faultsim.campaign", None, 0, |parent| {
            faultsim::campaign::run_campaign_with(golden, faults, config, |nl, settings| {
                let started = Instant::now();
                let out = extract(nl, settings, parent, self.group());
                self.extraction_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if !std::ptr::eq(nl, golden) {
                    self.op_done(started);
                }
                out
            })
        })?;
        *self.campaign_solver.lock().expect("solver lock") += report.stats.total_solver();
        self.golden_ns.fetch_add(
            report.stats.golden_wall.as_nanos() as u64,
            Ordering::Relaxed,
        );
        let escalated = report
            .stats
            .per_fault
            .iter()
            .filter(|t| t.rung.is_some_and(|r| r > 0))
            .count();
        self.escalated
            .fetch_add(escalated as u64, Ordering::Relaxed);
        for outcome in &report.outcomes {
            if !matches!(
                outcome.status,
                FaultStatus::Detected { .. } | FaultStatus::Undetected { .. }
            ) {
                self.campaign_failed.fetch_add(1, Ordering::Relaxed);
                self.unsimulated
                    .lock()
                    .expect("unsimulated lock")
                    .push(format!(
                        "{label} {}: extraction ended {:?}",
                        outcome.fault.name(),
                        outcome.status
                    ));
            }
        }
        Ok(report)
    }

    /// Solver counters of every solve in the pass: campaign reports
    /// plus the benchmark's own out-of-campaign solves.
    pub fn solver(&self) -> SolverSnapshot {
        *self.campaign_solver.lock().expect("solver lock") + self.metrics.snapshot()
    }
}
