//! Campaign arming threaded from the `experiments` CLI into the
//! campaign-backed experiments.
//!
//! One [`CampaignHooks`] value carries the invocation's
//! [`CampaignConfig`], armed once by the CLI with everything that
//! changes how a campaign runs or watches it while it runs: the
//! `--journal` / `--resume` checkpoint file (with any `--chaos` plan and
//! `--degrade` policy), the SIGINT [`CancelToken`](anasim::robust::CancelToken),
//! `--telemetry`, `--numeric-chaos` and phase profiling.
//! Every experiment campaign is a clone of it
//! ([`CampaignHooks::campaign`]) with its own threshold and journal
//! label (`e6.c1.correlation`, `e6.c2.idd`, `diverge`, ...), so a single
//! journal file checkpoints a whole `experiments` invocation and a
//! resumed run replays exactly the campaigns that completed.
//!
//! Beside the config sit the sinks that only read finished reports and
//! outlive every campaign: an invocation-wide [`PhaseProfiler`]
//! (`profile` subcommand / `--bench-json`) and a shared
//! [`CampaignTrace`] (`--trace-json`). Experiments call
//! [`CampaignHooks::observe`] after each completed campaign to fold its
//! phase rollup into the profiler and append its timeline to the trace.

use std::sync::{Arc, Mutex};

use anasim::robust::SolveSettings;
use faultsim::campaign::{CampaignConfig, CampaignReport};
use faultsim::trace::CampaignTrace;
use obs::profile::PhaseProfiler;

/// Campaign configuration and cross-campaign sinks for experiment
/// campaigns.
///
/// [`CampaignHooks::new`] is inert: campaigns run exactly as they would
/// without the crash-safety and observability machinery.
#[derive(Debug, Clone)]
pub struct CampaignHooks {
    /// The invocation-wide campaign configuration every experiment
    /// campaign is cloned from. Its threshold and journal label are
    /// placeholders that [`CampaignHooks::campaign`] replaces.
    pub config: CampaignConfig,
    /// Invocation-wide phase profiler: accumulates every campaign's
    /// phase rollup and arms the solves experiments run outside a
    /// campaign.
    pub profile: Option<Arc<PhaseProfiler>>,
    /// Shared Chrome-trace timeline (`--trace-json`): collects every
    /// campaign's worker/fault spans.
    pub trace: Option<Arc<Mutex<CampaignTrace>>>,
}

impl CampaignHooks {
    /// Inert hooks running campaigns on `workers` threads.
    pub fn new(workers: usize) -> Self {
        CampaignHooks {
            config: CampaignConfig::new(0.0).workers(workers),
            profile: None,
            trace: None,
        }
    }

    /// One campaign's config: a clone of [`CampaignHooks::config`] with
    /// the detection `threshold`, journaling under `label` when a
    /// journal is configured.
    pub fn campaign(&self, label: &str, threshold: f64) -> CampaignConfig {
        let mut config = self.config.clone().threshold(threshold);
        if let Some(journal) = &mut config.journal {
            journal.label = label.to_owned();
        }
        config
    }

    /// Solve settings for simulations an experiment runs *outside* any
    /// campaign (golden references, impulse-response fits), armed with
    /// the invocation-wide profiler so that solver time is attributed
    /// too instead of silently widening the unattributed gap.
    pub fn solve_settings(&self) -> SolveSettings {
        let mut settings = SolveSettings::default();
        if let Some(profile) = &self.profile {
            settings = settings.profile(Arc::clone(profile));
        }
        settings
    }

    /// Folds one completed campaign into the cost-attribution side:
    /// its phase rollup into the invocation-wide profiler, and its
    /// timeline (labelled `label`) onto the shared trace.
    pub fn observe(&self, label: &str, report: &CampaignReport) {
        if let Some(profile) = &self.profile {
            profile.add_snapshot(&report.stats.total_solver().phases);
        }
        if let Some(trace) = &self.trace {
            trace
                .lock()
                .expect("campaign trace lock")
                .add_campaign(label, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anasim::robust::CancelToken;
    use faultsim::campaign::{DegradePolicy, JournalConfig};
    use faultsim::telemetry::TelemetryConfig;
    use obs::chaos::{FaultPlan, NumericChaosPlan};
    use std::path::PathBuf;

    #[test]
    fn campaigns_inherit_the_armed_config_under_their_own_label() {
        let inert = CampaignHooks::new(3).campaign("e6.c1.correlation", 0.5);
        assert!(inert.journal.is_none() && inert.cancel.is_none() && !inert.profile);
        assert_eq!(inert.workers, 3);

        let mut hooks = CampaignHooks::new(2);
        hooks.config = hooks
            .config
            .journal(
                JournalConfig::resume("/tmp/j.jsonl", "")
                    .chaos(FaultPlan::parse("write@4..7").unwrap()),
            )
            .degrade(DegradePolicy::Continue)
            .cancel(CancelToken::new())
            .telemetry(TelemetryConfig::new("/tmp/tele"))
            .numeric_chaos(NumericChaosPlan::parse("pivot@0,nan@2").unwrap())
            .profile(true);
        let config = hooks.campaign("e6.c2.idd", 0.25);
        assert_eq!(config.threshold, 0.25);
        assert_eq!(config.workers, 2);
        let jc = config.journal.expect("journal configured");
        assert_eq!(jc.label, "e6.c2.idd");
        assert!(jc.resume);
        assert_eq!(jc.chaos, Some(FaultPlan::parse("write@4..7").unwrap()));
        assert_eq!(config.degrade, DegradePolicy::Continue);
        assert!(config.cancel.is_some());
        assert_eq!(
            config.telemetry.expect("telemetry configured").dir,
            PathBuf::from("/tmp/tele")
        );
        assert_eq!(
            config.numeric_chaos,
            NumericChaosPlan::parse("pivot@0,nan@2").ok()
        );
        assert!(config.profile);
        // The armed config itself keeps its placeholder label.
        assert_eq!(hooks.config.journal.unwrap().label, "");
    }

    #[test]
    fn solve_settings_carry_the_profiler() {
        let settings = CampaignHooks::new(1).solve_settings();
        assert!(settings.profile.is_none());

        let profiler = Arc::new(PhaseProfiler::new());
        let mut hooks = CampaignHooks::new(1);
        hooks.profile = Some(Arc::clone(&profiler));
        let settings = hooks.solve_settings();
        assert!(Arc::ptr_eq(settings.profile.as_ref().unwrap(), &profiler));
    }
}
