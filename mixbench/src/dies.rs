//! `c1_dies_journaled`: circuit 1's correlation campaign on every die of
//! a seeded population, each campaign checkpointed to a fresh journal.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use faultsim::campaign::{CampaignConfig, JournalConfig};
use macrolib::process::VariationModel;
use msbist::device::DieBatch;
use msbist::transtest::circuits::{circuit1, ExampleCircuit};

use crate::ctx::Ctx;
use crate::fig4;
use crate::measure::ms_since;
use crate::Scale;

/// Dies in the population at full scale.
pub const DIES: usize = 24;

/// The population: circuit 1 built on each sampled die.
pub struct Dies {
    circuits: Vec<ExampleCircuit>,
    journal_dir: PathBuf,
}

/// Samples the die population from `seed` and builds circuit 1 on each
/// die; the program sees only the generated dies. Also returns the ms
/// spent fabricating and building circuits.
pub fn setup(scale: Scale, seed: u64, journal_dir: &Path) -> (Dies, f64, f64) {
    let count = match scale {
        Scale::Full => DIES,
        Scale::Tiny => 1,
    };
    let t = Instant::now();
    let batch = DieBatch::fabricate(count, &VariationModel::typical(), seed);
    let fabricate_ms = ms_since(t);
    let t = Instant::now();
    let circuits = batch
        .iter()
        .map(|die| {
            let mut c = circuit1(&die.process);
            if scale == Scale::Tiny {
                c.faults.truncate(3);
            }
            c
        })
        .collect();
    let circuits_ms = ms_since(t);
    let dies = Dies {
        circuits,
        journal_dir: journal_dir.to_path_buf(),
    };
    (dies, fabricate_ms, circuits_ms)
}

impl Dies {
    fn journal(&self, die: usize) -> PathBuf {
        self.journal_dir.join(format!("die{die}.jsonl"))
    }

    /// Removes the previous pass's journals so every campaign starts a
    /// fresh one.
    pub fn reset(&self) {
        for die in 0..self.circuits.len() {
            let _ = std::fs::remove_file(self.journal(die));
        }
    }

    /// One pass: every die's campaign, then a read-back of each
    /// journal.
    pub fn pass(&self, ctx: &Ctx) {
        for (die, c) in self.circuits.iter().enumerate() {
            let label = format!("c1.die{die}.correlation");
            let bench = &c.bench;
            let golden =
                match ctx.correlation_signature(bench, bench.netlist(), &ctx.settings(), None, 0) {
                    Ok(g) => g,
                    Err(e) => {
                        ctx.fail(format!("die {die} golden correlation: {e}"));
                        continue;
                    }
                };
            let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let config = CampaignConfig::new(0.02 * peak)
                .workers(ctx.workers)
                .profile(ctx.profile.is_some())
                .journal(JournalConfig::fresh(self.journal(die), &label));
            let method = format!("die{die}");
            if let Some(report) =
                fig4::campaign(ctx, c, &method, config, &|nl, settings, parent, group| {
                    ctx.correlation_signature(bench, nl, settings, parent, group)
                })
            {
                ctx.output(format!("die{die}/detected"), report.detected_count() as f64);
            }
        }
    }

    /// Reads every journal of the pass back: it must replay as one
    /// complete campaign holding every fault. Counts the records and
    /// bytes written.
    pub fn check_journals(&self, ctx: &Ctx) {
        for (die, c) in self.circuits.iter().enumerate() {
            let path = self.journal(die);
            let label = format!("c1.die{die}.correlation");
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            ctx.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
            ctx.journal_records
                .fetch_add(text.lines().count() as u64, Ordering::Relaxed);
            match faultsim::journal::load(&path) {
                Ok(replay) => match replay.campaign(&label) {
                    Some(campaign)
                        if campaign.complete && campaign.faults.len() == c.faults.len() => {}
                    Some(campaign) => ctx.fail(format!(
                        "die {die} journal: complete={} with {}/{} faults",
                        campaign.complete,
                        campaign.faults.len(),
                        c.faults.len()
                    )),
                    None => ctx.fail(format!("die {die} journal has no campaign {label}")),
                },
                Err(e) => ctx.fail(format!("die {die} journal unreadable: {e}")),
            }
        }
    }

    /// Re-runs die 0 through the library's own signature path
    /// (`TransientTestBench::run_correlation_campaign_with`) on one
    /// worker without a journal: per-fault detection must be
    /// bit-identical to the benchmark's composition. Returns the
    /// mismatches.
    pub fn cross_check(&self, outputs: &std::collections::BTreeMap<String, f64>) -> Vec<String> {
        let c = &self.circuits[0];
        let golden = match c.bench.correlation_signature(c.bench.netlist()) {
            Ok(g) => g,
            Err(e) => return vec![format!("die 0 library golden: {e}")],
        };
        let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let config = CampaignConfig::new(0.02 * peak).workers(1);
        let report = match c.bench.run_correlation_campaign_with(&c.faults, &config) {
            Ok(r) => r,
            Err(e) => return vec![format!("die 0 library campaign: {e}")],
        };
        let mut bad = Vec::new();
        for o in &report.outcomes {
            let key = format!("die0/c1/{}/pct", o.fault.name());
            let got = outputs.get(&key).copied();
            if got.map(f64::to_bits) != Some(o.figure_pct().to_bits()) {
                bad.push(format!(
                    "{key}: benchmark {got:?}, library path {}",
                    o.figure_pct()
                ));
            }
        }
        bad
    }
}
