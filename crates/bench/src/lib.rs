//! `msbist-bench` — the experiment harness regenerating every table and
//! figure of the paper.
//!
//! Each experiment module reproduces one published artefact:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`experiments::e1`] | analogue test results: step levels → integrator fall times |
//! | [`experiments::e2`] | ramp test and its gain-masking blind spot |
//! | [`experiments::e3`] | digital test results: conversion timing, 10 mV/code |
//! | [`experiments::e4`] | compressed tests over the batch of ten devices |
//! | [`experiments::e5`] | Figure 2: full characterisation (offset/gain/INL/DNL) |
//! | [`experiments::e6`] | Figure 4: transient-response fault detection |
//! | [`experiments::e7`] | future-work ΣΔ architecture study |
//! | [`experiments::ablation`] | design-choice ablations (integration rule, signature kind, overhead) |
//!
//! The `experiments` binary prints each experiment's paper-vs-measured
//! report; the Criterion benches under `benches/` time reduced versions
//! of the same code paths.
//!
//! Campaign-backed experiments (`e6`, `e6c1`, `ablation`, `diverge`)
//! take [`hooks::CampaignHooks`]: one `CampaignConfig` the `experiments`
//! binary arms once (the `--journal`/`--resume` checkpoint file, the
//! SIGINT cancellation token, `--telemetry DIR`, ...) and
//! every campaign clones under its own label, plus the profiler and
//! trace that outlive the campaigns. Journaled runs are kill-safe and
//! resumable; telemetry arms live heartbeat/status sidecars that
//! the [`watch`] module (the `experiments watch` console) tails; the
//! [`bench_diff`] module is the `bench-diff` perf-regression gate over
//! `--bench-json` sidecars.

pub mod bench_diff;
pub mod experiments;
pub mod explain;
pub mod hooks;
pub mod solver_bench;
pub mod watch;
