//! `obs` — zero-dependency instrumentation for the `mixsig` workspace.
//!
//! Every layer of the stack (solvers, campaigns, signal processing, the
//! experiment harness) reports what it did through the same three
//! primitives:
//!
//! * **counters** — monotonically increasing event counts (Newton
//!   iterations, accepted steps, homotopy stages);
//! * **values** — sampled scalar observations, aggregated into
//!   [`histogram::Histogram`]s with nearest-rank percentiles;
//! * **spans** — named wall-clock durations reported through
//!   [`recorder::Recorder::span`] (`campaign.*`, `bench.*`).
//!
//! Events flow into a pluggable [`recorder::Recorder`]: the no-op
//! default costs nothing, [`recorder::AggregatingRecorder`] is the
//! thread-safe aggregate for real runs, and [`recorder::JsonlSink`]
//! streams events as JSON lines for external tooling.
//!
//! The machine-readable end of the pipeline is [`report::RunReport`]:
//! named [`report::Section`]s of counters, values, histograms and
//! timing summaries, serialised with the hand-rolled [`json`] writer
//! (the workspace builds offline, so there is no serde). The canonical
//! serialisation zeroes wall-clock milliseconds while keeping every
//! deterministic count, so reports are byte-identical across worker
//! counts and machines.
//!
//! Failure diagnosis flows through the same pipeline:
//! [`ring::RingBuffer`] bounds per-iteration solver traces, and
//! [`postmortem::Postmortem`] is the frozen, fully deterministic record
//! of a terminally failed solve that sections embed verbatim.
//!
//! Crash safety is the [`journal`] module: an append-only,
//! fsync-per-record JSONL writer and a reader that tolerates the one
//! torn trailing line a hard kill can leave behind, so long-running
//! campaigns checkpoint and resume instead of restarting from zero.
//! The writer talks to storage through the [`journal::JournalSink`]
//! trait and retries transient faults per a [`journal::RetryPolicy`];
//! the [`chaos`] module supplies a deterministic fault-injecting sink
//! ([`chaos::FaultySink`]) so the whole failure surface is testable
//! with reproducible, seeded schedules.
//!
//! Cost attribution is the [`profile`] module: a
//! [`profile::PhaseProfiler`] splits solver wall time across a fixed
//! phase taxonomy with self-time nesting semantics, and the [`trace`]
//! module exports timelines in the Chrome Trace Event format for
//! `chrome://tracing` / Perfetto.
//!
//! Live telemetry is the [`timeseries`] and [`status`] pair:
//! fixed-capacity windowed counters and gauges derive rates and EWMAs
//! from ring-buffered samples, and [`status::CampaignStatus`] is the
//! `mixsig.campaign-status/1` snapshot a running campaign atomically
//! rewrites (write-temp-then-rename) for concurrent watchers to poll
//! without ever seeing a torn document.
//!
//! Human-facing output goes through [`table::Table`], so printed tables
//! and the JSON report cannot drift apart.

pub mod chaos;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod postmortem;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod ring;
pub mod status;
pub mod table;
pub mod timeseries;
pub mod trace;

pub use chaos::{FaultPlan, FaultySink, NumericChaosPlan, NumericChaosState, NumericSite};
pub use histogram::Histogram;
pub use journal::{
    read_journal, JournalContents, JournalError, JournalOptions, JournalSink, JournalWriter,
    RetryPolicy,
};
pub use postmortem::{HazardStep, LadderStep, Postmortem, PostmortemIteration};
pub use profile::{Phase, PhaseProfiler, PhaseSnapshot};
pub use recorder::{AggregatingRecorder, NoopRecorder, Recorder};
pub use report::{RunReport, Section};
pub use status::{CampaignStatus, WorkerLane};
pub use timeseries::{Ewma, Gauge, TimeSeries, WindowedCounter};
pub use trace::{render_trace, validate_trace, TraceEvent};
pub use ring::RingBuffer;
pub use table::{Align, Table};
