//! Evaluation-as-a-service: a zero-dependency HTTP/1.1 + JSON campaign
//! server over a sharded [`EvalEngine`](slambench::engine::EvalEngine)
//! core.
//!
//! The paper's DSE methodology (HyperMapper) and SLAMBench2's
//! head-to-head harness both presume a shared evaluation backend that
//! many clients hammer concurrently. This crate makes the workspace's
//! single-process engine that backend:
//!
//! * [`protocol`] — the serde wire types of the campaign API: submit
//!   explore / sweep / suite / random-sweep / single-eval campaigns for
//!   any registered [`AlgoId`](slam_kfusion::AlgoId), poll or stream
//!   per-run outcomes incrementally, query stats, cancel.
//! * [`shard`] — N engine shards with config-hash routing
//!   ([`run_fingerprint`](slambench::engine::run_fingerprint) modulo
//!   shard count), cross-shard cache lookup before any run, and a
//!   shared on-disk cache directory (content-addressed file names make
//!   concurrent writers safe).
//! * [`datasets`] — the hub's content-addressed dataset store: each
//!   distinct sequence is rendered once (single flight) and shared by
//!   every campaign over it, held only as long as a campaign holds it.
//! * [`campaign`] — campaign state machines: validation at the trust
//!   boundary, unit expansion, per-campaign outcome logs, cancel flags,
//!   and spec persistence through the engine's atomic-JSON helpers so
//!   a killed server resumes in-flight campaigns; their finished
//!   evaluations come back from the shared disk cache.
//! * [`scheduler`] — the [`CampaignHub`]: a
//!   small executor pool that multiplexes runnable campaigns over the
//!   shared worker pool in quantum-sized slices, interactive before
//!   batch, least-recently-served first within a class, splitting the
//!   kernel thread budget across concurrently running campaigns.
//! * [`server`] — the HTTP front end: hand-rolled request parsing over
//!   std [`TcpListener`](std::net::TcpListener), chunked streaming of
//!   outcomes as they land, typed 400s (the
//!   [`AlgoId::from_str`](std::str::FromStr) message surfaces
//!   verbatim).
//! * [`client`] — a minimal blocking HTTP client used by the
//!   integration tests, the benchmark's `serve-mixed` workload and
//!   `--self-check`.
//!
//! # Determinism obligations
//!
//! Campaign outcomes are bit-identical to the same configurations run
//! serially through one engine, at any shard count, client count or
//! thread budget, because every run is thread-count-invariant and
//! shards never share mutable state (the disk cache is content
//! addressed and write-then-rename). The single exception is
//! [`FrameRecord::wall_time`](slambench::run::FrameRecord) on a *fresh*
//! execution — cached replays (including post-restart resume) return
//! even that bit-identically.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod client;
pub mod datasets;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod shard;

pub use client::{Client, Response};
pub use protocol::{
    CampaignKind, CampaignPhase, CampaignRequest, CampaignStatus, ErrorBody, OutcomeRecord,
    OutcomeStatus, OutcomesPage, Priority, ServerStatsReport, Submitted,
};
pub use scheduler::{CampaignHub, ServeOptions};
pub use server::{serve, ServeHandle};
pub use shard::ShardedEngine;
