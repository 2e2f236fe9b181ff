//! # txview-bench
//!
//! The experiment suite reproducing the (reconstructed) evaluation of
//! *Graefe & Zwilling, "Transaction support for indexed views", SIGMOD
//! 2004*. One function per experiment; the `run_experiments` binary drives
//! them and prints the tables recorded in `EXPERIMENTS.md`. Its
//! `--smoke-scale` mode is the CI gate (escrow vs X-lock at 8 threads,
//! pipelined vs strict-serial commit under a seeded sync). The judged
//! end-to-end benchmark is the separate `benchmark/` package.
//!
//! Every experiment ends by *verifying* each view against a recomputation
//! from base — throughput numbers only count if the protocol stayed
//! correct.

pub mod experiments;

pub use experiments::{
    e1, e11, e12, e13, e2, e3, e4, e5, e6, e7, e8, metrics_demo, pipeline_sync_gate,
    smoke_scale, ExpConfig, PipelineGate,
};
