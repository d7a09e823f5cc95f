//! # bml-bench — experiment binaries and Criterion benches
//!
//! One binary per paper table/figure (see README's "Figure & ablation
//! binaries" and "Paper map" sections) plus ablation studies and the
//! multi-dimensional `grid` runner.
//! This library hosts the shared CLI argument plumbing ([`cli`]) so the
//! twelve binaries parse `--seed`/`--days`/`--threads`/... one way.

#![warn(missing_docs)]

pub mod cli;

pub use cli::{Args, USAGE};

/// Ordered-JSON emission for the `BENCH_*.json` artifacts, re-exported
/// from `bml-grid` (where the grid artifact writer lives) so every bench
/// binary renders machine-readable summaries the same way.
pub use bml_grid::json;
