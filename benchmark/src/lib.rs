//! `dynabench` — the dynareg simulator's benchmark.
//!
//! Seven named workloads, end-to-end metrics with regression bounds,
//! per-layer kernels and a traced run; `benchmark/README.md` is the
//! glossary. The package lives outside the repository's workspace and
//! binds only to public items of the `crates/*` libraries, so every
//! per-layer number is taken from outside the program.

pub mod compare;
pub mod harness;
pub mod json;
pub mod kernels;
pub mod ops;
pub mod results;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
