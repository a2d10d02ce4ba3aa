//! `bench_all`: six workloads over the compile, run, distributed and
//! serve paths; end-to-end metrics measured untraced, per-layer metrics
//! from a separate traced pass that calls each layer's public entry
//! points from outside. See README.md.

pub mod compare;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod programs;
pub mod rng;
pub mod stages;
pub mod stats;
pub mod trace;
pub mod workloads;
