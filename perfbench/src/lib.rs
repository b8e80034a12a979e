//! # perfbench — end-to-end and per-layer benchmark of parsweep
//!
//! The modules below `circuit` form the independent checker: an AIGER
//! reader, writer and evaluator, the near-miss mutant generator, and a JSON
//! reader for result lines. None of them uses a parsweep crate.

pub mod circuit;
pub mod json;
pub mod mutate;
pub mod rng;
pub mod stats;
