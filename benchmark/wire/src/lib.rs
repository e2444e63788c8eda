//! The wire-level reference benchmark for `plasma-serve`.
//!
//! This package depends on **no workspace crate**: it writes its own
//! frames, reads its own reply lines, extracts fields with its own
//! scanner, and generates its inputs on its own PRNG. The server under
//! test sees only bytes on a loopback socket, so refactoring
//! `plasma_core` or `plasma_lsh` can neither break this harness nor
//! silently move the end-to-end numbers it reports. The traced,
//! layer-by-layer replay lives in the sibling `trace` package, which is
//! the only one that links the engine.

pub mod check;
pub mod cli;
pub mod frame;
pub mod gen;
pub mod metrics;
pub mod prng;
pub mod sched;
pub mod server;
pub mod span;
pub mod stats;
pub mod truth;
pub mod workloads;
