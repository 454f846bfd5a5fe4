//! End-to-end benchmark of the ESSENT pipeline: FIRRTL text in memory →
//! `essent::compile` → engine constructor → the program run to `tohost`
//! on every lane, checked against golden-interpreter references.
//!
//! The library half holds everything the `e2ebench` binary and the
//! benchmark's own tests share: workload generation from a seed
//! ([`workload`]), golden references ([`golden`]), the combined and the
//! layer-by-layer set-up paths plus the run loops ([`pipeline`]), the
//! span recorder ([`trace`]), the host fingerprint ([`host`]) and the
//! host-speed reference the end-to-end timings are scaled by
//! ([`hostref`]).

pub mod golden;
pub mod host;
pub mod hostref;
pub mod pipeline;
pub mod trace;
pub mod workload;
