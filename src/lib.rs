//! PT-Map: program transformation optimization for CGRA mapping.
//!
//! This is the umbrella crate of the PT-Map reproduction (DAC 2024). It
//! re-exports every subsystem so examples and downstream users can depend
//! on a single crate:
//!
//! * [`ir`] — affine loop-nest IR, dependence analysis, DFG construction;
//! * [`arch`] — CGRA architecture models and the time-extended MRRG;
//! * [`mapper`] — RAMP-like modulo-scheduling loop mapper behind the
//!   pluggable [`mapper::MapperBackend`] trait;
//! * [`exact`] — exact branch-and-bound backend and the raced
//!   heuristic+exact portfolio;
//! * [`sim`] — cycle-level simulator and energy model;
//! * [`model`] — analytical performance/memory models;
//! * [`transform`] — loop index tree and transformation primitives with
//!   the top-down exploration;
//! * [`gnn`] — graph neural network predictive model (with a from-scratch
//!   autograd engine);
//! * [`governor`] — cooperative compilation budgets (deadline /
//!   cancellation / work units) and the fault-injection harness;
//! * [`eval`] — bottom-up evaluation, pruning, and two-mode ranking;
//! * [`core`] — the end-to-end `PtMap` pipeline;
//! * [`pipeline`] — manifest-driven batch compilation with a
//!   content-addressed report cache and stage-level metrics;
//! * [`baselines`] — RAMP / LISA / MapZero / IP / PBP / AL / AM baselines;
//! * [`workloads`] — the paper's benchmark applications and the random
//!   program generator used for GNN training.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: build a kernel,
//! pick an architecture, run PT-Map, and inspect the chosen
//! transformation and its simulated performance.

pub use ptmap_arch as arch;
pub use ptmap_bench::baselines;
pub use ptmap_core as core;
pub use ptmap_eval as eval;
pub use ptmap_exact as exact;
pub use ptmap_gnn as gnn;
pub use ptmap_governor as governor;
pub use ptmap_ir as ir;
pub use ptmap_mapper as mapper;
pub use ptmap_model as model;
pub use ptmap_pipeline as pipeline;
pub use ptmap_sim as sim;
pub use ptmap_transform as transform;
pub use ptmap_workloads as workloads;
