//! Affine loop-nest intermediate representation for PT-Map.
//!
//! This crate provides the software-side substrate of the PT-Map framework:
//!
//! * a loop-nest IR ([`Program`], [`Loop`], [`Stmt`]) with rectangular,
//!   constant-tripcount loops and affine array accesses — the fragment of
//!   C covered by `#pragma PTMAP` regions in the paper;
//! * dependence analysis ([`deps`]) computing distance/direction vectors
//!   for uniform affine dependences, the legality oracle used by every
//!   transformation primitive;
//! * dataflow-graph construction ([`dfg`]) turning the body of a pipelined
//!   innermost loop (optionally unrolled) into the operation graph that the
//!   modulo-scheduling mapper and the GNN predictive model consume.
//!
//! # Example
//!
//! Build a vector-add kernel and derive its DFG:
//!
//! ```
//! use ptmap_ir::{ProgramBuilder, OpKind};
//!
//! let mut b = ProgramBuilder::new("vadd");
//! let a = b.array("A", &[1024]);
//! let c = b.array("B", &[1024]);
//! let d = b.array("C", &[1024]);
//! let i = b.open_loop("i", 1024);
//! let sum = b.add(b.load(a, &[b.idx(i)]), b.load(c, &[b.idx(i)]));
//! b.store(d, &[b.idx(i)], sum);
//! b.close_loop();
//! let program = b.finish();
//!
//! let nest = program.perfect_nests();
//! assert_eq!(nest.len(), 1);
//! let dfg = ptmap_ir::dfg::build_dfg(&program, &nest[0], &[]).unwrap();
//! // two loads, one add, one store
//! assert_eq!(dfg.nodes().len(), 4);
//! assert_eq!(dfg.nodes().iter().filter(|n| n.op == OpKind::Add).count(), 1);
//! ```

pub mod access;
pub mod affine;
pub mod deps;
pub mod dfg;
pub mod dot;
pub mod error;
pub mod expr;
pub mod id;
pub mod interp;
pub mod nest;
pub mod op;
pub mod parse;
pub mod program;

pub use access::{ArrayAccess, ArrayDecl};
pub use affine::AffineExpr;
pub use deps::{access_distance, DepKind, Dependence, DependenceSet, Distance};
pub use dfg::{Dfg, DfgEdge, DfgNode, Schedule};
pub use error::IrError;
pub use expr::{Expr, LValue, Stmt};
pub use id::{ArrayId, LoopId, NodeId, ScalarId, StmtId};
pub use nest::PerfectNest;
pub use op::{OpClass, OpKind};
pub use program::{Loop, Node, Program, ProgramBuilder};
