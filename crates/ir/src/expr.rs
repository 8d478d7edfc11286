//! Statement bodies: expression trees and assignments.

use crate::access::ArrayAccess;
use crate::affine::AffineExpr;
use crate::id::{LoopId, ScalarId, StmtId};
use crate::op::OpKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A side-effect-free expression computed by a statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// An immediate constant.
    Const(i64),
    /// The current value of a loop index variable (used e.g. by
    /// address-like computations inside the body).
    Index(LoopId),
    /// A read of a scalar variable.
    Scalar(ScalarId),
    /// A load from an array.
    Load(ArrayAccess),
    /// A unary operation.
    Unary(OpKind, Box<Expr>),
    /// A binary operation.
    Binary(OpKind, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Number of operation nodes (loads and ALU ops; constants and reads
    /// of scalars/indices are leaves materialized for free or by `Const`).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Index(_) | Expr::Scalar(_) => 0,
            Expr::Load(_) => 1,
            Expr::Unary(_, a) => 1 + a.op_count(),
            Expr::Binary(_, a, b) => 1 + a.op_count() + b.op_count(),
        }
    }

    /// All array reads in the expression, in evaluation order.
    pub fn loads(&self) -> Vec<&ArrayAccess> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<&'a ArrayAccess>) {
        match self {
            Expr::Load(a) => out.push(a),
            Expr::Unary(_, a) => a.collect_loads(out),
            Expr::Binary(_, a, b) => {
                a.collect_loads(out);
                b.collect_loads(out);
            }
            _ => {}
        }
    }

    /// All scalar reads in the expression.
    pub fn scalar_reads(&self) -> Vec<ScalarId> {
        let mut out = Vec::new();
        self.collect_scalars(&mut out);
        out
    }

    fn collect_scalars(&self, out: &mut Vec<ScalarId>) {
        match self {
            Expr::Scalar(s) => out.push(*s),
            Expr::Unary(_, a) => a.collect_scalars(out),
            Expr::Binary(_, a, b) => {
                a.collect_scalars(out);
                b.collect_scalars(out);
            }
            _ => {}
        }
    }

    /// Substitutes a loop index inside every affine subscript and in every
    /// `Index` leaf of that loop; a leaf becomes the replacement rebuilt
    /// as an expression tree of `Const`, `Index`, `Mul` and `Add` nodes.
    pub fn substitute(&self, loop_id: LoopId, repl: &AffineExpr) -> Expr {
        match self {
            Expr::Const(_) | Expr::Scalar(_) => self.clone(),
            Expr::Index(l) if *l == loop_id => {
                // An Index leaf refers to the raw loop variable; an affine
                // replacement is re-expressed as a sub-expression tree.
                affine_to_expr(repl)
            }
            Expr::Index(_) => self.clone(),
            Expr::Load(a) => Expr::Load(a.substitute(loop_id, repl)),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(a.substitute(loop_id, repl))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute(loop_id, repl)),
                Box::new(b.substitute(loop_id, repl)),
            ),
        }
    }

    /// Renames loop ids throughout the expression.
    pub fn rename_loops(&self, map: &BTreeMap<LoopId, LoopId>) -> Expr {
        match self {
            Expr::Const(_) | Expr::Scalar(_) => self.clone(),
            Expr::Index(l) => Expr::Index(map.get(l).copied().unwrap_or(*l)),
            Expr::Load(a) => Expr::Load(a.rename_loops(map)),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(a.rename_loops(map))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.rename_loops(map)),
                Box::new(b.rename_loops(map)),
            ),
        }
    }
}

fn affine_to_expr(e: &AffineExpr) -> Expr {
    let mut acc: Option<Expr> = None;
    for (l, c) in e.terms() {
        let term = if c == 1 {
            Expr::Index(l)
        } else {
            Expr::Binary(
                OpKind::Mul,
                Box::new(Expr::Const(c)),
                Box::new(Expr::Index(l)),
            )
        };
        acc = Some(match acc {
            None => term,
            Some(prev) => Expr::Binary(OpKind::Add, Box::new(prev), Box::new(term)),
        });
    }
    let c = e.constant_term();
    match acc {
        None => Expr::Const(c),
        Some(prev) if c == 0 => prev,
        Some(prev) => Expr::Binary(OpKind::Add, Box::new(prev), Box::new(Expr::Const(c))),
    }
}

/// The destination of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LValue {
    /// A store to an array element.
    Array(ArrayAccess),
    /// A write to a scalar variable.
    Scalar(ScalarId),
}

impl LValue {
    /// The array access when this lvalue is an array store.
    pub fn as_array(&self) -> Option<&ArrayAccess> {
        match self {
            LValue::Array(a) => Some(a),
            LValue::Scalar(_) => None,
        }
    }
}

/// An assignment statement `target = value`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stmt {
    /// Identifier assigned by the program builder (stable across clones).
    pub id: StmtId,
    /// Destination of the assignment.
    pub target: LValue,
    /// The computed value.
    pub value: Expr,
}

impl Stmt {
    /// Whether this statement is a scalar or array *reduction*: the target
    /// also appears as an operand of an associative top-level operation
    /// (e.g. `s = s + x` or `C[i][j] = C[i][j] + a*b`).
    ///
    /// Reductions carry a recurrence but may be reordered legally thanks
    /// to associativity; the dependence analysis treats them specially.
    pub fn is_reduction(&self) -> bool {
        fn refers_to(e: &Expr, t: &LValue) -> bool {
            match (e, t) {
                (Expr::Scalar(s), LValue::Scalar(ts)) => s == ts,
                (Expr::Load(a), LValue::Array(ta)) => a == ta,
                _ => false,
            }
        }
        match &self.value {
            Expr::Binary(op, a, b) if op.is_associative() => {
                refers_to(a, &self.target) || refers_to(b, &self.target)
            }
            _ => false,
        }
    }

    /// Substitutes a loop index across target and value.
    pub fn substitute(&self, loop_id: LoopId, repl: &AffineExpr) -> Stmt {
        let target = match &self.target {
            LValue::Array(a) => LValue::Array(a.substitute(loop_id, repl)),
            LValue::Scalar(s) => LValue::Scalar(*s),
        };
        Stmt {
            id: self.id,
            target,
            value: self.value.substitute(loop_id, repl),
        }
    }

    /// Renames loop ids across target and value.
    pub fn rename_loops(&self, map: &BTreeMap<LoopId, LoopId>) -> Stmt {
        let target = match &self.target {
            LValue::Array(a) => LValue::Array(a.rename_loops(map)),
            LValue::Scalar(s) => LValue::Scalar(*s),
        };
        Stmt {
            id: self.id,
            target,
            value: self.value.rename_loops(map),
        }
    }

    /// All array accesses (reads then the write, if any).
    pub fn accesses(&self) -> (Vec<&ArrayAccess>, Option<&ArrayAccess>) {
        (self.value.loads(), self.target.as_array())
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.target {
            LValue::Array(a) => write!(f, "{a} = ...")?,
            LValue::Scalar(s) => write!(f, "{s} = ...")?,
        }
        write!(f, " ({} ops)", self.value.op_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ArrayId;

    fn acc(l: LoopId) -> ArrayAccess {
        ArrayAccess::new(ArrayId(0), vec![AffineExpr::var(l)])
    }

    #[test]
    fn op_count_counts_loads_and_alu() {
        let e = Expr::Binary(
            OpKind::Add,
            Box::new(Expr::Load(acc(LoopId(0)))),
            Box::new(Expr::Const(3)),
        );
        assert_eq!(e.op_count(), 2);
    }

    #[test]
    fn reduction_detection_scalar() {
        let s = Stmt {
            id: StmtId(0),
            target: LValue::Scalar(ScalarId(0)),
            value: Expr::Binary(
                OpKind::Add,
                Box::new(Expr::Scalar(ScalarId(0))),
                Box::new(Expr::Load(acc(LoopId(0)))),
            ),
        };
        assert!(s.is_reduction());
    }

    #[test]
    fn reduction_detection_array() {
        let target = acc(LoopId(0));
        let s = Stmt {
            id: StmtId(0),
            target: LValue::Array(target.clone()),
            value: Expr::Binary(
                OpKind::Add,
                Box::new(Expr::Load(target)),
                Box::new(Expr::Const(1)),
            ),
        };
        assert!(s.is_reduction());
    }

    #[test]
    fn non_reduction() {
        let s = Stmt {
            id: StmtId(0),
            target: LValue::Scalar(ScalarId(0)),
            value: Expr::Binary(
                OpKind::Sub,
                Box::new(Expr::Scalar(ScalarId(0))),
                Box::new(Expr::Const(1)),
            ),
        };
        // Sub is not associative.
        assert!(!s.is_reduction());
    }

    #[test]
    fn substitute_affects_target_and_value() {
        let s = Stmt {
            id: StmtId(0),
            target: LValue::Array(acc(LoopId(0))),
            value: Expr::Load(acc(LoopId(0))),
        };
        let repl = AffineExpr::var(LoopId(0)) + AffineExpr::constant(1);
        let out = s.substitute(LoopId(0), &repl);
        match &out.target {
            LValue::Array(a) => assert_eq!(a.indices[0].constant_term(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn index_leaf_substitution_builds_tree() {
        let e = Expr::Index(LoopId(0));
        let repl = AffineExpr::var(LoopId(1)) * 4 + AffineExpr::constant(2);
        let out = e.substitute(LoopId(0), &repl);
        assert_eq!(out.op_count(), 2); // mul + add
    }
}
