//! Array declarations and affine array accesses.

use crate::affine::AffineExpr;
use crate::id::{ArrayId, LoopId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Declaration of an array in a [`crate::Program`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Identifier assigned by the program builder.
    pub id: ArrayId,
    /// Source-level name (for diagnostics and code dumps).
    pub name: String,
    /// Extent of each dimension, outermost first.
    pub dims: Vec<u64>,
    /// Element size in bytes (word-level CGRAs typically use 4).
    pub elem_bytes: u64,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn len(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Whether the array has zero elements (degenerate declaration).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.len() * self.elem_bytes
    }
}

/// An affine access `A[e_0][e_1]...` to an array.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayAccess {
    /// The accessed array.
    pub array: ArrayId,
    /// One affine subscript per dimension.
    pub indices: Vec<AffineExpr>,
}

impl ArrayAccess {
    /// Creates an access from subscript expressions.
    pub fn new(array: ArrayId, indices: Vec<AffineExpr>) -> Self {
        ArrayAccess { array, indices }
    }

    /// The set of loops appearing in any subscript.
    pub fn loops(&self) -> impl Iterator<Item = LoopId> + '_ {
        self.indices.iter().flat_map(|e| e.loops())
    }

    /// Substitutes a loop index in every subscript.
    pub fn substitute(&self, loop_id: LoopId, repl: &AffineExpr) -> ArrayAccess {
        ArrayAccess {
            array: self.array,
            indices: self
                .indices
                .iter()
                .map(|e| e.substitute(loop_id, repl))
                .collect(),
        }
    }

    /// Renames loop ids in every subscript.
    pub fn rename_loops(&self, map: &BTreeMap<LoopId, LoopId>) -> ArrayAccess {
        ArrayAccess {
            array: self.array,
            indices: self.indices.iter().map(|e| e.rename_loops(map)).collect(),
        }
    }

    /// Evaluates the linearized element index for a concrete iteration,
    /// given the array's dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.indices.len()`.
    pub fn linearize(&self, dims: &[u64], assignment: &BTreeMap<LoopId, i64>) -> i64 {
        assert_eq!(dims.len(), self.indices.len(), "dimension mismatch");
        let mut idx = 0i64;
        for (e, &d) in self.indices.iter().zip(dims) {
            idx = idx * d as i64 + e.eval(assignment);
        }
        idx
    }

    /// Whether two accesses to the same array have identical coefficients
    /// on every subscript (they may differ in constants). Such access
    /// pairs give *uniform* dependences with exact distance vectors.
    pub fn is_uniform_with(&self, other: &ArrayAccess) -> bool {
        self.array == other.array
            && self.indices.len() == other.indices.len()
            && self
                .indices
                .iter()
                .zip(&other.indices)
                .all(|(a, b)| nonzero_terms(a).eq(nonzero_terms(b)))
    }
}

/// The terms of `e` in loop order, skipping any stored zero coefficient
/// (a deserialized expression may carry one), so two expressions have
/// equal coefficients on every loop exactly when these sequences match.
fn nonzero_terms(e: &AffineExpr) -> impl Iterator<Item = (LoopId, i64)> + '_ {
    e.terms().filter(|&(_, c)| c != 0)
}

impl fmt::Display for ArrayAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for e in &self.indices {
            write!(f, "[{e}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl() -> ArrayDecl {
        ArrayDecl {
            id: ArrayId(0),
            name: "A".into(),
            dims: vec![24, 24],
            elem_bytes: 4,
        }
    }

    #[test]
    fn footprint() {
        let d = decl();
        assert_eq!(d.len(), 576);
        assert_eq!(d.bytes(), 2304);
        assert!(!d.is_empty());
    }

    #[test]
    fn linearize_row_major() {
        let acc = ArrayAccess::new(
            ArrayId(0),
            vec![AffineExpr::var(LoopId(0)), AffineExpr::var(LoopId(1))],
        );
        let mut asg = BTreeMap::new();
        asg.insert(LoopId(0), 2);
        asg.insert(LoopId(1), 3);
        assert_eq!(acc.linearize(&[24, 24], &asg), 2 * 24 + 3);
    }

    #[test]
    fn uniformity() {
        let a = ArrayAccess::new(ArrayId(0), vec![AffineExpr::var(LoopId(0))]);
        let b = ArrayAccess::new(
            ArrayId(0),
            vec![AffineExpr::var(LoopId(0)) + AffineExpr::constant(1)],
        );
        let c = ArrayAccess::new(ArrayId(0), vec![AffineExpr::var(LoopId(0)) * 2]);
        assert!(a.is_uniform_with(&b));
        assert!(!a.is_uniform_with(&c));
    }
}
