//! Affine index expressions over loop index variables.

use crate::id::LoopId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine expression `sum(coeff_k * i_k) + constant` over loop indices.
///
/// Affine expressions appear as array subscripts and describe the memory
/// access patterns that the dependence analysis and the memory profiler
/// reason about. The zero coefficients are never stored.
///
/// # Example
///
/// ```
/// use ptmap_ir::{AffineExpr, LoopId};
///
/// let i = AffineExpr::var(LoopId(0));
/// let j = AffineExpr::var(LoopId(1));
/// let e = i.clone() * 24 + j + AffineExpr::constant(1); // 24*i + j + 1
/// assert_eq!(e.coeff(LoopId(0)), 24);
/// assert_eq!(e.coeff(LoopId(1)), 1);
/// assert_eq!(e.constant_term(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize)]
pub struct AffineExpr {
    coeffs: BTreeMap<LoopId, i64>,
    constant: i64,
}

/// Written by hand so a zero coefficient in the input is dropped, as
/// every constructor drops it: equality, hashing, [`AffineExpr::loops`]
/// and [`AffineExpr::is_constant`] rely on none being stored.
impl Deserialize for AffineExpr {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::new("AffineExpr: expected object"))?;
        let field = |name: &str| {
            serde::obj_get(obj, name)
                .ok_or_else(|| serde::DeError::new(&format!("AffineExpr: missing field {name}")))
        };
        let mut coeffs = BTreeMap::<LoopId, i64>::deserialize(field("coeffs")?)?;
        coeffs.retain(|_, c| *c != 0);
        Ok(AffineExpr {
            coeffs,
            constant: i64::deserialize(field("constant")?)?,
        })
    }
}

impl AffineExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single loop index with coefficient 1.
    pub fn var(loop_id: LoopId) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(loop_id, 1);
        AffineExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Coefficient of `loop_id` (zero when absent).
    pub fn coeff(&self, loop_id: LoopId) -> i64 {
        self.coeffs.get(&loop_id).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Iterator over `(loop, coefficient)` pairs with non-zero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (LoopId, i64)> + '_ {
        self.coeffs.iter().map(|(&l, &c)| (l, c))
    }

    /// The set of loops this expression depends on.
    pub fn loops(&self) -> impl Iterator<Item = LoopId> + '_ {
        self.coeffs.keys().copied()
    }

    /// Whether the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Substitutes `loop_id := replacement` and returns the new expression.
    ///
    /// Used by loop transformations: unrolling substitutes `i := i + k`,
    /// tiling substitutes `i := T*it + ii`, flattening `i := k / N` etc.
    /// (flattening keeps only affine-representable substitutions).
    pub fn substitute(&self, loop_id: LoopId, replacement: &AffineExpr) -> AffineExpr {
        let c = self.coeff(loop_id);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.coeffs.remove(&loop_id);
        out + replacement.clone() * c
    }

    /// Substitutes `loop_id := factor*loop_id + offset` in place: the
    /// coefficient `c` becomes `c*factor` and the constant gains
    /// `c*offset`. Equal to [`substitute`](Self::substitute) with that
    /// replacement, zero coefficients dropped alike.
    pub(crate) fn unroll_in_place(&mut self, loop_id: LoopId, factor: i64, offset: i64) {
        let c = self.coeff(loop_id);
        if c == 0 {
            return;
        }
        self.coeffs.insert(loop_id, c * factor);
        self.constant += c * offset;
        self.coeffs.retain(|_, c| *c != 0);
    }

    /// Evaluates the expression for a concrete assignment of loop indices.
    ///
    /// Loops absent from `assignment` evaluate as zero.
    pub fn eval(&self, assignment: &BTreeMap<LoopId, i64>) -> i64 {
        self.constant
            + self
                .coeffs
                .iter()
                .map(|(l, c)| c * assignment.get(l).copied().unwrap_or(0))
                .sum::<i64>()
    }

    /// Renames loop ids according to `map`, leaving unmapped ids unchanged.
    pub fn rename_loops(&self, map: &BTreeMap<LoopId, LoopId>) -> AffineExpr {
        let mut coeffs = BTreeMap::new();
        for (&l, &c) in &self.coeffs {
            let target = map.get(&l).copied().unwrap_or(l);
            *coeffs.entry(target).or_insert(0) += c;
        }
        coeffs.retain(|_, c| *c != 0);
        AffineExpr {
            coeffs,
            constant: self.constant,
        }
    }

    fn normalized(mut self) -> Self {
        self.coeffs.retain(|_, c| *c != 0);
        self
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        for (l, c) in rhs.coeffs {
            *self.coeffs.entry(l).or_insert(0) += c;
        }
        self.constant += rhs.constant;
        self.normalized()
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(mut self) -> AffineExpr {
        for c in self.coeffs.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(mut self, rhs: i64) -> AffineExpr {
        for c in self.coeffs.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self.normalized()
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl From<LoopId> for AffineExpr {
    fn from(l: LoopId) -> Self {
        AffineExpr::var(l)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (l, c) in self.terms() {
            if first {
                if c == 1 {
                    write!(f, "{l}")?;
                } else if c == -1 {
                    write!(f, "-{l}")?;
                } else {
                    write!(f, "{c}*{l}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {l}")?;
                } else {
                    write!(f, " + {c}*{l}")?;
                }
            } else if c == -1 {
                write!(f, " - {l}")?;
            } else {
                write!(f, " - {}*{l}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i() -> AffineExpr {
        AffineExpr::var(LoopId(0))
    }
    fn j() -> AffineExpr {
        AffineExpr::var(LoopId(1))
    }

    #[test]
    fn arithmetic_and_normalization() {
        let e = i() * 3 + j() - i() * 3; // 3i + j - 3i == j
        assert_eq!(e, j());
        assert!(e.coeff(LoopId(0)) == 0);
    }

    #[test]
    fn substitute_tiling() {
        // i := 8*it + ii applied to  24*i + j
        let e = i() * 24 + j();
        let it = AffineExpr::var(LoopId(2));
        let ii = AffineExpr::var(LoopId(3));
        let sub = it * 8 + ii;
        let out = e.substitute(LoopId(0), &sub);
        assert_eq!(out.coeff(LoopId(2)), 192);
        assert_eq!(out.coeff(LoopId(3)), 24);
        assert_eq!(out.coeff(LoopId(1)), 1);
    }

    #[test]
    fn substitute_unroll_offset() {
        // i := i + 2 applied to i + 5
        let e = i() + AffineExpr::constant(5);
        let out = e.substitute(LoopId(0), &(i() + AffineExpr::constant(2)));
        assert_eq!(out.coeff(LoopId(0)), 1);
        assert_eq!(out.constant_term(), 7);
    }

    #[test]
    fn unroll_in_place_matches_substitute() {
        let stored_zero = AffineExpr {
            coeffs: [(LoopId(0), 0), (LoopId(1), 3)].into_iter().collect(),
            constant: 5,
        };
        for e in [i() * 2 + j() - AffineExpr::constant(1), stored_zero] {
            for (l, f, off) in [(LoopId(0), 4, 3), (LoopId(1), 2, 0), (LoopId(2), 8, 1)] {
                let mut out = e.clone();
                out.unroll_in_place(l, f, off);
                let repl = AffineExpr::var(l) * f + AffineExpr::constant(off);
                assert_eq!(
                    out,
                    e.substitute(l, &repl),
                    "{e} with {l} := {f}*{l} + {off}"
                );
            }
        }
    }

    #[test]
    fn deserializing_drops_zero_coefficients() {
        let stored_zero = AffineExpr {
            coeffs: [(LoopId(0), 2), (LoopId(1), 0)].into_iter().collect(),
            constant: 7,
        };
        let json = serde_json::to_string(&stored_zero).unwrap();
        let back: AffineExpr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, i() * 2 + AffineExpr::constant(7));
        assert_eq!(back.loops().collect::<Vec<_>>(), [LoopId(0)]);
        assert!(!back.is_constant());
        let zero: AffineExpr = serde_json::from_str(r#"{"coeffs":{"0":0},"constant":3}"#).unwrap();
        assert!(zero.is_constant());
        assert_eq!(zero, AffineExpr::constant(3));
    }

    #[test]
    fn stored_zero_coefficients_are_uniform() {
        // Only this module can store a zero coefficient (every
        // constructor and deserialization drop them); one still counts
        // as absent, so these subscripts are uniform.
        use crate::access::ArrayAccess;
        use crate::id::ArrayId;
        let stored_zero = AffineExpr {
            coeffs: [(LoopId(0), 2), (LoopId(1), 0)].into_iter().collect(),
            constant: 7,
        };
        let a = ArrayAccess::new(ArrayId(0), vec![stored_zero.clone()]);
        let b = ArrayAccess::new(ArrayId(0), vec![i() * 2]);
        assert_ne!(stored_zero, i() * 2 + AffineExpr::constant(7));
        assert!(a.is_uniform_with(&b));
        assert!(b.is_uniform_with(&a));
        let c = ArrayAccess::new(ArrayId(0), vec![i() * 2 + j()]);
        assert!(!a.is_uniform_with(&c));
        assert!(!c.is_uniform_with(&a));
    }

    #[test]
    fn eval_assignment() {
        let e = i() * 10 + j() + AffineExpr::constant(3);
        let mut asg = BTreeMap::new();
        asg.insert(LoopId(0), 2);
        asg.insert(LoopId(1), 7);
        assert_eq!(e.eval(&asg), 30);
    }

    #[test]
    fn display_readable() {
        let e = i() * 24 + j() - AffineExpr::constant(1);
        assert_eq!(e.to_string(), "24*L0 + L1 - 1");
        assert_eq!(AffineExpr::constant(0).to_string(), "0");
    }

    #[test]
    fn rename_merges_coefficients() {
        let e = i() + j();
        let mut map = BTreeMap::new();
        map.insert(LoopId(1), LoopId(0));
        let out = e.rename_loops(&map);
        assert_eq!(out.coeff(LoopId(0)), 2);
        assert_eq!(out.coeff(LoopId(1)), 0);
    }
}
