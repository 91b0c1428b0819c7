//! The projection-functor expression IR.
//!
//! A projection functor maps a task's index within a launch domain to the
//! color of the sub-collection that task will use (§1, §3). Listing 1's
//! `p[i]` is the identity functor; `q[f(i)]` is an opaque functor. Keeping
//! functors as a small expression IR lets the static analyzer recognize
//! the trivial cases (§4) while [`ProjExpr::Opaque`] admits completely
//! arbitrary user functions, which only the dynamic check can validate.

use il_geometry::{DomainPoint, DynTransform};
use std::fmt;
use std::sync::Arc;

/// An opaque user projection function.
pub type OpaqueFn = Arc<dyn Fn(DomainPoint) -> DomainPoint + Send + Sync>;

/// A projection functor expression.
#[derive(Clone)]
pub enum ProjExpr {
    /// `f(i) = i` — the trivial functor of Listing 1.
    Identity,
    /// `f(i) = c` for a fixed color.
    Constant(DomainPoint),
    /// An affine map `f(p) = A·p + b` (covers the "linear" row of Table 2).
    Affine(DynTransform),
    /// 1-D modular arithmetic `f(i) = (a·i + b) mod m` (Listing 2's `i%3`
    /// and Table 2's "modular" row). The result is normalized to
    /// `0..m`.
    Modular {
        /// Coefficient of `i`.
        a: i64,
        /// Offset added before the modulo.
        b: i64,
        /// The modulus (must be positive).
        m: i64,
    },
    /// 1-D quadratic `f(i) = a·i² + b·i + c` (Table 2's "quadratic" row).
    Quadratic {
        /// Quadratic coefficient.
        a: i64,
        /// Linear coefficient.
        b: i64,
        /// Constant term.
        c: i64,
    },
    /// Coordinate selection: `f(p) = (p[take[0]], …, p[take[k-1]])`. The
    /// DOM sweep's 3-D-wavefront → 2-D-exchange-plane functors (§6.2.3)
    /// are `Swizzle([0,1])`, `Swizzle([1,2])`, `Swizzle([0,2])`.
    Swizzle(Vec<usize>),
    /// Composition: `Compose(g, f)` is `g ∘ f` (apply `f` first).
    Compose(Box<ProjExpr>, Box<ProjExpr>),
    /// An arbitrary user function — statically opaque, dynamically checked.
    Opaque(OpaqueFn),
}

/// The sentinel color produced by [`ProjExpr::eval`] for ill-formed
/// evaluations (rank mismatch, non-positive modulus, overflow, malformed
/// swizzle). It lies far outside every realizable color space, so the
/// dynamic bounds check reports such a projection as **out of bounds** —
/// a verdict — instead of the evaluation panicking mid-analysis.
pub const ILL_FORMED_COLOR: i64 = i64::MIN;

impl ProjExpr {
    /// Evaluate the functor at a launch-domain point.
    ///
    /// Total: evaluations that used to panic (a modular or quadratic
    /// functor applied to a multi-dimensional point, a non-positive
    /// modulus, coefficient overflow, a swizzle selecting a coordinate the
    /// point does not have) project to [`ILL_FORMED_COLOR`] instead. The
    /// analysis layers treat that color like any other out-of-domain
    /// projection: the dynamic bounds check counts it and the launch gets
    /// a verdict rather than a crash. The sparse-graph workload's
    /// data-dependent functors are exactly the users that reach these
    /// edges.
    pub fn eval(&self, p: DomainPoint) -> DomainPoint {
        self.try_eval(p)
            .unwrap_or(DomainPoint::new1(ILL_FORMED_COLOR))
    }

    /// [`eval`](ProjExpr::eval) that reports ill-formed evaluations as
    /// `None` instead of the sentinel color.
    pub fn try_eval(&self, p: DomainPoint) -> Option<DomainPoint> {
        match self {
            ProjExpr::Identity => Some(p),
            ProjExpr::Constant(c) => Some(*c),
            ProjExpr::Affine(t) => checked_affine_apply(t, p),
            ProjExpr::Modular { a, b, m } => {
                if *m <= 0 || p.dim() != 1 {
                    return None;
                }
                let raw = a.checked_mul(p.x())?.checked_add(*b)?;
                Some(DomainPoint::new1(raw.rem_euclid(*m)))
            }
            ProjExpr::Quadratic { a, b, c } => {
                if p.dim() != 1 {
                    return None;
                }
                let i = p.x();
                let sq = i.checked_mul(i)?;
                let v = a
                    .checked_mul(sq)?
                    .checked_add(b.checked_mul(i)?)?
                    .checked_add(*c)?;
                Some(DomainPoint::new1(v))
            }
            ProjExpr::Swizzle(take) => {
                if take.is_empty() || take.len() > 3 || take.iter().any(|&d| d >= p.dim()) {
                    return None;
                }
                let coords: Vec<i64> = take.iter().map(|&d| p.coord(d)).collect();
                Some(DomainPoint::from_slice(&coords))
            }
            ProjExpr::Compose(g, f) => g.try_eval(f.try_eval(p)?),
            ProjExpr::Opaque(f) => Some(f(p)),
        }
    }

    /// Wrap a closure as an opaque functor.
    pub fn opaque<F>(f: F) -> Self
    where
        F: Fn(DomainPoint) -> DomainPoint + Send + Sync + 'static,
    {
        ProjExpr::Opaque(Arc::new(f))
    }

    /// 1-D linear functor `a·i + b`.
    pub fn linear(a: i64, b: i64) -> Self {
        ProjExpr::Affine(DynTransform::affine1(a, b))
    }

    /// Structural equality. Opaque functors compare by closure identity
    /// (same `Arc`), which is the only sound notion available.
    pub fn structurally_eq(&self, other: &ProjExpr) -> bool {
        match (self, other) {
            (ProjExpr::Identity, ProjExpr::Identity) => true,
            (ProjExpr::Constant(a), ProjExpr::Constant(b)) => a == b,
            (ProjExpr::Affine(a), ProjExpr::Affine(b)) => a == b,
            (
                ProjExpr::Modular { a, b, m },
                ProjExpr::Modular { a: a2, b: b2, m: m2 },
            ) => a == a2 && b == b2 && m == m2,
            (
                ProjExpr::Quadratic { a, b, c },
                ProjExpr::Quadratic { a: a2, b: b2, c: c2 },
            ) => a == a2 && b == b2 && c == c2,
            (ProjExpr::Swizzle(a), ProjExpr::Swizzle(b)) => a == b,
            (ProjExpr::Compose(g1, f1), ProjExpr::Compose(g2, f2)) => {
                g1.structurally_eq(g2) && f1.structurally_eq(f2)
            }
            (ProjExpr::Opaque(a), ProjExpr::Opaque(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The functor as a 1-D affine map `i ↦ a·i + b`, if it is one
    /// (including affine compositions and degenerate quadratics). Returns
    /// `None` when the functor is not affine *or* when folding the
    /// coefficients would overflow `i64` — callers must then fall back to
    /// pointwise [`eval`](ProjExpr::eval).
    pub fn as_affine_1d(&self) -> Option<(i64, i64)> {
        match self {
            ProjExpr::Identity => Some((1, 0)),
            ProjExpr::Constant(c) if c.dim() == 1 => Some((0, c.x())),
            ProjExpr::Affine(t) if t.in_dim == 1 && t.out_dim == 1 => {
                Some((t.matrix[0][0], t.offset[0]))
            }
            ProjExpr::Quadratic { a: 0, b, c } => Some((*b, *c)),
            ProjExpr::Compose(g, f) => {
                let (ga, gb) = g.as_affine_1d()?;
                let (fa, fb) = f.as_affine_1d()?;
                Some((ga.checked_mul(fa)?, ga.checked_mul(fb)?.checked_add(gb)?))
            }
            _ => None,
        }
    }

    /// [`eval`](ProjExpr::eval) restricted to 1-D functors, with every
    /// intermediate computed by checked arithmetic. `None` means either
    /// "not a 1-D scalar functor" or "this evaluation would overflow" —
    /// both send the caller back to the reference pointwise path, so the
    /// analytic fast paths never disagree with `eval` on reachable inputs.
    fn checked_eval_1d(&self, i: i64) -> Option<i64> {
        match self {
            ProjExpr::Identity => Some(i),
            ProjExpr::Constant(c) if c.dim() == 1 => Some(c.x()),
            ProjExpr::Affine(t) if t.in_dim == 1 && t.out_dim == 1 => {
                t.matrix[0][0].checked_mul(i)?.checked_add(t.offset[0])
            }
            ProjExpr::Modular { a, b, m } if *m > 0 => {
                Some(a.checked_mul(i)?.checked_add(*b)?.rem_euclid(*m))
            }
            ProjExpr::Quadratic { a, b, c } => {
                let sq = i.checked_mul(i)?;
                a.checked_mul(sq)?.checked_add(b.checked_mul(i)?)?.checked_add(*c)
            }
            ProjExpr::Compose(g, f) => g.checked_eval_1d(f.checked_eval_1d(i)?),
            _ => None,
        }
    }

    /// Decompose the functor's color sequence over the dense 1-D index
    /// range `lo..=hi` into arithmetic [`ColorRun`]s, or `None` when no
    /// exact decomposition exists (opaque/quadratic/multi-dim functors,
    /// arithmetic that could overflow, or a modular functor whose
    /// wrap-around would produce more than [`MAX_COLOR_RUNS`] runs).
    ///
    /// The contract is exactness: when this returns `Some(runs)`, the
    /// concatenated runs equal `(lo..=hi).map(|i| eval(i).x())` point for
    /// point. Affine functors yield one run; `(a·i + b) mod m` yields one
    /// run per wrap of the modulus. The word-parallel dynamic check
    /// (`il-analysis::dynamic`) consumes these runs 64 colors at a time.
    pub fn color_runs_1d(&self, lo: i64, hi: i64) -> Option<Vec<ColorRun>> {
        if lo > hi {
            return Some(Vec::new());
        }
        let count = (hi as i128 - lo as i128 + 1) as u64;
        if let Some((a, b)) = self.as_affine_1d() {
            // Verify the folded coefficients against the step-by-step
            // checked evaluation at both endpoints. Affine maps are
            // monotone in `i`, so endpoint success implies every interior
            // evaluation is overflow-free and equal to the analytic value.
            let start = self.checked_eval_1d(lo)?;
            let end = self.checked_eval_1d(hi)?;
            let fold_start = a as i128 * lo as i128 + b as i128;
            let fold_end = a as i128 * hi as i128 + b as i128;
            if fold_start != start as i128 || fold_end != end as i128 {
                return None;
            }
            return Some(vec![ColorRun { start, stride: a, count }]);
        }
        if let ProjExpr::Modular { a, b, m } = self {
            let (a, b, m) = (*a, *b, *m);
            if m <= 0 {
                return None;
            }
            // eval computes the raw a·i + b directly; require it to fit.
            a.checked_mul(lo)?.checked_add(b)?;
            a.checked_mul(hi)?.checked_add(b)?;
            if a == 0 {
                let start = b.rem_euclid(m);
                return Some(vec![ColorRun { start, stride: 0, count }]);
            }
            let wraps = a.unsigned_abs() as u128 * count as u128 / m as u128;
            if wraps + 1 > MAX_COLOR_RUNS as u128 {
                return None;
            }
            let (ai, bi, mi) = (a as i128, b as i128, m as i128);
            let hi = hi as i128;
            let mut i = lo as i128;
            let mut runs = Vec::new();
            while i <= hi {
                let r0 = (ai * i + bi).rem_euclid(mi);
                // Longest k with r0 + k·a still inside [0, m).
                let kmax = if ai > 0 { (mi - 1 - r0) / ai } else { r0 / -ai };
                let kmax = kmax.min(hi - i);
                runs.push(ColorRun {
                    start: r0 as i64,
                    stride: a,
                    count: (kmax + 1) as u64,
                });
                i += kmax + 1;
            }
            return Some(runs);
        }
        None
    }
}

/// Rank-checked, overflow-checked application of a rank-erased affine
/// transform (`DynTransform::apply` asserts on rank mismatch and uses
/// unchecked arithmetic; the analysis must stay total).
fn checked_affine_apply(t: &DynTransform, p: DomainPoint) -> Option<DomainPoint> {
    if p.dim() != t.in_dim as usize {
        return None;
    }
    let mut out = [0i64; 3];
    for (r, out_coord) in out.iter_mut().enumerate().take(t.out_dim as usize) {
        let mut acc = t.offset[r];
        for c in 0..t.in_dim as usize {
            acc = acc.checked_add(t.matrix[r][c].checked_mul(p.coord(c))?)?;
        }
        *out_coord = acc;
    }
    Some(DomainPoint::from_slice(&out[..t.out_dim as usize]))
}

/// Cap on the number of runs [`ProjExpr::color_runs_1d`] will produce; a
/// modular functor wrapping more often than this is checked pointwise
/// instead (each run has fixed word-op overhead, so past this point the
/// decomposition stops paying for itself).
pub const MAX_COLOR_RUNS: usize = 4096;

/// A maximal arithmetic run of functor colors over consecutive 1-D launch
/// indices: colors `start, start + stride, …, start + (count-1)·stride`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColorRun {
    /// Color of the first index in the run.
    pub start: i64,
    /// Color increment between consecutive indices.
    pub stride: i64,
    /// Number of indices covered (≥ 1 except for empty domains).
    pub count: u64,
}

impl fmt::Debug for ProjExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjExpr::Identity => write!(f, "λi.i"),
            ProjExpr::Constant(c) => write!(f, "λi.{c:?}"),
            ProjExpr::Affine(t) => write!(f, "λi.{t:?}(i)"),
            ProjExpr::Modular { a, b, m } => write!(f, "λi.({a}i+{b}) mod {m}"),
            ProjExpr::Quadratic { a, b, c } => write!(f, "λi.{a}i²+{b}i+{c}"),
            ProjExpr::Swizzle(take) => write!(f, "λp.swizzle{take:?}(p)"),
            ProjExpr::Compose(g, other) => write!(f, "({g:?})∘({other:?})"),
            ProjExpr::Opaque(_) => write!(f, "λi.f(i)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_identity_and_constant() {
        let p = DomainPoint::new2(3, 4);
        assert_eq!(ProjExpr::Identity.eval(p), p);
        assert_eq!(
            ProjExpr::Constant(DomainPoint::new1(7)).eval(p),
            DomainPoint::new1(7)
        );
    }

    #[test]
    fn eval_linear_modular_quadratic() {
        let i5 = DomainPoint::new1(5);
        assert_eq!(ProjExpr::linear(3, 2).eval(i5), DomainPoint::new1(17));
        assert_eq!(
            ProjExpr::Modular { a: 1, b: 0, m: 3 }.eval(i5),
            DomainPoint::new1(2)
        );
        // rem_euclid keeps results nonnegative.
        assert_eq!(
            ProjExpr::Modular { a: -1, b: 0, m: 3 }.eval(i5),
            DomainPoint::new1(1)
        );
        assert_eq!(
            ProjExpr::Quadratic { a: 1, b: -1, c: 2 }.eval(i5),
            DomainPoint::new1(22)
        );
    }

    #[test]
    fn eval_swizzle() {
        let p = DomainPoint::new3(7, 8, 9);
        assert_eq!(
            ProjExpr::Swizzle(vec![0, 1]).eval(p),
            DomainPoint::new2(7, 8)
        );
        assert_eq!(
            ProjExpr::Swizzle(vec![2, 0]).eval(p),
            DomainPoint::new2(9, 7)
        );
        assert_eq!(ProjExpr::Swizzle(vec![1]).eval(p), DomainPoint::new1(8));
    }

    #[test]
    fn eval_compose_and_opaque() {
        // (i -> 2i) then (j -> j+1): compose(g=+1, f=*2)(5) = 11.
        let f = ProjExpr::linear(2, 0);
        let g = ProjExpr::linear(1, 1);
        let c = ProjExpr::Compose(Box::new(g), Box::new(f));
        assert_eq!(c.eval(DomainPoint::new1(5)), DomainPoint::new1(11));

        let sq = ProjExpr::opaque(|p| DomainPoint::new1(p.x() * p.x()));
        assert_eq!(sq.eval(DomainPoint::new1(6)), DomainPoint::new1(36));
    }

    #[test]
    fn structural_equality() {
        assert!(ProjExpr::Identity.structurally_eq(&ProjExpr::Identity));
        assert!(ProjExpr::linear(2, 1).structurally_eq(&ProjExpr::linear(2, 1)));
        assert!(!ProjExpr::linear(2, 1).structurally_eq(&ProjExpr::linear(2, 2)));
        let o1 = ProjExpr::opaque(|p| p);
        let o2 = o1.clone();
        let o3 = ProjExpr::opaque(|p| p);
        assert!(o1.structurally_eq(&o2));
        assert!(!o1.structurally_eq(&o3));
    }

    #[test]
    fn debug_rendering() {
        assert_eq!(format!("{:?}", ProjExpr::Identity), "λi.i");
        assert_eq!(
            format!("{:?}", ProjExpr::Modular { a: 1, b: 0, m: 3 }),
            "λi.(1i+0) mod 3"
        );
    }

    #[test]
    fn ill_formed_evaluations_yield_sentinel_not_panic() {
        let oob = DomainPoint::new1(ILL_FORMED_COLOR);
        // Rank mismatch: 1-D functor families on a 2-D point.
        assert_eq!(ProjExpr::Modular { a: 1, b: 0, m: 3 }.eval(DomainPoint::new2(0, 0)), oob);
        assert_eq!(ProjExpr::Quadratic { a: 1, b: 0, c: 0 }.eval(DomainPoint::new2(1, 1)), oob);
        assert_eq!(ProjExpr::linear(2, 1).eval(DomainPoint::new2(1, 1)), oob);
        // Non-positive modulus (the "zero-stride" degenerate family).
        assert_eq!(ProjExpr::Modular { a: 1, b: 0, m: 0 }.eval(DomainPoint::new1(4)), oob);
        assert_eq!(ProjExpr::Modular { a: 1, b: 0, m: -5 }.eval(DomainPoint::new1(4)), oob);
        // Coefficient overflow.
        assert_eq!(ProjExpr::linear(i64::MAX, 1).eval(DomainPoint::new1(2)), oob);
        assert_eq!(
            ProjExpr::Quadratic { a: i64::MAX, b: 0, c: 0 }.eval(DomainPoint::new1(3)),
            oob
        );
        // Swizzles selecting coordinates the point does not have.
        assert_eq!(ProjExpr::Swizzle(vec![2]).eval(DomainPoint::new1(7)), oob);
        assert_eq!(ProjExpr::Swizzle(vec![]).eval(DomainPoint::new2(1, 2)), oob);
        // Ill-formedness propagates through compositions.
        let c = ProjExpr::Compose(
            Box::new(ProjExpr::linear(1, 0)),
            Box::new(ProjExpr::Modular { a: 1, b: 0, m: 0 }),
        );
        assert_eq!(c.eval(DomainPoint::new1(3)), oob);
        // try_eval reports the same edges as None.
        assert_eq!(ProjExpr::Modular { a: 1, b: 0, m: 0 }.try_eval(DomainPoint::new1(4)), None);
        // Well-formed evaluations are untouched.
        assert_eq!(
            ProjExpr::Modular { a: 1, b: 0, m: 3 }.try_eval(DomainPoint::new1(5)),
            Some(DomainPoint::new1(2))
        );
    }

    /// Expand runs back to a flat color sequence.
    fn flatten(runs: &[ColorRun]) -> Vec<i64> {
        let mut out = Vec::new();
        for r in runs {
            for k in 0..r.count {
                out.push(r.start + k as i64 * r.stride);
            }
        }
        out
    }

    fn eval_seq(f: &ProjExpr, lo: i64, hi: i64) -> Vec<i64> {
        (lo..=hi).map(|i| f.eval(DomainPoint::new1(i)).x()).collect()
    }

    #[test]
    fn color_runs_affine_shapes() {
        for (f, lo, hi) in [
            (ProjExpr::Identity, 0, 99),
            (ProjExpr::linear(1, 3), -5, 40),
            (ProjExpr::linear(-3, 7), 0, 17),
            (ProjExpr::Constant(DomainPoint::new1(9)), 0, 10),
            (ProjExpr::Quadratic { a: 0, b: 2, c: -1 }, -8, 8),
            (
                ProjExpr::Compose(
                    Box::new(ProjExpr::linear(2, 1)),
                    Box::new(ProjExpr::linear(3, -4)),
                ),
                0,
                25,
            ),
        ] {
            let runs = f.color_runs_1d(lo, hi).unwrap_or_else(|| panic!("{f:?} has runs"));
            assert_eq!(runs.len(), 1, "{f:?}");
            assert_eq!(flatten(&runs), eval_seq(&f, lo, hi), "{f:?}");
        }
    }

    #[test]
    fn color_runs_modular_piecewise() {
        for (a, b, m, lo, hi) in [
            (1, 0, 3, 0, 10),
            (1, 7, 5, -12, 30),
            (-2, 3, 7, -9, 25),
            (5, -1, 4, 0, 40),
            (0, 11, 4, 2, 9),
        ] {
            let f = ProjExpr::Modular { a, b, m };
            let runs = f.color_runs_1d(lo, hi).unwrap();
            assert_eq!(flatten(&runs), eval_seq(&f, lo, hi), "{f:?}");
            // Every run stays inside the canonical [0, m) range.
            for r in &runs {
                assert!(r.start >= 0 && r.start < m);
                let last = r.start + (r.count as i64 - 1) * r.stride;
                assert!(last >= 0 && last < m, "{f:?} run {r:?}");
            }
        }
    }

    #[test]
    fn color_runs_refused_where_inexact() {
        // Opaque and true quadratics have no run decomposition.
        assert!(ProjExpr::opaque(|p| p).color_runs_1d(0, 9).is_none());
        assert!(ProjExpr::Quadratic { a: 1, b: 0, c: 0 }.color_runs_1d(0, 9).is_none());
        // Overflowing affine folds are refused rather than wrapped.
        assert!(ProjExpr::linear(i64::MAX, 0).color_runs_1d(0, 9).is_none());
        // A modulus that wraps more than MAX_COLOR_RUNS times is refused.
        assert!(ProjExpr::Modular { a: 1, b: 0, m: 2 }
            .color_runs_1d(0, 3 * MAX_COLOR_RUNS as i64)
            .is_none());
        // Empty domains decompose to no runs.
        assert_eq!(ProjExpr::Identity.color_runs_1d(5, 4), Some(Vec::new()));
    }
}
