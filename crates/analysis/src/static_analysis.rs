//! The static half of the hybrid analysis.
//!
//! "The compiler first subjects \[the projection functor] to a simple
//! static analysis that can recognize trivial projection functors like
//! constant (not injective), identity (injective), or the slightly more
//! general affine case" (§4). This module decides injectivity of the
//! statically analyzable fragment *over a given launch domain*; every case
//! it cannot decide returns [`StaticVerdict::Unknown`] and is handed to
//! the dynamic check.

use crate::proj::ProjExpr;
use il_geometry::Domain;

/// Result of the static injectivity analysis of one functor over one
/// launch domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StaticVerdict {
    /// Provably injective over the domain.
    Injective,
    /// Provably *not* injective over the domain (two points collide).
    NotInjective,
    /// Statically undecidable; requires the dynamic check.
    Unknown,
}

/// Decide injectivity of `functor` over `domain` statically.
///
/// The analysis is sound in both directions: `Injective` and
/// `NotInjective` are proofs, never guesses. Its strength is deliberately
/// modest — the paper notes the exact power "is less important in our case
/// than in more traditional compiler settings because we augment this
/// static analysis with a precise dynamic analysis" (§4).
pub fn analyze_injectivity(functor: &ProjExpr, domain: &Domain) -> StaticVerdict {
    let volume = domain.volume();
    // Domains of at most one point make every functor injective.
    if volume <= 1 {
        return StaticVerdict::Injective;
    }
    match functor {
        ProjExpr::Identity => StaticVerdict::Injective,
        ProjExpr::Constant(_) => StaticVerdict::NotInjective,
        ProjExpr::Affine(t) => {
            if t.in_dim as usize != domain.dim() {
                return StaticVerdict::Unknown; // rank mismatch: leave to dynamic/bounds checks
            }
            if t.is_injective() {
                return StaticVerdict::Injective;
            }
            // Full column rank failed over Z^n, but the functor may still
            // be injective over the domain if the matrix has full rank on
            // the coordinates that actually *vary* within the domain.
            match varying_dims(domain) {
                Some(vary) => {
                    if vary.is_empty() {
                        // Single point; handled above, but be safe.
                        StaticVerdict::Injective
                    } else if restricted_full_rank(t, &vary) {
                        StaticVerdict::Injective
                    } else if vary.iter().any(|&c| column_is_zero(t, c)) {
                        // The functor ignores a coordinate that varies in
                        // the (dense) domain: two points differing only in
                        // that coordinate collide.
                        StaticVerdict::NotInjective
                    } else {
                        StaticVerdict::Unknown
                    }
                }
                None => StaticVerdict::Unknown, // sparse domain: imprecise
            }
        }
        ProjExpr::Modular { a, m, .. } => {
            if domain.dim() != 1 || *m <= 0 {
                return StaticVerdict::Unknown;
            }
            if *a == 0 {
                return StaticVerdict::NotInjective;
            }
            match domain {
                Domain::Rect1(r) => {
                    // (a·i + b) mod m repeats with period m / gcd(a, m):
                    // a·d ≡ 0 (mod m) ⇔ d ≡ 0 (mod m/gcd(a,m)). Injective
                    // over a dense range iff its extent ≤ that period.
                    let g = gcd(a.unsigned_abs(), m.unsigned_abs());
                    let period = m.unsigned_abs() / g;
                    if r.volume() <= period {
                        StaticVerdict::Injective
                    } else {
                        StaticVerdict::NotInjective
                    }
                }
                // Sparse 1-D domains: point spacing is arbitrary.
                _ => StaticVerdict::Unknown,
            }
        }
        ProjExpr::Compose(g, f) => {
            // Sound composition rules:
            //   f not injective over D      => g∘f not injective;
            //   g constant (and |D| > 1)    => g∘f not injective;
            //   f injective over D and g injective on all of Z^n
            //                               => g∘f injective.
            if matches!(**g, ProjExpr::Constant(_)) {
                return StaticVerdict::NotInjective;
            }
            match analyze_injectivity(f, domain) {
                StaticVerdict::NotInjective => StaticVerdict::NotInjective,
                StaticVerdict::Injective if globally_injective(g) => StaticVerdict::Injective,
                _ => StaticVerdict::Unknown,
            }
        }
        // Quadratics, swizzles, and opaque functions go to the dynamic
        // check (the paper's DOM functors land here).
        ProjExpr::Quadratic { .. } | ProjExpr::Swizzle(_) | ProjExpr::Opaque(_) => {
            StaticVerdict::Unknown
        }
    }
}

/// True iff `f` is injective on its entire (integer) input space — usable
/// as the outer member of a composition regardless of the inner image.
fn globally_injective(f: &ProjExpr) -> bool {
    match f {
        ProjExpr::Identity => true,
        ProjExpr::Affine(t) => t.is_injective(),
        ProjExpr::Compose(g, h) => globally_injective(g) && globally_injective(h),
        _ => false,
    }
}

/// The set of dimensions whose extent exceeds 1, for dense domains.
fn varying_dims(domain: &Domain) -> Option<Vec<usize>> {
    let (lo, hi) = match domain {
        Domain::Sparse(_) => return None,
        d => d.bounds(),
    };
    Some(
        (0..domain.dim())
            .filter(|&d| lo.coord(d) != hi.coord(d))
            .collect(),
    )
}

/// True iff column `c` of the matrix is all zeros (the functor ignores
/// input coordinate `c`).
fn column_is_zero(t: &il_geometry::DynTransform, c: usize) -> bool {
    (0..t.out_dim as usize).all(|r| t.matrix[r][c] == 0)
}

/// Full column rank of the transform restricted to columns `cols`.
#[allow(clippy::needless_range_loop)] // matrix elimination indexes by row/col
fn restricted_full_rank(t: &il_geometry::DynTransform, cols: &[usize]) -> bool {
    let m = t.out_dim as usize;
    let n = cols.len();
    if m < n {
        return false;
    }
    let mut a = [[0i128; 3]; 3];
    for r in 0..m {
        for (j, &c) in cols.iter().enumerate() {
            a[r][j] = t.matrix[r][c] as i128;
        }
    }
    let mut rank = 0usize;
    let mut row = 0usize;
    for col in 0..n {
        let Some(pivot) = (row..m).find(|&r| a[r][col] != 0) else {
            continue;
        };
        a.swap(row, pivot);
        let pv = a[row][col];
        for r in (row + 1)..m {
            let factor = a[r][col];
            if factor == 0 {
                continue;
            }
            for c in col..n {
                a[r][c] = a[r][c] * pv - a[row][c] * factor;
            }
        }
        rank += 1;
        row += 1;
        if row == m {
            break;
        }
    }
    rank == n
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_geometry::{DomainPoint, DynTransform, Rect};

    fn d1(n: i64) -> Domain {
        Domain::range(n)
    }

    #[test]
    fn identity_injective() {
        assert_eq!(
            analyze_injectivity(&ProjExpr::Identity, &d1(100)),
            StaticVerdict::Injective
        );
    }

    #[test]
    fn constant_not_injective_unless_singleton() {
        let c = ProjExpr::Constant(DomainPoint::new1(3));
        assert_eq!(analyze_injectivity(&c, &d1(5)), StaticVerdict::NotInjective);
        assert_eq!(analyze_injectivity(&c, &d1(1)), StaticVerdict::Injective);
    }

    #[test]
    fn affine_cases() {
        assert_eq!(
            analyze_injectivity(&ProjExpr::linear(2, 5), &d1(10)),
            StaticVerdict::Injective
        );
        // Degenerate affine (a = 0) is constant.
        assert_eq!(
            analyze_injectivity(&ProjExpr::linear(0, 5), &d1(10)),
            StaticVerdict::NotInjective
        );
    }

    #[test]
    fn affine_rank_refinement_on_domain() {
        // f(x,y) = (x, 0): not injective over Z², but injective over a
        // domain where only x varies.
        let t = DynTransform::from_rows(2, &[&[1, 0], &[0, 0]], &[0, 0]);
        let f = ProjExpr::Affine(t);
        let thin: Domain = Rect::new2((0, 5), (9, 5)).into(); // y fixed at 5
        assert_eq!(analyze_injectivity(&f, &thin), StaticVerdict::Injective);
        let fat: Domain = Rect::new2((0, 0), (9, 9)).into();
        // y varies and is dropped entirely: provably not injective.
        assert_eq!(analyze_injectivity(&f, &fat), StaticVerdict::NotInjective);
    }

    #[test]
    fn affine_unknown_when_partial() {
        // f(x,y) = x + y: not full rank (1 row, 2 varying cols), but not
        // zero on varying dims either -> Unknown (dynamic would reject).
        let t = DynTransform::from_rows(2, &[&[1, 1]], &[0]);
        let f = ProjExpr::Affine(t);
        let fat: Domain = Rect::new2((0, 0), (3, 3)).into();
        assert_eq!(analyze_injectivity(&f, &fat), StaticVerdict::Unknown);
    }

    #[test]
    fn modular_listing2_example() {
        // i % 3 over [0, 5): the paper's running example — not injective.
        let f = ProjExpr::Modular { a: 1, b: 0, m: 3 };
        assert_eq!(analyze_injectivity(&f, &d1(5)), StaticVerdict::NotInjective);
        // Over [0, 3) it is injective.
        assert_eq!(analyze_injectivity(&f, &d1(3)), StaticVerdict::Injective);
    }

    #[test]
    fn modular_with_stride() {
        // (2i) mod 10 has period 5: injective over [0,5), not over [0,6).
        let f = ProjExpr::Modular { a: 2, b: 0, m: 10 };
        assert_eq!(analyze_injectivity(&f, &d1(5)), StaticVerdict::Injective);
        assert_eq!(analyze_injectivity(&f, &d1(6)), StaticVerdict::NotInjective);
    }

    #[test]
    fn compose_rules() {
        // (2i+1) o (3i): both injective -> injective.
        let c = ProjExpr::Compose(
            Box::new(ProjExpr::linear(2, 1)),
            Box::new(ProjExpr::linear(3, 0)),
        );
        assert_eq!(analyze_injectivity(&c, &d1(10)), StaticVerdict::Injective);
        // anything o (i%3 over [0,5)): inner non-injective -> non-injective.
        let c = ProjExpr::Compose(
            Box::new(ProjExpr::linear(1, 0)),
            Box::new(ProjExpr::Modular { a: 1, b: 0, m: 3 }),
        );
        assert_eq!(analyze_injectivity(&c, &d1(5)), StaticVerdict::NotInjective);
        // constant o anything: non-injective.
        let c = ProjExpr::Compose(
            Box::new(ProjExpr::Constant(DomainPoint::new1(2))),
            Box::new(ProjExpr::Identity),
        );
        assert_eq!(analyze_injectivity(&c, &d1(5)), StaticVerdict::NotInjective);
        // quadratic o identity: unknown (outer not globally injective).
        let c = ProjExpr::Compose(
            Box::new(ProjExpr::Quadratic { a: 1, b: 0, c: 0 }),
            Box::new(ProjExpr::Identity),
        );
        assert_eq!(analyze_injectivity(&c, &d1(5)), StaticVerdict::Unknown);
        // modular o (50i): modular is injective over small domains but
        // not globally -> unknown (the inner image can exceed the period
        // even when the launch domain doesn't).
        let c = ProjExpr::Compose(
            Box::new(ProjExpr::Modular { a: 1, b: 0, m: 100 }),
            Box::new(ProjExpr::linear(50, 0)),
        );
        assert_eq!(analyze_injectivity(&c, &d1(5)), StaticVerdict::Unknown);
    }

    #[test]
    fn undecidable_cases_are_unknown() {
        assert_eq!(
            analyze_injectivity(&ProjExpr::Quadratic { a: 1, b: 0, c: 0 }, &d1(4)),
            StaticVerdict::Unknown
        );
        assert_eq!(
            analyze_injectivity(&ProjExpr::opaque(|p| p), &d1(4)),
            StaticVerdict::Unknown
        );
        let sw = ProjExpr::Swizzle(vec![0, 1]);
        let dom: Domain = Rect::new3((0, 0, 0), (2, 2, 2)).into();
        assert_eq!(analyze_injectivity(&sw, &dom), StaticVerdict::Unknown);
    }

    #[test]
    fn verdicts_match_ground_truth_by_enumeration() {
        // For decidable verdicts, brute-force must agree.
        use std::collections::HashSet;
        let cases: Vec<(ProjExpr, Domain)> = vec![
            (ProjExpr::Identity, d1(20)),
            (ProjExpr::linear(3, -4), d1(20)),
            (ProjExpr::linear(0, 2), d1(20)),
            (ProjExpr::Modular { a: 1, b: 2, m: 7 }, d1(7)),
            (ProjExpr::Modular { a: 1, b: 2, m: 7 }, d1(8)),
            (ProjExpr::Modular { a: 3, b: 0, m: 9 }, d1(3)),
            (ProjExpr::Modular { a: 3, b: 0, m: 9 }, d1(4)),
        ];
        for (f, dom) in cases {
            let verdict = analyze_injectivity(&f, &dom);
            let mut seen = HashSet::new();
            let actually = dom.iter().all(|p| seen.insert(f.eval(p)));
            match verdict {
                StaticVerdict::Injective => assert!(actually, "{f:?} over {dom:?}"),
                StaticVerdict::NotInjective => assert!(!actually, "{f:?} over {dom:?}"),
                StaticVerdict::Unknown => {}
            }
        }
    }
}
