//! Property-based tests for the geometry primitives, on the hermetic
//! `il-testkit` harness. Each failing property prints its seed and a
//! greedily-shrunk minimal input; rerun with `IL_TESTKIT_SEED=<seed>`.

use il_geometry::{Domain, DomainPoint, Point, Rect};
use il_testkit::prop::{check, i64s, usizes, vec_of};
use il_testkit::{prop_assert, prop_assert_eq};

/// `(x, y, w, h)` → a small 2-D rect anchored at `(x, y)`.
fn rect2(v: &(i64, i64, i64, i64)) -> Rect<2> {
    let (x, y, w, h) = *v;
    Rect::new2((x, y), (x + w, y + h))
}

fn rect2_gen() -> (
    il_testkit::prop::I64Range,
    il_testkit::prop::I64Range,
    il_testkit::prop::I64Range,
    il_testkit::prop::I64Range,
) {
    (i64s(-20..20), i64s(-20..20), i64s(0..12), i64s(0..12))
}

#[test]
fn linearize_is_bijective_2d() {
    check("linearize_is_bijective_2d", &rect2_gen(), |v| {
        let r = rect2(v);
        let mut seen = vec![false; r.volume() as usize];
        for p in r.iter() {
            let idx = r.linearize(p).unwrap() as usize;
            prop_assert!(!seen[idx]);
            seen[idx] = true;
            prop_assert_eq!(r.delinearize(idx as u64), Some(p));
        }
        prop_assert!(seen.iter().all(|&b| b));
        Ok(())
    });
}

#[test]
fn linearize_is_bijective_3d() {
    let gen = (
        i64s(-8..8),
        i64s(-8..8),
        i64s(-8..8),
        i64s(0..5),
        i64s(0..5),
        i64s(0..5),
    );
    check("linearize_is_bijective_3d", &gen, |&(x, y, z, w, h, d)| {
        let r = Rect::new3((x, y, z), (x + w, y + h, z + d));
        let mut seen = vec![false; r.volume() as usize];
        for p in r.iter() {
            let idx = r.linearize(p).unwrap() as usize;
            prop_assert!(!seen[idx]);
            seen[idx] = true;
            prop_assert_eq!(r.delinearize(idx as u64), Some(p));
        }
        Ok(())
    });
}

#[test]
fn iteration_order_matches_linearization() {
    check("iteration_order_matches_linearization", &rect2_gen(), |v| {
        let r = rect2(v);
        for (i, p) in r.iter().enumerate() {
            prop_assert_eq!(r.linearize(p), Some(i as u64));
        }
        Ok(())
    });
}

#[test]
fn intersection_symmetric_and_contained() {
    check(
        "intersection_symmetric_and_contained",
        &(rect2_gen(), rect2_gen()),
        |(va, vb)| {
            let (a, b) = (rect2(va), rect2(vb));
            let i1 = a.intersection(&b);
            let i2 = b.intersection(&a);
            prop_assert_eq!(i1, i2);
            if !i1.is_empty() {
                prop_assert!(a.contains_rect(&i1));
                prop_assert!(b.contains_rect(&i1));
            }
            // Every point in both rects is in the intersection, and vice versa.
            for p in a.iter() {
                prop_assert_eq!(b.contains(p), i1.contains(p));
            }
            Ok(())
        },
    );
}

#[test]
fn split_partitions_rect() {
    let gen = (rect2_gen(), usizes(0..2), usizes(1..10));
    check("split_partitions_rect", &gen, |(v, dim, parts)| {
        let r = rect2(v);
        let pieces = r.split_along(*dim, *parts);
        prop_assert_eq!(pieces.len(), (*parts).min(r.extent(*dim) as usize));
        let total: u64 = pieces.iter().map(|p| p.volume()).sum();
        prop_assert_eq!(total, r.volume());
        for (i, a) in pieces.iter().enumerate() {
            prop_assert!(!a.is_empty());
            prop_assert!(r.contains_rect(a));
            prop_assert_eq!(a.extent(1 - *dim), r.extent(1 - *dim));
            for b in pieces.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b));
            }
        }
        Ok(())
    });
}

#[test]
fn split_along_preserves_points() {
    check("split_along_preserves_points", &(i64s(1..200), usizes(1..10)), |&(n, parts)| {
        let r = Rect::range(n);
        let pieces = r.split_along(0, parts);
        let collected: Vec<Point<1>> = pieces.iter().flat_map(|p| p.iter()).collect();
        let expected: Vec<Point<1>> = r.iter().collect();
        prop_assert_eq!(collected, expected);
        Ok(())
    });
}

#[test]
fn domain_linearize_in_bbox() {
    let gen = vec_of((i64s(0..10), i64s(0..10), i64s(0..10)), 1..40);
    check("domain_linearize_in_bbox", &gen, |pts| {
        // Deduplicate (the proptest original drew from a BTreeSet).
        let set: std::collections::BTreeSet<(i64, i64, i64)> = pts.iter().copied().collect();
        let points: Vec<DomainPoint> =
            set.iter().map(|&(x, y, z)| DomainPoint::new3(x, y, z)).collect();
        let d = Domain::sparse(points.clone());
        let vol = d.bbox_volume();
        for p in &points {
            let idx = d.linearize(*p).unwrap();
            prop_assert!(idx < vol);
        }
        // Distinct points get distinct indices.
        let mut ids: Vec<u64> = points.iter().map(|p| d.linearize(*p).unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), points.len());
        Ok(())
    });
}

#[test]
fn point_arithmetic_laws() {
    let coord = || i64s(-100..100);
    check(
        "point_arithmetic_laws",
        &(coord(), coord(), coord(), coord()),
        |&(ax, ay, bx, by)| {
            let a = Point::new2(ax, ay);
            let b = Point::new2(bx, by);
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!(a + b - b, a);
            prop_assert_eq!(a.min(b).min(a), a.min(b));
            prop_assert_eq!(a.max(b), b.max(a));
            Ok(())
        },
    );
}

mod transform_props {
    use il_geometry::{DomainPoint, DynTransform};
    use il_testkit::prop::{check, i64s};
    use il_testkit::{prop_assert, prop_assert_eq};
    use std::collections::HashSet;

    /// `DynTransform::is_injective` agrees with brute-force evaluation
    /// over a grid large enough to expose rank deficiency.
    #[test]
    fn dyn_transform_injectivity_matches_bruteforce() {
        let gen = (
            i64s(-2..3),
            i64s(-2..3),
            i64s(-2..3),
            i64s(-2..3),
            i64s(-5..5),
            i64s(-5..5),
        );
        check(
            "dyn_transform_injectivity_matches_bruteforce",
            &gen,
            |&(m00, m01, m10, m11, b0, b1)| {
                let t = DynTransform::from_rows(2, &[&[m00, m01], &[m10, m11]], &[b0, b1]);
                let claimed = t.is_injective();
                let mut seen = HashSet::new();
                let mut actually = true;
                for x in -4..=4i64 {
                    for y in -4..=4i64 {
                        if !seen.insert(t.apply(DomainPoint::new2(x, y))) {
                            actually = false;
                        }
                    }
                }
                // Injectivity over Z^2 implies injectivity over the grid; a
                // rank-deficient integer matrix always collides within the
                // [-4,4]^2 window for coefficients in [-2,2].
                prop_assert_eq!(claimed, actually, "matrix [[{},{}],[{},{}]]", m00, m01, m10, m11);
                Ok(())
            },
        );
    }

    /// Applying a transform is linear: f(p) - f(0) is additive.
    #[test]
    fn dyn_transform_is_affine() {
        let gen = (i64s(-3..4), i64s(-3..4), i64s(-50..50), i64s(-50..50));
        check("dyn_transform_is_affine", &gen, |&(a, b, x, y)| {
            let t = DynTransform::affine1(a, b);
            let f = |v: i64| t.apply(DomainPoint::new1(v)).x();
            prop_assert_eq!(f(x + y) - f(0), (f(x) - f(0)) + (f(y) - f(0)));
            Ok(())
        });
    }

    /// compose/inverse round-trip: a random unimodular 2-D transform
    /// (built from elementary shears, an optional axis swap, an optional
    /// sign flip, and an offset — all determinant ±1) has an inverse, and
    /// `inverse ∘ t` and `t ∘ inverse` are both the identity pointwise.
    #[test]
    fn compose_invert_round_trip() {
        let gen = (
            (i64s(-3..4), i64s(-3..4)),   // upper/lower shears
            (i64s(0..2), i64s(0..2)),     // swap axes? flip sign?
            (i64s(-9..10), i64s(-9..10)), // offset
            (i64s(-40..40), i64s(-40..40)),
        );
        check(
            "compose_invert_round_trip",
            &gen,
            |&((a, b), (swap, flip), (ox, oy), (px, py))| {
                let upper = DynTransform::from_rows(2, &[&[1, a], &[0, 1]], &[0, 0]);
                let lower = DynTransform::from_rows(2, &[&[1, 0], &[b, 1]], &[ox, oy]);
                let perm = if swap == 1 {
                    DynTransform::from_rows(2, &[&[0, 1], &[1, 0]], &[0, 0])
                } else {
                    DynTransform::identity(2)
                };
                let sign = if flip == 1 {
                    DynTransform::from_rows(2, &[&[-1, 0], &[0, 1]], &[0, 0])
                } else {
                    DynTransform::identity(2)
                };
                let t = upper.compose(&lower).compose(&perm).compose(&sign);
                let p = DomainPoint::new2(px, py);
                // compose really is function composition (inner first).
                prop_assert_eq!(
                    t.apply(p),
                    upper.apply(lower.apply(perm.apply(sign.apply(p))))
                );
                let inv = t.inverse().expect("product of unimodular factors is unimodular");
                prop_assert_eq!(inv.apply(t.apply(p)), p);
                prop_assert_eq!(t.apply(inv.apply(p)), p);
                // Round-trip through compose as well: inv ∘ t is the identity map.
                let id = inv.compose(&t);
                prop_assert_eq!(id.apply(p), p);
                Ok(())
            },
        );
    }

    /// 1-D round-trip, including the degenerate `a = ±1` cases.
    #[test]
    fn compose_invert_round_trip_1d() {
        let gen = (i64s(0..2), i64s(-20..20), i64s(-100..100));
        check("compose_invert_round_trip_1d", &gen, |&(neg, b, x)| {
            let a = if neg == 1 { -1 } else { 1 };
            let t = DynTransform::affine1(a, b);
            let inv = t.inverse().expect("|a| = 1 is unimodular");
            let p = DomainPoint::new1(x);
            prop_assert_eq!(inv.apply(t.apply(p)), p);
            prop_assert_eq!(t.apply(inv.apply(p)), p);
            Ok(())
        });
    }

    /// The affine image of a rect, computed as the bbox of the transformed
    /// corners, equals the bbox of the pointwise image — and every
    /// pointwise image lands inside it. This is the interval-analysis
    /// shortcut `il-analysis` relies on for projection-functor bounds.
    #[test]
    fn affine_rect_image_equals_pointwise_image() {
        let gen = (
            (i64s(-3..4), i64s(-3..4), i64s(-3..4), i64s(-3..4)),
            (i64s(-10..10), i64s(-10..10)),
            (i64s(-8..8), i64s(-8..8), i64s(0..6), i64s(0..6)),
        );
        check(
            "affine_rect_image_equals_pointwise_image",
            &gen,
            |&((m00, m01, m10, m11), (b0, b1), (x, y, w, h))| {
                let t = DynTransform::from_rows(2, &[&[m00, m01], &[m10, m11]], &[b0, b1]);
                let r = il_geometry::Rect::new2((x, y), (x + w, y + h));
                // Interval image: transform the 4 corners, take the bbox.
                let corners = [
                    DomainPoint::new2(x, y),
                    DomainPoint::new2(x + w, y),
                    DomainPoint::new2(x, y + h),
                    DomainPoint::new2(x + w, y + h),
                ];
                let mut clo = [i64::MAX; 2];
                let mut chi = [i64::MIN; 2];
                for c in corners {
                    let q = t.apply(c);
                    for d in 0..2 {
                        clo[d] = clo[d].min(q.coord(d));
                        chi[d] = chi[d].max(q.coord(d));
                    }
                }
                // Pointwise image bbox.
                let mut plo = [i64::MAX; 2];
                let mut phi = [i64::MIN; 2];
                for p in r.iter() {
                    let q = t.apply(DomainPoint::new2(p.0[0], p.0[1]));
                    for d in 0..2 {
                        prop_assert!(q.coord(d) >= clo[d] && q.coord(d) <= chi[d]);
                        plo[d] = plo[d].min(q.coord(d));
                        phi[d] = phi[d].max(q.coord(d));
                    }
                }
                prop_assert_eq!(plo, clo);
                prop_assert_eq!(phi, chi);
                Ok(())
            },
        );
    }
}

mod domain_props {
    use il_geometry::{Domain, Rect};
    use il_testkit::prop::{check, i64s};
    use il_testkit::{prop_assert, prop_assert_eq};

    /// For a dense domain, `linearize` is a bijection from the point set
    /// onto `0..volume()`, in iteration order.
    fn assert_bijective(d: &Domain) -> Result<(), String> {
        let vol = d.volume() as usize;
        let mut seen = vec![false; vol];
        let mut n = 0usize;
        for (i, p) in d.iter().enumerate() {
            let idx = d.linearize(p).expect("point in its own domain") as usize;
            prop_assert_eq!(idx, i); // iteration order IS linearization order
            prop_assert!(idx < vol);
            prop_assert!(!seen[idx]);
            seen[idx] = true;
            n += 1;
        }
        prop_assert_eq!(n, vol);
        prop_assert!(seen.iter().all(|&b| b));
        Ok(())
    }

    #[test]
    fn domain_linearize_bijective_on_volume() {
        let gen = (i64s(-6..6), i64s(-6..6), i64s(0..5), i64s(0..5), i64s(0..4));
        check("domain_linearize_bijective_on_volume", &gen, |&(x, y, w, h, d)| {
            assert_bijective(&Domain::Rect1(Rect::new1(x, x + w)))?;
            assert_bijective(&Domain::Rect2(Rect::new2((x, y), (x + w, y + h))))?;
            assert_bijective(&Domain::Rect3(Rect::new3((x, y, 0), (x + w, y + h, d))))?;
            Ok(())
        });
    }
}
