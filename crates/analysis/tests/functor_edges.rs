//! Property tests: the analysis stack is **total** on degenerate and
//! ill-formed projection functors. Empty rectangles, zero-stride and
//! zero-modulus maps, out-of-domain projections, rank mismatches, and
//! overflowing coefficients — the shapes the sparse-graph workload's
//! data-dependent functors reach — must all produce *verdicts*, never
//! panics, and `self_check` / `cross_check` must still agree with the
//! pointwise reference byte for byte. Runs on the hermetic `il-testkit`
//! harness; failures print a rerunnable `IL_TESTKIT_SEED`.

use il_analysis::{
    analyze_launch, cross_check, cross_check_reference, self_check, self_check_reference,
    ArgCheck, HybridVerdict, LaunchArg, ProjExpr, ILL_FORMED_COLOR,
};
use il_geometry::{Domain, DomainPoint, Rect};
use il_region::{equal_partition_1d, FieldSpaceDesc, Privilege, RegionForest};
use il_testkit::prop::{bools, check, i64s, map, one_of, usizes, vec_of, Just, OneOf};
use il_testkit::{prop_assert, prop_assert_eq};

/// Adversarial functor pool: every constructor stressed at its edges —
/// non-positive moduli, zero strides, out-of-range swizzles, overflowing
/// coefficients, out-of-domain constants and opaque maps, and shallow
/// compositions of all of the above.
fn edge_functor() -> OneOf<ProjExpr> {
    one_of(vec![
        Box::new(Just(ProjExpr::Identity)),
        // Zero-stride and ordinary affine maps, plus coefficients at the
        // overflow boundary.
        Box::new(map((i64s(-2..3), i64s(-6..7)), |(a, b)| ProjExpr::linear(a, b))),
        Box::new(Just(ProjExpr::linear(i64::MAX, 1))),
        Box::new(Just(ProjExpr::linear(0, i64::MAX))),
        // Moduli spanning negative, zero, and positive.
        Box::new(map((i64s(-3..4), i64s(-4..5), i64s(-3..8)), |(a, b, m)| {
            ProjExpr::Modular { a, b, m }
        })),
        Box::new(map((i64s(-2..3), i64s(-2..3), i64s(-2..3)), |(a, b, c)| {
            ProjExpr::Quadratic { a, b, c }
        })),
        Box::new(Just(ProjExpr::Quadratic { a: i64::MAX, b: 0, c: 0 })),
        // Swizzles: in-range, out-of-range, and empty selections.
        Box::new(map(vec_of(usizes(0..4), 0..3), ProjExpr::Swizzle)),
        // Constants far outside any color space.
        Box::new(map(i64s(-40..40), |c| ProjExpr::Constant(DomainPoint::new1(c)))),
        Box::new(Just(ProjExpr::Constant(DomainPoint::new1(i64::MAX)))),
        // Data-dependent opaque maps that wander out of the color space
        // (the sparse-graph app's functor family).
        Box::new(map(i64s(-8..9), |k| {
            ProjExpr::opaque(move |p| DomainPoint::new1(p.coord(0).wrapping_mul(3).wrapping_add(k)))
        })),
    ])
}

/// A possibly-degenerate composition of edge functors.
fn composed_edge_functor() -> OneOf<ProjExpr> {
    one_of(vec![
        Box::new(edge_functor()),
        Box::new(map((edge_functor(), edge_functor()), |(g, f)| {
            ProjExpr::Compose(Box::new(g), Box::new(f))
        })),
    ])
}

/// 1-D launch domains including the empty rectangle.
fn domain_1d() -> OneOf<Domain> {
    one_of(vec![
        Box::new(Just(Domain::Rect1(Rect::empty()))),
        Box::new(map(i64s(1..60), Domain::range)),
        Box::new(map((i64s(-20..20), i64s(0..40)), |(lo, len)| {
            Domain::Rect1(Rect::new1(lo, lo + len - 1)) // len 0 ⇒ empty
        })),
    ])
}

/// `eval` is total and deterministic on the full adversarial pool, and
/// `try_eval`'s `None` is exactly `eval`'s sentinel.
#[test]
fn eval_is_total_on_edge_functors() {
    let gen = (composed_edge_functor(), i64s(-50..50), usizes(1..4));
    check("eval_is_total_on_edge_functors", &gen, |(f, x, rank)| {
        let p = match rank {
            1 => DomainPoint::new1(*x),
            2 => DomainPoint::new2(*x, x + 1),
            _ => DomainPoint::new3(*x, x + 1, x + 2),
        };
        let a = f.eval(p);
        let b = f.eval(p);
        prop_assert_eq!(a, b, "eval must be deterministic for {:?}", f);
        match f.try_eval(p) {
            Some(v) => prop_assert_eq!(a, v, "try_eval/eval disagree for {:?}", f),
            None => prop_assert_eq!(
                a,
                DomainPoint::new1(ILL_FORMED_COLOR),
                "ill-formed eval must be the sentinel for {:?}",
                f
            ),
        }
        Ok(())
    });
}

/// `color_runs_1d` keeps its exactness contract against the total `eval`:
/// when it claims a decomposition, the flattened runs equal the pointwise
/// evaluation — even for degenerate families (which mostly refuse).
#[test]
fn color_runs_stay_exact_on_edge_functors() {
    let gen = (composed_edge_functor(), i64s(-30..30), i64s(0..50));
    check("color_runs_stay_exact_on_edge_functors", &gen, |(f, lo, len)| {
        let (lo, hi) = (*lo, lo + len - 1);
        if let Some(runs) = f.color_runs_1d(lo, hi) {
            let mut flat = Vec::new();
            for r in &runs {
                for k in 0..r.count {
                    flat.push(r.start + k as i64 * r.stride);
                }
            }
            let want: Vec<i64> =
                (lo..=hi).map(|i| f.eval(DomainPoint::new1(i)).coord(0)).collect();
            prop_assert_eq!(flat, want, "inexact run decomposition for {:?}", f);
        }
        Ok(())
    });
}

/// `self_check` and `cross_check` still match the pointwise reference
/// exactly on the adversarial pool — including empty launch domains,
/// functors whose every value is out of bounds, and colors of the wrong
/// rank.
#[test]
fn strategies_match_reference_on_edge_functors() {
    let gen = (vec_of((composed_edge_functor(), bools()), 1..4), domain_1d(), i64s(1..40));
    check("strategies_match_reference_on_edge_functors", &gen, |(fs, domain, colors)| {
        let bounds = Domain::range(*colors);
        let args = arg_checks(fs);
        let want = cross_check_reference(domain, &args, &bounds);
        prop_assert_eq!(cross_check(domain, &args, &bounds), want, "args {:?} over {:?}", fs, domain);
        let (f0, _) = &fs[0];
        let want = self_check_reference(domain, f0, &bounds);
        prop_assert_eq!(self_check(domain, f0, &bounds), want, "functor {:?} over {:?}", f0, domain);
        Ok(())
    });
}

/// A check depends on the launch domain's points, not on how they are
/// stored: for every non-empty 1-D rectangle, the sparse domain with the
/// same points (in the same order) gives the same report through
/// `self_check`, `cross_check` and both references.
#[test]
fn sparse_and_dense_domains_give_one_report() {
    let gen = (vec_of((composed_edge_functor(), bools()), 1..4), domain_1d(), i64s(1..40));
    check("sparse_and_dense_domains_give_one_report", &gen, |(fs, dense, colors)| {
        if dense.is_empty() {
            return Ok(());
        }
        let sparse = Domain::sparse(dense.iter().collect());
        let bounds = Domain::range(*colors);
        let args = arg_checks(fs);
        let (f0, _) = &fs[0];
        let want = self_check_reference(dense, f0, &bounds);
        for (name, got) in [
            ("self_check dense", self_check(dense, f0, &bounds)),
            ("self_check sparse", self_check(&sparse, f0, &bounds)),
            ("self_check_reference sparse", self_check_reference(&sparse, f0, &bounds)),
        ] {
            prop_assert_eq!(got, want, "{}: functor {:?} over {:?}", name, f0, dense);
        }
        let want = cross_check_reference(dense, &args, &bounds);
        for (name, got) in [
            ("cross_check dense", cross_check(dense, &args, &bounds)),
            ("cross_check sparse", cross_check(&sparse, &args, &bounds)),
            ("cross_check_reference sparse", cross_check_reference(&sparse, &args, &bounds)),
        ] {
            prop_assert_eq!(got, want, "{}: args {:?} over {:?}", name, fs, dense);
        }
        Ok(())
    });
}

fn arg_checks(fs: &[(ProjExpr, bool)]) -> Vec<ArgCheck<'_>> {
    fs.iter()
        .enumerate()
        .map(|(i, (f, w))| ArgCheck { index: i, functor: f, writes: *w })
        .collect()
}

/// `analyze_launch` + running the dynamic plan is total: every launch
/// over the adversarial pool gets a verdict (safe, dynamic, or unsafe),
/// and dynamic plans run to completion with a result — no panics
/// anywhere, even for empty domains and fully out-of-domain projections.
#[test]
fn analyze_launch_is_total_on_edge_functors() {
    let gen = (
        vec_of((composed_edge_functor(), usizes(0..4)), 1..4),
        domain_1d(),
        i64s(1..12),
    );
    check("analyze_launch_is_total_on_edge_functors", &gen, |(fs, domain, parts)| {
        let mut forest = RegionForest::new();
        let fsp = forest.create_field_space(FieldSpaceDesc::new());
        let region = forest.create_region(Domain::range(120), fsp);
        let partition = equal_partition_1d(&mut forest, region.space, *parts as usize);
        let args: Vec<LaunchArg> = fs
            .iter()
            .map(|(f, priv_idx)| LaunchArg {
                partition,
                functor: f.clone(),
                privilege: match priv_idx {
                    0 => Privilege::Read,
                    1 => Privilege::Write,
                    _ => Privilege::ReadWrite,
                },
                fields: vec![],
            })
            .collect();
        let verdict = analyze_launch(&forest, domain, &args);
        if let HybridVerdict::NeedsDynamic(plan) = verdict {
            let budget = plan.planned_evals();
            match plan.run() {
                Ok(evals) => prop_assert!(
                    evals <= budget,
                    "dynamic check ran {} evals against a plan of {}",
                    evals,
                    budget
                ),
                Err(_) => {} // a conflict is a verdict too
            }
        }
        Ok(())
    });
}
