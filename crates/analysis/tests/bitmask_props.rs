//! Property tests: `self_check` and `cross_check` — the run path and the
//! point-by-point path over one mask — are *observationally identical*
//! to the pointwise Listing-3 reference: same outcome (including which
//! argument/point/color trips first), same functor-evaluation count,
//! same out-of-bounds count, on random domains and functor families.
//! Runs on the hermetic `il-testkit` harness; failures print a
//! rerunnable `IL_TESTKIT_SEED`.

use il_analysis::{
    cross_check, cross_check_reference, self_check, self_check_reference, ArgCheck, ProjExpr,
};
use il_geometry::{Domain, DomainPoint};
use il_testkit::prop::{bools, check, i64s, map, one_of, vec_of, Just, OneOf};
use il_testkit::prop_assert_eq;

/// A functor from the statically-analyzable + dynamic families (the same
/// pool the hybrid-analysis property tests draw from).
fn functor() -> OneOf<ProjExpr> {
    one_of(vec![
        Box::new(Just(ProjExpr::Identity)),
        Box::new(map((i64s(-3..4), i64s(-5..6)), |(a, b)| ProjExpr::linear(a, b))),
        Box::new(map(i64s(0..20), |c| ProjExpr::Constant(DomainPoint::new1(c)))),
        Box::new(map((i64s(-3..4), i64s(0..8), i64s(1..20)), |(a, b, m)| {
            ProjExpr::Modular { a, b, m }
        })),
        Box::new(map((i64s(-2..3), i64s(-3..4), i64s(0..5)), |(a, b, c)| {
            ProjExpr::Quadratic { a, b, c }
        })),
    ])
}

/// Self-checks: `self_check` reproduces the reference report exactly —
/// outcome (first conflict point and color included), eval count, and
/// out-of-bounds count.
#[test]
fn self_check_strategies_match_reference_exactly() {
    let gen = (functor(), i64s(1..300), i64s(1..400));
    check("self_check_strategies_match_reference_exactly", &gen, |(f, n, colors)| {
        let domain = Domain::range(*n);
        let bounds = Domain::range(*colors);
        let want = self_check_reference(&domain, f, &bounds);
        let got = self_check(&domain, f, &bounds);
        prop_assert_eq!(got, want, "functor {:?} over [0,{})", f, n);
        Ok(())
    });
}

/// Cross-checks: same exactness guarantee with multiple writer/reader
/// arguments sharing one mask.
#[test]
fn cross_check_strategies_match_reference_exactly() {
    let gen = (vec_of((functor(), bools()), 1..5), i64s(1..120), i64s(1..300));
    check("cross_check_strategies_match_reference_exactly", &gen, |(fs, n, colors)| {
        let domain = Domain::range(*n);
        let bounds = Domain::range(*colors);
        let args: Vec<ArgCheck<'_>> = fs
            .iter()
            .enumerate()
            .map(|(i, (f, w))| ArgCheck { index: i, functor: f, writes: *w })
            .collect();
        let want = cross_check_reference(&domain, &args, &bounds);
        let got = cross_check(&domain, &args, &bounds);
        prop_assert_eq!(got, want, "args {:?} over [0,{})", fs, n);
        Ok(())
    });
}

/// Deterministic cases at 150 000 points, the size where large run-less
/// domains once left the sequential scan: a safe run-decomposable writer,
/// a conflicting modular writer (the early exit must report the
/// reference's first conflict), and a run-less quadratic whose values
/// mostly fall out of bounds (the point-by-point path must count them
/// identically).
#[test]
fn large_domains_agree_across_all_paths() {
    let n = 150_000;
    let cases: Vec<(&str, ProjExpr, i64)> = vec![
        ("safe linear", ProjExpr::linear(1, 3), n + 16),
        ("conflicting modular", ProjExpr::Modular { a: 1, b: 0, m: n / 2 }, n),
        ("out-of-bounds quadratic", ProjExpr::Quadratic { a: 1, b: 0, c: 0 }, 100_000),
    ];
    for (name, f, colors) in &cases {
        let domain = Domain::range(n);
        let bounds = Domain::range(*colors);
        let want = self_check_reference(&domain, f, &bounds);
        assert_eq!(self_check(&domain, f, &bounds), want, "{name}: diverged from reference");
        let writer = [ArgCheck { index: 0, functor: f, writes: true }];
        let want = cross_check_reference(&domain, &writer, &bounds);
        assert_eq!(cross_check(&domain, &writer, &bounds), want, "{name}: cross-check diverged");
    }
}
