//! The dynamic projection-functor checks (Listing 3).
//!
//! The dynamic analysis "is a simple loop that evaluates the projection
//! functor at each domain point and determines if it is injective" (§4).
//! Despite its simplicity it is *sound and complete* for injectivity, which
//! is what lets the hybrid design support arbitrary functors. The
//! multi-argument cross-check runs in linear time using a single bitmask
//! per partition: write/reduce arguments are checked first and set bits;
//! read-only arguments are checked afterwards and only test bits.
//!
//! # The fast path
//!
//! The pointwise loop ([`self_check_reference`] / [`cross_check_reference`])
//! is the semantic definition, but it touches the bitmask one bit at a
//! time. [`self_check`] and [`cross_check`] take one fast path on dense
//! 1-D shapes (the shape of Tables 2–3 and of every application launch)
//! and provably return byte-identical [`CheckReport`]s:
//!
//! * when an argument's color sequence decomposes into arithmetic
//!   [`ColorRun`]s ([`ProjExpr::color_runs_1d`]), each run is applied 64
//!   colors at a time: stride-1 runs fill whole words with range masks,
//!   and strided runs build per-word masks in-register, so conflict
//!   detection is one `(word & mask) != 0` test per word instead of one
//!   test per bit;
//! * an argument with no runs (opaque maps, true quadratics) is scanned
//!   point by point over the same mask.
//!
//! Every other shape goes to the reference loop. The fast path handles
//! only the *safe* outcome directly. The moment any overlap is detected it
//! discards its state and the reference check runs instead, which
//! early-exits at exactly the first conflicting point — so conflict
//! reports (point, color, eval count) are byte-identical to the reference,
//! and the rerun cost lands only on launches the runtime must serialize
//! anyway.

use crate::bitmask::BitMask;
use crate::proj::{ColorRun, ProjExpr};
use il_geometry::{Domain, DomainPoint};

/// Outcome of a dynamic check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// All checked accesses are non-interfering: the index launch is safe.
    Safe,
    /// Two accesses selected the same sub-collection.
    Conflict {
        /// Index (into the argument list) of the access that tripped.
        arg: usize,
        /// The launch-domain point whose functor value collided.
        point: DomainPoint,
        /// The colliding color.
        color: DomainPoint,
    },
}

/// Summary of one dynamic check run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// Safe or the first conflict found (the check exits early, as in
    /// Listing 3).
    pub outcome: CheckOutcome,
    /// Functor evaluations performed (O(|D|) per argument; the runtime
    /// charges simulated time proportional to this).
    pub evals: u64,
    /// Functor values that fell outside the color space. Listing 3 skips
    /// such points (they fail the bounds check on line 13); we count them
    /// so callers can surface the likely program error.
    pub out_of_bounds: u64,
}

impl CheckReport {
    /// True iff the launch was verified safe.
    pub fn is_safe(&self) -> bool {
        self.outcome == CheckOutcome::Safe
    }
}

/// One argument of a multi-argument cross-check.
#[derive(Clone, Debug)]
pub struct ArgCheck<'a> {
    /// Position in the original argument list (for diagnostics).
    pub index: usize,
    /// The argument's projection functor.
    pub functor: &'a ProjExpr,
    /// True for write, read-write, or reduce privileges ("we consider
    /// reductions to be writes for the purposes of these checks", §4).
    pub writes: bool,
}

/// Self-check of a single argument: is `functor` injective over `domain`,
/// with values landing inside `color_bounds` (the partition's color
/// space)? Semantically exactly the generated code of Listing 3, through
/// the fast path where the shapes admit it.
pub fn self_check(domain: &Domain, functor: &ProjExpr, color_bounds: &Domain) -> CheckReport {
    let args = [ArgCheck { index: 0, functor, writes: true }];
    fast_check(domain, &args, color_bounds)
        .unwrap_or_else(|| self_check_reference(domain, functor, color_bounds))
}

/// Cross-check of multiple arguments sharing one (disjoint) partition.
///
/// Uses a single bitmask: all write/reduce arguments are processed before
/// any read-only argument; writers set bits (catching write–write
/// conflicts, including non-injectivity of a single writer), readers only
/// test them (catching write–read conflicts without making read–read
/// sharing a false positive). This is the linear-time algorithm of §4,
/// through the fast path where the shapes admit it.
pub fn cross_check(domain: &Domain, args: &[ArgCheck<'_>], color_bounds: &Domain) -> CheckReport {
    fast_check(domain, args, color_bounds)
        .unwrap_or_else(|| cross_check_reference(domain, args, color_bounds))
}

/// The pointwise self-check — Listing 3 verbatim, one bitmask bit per
/// functor evaluation. This is the semantic oracle the fast path is
/// tested against, and the path conflicts are re-run through so their
/// reports stay byte-identical.
pub fn self_check_reference(
    domain: &Domain,
    functor: &ProjExpr,
    color_bounds: &Domain,
) -> CheckReport {
    let volume = color_bounds.bbox_volume();
    let mut bitmask = BitMask::new(volume);
    let mut evals = 0u64;
    let mut oob = 0u64;
    // Dense 1-D case (the shape of Tables 2–3): iterate raw coordinates
    // and linearize inline.
    if let (Domain::Rect1(d), Domain::Rect1(c)) = (domain, color_bounds) {
        let (clo, chi) = (c.lo[0], c.hi[0]);
        for i in d.lo[0]..=d.hi[0] {
            let color = functor.eval(DomainPoint::new1(i));
            evals += 1;
            let v = color.x();
            // A color of the wrong rank is out of bounds, as in `linearize`.
            if color.dim() != 1 || v < clo || v > chi {
                oob += 1;
                continue;
            }
            if bitmask.test_and_set((v - clo) as u64) {
                return CheckReport {
                    outcome: CheckOutcome::Conflict {
                        arg: 0,
                        point: DomainPoint::new1(i),
                        color,
                    },
                    evals,
                    out_of_bounds: oob,
                };
            }
        }
        return CheckReport { outcome: CheckOutcome::Safe, evals, out_of_bounds: oob };
    }
    for point in domain.iter() {
        let color = functor.eval(point);
        evals += 1;
        // Bounds check (line 13 of Listing 3): skip out-of-range values.
        match color_bounds.linearize(color) {
            Some(value) => {
                if bitmask.test_and_set(value) {
                    return CheckReport {
                        outcome: CheckOutcome::Conflict { arg: 0, point, color },
                        evals,
                        out_of_bounds: oob,
                    };
                }
            }
            None => oob += 1,
        }
    }
    CheckReport {
        outcome: CheckOutcome::Safe,
        evals,
        out_of_bounds: oob,
    }
}

/// The pointwise cross-check (see [`cross_check`] for the algorithm) —
/// the semantic oracle for the fast cross-check path.
pub fn cross_check_reference(
    domain: &Domain,
    args: &[ArgCheck<'_>],
    color_bounds: &Domain,
) -> CheckReport {
    let volume = color_bounds.bbox_volume();
    let mut bitmask = BitMask::new(volume);
    let mut evals = 0u64;
    let mut oob = 0u64;

    // Writers first, then readers; stable within each class.
    let mut ordered: Vec<&ArgCheck<'_>> = args.iter().filter(|a| a.writes).collect();
    ordered.extend(args.iter().filter(|a| !a.writes));

    for arg in ordered {
        for point in domain.iter() {
            let color = arg.functor.eval(point);
            evals += 1;
            let Some(value) = color_bounds.linearize(color) else {
                oob += 1;
                continue;
            };
            if arg.writes {
                if bitmask.test_and_set(value) {
                    return CheckReport {
                        outcome: CheckOutcome::Conflict { arg: arg.index, point, color },
                        evals,
                        out_of_bounds: oob,
                    };
                }
            } else if bitmask.get(value) {
                return CheckReport {
                    outcome: CheckOutcome::Conflict { arg: arg.index, point, color },
                    evals,
                    out_of_bounds: oob,
                };
            }
        }
    }
    CheckReport {
        outcome: CheckOutcome::Safe,
        evals,
        out_of_bounds: oob,
    }
}

/// The fast path over dense 1-D shapes: writers first, then readers, each
/// argument applied run by run when it decomposes into [`ColorRun`]s and
/// point by point otherwise. Returns the report only when every argument
/// applied without overlap. `None` means the shapes are not dense 1-D,
/// the launch domain is empty, or some access overlapped; the caller then
/// runs the reference, which reproduces its first conflict exactly.
fn fast_check(domain: &Domain, args: &[ArgCheck<'_>], colors: &Domain) -> Option<CheckReport> {
    let (Domain::Rect1(d), Domain::Rect1(c)) = (domain, colors) else {
        return None;
    };
    let (dlo, dhi) = (d.lo[0], d.hi[0]);
    let (clo, chi) = (c.lo[0], c.hi[0]);
    if dlo > dhi {
        return None;
    }
    let mut mask = BitMask::new(colors.bbox_volume());
    let mut evals = 0u64;
    let mut oob = 0u64;

    let mut ordered: Vec<&ArgCheck<'_>> = args.iter().filter(|a| a.writes).collect();
    ordered.extend(args.iter().filter(|a| !a.writes));

    for arg in ordered {
        if let Some(runs) = arg.functor.color_runs_1d(dlo, dhi) {
            for run in &runs {
                oob += apply_run(&mut mask, run, clo, chi, arg.writes)?;
                evals += run.count;
            }
            continue;
        }
        // Point by point over the shared mask, exactly as the reference
        // would scan this argument.
        for i in dlo..=dhi {
            let color = arg.functor.eval(DomainPoint::new1(i));
            evals += 1;
            let v = color.x();
            if color.dim() != 1 || v < clo || v > chi {
                oob += 1;
                continue;
            }
            let bit = (v - clo) as u64;
            let hit = if arg.writes { mask.test_and_set(bit) } else { mask.get(bit) };
            if hit {
                return None;
            }
        }
    }
    Some(CheckReport { outcome: CheckOutcome::Safe, evals, out_of_bounds: oob })
}

/// Apply one color run to the mask with word-wide operations. Returns
/// `Some(out_of_bounds)` when the run applied cleanly (its in-bounds
/// colors were all fresh for writers / all unset for readers), `None` on
/// any overlap — the check then falls back to the reference.
fn apply_run(mask: &mut BitMask, run: &ColorRun, clo: i64, chi: i64, write: bool) -> Option<u64> {
    if run.count == 0 {
        return Some(0);
    }
    if run.stride == 0 {
        if run.start < clo || run.start > chi {
            return Some(run.count);
        }
        let bit = (run.start - clo) as u64;
        if write {
            // Every point of the run maps to the same color: with more
            // than one point the run conflicts with itself.
            if mask.test_and_set(bit) || run.count > 1 {
                return None;
            }
        } else if mask.get(bit) {
            return None;
        }
        return Some(0);
    }
    // Clip the run's k-range to colors inside [clo, chi]:
    //   clo ≤ start + k·stride ≤ chi,  0 ≤ k < count.
    let (start, stride) = (run.start as i128, run.stride as i128);
    let (klo, khi) = if stride > 0 {
        (div_ceil(clo as i128 - start, stride), div_floor(chi as i128 - start, stride))
    } else {
        (div_ceil(chi as i128 - start, stride), div_floor(clo as i128 - start, stride))
    };
    let klo = klo.max(0);
    let khi = khi.min(run.count as i128 - 1);
    if klo > khi {
        return Some(run.count);
    }
    let n = (khi - klo + 1) as u64;
    let oob = run.count - n;
    let first = start + klo * stride;
    let last = start + khi * stride;
    let base = (first.min(last) - clo as i128) as u64;
    if apply_ap(mask, base, run.stride.unsigned_abs(), n, write) {
        None
    } else {
        Some(oob)
    }
}

/// Set (writers) or test (readers) the arithmetic bit progression
/// `base, base+s, …, base+(n-1)·s`, whole words at a time. Returns true on
/// overlap with already-set bits.
fn apply_ap(mask: &mut BitMask, base: u64, s: u64, n: u64, write: bool) -> bool {
    debug_assert!(s >= 1 && n >= 1);
    let end = base + (n - 1) * s;
    let (w0, w1) = ((base / 64) as usize, (end / 64) as usize);
    fn op(mask: &mut BitMask, w: usize, m: u64, write: bool) -> bool {
        if write {
            mask.fetch_or_word(w, m) != 0
        } else {
            mask.test_word(w, m) != 0
        }
    }
    if s == 1 {
        // Contiguous range: full-word fills between partial head and tail.
        let head = !0u64 << (base % 64);
        let tail = !0u64 >> (63 - end % 64);
        if w0 == w1 {
            return op(mask, w0, head & tail, write);
        }
        if op(mask, w0, head, write) {
            return true;
        }
        for w in w0 + 1..w1 {
            if op(mask, w, !0u64, write) {
                return true;
            }
        }
        return op(mask, w1, tail, write);
    }
    if s <= 64 && 64 % s == 0 {
        // The stride divides the word size, so the in-word bit pattern
        // (positions ≡ base mod s) is identical in every word.
        let mut pat = 0u64;
        let mut p = base % s;
        while p < 64 {
            pat |= 1 << p;
            p += s;
        }
        let head = pat & (!0u64 << (base % 64));
        let tail = pat & (!0u64 >> (63 - end % 64));
        if w0 == w1 {
            return op(mask, w0, head & tail, write);
        }
        if op(mask, w0, head, write) {
            return true;
        }
        for w in w0 + 1..w1 {
            if op(mask, w, pat, write) {
                return true;
            }
        }
        return op(mask, w1, tail, write);
    }
    // General stride: accumulate each word's mask in-register, then one
    // word op per word.
    let mut bit = base;
    while bit <= end {
        let w = (bit / 64) as usize;
        let mut m = 0u64;
        while bit <= end && (bit / 64) as usize == w {
            m |= 1 << (bit % 64);
            bit += s;
        }
        if op(mask, w, m, write) {
            return true;
        }
    }
    false
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_geometry::Rect;

    fn d1(n: i64) -> Domain {
        Domain::range(n)
    }

    #[test]
    fn identity_self_check_safe() {
        let r = self_check(&d1(100), &ProjExpr::Identity, &d1(100));
        assert!(r.is_safe());
        assert_eq!(r.evals, 100);
        assert_eq!(r.out_of_bounds, 0);
    }

    #[test]
    fn listing2_modular_conflict() {
        // i % 3 over [0,5): conflict at i = 3 (color 0 already taken).
        let f = ProjExpr::Modular { a: 1, b: 0, m: 3 };
        let r = self_check(&d1(5), &f, &d1(3));
        assert_eq!(
            r.outcome,
            CheckOutcome::Conflict {
                arg: 0,
                point: DomainPoint::new1(3),
                color: DomainPoint::new1(0),
            }
        );
        // Early exit: evaluated 0,1,2,3 only.
        assert_eq!(r.evals, 4);
    }

    #[test]
    fn out_of_bounds_skipped_and_counted() {
        // f(i) = i + 8 over [0,5) with colors [0,10): 13,14 evals fall out? No:
        // values 8..12; colors 0..9 -> i=2,3,4 give 10,11,12 out of bounds.
        let f = ProjExpr::linear(1, 8);
        let r = self_check(&d1(5), &f, &d1(10));
        assert!(r.is_safe());
        assert_eq!(r.out_of_bounds, 3);
    }

    #[test]
    fn quadratic_safe_case() {
        // i² over [0,10): injective.
        let f = ProjExpr::Quadratic { a: 1, b: 0, c: 0 };
        let r = self_check(&d1(10), &f, &d1(100));
        assert!(r.is_safe());
    }

    #[test]
    fn dom_sweep_functor_on_diagonal_slice() {
        // A 3-D diagonal slice (x+y+z = const) projected to the (x,y)
        // plane is injective iff no duplicate (x,y) pairs — true for a
        // proper wavefront (§6.2.3).
        let slice = Domain::sparse(vec![
            DomainPoint::new3(0, 0, 2),
            DomainPoint::new3(0, 1, 1),
            DomainPoint::new3(1, 0, 1),
            DomainPoint::new3(1, 1, 0),
            DomainPoint::new3(0, 2, 0),
            DomainPoint::new3(2, 0, 0),
        ]);
        let plane: Domain = Rect::new2((0, 0), (2, 2)).into();
        let f = ProjExpr::Swizzle(vec![0, 1]);
        assert!(self_check(&slice, &f, &plane).is_safe());

        // A bogus "slice" with duplicate (x,y): caught.
        let bad = Domain::sparse(vec![
            DomainPoint::new3(0, 0, 0),
            DomainPoint::new3(0, 0, 1),
        ]);
        let r = self_check(&bad, &f, &plane);
        assert!(!r.is_safe());
    }

    #[test]
    fn cross_check_write_then_reads_safe() {
        // Writer on even colors, readers on odd colors: disjoint images.
        let w = ProjExpr::linear(2, 0);
        let r1 = ProjExpr::linear(2, 1);
        let r2 = ProjExpr::linear(2, 1);
        let args = [
            ArgCheck { index: 0, functor: &w, writes: true },
            ArgCheck { index: 1, functor: &r1, writes: false },
            ArgCheck { index: 2, functor: &r2, writes: false },
        ];
        let rep = cross_check(&d1(10), &args, &d1(20));
        assert!(rep.is_safe());
        assert_eq!(rep.evals, 30);
    }

    #[test]
    fn cross_check_read_sharing_is_fine() {
        // Two readers with identical images: no conflict (reads don't set).
        let f = ProjExpr::Identity;
        let g = ProjExpr::Identity;
        let args = [
            ArgCheck { index: 0, functor: &f, writes: false },
            ArgCheck { index: 1, functor: &g, writes: false },
        ];
        assert!(cross_check(&d1(8), &args, &d1(8)).is_safe());
    }

    #[test]
    fn cross_check_write_read_overlap_caught() {
        // Writer i -> i; reader i -> i+1: reader at i hits writer's i+1.
        let w = ProjExpr::Identity;
        let r = ProjExpr::linear(1, 1);
        let args = [
            ArgCheck { index: 0, functor: &w, writes: true },
            ArgCheck { index: 1, functor: &r, writes: false },
        ];
        let rep = cross_check(&d1(8), &args, &d1(9));
        assert_eq!(
            rep.outcome,
            CheckOutcome::Conflict {
                arg: 1,
                point: DomainPoint::new1(0),
                color: DomainPoint::new1(1),
            }
        );
    }

    #[test]
    fn cross_check_order_is_writers_first() {
        // Reader listed first, writer second — writer still checked first,
        // so the overlap is attributed to the reader pass.
        let r = ProjExpr::Identity;
        let w = ProjExpr::Identity;
        let args = [
            ArgCheck { index: 0, functor: &r, writes: false },
            ArgCheck { index: 1, functor: &w, writes: true },
        ];
        let rep = cross_check(&d1(4), &args, &d1(4));
        assert_eq!(
            rep.outcome,
            CheckOutcome::Conflict {
                arg: 0,
                point: DomainPoint::new1(0),
                color: DomainPoint::new1(0),
            }
        );
    }

    #[test]
    fn cross_check_write_write_self_conflict() {
        // A single non-injective writer is caught by the same bitmask.
        let f = ProjExpr::Modular { a: 1, b: 0, m: 4 };
        let args = [ArgCheck { index: 0, functor: &f, writes: true }];
        let rep = cross_check(&d1(6), &args, &d1(4));
        assert!(!rep.is_safe());
    }

    #[test]
    fn brute_force_agreement() {
        // The bitmask cross-check must agree with a quadratic pairwise
        // oracle on a batch of small scenarios.
        use std::collections::HashSet;
        let functors = [
            ProjExpr::Identity,
            ProjExpr::linear(1, 3),
            ProjExpr::linear(2, 0),
            ProjExpr::Modular { a: 1, b: 0, m: 5 },
            ProjExpr::Quadratic { a: 1, b: 0, c: 0 },
        ];
        let dom = d1(6);
        let colors = d1(40);
        for wi in 0..functors.len() {
            for ri in 0..functors.len() {
                let args = [
                    ArgCheck { index: 0, functor: &functors[wi], writes: true },
                    ArgCheck { index: 1, functor: &functors[ri], writes: false },
                ];
                let got = cross_check(&dom, &args, &colors).is_safe();
                // Oracle: writer must be injective in-bounds, and reader
                // image must avoid writer image.
                let mut wset = HashSet::new();
                let mut winj = true;
                for p in dom.iter() {
                    let c = functors[wi].eval(p);
                    if colors.linearize(c).is_some() && !wset.insert(c) {
                        winj = false;
                    }
                }
                let roverlap = dom.iter().any(|p| {
                    let c = functors[ri].eval(p);
                    colors.linearize(c).is_some() && wset.contains(&c)
                });
                let expect = winj && !roverlap;
                assert_eq!(got, expect, "w={wi} r={ri}");
            }
        }
    }

    // ------------------------------------------------------------------
    // Fast-path equivalence (thorough randomized coverage lives in
    // crates/analysis/tests/bitmask_props.rs; these pin the basics).

    #[test]
    fn strategies_agree_on_self_checks() {
        let functors = [
            ProjExpr::Identity,
            ProjExpr::linear(2, 5),
            ProjExpr::linear(-3, 200),
            ProjExpr::Modular { a: 1, b: 0, m: 37 },
            ProjExpr::Modular { a: -4, b: 9, m: 11 },
            ProjExpr::Quadratic { a: 1, b: 0, c: 0 },
            ProjExpr::opaque(|p| DomainPoint::new1(p.x() * 3 + 1)),
            ProjExpr::Constant(DomainPoint::new1(4)),
        ];
        for f in &functors {
            for (n, colors) in [(1, 16), (64, 64), (100, 300), (129, 64), (257, 1024)] {
                let expect = self_check_reference(&d1(n), f, &d1(colors));
                let got = self_check(&d1(n), f, &d1(colors));
                assert_eq!(got, expect, "{f:?} n={n} colors={colors}");
            }
        }
    }

    #[test]
    fn strategies_agree_on_cross_checks() {
        let w = ProjExpr::linear(2, 0);
        let r1 = ProjExpr::linear(2, 1);
        let r2 = ProjExpr::opaque(|p| DomainPoint::new1(p.x() * 2 + 1));
        let args = [
            ArgCheck { index: 0, functor: &w, writes: true },
            ArgCheck { index: 1, functor: &r1, writes: false },
            ArgCheck { index: 2, functor: &r2, writes: false },
        ];
        for n in [1, 63, 64, 65, 200] {
            let expect = cross_check_reference(&d1(n), &args, &d1(2 * n + 2));
            assert_eq!(cross_check(&d1(n), &args, &d1(2 * n + 2)), expect, "n={n}");
        }
    }

    #[test]
    fn non_1d_shapes_agree_with_reference() {
        let plane: Domain = Rect::new2((0, 0), (3, 3)).into();
        let f = ProjExpr::Swizzle(vec![0, 1]);
        assert_eq!(self_check(&plane, &f, &plane), self_check_reference(&plane, &f, &plane));
        let g = ProjExpr::Swizzle(vec![0, 0]);
        assert_eq!(self_check(&plane, &g, &plane), self_check_reference(&plane, &g, &plane));
    }

    #[test]
    fn word_path_conflict_report_is_reference_exact() {
        // Modular wrap conflict: the run path detects overlap, falls back,
        // and must reproduce the reference's early-exit report exactly.
        let f = ProjExpr::Modular { a: 1, b: 0, m: 3 };
        let expect = self_check_reference(&d1(5), &f, &d1(3));
        let got = self_check(&d1(5), &f, &d1(3));
        assert_eq!(got, expect);
        assert_eq!(got.evals, 4);
    }

    // ------------------------------------------------------------------
    // A color whose rank differs from the color space's is out of bounds
    // on every path, as `Domain::linearize` rules on the generic loops.

    #[test]
    fn reference_counts_wrong_rank_colors_out_of_bounds() {
        // (0, 0) is a 2-D color; the color space [0, 4) is 1-D. The dense
        // and the sparse launch domain must agree with the cross-check.
        let f = ProjExpr::Compose(
            Box::new(ProjExpr::Swizzle(vec![0, 0])),
            Box::new(ProjExpr::Constant(DomainPoint::new1(0))),
        );
        let sparse = Domain::sparse((0..4).map(DomainPoint::new1).collect());
        let want = CheckReport { outcome: CheckOutcome::Safe, evals: 4, out_of_bounds: 4 };
        let writer = [ArgCheck { index: 0, functor: &f, writes: true }];
        for domain in [d1(4), sparse] {
            assert_eq!(self_check_reference(&domain, &f, &d1(4)), want, "{domain:?}");
            assert_eq!(self_check(&domain, &f, &d1(4)), want, "{domain:?}");
            assert_eq!(cross_check(&domain, &writer, &d1(4)), want, "{domain:?}");
        }
    }

    #[test]
    fn point_by_point_path_counts_wrong_rank_colors_out_of_bounds() {
        // Swizzle([0,0]) ∘ ((−2i) mod 5) has no runs, so a reader of it is
        // scanned point by point; every (v, v) color is out of bounds.
        let f = ProjExpr::Compose(
            Box::new(ProjExpr::Swizzle(vec![0, 0])),
            Box::new(ProjExpr::Modular { a: -2, b: 0, m: 5 }),
        );
        assert!(f.color_runs_1d(0, 54).is_none());
        let reader = [ArgCheck { index: 0, functor: &f, writes: false }];
        let want = CheckReport { outcome: CheckOutcome::Safe, evals: 55, out_of_bounds: 55 };
        assert_eq!(cross_check_reference(&d1(55), &reader, &d1(1)), want);
        assert_eq!(cross_check(&d1(55), &reader, &d1(1)), want);
    }
}
