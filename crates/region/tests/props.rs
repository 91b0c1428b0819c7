//! Property tests for the region data model: disjointness queries,
//! overlap volumes, intersections, and instance copy/fold semantics.
//! Runs on the hermetic `il-testkit` harness; note `one_of`/`map`
//! generators do not shrink, so failures report the original input.

use il_geometry::{Domain, DomainPoint, Rect};
use il_region::{
    domain_intersection, domains_overlap, overlap_volume, Disjointness, FieldId, FieldKind,
    FieldSpaceDesc, FieldStore, PhysicalInstance, RegionForest, ReductionKind,
};
use il_testkit::prop::{check, f64s, i64s, map, one_of, vec_of, OneOf};
use il_testkit::{check_with, prop_assert, prop_assert_eq, Config, TestRng};
use std::collections::BTreeSet;

/// A small 1-D domain: either a dense interval or a sparse point set.
fn domain1() -> OneOf<Domain> {
    one_of(vec![
        Box::new(map((i64s(0..30), i64s(0..12)), |(lo, len)| {
            Domain::Rect1(Rect::new1(lo, lo + len))
        })),
        Box::new(map(vec_of(i64s(0..40), 1..10), |vals| {
            let set: BTreeSet<i64> = vals.into_iter().collect();
            Domain::sparse(set.into_iter().map(DomainPoint::new1).collect())
        })),
    ])
}

/// Overlap predicates and volumes agree with point enumeration.
#[test]
fn overlap_matches_enumeration() {
    check("overlap_matches_enumeration", &(domain1(), domain1()), |(a, b)| {
        let shared: Vec<DomainPoint> = a.iter().filter(|p| b.contains(*p)).collect();
        prop_assert_eq!(domains_overlap(a, b), !shared.is_empty());
        prop_assert_eq!(overlap_volume(a, b), shared.len() as u64);
        prop_assert_eq!(overlap_volume(a, b), overlap_volume(b, a));
        match domain_intersection(a, b) {
            None => prop_assert!(shared.is_empty()),
            Some(i) => {
                let mut got: Vec<DomainPoint> = i.iter().collect();
                let mut want = shared;
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
        Ok(())
    });
}

/// `spaces_disjoint` is exact for arbitrary colorings: it answers
/// true iff the domains share no point.
#[test]
fn spaces_disjoint_is_exact() {
    check("spaces_disjoint_is_exact", &vec_of(domain1(), 2..6), |doms| {
        let mut forest = RegionForest::new();
        let fs = forest.create_field_space(FieldSpaceDesc::new());
        let region = forest.create_region(Domain::range(64), fs);
        let coloring: Vec<(DomainPoint, Domain)> = doms
            .iter()
            .enumerate()
            .map(|(i, d)| (DomainPoint::new1(i as i64), d.clone()))
            .collect();
        let p = forest.create_partition(
            region.space,
            Domain::range(doms.len() as i64),
            coloring,
            Disjointness::Compute,
        );
        // Partition disjointness flag agrees with pairwise overlap.
        let any_overlap = (0..doms.len())
            .any(|i| (i + 1..doms.len()).any(|j| domains_overlap(&doms[i], &doms[j])));
        prop_assert_eq!(forest.is_disjoint(p), !any_overlap);
        // Space-level queries are exact.
        for i in 0..doms.len() {
            for j in 0..doms.len() {
                let si = forest.subspace(p, DomainPoint::new1(i as i64));
                let sj = forest.subspace(p, DomainPoint::new1(j as i64));
                let disjoint = forest.spaces_disjoint(si, sj);
                if i == j {
                    prop_assert_eq!(disjoint, doms[i].is_empty());
                } else {
                    prop_assert_eq!(disjoint, !domains_overlap(&doms[i], &doms[j]));
                }
            }
        }
        Ok(())
    });
}

/// copy_from moves exactly the overlap; fold_from is additive and
/// commutative across producers.
#[test]
fn instance_copy_and_fold() {
    let gen = (vec_of(f64s(-100.0..100.0), 10..11), i64s(0..5), i64s(0..6));
    check("instance_copy_and_fold", &gen, |(vals, lo, len)| {
        let (lo, len) = (*lo, *len);
        let mut fsd = FieldSpaceDesc::new();
        let f = fsd.add("x", FieldKind::F64);
        let whole: Domain = Rect::new1(0, 9).into();
        let mut src = PhysicalInstance::new(whole.clone(), &fsd, &[]);
        let mut dst = PhysicalInstance::new(whole.clone(), &fsd, &[]);
        for (i, v) in vals.iter().enumerate() {
            src.set(f, DomainPoint::new1(i as i64), *v);
        }
        let window: Domain = Rect::new1(lo, (lo + len).min(9)).into();
        dst.copy_from(&src, &window, &[f]);
        for i in 0..10i64 {
            let got: f64 = dst.get(f, DomainPoint::new1(i));
            if window.contains(DomainPoint::new1(i)) {
                prop_assert_eq!(got, vals[i as usize]);
            } else {
                prop_assert_eq!(got, 0.0);
            }
        }
        // Fold twice = add twice.
        let mut acc = PhysicalInstance::new(whole.clone(), &fsd, &[]);
        acc.fold_from(&src, &window, &[f], ReductionKind::Sum);
        acc.fold_from(&src, &window, &[f], ReductionKind::Sum);
        for p in window.iter() {
            let got: f64 = acc.get(f, p);
            prop_assert!((got - 2.0 * vals[p.x() as usize]).abs() < 1e-12);
        }
        Ok(())
    });
}

/// The per-element copy `copy_from` ran before it moved row runs, kept
/// as the reference for `instance_transfer_equals_pointwise`.
fn copy_element(d: &mut FieldStore, di: usize, s: &FieldStore, si: usize) {
    match (d, s) {
        (FieldStore::F64(d), FieldStore::F64(s)) => d[di] = s[si],
        (FieldStore::F32(d), FieldStore::F32(s)) => d[di] = s[si],
        (FieldStore::I64(d), FieldStore::I64(s)) => d[di] = s[si],
        (FieldStore::I32(d), FieldStore::I32(s)) => d[di] = s[si],
        (FieldStore::U64(d), FieldStore::U64(s)) => d[di] = s[si],
        (FieldStore::U32(d), FieldStore::U32(s)) => d[di] = s[si],
        (d, s) => panic!("field kind mismatch in copy: {:?} vs {:?}", d.kind(), s.kind()),
    }
}

/// The per-element fold `fold_from` ran before row runs (reference).
fn fold_element(d: &mut FieldStore, di: usize, s: &FieldStore, si: usize, kind: ReductionKind) {
    match (d, s) {
        (FieldStore::F64(d), FieldStore::F64(s)) => d[di] = kind.fold_f64(d[di], s[si]),
        (FieldStore::F32(d), FieldStore::F32(s)) => d[di] = kind.fold_f32(d[di], s[si]),
        (FieldStore::I64(d), FieldStore::I64(s)) => d[di] = kind.fold_i64(d[di], s[si]),
        (FieldStore::I32(d), FieldStore::I32(s)) => {
            d[di] = kind.fold_i64(d[di] as i64, s[si] as i64) as i32
        }
        (FieldStore::U64(d), FieldStore::U64(s)) => {
            d[di] = kind.fold_i64(d[di] as i64, s[si] as i64) as u64
        }
        (FieldStore::U32(d), FieldStore::U32(s)) => {
            d[di] = kind.fold_i64(d[di] as i64, s[si] as i64) as u32
        }
        (d, s) => panic!("field kind mismatch in fold: {:?} vs {:?}", d.kind(), s.kind()),
    }
}

fn rect_domain(dim: usize, lo: [i64; 3], hi: [i64; 3]) -> Domain {
    match dim {
        1 => Rect::new1(lo[0], hi[0]).into(),
        2 => Rect::new2((lo[0], lo[1]), (hi[0], hi[1])).into(),
        _ => Rect::new3((lo[0], lo[1], lo[2]), (hi[0], hi[1], hi[2])).into(),
    }
}

/// A random instance domain whose bounding box is exactly `[lo, hi]`:
/// the rectangle, or a sparse subset of it holding both corners.
fn instance_domain(rng: &mut TestRng, dim: usize, lo: [i64; 3], hi: [i64; 3]) -> Domain {
    let rect = rect_domain(dim, lo, hi);
    if rng.gen_bool(0.5) {
        return rect;
    }
    let corners = [DomainPoint::from_slice(&lo[..dim]), DomainPoint::from_slice(&hi[..dim])];
    let mut pts: Vec<DomainPoint> =
        rect.iter().filter(|p| corners.contains(p) || rng.gen_bool(0.4)).collect();
    pts.dedup();
    Domain::sparse(pts)
}

/// Random bits in every slot of every field (finite floats).
fn fill_random(inst: &mut PhysicalInstance, rng: &mut TestRng) {
    let ids: Vec<FieldId> = inst.field_ids().collect();
    for f in ids {
        match inst.store(f).kind() {
            FieldKind::F64 => inst.field_mut::<f64>(f).iter_mut().for_each(|v| *v = rng.gen_range_f64(-100.0, 100.0)),
            FieldKind::F32 => inst.field_mut::<f32>(f).iter_mut().for_each(|v| *v = rng.gen_range_f64(-100.0, 100.0) as f32),
            FieldKind::I64 => inst.field_mut::<i64>(f).iter_mut().for_each(|v| *v = rng.next_u64() as i64),
            FieldKind::I32 => inst.field_mut::<i32>(f).iter_mut().for_each(|v| *v = rng.next_u64() as i32),
            FieldKind::U64 => inst.field_mut::<u64>(f).iter_mut().for_each(|v| *v = rng.next_u64()),
            FieldKind::U32 => inst.field_mut::<u32>(f).iter_mut().for_each(|v| *v = rng.next_u64() as u32),
        }
    }
}

/// `copy_from` / `fold_from` (row runs, one implementation) move exactly
/// what the per-point loop moved: random rect and sparse windows of
/// ranks 1–3 inside source and destination instances with different
/// bounding boxes (rect or sparse domains), explicit and empty field
/// lists over all six kinds, copy and all four reductions. Stores are
/// compared bitwise, and every slot outside the window is untouched.
#[test]
fn instance_transfer_equals_pointwise() {
    const KINDS: [FieldKind; 6] =
        [FieldKind::F64, FieldKind::F32, FieldKind::I64, FieldKind::I32, FieldKind::U64, FieldKind::U32];
    const OPS: [Option<ReductionKind>; 5] = [
        None,
        Some(ReductionKind::Sum),
        Some(ReductionKind::Prod),
        Some(ReductionKind::Min),
        Some(ReductionKind::Max),
    ];
    // One opaque seed per case builds the whole scenario.
    let config = Config::from_env("instance_transfer_equals_pointwise").with_cases(400);
    check_with(config, &i64s(0..1 << 48), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed as u64);
        let dim = rng.gen_range_usize(1, 4);
        let mut fsd = FieldSpaceDesc::new();
        let all: Vec<FieldId> =
            KINDS.iter().enumerate().map(|(i, k)| fsd.add(&format!("f{i}"), *k)).collect();
        // The window lies in the box [wlo, whi]; each instance's box is
        // it grown by its own random margins.
        let (mut wlo, mut whi) = ([0i64; 3], [0i64; 3]);
        for d in 0..dim {
            wlo[d] = rng.gen_range_i64(-4, 4);
            whi[d] = wlo[d] + rng.gen_range_i64(0, 5);
        }
        let grown = |rng: &mut TestRng| {
            let (mut lo, mut hi) = (wlo, whi);
            for d in 0..dim {
                lo[d] -= rng.gen_range_i64(0, 3);
                hi[d] += rng.gen_range_i64(0, 3);
            }
            (lo, hi)
        };
        let ((dlo, dhi), (slo, shi)) = (grown(&mut rng), grown(&mut rng));
        let subset = |rng: &mut TestRng| -> Vec<FieldId> {
            let s: Vec<FieldId> = all.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
            if s.is_empty() { vec![all[rng.gen_range_usize(0, 6)]] } else { s }
        };
        let dst_fields = if rng.gen_bool(0.5) { vec![] } else { subset(&mut rng) };
        let src_fields = if rng.gen_bool(0.5) { vec![] } else { subset(&mut rng) };
        let mut dst = PhysicalInstance::new(instance_domain(&mut rng, dim, dlo, dhi), &fsd, &dst_fields);
        let mut src = PhysicalInstance::new(instance_domain(&mut rng, dim, slo, shi), &fsd, &src_fields);
        fill_random(&mut dst, &mut rng);
        fill_random(&mut src, &mut rng);
        // Window: a random sub-rectangle of the box, or a random subset
        // of its points in random order.
        let window = if rng.gen_bool(0.5) {
            let (mut lo, mut hi) = (wlo, whi);
            for d in 0..dim {
                lo[d] = rng.gen_range_i64(wlo[d], whi[d] + 1);
                hi[d] = rng.gen_range_i64(lo[d], whi[d] + 1);
            }
            rect_domain(dim, lo, hi)
        } else {
            let mut pts: Vec<DomainPoint> = rect_domain(dim, wlo, whi).iter().collect();
            for i in (1..pts.len()).rev() {
                pts.swap(i, rng.gen_range_usize(0, i + 1));
            }
            pts.truncate(rng.gen_range_usize(1, pts.len() + 1));
            Domain::sparse(pts)
        };
        let shared: Vec<FieldId> = dst.field_ids().filter(|f| src.has_field(*f)).collect();
        let fields: Vec<FieldId> = if shared.is_empty() || rng.gen_bool(0.5) {
            vec![]
        } else {
            shared.iter().copied().filter(|_| rng.gen_bool(0.5)).collect()
        };
        let op = OPS[rng.gen_range_usize(0, OPS.len())];
        // Reference: the per-point loop over cloned stores.
        let moved: &[FieldId] = if fields.is_empty() { &shared } else { &fields };
        let mut want: Vec<FieldStore> = moved.iter().map(|&f| dst.store(f).clone()).collect();
        for p in window.iter() {
            let (di, si) = (dst.index_of(p), src.index_of(p));
            for (k, &f) in moved.iter().enumerate() {
                match op {
                    None => copy_element(&mut want[k], di, src.store(f), si),
                    Some(kind) => fold_element(&mut want[k], di, src.store(f), si, kind),
                }
            }
        }
        let before = dst.clone();
        match op {
            None => dst.copy_from(&src, &window, &fields),
            Some(kind) => dst.fold_from(&src, &window, &fields, kind),
        }
        for (k, &f) in moved.iter().enumerate() {
            prop_assert!(dst.store(f) == &want[k], "field {f:?} {op:?} over {window:?}");
        }
        let touched: BTreeSet<usize> = window.iter().map(|p| dst.index_of(p)).collect();
        for f in dst.field_ids() {
            let (a, b) = (dst.store(f), before.store(f));
            for i in (0..a.len()).filter(|i| !moved.contains(&f) || !touched.contains(i)) {
                prop_assert_eq!(a.bits_at(i), b.bits_at(i));
            }
        }
        Ok(())
    });
}

/// Min/Max folds are idempotent and order-insensitive.
#[test]
fn min_max_fold_laws() {
    check("min_max_fold_laws", &(i64s(-50..50), i64s(-50..50)), |&(a, b)| {
        for kind in [ReductionKind::Min, ReductionKind::Max] {
            let ab = kind.fold_i64(kind.fold_i64(kind.identity_i64(), a), b);
            let ba = kind.fold_i64(kind.fold_i64(kind.identity_i64(), b), a);
            prop_assert_eq!(ab, ba);
            prop_assert_eq!(kind.fold_i64(ab, ab), ab);
        }
        Ok(())
    });
}

mod bvh_props {
    use il_geometry::DomainPoint;
    use il_region::{BBox, BvhSet};
    use il_testkit::prop::{check, i64s, vec_of};
    use il_testkit::prop_assert_eq;

    /// BVH queries return exactly the brute-force overlap set, across
    /// rebuild boundaries.
    #[test]
    fn bvh_query_equals_bruteforce() {
        let gen = (
            vec_of((i64s(-100..100), i64s(0..30), i64s(-100..100), i64s(0..30)), 1..150),
            (i64s(-120..120), i64s(0..50), i64s(-120..120), i64s(0..50)),
        );
        check("bvh_query_equals_bruteforce", &gen, |(boxes, q)| {
            let mut set = BvhSet::new();
            let items: Vec<BBox> = boxes
                .iter()
                .map(|&(x, w, y, h)| {
                    BBox::new(DomainPoint::new2(x, y), DomainPoint::new2(x + w, y + h))
                })
                .collect();
            for (i, b) in items.iter().enumerate() {
                set.insert(*b, i);
            }
            let query = BBox::new(
                DomainPoint::new2(q.0, q.2),
                DomainPoint::new2(q.0 + q.1, q.2 + q.3),
            );
            let mut got = Vec::new();
            set.query(&query, &mut got);
            got.sort_unstable();
            let want: Vec<usize> = items
                .iter()
                .enumerate()
                .filter(|(_, b)| b.overlaps(&query))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, want);
            Ok(())
        });
    }
}
