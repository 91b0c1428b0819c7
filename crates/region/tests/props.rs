//! Property tests for the region data model: disjointness queries,
//! overlap volumes, intersections, partition color tables, and instance
//! copy/fold semantics.
//! Runs on the hermetic `il-testkit` harness; note `one_of`/`map`
//! generators do not shrink, so failures report the original input.

use il_geometry::{Domain, DomainPoint, Rect};
use il_region::{
    block_partition_2d, block_partition_3d, domain_intersection, domains_overlap,
    equal_partition_1d, halo_partition_1d, halo_partition_2d, halo_partition_3d, overlap_volume,
    replace_equal_partition_1d, replace_halo_partition_1d, try_block_partition_2d,
    try_block_partition_3d, try_equal_partition_1d, try_halo_partition_1d, try_halo_partition_2d,
    try_halo_partition_3d, Disjointness, FieldId, FieldKind, FieldSpaceDesc, FieldStore,
    IndexPartitionId, IndexPartitionNode, IndexSpaceId, PartitionError, PhysicalInstance,
    RegionForest, ReductionKind,
};
use il_testkit::prop::{check, f64s, i64s, map, one_of, vec_of, OneOf};
use il_testkit::{check_with, prop_assert, prop_assert_eq, Config, TestRng};
use std::collections::{BTreeMap, BTreeSet};

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

/// A duplicate-free `dim`-D point list from `raw`, ascending, or shuffled
/// by `rng` when `shuffle` is set.
fn point_list(dim: usize, raw: &[(i64, i64, i64)], shuffle: bool, rng: &mut TestRng) -> Vec<DomainPoint> {
    let set: BTreeSet<DomainPoint> =
        raw.iter().map(|&(x, y, z)| DomainPoint::from_slice(&[x, y, z][..dim])).collect();
    let mut points: Vec<DomainPoint> = set.into_iter().collect();
    if shuffle {
        for i in (1..points.len()).rev() {
            points.swap(i, rng.gen_range_usize(0, i + 1));
        }
    }
    points
}

/// On sorted and shuffled 1–3-D point lists, `contains`,
/// `domains_overlap`, `overlap_volume` and `domain_intersection` agree
/// with a linear scan of the lists (`slice::contains`), against a sparse
/// and against a dense domain, and the intersection keeps the first
/// domain's order.
#[test]
fn sparse_lookups_match_a_linear_scan() {
    let raw = || vec_of((i64s(0..5), i64s(0..5), i64s(0..5)), 1..30);
    let gen = (i64s(1..4), raw(), raw(), i64s(0..1 << 16));
    check("sparse_lookups_match_a_linear_scan", &gen, |(dim, ra, rb, seed)| {
        let dim = *dim as usize;
        let mut rng = TestRng::seed_from_u64(*seed as u64);
        let pa = point_list(dim, ra, seed & 1 == 1, &mut rng);
        let pb = point_list(dim, rb, seed & 2 == 2, &mut rng);
        let (a, b) = (Domain::sparse(pa.clone()), Domain::sparse(pb.clone()));
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), pa.clone());
        for x in -1..6 {
            for y in -1..6 {
                for z in -1..6 {
                    let p = DomainPoint::from_slice(&[x, y, z][..dim]);
                    prop_assert_eq!(a.contains(p), pa.contains(&p));
                }
            }
        }
        prop_assert!(!a.contains(DomainPoint::from_slice(&[0, 0, 0, 0][..dim % 3 + 1])));
        let lo = DomainPoint::from_slice(&[1, 1, 1][..dim]);
        let hi = DomainPoint::from_slice(&[3, 3, 3][..dim]);
        let dense = match dim {
            1 => Domain::Rect1(Rect::new1(1, 3)),
            2 => Domain::Rect2(Rect::new2((1, 1), (3, 3))),
            _ => Domain::Rect3(Rect::new3((1, 1, 1), (3, 3, 3))),
        };
        let in_box = |p: &DomainPoint| (0..dim).all(|d| (lo.coord(d)..=hi.coord(d)).contains(&p.coord(d)));
        let cases: [(&Domain, Vec<DomainPoint>); 2] = [
            (&b, pa.iter().copied().filter(|&p| pb.contains(&p)).collect()),
            (&dense, pa.iter().copied().filter(in_box).collect()),
        ];
        for (other, shared) in cases {
            prop_assert_eq!(domains_overlap(&a, other), !shared.is_empty());
            prop_assert_eq!(domains_overlap(other, &a), !shared.is_empty());
            prop_assert_eq!(overlap_volume(&a, other), shared.len() as u64);
            prop_assert_eq!(overlap_volume(other, &a), shared.len() as u64);
            let got = domain_intersection(&a, other).map(|i| i.iter().collect::<Vec<_>>());
            prop_assert_eq!(got.unwrap_or_default(), shared);
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

/// The reference a partition's color table is checked against.
type ColorModel = BTreeMap<DomainPoint, IndexSpaceId>;

/// A random `dim`-D box of at most four colors a side, around the origin.
fn color_box(rng: &mut TestRng, dim: usize) -> Domain {
    let (mut lo, mut hi) = ([0i64; 3], [0i64; 3]);
    for d in 0..dim {
        lo[d] = rng.gen_range_i64(-3, 3);
        hi[d] = lo[d] + rng.gen_range_i64(0, 4);
    }
    rect_domain(dim, lo, hi)
}

/// A random coloring of the box `[0, 7]^dim` by colors of `colors`: all
/// of them (dense) or a random subset (sparse), in random order, each with
/// a random sub-rectangle. With `faults`, each with probability 1/8, one
/// color is repeated and one subspace escapes the box.
fn random_coloring(
    rng: &mut TestRng,
    dim: usize,
    colors: &Domain,
    faults: bool,
) -> Vec<(DomainPoint, Domain)> {
    let dense = rng.gen_bool(0.5);
    let mut picked: Vec<DomainPoint> = colors.iter().filter(|_| dense || rng.gen_bool(0.3)).collect();
    for i in (1..picked.len()).rev() {
        picked.swap(i, rng.gen_range_usize(0, i + 1));
    }
    let sub_rect = |rng: &mut TestRng| {
        let (mut lo, mut hi) = ([0i64; 3], [0i64; 3]);
        for d in 0..dim {
            lo[d] = rng.gen_range_i64(0, 8);
            hi[d] = rng.gen_range_i64(lo[d], 8);
        }
        rect_domain(dim, lo, hi)
    };
    let mut coloring: Vec<(DomainPoint, Domain)> =
        picked.into_iter().map(|c| (c, sub_rect(rng))).collect();
    if faults && !coloring.is_empty() {
        if rng.gen_bool(0.125) {
            let color = coloring[rng.gen_range_usize(0, coloring.len())].0;
            let at = rng.gen_range_usize(0, coloring.len() + 1);
            let sub = sub_rect(rng);
            coloring.insert(at, (color, sub));
        }
        if rng.gen_bool(0.125) {
            let at = rng.gen_range_usize(0, coloring.len());
            coloring[at].1 = rect_domain(dim, [0; 3], [8; 3]);
        }
    }
    coloring
}

/// What the forest must refuse `coloring` of `parent` for: the first
/// entry, in coloring order, whose subspace escapes or whose color
/// repeats an earlier one.
fn expected_error(parent: &Domain, coloring: &[(DomainPoint, Domain)]) -> Option<PartitionError> {
    let mut seen = BTreeSet::new();
    for (color, sub) in coloring {
        if !sub.iter().all(|p| parent.contains(p)) {
            return Some(PartitionError::EscapesParent { color: *color });
        }
        if !seen.insert(*color) {
            return Some(PartitionError::DuplicateColor { color: *color });
        }
    }
    None
}

/// The partition's color table holds exactly `model`: length, iteration
/// order, values, every lookup over `probes`, and each subspace's color.
fn table_matches(
    forest: &RegionForest,
    p: IndexPartitionId,
    model: &ColorModel,
    probes: &[DomainPoint],
) -> Result<(), String> {
    let table = &forest.partition(p).children;
    prop_assert_eq!(table.len(), model.len());
    let want: Vec<(DomainPoint, IndexSpaceId)> = model.iter().map(|(c, s)| (*c, *s)).collect();
    prop_assert_eq!(table.iter().collect::<Vec<_>>(), want);
    prop_assert_eq!(table.values().collect::<Vec<_>>(), model.values().copied().collect::<Vec<_>>());
    for probe in probes {
        let (got, want) = (forest.try_subspace(p, *probe), model.get(probe).copied());
        prop_assert!(got == want, "probe {probe:?}: {got:?}, want {want:?}");
    }
    for (color, space) in model {
        prop_assert_eq!(forest.color_of(*space), Some(*color));
    }
    Ok(())
}

/// A partition's sorted color table answers like a `BTreeMap` from color
/// to subspace, through creation and in-place replacement: random 1-, 2-
/// and 3-D colorings, dense and sparse, inserted in random order, some
/// with a repeated color or an escaping subspace, some replacing a color
/// whose subspace has a nested partition. Lookups hit and miss alike
/// (probes cover both color boxes and a margin, plus points of the other
/// ranks), iteration runs in color order, retained colors keep their
/// subspace, dropped ones read as empty and colorless, and a refused
/// request leaves the table as it was.
#[test]
fn color_table_matches_a_btreemap() {
    let config = Config::from_env("color_table_matches_a_btreemap").with_cases(200);
    check_with(config, &i64s(0..1 << 48), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed as u64);
        let dim = rng.gen_range_usize(1, 4);
        let mut forest = RegionForest::new();
        let fs = forest.create_field_space(FieldSpaceDesc::new());
        let root = forest.create_region(rect_domain(dim, [0; 3], [7; 3]), fs).space;
        let parent = forest.domain(root).clone();
        let mut probes: Vec<DomainPoint> = rect_domain(dim, [-4; 3], [7; 3]).iter().collect();
        probes.extend([DomainPoint::new1(0), DomainPoint::new2(0, 0), DomainPoint::new3(0, 0, 0)]);

        // Create, and on a refusal, create again from a well-formed coloring.
        let colors = color_box(&mut rng, dim);
        let mut coloring = random_coloring(&mut rng, dim, &colors, true);
        let created =
            forest.try_create_partition(root, colors.clone(), coloring.clone(), Disjointness::Aliased);
        prop_assert_eq!(created.clone().err(), expected_error(&parent, &coloring));
        let p = match created {
            Ok(p) => p,
            Err(_) => {
                prop_assert!(forest.num_spaces() == 1, "a refused coloring made subspaces");
                coloring = random_coloring(&mut rng, dim, &colors, false);
                forest.create_partition(root, colors, coloring.clone(), Disjointness::Aliased)
            }
        };
        // Subspace ids follow the coloring's order.
        let mut model: ColorModel = coloring
            .iter()
            .enumerate()
            .map(|(i, (c, _))| (*c, IndexSpaceId(1 + i as u32)))
            .collect();
        table_matches(&forest, p, &model, &probes)?;

        // Sometimes nest a partition under one subspace, so dropping its
        // color must be refused.
        let nested = match model.iter().nth(rng.gen_range_usize(0, model.len().max(1))) {
            Some((&color, &space)) if rng.gen_bool(0.3) => {
                let whole = vec![(DomainPoint::new1(0), forest.domain(space).clone())];
                forest.create_partition(space, Domain::range(1), whole, Disjointness::Disjoint);
                Some(color)
            }
            _ => None,
        };

        // Replace in place under a new color box.
        let colors = color_box(&mut rng, dim);
        let coloring = random_coloring(&mut rng, dim, &colors, true);
        let kept = |color: &DomainPoint| coloring.iter().any(|(c, _)| c == color);
        let want_err = expected_error(&parent, &coloring).or_else(|| {
            nested.filter(|c| !kept(c)).map(|color| PartitionError::WouldOrphanSubtree { color })
        });
        let mut next = forest.num_spaces() as u32;
        let replaced = forest.replace_partition(p, colors, coloring.clone(), Disjointness::Aliased);
        prop_assert_eq!(replaced.err(), want_err);
        if want_err.is_some() {
            return table_matches(&forest, p, &model, &probes);
        }
        let old = std::mem::take(&mut model);
        for (color, sub) in &coloring {
            let space = old.get(color).copied().unwrap_or_else(|| {
                next += 1;
                IndexSpaceId(next - 1)
            });
            model.insert(*color, space);
            prop_assert_eq!(forest.domain(space), sub);
        }
        prop_assert_eq!(forest.num_spaces() as u32, next);
        for (color, space) in old.iter().filter(|(c, _)| !kept(c)) {
            prop_assert!(forest.domain(*space).is_empty(), "dropped color {color:?} keeps points");
            prop_assert_eq!(forest.color_of(*space), None);
        }
        table_matches(&forest, p, &model, &probes)
    });
}

/// The six per-rank colorings the shaped operators were built from,
/// kept verbatim as the reference for their rank-generic tiler.
mod per_rank {
    use il_geometry::{Domain, DomainPoint, Rect};
    use il_region::PartitionError;

    fn wrong_shape(expected: &'static str, found: &Domain) -> PartitionError {
        PartitionError::WrongShape {
            expected,
            found: format!("{found:?}"),
        }
    }

    /// Equal 1-D block coloring of `domain`: `(color_space, coloring)` or an
    /// error if the domain is not a dense 1-D rectangle.
    pub fn equal_coloring_1d(
        domain: &Domain,
        parts: usize,
    ) -> Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError> {
        let Domain::Rect1(rect) = domain else {
            return Err(wrong_shape("dense 1-D", domain));
        };
        let coloring = split(rect, parts)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (DomainPoint::new1(i as i64), Domain::Rect1(r)))
            .collect();
        Ok((Domain::range(parts as i64), coloring))
    }

    pub fn block_coloring_2d(
        domain: &Domain,
        tiles: (usize, usize),
    ) -> Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError> {
        let Domain::Rect2(rect) = domain else {
            return Err(wrong_shape("dense 2-D", domain));
        };
        let rows = split_dim(rect, 0, tiles.0);
        let mut coloring = Vec::with_capacity(tiles.0 * tiles.1);
        for (i, row) in rows.iter().enumerate() {
            // Split the other dimension: transpose trick — split() picks the
            // longest dim, so split columns explicitly.
            let cols = split_dim(row, 1, tiles.1);
            for (j, tile) in cols.into_iter().enumerate() {
                coloring.push((DomainPoint::new2(i as i64, j as i64), Domain::Rect2(tile)));
            }
        }
        let color_space = Domain::Rect2(Rect::new2(
            (0, 0),
            (tiles.0 as i64 - 1, tiles.1 as i64 - 1),
        ));
        Ok((color_space, coloring))
    }

    pub fn block_coloring_3d(
        domain: &Domain,
        tiles: (usize, usize, usize),
    ) -> Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError> {
        let Domain::Rect3(rect) = domain else {
            return Err(wrong_shape("dense 3-D", domain));
        };
        let xs = split_dim(rect, 0, tiles.0);
        let mut coloring = Vec::with_capacity(tiles.0 * tiles.1 * tiles.2);
        for (i, x) in xs.iter().enumerate() {
            let ys = split_dim(x, 1, tiles.1);
            for (j, y) in ys.iter().enumerate() {
                let zs = split_dim(y, 2, tiles.2);
                for (k, tile) in zs.into_iter().enumerate() {
                    coloring.push((
                        DomainPoint::new3(i as i64, j as i64, k as i64),
                        Domain::Rect3(tile),
                    ));
                }
            }
        }
        let color_space = Domain::Rect3(Rect::new3(
            (0, 0, 0),
            (tiles.0 as i64 - 1, tiles.1 as i64 - 1, tiles.2 as i64 - 1),
        ));
        Ok((color_space, coloring))
    }

    pub fn halo_coloring_2d(
        domain: &Domain,
        tiles: (usize, usize),
        radius: i64,
    ) -> Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError> {
        let Domain::Rect2(bounds) = domain else {
            return Err(wrong_shape("dense 2-D", domain));
        };
        let rows = split_dim(bounds, 0, tiles.0);
        let mut coloring = Vec::with_capacity(tiles.0 * tiles.1);
        for (i, row) in rows.iter().enumerate() {
            for (j, tile) in split_dim(row, 1, tiles.1).into_iter().enumerate() {
                let grown = Rect::new2(
                    (
                        (tile.lo[0] - radius).max(bounds.lo[0]),
                        (tile.lo[1] - radius).max(bounds.lo[1]),
                    ),
                    (
                        (tile.hi[0] + radius).min(bounds.hi[0]),
                        (tile.hi[1] + radius).min(bounds.hi[1]),
                    ),
                );
                coloring.push((DomainPoint::new2(i as i64, j as i64), Domain::Rect2(grown)));
            }
        }
        let color_space = Domain::Rect2(Rect::new2(
            (0, 0),
            (tiles.0 as i64 - 1, tiles.1 as i64 - 1),
        ));
        Ok((color_space, coloring))
    }

    pub fn halo_coloring_3d(
        domain: &Domain,
        tiles: (usize, usize, usize),
        radius: i64,
    ) -> Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError> {
        let Domain::Rect3(bounds) = domain else {
            return Err(wrong_shape("dense 3-D", domain));
        };
        let xs = split_dim(bounds, 0, tiles.0);
        let mut coloring = Vec::with_capacity(tiles.0 * tiles.1 * tiles.2);
        for (i, x) in xs.iter().enumerate() {
            for (j, y) in split_dim(x, 1, tiles.1).iter().enumerate() {
                for (k, tile) in split_dim(y, 2, tiles.2).into_iter().enumerate() {
                    let grown = Rect::new3(
                        (
                            (tile.lo[0] - radius).max(bounds.lo[0]),
                            (tile.lo[1] - radius).max(bounds.lo[1]),
                            (tile.lo[2] - radius).max(bounds.lo[2]),
                        ),
                        (
                            (tile.hi[0] + radius).min(bounds.hi[0]),
                            (tile.hi[1] + radius).min(bounds.hi[1]),
                            (tile.hi[2] + radius).min(bounds.hi[2]),
                        ),
                    );
                    coloring.push((
                        DomainPoint::new3(i as i64, j as i64, k as i64),
                        Domain::Rect3(grown),
                    ));
                }
            }
        }
        let color_space = Domain::Rect3(Rect::new3(
            (0, 0, 0),
            (tiles.0 as i64 - 1, tiles.1 as i64 - 1, tiles.2 as i64 - 1),
        ));
        Ok((color_space, coloring))
    }

    pub fn halo_coloring_1d(
        domain: &Domain,
        parts: usize,
        radius: i64,
    ) -> Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError> {
        let Domain::Rect1(bounds) = domain else {
            return Err(wrong_shape("dense 1-D", domain));
        };
        let coloring = split(bounds, parts)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let grown = Rect::new1(
                    (r.lo[0] - radius).max(bounds.lo[0]),
                    (r.hi[0] + radius).min(bounds.hi[0]),
                );
                (DomainPoint::new1(i as i64), Domain::Rect1(grown))
            })
            .collect();
        Ok((Domain::range(parts as i64), coloring))
    }

    /// Split `rect` into `parts` pieces along dimension `dim` specifically.
    fn split_dim<const N: usize>(rect: &Rect<N>, dim: usize, parts: usize) -> Vec<Rect<N>> {
        let extent = rect.extent(dim);
        if extent == 0 {
            return vec![];
        }
        let parts = parts.clamp(1, extent as usize);
        let base = extent / parts as u64;
        let rem = extent % parts as u64;
        let mut out = Vec::with_capacity(parts);
        let mut lo = rect.lo[dim];
        for i in 0..parts {
            let len = base + u64::from((i as u64) < rem);
            let hi = lo + len as i64 - 1;
            let mut piece = *rect;
            piece.lo[dim] = lo;
            piece.hi[dim] = hi;
            out.push(piece);
            lo = hi + 1;
        }
        out
    }

    /// `Rect::split`: `parts` blocks along the longest dimension.
    fn split<const N: usize>(rect: &Rect<N>, parts: usize) -> Vec<Rect<N>> {
        if rect.is_empty() || parts <= 1 {
            return if rect.is_empty() { vec![] } else { vec![*rect] };
        }
        // Pick the dimension with the largest extent.
        let dim = (0..N)
            .max_by_key(|&d| rect.extent(d))
            .expect("rank >= 1");
        let extent = rect.extent(dim);
        let parts = parts.min(extent as usize).max(1);
        let mut out = Vec::with_capacity(parts);
        let base = extent / parts as u64;
        let rem = extent % parts as u64;
        let mut lo = rect.lo[dim];
        for i in 0..parts {
            let len = base + if (i as u64) < rem { 1 } else { 0 };
            let hi = lo + len as i64 - 1;
            let mut piece = *rect;
            piece.lo[dim] = lo;
            piece.hi[dim] = hi;
            out.push(piece);
            lo = hi + 1;
        }
        out
    }
}

/// The outcome of one partitioning request, and the forest it left.
type Outcome = (Result<IndexPartitionId, PartitionError>, RegionForest);

/// A partitioning operator under test, applied to a space of a forest.
type Op = Box<dyn Fn(&mut RegionForest, IndexSpaceId) -> Result<IndexPartitionId, PartitionError>>;

/// A per-rank coloring: the color space and each color's subspace.
type Reference = Result<(Domain, Vec<(DomainPoint, Domain)>), PartitionError>;

/// A forest holding a field space and one index space over `domain`.
fn forest_over(domain: &Domain) -> (RegionForest, IndexSpaceId) {
    let mut forest = RegionForest::new();
    forest.create_field_space(FieldSpaceDesc::new());
    let space = forest.create_index_space(domain.clone());
    (forest, space)
}

/// Two requests left the same forest: the same result, the same number of
/// spaces, and for a partition the same color space, colors in table
/// order with the same subspace ids, subspace domains and disjointness.
fn same_outcome(got: &Outcome, want: &Outcome) -> Result<(), String> {
    let ((got, a), (want, b)) = (got, want);
    prop_assert_eq!(got, want);
    prop_assert_eq!(a.num_spaces(), b.num_spaces());
    if let Ok(p) = got {
        let (pa, pb) = (a.partition(*p), b.partition(*p));
        prop_assert_eq!(&pa.color_space, &pb.color_space);
        let colors = |p: &IndexPartitionNode| p.children.iter().collect::<Vec<_>>();
        prop_assert_eq!(colors(pa), colors(pb));
        for space in pa.children.values() {
            prop_assert_eq!(a.domain(space), b.domain(space));
        }
        prop_assert_eq!(pa.disjoint, pb.disjoint);
    }
    Ok(())
}

/// Every shaped partitioning operator builds the partition the per-rank
/// colorings built: random dense rectangles of rank 1-3 (now and then an
/// empty or a sparse one), extents 1-40 per dimension, often below the
/// 1-9 tiles per dimension, and halo radii 0-3. Each operator runs on
/// every domain, so wrong ranks must fail with the same `WrongShape`;
/// the panicking forms run where the shape is right, and the two
/// replacements run over an existing equal partition.
#[test]
fn shaped_partitions_match_the_per_rank_colorings() {
    check("shaped_partitions_match_the_per_rank_colorings", &i64s(0..1 << 48), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed as u64);
        let dim = rng.gen_range_usize(1, 4);
        let (mut lo, mut hi, mut t) = ([0i64; 3], [0i64; 3], [0usize; 3]);
        for d in 0..dim {
            lo[d] = rng.gen_range_i64(-20, 20);
            hi[d] = lo[d] + rng.gen_range_i64(0, 40);
            t[d] = rng.gen_range_usize(1, 10);
        }
        if rng.gen_bool(1.0 / 16.0) {
            let d = rng.gen_range_usize(0, dim);
            hi[d] = lo[d] - 1;
        }
        let r = rng.gen_range_i64(0, 4);
        let domain = rect_domain(dim, lo, hi);
        let domain = if rng.gen_bool(0.125) && !domain.is_empty() {
            Domain::sparse(domain.iter().take(3).collect())
        } else {
            domain
        };
        let (t2, t3) = ((t[0], t[1]), (t[0], t[1], t[2]));

        let creates: Vec<(Op, Op, Reference, Disjointness)> = vec![
            (
                Box::new(move |f, s| try_equal_partition_1d(f, s, t[0])),
                Box::new(move |f, s| Ok(equal_partition_1d(f, s, t[0]))),
                per_rank::equal_coloring_1d(&domain, t[0]),
                Disjointness::Disjoint,
            ),
            (
                Box::new(move |f, s| try_halo_partition_1d(f, s, t[0], r)),
                Box::new(move |f, s| Ok(halo_partition_1d(f, s, t[0], r))),
                per_rank::halo_coloring_1d(&domain, t[0], r),
                Disjointness::Aliased,
            ),
            (
                Box::new(move |f, s| try_block_partition_2d(f, s, t2)),
                Box::new(move |f, s| Ok(block_partition_2d(f, s, t2))),
                per_rank::block_coloring_2d(&domain, t2),
                Disjointness::Disjoint,
            ),
            (
                Box::new(move |f, s| try_halo_partition_2d(f, s, t2, r)),
                Box::new(move |f, s| Ok(halo_partition_2d(f, s, t2, r))),
                per_rank::halo_coloring_2d(&domain, t2, r),
                Disjointness::Aliased,
            ),
            (
                Box::new(move |f, s| try_block_partition_3d(f, s, t3)),
                Box::new(move |f, s| Ok(block_partition_3d(f, s, t3))),
                per_rank::block_coloring_3d(&domain, t3),
                Disjointness::Disjoint,
            ),
            (
                Box::new(move |f, s| try_halo_partition_3d(f, s, t3, r)),
                Box::new(move |f, s| Ok(halo_partition_3d(f, s, t3, r))),
                per_rank::halo_coloring_3d(&domain, t3, r),
                Disjointness::Aliased,
            ),
        ];
        for (fallible, panicking, reference, disjointness) in creates {
            let (mut want, space) = forest_over(&domain);
            let result = reference.clone().and_then(|(colors, coloring)| {
                want.try_create_partition(space, colors, coloring, disjointness)
            });
            let want = (result, want);
            let (mut got, _) = forest_over(&domain);
            same_outcome(&(fallible(&mut got, space), got), &want)?;
            if reference.is_ok() {
                let (mut got, _) = forest_over(&domain);
                same_outcome(&(panicking(&mut got, space), got), &want)?;
            }
        }

        // Replacements, over an equal partition of the space into 1-9
        // blocks (or, off 1-D, a single color holding the whole space).
        let before = rng.gen_range_usize(1, 10);
        let initial = per_rank::equal_coloring_1d(&domain, before)
            .unwrap_or_else(|_| (Domain::range(1), vec![(DomainPoint::new1(0), domain.clone())]));
        let (mut base, space) = forest_over(&domain);
        let p = base.create_partition(space, initial.0, initial.1, Disjointness::Compute);
        let replaces: [(Reference, Disjointness, bool); 2] = [
            (per_rank::equal_coloring_1d(&domain, t[0]), Disjointness::Disjoint, false),
            (per_rank::halo_coloring_1d(&domain, t[0], r), Disjointness::Aliased, true),
        ];
        for (reference, disjointness, halo) in replaces {
            let mut want = base.clone();
            let result = reference.and_then(|(colors, coloring)| {
                want.replace_partition(p, colors, coloring, disjointness).map(|()| p)
            });
            let mut got = base.clone();
            let done = if halo {
                replace_halo_partition_1d(&mut got, p, t[0], r)
            } else {
                replace_equal_partition_1d(&mut got, p, t[0])
            };
            same_outcome(&(done.map(|()| p), got), &(result, want))?;
        }
        Ok(())
    });
}
