//! Physical instances: dense per-field storage over a domain.

use crate::field::{FieldKind, FieldSpaceDesc, FieldValue};
use crate::ids::FieldId;
use crate::reduction::ReductionKind;
use il_geometry::{Domain, DomainPoint};
use std::ops::{Deref, DerefMut, Index, IndexMut};

/// Type-erased storage for one field of an instance.
///
/// `PartialEq` is **bitwise**: float lanes compare by `to_bits`, so two
/// byte-identical stores are equal even where the data holds NaN (a
/// derived float `==` would make a NaN-bearing store unequal to
/// itself, breaking every "converges to the fault-free data" assertion
/// on programs whose reductions produce NaN). The flip side — `-0.0`
/// and `+0.0` compare *unequal* — is exactly the byte-identity the
/// chaos/replay suites assert.
#[derive(Clone, Debug)]
pub enum FieldStore {
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit unsigned integers.
    U64(Vec<u64>),
    /// 32-bit unsigned integers.
    U32(Vec<u32>),
}

impl PartialEq for FieldStore {
    fn eq(&self, other: &Self) -> bool {
        use FieldStore::*;
        match (self, other) {
            (F64(a), F64(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (F32(a), F32(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (I64(a), I64(b)) => a == b,
            (I32(a), I32(b)) => a == b,
            (U64(a), U64(b)) => a == b,
            (U32(a), U32(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for FieldStore {}

impl FieldStore {
    /// Allocate default-initialized storage of `len` elements of `kind`.
    pub fn new(kind: FieldKind, len: usize) -> Self {
        match kind {
            FieldKind::F64 => FieldStore::F64(vec![0.0; len]),
            FieldKind::F32 => FieldStore::F32(vec![0.0; len]),
            FieldKind::I64 => FieldStore::I64(vec![0; len]),
            FieldKind::I32 => FieldStore::I32(vec![0; len]),
            FieldKind::U64 => FieldStore::U64(vec![0; len]),
            FieldKind::U32 => FieldStore::U32(vec![0; len]),
        }
    }

    /// The kind of this store.
    pub fn kind(&self) -> FieldKind {
        match self {
            FieldStore::F64(_) => FieldKind::F64,
            FieldStore::F32(_) => FieldKind::F32,
            FieldStore::I64(_) => FieldKind::I64,
            FieldStore::I32(_) => FieldKind::I32,
            FieldStore::U64(_) => FieldKind::U64,
            FieldStore::U32(_) => FieldKind::U32,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            FieldStore::F64(v) => v.len(),
            FieldStore::F32(v) => v.len(),
            FieldStore::I64(v) => v.len(),
            FieldStore::I32(v) => v.len(),
            FieldStore::U64(v) => v.len(),
            FieldStore::U32(v) => v.len(),
        }
    }

    /// True iff there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw bit pattern of element `idx`, widened to 64 bits. Floats are
    /// read via `to_bits`, so the digest distinguishes `-0.0` from `0.0`
    /// and every NaN payload — bit-flip detection must be exact, not
    /// numeric.
    pub fn bits_at(&self, idx: usize) -> u64 {
        match self {
            FieldStore::F64(v) => v[idx].to_bits(),
            FieldStore::F32(v) => u64::from(v[idx].to_bits()),
            FieldStore::I64(v) => v[idx] as u64,
            FieldStore::I32(v) => v[idx] as u32 as u64,
            FieldStore::U64(v) => v[idx],
            FieldStore::U32(v) => u64::from(v[idx]),
        }
    }

    /// XOR `delta` into the raw bits of element `idx` — a modeled silent
    /// bit flip. For 32-bit kinds the two halves of `delta` are OR-folded,
    /// so any nonzero `delta` still flips at least one stored bit.
    pub fn flip_bits(&mut self, idx: usize, delta: u64) {
        let d32 = (delta as u32) | ((delta >> 32) as u32);
        match self {
            FieldStore::F64(v) => v[idx] = f64::from_bits(v[idx].to_bits() ^ delta),
            FieldStore::F32(v) => v[idx] = f32::from_bits(v[idx].to_bits() ^ d32),
            FieldStore::I64(v) => v[idx] = (v[idx] as u64 ^ delta) as i64,
            FieldStore::I32(v) => v[idx] = (v[idx] as u32 ^ d32) as i32,
            FieldStore::U64(v) => v[idx] ^= delta,
            FieldStore::U32(v) => v[idx] ^= d32,
        }
    }

    /// Copy `len` elements of `src` from `src_at` onto `self` from `at`
    /// — or, with `fold`, reduce them in element by element. Integer
    /// variants use the `i64` fold semantics of [`ReductionKind`].
    /// Panics on kind mismatch or a run past either end.
    fn transfer_run(&mut self, at: usize, src: &FieldStore, src_at: usize, len: usize, fold: Option<ReductionKind>) {
        fn run<T: Copy>(d: &mut [T], s: &[T], fold: Option<ReductionKind>, f: impl Fn(ReductionKind, T, T) -> T) {
            match fold {
                None => d.copy_from_slice(s),
                Some(k) => d.iter_mut().zip(s).for_each(|(x, &y)| *x = f(k, *x, y)),
            }
        }
        use FieldStore::*;
        let (dr, sr) = (at..at + len, src_at..src_at + len);
        match (self, src) {
            (F64(d), F64(s)) => run(&mut d[dr], &s[sr], fold, |k, a, b| k.fold_f64(a, b)),
            (F32(d), F32(s)) => run(&mut d[dr], &s[sr], fold, |k, a, b| k.fold_f32(a, b)),
            (I64(d), I64(s)) => run(&mut d[dr], &s[sr], fold, |k, a, b| k.fold_i64(a, b)),
            (I32(d), I32(s)) => run(&mut d[dr], &s[sr], fold, |k, a, b| k.fold_i64(a as _, b as _) as _),
            (U64(d), U64(s)) => run(&mut d[dr], &s[sr], fold, |k, a, b| k.fold_i64(a as _, b as _) as _),
            (U32(d), U32(s)) => run(&mut d[dr], &s[sr], fold, |k, a, b| k.fold_i64(a as _, b as _) as _),
            (d, s) => {
                let op = if fold.is_some() { "fold" } else { "copy" };
                panic!("field kind mismatch in {op}: {:?} vs {:?}", d.kind(), s.kind())
            }
        }
    }
}

/// Row-major layout of an instance's bounding box (a sparse domain's
/// tight box): `lo` and the extent of each dimension, last dimension
/// fastest — the order of [`Domain::linearize`], computed once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Layout {
    dim: u8,
    lo: [i64; 3],
    extent: [u64; 3],
}

impl Layout {
    fn new(domain: &Domain) -> Self {
        let (lo, hi) = domain.bounds();
        let mut layout = Layout { dim: domain.dim() as u8, lo: [0; 3], extent: [0; 3] };
        for d in 0..domain.dim() {
            let (l, h) = (lo.coord(d), hi.coord(d));
            layout.lo[d] = l;
            layout.extent[d] = if h < l { 0 } else { (h - l) as u64 + 1 };
        }
        layout
    }

    fn volume(&self) -> u64 {
        self.extent[..self.dim as usize].iter().fold(1u64, |v, &e| v.saturating_mul(e))
    }

    /// Storage index of `p` in O(rank); panics, naming `domain`, when `p`
    /// is outside the box or of another rank.
    #[inline]
    fn locate(&self, p: DomainPoint, domain: &Domain) -> usize {
        if p.dim() != self.dim as usize {
            outside(p, domain)
        }
        let mut idx = 0u64;
        for d in 0..p.dim() {
            // Below `lo` wraps to a huge offset and fails the extent test.
            let off = p.coord(d).wrapping_sub(self.lo[d]) as u64;
            if off >= self.extent[d] {
                outside(p, domain)
            }
            idx = idx * self.extent[d] + off;
        }
        idx as usize
    }
}

#[cold]
#[inline(never)]
fn outside(p: DomainPoint, domain: &Domain) -> ! {
    panic!("point {p:?} outside instance domain {domain:?}")
}

fn store_mut(fields: &mut [(FieldId, FieldStore)], field: FieldId) -> &mut FieldStore {
    fields.iter_mut().find(|(id, _)| *id == field).map(|(_, s)| s).expect("field not in instance")
}

/// Typed view of one field of an instance, indexed by [`DomainPoint`] in
/// O(rank) with the bounds check and panic of [`PhysicalInstance::get`]:
/// the field's slice plus the instance layout, the analogue of Legion's
/// affine `FieldAccessor`. `S` is `&[T]` for a read view and `&mut [T]`
/// for a write view.
pub struct FieldAccessor<'a, S> {
    data: S,
    layout: Layout,
    domain: &'a Domain,
}

impl<T, S: Deref<Target = [T]>> Index<DomainPoint> for FieldAccessor<'_, S> {
    type Output = T;
    #[inline]
    fn index(&self, p: DomainPoint) -> &T {
        &self.data[self.layout.locate(p, self.domain)]
    }
}

impl<T, S: DerefMut<Target = [T]>> IndexMut<DomainPoint> for FieldAccessor<'_, S> {
    #[inline]
    fn index_mut(&mut self, p: DomainPoint) -> &mut T {
        &mut self.data[self.layout.locate(p, self.domain)]
    }
}

/// A physical instance: dense storage for a set of fields over the points
/// of a domain.
///
/// In Legion, instances materialize a subregion's data in a specific
/// memory; collections "are not fixed in a specific memory but may be
/// copied and migrated" (§2). Here each simulated node keeps its own
/// instances, and the runtime copies between them when dependencies cross
/// nodes. Storage is row-major (struct-of-arrays) over the domain's
/// bounding rectangle, whose layout is computed once here; the stores
/// sit in a small `Vec` sorted by field id.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalInstance {
    domain: Domain,
    layout: Layout,
    fields: Vec<(FieldId, FieldStore)>,
}

impl PhysicalInstance {
    /// Allocate an instance over `domain` holding `fields` (all fields of
    /// `desc` when `fields` is empty).
    pub fn new(domain: Domain, desc: &FieldSpaceDesc, fields: &[FieldId]) -> Self {
        let layout = Layout::new(&domain);
        let len = layout.volume() as usize;
        let mut ids: Vec<FieldId> = if fields.is_empty() {
            desc.iter().map(|(id, _)| id).collect()
        } else {
            fields.to_vec()
        };
        ids.sort_unstable();
        ids.dedup();
        let fields = ids.into_iter().map(|id| (id, FieldStore::new(desc.kind(id), len))).collect();
        PhysicalInstance { domain, layout, fields }
    }

    /// The domain this instance covers.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The field ids present.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> + '_ {
        self.fields.iter().map(|(id, _)| *id)
    }

    /// True iff the instance stores `field`.
    pub fn has_field(&self, field: FieldId) -> bool {
        self.try_store(field).is_some()
    }

    fn try_store(&self, field: FieldId) -> Option<&FieldStore> {
        self.fields.iter().find(|(id, _)| *id == field).map(|(_, s)| s)
    }

    /// Linearized storage index of `p` — `Domain::linearize` over the
    /// bounding box, in O(rank) through the layout cached at construction
    /// (a sparse domain's box used to be recomputed, one scan of its
    /// points, on every access).
    ///
    /// # Panics
    /// Panics if `p` is outside the instance's domain bounding box or of
    /// another rank.
    #[inline]
    pub fn index_of(&self, p: DomainPoint) -> usize {
        self.layout.locate(p, &self.domain)
    }

    /// Typed read-only view of a field's storage.
    pub fn field<T: FieldValue>(&self, field: FieldId) -> &[T] {
        T::slice(self.store(field))
    }

    /// Typed mutable view of a field's storage.
    pub fn field_mut<T: FieldValue>(&mut self, field: FieldId) -> &mut [T] {
        T::slice_mut(store_mut(&mut self.fields, field))
    }

    /// Typed read accessor of `field`; panics if the field is absent or
    /// not of kind `T`.
    pub fn accessor<T: FieldValue>(&self, field: FieldId) -> FieldAccessor<'_, &[T]> {
        FieldAccessor { data: self.field(field), layout: self.layout, domain: &self.domain }
    }

    /// Typed write accessor of `field`; panics like [`accessor`](Self::accessor).
    pub fn accessor_mut<T: FieldValue>(&mut self, field: FieldId) -> FieldAccessor<'_, &mut [T]> {
        let data = T::slice_mut(store_mut(&mut self.fields, field));
        FieldAccessor { data, layout: self.layout, domain: &self.domain }
    }

    /// Read one element.
    #[inline]
    pub fn get<T: FieldValue>(&self, field: FieldId, p: DomainPoint) -> T {
        let idx = self.index_of(p);
        self.field::<T>(field)[idx]
    }

    /// Write one element.
    #[inline]
    pub fn set<T: FieldValue>(&mut self, field: FieldId, p: DomainPoint, v: T) {
        let idx = self.index_of(p);
        self.field_mut::<T>(field)[idx] = v;
    }

    /// Raw store access (for copies and folds).
    pub fn store(&self, field: FieldId) -> &FieldStore {
        self.try_store(field).expect("field not in instance")
    }

    /// Copy all points of `domain` (which must lie inside both instances)
    /// for the listed fields (all shared fields when empty) from `src`.
    pub fn copy_from(&mut self, src: &PhysicalInstance, domain: &Domain, fields: &[FieldId]) {
        self.transfer(src, domain, fields, None);
    }

    /// Fold all points of `domain` from `src` into `self` with `kind`.
    pub fn fold_from(
        &mut self,
        src: &PhysicalInstance,
        domain: &Domain,
        fields: &[FieldId],
        kind: ReductionKind,
    ) {
        self.transfer(src, domain, fields, Some(kind));
    }

    /// `copy_from` (`fold: None`) and `fold_from` in one: the window is
    /// cut once into runs contiguous in both instances — a rectangle's
    /// rows, merged where the rows are adjacent in both, or a sparse
    /// window's single points — and each field's stores, resolved once,
    /// move run by run.
    fn transfer(&mut self, src: &Self, window: &Domain, fields: &[FieldId], fold: Option<ReductionKind>) {
        if window.is_empty() {
            return; // (an empty rectangle's row length would underflow)
        }
        // [dst start, src start, len] per run.
        let mut runs: Vec<[usize; 3]> = Vec::new();
        let mut push = |first: DomainPoint, last: DomainPoint, len: usize| {
            let (d, s) = (self.index_of(first), src.index_of(first));
            // A row is contiguous only inside a box: check its far end too.
            self.index_of(last);
            src.index_of(last);
            match runs.last_mut() {
                Some([rd, rs, rl]) if *rd + *rl == d && *rs + *rl == s => *rl += len,
                _ => runs.push([d, s, len]),
            }
        };
        if let Domain::Sparse { points, .. } = window {
            for &p in points.iter() {
                push(p, p, 1);
            }
        } else {
            let (lo, hi) = window.bounds();
            let dim = window.dim();
            let last = dim - 1;
            let len = (hi.coord(last) - lo.coord(last)) as usize + 1;
            // Every row: each prefix of the first `dim - 1` coordinates.
            let outer = |d: usize| if d < last { lo.coord(d)..=hi.coord(d) } else { 0..=0 };
            for a in outer(0) {
                for b in outer(1) {
                    let mut c = [a, b, 0];
                    c[last] = lo.coord(last);
                    let first = DomainPoint::from_slice(&c[..dim]);
                    c[last] = hi.coord(last);
                    push(first, DomainPoint::from_slice(&c[..dim]), len);
                }
            }
        }
        let apply = |dst: &mut FieldStore, s: &FieldStore| {
            for &[d, si, len] in &runs {
                dst.transfer_run(d, s, si, len, fold);
            }
        };
        if fields.is_empty() {
            for (id, dst) in &mut self.fields {
                if let Some(s) = src.try_store(*id) {
                    apply(dst, s);
                }
            }
        } else {
            for &f in fields {
                let s = src.try_store(f).expect("src missing field");
                apply(store_mut(&mut self.fields, f), s);
            }
        }
    }

    /// Fill a field with a reduction identity (used to stage reduction
    /// buffers).
    pub fn fill_identity(&mut self, field: FieldId, kind: ReductionKind) {
        match store_mut(&mut self.fields, field) {
            FieldStore::F64(v) => v.fill(kind.identity_f64()),
            FieldStore::F32(v) => v.fill(kind.identity_f32()),
            FieldStore::I64(v) => v.fill(kind.identity_i64()),
            FieldStore::I32(v) => v.fill(kind.identity_i64() as i32),
            FieldStore::U64(v) => v.fill(kind.identity_i64() as u64),
            FieldStore::U32(v) => v.fill(kind.identity_i64() as u32),
        }
    }

    /// Total bytes of the instance across its fields.
    pub fn bytes(&self) -> u64 {
        self.fields.iter().map(|(_, s)| s.len() as u64 * s.kind().size()).sum()
    }

    /// Deterministic 64-bit content digest: FNV-1a over the instance's
    /// shape (bounding-box volume, field ids and kinds) and every
    /// element's raw bit pattern, fields in id order. Two instances have
    /// equal digests iff their stored bytes agree, which is the checksum
    /// the silent-data-corruption vote compares — a single flipped bit in
    /// any element changes the digest.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = FNV_OFFSET;
        let mut eat = |word: u64| {
            for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
                h ^= (word >> shift) & 0xFF;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.layout.volume());
        for (id, store) in &self.fields {
            eat(u64::from(id.0));
            eat(store.kind().size());
            eat(store.len() as u64);
            for idx in 0..store.len() {
                eat(store.bits_at(idx));
            }
        }
        h
    }

    /// Apply a modeled silent bit flip: XOR `delta` into the raw bits of
    /// the element of `field` chosen deterministically from `delta`
    /// itself. Used by fault injection to corrupt a task's output; a
    /// no-op when the field has no elements.
    pub fn corrupt_element(&mut self, field: FieldId, delta: u64) {
        let store = store_mut(&mut self.fields, field);
        if store.is_empty() {
            return;
        }
        let idx = (delta.rotate_right(17) as usize) % store.len();
        store.flip_bits(idx, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_geometry::Rect;

    fn two_field_desc() -> (FieldSpaceDesc, FieldId, FieldId) {
        let mut desc = FieldSpaceDesc::new();
        let v = desc.add("v", FieldKind::F64);
        let n = desc.add("n", FieldKind::I64);
        (desc, v, n)
    }

    #[test]
    fn alloc_and_rw() {
        let (desc, v, n) = two_field_desc();
        let dom: Domain = Rect::new2((0, 0), (3, 3)).into();
        let mut inst = PhysicalInstance::new(dom, &desc, &[]);
        inst.set(v, DomainPoint::new2(1, 2), 3.5f64);
        inst.set(n, DomainPoint::new2(3, 3), -9i64);
        assert_eq!(inst.get::<f64>(v, DomainPoint::new2(1, 2)), 3.5);
        assert_eq!(inst.get::<i64>(n, DomainPoint::new2(3, 3)), -9);
        assert_eq!(inst.get::<f64>(v, DomainPoint::new2(0, 0)), 0.0);
        assert_eq!(inst.bytes(), 16 * 8 + 16 * 8);
    }

    #[test]
    fn subset_of_fields() {
        let (desc, v, n) = two_field_desc();
        let inst = PhysicalInstance::new(Domain::range(4), &desc, &[v]);
        assert!(inst.has_field(v));
        assert!(!inst.has_field(n));
    }

    #[test]
    fn copy_between_instances() {
        let (desc, v, _) = two_field_desc();
        let whole: Domain = Rect::new1(0, 9).into();
        let mut a = PhysicalInstance::new(whole.clone(), &desc, &[v]);
        let mut b = PhysicalInstance::new(whole.clone(), &desc, &[v]);
        for i in 0..10 {
            a.set(v, DomainPoint::new1(i), i as f64);
        }
        let part: Domain = Rect::new1(3, 5).into();
        b.copy_from(&a, &part, &[v]);
        assert_eq!(b.get::<f64>(v, DomainPoint::new1(4)), 4.0);
        assert_eq!(b.get::<f64>(v, DomainPoint::new1(6)), 0.0);
    }

    #[test]
    fn fold_between_instances() {
        let (desc, v, _) = two_field_desc();
        let whole: Domain = Rect::new1(0, 3).into();
        let mut acc = PhysicalInstance::new(whole.clone(), &desc, &[v]);
        let mut contrib = PhysicalInstance::new(whole.clone(), &desc, &[v]);
        for i in 0..4 {
            acc.set(v, DomainPoint::new1(i), 10.0);
            contrib.set(v, DomainPoint::new1(i), i as f64);
        }
        acc.fold_from(&contrib, &whole, &[v], ReductionKind::Sum);
        assert_eq!(acc.get::<f64>(v, DomainPoint::new1(3)), 13.0);
    }

    #[test]
    fn fill_identity_values() {
        let (desc, v, n) = two_field_desc();
        let mut inst = PhysicalInstance::new(Domain::range(2), &desc, &[]);
        inst.fill_identity(v, ReductionKind::Min);
        inst.fill_identity(n, ReductionKind::Max);
        assert_eq!(inst.get::<f64>(v, DomainPoint::new1(0)), f64::INFINITY);
        assert_eq!(inst.get::<i64>(n, DomainPoint::new1(1)), i64::MIN);
    }

    /// `index_of` is `Domain::linearize` — at every point of the bounding
    /// box grown by one cell each way, for seeded rect and sparse domains
    /// of ranks 1–3 — and every point it rejects panics like `get`.
    #[test]
    fn index_of_equals_linearize_around_the_bbox() {
        let mut rng = il_testkit::TestRng::seed_from_u64(0x1A70);
        let (desc, v, _) = two_field_desc();
        let random_point = |dim: usize, rng: &mut il_testkit::TestRng| {
            let c: Vec<i64> = (0..dim).map(|_| rng.gen_range_i64(-4, 5)).collect();
            DomainPoint::from_slice(&c)
        };
        for case in 0..60 {
            let dim = 1 + case % 3;
            let domain = if case % 2 == 0 {
                let (a, b) = (random_point(dim, &mut rng), random_point(dim, &mut rng));
                let lo: Vec<i64> = (0..dim).map(|d| a.coord(d).min(b.coord(d))).collect();
                let hi: Vec<i64> = (0..dim).map(|d| a.coord(d).max(b.coord(d))).collect();
                match dim {
                    1 => Rect::new1(lo[0], hi[0]).into(),
                    2 => Rect::new2((lo[0], lo[1]), (hi[0], hi[1])).into(),
                    _ => Rect::new3((lo[0], lo[1], lo[2]), (hi[0], hi[1], hi[2])).into(),
                }
            } else {
                let mut pts: Vec<DomainPoint> =
                    (0..1 + rng.next_below(8)).map(|_| random_point(dim, &mut rng)).collect();
                pts.sort_unstable();
                pts.dedup();
                Domain::sparse(pts)
            };
            let inst = PhysicalInstance::new(domain.clone(), &desc, &[v]);
            let (lo, hi) = domain.bounds();
            let grown: Vec<i64> = (0..dim).flat_map(|d| [lo.coord(d) - 1, hi.coord(d) + 1]).collect();
            let axis = |d: usize| if d < dim { grown[2 * d]..=grown[2 * d + 1] } else { 0..=0 };
            for (x, y, z) in axis(0).flat_map(|x| axis(1).flat_map(move |y| axis(2).map(move |z| (x, y, z)))) {
                let p = DomainPoint::from_slice(&[x, y, z][..dim]);
                let got = std::panic::catch_unwind(|| inst.index_of(p));
                match (domain.linearize(p), got) {
                    (Some(want), Ok(idx)) => assert_eq!(idx as u64, want, "{domain:?} at {p:?}"),
                    (None, Err(e)) => {
                        let msg = e.downcast_ref::<String>().expect("panic message");
                        assert!(msg.contains("outside instance domain"), "{msg}");
                    }
                    (want, got) => panic!("{domain:?} at {p:?}: linearize {want:?}, index_of {got:?}"),
                }
            }
            // A point of another rank is outside too.
            let other = DomainPoint::from_slice(&[0, 0, 0][..1 + dim % 3]);
            assert!(std::panic::catch_unwind(|| inst.index_of(other)).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "outside instance domain")]
    fn out_of_bounds_access_panics() {
        let (desc, v, _) = two_field_desc();
        let inst = PhysicalInstance::new(Domain::range(2), &desc, &[]);
        inst.get::<f64>(v, DomainPoint::new1(5));
    }

    #[test]
    fn instance_over_sparse_domain_uses_bbox() {
        let (desc, v, _) = two_field_desc();
        let dom = Domain::sparse(vec![DomainPoint::new1(2), DomainPoint::new1(7)]);
        let mut inst = PhysicalInstance::new(dom, &desc, &[v]);
        inst.set(v, DomainPoint::new1(7), 1.25f64);
        assert_eq!(inst.get::<f64>(v, DomainPoint::new1(7)), 1.25);
        // bbox is [2,7] -> 6 slots
        assert_eq!(inst.field::<f64>(v).len(), 6);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use il_geometry::Rect;

    #[test]
    #[should_panic(expected = "field kind mismatch in copy")]
    fn copy_between_mismatched_kinds_panics() {
        let (mut fa, mut fb) = (FieldSpaceDesc::new(), FieldSpaceDesc::new());
        let x = fa.add("x", FieldKind::F64);
        fb.add("x", FieldKind::I64);
        let dom = Domain::range(2);
        let mut a = PhysicalInstance::new(dom.clone(), &fa, &[]);
        let b = PhysicalInstance::new(dom.clone(), &fb, &[]);
        a.copy_from(&b, &dom, &[x]);
    }

    #[test]
    fn fold_integer_kinds() {
        let mut a = FieldStore::new(FieldKind::I32, 2);
        let mut b = FieldStore::new(FieldKind::I32, 2);
        if let FieldStore::I32(v) = &mut a {
            v[0] = 5;
        }
        if let FieldStore::I32(v) = &mut b {
            v[0] = 7;
        }
        a.transfer_run(0, &b, 0, 1, Some(ReductionKind::Sum));
        assert_eq!(a, {
            let mut e = FieldStore::new(FieldKind::I32, 2);
            if let FieldStore::I32(v) = &mut e {
                v[0] = 12;
            }
            e
        });
    }

    #[test]
    fn copy_from_all_shared_fields_by_default() {
        let mut fsd = FieldSpaceDesc::new();
        let x = fsd.add("x", FieldKind::F64);
        let y = fsd.add("y", FieldKind::F64);
        let dom: Domain = Rect::new1(0, 3).into();
        let mut a = PhysicalInstance::new(dom.clone(), &fsd, &[]);
        let mut b = PhysicalInstance::new(dom.clone(), &fsd, &[x]); // only x
        a.set(x, DomainPoint::new1(1), 2.0f64);
        a.set(y, DomainPoint::new1(1), 3.0f64);
        // Empty field list = all fields present in BOTH instances.
        b.copy_from(&a, &dom, &[]);
        assert_eq!(b.get::<f64>(x, DomainPoint::new1(1)), 2.0);
        assert!(!b.has_field(y));
    }

    #[test]
    fn bytes_accounts_field_sizes() {
        let mut fsd = FieldSpaceDesc::new();
        fsd.add("a", FieldKind::F32);
        fsd.add("b", FieldKind::I64);
        let inst = PhysicalInstance::new(Domain::range(10), &fsd, &[]);
        assert_eq!(inst.bytes(), 10 * 4 + 10 * 8);
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let mut fsd = FieldSpaceDesc::new();
        let x = fsd.add("x", FieldKind::F64);
        let n = fsd.add("n", FieldKind::U32);
        let dom: Domain = Rect::new1(0, 7).into();
        let mut a = PhysicalInstance::new(dom.clone(), &fsd, &[]);
        let mut b = PhysicalInstance::new(dom.clone(), &fsd, &[]);
        for i in 0..8 {
            a.set(x, DomainPoint::new1(i), i as f64 * 0.5);
            b.set(x, DomainPoint::new1(i), i as f64 * 0.5);
            a.set(n, DomainPoint::new1(i), i as u32);
            b.set(n, DomainPoint::new1(i), i as u32);
        }
        assert_eq!(a.digest(), b.digest(), "equal contents must digest equally");
        b.set(n, DomainPoint::new1(3), 999u32);
        assert_ne!(a.digest(), b.digest(), "a changed element must change the digest");
    }

    #[test]
    fn digest_distinguishes_float_bit_patterns() {
        let mut fsd = FieldSpaceDesc::new();
        let x = fsd.add("x", FieldKind::F64);
        let dom: Domain = Rect::new1(0, 0).into();
        let mut a = PhysicalInstance::new(dom.clone(), &fsd, &[]);
        let mut b = PhysicalInstance::new(dom, &fsd, &[]);
        a.set(x, DomainPoint::new1(0), 0.0f64);
        b.set(x, DomainPoint::new1(0), -0.0f64);
        // 0.0 == -0.0 numerically, but the stored bits differ — a bit-flip
        // detector must see through numeric equality.
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn corrupt_element_flips_and_digest_detects() {
        let mut fsd = FieldSpaceDesc::new();
        let x = fsd.add("x", FieldKind::F64);
        let m = fsd.add("m", FieldKind::U32);
        let dom: Domain = Rect::new1(0, 5).into();
        let inst = PhysicalInstance::new(dom, &fsd, &[]);
        let before = inst.digest();
        for delta in [1u64, 0xDEAD_BEEF, u64::MAX, 1 << 63, 0xFFFF_FFFF_0000_0000] {
            for field in [x, m] {
                let mut hit = inst.clone();
                hit.corrupt_element(field, delta);
                assert_ne!(
                    hit.digest(),
                    before,
                    "delta {delta:#x} on field {field:?} must change the digest"
                );
                // XOR is an involution: the same flip restores the data.
                hit.corrupt_element(field, delta);
                assert_eq!(hit.digest(), before);
            }
        }
    }
}
