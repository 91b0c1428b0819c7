//! Per-node instance stores and the task execution context.
//!
//! In validation mode every simulated node owns a real [`InstanceStore`]:
//! one [`PhysicalInstance`] per subregion the node touches. Task bodies
//! receive a [`TaskContext`] with the instances for their region
//! requirements checked out of the store; inter-node dependencies copy (or
//! reduction-fold) the overlapping points between producer and consumer
//! instances, mirroring Legion's automatic data movement (§2).

use il_geometry::{Domain, DomainPoint};
use il_region::{
    FieldAccessor, FieldId, FieldSpaceId, FieldValue, IndexSpaceId, PhysicalInstance,
    RegionForest, RegionTreeId, ReductionKind,
};
use std::collections::HashMap;

/// Key of an instance within a node's store: the subregion it holds.
pub type InstanceKey = (RegionTreeId, IndexSpaceId);

/// All physical instances resident on one simulated node.
///
/// `PartialEq` compares the full resident data set; the chaos suite uses
/// it to assert that a faulted run converges to the same final data as a
/// fault-free one.
#[derive(Default, Debug, PartialEq)]
pub struct InstanceStore {
    insts: HashMap<InstanceKey, PhysicalInstance>,
}

impl InstanceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (allocating if needed) the instance for a subregion, with all
    /// fields of `field_space`.
    pub fn ensure(
        &mut self,
        forest: &RegionForest,
        tree: RegionTreeId,
        space: IndexSpaceId,
        field_space: FieldSpaceId,
    ) -> &mut PhysicalInstance {
        self.insts.entry((tree, space)).or_insert_with(|| {
            PhysicalInstance::new(
                forest.domain(space).clone(),
                forest.field_space(field_space),
                &[],
            )
        })
    }

    /// Look up an existing instance.
    pub fn get(&self, key: InstanceKey) -> Option<&PhysicalInstance> {
        self.insts.get(&key)
    }

    /// Look up an existing instance mutably.
    pub fn get_mut(&mut self, key: InstanceKey) -> Option<&mut PhysicalInstance> {
        self.insts.get_mut(&key)
    }

    /// Check an instance out of the store (for the duration of a task).
    pub fn take(&mut self, key: InstanceKey) -> Option<PhysicalInstance> {
        self.insts.remove(&key)
    }

    /// Return a checked-out instance.
    pub fn put(&mut self, key: InstanceKey, inst: PhysicalInstance) {
        self.insts.insert(key, inst);
    }

    /// Number of resident instances.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True iff no instances are resident.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Total resident bytes.
    pub fn bytes(&self) -> u64 {
        self.insts.values().map(|i| i.bytes()).sum()
    }
}

/// Execution context handed to a task body (validation mode).
///
/// `ctx.inst(r)` / `ctx.inst_mut(r)` expose the physical instance backing
/// region requirement `r`; `ctx.domain(r)` is the concrete subregion the
/// projection functor selected for this point task. `ctx.read` /
/// `ctx.write` access one element; a kernel's inner loop takes typed
/// accessors instead (`ctx.inst(r).accessor::<T>(f)`, or
/// [`read_write`](TaskContext::read_write) for a read view of one
/// instance beside a write view of another).
pub struct TaskContext {
    /// The task's point within the launch domain.
    pub point: DomainPoint,
    /// Scalar by-value arguments of the launch.
    pub scalars: Vec<f64>,
    slots: Vec<(InstanceKey, PhysicalInstance)>,
    req_slot: Vec<usize>,
    req_domain: Vec<Domain>,
}

impl TaskContext {
    /// Assemble a context: one slot per distinct instance key, with
    /// requirements mapped onto slots (two requirements naming the same
    /// subregion share a slot).
    pub fn assemble(
        point: DomainPoint,
        scalars: Vec<f64>,
        reqs: Vec<(InstanceKey, Domain)>,
        store: &mut InstanceStore,
    ) -> Self {
        let mut slots: Vec<(InstanceKey, PhysicalInstance)> = Vec::new();
        let mut req_slot = Vec::with_capacity(reqs.len());
        let mut req_domain = Vec::with_capacity(reqs.len());
        for (key, domain) in reqs {
            let slot = match slots.iter().position(|(k, _)| *k == key) {
                Some(s) => s,
                None => {
                    let inst = store
                        .take(key)
                        .unwrap_or_else(|| panic!("instance {key:?} not resident"));
                    slots.push((key, inst));
                    slots.len() - 1
                }
            };
            req_slot.push(slot);
            req_domain.push(domain);
        }
        TaskContext { point, scalars, slots, req_slot, req_domain }
    }

    /// Return all instances to the store after the body ran.
    pub fn disassemble(self, store: &mut InstanceStore) {
        for (key, inst) in self.slots {
            store.put(key, inst);
        }
    }

    /// The concrete subregion domain of requirement `req`.
    pub fn domain(&self, req: usize) -> &Domain {
        &self.req_domain[req]
    }

    /// Scalar argument `i`.
    pub fn scalar(&self, i: usize) -> f64 {
        self.scalars[i]
    }

    /// The instance backing requirement `req`.
    pub fn inst(&self, req: usize) -> &PhysicalInstance {
        &self.slots[self.req_slot[req]].1
    }

    /// The instance backing requirement `req`, mutably.
    pub fn inst_mut(&mut self, req: usize) -> &mut PhysicalInstance {
        &mut self.slots[self.req_slot[req]].1
    }

    /// A read accessor of field `read.1` through requirement `read.0`
    /// beside a write accessor of `write.1` through `write.0`. Panics if
    /// the two requirements share an instance (the views would alias).
    pub fn read_write<R: FieldValue, W: FieldValue>(
        &mut self,
        read: (usize, FieldId),
        write: (usize, FieldId),
    ) -> (FieldAccessor<'_, &[R]>, FieldAccessor<'_, &mut [W]>) {
        let (rs, ws) = (self.req_slot[read.0], self.req_slot[write.0]);
        assert_ne!(rs, ws, "requirements {} (read) and {} (write) alias one instance", read.0, write.0);
        let (src, dst) = if rs < ws {
            let (head, tail) = self.slots.split_at_mut(ws);
            (&head[rs].1, &mut tail[0].1)
        } else {
            let (head, tail) = self.slots.split_at_mut(rs);
            (&tail[0].1, &mut head[ws].1)
        };
        (src.accessor(read.1), dst.accessor_mut(write.1))
    }

    /// Read `field` at `p` through requirement `req`.
    pub fn read<T: FieldValue>(&self, req: usize, field: FieldId, p: DomainPoint) -> T {
        self.inst(req).get(field, p)
    }

    /// Write `field` at `p` through requirement `req`.
    pub fn write<T: FieldValue>(&mut self, req: usize, field: FieldId, p: DomainPoint, v: T) {
        self.inst_mut(req).set(field, p, v);
    }

    /// Fold `v` into `field` at `p` with reduction `kind` (for reduce
    /// privileges; the instance is an identity-filled reduction buffer).
    pub fn fold_f64(
        &mut self,
        req: usize,
        field: FieldId,
        p: DomainPoint,
        kind: ReductionKind,
        v: f64,
    ) {
        let cur: f64 = self.read(req, field, p);
        self.write(req, field, p, kind.fold_f64(cur, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_region::{equal_partition_1d, FieldKind, FieldSpaceDesc};

    fn setup() -> (RegionForest, RegionTreeId, IndexSpaceId, IndexSpaceId, FieldSpaceId, FieldId) {
        let mut forest = RegionForest::new();
        let mut fsd = FieldSpaceDesc::new();
        let x = fsd.add("x", FieldKind::F64);
        let fs = forest.create_field_space(fsd);
        let region = forest.create_region(Domain::range(10), fs);
        let part = equal_partition_1d(&mut forest, region.space, 2);
        let s0 = forest.subspace(part, DomainPoint::new1(0));
        let s1 = forest.subspace(part, DomainPoint::new1(1));
        (forest, region.tree, s0, s1, fs, x)
    }

    #[test]
    fn store_ensure_and_bytes() {
        let (forest, tree, s0, _, fs, _) = setup();
        let mut store = InstanceStore::new();
        assert!(store.is_empty());
        store.ensure(&forest, tree, s0, fs);
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), 5 * 8); // 5 points × f64
        // Idempotent.
        store.ensure(&forest, tree, s0, fs);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn context_checkout_and_rw() {
        let (forest, tree, s0, s1, fs, x) = setup();
        let mut store = InstanceStore::new();
        store.ensure(&forest, tree, s0, fs);
        store.ensure(&forest, tree, s1, fs);
        let d0 = forest.domain(s0).clone();
        let d1 = forest.domain(s1).clone();
        let mut ctx = TaskContext::assemble(
            DomainPoint::new1(0),
            vec![2.5],
            vec![((tree, s0), d0.clone()), ((tree, s1), d1)],
            &mut store,
        );
        assert_eq!(store.len(), 0); // both checked out
        assert_eq!(ctx.scalar(0), 2.5);
        for p in d0.iter() {
            let v: f64 = ctx.read(0, x, p);
            ctx.write(1, x, DomainPoint::new1(p.x() + 5), v + 1.0);
        }
        ctx.disassemble(&mut store);
        assert_eq!(store.len(), 2);
        let inst1 = store.get((tree, s1)).unwrap();
        assert_eq!(inst1.get::<f64>(x, DomainPoint::new1(7)), 1.0);
    }

    #[test]
    fn duplicate_keys_share_a_slot() {
        let (forest, tree, s0, _, fs, x) = setup();
        let mut store = InstanceStore::new();
        store.ensure(&forest, tree, s0, fs);
        let d0 = forest.domain(s0).clone();
        let mut ctx = TaskContext::assemble(
            DomainPoint::new1(0),
            vec![],
            vec![((tree, s0), d0.clone()), ((tree, s0), d0)],
            &mut store,
        );
        ctx.write(0, x, DomainPoint::new1(2), 9.0f64);
        let through_other: f64 = ctx.read(1, x, DomainPoint::new1(2));
        assert_eq!(through_other, 9.0);
        ctx.disassemble(&mut store);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn fold_accumulates() {
        let (forest, tree, s0, _, fs, x) = setup();
        let mut store = InstanceStore::new();
        store
            .ensure(&forest, tree, s0, fs)
            .fill_identity(x, ReductionKind::Sum);
        let d0 = forest.domain(s0).clone();
        let mut ctx = TaskContext::assemble(
            DomainPoint::new1(0),
            vec![],
            vec![((tree, s0), d0)],
            &mut store,
        );
        let p = DomainPoint::new1(1);
        ctx.fold_f64(0, x, p, ReductionKind::Sum, 2.0);
        ctx.fold_f64(0, x, p, ReductionKind::Sum, 3.0);
        assert_eq!(ctx.read::<f64>(0, x, p), 5.0);
        ctx.disassemble(&mut store);
    }

    /// A context over `s0` and `s1` (requirements 0 and 1, in `order`),
    /// `s0` holding `x = 10 + i` at each point `i`.
    fn two_instance_ctx(order: [usize; 2]) -> (TaskContext, FieldId) {
        let (forest, tree, s0, s1, fs, x) = setup();
        let mut store = InstanceStore::new();
        let inst = store.ensure(&forest, tree, s0, fs);
        for i in 0..5 {
            inst.set(x, DomainPoint::new1(i), 10.0 + i as f64);
        }
        store.ensure(&forest, tree, s1, fs);
        let spaces = [s0, s1];
        let reqs = order.map(|k| ((tree, spaces[k]), forest.domain(spaces[k]).clone()));
        (TaskContext::assemble(DomainPoint::new1(0), vec![], reqs.to_vec(), &mut store), x)
    }

    #[test]
    fn read_write_pair_works_whichever_slot_comes_first() {
        // Requirement r reads s0 and w writes s1; s0's slot is first in
        // one context and second in the other.
        for (order, r, w) in [([0, 1], 0, 1), ([1, 0], 1, 0)] {
            let (mut ctx, x) = two_instance_ctx(order);
            let (src, mut dst) = ctx.read_write::<f64, f64>((r, x), (w, x));
            for i in 0..5 {
                dst[DomainPoint::new1(i + 5)] = src[DomainPoint::new1(i)] * 2.0;
            }
            assert_eq!(ctx.read::<f64>(w, x, DomainPoint::new1(8)), 26.0);
            assert_eq!(ctx.read::<f64>(r, x, DomainPoint::new1(3)), 13.0);
        }
    }

    #[test]
    #[should_panic(expected = "requirements 1 (read) and 0 (write) alias one instance")]
    fn read_write_pair_on_one_instance_panics_naming_both() {
        let (forest, tree, s0, _, fs, x) = setup();
        let mut store = InstanceStore::new();
        store.ensure(&forest, tree, s0, fs);
        let d0 = forest.domain(s0).clone();
        let mut ctx = TaskContext::assemble(
            DomainPoint::new1(0),
            vec![],
            vec![((tree, s0), d0.clone()), ((tree, s0), d0)],
            &mut store,
        );
        let _ = ctx.read_write::<f64, f64>((1, x), (0, x));
    }

    #[test]
    #[should_panic(expected = "point (5) outside instance domain")]
    fn accessor_outside_the_bbox_panics_like_get() {
        let (mut ctx, x) = two_instance_ctx([0, 1]);
        let (src, _) = ctx.read_write::<f64, f64>((0, x), (1, x));
        let _ = src[DomainPoint::new1(5)];
    }

    #[test]
    #[should_panic(expected = "field kind mismatch: wanted I64, store is F64")]
    fn accessor_kind_mismatch_panics_like_field() {
        let (mut ctx, x) = two_instance_ctx([0, 1]);
        let _ = ctx.read_write::<f64, i64>((0, x), (1, x));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn checkout_of_missing_instance_panics() {
        let (forest, tree, s0, ..) = setup();
        let _ = forest;
        let mut store = InstanceStore::new();
        TaskContext::assemble(
            DomainPoint::new1(0),
            vec![],
            vec![((tree, s0), Domain::range(1))],
            &mut store,
        );
    }
}
