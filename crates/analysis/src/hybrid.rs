//! The hybrid safety driver: static first, dynamic for the residue.
//!
//! Implements the §3 validity rules for a whole launch:
//!
//! **Self-checks** — for each argument ⟨Pᵢ, fᵢ⟩ either the privilege is
//! read (or a reduction), or Pᵢ is disjoint and fᵢ injective over D.
//!
//! **Cross-checks** — for each pair ⟨Pᵢ, fᵢ⟩, ⟨Pⱼ, fⱼ⟩ either the
//! privileges are both read (or both the same reduction), or Pᵢ and Pⱼ
//! partition provably-disjoint data, or Pᵢ = Pⱼ is disjoint and the
//! functor images on D are disjoint.
//!
//! Whatever the static analyzer cannot prove is compiled into a
//! [`DynamicCheckPlan`] — the runtime executes it in O(|D| + |P|) before
//! the launch (and may skip it in verified production runs, §4).

use crate::dynamic::{cross_check, self_check, ArgCheck, CheckOutcome, CheckReport};
use crate::proj::ProjExpr;
use crate::static_analysis::{analyze_injectivity, StaticVerdict};
use il_geometry::{Domain, DomainPoint};
use il_region::{FieldId, IndexPartitionId, Privilege, RegionForest};
use std::collections::BTreeMap;
use std::fmt;

/// One region argument of an index launch, for safety purposes.
#[derive(Clone, Debug)]
pub struct LaunchArg {
    /// The partition the functor selects sub-collections from.
    pub partition: IndexPartitionId,
    /// The projection functor.
    pub functor: ProjExpr,
    /// The privilege the task requests.
    pub privilege: Privilege,
    /// Fields accessed (empty = all fields). Two arguments over
    /// *disjoint* field sets never interfere — privileges in Legion are
    /// per-field, which is what lets a stencil read field `in` through an
    /// aliased halo partition while writing field `out` through the
    /// disjoint block partition of the same region.
    pub fields: Vec<FieldId>,
}

impl LaunchArg {
    fn fields_disjoint(&self, other: &LaunchArg) -> bool {
        // Empty = all fields: never disjoint from anything.
        if self.fields.is_empty() || other.fields.is_empty() {
            return false;
        }
        self.fields.iter().all(|f| !other.fields.contains(f))
    }
}

/// Why a launch cannot be executed as an index launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnsafeReason {
    /// A write/read-write argument uses an aliased partition: overlapping
    /// sub-collections could be written concurrently.
    AliasedWritePartition {
        /// Offending argument index.
        arg: usize,
    },
    /// A write argument's functor is provably non-injective over the
    /// domain (the Listing 2 case: `q[i%3]` written over `[0,5)`).
    NonInjectiveWrite {
        /// Offending argument index.
        arg: usize,
    },
    /// Two arguments use the same sub-collections with conflicting
    /// privileges and provably overlapping images (e.g. the same functor
    /// on the same partition, one of them writing).
    ConflictingImages {
        /// First argument index.
        a: usize,
        /// Second argument index.
        b: usize,
    },
    /// Two arguments use different partitions of (possibly) overlapping
    /// data with conflicting privileges; the dynamic check cannot relate
    /// colors across different partitions, so the launch must stay
    /// sequential.
    CrossPartitionConflict {
        /// First argument index.
        a: usize,
        /// Second argument index.
        b: usize,
    },
    /// A dynamic check was executed and found a conflict.
    DynamicConflict {
        /// Offending argument index.
        arg: usize,
        /// Launch point of the collision.
        point: DomainPoint,
        /// Colliding color.
        color: DomainPoint,
    },
}

impl fmt::Display for UnsafeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsafeReason::AliasedWritePartition { arg } => {
                write!(f, "argument {arg} writes through an aliased partition")
            }
            UnsafeReason::NonInjectiveWrite { arg } => write!(
                f,
                "argument {arg}'s projection functor is not injective over the launch domain"
            ),
            UnsafeReason::ConflictingImages { a, b } => write!(
                f,
                "arguments {a} and {b} select overlapping sub-collections with conflicting privileges"
            ),
            UnsafeReason::CrossPartitionConflict { a, b } => write!(
                f,
                "arguments {a} and {b} use different partitions of overlapping data with conflicting privileges"
            ),
            UnsafeReason::DynamicConflict { arg, point, color } => write!(
                f,
                "dynamic check: argument {arg} collides at point {point} (color {color})"
            ),
        }
    }
}

/// A group of arguments sharing one partition that must be checked
/// dynamically.
#[derive(Clone, Debug)]
pub struct CheckGroup {
    /// The shared partition.
    pub partition: IndexPartitionId,
    /// The partition's color space (bitmask bounds).
    pub color_bounds: Domain,
    /// `(arg index, functor, writes)` triples, in original order.
    pub args: Vec<(usize, ProjExpr, bool)>,
}

/// The dynamic residue of the hybrid analysis: the checks that must run
/// at launch time. Corresponds to the generated AST of Listing 3.
#[derive(Clone, Debug)]
pub struct DynamicCheckPlan {
    /// The launch domain.
    pub domain: Domain,
    /// One bitmask pass per partition group.
    pub groups: Vec<CheckGroup>,
}

impl DynamicCheckPlan {
    /// Execute the plan. Returns `Ok(evals)` — the number of functor
    /// evaluations, the O(|D|) cost the runtime charges — or the first
    /// conflict.
    pub fn run(&self) -> Result<u64, UnsafeReason> {
        let mut evals = 0u64;
        for group in &self.groups {
            let report: CheckReport = if group.args.len() == 1 {
                let (idx, functor, _) = &group.args[0];
                let mut r = self_check(&self.domain, functor, &group.color_bounds);
                if let CheckOutcome::Conflict { arg, .. } = &mut r.outcome {
                    *arg = *idx;
                }
                r
            } else {
                let checks: Vec<ArgCheck<'_>> = group
                    .args
                    .iter()
                    .map(|(idx, functor, writes)| ArgCheck {
                        index: *idx,
                        functor,
                        writes: *writes,
                    })
                    .collect();
                cross_check(&self.domain, &checks, &group.color_bounds)
            };
            evals += report.evals;
            if let CheckOutcome::Conflict { arg, point, color } = report.outcome {
                return Err(UnsafeReason::DynamicConflict { arg, point, color });
            }
        }
        Ok(evals)
    }

    /// Total functor evaluations the plan will perform if no conflict is
    /// found (for cost accounting without running).
    pub fn planned_evals(&self) -> u64 {
        let d = self.domain.volume();
        self.groups.iter().map(|g| g.args.len() as u64 * d).sum()
    }
}

/// The hybrid analysis verdict for a launch.
#[derive(Clone, Debug)]
pub enum HybridVerdict {
    /// Statically proven safe: zero runtime cost (§4).
    SafeStatic,
    /// Statically unresolved: run this plan before launching.
    NeedsDynamic(DynamicCheckPlan),
    /// Statically proven unsafe: execute as a sequential task loop.
    Unsafe(UnsafeReason),
}

/// Run the hybrid safety analysis for a launch of `args` over `domain`.
pub fn analyze_launch(
    forest: &RegionForest,
    domain: &Domain,
    args: &[LaunchArg],
) -> HybridVerdict {
    // ---- Self-checks (§3) ----
    // needs_dynamic_self[i]: argument i's injectivity is unresolved.
    let mut needs_dynamic_self = vec![false; args.len()];
    for (i, arg) in args.iter().enumerate() {
        if matches!(arg.privilege, Privilege::Read | Privilege::Reduce(_)) {
            continue; // read or reduction: self-check passes outright
        }
        if !forest.is_disjoint(arg.partition) {
            return HybridVerdict::Unsafe(UnsafeReason::AliasedWritePartition { arg: i });
        }
        match analyze_injectivity(&arg.functor, domain) {
            StaticVerdict::Injective => {}
            StaticVerdict::NotInjective => {
                return HybridVerdict::Unsafe(UnsafeReason::NonInjectiveWrite { arg: i });
            }
            StaticVerdict::Unknown => needs_dynamic_self[i] = true,
        }
    }

    // ---- Cross-checks (§3) ----
    // For each unordered pair, establish one of: compatible privileges,
    // disjoint data, or disjoint images (statically or dynamically).
    let mut dynamic_groups: BTreeMap<IndexPartitionId, Vec<usize>> = BTreeMap::new();
    let mut add_to_group = |p: IndexPartitionId, i: usize, j: usize| {
        let g = dynamic_groups.entry(p).or_default();
        if !g.contains(&i) {
            g.push(i);
        }
        if !g.contains(&j) {
            g.push(j);
        }
    };

    for i in 0..args.len() {
        for j in (i + 1)..args.len() {
            let (a, b) = (&args[i], &args[j]);
            if a.privilege.parallel_with(&b.privilege) {
                continue; // both read, or both the same reduction
            }
            if a.fields_disjoint(b) {
                continue; // disjoint field sets never interfere
            }
            if a.partition == b.partition {
                let p = forest.partition(a.partition);
                if !p.disjoint {
                    // A conflicting pair through an aliased partition can
                    // never be validated (a write arg on an aliased
                    // partition was already rejected; this covers
                    // read-vs-reduce etc. on aliased partitions).
                    return HybridVerdict::Unsafe(UnsafeReason::ConflictingImages { a: i, b: j });
                }
                // Same disjoint partition: need image-disjointness.
                match static_images_disjoint(&a.functor, &b.functor, domain) {
                    Some(true) => {}
                    Some(false) => {
                        return HybridVerdict::Unsafe(UnsafeReason::ConflictingImages {
                            a: i,
                            b: j,
                        });
                    }
                    None => add_to_group(a.partition, i, j),
                }
            } else {
                // Different partitions: safe only if they partition
                // provably-disjoint data.
                let pa = forest.partition(a.partition).parent;
                let pb = forest.partition(b.partition).parent;
                if !forest.spaces_disjoint(pa, pb) {
                    return HybridVerdict::Unsafe(UnsafeReason::CrossPartitionConflict {
                        a: i,
                        b: j,
                    });
                }
            }
        }
    }

    // ---- Assemble the dynamic plan ----
    // Arguments with unresolved self-checks join their partition's group;
    // within a group all write/reduce arguments participate (their images
    // interact through the shared bitmask) and unresolved readers test.
    for (i, needed) in needs_dynamic_self.iter().enumerate() {
        if *needed {
            dynamic_groups.entry(args[i].partition).or_default().push(i);
        }
    }

    if dynamic_groups.is_empty() {
        return HybridVerdict::SafeStatic;
    }

    let mut groups = Vec::new();
    for (partition, mut members) in dynamic_groups {
        members.sort_unstable();
        members.dedup();
        // Include *all* write/reduce args on this partition, even
        // statically-proven ones: their images occupy colors that
        // unresolved members must not touch.
        for (i, arg) in args.iter().enumerate() {
            if arg.partition == partition && arg.privilege.writes() && !members.contains(&i) {
                members.push(i);
            }
        }
        members.sort_unstable();
        let color_bounds = forest.partition(partition).color_space.clone();
        let group_args = members
            .iter()
            .map(|&i| (i, args[i].functor.clone(), args[i].privilege.writes()))
            .collect();
        groups.push(CheckGroup {
            partition,
            color_bounds,
            args: group_args,
        });
    }

    HybridVerdict::NeedsDynamic(DynamicCheckPlan {
        domain: domain.clone(),
        groups,
    })
}

/// Try to prove statically that two functors' images over `domain` are
/// disjoint. `Some(true)` = provably disjoint, `Some(false)` = provably
/// overlapping (assuming both functors in bounds), `None` = unknown.
fn static_images_disjoint(f: &ProjExpr, g: &ProjExpr, domain: &Domain) -> Option<bool> {
    // Identical functors have identical images.
    if f.structurally_eq(g) {
        return Some(false);
    }
    match (f, g) {
        (ProjExpr::Constant(a), ProjExpr::Constant(b)) => Some(a != b),
        _ => {
            // Affine-family functors over dense 1-D domains: compare image
            // intervals (sound: disjoint intervals ⇒ disjoint images).
            let (ra, rb) = (image_interval(f, domain)?, image_interval(g, domain)?);
            if ra.1 < rb.0 || rb.1 < ra.0 {
                Some(true)
            } else {
                None // overlapping intervals are inconclusive
            }
        }
    }
}

/// Image interval of a 1-D → 1-D affine-family functor over a dense 1-D
/// domain.
fn image_interval(f: &ProjExpr, domain: &Domain) -> Option<(i64, i64)> {
    let Domain::Rect1(r) = domain else { return None };
    if r.is_empty() {
        return None;
    }
    match f {
        ProjExpr::Identity => Some((r.lo[0], r.hi[0])),
        ProjExpr::Constant(c) if c.dim() == 1 => Some((c.x(), c.x())),
        ProjExpr::Affine(t) if t.in_dim == 1 && t.out_dim == 1 => {
            let a = t.matrix[0][0];
            let b = t.offset[0];
            // Checked: an overflowing image is not a provable interval
            // (eval projects such points to the out-of-bounds sentinel).
            let x = a.checked_mul(r.lo[0])?.checked_add(b)?;
            let y = a.checked_mul(r.hi[0])?.checked_add(b)?;
            Some((x.min(y), x.max(y)))
        }
        // A non-positive modulus is ill-formed (eval projects every point
        // to the sentinel color): no interval claim, let the dynamic
        // check produce the verdict.
        ProjExpr::Modular { m, .. } if *m > 0 => Some((0, m - 1)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_geometry::Rect;
    use il_region::{coloring_partition, equal_partition_1d, FieldSpaceDesc, ReductionKind};

    struct Fixture {
        forest: RegionForest,
        disjoint: IndexPartitionId,
        aliased: IndexPartitionId,
    }

    /// 100-element region partitioned 10 ways disjointly, plus an aliased
    /// halo-ish partition.
    fn fixture() -> Fixture {
        let mut forest = RegionForest::new();
        let fs = forest.create_field_space(FieldSpaceDesc::new());
        let region = forest.create_region(Domain::range(100), fs);
        let disjoint = equal_partition_1d(&mut forest, region.space, 10);
        let aliased: Vec<_> = (0..10i64)
            .map(|c| {
                let lo = (c * 10 - 2).max(0);
                let hi = ((c + 1) * 10 + 1).min(99);
                (DomainPoint::new1(c), Domain::Rect1(Rect::new1(lo, hi)))
            })
            .collect();
        let aliased = coloring_partition(&mut forest, region.space, Domain::range(10), aliased);
        Fixture { forest, disjoint, aliased }
    }

    fn launch(args: Vec<LaunchArg>, n: i64, fx: &Fixture) -> HybridVerdict {
        analyze_launch(&fx.forest, &Domain::range(n), &args)
    }

    #[test]
    fn identity_write_on_disjoint_partition_static_safe() {
        let fx = fixture();
        let v = launch(
            vec![LaunchArg {
                partition: fx.disjoint,
                functor: ProjExpr::Identity,
                privilege: Privilege::ReadWrite,
                    fields: vec![],
            }],
            10,
            &fx,
        );
        assert!(matches!(v, HybridVerdict::SafeStatic));
    }

    #[test]
    fn read_through_aliased_partition_is_fine() {
        let fx = fixture();
        let v = launch(
            vec![LaunchArg {
                partition: fx.aliased,
                functor: ProjExpr::Identity,
                privilege: Privilege::Read,
                    fields: vec![],
            }],
            10,
            &fx,
        );
        assert!(matches!(v, HybridVerdict::SafeStatic));
    }

    #[test]
    fn write_through_aliased_partition_rejected() {
        let fx = fixture();
        let v = launch(
            vec![LaunchArg {
                partition: fx.aliased,
                functor: ProjExpr::Identity,
                privilege: Privilege::Write,
                    fields: vec![],
            }],
            10,
            &fx,
        );
        assert!(matches!(
            v,
            HybridVerdict::Unsafe(UnsafeReason::AliasedWritePartition { arg: 0 })
        ));
    }

    #[test]
    fn listing2_rejected_statically() {
        // foo(p[i], q[i%3]) with writes on q over [0,5): the paper's
        // walkthrough — statically provable non-injectivity.
        let fx = fixture();
        let v = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Read,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Modular { a: 1, b: 0, m: 3 },
                    privilege: Privilege::Write,
                    fields: vec![],
                },
            ],
            5,
            &fx,
        );
        assert!(matches!(
            v,
            HybridVerdict::Unsafe(UnsafeReason::NonInjectiveWrite { arg: 1 })
        ));
    }

    #[test]
    fn quadratic_write_needs_dynamic_and_passes() {
        let fx = fixture();
        let v = launch(
            vec![LaunchArg {
                partition: fx.disjoint,
                functor: ProjExpr::Quadratic { a: 1, b: 0, c: 0 }, // i² over [0,4): 0,1,4,9 — injective
                privilege: Privilege::Write,
                    fields: vec![],
            }],
            4,
            &fx,
        );
        let HybridVerdict::NeedsDynamic(plan) = v else {
            panic!("expected dynamic plan, got {v:?}");
        };
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.run().unwrap(), 4);
    }

    #[test]
    fn opaque_conflicting_write_caught_dynamically() {
        let fx = fixture();
        let v = launch(
            vec![LaunchArg {
                partition: fx.disjoint,
                functor: ProjExpr::opaque(|p| DomainPoint::new1(p.x() / 2)),
                privilege: Privilege::Write,
                    fields: vec![],
            }],
            6,
            &fx,
        );
        let HybridVerdict::NeedsDynamic(plan) = v else {
            panic!("expected dynamic plan");
        };
        let err = plan.run().unwrap_err();
        assert!(matches!(err, UnsafeReason::DynamicConflict { arg: 0, .. }));
    }

    #[test]
    fn same_functor_write_read_conflict_static() {
        let fx = fixture();
        let v = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Write,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Read,
                    fields: vec![],
                },
            ],
            10,
            &fx,
        );
        assert!(matches!(
            v,
            HybridVerdict::Unsafe(UnsafeReason::ConflictingImages { a: 0, b: 1 })
        ));
    }

    #[test]
    fn shifted_images_proven_disjoint_statically() {
        // write p[i], read p[i+5] over [0,5): images [0,4] and [5,9].
        let fx = fixture();
        let v = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Write,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::linear(1, 5),
                    privilege: Privilege::Read,
                    fields: vec![],
                },
            ],
            5,
            &fx,
        );
        assert!(matches!(v, HybridVerdict::SafeStatic));
    }

    #[test]
    fn interleaved_images_need_dynamic() {
        // write p[2i], read p[2i+1] over [0,5): intervals overlap but the
        // images are disjoint — only the dynamic check can tell.
        let fx = fixture();
        let v = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::linear(2, 0),
                    privilege: Privilege::Write,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::linear(2, 1),
                    privilege: Privilege::Read,
                    fields: vec![],
                },
            ],
            5,
            &fx,
        );
        let HybridVerdict::NeedsDynamic(plan) = v else {
            panic!("expected dynamic plan, got {v:?}");
        };
        assert_eq!(plan.run().unwrap(), 10); // 2 args × |D| = 5
    }

    #[test]
    fn reductions_commute() {
        let fx = fixture();
        let sum = Privilege::Reduce(ReductionKind::Sum.id());
        // Two reduce args with the same op and even overlapping images are
        // fine — even through a non-injective functor.
        let v = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Modular { a: 1, b: 0, m: 3 },
                    privilege: sum,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: sum,
                    fields: vec![],
                },
            ],
            10,
            &fx,
        );
        assert!(matches!(v, HybridVerdict::SafeStatic));
        // Different ops conflict (same partition, same image functor).
        let v2 = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Reduce(ReductionKind::Sum.id()),
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Reduce(ReductionKind::Min.id()),
                    fields: vec![],
                },
            ],
            10,
            &fx,
        );
        assert!(matches!(v2, HybridVerdict::Unsafe(_)));
    }

    #[test]
    fn different_partitions_of_same_data_conflict() {
        let fx = fixture();
        let v = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Write,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.aliased,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Read,
                    fields: vec![],
                },
            ],
            10,
            &fx,
        );
        assert!(matches!(
            v,
            HybridVerdict::Unsafe(UnsafeReason::CrossPartitionConflict { a: 0, b: 1 })
        ));
    }

    #[test]
    fn partitions_of_different_regions_independent() {
        let mut forest = RegionForest::new();
        let fs = forest.create_field_space(FieldSpaceDesc::new());
        let r1 = forest.create_region(Domain::range(50), fs);
        let r2 = forest.create_region(Domain::range(50), fs);
        let p1 = equal_partition_1d(&mut forest, r1.space, 5);
        let p2 = equal_partition_1d(&mut forest, r2.space, 5);
        let v = analyze_launch(
            &forest,
            &Domain::range(5),
            &[
                LaunchArg {
                    partition: p1,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Write,
                    fields: vec![],
                },
                LaunchArg {
                    partition: p2,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Read,
                    fields: vec![],
                },
            ],
        );
        assert!(matches!(v, HybridVerdict::SafeStatic));
    }

    #[test]
    fn statically_proven_writer_joins_dynamic_group() {
        // Writer p[i] (statically injective) + writer p[f(i)] (opaque):
        // the opaque functor must avoid the identity's colors, so both
        // participate in one bitmask pass.
        let fx = fixture();
        // f(i) = i: collides with the identity writer.
        let v = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Write,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::opaque(|p| p),
                    privilege: Privilege::Write,
                    fields: vec![],
                },
            ],
            5,
            &fx,
        );
        let HybridVerdict::NeedsDynamic(plan) = v else {
            panic!("expected dynamic plan");
        };
        assert_eq!(plan.groups[0].args.len(), 2);
        assert!(plan.run().is_err());

        // f(i) = i + 5: images disjoint, dynamic check passes.
        let v2 = launch(
            vec![
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::Identity,
                    privilege: Privilege::Write,
                    fields: vec![],
                },
                LaunchArg {
                    partition: fx.disjoint,
                    functor: ProjExpr::opaque(|p| DomainPoint::new1(p.x() + 5)),
                    privilege: Privilege::Write,
                    fields: vec![],
                },
            ],
            5,
            &fx,
        );
        let HybridVerdict::NeedsDynamic(plan2) = v2 else {
            panic!("expected dynamic plan");
        };
        assert!(plan2.run().is_ok());
    }
}
