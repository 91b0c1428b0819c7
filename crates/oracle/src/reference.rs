//! The desugared-launch reference executor.
//!
//! Expands every index launch into |D| individual point launches (the
//! loop of Fig. 1) and computes the ground-truth dependence graph by
//! brute force: task `b` depends on an earlier task `a` iff they access
//! a common (region tree, element point, field) with privileges that do
//! not commute. No projection-functor analysis, no partition
//! disjointness metadata, no bitmask pass — every access is materialized
//! point by point and every pair is tested. This is deliberately the
//! slowest possible implementation of §2's semantics, so it can serve as
//! the oracle the fast path is differentially checked against.

use il_geometry::DomainPoint;
use il_region::{FieldId, Privilege, RegionTreeId};
use il_runtime::{Program, RegionReq};
use std::collections::HashMap;

/// One desugared point launch.
#[derive(Clone, Debug)]
pub struct OracleTask {
    /// Index of the originating operation.
    pub op: u32,
    /// Iteration-order position within the launch domain.
    pub point_idx: u32,
    /// The launch-domain point.
    pub point: DomainPoint,
    /// Modeled kernel duration in nanoseconds (for the serial-machine
    /// makespan comparison).
    pub cost_ns: u64,
}

/// The ground-truth dependence graph of a program's desugared launches.
#[derive(Clone, Debug)]
pub struct OracleGraph {
    /// All point tasks, op-major then domain iteration order — the same
    /// canonical labeling the runtime expansion uses, so graphs can be
    /// compared index-by-index.
    pub tasks: Vec<OracleTask>,
    /// Task range `[lo, hi)` of each operation.
    pub op_tasks: Vec<(u32, u32)>,
    /// Predecessors of each task (every entry is `< t`), sorted and
    /// deduplicated.
    pub deps: Vec<Vec<u32>>,
    /// Per operation: whether any two of its own point tasks interfere
    /// (the non-interference verdict of §3, decided by brute force).
    pub interfering: Vec<bool>,
}

/// The explicit field list of a requirement (empty = all fields of the
/// field space).
fn fields_of(program: &Program, req: &RegionReq) -> Vec<FieldId> {
    if req.fields.is_empty() {
        let len = program.forest.field_space(req.field_space).len();
        (0..len as u32).map(FieldId).collect()
    } else {
        req.fields.clone()
    }
}

/// Desugar `program` and compute its ground-truth dependence graph.
///
/// # Panics
/// Panics if a projection functor selects a color with no subspace
/// (invalid program — the runtime expansion rejects it the same way).
pub fn reference_expand(program: &Program) -> OracleGraph {
    let forest = &program.forest;
    let mut tasks: Vec<OracleTask> = Vec::new();
    let mut op_tasks: Vec<(u32, u32)> = Vec::with_capacity(program.ops.len());
    // Every materialized access: (tree, element, field) -> touching
    // (task, privilege) records, in task order.
    let mut incidences: HashMap<(RegionTreeId, DomainPoint, FieldId), Vec<(u32, Privilege)>> =
        HashMap::new();

    for (op_idx, op) in program.ops.iter().enumerate() {
        let launch = op.launch();
        let lo = tasks.len() as u32;
        for (point_idx, point) in launch.domain.iter().enumerate() {
            let t = tasks.len() as u32;
            for req in &launch.reqs {
                let color = program.functor(req.functor).eval(point);
                let space = forest.try_subspace(req.partition, color).unwrap_or_else(|| {
                    panic!("functor selected color {color:?} with no subspace")
                });
                for field in fields_of(program, req) {
                    for elem in forest.domain(space).iter() {
                        incidences
                            .entry((req.tree, elem, field))
                            .or_default()
                            .push((t, req.privilege));
                    }
                }
            }
            tasks.push(OracleTask {
                op: op_idx as u32,
                point_idx: point_idx as u32,
                point,
                cost_ns: launch.cost.at(point).as_ns(),
            });
        }
        op_tasks.push((lo, tasks.len() as u32));
    }

    // Pairwise conflicts per shared access: an edge from the earlier to
    // the later task whenever the privileges do not commute.
    let mut deps: Vec<Vec<u32>> = vec![Vec::new(); tasks.len()];
    for list in incidences.values() {
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let (a, pa) = list[i];
                let (b, pb) = list[j];
                if a == b || pa.parallel_with(&pb) {
                    continue;
                }
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                deps[hi as usize].push(lo);
            }
        }
    }
    for d in &mut deps {
        d.sort_unstable();
        d.dedup();
    }

    let interfering = op_tasks
        .iter()
        .map(|&(lo, hi)| {
            (lo..hi).any(|t| deps[t as usize].iter().any(|&d| d >= lo && d < hi))
        })
        .collect();

    OracleGraph { tasks, op_tasks, deps, interfering }
}

/// Transitive closure of a predecessor list as bitset rows: bit `d` of
/// row `t` is set iff `d` must run before `t`. Requires every entry of
/// `deps[t]` to be `< t` (both the runtime expansion and the oracle
/// satisfy this by construction).
///
/// Two dependence graphs over the same task labeling are *equivalent*
/// (enforce the same orderings) iff their closures are equal — direct
/// edges may legitimately differ when one side elides an edge that is
/// implied transitively (e.g. the runtime retires a reader once a
/// covering write has ordered past it).
pub fn transitive_closure(deps: &[Vec<u32>]) -> Vec<Vec<u64>> {
    let n = deps.len();
    let words = n.div_ceil(64);
    let mut rows: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    for (t, deps_t) in deps.iter().enumerate() {
        let (before, rest) = rows.split_at_mut(t);
        let row = &mut rest[0];
        for &d in deps_t {
            let d = d as usize;
            assert!(d < t, "dependence {d} of task {t} is not earlier");
            for (acc, w) in row.iter_mut().zip(&before[d]) {
                *acc |= w;
            }
            row[d / 64] |= 1u64 << (d % 64);
        }
    }
    rows
}

/// Makespan of the graph on a serial machine model: tasks run one at a
/// time except that independent tasks overlap perfectly — i.e. the
/// longest dependence chain, weighted by per-task cost. Equal closures
/// with equal costs imply equal serial makespans; comparing the value
/// computed *independently* on each graph additionally pins the cost
/// labeling.
pub fn serial_makespan(cost_ns: &[u64], deps: &[Vec<u32>]) -> u64 {
    let mut finish = vec![0u64; cost_ns.len()];
    let mut best = 0u64;
    for t in 0..cost_ns.len() {
        let start = deps[t].iter().map(|&d| finish[d as usize]).max().unwrap_or(0);
        finish[t] = start + cost_ns[t];
        best = best.max(finish[t]);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_includes_transitive_edges() {
        // 0 <- 1 <- 2: closure of 2 must include 0.
        let deps = vec![vec![], vec![0], vec![1]];
        let c = transitive_closure(&deps);
        assert_eq!(c[2][0] & 0b111, 0b011);
        assert_eq!(c[1][0] & 0b111, 0b001);
        assert_eq!(c[0][0], 0);
    }

    #[test]
    fn closure_equates_direct_and_implied_graphs() {
        // {2<-1<-0} and {2<-{0,1}, 1<-0} have the same closure.
        let a = vec![vec![], vec![0], vec![1]];
        let b = vec![vec![], vec![0], vec![0, 1]];
        assert_eq!(transitive_closure(&a), transitive_closure(&b));
    }

    #[test]
    fn serial_makespan_is_critical_path() {
        // Chain 0->1 costs 3+4, independent task 2 costs 5.
        let deps = vec![vec![], vec![0], vec![]];
        assert_eq!(serial_makespan(&[3, 4, 5], &deps), 7);
        assert_eq!(serial_makespan(&[3, 4, 9], &deps), 9);
    }
}
