//! The completion fan-out is a function of the expansion alone.
//!
//! The executor used to regroup a finished task's credits from scratch —
//! hash the consumers by owner, rescan each consumer's copy list, sort
//! the targets — on every completion. It now reads the groups off
//! [`CreditTable`], built once per expansion. That per-completion
//! grouping survives here, and only here, as the reference the table is
//! checked against: same owner nodes in the same order, same consumers
//! in the same order, same credits, same message bytes — which is what
//! keeps DES sequence numbers, and with them every simulated time,
//! unchanged. The same expansions also check [`EdgeSlots`], the dense
//! edge numbering the recovery path keeps its per-edge paid bits over.

use il_oracle::generate_program;
use il_testkit::SplitMix64;
use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::runtime::{
    CreditTable, EdgeSlots, ExpandedProgram, Program, RuntimeConfig, TaskTable,
};
use std::collections::HashMap;

/// One credit message: (owner node, `(consumer, credits)` items, bytes).
type Group = (usize, Vec<(u32, u32)>, u64);

/// The old `complete_task` grouping, run for every task: consumers in
/// ascending task order (how `succs` rows used to be built), 1 credit
/// per dependence edge plus 1 per incoming copy from this producer,
/// grouped by consumer owner and sent in ascending owner order.
fn reference_fanout(ex: &ExpandedProgram, notify_bytes: u64) -> Vec<Vec<Group>> {
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); ex.len()];
    for (t, preds) in ex.deps.iter().enumerate() {
        for &p in preds {
            consumers[p as usize].push(t as u32);
        }
    }
    (0..ex.len() as u32)
        .map(|task| {
            let mut per_node: HashMap<usize, (Vec<(u32, u32)>, u64)> = HashMap::new();
            for &succ in &consumers[task as usize] {
                let owner = ex.tasks[succ as usize].owner;
                let copies: Vec<_> =
                    ex.copies[succ as usize].iter().filter(|c| c.from == task).collect();
                let credits = 1 + copies.len() as u32;
                let bytes = notify_bytes + copies.iter().map(|c| c.bytes).sum::<u64>();
                let entry = per_node.entry(owner).or_default();
                entry.0.push((succ, credits));
                entry.1 += bytes;
            }
            let mut targets: Vec<Group> =
                per_node.into_iter().map(|(n, (items, bytes))| (n, items, bytes)).collect();
            targets.sort_unstable_by_key(|(n, _, _)| *n);
            targets
        })
        .collect()
}

/// The groups the executor sends, read off the table exactly as
/// `complete_task` (sender) and the `Credits` handler (receiver) do.
fn table_fanout(tasks: &TaskTable, nodes: usize, notify_bytes: u64) -> Vec<Vec<Group>> {
    let table = CreditTable::build(tasks, nodes);
    (0..tasks.len() as u32)
        .map(|task| {
            table
                .groups(tasks, task, notify_bytes)
                .map(|g| {
                    let items: Vec<_> = table.edges(tasks, task, g.lo, g.hi, g.xlo).collect();
                    // The recovery path prices an edge by search; it must
                    // find the entry the row walk reads.
                    for &(to, credits) in &items {
                        assert_eq!(table.edge_credits(tasks, task, to), credits, "edge {task}->{to}");
                    }
                    (g.owner, items, g.bytes)
                })
                .collect()
        })
        .collect()
}

/// The recovery path's per-edge paid bits index [`EdgeSlots`]: on every
/// node, the edges into its tasks must get distinct slots below its edge
/// count (so a bit never aliases two edges), and a pair that is not a
/// dependence must get none (probed at `from + 1` for every dependence
/// `from` that is not followed by another, and at the pair `(t, t)`).
fn assert_edge_slots_dense(name: &str, ex: &ExpandedProgram, tasks: &TaskTable, nodes: usize) {
    let slots = EdgeSlots::build(tasks, nodes);
    let mut taken: Vec<Vec<bool>> = (0..nodes).map(|n| vec![false; slots.owned(n)]).collect();
    for (to, row) in ex.deps.iter().enumerate() {
        let to = to as u32;
        let owner = ex.tasks[to as usize].owner;
        for &from in row {
            let slot = slots.slot(tasks, from, to).unwrap_or_else(|| {
                panic!("{name} on {nodes} nodes: dependence {from}->{to} has no slot")
            });
            assert!(
                slot < taken[owner].len(),
                "{name} on {nodes} nodes: edge {from}->{to} slot {slot} past node {owner}'s {} edges",
                taken[owner].len()
            );
            assert!(
                !std::mem::replace(&mut taken[owner][slot], true),
                "{name} on {nodes} nodes: edge {from}->{to} reuses node {owner}'s slot {slot}"
            );
            if !row.contains(&(from + 1)) {
                let next = from + 1;
                assert_eq!(slots.slot(tasks, next, to), None, "{name}: non-edge {next}->{to}");
            }
        }
        assert_eq!(slots.slot(tasks, to, to), None, "{name}: self-edge {to}->{to}");
    }
    for (node, taken) in taken.iter().enumerate() {
        assert!(taken.iter().all(|&t| t), "{name} on {nodes} nodes: node {node} has unused slots");
    }
}

fn assert_fanout_matches(name: &str, program: &Program, nodes: usize) {
    let config = RuntimeConfig::scale(nodes);
    let tasks = TaskTable::expand(program, &config);
    let ex = tasks.view(program);
    let notify = config.cost.notify_message_bytes;
    let want = reference_fanout(&ex, notify);
    let got = table_fanout(&tasks, nodes, notify);
    for (task, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{name} on {nodes} nodes: fan-out of task {task} differs");
    }
    assert_edge_slots_dense(name, &ex, &tasks, nodes);
}

#[test]
fn table_groups_equal_the_per_completion_grouping_on_the_corpus() {
    for case in 0..500u64 {
        let seed = SplitMix64::mix(0x5EED_CA5E, case);
        let program = generate_program(seed);
        for nodes in [1, 3, 8] {
            assert_fanout_matches(&format!("seed {seed:#x}"), &program, nodes);
        }
    }
}

#[test]
fn table_groups_equal_the_per_completion_grouping_on_the_apps() {
    let stencil = stencil::build(&stencil::StencilConfig {
        iterations: 3,
        ..stencil::StencilConfig::tiny((2, 2))
    });
    let circuit = circuit::build(&circuit::CircuitConfig {
        iterations: 3,
        ..circuit::CircuitConfig::tiny(4)
    });
    let soleil = soleil::build(&soleil::SoleilConfig {
        iterations: 2,
        ..soleil::SoleilConfig::tiny((2, 1, 1))
    });
    let amr = amr::build(&amr::AmrConfig::tiny());
    let pagerank = pagerank::build(&pagerank::PagerankConfig::tiny(4));
    for (name, program) in [
        ("stencil", &stencil.program),
        ("circuit", &circuit.program),
        ("soleil", &soleil.program),
        ("amr", &amr.program),
        ("pagerank", &pagerank.program),
    ] {
        for nodes in [1, 3, 8] {
            assert_fanout_matches(name, program, nodes);
        }
    }
}
