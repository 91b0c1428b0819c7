//! Recovery-protocol pins: the observable result of every faulted run,
//! hashed.
//!
//! Each run below folds into one FNV-1a `u64`: makespan, task, message
//! and byte counts, the stage JSON (its `"faults"` object included), the
//! `RecoveryStats` and `SdcStats` counters, and — in validation mode —
//! the final instance store. The literals were computed on the commit
//! before recovery retries became fixed-size descriptors (journal-order
//! snapshots, a shared retry log, per-edge paid bits). How a retry is
//! represented is an implementation detail; which edges it settles, when
//! every task starts, and what every message costs are not — a change
//! that moves any of them moves one of these hashes.

use std::rc::Rc;

use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::machine::SimTime;
use index_launch::region::{IndexSpaceId, RegionForest, RegionTreeId};
use index_launch::runtime::{
    execute, policy_by_name, FaultConfig, InstanceStore, Program, ReplicationConfig, RunReport,
    RuntimeConfig, Service, ServiceConfig, SessionSpec,
};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv(h: &mut u64, word: u64) {
    fnv_bytes(h, &word.to_le_bytes());
}

/// Every resident instance, keys sorted (as in `validation_pins.rs`: the
/// keys are enumerated from the forest's dense id ranges, and the count
/// check proves none was missed).
fn fold_store(h: &mut u64, forest: &RegionForest, store: &InstanceStore) {
    let n = forest.num_spaces() as u32;
    let mut seen = 0;
    for tree in 0..n {
        for space in 0..n {
            if let Some(inst) = store.get((RegionTreeId(tree), IndexSpaceId(space))) {
                fnv(h, u64::from(tree));
                fnv(h, u64::from(space));
                fnv(h, inst.digest());
                seen += 1;
            }
        }
    }
    assert_eq!(seen, store.len(), "store holds keys outside the forest's id range");
}

/// One run's hash: everything the recovery protocol can move.
fn report_hash(program: &Program, r: &RunReport) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, r.makespan.as_ns());
    fnv(&mut h, r.tasks);
    fnv(&mut h, r.messages);
    fnv(&mut h, r.bytes);
    fnv_bytes(&mut h, r.stage_json().to_string().as_bytes());
    fnv_bytes(&mut h, format!("{:?}", r.recovery).as_bytes());
    fnv_bytes(&mut h, format!("{:?}", r.sdc).as_bytes());
    if let Some(store) = &r.store {
        fold_store(&mut h, &program.forest, store);
    }
    h
}

fn run_hash(program: &Program, config: &RuntimeConfig) -> u64 {
    let report = execute(program, config);
    assert!(report.recovery.is_some(), "every pinned run is faulted");
    report_hash(program, &report)
}

/// The five apps' tiny validation problems, each on 4 nodes.
fn tiny_apps() -> Vec<(&'static str, Program)> {
    vec![
        ("stencil", stencil::build(&stencil::StencilConfig::tiny((2, 2))).program),
        ("circuit", circuit::build(&circuit::CircuitConfig::tiny(4)).program),
        ("soleil", soleil::build(&soleil::SoleilConfig::tiny((2, 2, 1))).program),
        ("amr", amr::build(&amr::AmrConfig::tiny()).program),
        ("pagerank", pagerank::build(&pagerank::PagerankConfig::tiny(4)).program),
    ]
}

const AXES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];
const SEEDS: [u64; 3] = [1, 7, 0xBAD5EED];

/// Per app, per seed in `SEEDS`, per (DCR, IDX) corner in `AXES`.
const PINNED_TINY: [(&str, [[u64; 4]; 3]); 5] = [
    (
        "stencil",
        [
            [0xecab4de02bb77e26, 0xbac216526ae295d1, 0x2f92a1b3903bc2fc, 0x91d78777ea2f7c2c],
            [0x23101d43f974f81d, 0xa7d5fc367cdc0fb9, 0xa2288bd4c81f8824, 0x8cd01247391dbec7],
            [0x8f9b30ec677891dc, 0x4d504968bbb425d2, 0x4ddaced89ba98e92, 0x17774bb116dd50a1],
        ],
    ),
    (
        "circuit",
        [
            [0xf9b3432024761a28, 0xe026e2c4f0baa69f, 0x61d728572161a814, 0x4fa77ad2641de6a2],
            [0xe3d1c0c35002a264, 0xcf6ac2ecde7afbd9, 0xa5ed63a2deaecb03, 0x4745823b1e6f459f],
            [0x04e74b126e133cb8, 0x7cf870643e15fb59, 0xe9db6fb423f07bcf, 0x56003e47394539db],
        ],
    ),
    (
        "soleil",
        [
            [0x0c2a5a8f4e1389bb, 0x6309a4cc62a28e2d, 0x571710758a4f0323, 0xae43648dfed93908],
            [0xb16ebfcd19bc6abf, 0x4b071f2591a31d23, 0xaf03c9f312c2494b, 0xddd995ce0e710003],
            [0xc76a8d69f21735e2, 0x047c91aeac723722, 0xa566b2e44bc31d46, 0x7f549d50302df850],
        ],
    ),
    (
        "amr",
        [
            [0x8d7e9c3ba026385d, 0xfa0aa258b5c7dcc3, 0xf2452de1d9dfdd3b, 0x8187fe4aaa9c6820],
            [0x9fdf7e47a1214c99, 0xd136b5c970df56a8, 0x586e33e3d4a4a634, 0x38c2cf5c4e488443],
            [0x7afc3c61473b01bb, 0x47b8c245b4c68d5d, 0xf2d3def867edbd69, 0x9efbc5144d132e20],
        ],
    ),
    (
        "pagerank",
        [
            [0x0eced3d4fade74aa, 0x4efa65eda94caebd, 0x2365e50748bce537, 0x19867e811f69dda1],
            [0x927345254a91229d, 0x56d05781ecb732dd, 0x5eb56a1eba747747, 0x375a49e9bc46409b],
            [0x061a048145583e34, 0x80f1c5f56d3b9de2, 0xe138ee8e3e05f8e8, 0x5e55d1879522154a],
        ],
    ),
];

#[test]
fn tiny_faulted_runs_are_pinned() {
    let got: Vec<(&str, [[u64; 4]; 3])> = tiny_apps()
        .into_iter()
        .map(|(name, program)| {
            let rows = SEEDS.map(|seed| {
                AXES.map(|(dcr, idx)| {
                    let config = RuntimeConfig::validate(4).with_axes(dcr, idx).with_faults(seed);
                    run_hash(&program, &config)
                })
            });
            (name, rows)
        })
        .collect();
    assert_eq!(
        got,
        PINNED_TINY,
        "tiny faulted run hashes per app [seed {SEEDS:?}][axes {AXES:?}]:\n{got:#018x?}"
    );
}

/// Stencil and circuit (weak scaling, scale mode) per node count, per
/// fault seed 1, 2, 3 — the `chaos-scale` shape at sizes a test can run.
const PINNED_SCALE: [(&str, usize, [u64; 3]); 4] = [
    ("stencil", 64, [0x73c015363dae46c7, 0x14c17439e1be800e, 0xc7965a4c4b629d8a]),
    ("stencil", 256, [0xa438e5abf4503ec8, 0xb93b13ec631fd668, 0xf35e7de02f528f79]),
    ("circuit", 64, [0x5b048d60b5bba355, 0x5d9c0fb11a2fd885, 0xe40d1c88d7f2c497]),
    ("circuit", 256, [0xe12e6e78833ad02f, 0x88f3327f4f364fdc, 0x82973a3283e8dfb6]),
];

#[test]
fn scale_mode_retry_storms_are_pinned() {
    let got = PINNED_SCALE.map(|(name, nodes, _)| {
        let program = match name {
            "stencil" => stencil::build(&stencil::StencilConfig::weak(nodes)).program,
            _ => circuit::build(&circuit::CircuitConfig::weak(nodes, 1)).program,
        };
        let hashes =
            [1, 2, 3].map(|seed| run_hash(&program, &RuntimeConfig::scale(nodes).with_faults(seed)));
        (name, nodes, hashes)
    });
    assert_eq!(got, PINNED_SCALE, "scale-mode faulted run hashes:\n{got:#018x?}");
}

/// Stencil at `validate-sdc`'s smoke size (192² cells, 8×8 tiles, 8
/// iterations, 16 nodes) under a corrupting schedule with the
/// replicate-2 defense armed.
const PINNED_STENCIL_192_DEFENDED: u64 = 0xfaafc1b4f76cdf89;

#[test]
fn defended_stencil_192_is_pinned() {
    let config = stencil::StencilConfig {
        grid: (192, 192),
        tiles: (8, 8),
        iterations: 8,
        ..stencil::StencilConfig::tiny((8, 8))
    };
    let app = stencil::build(&config);
    let runtime = RuntimeConfig::validate(16)
        .with_corruption(0x5DC1)
        .with_replication(ReplicationConfig::all(2));
    let got = run_hash(&app.program, &runtime);
    assert_eq!(got, PINNED_STENCIL_192_DEFENDED, "defended stencil 192² hash {got:#018x}");
}

/// `[report, Chrome export]` of a traced faulted circuit run: the export
/// carries one `Recovery` event per probe and per retry batch.
const PINNED_TRACED: [u64; 2] = [0xe3d1c0c35002a264, 0x423e767585671104];

#[test]
fn traced_faulted_run_is_pinned() {
    let program = circuit::build(&circuit::CircuitConfig::tiny(4)).program;
    let report = execute(&program, &RuntimeConfig::validate(4).with_faults(7).with_trace(true));
    let recovery = report.recovery.as_ref().expect("faulted run reports recovery");
    assert!(recovery.retried_tasks > 0, "the pinned schedule must retry: {recovery:?}");
    let mut chrome = FNV_OFFSET;
    let trace = report.trace.as_ref().expect("traced run keeps its log");
    fnv_bytes(&mut chrome, trace.to_chrome_trace().as_bytes());
    let got = [report_hash(&program, &report), chrome];
    assert_eq!(got, PINNED_TRACED, "traced faulted run [report, chrome] {got:#018x?}");
}

/// Per session of a 3-tenant, 2-slot service under a machine-wide fault
/// schedule, in report order: `(submit_idx, slot, admitted, finished,
/// wait_rounds)` and the session's report hash, folded.
const PINNED_SERVICE: [u64; 3] = [0x52a59d334dd7052e, 0xd9cba5247fa49068, 0x400bb085e22f6614];

#[test]
fn faulted_service_sessions_are_pinned() {
    const SLOT_NODES: usize = 4;
    let faults = FaultConfig::from_seed(7);
    let apps: Vec<Rc<Program>> = tiny_apps().into_iter().take(3).map(|(_, p)| Rc::new(p)).collect();
    let sessions: Vec<SessionSpec> = apps
        .iter()
        .enumerate()
        .map(|(i, program)| SessionSpec {
            tenant: i as u32,
            priority: 0,
            arrival: SimTime::us(40 * i as u64),
            program: program.clone(),
            config: RuntimeConfig::validate(SLOT_NODES).with_fault_config(faults.clone()),
        })
        .collect();
    let mut svc = Service::new(
        ServiceConfig {
            slots: 2,
            slot_nodes: SLOT_NODES,
            queue_cap: sessions.len(),
            faults: Some(faults),
            replication_overrides: vec![],
        },
        policy_by_name("fifo"),
    );
    let out = svc.run(&sessions);
    assert!(out.rejected.is_empty());
    assert_eq!(out.sessions.len(), sessions.len());
    let got: Vec<u64> = out
        .sessions
        .iter()
        .map(|s| {
            assert!(s.report.recovery.is_some(), "session {} ran unfaulted", s.submit_idx);
            let mut h = FNV_OFFSET;
            fnv(&mut h, s.submit_idx as u64);
            fnv(&mut h, s.slot as u64);
            fnv(&mut h, s.admitted.as_ns());
            fnv(&mut h, s.finished.as_ns());
            fnv(&mut h, s.wait_rounds);
            fnv(&mut h, report_hash(&apps[s.submit_idx], &s.report));
            h
        })
        .collect();
    assert_eq!(got, PINNED_SERVICE, "faulted service session hashes {got:#018x?}");
}
