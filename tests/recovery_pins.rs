//! Recovery-protocol pins: the observable result of every faulted run,
//! hashed twice.
//!
//! Each run below folds into two FNV-1a `u64`s:
//!
//! - its **outcome**: makespan, task count, per-stage busy time and — in
//!   validation mode — the final instance store. These say what the run
//!   computed and when; a change to how recovery talks must not move
//!   them, and one that does names each moved literal and its cause.
//! - its **protocol counters**: message and byte counts (in total and
//!   per sending stage), the `RecoveryStats` and the `SdcStats`. These
//!   say how much the protocol talked, and move whenever a change sends
//!   fewer or more retries.
//!
//! How a retry is represented is an implementation detail; which edges
//! it settles, when every task starts, and what every message costs are
//! not — a change that moves any of them moves one of these hashes.

use std::rc::Rc;

use il_testkit::{fnv1a, Fnv1a};
use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::machine::SimTime;
use index_launch::region::{IndexSpaceId, RegionForest, RegionTreeId};
use index_launch::runtime::{
    execute, policy_by_name, FaultConfig, InstanceStore, Program, ReplicationConfig, RunReport,
    RuntimeConfig, Service, ServiceConfig, SessionSpec,
};

/// Every resident instance, keys sorted (as in `validation_pins.rs`: the
/// keys are enumerated from the forest's dense id ranges, and the count
/// check proves none was missed).
fn fold_store(h: &mut Fnv1a, forest: &RegionForest, store: &InstanceStore) {
    let n = forest.num_spaces() as u32;
    let mut seen = 0;
    for tree in 0..n {
        for space in 0..n {
            if let Some(inst) = store.get((RegionTreeId(tree), IndexSpaceId(space))) {
                h.word(u64::from(tree));
                h.word(u64::from(space));
                h.word(inst.digest());
                seen += 1;
            }
        }
    }
    assert_eq!(seen, store.len(), "store holds keys outside the forest's id range");
}

/// One run's `[outcome, protocol counters]` hashes.
fn report_hashes(program: &Program, r: &RunReport) -> [u64; 2] {
    let mut outcome = Fnv1a::new();
    outcome.word(r.makespan.as_ns());
    outcome.word(r.tasks);
    for (stage, busy) in r.stage_busy.iter() {
        outcome.bytes(stage.name().as_bytes());
        outcome.word(busy.as_ns());
    }
    if let Some(store) = &r.store {
        fold_store(&mut outcome, &program.forest, store);
    }
    let mut counters = Fnv1a::new();
    counters.word(r.messages);
    counters.word(r.bytes);
    for (&messages, &bytes) in r.stage_messages.iter().zip(&r.stage_bytes) {
        counters.word(messages);
        counters.word(bytes);
    }
    counters.bytes(format!("{:?}", r.recovery).as_bytes());
    counters.bytes(format!("{:?}", r.sdc).as_bytes());
    [outcome.finish(), counters.finish()]
}

fn run_hashes(program: &Program, config: &RuntimeConfig) -> [u64; 2] {
    let report = execute(program, config);
    assert!(report.recovery.is_some(), "every pinned run is faulted");
    report_hashes(program, &report)
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

/// One hash per app, per seed in `SEEDS`, per (DCR, IDX) corner in `AXES`.
type TinyPins = [(&'static str, [[u64; 4]; 3]); 5];

/// Outcomes of the tiny faulted runs.
const TINY_OUTCOMES: TinyPins = [
    (
        "stencil",
        [
            [0x17a512bc35461ff8, 0x7d9ebc50b0fc3134, 0x5ed99cc506381489, 0xca4268b613c6e121],
            [0x52b21a260150c686, 0x7d9ebc50b0fc3134, 0x35d7cabb3fbb7bf8, 0x97193cf91977c331],
            [0x0750de8b4d58f5ac, 0x910ebf7cf68d76f5, 0x4a0eb19648663ef5, 0x4e5ae6b4426b63da],
        ],
    ),
    (
        "circuit",
        [
            [0xf19dedfee9ece898, 0x41e01566916dc2e0, 0xe0d350f55b7db9ec, 0xbe9cdbff5a74aaf4],
            [0xb520b9567edec987, 0x316c5e315897d897, 0x2da831ea30345ef7, 0xa5095c83deb36fd0],
            [0x5dd9363d821bc61a, 0x45ab2e611c072e6d, 0x7ac70e9c2e5d76f9, 0xae5c1c0fb51acc30],
        ],
    ),
    (
        "soleil",
        [
            [0x4b670cefe8bd810c, 0x465696ca7d587332, 0x2792c13704e11a4d, 0xe30e31333f0e25f3],
            [0xf3d8fb934ec78f08, 0x5f1b2c3fcb5e31cd, 0xc5b6ee407769787e, 0xa25b45386f70d8c7],
            [0x32881621bd87b8f8, 0xf87d8ad987af2280, 0xfa4a512f9b1afbf5, 0xa51bda0f0c1c2be9],
        ],
    ),
    (
        "amr",
        [
            [0x3845e85b89cc4455, 0xa4ef8e63c3205bfb, 0x06988afe127421b6, 0x8b30e5b80959c0b8],
            [0xa6de9c3f2a8f0729, 0x4558cdafcb9bb032, 0x6a39166a646f4d86, 0x14066b59952c3e03],
            [0x4985f49f6ed3bfe3, 0xaa9eba6aaadd43d3, 0x1ba83c42959d5b41, 0xbc079a388059c85b],
        ],
    ),
    (
        "pagerank",
        [
            [0xf4d108e6a4ed68f8, 0x8728ef8f37423dd4, 0xe2a71067f5d81950, 0xed96d32bc16804d8],
            [0x1a2fd539667d96ae, 0x8728ef8f37423dd4, 0x7e9983829bdd1071, 0x58c7f832e36f9ae7],
            [0xf9c9b9165f99754c, 0xbb1140c1dd3f56c5, 0xf8c576520d63d641, 0xa17eb34dd78f0e33],
        ],
    ),
];

/// Protocol counters of the tiny faulted runs.
const TINY_COUNTERS: TinyPins = [
    (
        "stencil",
        [
            [0xf18909c3523fd4b5, 0x0fb4a779a1aa2ba9, 0xd954c86cfb511d0a, 0xa2f34a54dfd0e7a9],
            [0x653905fb899747e9, 0xbfe496bfdf5dd604, 0x469f6a1ac786cab4, 0x4462252912879434],
            [0x9ecf4b55713c315f, 0x61011bb9123c1334, 0x8e168cddd0f17023, 0x7ad3f6527d8aa3c7],
        ],
    ),
    (
        "circuit",
        [
            [0x928c865858cfcc95, 0xc707b3067e9f3b81, 0x208d88ae462c171a, 0x100ba33beded4fe8],
            [0x5969848b049b124b, 0x11aab3e0728153fa, 0x0f9c8e38954327f6, 0x2129319b0869c44c],
            [0xf562e8ebcf0c62cc, 0xc6fd919d4c0707ed, 0xdf593a9cb5cc79ce, 0x07ba8eeead77a9ca],
        ],
    ),
    (
        "soleil",
        [
            [0x9ec514d1b4448305, 0x167179532c27239e, 0x6a7dffdaaf09fe00, 0xf3f8f2d493a75a7a],
            [0x034b542013fda04e, 0x6d78c136c8cf034f, 0x970ad1e65994d11a, 0x890559f337f37bc6],
            [0xcb94693ffc8a35b4, 0xb31fc2d8252ed9d3, 0xab2d2c6a14681a4c, 0x8afea5bc8bfcb327],
        ],
    ),
    (
        "amr",
        [
            [0xfdf99b9489442423, 0x2e2ae4f8997b2f5f, 0x1e763f06c46e1ea2, 0x45d9d39b1ab3c1f3],
            [0xaba31721eae1cca2, 0x10ea7976c64ee577, 0xadb4738125f1f996, 0xdc91498856fa8854],
            [0x628599e2ead31e32, 0x44fdabc2c4b94a72, 0x08c8a3568a3ee6c2, 0xc9443270928243e6],
        ],
    ),
    (
        "pagerank",
        [
            [0x06f6f253180d1fe2, 0x684a9cbdfa3d7e08, 0x071ad212c29fb15f, 0xabd83957e6caac9f],
            [0x6480b2a3e964d9a2, 0xd95202cde97c6781, 0xaccfef95617d7177, 0xe049236fa345cf59],
            [0x0b99bd9941a42ce0, 0x61ee076a527abe7d, 0x65633ec2ee009cd8, 0x7b12d5a6169d0792],
        ],
    ),
];

#[test]
fn tiny_faulted_runs_are_pinned() {
    let runs: Vec<(&str, [[[u64; 2]; 4]; 3])> = tiny_apps()
        .into_iter()
        .map(|(name, program)| {
            let rows = SEEDS.map(|seed| {
                AXES.map(|(dcr, idx)| {
                    let config = RuntimeConfig::validate(4).with_axes(dcr, idx).with_faults(seed);
                    run_hashes(&program, &config)
                })
            });
            (name, rows)
        })
        .collect();
    for (part, want) in [(0, TINY_OUTCOMES), (1, TINY_COUNTERS)] {
        let got: Vec<(&str, [[u64; 4]; 3])> =
            runs.iter().map(|&(name, rows)| (name, rows.map(|row| row.map(|h| h[part])))).collect();
        assert_eq!(
            got,
            want,
            "tiny faulted run {} per app [seed {SEEDS:?}][axes {AXES:?}]:\n{got:#018x?}",
            ["outcomes", "protocol counters"][part]
        );
    }
}

/// Stencil and circuit (weak scaling, scale mode) per node count, per
/// fault seed 1, 2, 3 — the `chaos-scale` shape at sizes a test can run —
/// as `[outcome, protocol counters]`.
const PINNED_SCALE: [(&str, usize, [[u64; 2]; 3]); 4] = [
    (
        "stencil",
        64,
        [
            [0x8c5502bd8c14beb2, 0x24297eef2c50724a],
            [0x9d32f93428bf5b07, 0xdbef5f083b45a8df],
            [0xb97fe37ece7dc954, 0x540510bc80e179da],
        ],
    ),
    (
        "stencil",
        256,
        [
            [0xf5d00e83cea90c3c, 0x38d69950f08649b3],
            [0xf5d00e83cea90c3c, 0x6320366b4dd70145],
            [0x394e5c9c7b410c56, 0x3d11e1a983d110c2],
        ],
    ),
    (
        "circuit",
        64,
        [
            [0x3d0a72b22db89a1a, 0xdbd9e75363195765],
            [0xf2bf3004eec72ae1, 0xfdfaf18513b504cd],
            [0x3d0a72b22db89a1a, 0xd12bfad4ae10bd4c],
        ],
    ),
    (
        "circuit",
        256,
        [
            [0x22ae84d4fcb1b98e, 0x5455dfb5330829e9],
            [0x1a5704ac6b6ba9eb, 0xb1bb163dc051a0f3],
            [0x22ae84d4fcb1b98e, 0x917d28d17b1cda12],
        ],
    ),
];

#[test]
fn scale_mode_retry_storms_are_pinned() {
    let got = PINNED_SCALE.map(|(name, nodes, _)| {
        let program = match name {
            "stencil" => stencil::build(&stencil::StencilConfig::weak(nodes)).program,
            _ => circuit::build(&circuit::CircuitConfig::weak(nodes, 1)).program,
        };
        let hashes = [1, 2, 3]
            .map(|seed| run_hashes(&program, &RuntimeConfig::scale(nodes).with_faults(seed)));
        (name, nodes, hashes)
    });
    assert_eq!(got, PINNED_SCALE, "scale-mode faulted run hashes:\n{got:#018x?}");
}

/// Stencil at `validate-sdc`'s smoke size (192² cells, 8×8 tiles, 8
/// iterations, 16 nodes) under a corrupting schedule with the
/// replicate-2 defense armed: `[outcome, protocol counters]`.
const PINNED_STENCIL_192_DEFENDED: [u64; 2] = [0x1455b66c82145666, 0x46522e1c8c8e201e];

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
    let got = run_hashes(&app.program, &runtime);
    assert_eq!(got, PINNED_STENCIL_192_DEFENDED, "defended stencil 192² hashes {got:#018x?}");
}

/// `[outcome, protocol counters, Chrome export]` of a traced faulted
/// circuit run. The export carries one `Recovery` event per probe and per
/// retry batch that charged time, so it moves with the protocol
/// counters. Its `Exec` events span what the processor ran, the slow
/// node's factor included.
const PINNED_TRACED: [u64; 3] = [0xb520b9567edec987, 0x5969848b049b124b, 0x3000b9beb8f55a97];

#[test]
fn traced_faulted_run_is_pinned() {
    let program = circuit::build(&circuit::CircuitConfig::tiny(4)).program;
    let report = execute(&program, &RuntimeConfig::validate(4).with_faults(7).with_trace(true));
    let recovery = report.recovery.as_ref().expect("faulted run reports recovery");
    assert!(recovery.retried_tasks > 0, "the pinned schedule must retry: {recovery:?}");
    let trace = report.trace.as_ref().expect("traced run keeps its log");
    let chrome = fnv1a(trace.to_chrome_trace().as_bytes());
    let [outcome, counters] = report_hashes(&program, &report);
    let got = [outcome, counters, chrome];
    assert_eq!(got, PINNED_TRACED, "traced faulted run [outcome, counters, chrome] {got:#018x?}");
}

/// Per session of a 3-tenant, 2-slot service under a machine-wide fault
/// schedule, in report order, as `[outcome, protocol counters]`: the
/// outcome folds `(submit_idx, slot, admitted, finished, wait_rounds)`
/// with the session's outcome hash.
const PINNED_SERVICE: [[u64; 2]; 3] = [
    [0x6854670810b4b836, 0x510f7ccd1ca2abba],
    [0x250c2049235f3913, 0x437055eb459c79d2],
    [0xd6d738ccc05a2c91, 0x85565ad3b261d564],
];

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
            config: RuntimeConfig::validate(SLOT_NODES),
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
    let got: Vec<[u64; 2]> = out
        .sessions
        .iter()
        .map(|s| {
            assert!(s.report.recovery.is_some(), "session {} ran unfaulted", s.submit_idx);
            let [outcome, counters] = report_hashes(&apps[s.submit_idx], &s.report);
            let mut h = Fnv1a::new();
            h.word(s.submit_idx as u64);
            h.word(s.slot as u64);
            h.word(s.admitted.as_ns());
            h.word(s.finished.as_ns());
            h.word(s.wait_rounds);
            h.word(outcome);
            [h.finish(), counters]
        })
        .collect();
    assert_eq!(got, PINNED_SERVICE, "faulted service session hashes {got:#018x?}");
}
