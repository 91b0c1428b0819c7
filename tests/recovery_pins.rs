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
            [0x17a512bc35461ff8, 0xfae32c5e9b5f99ac, 0x5ed99cc506381489, 0xca4268b613c6e121],
            [0x52b21a260150c686, 0xf18fbc0951e6318e, 0xaddca6c6aad9c63f, 0x87cea7279efccdd5],
            [0x0750de8b4d58f5ac, 0xd61f0e3264589039, 0x517b8de0381fc6b6, 0xa6f807719a5c9035],
        ],
    ),
    (
        "circuit",
        [
            [0xf19dedfee9ece898, 0x6d4243ea661262f0, 0xaf3a7c46f8404a14, 0xbe9cdbff5a74aaf4],
            [0xb520b9567edec987, 0x316c5e315897d897, 0x8ca241d6179f333e, 0xa5095c83deb36fd0],
            [0x5dd9363d821bc61a, 0x7117af1fb810d44b, 0x7ac70e9c2e5d76f9, 0xae5c1c0fb51acc30],
        ],
    ),
    (
        "soleil",
        [
            [0x4b670cefe8bd810c, 0x465696ca7d587332, 0x2792c13704e11a4d, 0xe30e31333f0e25f3],
            [0x2526c9be946f423f, 0x03127dc2e0137e5a, 0xc5b6ee407769787e, 0xa25b45386f70d8c7],
            [0x32881621bd87b8f8, 0x8282bae4a1eb6c0a, 0xfa4a512f9b1afbf5, 0xa51bda0f0c1c2be9],
        ],
    ),
    (
        "amr",
        [
            [0xa5e2b99df99c10ab, 0xa4ef8e63c3205bfb, 0xd1040b9003a2bc0b, 0x23a04348496052ab],
            [0x7c846b00dbdb2163, 0x29a64eca4c85d8fd, 0x431fff1ad8825978, 0x9b6ee5a48e52ee9b],
            [0x9b554c389d7d5347, 0xa47b928a9d1d9364, 0xdbb6656becda1728, 0x2497b4e465ce12f8],
        ],
    ),
    (
        "pagerank",
        [
            [0xf4d108e6a4ed68f8, 0x045e59b2a36c65d4, 0xe2a71067f5d81950, 0xed96d32bc16804d8],
            [0x1a2fd539667d96ae, 0x35ee9801ddc3f26e, 0x055202988532e33e, 0xa0f618c53b45daab],
            [0xf9c9b9165f99754c, 0x239cee4d61980f69, 0x3f97617acd622bb2, 0x5b2fe063090e7dcd],
        ],
    ),
];

/// Protocol counters of the tiny faulted runs.
const TINY_COUNTERS: TinyPins = [
    (
        "stencil",
        [
            [0x237ba012dce688c7, 0xd0c0bb7ca591651e, 0x7e55447026bee224, 0x481968fce5d9c9d0],
            [0x0fba765ecc111163, 0x34625efd0fb70c35, 0x4cf94d6dd71e4de1, 0x4cf94d6dd71e4de1],
            [0x173a6a67c60007ed, 0x5e519b04e4299ac1, 0x5675f6ed7a2c13d8, 0xd683e472e7f19794],
        ],
    ),
    (
        "circuit",
        [
            [0xdbee81380e80892a, 0x5f3f30b3f6f8efc2, 0xc92cf0c3850a4f17, 0x93a6956e5c12e830],
            [0xc689a6298078d8dd, 0xb1b4d3e6aa561878, 0xb8c593ae8fa92795, 0x084cd14421f2fca4],
            [0xa747d280908d0982, 0x24c159921e0d4ca7, 0xea05166abc78f391, 0x0275b41ff651bc5b],
        ],
    ),
    (
        "soleil",
        [
            [0x9e64a02a18758dfe, 0x7b8e0955716cdc14, 0xd18d485fee3da201, 0x1d0214d87262ec15],
            [0x7fcc3f7718f0484e, 0xe8423a278c520b42, 0xaadaab1460e98f4a, 0xaab0fda921096ddf],
            [0x97478161815f7d96, 0x8be53556e16e4053, 0x86a26ddc33bb6fea, 0xb7abdbb0c18edc06],
        ],
    ),
    (
        "amr",
        [
            [0x0067e4e820aca25f, 0x50f75b7cc55128d6, 0x85088af2d630336e, 0xe97d96d9a4c3d008],
            [0x303b26f4ac3be192, 0x589a5881612ca4e4, 0x6f2355b316151844, 0x52c2e04cc2986d66],
            [0x540680ae1cc61c65, 0x546f49a8058ea479, 0xfdb3c37957eeb336, 0xe963d7298480053a],
        ],
    ),
    (
        "pagerank",
        [
            [0x42e6c53765a12447, 0xf412b871d70859a2, 0x328a06238859136f, 0x31b60b7f209a0393],
            [0x357ac11d07ac3b07, 0x15e5891c6a8b43b1, 0x09dfa433bf07d518, 0x09dfa433bf07d518],
            [0x2c3de4cceaa427d5, 0xeb733027221ae305, 0xabbee191e2e71aa9, 0xad549a6a4bf1f7c3],
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
            [0x8c5502bd8c14beb2, 0x208fd8a02b2693ae],
            [0x9d32f93428bf5b07, 0x3a4999148dae5a97],
            [0xb97fe37ece7dc954, 0xd3f1ac442ac095c1],
        ],
    ),
    (
        "stencil",
        256,
        [
            [0xf5d00e83cea90c3c, 0x4809e7ca660361d8],
            [0xf5d00e83cea90c3c, 0x62481ff790d861db],
            [0x394e5c9c7b410c56, 0xca9bb0838f504041],
        ],
    ),
    (
        "circuit",
        64,
        [
            [0x3d0a72b22db89a1a, 0x49fdc0ad6269acba],
            [0xf2bf3004eec72ae1, 0x90fa408cab345b8e],
            [0x3d0a72b22db89a1a, 0x11599aca85477514],
        ],
    ),
    (
        "circuit",
        256,
        [
            [0x22ae84d4fcb1b98e, 0x8da27460e49ba879],
            [0x1a5704ac6b6ba9eb, 0x69981e8b8609fd5b],
            [0x22ae84d4fcb1b98e, 0x59e7b43f8ed7ce68],
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
const PINNED_STENCIL_192_DEFENDED: [u64; 2] = [0xed182c899161c761, 0x7ae59f843b9c97ad];

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
const PINNED_TRACED: [u64; 3] = [0xb520b9567edec987, 0xc689a6298078d8dd, 0x3000b9beb8f55a97];

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
    [0x775f29b3a42b9ea7, 0x98e2cfaf418da573],
    [0x250c2049235f3913, 0x4203fb9f12ed5278],
    [0x500f4af48bb4599b, 0x32ba29cd4bef7546],
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
