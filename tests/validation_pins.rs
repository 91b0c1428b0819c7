//! Validation-data pins: the final instance stores of the five golden
//! applications, hashed.
//!
//! Every validated run below folds its final [`InstanceStore`] into one
//! FNV-1a `u64` — instances in `(tree, space)` order, each through
//! [`PhysicalInstance::digest`](index_launch::region::PhysicalInstance::digest),
//! which covers the bounding-box volume, every field's id, kind and
//! length, and every element's raw bits — and compares it with a
//! literal computed on the commit before instances learned to index
//! like arrays (cached layouts, row-run copies, typed accessors). A
//! change to instance storage, copies, folds or a kernel that moves one
//! bit of final data moves one of these hashes.

use il_testkit::Fnv1a;
use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::region::{IndexSpaceId, RegionForest, RegionTreeId};
use index_launch::runtime::{
    execute, InstanceStore, Program, ReplicationConfig, RunReport, RuntimeConfig,
};

/// FNV-1a over every resident instance, keys sorted. The store exposes
/// no key iterator, so the keys are enumerated from the forest (tree ids
/// and space ids are dense, and there are never more trees than spaces);
/// the count check proves none was missed.
fn store_digest(forest: &RegionForest, store: &InstanceStore) -> u64 {
    let n = forest.num_spaces() as u32;
    let mut h = Fnv1a::new();
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
    h.finish()
}

fn run_digest(program: &Program, config: &RuntimeConfig) -> u64 {
    let report: RunReport = execute(program, config);
    let store = report.store.as_ref().expect("validation mode keeps the store");
    store_digest(&program.forest, store)
}

const AXES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

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

/// Store hash per app. The final data are the same bytes whichever
/// (DCR, IDX) axes run them, so one literal pins all four; the test
/// compares per axis, so an axis that diverged would name itself.
const PINNED_TINY: [(&str, u64); 5] = [
    ("stencil", 0x0f96_fe36_16e4_e351),
    ("circuit", 0xa924_50f8_cedf_874e),
    ("soleil", 0xb860_7350_d9b5_449b),
    ("amr", 0x1e67_1348_85af_35db),
    ("pagerank", 0x312a_f32e_34f5_c8cb),
];

#[test]
fn tiny_validate_stores_are_pinned() {
    let got: Vec<(&str, [u64; 4])> = tiny_apps()
        .into_iter()
        .map(|(name, program)| {
            let row = AXES.map(|(dcr, idx)| {
                run_digest(&program, &RuntimeConfig::validate(4).with_axes(dcr, idx))
            });
            (name, row)
        })
        .collect();
    let want: Vec<(&str, [u64; 4])> = PINNED_TINY.iter().map(|&(n, h)| (n, [h; 4])).collect();
    assert_eq!(got, want, "tiny store hashes per app, axes {AXES:?}:\n{got:#018x?}");
}

/// Circuit and stencil under the survivable fault schedule of seed 7
/// (crash, drops, slow node): recovery re-runs work but converges to the
/// fault-free bytes, so these equal their `PINNED_TINY` rows.
const PINNED_FAULTED: [(&str, u64); 2] =
    [("stencil", 0x0f96_fe36_16e4_e351), ("circuit", 0xa924_50f8_cedf_874e)];

#[test]
fn faulted_validate_stores_are_pinned() {
    let apps = tiny_apps();
    let got = PINNED_FAULTED.map(|(name, _)| {
        let (_, program) = apps.iter().find(|(n, _)| *n == name).expect("pinned app");
        (name, run_digest(program, &RuntimeConfig::validate(4).with_faults(7)))
    });
    assert_eq!(got, PINNED_FAULTED, "faulted store hashes:\n{got:#018x?}");
}

/// Stencil at `validate-sdc`'s smoke size (192² cells, 8×8 tiles, 8
/// iterations, 16 nodes), clean and under a corrupting schedule with the
/// replicate-2 defense armed. The defended run converges to the clean
/// data, so both pins hold the same value.
const PINNED_STENCIL_192: [u64; 2] = [0x002f_8bd6_6afd_a7c3, 0x002f_8bd6_6afd_a7c3];

#[test]
fn stencil_192_clean_and_defended_stores_are_pinned() {
    let config = stencil::StencilConfig {
        grid: (192, 192),
        tiles: (8, 8),
        iterations: 8,
        ..stencil::StencilConfig::tiny((8, 8))
    };
    let app = stencil::build(&config);
    let clean = RuntimeConfig::validate(16);
    let defended = clean
        .clone()
        .with_corruption(0x5DC1)
        .with_replication(ReplicationConfig::all(2));
    let got = [run_digest(&app.program, &clean), run_digest(&app.program, &defended)];
    assert_eq!(
        got, PINNED_STENCIL_192,
        "stencil 192² [clean, defended] store hashes {:#018x?}",
        got
    );
}

/// FNV-1a over the final `fout` grid of a clean 16-node stencil run at
/// `side`² cells (8×8 tiles, 8 iterations: `validate-sdc`'s shape), one
/// step `h = (h ^ bits) · prime` per cell's `to_bits`, in `extract_fout`
/// order.
fn stencil_fout_bits(side: i64) -> u64 {
    let config = stencil::StencilConfig {
        grid: (side, side),
        tiles: (8, 8),
        iterations: 8,
        ..stencil::StencilConfig::tiny((8, 8))
    };
    let app = stencil::build(&config);
    let report = execute(&app.program, &RuntimeConfig::validate(16));
    let mut h = Fnv1a::OFFSET;
    for v in stencil::extract_fout(&app, &report) {
        h = (h ^ v.to_bits()).wrapping_mul(Fnv1a::PRIME);
    }
    h
}

/// The stencil's output bits at `validate-sdc`'s smoke size. The kernel
/// reads and writes whole rows of its blocks; the per-cell sum keeps the
/// order of the per-point kernel this literal was computed on.
#[test]
fn stencil_192_fout_bits_are_pinned() {
    let got = stencil_fout_bits(192);
    assert_eq!(got, 0xc6ab_6631_5f05_6325, "stencil 192² fout bits {got:#018x}");
}

/// The same at `validate-sdc`'s full size, 768² cells. Release-only: a
/// debug build runs it in minutes.
#[cfg(not(debug_assertions))]
#[test]
fn stencil_768_fout_bits_are_pinned() {
    let got = stencil_fout_bits(768);
    assert_eq!(got, 0xd4d1_f23f_b256_2325, "stencil 768² fout bits {got:#018x}");
}
