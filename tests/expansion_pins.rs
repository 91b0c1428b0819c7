//! Expansion pins: every public field of [`expand_program`]'s output,
//! hashed.
//!
//! Each case folds the `Debug` rendering of `tasks`, `op_tasks`,
//! `safety`, `deps`, `succs`, `copies`, `dist`, `replayed_ops` and
//! `trace_marks` into one FNV-1a `u64` per field and compares the nine
//! against literals computed before the expansion stored its tasks in a
//! flat table. Inputs: the five apps' tiny configurations on 4 nodes
//! with DCR and IDX both on and both off, each with trace replay on and
//! off, and 50 seeded programs of the differential-oracle generator on
//! 2 nodes. A change to the expansion that moves one task, edge, copy,
//! field or distribution group moves one of these hashes.
//!
//! The tiny configurations never build a long overlap list, so one case
//! runs at hub scale: `PagerankConfig { iterations: 2, ..scale(4_000) }`
//! on 4 nodes (20 000 tasks), trace replay on and off: its longest
//! overlap list, the hub's, has 4 000 entries. (It never promotes a
//! read-only space to writer; the tiny apps and the corpus do.) Its
//! literals were computed before the oracle stored its per-space state
//! in arrays indexed by space id.
//!
//! The view is also checked for slack: every `Vec` in it is allocated to
//! its exact length, so the benchmark's `runtime.expand.bytes_per_task`
//! (which sums capacities) measures exactly what the view holds.

use il_oracle::generate_program;
use il_testkit::{Fnv1a, SplitMix64};
use index_launch::apps::{amr, circuit, pagerank, soleil, stencil};
use index_launch::runtime::{expand_program, ExpandedProgram, Program, RuntimeConfig};

const FIELDS: [&str; 9] =
    ["tasks", "op_tasks", "safety", "deps", "succs", "copies", "dist", "replayed_ops", "trace_marks"];

/// The `Debug` rendering of each pinned field, in [`FIELDS`] order.
fn renderings(e: &ExpandedProgram) -> [String; 9] {
    [
        format!("{:?}", e.tasks),
        format!("{:?}", e.op_tasks),
        format!("{:?}", e.safety),
        format!("{:?}", e.deps),
        format!("{:?}", e.succs),
        format!("{:?}", e.copies),
        format!("{:?}", e.dist),
        format!("{:?}", e.replayed_ops),
        format!("{:?}", e.trace_marks),
    ]
}

/// One hash per field over every expansion in `exps`, in order.
fn field_hashes<'a>(exps: impl IntoIterator<Item = &'a ExpandedProgram>) -> [u64; 9] {
    let mut h = [Fnv1a::new(); 9];
    for e in exps {
        for (hi, s) in h.iter_mut().zip(renderings(e)) {
            hi.bytes(s.as_bytes());
        }
    }
    h.map(Fnv1a::finish)
}

/// The five apps' tiny validation problems.
fn tiny_apps() -> Vec<(&'static str, Program)> {
    vec![
        ("stencil", stencil::build(&stencil::StencilConfig::tiny((2, 2))).program),
        ("circuit", circuit::build(&circuit::CircuitConfig::tiny(4)).program),
        ("soleil", soleil::build(&soleil::SoleilConfig::tiny((2, 2, 1))).program),
        ("amr", amr::build(&amr::AmrConfig::tiny()).program),
        ("pagerank", pagerank::build(&pagerank::PagerankConfig::tiny(4)).program),
    ]
}

/// `(dcr && idx, trace_replay)` per app case, in this order.
const APP_CASES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

fn app_expansions() -> Vec<(String, ExpandedProgram)> {
    let mut out = Vec::new();
    for (name, program) in tiny_apps() {
        for (axes, replay) in APP_CASES {
            let cfg = RuntimeConfig::validate(4).with_axes(axes, axes).with_trace_replay(replay);
            out.push((format!("{name} axes={axes} replay={replay}"), expand_program(&program, &cfg)));
        }
    }
    out
}

fn corpus_expansions() -> Vec<(String, ExpandedProgram)> {
    (0..50u64)
        .map(|case| {
            let seed = SplitMix64::mix(0x00E4_A9D5, case);
            (format!("seed {seed:#x}"), expand_program(&generate_program(seed), &RuntimeConfig::scale(2)))
        })
        .collect()
}

/// Per app: the field hashes over its four cases ([`APP_CASES`] order).
const PINNED_APPS: [(&str, [u64; 9]); 5] = [
    (
        "stencil",
        [
            0x52b5_27a8_76b9_3bc5,
            0xa282_6c0a_20fc_6491,
            0x6c5b_3ae3_94b7_9ee5,
            0x806b_3193_4315_8725,
            0xeb4b_08c4_628f_8915,
            0x6ce0_ae1f_a2c0_9095,
            0x9f7a_e928_762f_184d,
            0xaa90_c6d2_1d12_c205,
            0xee75_1c24_2d28_14ad,
        ],
    ),
    (
        "circuit",
        [
            0x809c_f455_e067_a395,
            0xb3e4_3b5d_4ef9_2e91,
            0x0c19_d06e_8927_4ee5,
            0x172a_3420_645b_f815,
            0x9fd2_e185_ed9e_bf2d,
            0x3cac_9c81_71ca_e545,
            0xe052_7b2a_36c5_eef1,
            0xd097_244a_e281_adf9,
            0x5dee_c84a_7f35_c425,
        ],
    ),
    (
        "soleil",
        [
            0xf137_3039_cf81_f725,
            0x2817_30e5_0e8d_20c5,
            0x6baa_cec3_600e_a8e5,
            0x564c_8831_9f0b_e935,
            0xc120_8f23_9a91_4905,
            0x007d_c31e_b90a_fca5,
            0x9b37_732d_b813_bc4d,
            0x7ab7_40b8_cfd3_a015,
            0x3d50_47fc_33ae_fc61,
        ],
    ),
    (
        "amr",
        [
            0x23e7_45d0_7103_620d,
            0x3973_2543_b46f_dd2d,
            0xa65b_9b80_b1a4_0295,
            0xabb9_b95c_ed61_f551,
            0x4acd_2d34_5d2d_9c8d,
            0x3b6e_7bf4_4af1_7255,
            0x0e2c_0022_ba93_891d,
            0xd68c_aef3_4a19_bad5,
            0x45d2_e727_8950_e215,
        ],
    ),
    (
        "pagerank",
        [
            0x8894_94c8_1330_fa95,
            0xa282_6c0a_20fc_6491,
            0x675b_303b_313f_7045,
            0x28c5_da29_5330_4c95,
            0xfabe_e98f_3762_edd5,
            0x0e47_21fc_ee38_8dd9,
            0x9f7a_e928_762f_184d,
            0xaa90_c6d2_1d12_c205,
            0xee75_1c24_2d28_14ad,
        ],
    ),
];

/// The field hashes over the 50 corpus seeds, in seed order.
const PINNED_CORPUS: [u64; 9] = [
    0xe6e5_ed49_6466_793f,
    0xa8c4_2342_effe_072b,
    0x028f_d746_26ea_8927,
    0x47f8_e98d_16a4_546a,
    0xfe6a_b9a8_d016_417b,
    0x1571_c369_a8f0_58d8,
    0x2aa3_cc3c_6669_591b,
    0xf923_65f1_158d_bfa6,
    0xa2bd_bc09_0d35_4425,
];

/// The field hashes of the hub-scale pagerank case, replay on then off.
const PINNED_HUB: [u64; 9] = [
    0xc744_b213_813c_66ad,
    0x55e4_f3b1_7b3b_72e9,
    0xf21b_f7f6_3a4f_2fcd,
    0x2298_e748_7f41_4e5d,
    0xcb0a_af91_b949_60a5,
    0x6e61_d7b7_be0f_bfcd,
    0x3c8c_adf7_e7f1_8bb5,
    0x2e53_4b8e_ff39_001f,
    0x7244_8766_7445_ac25,
];

fn hub_expansions() -> Vec<ExpandedProgram> {
    let config = pagerank::PagerankConfig { iterations: 2, ..pagerank::PagerankConfig::scale(4_000) };
    let program = pagerank::build(&config).program;
    [true, false]
        .into_iter()
        .map(|replay| expand_program(&program, &RuntimeConfig::scale(4).with_trace_replay(replay)))
        .collect()
}

fn named(h: [u64; 9]) -> Vec<(&'static str, u64)> {
    FIELDS.iter().copied().zip(h).collect()
}

#[test]
fn app_expansions_are_pinned() {
    let exps = app_expansions();
    let got: Vec<(&str, Vec<(&str, u64)>)> = PINNED_APPS
        .iter()
        .enumerate()
        .map(|(i, (app, _))| (*app, named(field_hashes(exps[i * 4..i * 4 + 4].iter().map(|(_, e)| e)))))
        .collect();
    let want: Vec<(&str, Vec<(&str, u64)>)> = PINNED_APPS.iter().map(|(app, h)| (*app, named(*h))).collect();
    assert_eq!(got, want, "expansion field hashes per app:\n{got:#018x?}");
}

#[test]
fn corpus_expansions_are_pinned() {
    let exps = corpus_expansions();
    let got = field_hashes(exps.iter().map(|(_, e)| e));
    assert_eq!(named(got), named(PINNED_CORPUS), "corpus expansion field hashes\n{got:#018x?}");
}

#[test]
fn hub_scale_pagerank_expansions_are_pinned() {
    let exps = hub_expansions();
    assert_eq!(exps[0].len(), 20_000, "pagerank at 4 000 pieces × (1 + 2 iterations) launches");
    let got = field_hashes(&exps);
    assert_eq!(named(got), named(PINNED_HUB), "hub-scale pagerank expansion field hashes\n{got:#018x?}");
}

/// The oracle computes each overlap volume once, when it links a pair, and
/// every copy size and close sum reads the stored value.
/// `TaskTable::expand` recomputes every stored volume with
/// `overlap_volume` in a debug assertion; this runs it over the tiny
/// apps and the corpus programs, whose forests hold dense 1-, 2- and 3-D
/// spaces and sparse ones (the assertion is compiled in debug builds
/// only).
#[cfg(debug_assertions)]
#[test]
fn stored_overlap_volumes_match_a_recomputation() {
    use index_launch::geometry::Domain;
    use index_launch::region::IndexSpaceId;
    use index_launch::runtime::TaskTable;
    use std::collections::BTreeSet;

    let programs: Vec<Program> = tiny_apps()
        .into_iter()
        .map(|(_, program)| program)
        .chain((0..50u64).map(|case| generate_program(SplitMix64::mix(0x00E4_A9D5, case))))
        .collect();
    let kinds: BTreeSet<&str> = programs
        .iter()
        .flat_map(|p| {
            (0..p.forest.num_spaces() as u32).map(|s| match p.forest.domain(IndexSpaceId(s)) {
                Domain::Rect1(_) => "1-D",
                Domain::Rect2(_) => "2-D",
                Domain::Rect3(_) => "3-D",
                Domain::Sparse(_) => "sparse",
            })
        })
        .collect();
    assert_eq!(kinds, BTreeSet::from(["1-D", "2-D", "3-D", "sparse"]));
    for program in &programs {
        TaskTable::expand(program, &RuntimeConfig::scale(4));
    }
}

/// `(what, len, capacity)` of every `Vec` in the view.
fn vecs(e: &ExpandedProgram) -> Vec<(&'static str, usize, usize)> {
    fn v<T>(what: &'static str, x: &Vec<T>) -> (&'static str, usize, usize) {
        (what, x.len(), x.capacity())
    }
    let mut out = vec![
        v("tasks", &e.tasks),
        v("op_tasks", &e.op_tasks),
        v("safety", &e.safety),
        v("deps", &e.deps),
        v("succs", &e.succs),
        v("copies", &e.copies),
        v("dist", &e.dist),
        v("replayed_ops", &e.replayed_ops),
        v("trace_marks", &e.trace_marks),
    ];
    for t in &e.tasks {
        out.push(v("subspaces", &t.subspaces));
        out.push(v("reduce_fill", &t.reduce_fill));
        out.extend(t.reduce_fill.iter().map(|f| v("reduce_fill row", f)));
    }
    out.extend(e.deps.iter().map(|r| v("deps row", r)));
    out.extend(e.succs.iter().map(|r| v("succs row", r)));
    for row in &e.copies {
        out.push(v("copies row", row));
        out.extend(row.iter().map(|c| v("copy fields", &c.fields)));
    }
    for d in &e.dist {
        out.push(v("dist groups", &d.groups));
        out.push(v("dist slices", &d.slices));
        out.extend(d.groups.iter().map(|(_, g)| v("dist group", g)));
    }
    out
}

#[test]
fn every_vec_in_the_view_is_allocated_to_its_exact_length() {
    for (name, e) in app_expansions().iter().chain(&corpus_expansions()) {
        for (what, len, cap) in vecs(e) {
            assert_eq!(cap, len, "{name}: a `{what}` vector holds {len} items in capacity {cap}");
        }
    }
}
