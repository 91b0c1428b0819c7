//! The launch-signature analysis cache must be pure memoization: every
//! op's verdict in an expansion equals what a fresh hybrid analysis of
//! that op's launch returns. The verdict is the cache's only output, so
//! per-op verdict equality is the whole contract; everything downstream
//! (dependence structure, simulated time, stage reports) is a function
//! of the verdicts and the program.
//!
//! Locked in over the 500-seed differential-oracle corpus and the four
//! safety-matrix applications (whose time loops make the cache hit),
//! plus a unit test that launches colliding on domain volume (the
//! classic signature-hash trap) still get distinct cache entries.

use il_oracle::generate_program;
use il_testkit::SplitMix64;
use index_launch::prelude::*;
use index_launch::runtime::{expand_program, OpSafety, Program, RuntimeConfig};

const NODES: usize = 2;

/// The verdict of a fresh, uncached hybrid analysis of op `op`, mapped
/// to [`OpSafety`] exactly as the expansion maps it.
fn reference_verdict(program: &Program, op: usize) -> OpSafety {
    let launch = program.ops[op].launch();
    let args: Vec<LaunchArg> = launch
        .reqs
        .iter()
        .map(|r| LaunchArg {
            partition: r.partition,
            functor: program.functor(r.functor).clone(),
            privilege: r.privilege,
            fields: r.fields.clone(),
        })
        .collect();
    match analyze_launch(&program.forest, &launch.domain, &args) {
        HybridVerdict::SafeStatic => OpSafety::Static,
        HybridVerdict::NeedsDynamic(plan) => match plan.run() {
            Ok(evals) => OpSafety::Dynamic { evals },
            Err(_) => OpSafety::Sequential,
        },
        HybridVerdict::Unsafe(_) => OpSafety::Sequential,
    }
}

/// Expand `program` and assert every op's (possibly cached) verdict
/// equals a fresh analysis of its launch. Returns the cache hit count.
fn assert_cache_transparent(name: &str, program: &Program) -> u64 {
    // Trace replay off: a replayed op skips the verdict path entirely,
    // which is its own transparency contract (`tests/trace_replay.rs`);
    // this tier isolates the per-launch verdict cache, whose hit/miss
    // counts assume every op resolves a verdict.
    let expanded = expand_program(program, &RuntimeConfig::scale(NODES).with_trace_replay(false));
    assert_eq!(expanded.safety.len(), program.ops.len(), "{name}: one verdict per op");
    for (op, verdict) in expanded.safety.iter().enumerate() {
        assert_eq!(
            *verdict,
            reference_verdict(program, op),
            "{name}: op {op}'s verdict differs from a fresh analysis"
        );
    }
    let stats = expanded.analysis_cache;
    assert_eq!(
        stats.hits + stats.misses,
        program.ops.len() as u64,
        "{name}: every launch is either a hit or a miss"
    );
    stats.hits
}

/// 500 seeded random launch programs (the differential-oracle corpus
/// generator): every cached verdict equals a fresh analysis. (The
/// generator rarely re-issues a byte-identical launch, so hit counts are
/// not asserted here — the iterative-apps test below pins that hits
/// actually occur.)
#[test]
fn corpus_verdicts_equal_a_fresh_analysis() {
    for case in 0..500u64 {
        let seed = SplitMix64::mix(0xCAC4E, case);
        let program = generate_program(seed);
        assert_cache_transparent(&format!("seed {seed:#x}"), &program);
    }
}

/// The four safety-matrix applications: the three paper apps plus an
/// opaque-functor program that exercises the dynamic-check path. Each
/// re-issues identical launches (the apps every timestep), so the cache
/// must hit; the per-op comparison proves the hits return the verdict a
/// fresh analysis would.
#[test]
fn safety_matrix_app_verdicts_equal_a_fresh_analysis() {
    use index_launch::apps::{circuit, soleil, stencil};

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
    let opaque = opaque_program();

    for (name, program) in [
        ("stencil", &stencil.program),
        ("circuit", &circuit.program),
        ("soleil", &soleil.program),
        ("opaque", &opaque),
    ] {
        let hits = assert_cache_transparent(name, program);
        assert!(hits > 0, "{name}: a repeated launch never hit the cache");
    }
    let expanded = expand_program(&opaque, &RuntimeConfig::scale(NODES).with_trace_replay(false));
    assert!(expanded.analysis_cache.evals_saved > 0, "opaque: no dynamic verdict was a hit");
}

/// A two-launch program whose launches differ only in the projection
/// functor — same task, same domain volume, same partition, same
/// privilege. A signature keyed on volume alone would collide; each
/// launch must get its own cache entry (two misses, zero hits).
#[test]
fn volume_colliding_launches_get_distinct_cache_entries() {
    use index_launch::machine::SimTime;
    use index_launch::runtime::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};

    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let task = b.task_modeled("t");
    let identity = b.identity_functor();
    let reversed = b.functor(ProjExpr::linear(-1, 7));
    for functor in [identity, reversed] {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(8),
            reqs: vec![RegionReq {
                partition: blocks,
                functor,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    let program = b.build();

    let expanded = expand_program(&program, &RuntimeConfig::scale(NODES));
    let stats = expanded.analysis_cache;
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 2),
        "volume-colliding launches must occupy distinct cache entries"
    );

    // Control: genuinely identical launches do share an entry.
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let task = b.task_modeled("t");
    let identity = b.identity_functor();
    for _ in 0..2 {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(8),
            reqs: vec![RegionReq {
                partition: blocks,
                functor: identity,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    let program = b.build();
    let stats = expand_program(&program, &RuntimeConfig::scale(NODES)).analysis_cache;
    assert_eq!((stats.hits, stats.misses), (1, 1), "identical launches must share one entry");
}

/// An opaque-functor program (from the safety matrix): an identity
/// launch and an opaque reversed-write launch, issued twice, forcing the
/// dynamic check path through the cache machinery — the second opaque
/// launch's `Dynamic` verdict is a cache hit.
fn opaque_program() -> Program {
    use index_launch::machine::SimTime;
    use index_launch::runtime::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};

    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let domain = Domain::range(8);
    let task = b.task_modeled("reverse_write");
    let functors =
        [b.identity_functor(), b.functor(ProjExpr::opaque(|p| DomainPoint::new1(7 - p.x())))];
    for functor in [functors, functors].concat() {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: domain.clone(),
            reqs: vec![RegionReq {
                partition: blocks,
                functor,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    b.build()
}
