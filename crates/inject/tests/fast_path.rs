//! Fast-path regression tests: the superblock engine must observe
//! every text-segment injection, including corruptions landing inside
//! an assertion block whose decoded slots and fused plan are already
//! cached — and campaign classifications must be bit-identical across
//! the two engines.

use proptest::prelude::*;
use wtnc_inject::text_campaign::{run_one, InjectionTarget, TextCampaignConfig};
use wtnc_inject::ErrorModel;
use wtnc_isa::{Engine, ExceptionKind, Machine, MachineConfig, NoSyscalls, StepOutcome};
use wtnc_pecos::instrument_source;

/// A corruption landing inside an already-cached (decoded + fused)
/// assertion block is observed by that block's very next execution:
/// both engines raise the same illegal-instruction exception at the
/// corrupted word.
#[test]
fn warmed_assertion_block_observes_interior_injection() {
    // One protected CFI (the loop bne); its 9-instruction assertion
    // block executes once per iteration.
    let src = r#"
    start:
        movi r9, 4
    loop:
        addi r9, r9, -1
        add  r1, r1, r9
        bne  r9, r0, loop
        halt
    "#;
    let inst = instrument_source(src).unwrap();
    assert_eq!(inst.meta.assertion_ranges.len(), 1);
    let (start, end) = inst.meta.assertion_ranges[0];
    assert_eq!(end - start, 9, "branch blocks are nine instructions");

    // Reference run to learn the total step count.
    let mut ref_m = Machine::load(&inst.program, MachineConfig::default());
    inst.meta.install_fast_path(&mut ref_m);
    ref_m.spawn_thread(inst.program.entry);
    ref_m.run(&mut NoSyscalls, 1_000_000);
    let total = ref_m.total_steps();
    assert!(ref_m.fused_supersteps() >= 4, "every loop iteration should fuse");

    // Drive both engines: warm for half the program (several block
    // executions), inject an undecodable word over the block's DIVU,
    // then continue. The stale Hot slot (and stale fused plan) must
    // not survive the store.
    let drive = |fast_path: bool| {
        let mut m =
            Machine::load(&inst.program, MachineConfig { fast_path, ..MachineConfig::default() });
        if fast_path {
            inst.meta.install_fast_path(&mut m);
        }
        let t = m.spawn_thread(inst.program.entry);
        let warm = m.run(&mut NoSyscalls, total / 2);
        assert!(matches!(warm, StepOutcome::Executed { .. }), "warm-up must not finish the run");
        m.store_text((end - 1) as usize, 0xFF00_0000); // poison the DIVU
        let out = m.run(&mut NoSyscalls, 1_000_000);
        let regs: Vec<u64> = (0..16).map(|r| m.reg(t, r).unwrap()).collect();
        (out, m.thread_state(t), m.pc(t), regs, m.total_steps(), m.fused_supersteps())
    };
    let fast = drive(true);
    let slow = drive(false);

    // The corruption was observed at the corrupted word...
    match fast.0 {
        StepOutcome::Exception(info) => {
            assert_eq!(info.kind, ExceptionKind::IllegalInstruction);
            assert_eq!(info.pc, end - 1, "fault must land on the corrupted word");
        }
        other => panic!("stale cache executed through the corruption: {other:?}"),
    }
    // ...the warm phase really did fuse the block...
    assert!(fast.5 > 0, "warm phase never fused the assertion block");
    // ...and the two engines agree on everything observable.
    assert_eq!(
        (&fast.0, &fast.1, &fast.2, &fast.3, &fast.4),
        (&slow.0, &slow.1, &slow.2, &slow.3, &slow.4),
        "engines diverged after an interior block injection"
    );
}

/// Campaign classifications are identical on both engines for a grid
/// of seeds across both targeting modes — the superblock engine changes
/// wall-clock only, never outcomes. Directed-CFI runs corrupt exactly
/// the input word of a warmed fused plan; random-text runs also land
/// inside assertion blocks and target tables.
#[test]
fn run_one_outcomes_identical_across_engines() {
    for &target in &[InjectionTarget::DirectedCfi, InjectionTarget::RandomText] {
        for &model in &[ErrorModel::Datainf, ErrorModel::Dataof] {
            let config = |engine: Engine| TextCampaignConfig {
                pecos: true,
                audits: false,
                model,
                target,
                runs: 1,
                threads: 2,
                iterations: 6,
                audit_every_steps: 2_000,
                step_budget: 150_000,
                seed: 0,
                fast_path: engine != Engine::Slow,
                engine: Some(engine),
            };
            for seed in 0..20u64 {
                assert_eq!(
                    run_one(&config(Engine::Superblock), seed),
                    run_one(&config(Engine::Slow), seed),
                    "outcome diverged for {target:?}/{model:?} seed {seed}"
                );
            }
        }
    }
}

/// Source of the chained-superblock proptest program: two nested loops,
/// a call, and a helper — enough CFIs that the superblock engine
/// compiles blocks which chain across several fused assertion
/// supersteps per outer iteration.
const CHAIN_SRC: &str = r#"
    start:
        movi r9, 6
    outer:
        movi r8, 4
    inner:
        add  r1, r1, r8
        addi r8, r8, -1
        bne  r8, r0, inner
        call helper
        addi r9, r9, -1
        bne  r9, r0, outer
        halt
    helper:
        addi r2, r2, 1
        ret
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `store_text` landing mid-run in the interior of a warmed,
    /// chained superblock — including words on a fused-superstep
    /// boundary — invalidates every overlapping block, and the machine
    /// then proceeds in lockstep with the slow engine: identical
    /// retired-step counts, PCs, registers, thread states and final
    /// outcome, compared after every `run` chunk.
    #[test]
    fn warmed_chain_observes_midrun_store_text(
        addr_sel in 0usize..1024,
        // 0: anywhere in text; 1: interior of an assertion block;
        // 2: a fused-superstep boundary word (first or last of a block).
        mode in 0u8..3,
        bit in 0u32..32,
        warm_div in 2u64..6,
        chunk in 1u64..96,
    ) {
        let inst = instrument_source(CHAIN_SRC).unwrap();
        prop_assert!(inst.meta.assertion_ranges.len() >= 4);

        // Reference run for the total step count.
        let mut ref_m = Machine::load(&inst.program, MachineConfig::default());
        inst.meta.install_fast_path(&mut ref_m);
        ref_m.spawn_thread(inst.program.entry);
        ref_m.run(&mut NoSyscalls, 1_000_000);
        let total = ref_m.total_steps();
        prop_assert!(ref_m.fused_supersteps() > 10, "chain program must fuse repeatedly");
        prop_assert!(ref_m.superblock_stats().entered > 0, "chain program must enter blocks");

        let ranges = &inst.meta.assertion_ranges;
        let addr = match mode {
            0 => addr_sel % inst.program.len(),
            1 => {
                let (start, end) = ranges[addr_sel % ranges.len()];
                start as usize + addr_sel % (end - start) as usize
            }
            _ => {
                let (start, end) = ranges[addr_sel % ranges.len()];
                if addr_sel % 2 == 0 { start as usize } else { end as usize - 1 }
            }
        };
        let corrupted = inst.program.text[addr] ^ (1 << bit);
        let warm_budget = total / warm_div;

        let load = |engine: Engine| {
            let mut m = Machine::load(
                &inst.program,
                MachineConfig { fast_path: engine != Engine::Slow, engine: Some(engine) },
            );
            if engine != Engine::Slow {
                inst.meta.install_fast_path(&mut m);
            }
            m.spawn_thread(inst.program.entry);
            m
        };
        let mut fast = load(Engine::Superblock);
        let mut slow = load(Engine::Slow);

        // Warm phase: both engines retire exactly `warm_budget` steps.
        fast.run(&mut NoSyscalls, warm_budget);
        slow.run(&mut NoSyscalls, warm_budget);
        prop_assert_eq!(fast.total_steps(), warm_budget);
        prop_assert_eq!(slow.total_steps(), warm_budget);
        prop_assert!(
            fast.superblock_stats().entered > 0,
            "warm phase must execute compiled superblocks"
        );

        // Mid-run injection into the warmed text.
        fast.store_text(addr, corrupted);
        slow.store_text(addr, corrupted);

        // Lockstep: drive both engines in `chunk`-step run batches,
        // comparing all observables after every batch. A budget cutoff
        // must land both engines on the same instruction.
        loop {
            let before = fast.total_steps();
            let out_fast = fast.run(&mut NoSyscalls, chunk);
            let retired = fast.total_steps() - before;
            if retired == 0 {
                prop_assert_eq!(slow.run(&mut NoSyscalls, chunk), out_fast);
                break;
            }
            let out_slow = slow.run(&mut NoSyscalls, chunk);
            prop_assert_eq!(slow.total_steps(), fast.total_steps(), "retired-step divergence");
            prop_assert_eq!(&out_fast, &out_slow, "outcome divergence after store_text");
            prop_assert_eq!(fast.pc(0), slow.pc(0), "pc divergence");
            prop_assert_eq!(fast.thread_state(0), slow.thread_state(0), "state divergence");
            for r in 0..16 {
                prop_assert_eq!(fast.reg(0, r), slow.reg(0, r), "register divergence");
            }
            if !matches!(out_fast, StepOutcome::Executed { .. }) {
                break;
            }
        }
    }
}
