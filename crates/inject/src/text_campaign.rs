//! Text-segment injection campaigns (§6.1.2–6.1.4, Tables 8 and 9).
//!
//! Methodology, after NFTAPE: a breakpoint is armed on one text
//! address; when a thread is about to execute it, the word is
//! corrupted per the error model, the thread executes the erroneous
//! instruction, and the word is then restored. Runs whose breakpoint
//! is never reached are classified *not activated*. The four
//! campaigns — {without, with} PECOS × {without, with} audit — run the
//! same multi-threaded ISA call-processing client against the real
//! controller database.

use wtnc_callproc::{AsmClientConfig, BridgeStats, DbSyscallBridge};
use wtnc_db::{Database, DbApi};
use wtnc_isa::{decode, Engine, Machine, MachineConfig, StepOutcome, ThreadState};
use wtnc_pecos::{handle_exception, instrument, PecosMeta, PecosVerdict};
use wtnc_sim::{Pid, ProcessRegistry, SimRng, SimTime};

use crate::models::ErrorModel;
use crate::outcome::{OutcomeCounts, RunOutcome};

/// Where injections land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionTarget {
    /// Only control-flow instructions (the paper's "directed injection
    /// to control flow instructions").
    DirectedCfi,
    /// Any word of the text segment ("random injection to the
    /// instruction stream").
    RandomText,
}

/// Configuration of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextCampaignConfig {
    /// PECOS instrumentation on the client.
    pub pecos: bool,
    /// Audit subsystem running against the database.
    pub audits: bool,
    /// The error model.
    pub model: ErrorModel,
    /// Target selection.
    pub target: InjectionTarget,
    /// Runs in this cell.
    pub runs: usize,
    /// Client threads.
    pub threads: usize,
    /// Client loop iterations per thread.
    pub iterations: u16,
    /// Machine steps between audit cycles (1 step = 1 µs of simulated
    /// time).
    pub audit_every_steps: u64,
    /// Step budget before a run is declared hung.
    pub step_budget: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Run the client on the machine's superblock fast path. Outcomes
    /// are identical either way (the engines are semantics-preserving);
    /// `false` exists for parity testing and overhead benchmarks.
    pub fast_path: bool,
    /// Explicit engine selection, overriding `fast_path` when set
    /// (same precedence as [`MachineConfig::effective_engine`]). Lets
    /// parity campaigns pin each engine individually.
    pub engine: Option<Engine>,
}

impl Default for TextCampaignConfig {
    fn default() -> Self {
        TextCampaignConfig {
            pecos: true,
            audits: true,
            model: ErrorModel::Datainf,
            target: InjectionTarget::RandomText,
            runs: 200,
            threads: 4,
            iterations: 24,
            audit_every_steps: 4_000,
            step_budget: 400_000,
            seed: 0xD5A1,
            fast_path: true,
            engine: None,
        }
    }
}

/// Result of one campaign cell.
#[derive(Debug, Clone)]
pub struct TextCampaignResult {
    /// The configuration that produced it.
    pub config: TextCampaignConfig,
    /// The outcome tally.
    pub counts: OutcomeCounts,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FirstEvent {
    Pecos,
    Audit,
    System,
    Fsv,
}

/// Runs one injection run and classifies it.
pub fn run_one(config: &TextCampaignConfig, seed: u64) -> RunOutcome {
    let mut rng = SimRng::seed_from(seed);
    let client_cfg = AsmClientConfig { iterations: config.iterations };
    let source = client_cfg.program_source();
    let (program, meta): (_, Option<PecosMeta>) = if config.pecos {
        let asm = wtnc_isa::asm::Assembly::parse(&source).expect("client parses");
        let inst = instrument(&asm).expect("client instruments");
        (inst.program, Some(inst.meta))
    } else {
        (wtnc_isa::asm::assemble_source(&source).expect("client assembles"), None)
    };

    let mut db = Database::build(wtnc_db::schema::standard_schema()).expect("schema builds");
    let mut api = if config.audits { DbApi::new() } else { DbApi::without_instrumentation() };
    let mut registry = ProcessRegistry::new();
    let mut audit = config.audits.then(|| {
        wtnc_audit::AuditProcess::new(
            wtnc_audit::AuditConfig {
                periodic_interval: wtnc_sim::SimDuration::from_micros(config.audit_every_steps),
                ..wtnc_audit::AuditConfig::default()
            },
            &db,
        )
    });

    let machine_cfg = MachineConfig { fast_path: config.fast_path, engine: config.engine };
    let mut machine = Machine::load(&program, machine_cfg);
    if machine.engine() != Engine::Slow {
        if let Some(m) = &meta {
            m.install_fast_path(&mut machine);
        }
    }
    let mut pids: Vec<Pid> = Vec::with_capacity(config.threads);
    for _ in 0..config.threads {
        let pid = registry.spawn("asm-client", SimTime::ZERO);
        api.init(pid);
        pids.push(pid);
        machine.spawn_thread(program.entry);
    }

    // Choose the breakpoint target.
    let candidates: Vec<usize> = match config.target {
        InjectionTarget::DirectedCfi => (0..program.text.len())
            .filter(|&a| decode(program.text[a]).map(|i| i.is_cfi()).unwrap_or(false))
            .collect(),
        InjectionTarget::RandomText => (0..program.text.len()).collect(),
    };
    let target = candidates[rng.index(candidates.len())];
    let corrupted_word = config.model.corrupt(&program.text, target, &mut rng);
    let original_word = program.text[target];
    // Breakpoint placement: for a PECOS-protected CFI the corruption
    // must be in place when its assertion block reads the instruction
    // bits, so the breakpoint sits at the entry of the protection
    // region (assertion start); otherwise at the target itself.
    let trigger = match &meta {
        Some(m) => m
            .assertion_block_for_cfi(target as u16)
            .map(|(start, _)| start as usize)
            .unwrap_or(target),
        None => target,
    };
    if corrupted_word == original_word {
        // The model happened to be identity (e.g. ADDIF landing on an
        // identical word): nothing to observe.
        return RunOutcome::NotManifested;
    }

    let mut stats = BridgeStats::default();
    let mut injected = false; // breakpoint fired, word corrupted
    let mut restored = false;
    let mut injecting_thread: Option<usize> = None;
    let mut activated = false;
    let mut first_event: Option<FirstEvent> = None;
    let mut last_fsv: u64 = 0;
    let mut crashed = false;

    let mut steps: u64 = 0;
    'run: while steps < config.step_budget {
        if !machine.has_runnable() {
            break;
        }
        // One batch between audit cycles.
        let batch_end = steps + config.audit_every_steps;
        {
            let mut bridge = DbSyscallBridge::new(&mut db, &mut api, &pids, &mut stats);
            while steps < batch_end && steps < config.step_budget {
                bridge.set_now(SimTime::from_micros(steps));
                // Breakpoint: corrupt just before first execution.
                if !injected {
                    if let Some((tid, pc)) = machine.peek_next() {
                        if pc as usize == trigger {
                            machine.store_text(target, corrupted_word);
                            injected = true;
                            injecting_thread = Some(tid);
                        }
                    }
                }
                let out = machine.step(&mut bridge);
                steps += 1;
                match out {
                    StepOutcome::Executed { thread, pc } => {
                        if injected && !restored && pc as usize == target {
                            activated = true;
                            if Some(thread) == injecting_thread {
                                machine.store_text(target, original_word);
                                restored = true;
                            }
                        }
                    }
                    StepOutcome::Exception(info) => {
                        // (The verdict handling below marks the error
                        // activated for every exception path.)
                        if injected
                            && !restored
                            && info.pc as usize == target
                            && Some(info.thread) == injecting_thread
                        {
                            machine.store_text(target, original_word);
                            restored = true;
                        }
                        let verdict = match &meta {
                            Some(m) => handle_exception(&mut machine, m, info),
                            None => PecosVerdict::SystemFault,
                        };
                        match verdict {
                            PecosVerdict::PecosDetected => {
                                activated = true;
                                first_event.get_or_insert(FirstEvent::Pecos);
                                // The erroneous word may still be armed;
                                // restore so other threads proceed
                                // cleanly once the detection is counted.
                                if injected && !restored {
                                    machine.store_text(target, original_word);
                                    restored = true;
                                }
                            }
                            PecosVerdict::SystemFault => {
                                activated = true;
                                first_event.get_or_insert(FirstEvent::System);
                                crashed = true;
                                break 'run;
                            }
                        }
                    }
                    StepOutcome::Idle => break,
                }
                // Fail-silence flags are timestamped by polling the
                // bridge counter.
                let fsv_now = bridge.stats().total_fsv();
                if fsv_now > last_fsv {
                    last_fsv = fsv_now;
                    if injected {
                        activated = true;
                    }
                    first_event.get_or_insert(FirstEvent::Fsv);
                }
            }
        }
        // Audit cycle between batches.
        if let Some(audit) = audit.as_mut() {
            let now = SimTime::from_micros(steps);
            let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
            if !report.findings.is_empty() {
                if injected {
                    activated = true;
                }
                first_event.get_or_insert(FirstEvent::Audit);
                // Apply thread terminations to the machine: a client
                // thread whose pid the audit killed stops running.
                for (tid, pid) in pids.iter().enumerate() {
                    if !registry.is_alive(*pid)
                        && machine.thread_state(tid) == ThreadState::Runnable
                    {
                        machine.kill_thread(tid);
                    }
                }
            }
        }
    }

    if !injected {
        return RunOutcome::NotActivated;
    }
    if let Some(event) = first_event {
        return match event {
            FirstEvent::Pecos => RunOutcome::PecosDetection,
            FirstEvent::Audit => RunOutcome::AuditDetection,
            FirstEvent::System => RunOutcome::SystemDetection,
            FirstEvent::Fsv => RunOutcome::FailSilenceViolation,
        };
    }
    if !activated {
        return RunOutcome::NotActivated;
    }
    if steps >= config.step_budget && machine.has_runnable() && !crashed {
        return RunOutcome::ClientHang;
    }
    // The run ended quietly: the paper requires the success message for
    // "not manifested"; silent early termination counts as a hang.
    if stats.all_completed(config.threads) {
        RunOutcome::NotManifested
    } else {
        RunOutcome::ClientHang
    }
}

/// Runs a whole campaign cell, distributing the (independently
/// seeded) runs over the machine's cores. Results are identical to a
/// serial execution.
pub fn run_campaign(config: &TextCampaignConfig) -> TextCampaignResult {
    let outcomes =
        crate::parallel::run_runs(config.seed, config.runs, |seed| run_one(config, seed));
    let mut counts = OutcomeCounts::new();
    for outcome in outcomes {
        counts.record(outcome);
    }
    TextCampaignResult { config: *config, counts }
}

/// The paper's four campaign columns over all four error models:
/// (campaign name, merged tally). `target` picks Table 8 (directed)
/// or Table 9 (random).
pub fn four_column_table(
    target: InjectionTarget,
    runs_per_cell: usize,
    threads: usize,
    iterations: u16,
    seed: u64,
) -> Vec<(String, OutcomeCounts)> {
    let columns = [
        ("Without PECOS / Without Audit", false, false),
        ("Without PECOS / With Audit", false, true),
        ("With PECOS / Without Audit", true, false),
        ("With PECOS / With Audit", true, true),
    ];
    columns
        .iter()
        .map(|&(name, pecos, audits)| {
            let mut merged = OutcomeCounts::new();
            for (mi, &model) in ErrorModel::ALL.iter().enumerate() {
                let config = TextCampaignConfig {
                    pecos,
                    audits,
                    model,
                    target,
                    runs: runs_per_cell,
                    threads,
                    iterations,
                    // The seed depends only on the error model, so the
                    // four configuration columns face *paired*
                    // injections (same targets, same corruptions) —
                    // the comparison isolates the protection, not the
                    // draw.
                    seed: seed.wrapping_add(mi as u64 * 7919),
                    ..TextCampaignConfig::default()
                };
                merged.merge(&run_campaign(&config).counts);
            }
            (name.to_owned(), merged)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(
        pecos: bool,
        audits: bool,
        target: InjectionTarget,
        model: ErrorModel,
    ) -> TextCampaignConfig {
        TextCampaignConfig {
            pecos,
            audits,
            model,
            target,
            runs: 40,
            threads: 2,
            iterations: 8,
            audit_every_steps: 2_000,
            step_budget: 200_000,
            seed: 0xBEEF,
            fast_path: true,
            engine: None,
        }
    }

    #[test]
    fn clean_run_without_injection_effect_is_not_manifested_or_not_activated() {
        // A run whose corruption equals the original cannot happen via
        // Datainf (always flips a bit); instead verify a full campaign
        // is classifiable.
        let config = small(false, false, InjectionTarget::RandomText, ErrorModel::Datainf);
        let result = run_campaign(&config);
        assert_eq!(result.counts.total(), 40);
    }

    #[test]
    fn pecos_detects_directed_cfi_errors() {
        let config = small(true, false, InjectionTarget::DirectedCfi, ErrorModel::Dataof);
        let result = run_campaign(&config);
        let pecos = result.counts.count(RunOutcome::PecosDetection);
        let system = result.counts.count(RunOutcome::SystemDetection);
        let activated = result.counts.activated();
        assert!(activated > 10, "directed CFIs should be reached: {result:?}");
        assert!(
            pecos > system,
            "PECOS should dominate crash detection for directed operand errors \
             (pecos {pecos}, system {system})"
        );
    }

    #[test]
    fn without_pecos_directed_errors_mostly_crash_or_pass() {
        let config = small(false, false, InjectionTarget::DirectedCfi, ErrorModel::Dataof);
        let result = run_campaign(&config);
        assert_eq!(result.counts.count(RunOutcome::PecosDetection), 0);
        assert!(result.counts.activated() > 10);
    }

    #[test]
    fn pecos_reduces_system_detection() {
        let without =
            run_campaign(&small(false, false, InjectionTarget::DirectedCfi, ErrorModel::Datainf));
        let with =
            run_campaign(&small(true, false, InjectionTarget::DirectedCfi, ErrorModel::Datainf));
        let crash_rate = |r: &TextCampaignResult| {
            r.counts.proportion_of_activated(RunOutcome::SystemDetection).estimate()
        };
        assert!(
            crash_rate(&with) < crash_rate(&without),
            "with {} !< without {}",
            crash_rate(&with),
            crash_rate(&without)
        );
    }

    #[test]
    fn audit_detection_appears_only_with_audits() {
        let config = small(false, false, InjectionTarget::RandomText, ErrorModel::Dataof);
        let result = run_campaign(&config);
        assert_eq!(result.counts.count(RunOutcome::AuditDetection), 0);
    }

    #[test]
    fn run_one_is_deterministic_for_a_seed() {
        let config = small(true, true, InjectionTarget::RandomText, ErrorModel::Datainf);
        let a = run_one(&config, 1234);
        let b = run_one(&config, 1234);
        assert_eq!(a, b);
    }
}
