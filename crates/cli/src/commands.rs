//! Subcommand implementations.

use std::collections::HashMap;

use wtnc::audit::{AuditConfig, SupervisorConfig};
use wtnc::db::schema;
use wtnc::inject::db_campaign::{run_campaign as run_db_campaign, DbCampaignConfig};
use wtnc::inject::powerfail_campaign::{run_campaign as run_powerfail_campaign, PowerFailModel};
use wtnc::inject::process_campaign::{
    run_campaign as run_process_campaign, ProcessCampaignConfig, ProcessFaultModel,
};
use wtnc::inject::recovery_campaign::{
    run_campaign as run_recovery_campaign, RecoveryCampaignConfig,
};
use wtnc::inject::storm_campaign::{
    run_campaign as run_storm_campaign, run_once as run_storm_once, StormCampaignConfig,
    StormModel, MAX_LOAD,
};
use wtnc::inject::text_campaign::{four_column_table, InjectionTarget};
use wtnc::inject::RunOutcome;
use wtnc::isa::{asm::Assembly, Engine, Machine, MachineConfig, NoSyscalls, StepOutcome};
use wtnc::pecos::{handle_exception, instrument, PecosVerdict};
use wtnc::recovery::RecoveryConfig;
use wtnc::sim::{SimDuration, SimRng, SimTime};
use wtnc::store::{ScratchDir, Store, StoreConfig};
use wtnc::Controller;

/// Top-level usage text.
pub const USAGE: &str = "\
wtnc — database audit and control-flow checking framework tools

USAGE:
    wtnc asm <file.s>                      assemble and list a program
    wtnc run <file.s> [--threads N] [--steps N]
                                           execute on the machine
    wtnc trace <file.s> [--steps N]        single-step with a per-
                                           instruction listing
    wtnc pecos <file.s> [--corrupt-cfi N] [--engine slow|superblock]
                                           instrument and run; optionally
                                           corrupt the Nth CFI and watch
                                           PECOS; per-run superblock report
    wtnc audit-demo                        inject -> detect -> repair
    wtnc audit [--cycles N] [--dirty-pct P]
                                           steady-state audit cycles:
                                           findings, records checked and
                                           wall time per cycle
    wtnc audit --storm [--load X] [--model NAME]
                                           overload walkthrough: one
                                           traffic-storm run with and
                                           without resource isolation
    wtnc recover [--budget N]              detect -> diagnose -> repair
                                           -> verify walkthrough
    wtnc supervise                         hang/crash -> detect -> steal
                                           locks -> warm-restart demo
    wtnc store checkpoint [--dir D] [--seed N] [--mutations N]
                          [--delta] [--full-every N]
                                           journal a seeded workload and
                                           cut a checkpoint; --delta
                                           writes dirty-block deltas
                                           against a periodic full image
    wtnc store replay [--dir D]            warm recovery: newest valid
                                           checkpoint, folded deltas,
                                           journal tail
    wtnc store verify [--dir D]            read-only integrity screen of
                                           a store directory
    wtnc store compact [--dir D]           rotate the journal, dropping
                                           records the newest checkpoint
                                           already covers
    wtnc campaign db [--runs N] [--no-audit]
    wtnc campaign text [--runs N] [--directed]
    wtnc campaign priority [--runs N] [--proportional]
    wtnc campaign recovery [--runs N] [--budget N]
    wtnc campaign process [--runs N] [--model NAME]
    wtnc campaign powerfail [--runs N] [--model NAME]
    wtnc campaign storm [--runs N] [--model NAME] [--load X]
                        [--no-isolation]
    wtnc help                              this text

`wtnc store` commands operate on a durable store directory (--dir);
without --dir they demonstrate the journal/checkpoint/recovery cycle in
a temporary scratch directory that is removed on exit.

Campaigns spread their independent runs over the available cores;
every audit cycle runs serially. WTNC_NO_HWCRC=1 forces the portable
CRC kernel.";

/// Parses `--flag value` pairs, `--switch`es and positional arguments,
/// rejecting any flag the subcommand does not know. `values` names the
/// flags that take a value (without the `--`), `switches` the boolean
/// ones: a switch never consumes the next argument, and a value flag
/// with no value after it is an error.
fn parse<'a>(
    args: &'a [String],
    values: &[&str],
    switches: &[&str],
) -> Result<(Vec<&'a str>, HashMap<&'a str, &'a str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut rest = args.iter().map(String::as_str).peekable();
    while let Some(a) = rest.next() {
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a);
            continue;
        };
        if switches.contains(&name) {
            flags.insert(name, "true");
        } else if values.contains(&name) {
            match rest.next_if(|v| !v.starts_with("--")) {
                Some(v) => flags.insert(name, v),
                None => return Err(format!("--{name} expects a value")),
            };
        } else {
            let known: Vec<&str> = values.iter().chain(switches).copied().collect();
            return Err(if known.is_empty() {
                format!("unknown flag --{name}; this command takes no flags")
            } else {
                format!("unknown flag --{name}; expected one of --{}", known.join(", --"))
            });
        }
    }
    Ok((positional, flags))
}

fn flag_num<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got {v:?}")),
        None => Ok(default),
    }
}

/// `--load X` (default 2): the storm's offered load, a finite,
/// non-negative multiple of the auditor's saturation rate.
fn flag_load(flags: &HashMap<&str, &str>) -> Result<f64, String> {
    let load: f64 = flag_num(flags, "load", 2.0)?;
    if !(load.is_finite() && load.is_sign_positive()) {
        Err(format!("--load expects a finite, non-negative number, got {load}"))
    } else if load > MAX_LOAD {
        // Echo the flag as written: `{load}` would spell 1e300 out.
        let raw = flags.get("load").copied().unwrap_or_default();
        Err(format!("--load expects at most {MAX_LOAD} (times the saturation rate), got {raw}"))
    } else {
        Ok(load)
    }
}

fn load_assembly(path: &str) -> Result<Assembly, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Assembly::parse(&source).map_err(|e| format!("{path}: {e}"))
}

/// `wtnc asm <file.s>`
pub fn asm(args: &[String]) -> Result<(), String> {
    let (positional, _) = parse(args, &[], &[])?;
    let [path] = positional.as_slice() else {
        return Err("usage: wtnc asm <file.s>".into());
    };
    let assembly = load_assembly(path)?;
    let program = assembly.assemble().map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} words, entry at {}, {} symbols\n",
        program.len(),
        program.entry,
        program.symbols.len()
    );
    print!("{}", program.disassemble());
    Ok(())
}

/// `wtnc run <file.s> [--threads N] [--steps N]`
pub fn run(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args, &["threads", "steps"], &[])?;
    let [path] = positional.as_slice() else {
        return Err("usage: wtnc run <file.s> [--threads N] [--steps N]".into());
    };
    let threads: usize = flag_num(&flags, "threads", 1)?;
    let steps: u64 = flag_num(&flags, "steps", 1_000_000)?;
    let program = load_assembly(path)?.assemble().map_err(|e| format!("{path}: {e}"))?;
    let mut machine = Machine::load(&program, MachineConfig::default());
    for _ in 0..threads.max(1) {
        machine.spawn_thread(program.entry);
    }
    let outcome = machine.run(&mut NoSyscalls, steps);
    println!(
        "ran {} instructions across {} thread(s); final outcome: {outcome:?}",
        machine.total_steps(),
        threads
    );
    for t in 0..threads.max(1) {
        let regs: Vec<String> =
            (0..16).map(|r| format!("r{r}={}", machine.reg(t, r).unwrap_or(0))).collect();
        println!("thread {t}: {:?}\n  {}", machine.thread_state(t), regs.join(" "));
    }
    Ok(())
}

/// `wtnc trace <file.s> [--steps N]`
pub fn trace(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args, &["steps"], &[])?;
    let [path] = positional.as_slice() else {
        return Err("usage: wtnc trace <file.s> [--steps N]".into());
    };
    let steps: u64 = flag_num(&flags, "steps", 200)?;
    let program = load_assembly(path)?.assemble().map_err(|e| format!("{path}: {e}"))?;
    let mut machine = Machine::load(&program, MachineConfig::default());
    machine.spawn_thread(program.entry);
    for _ in 0..steps {
        let Some((tid, pc)) = machine.peek_next() else {
            println!("(machine idle)");
            break;
        };
        let word = machine.text()[pc as usize];
        let listing = match wtnc::isa::decode(word) {
            Ok(inst) => format!("{inst:?}"),
            Err(e) => format!(".word {word:#010x} ; {e}"),
        };
        match machine.step(&mut NoSyscalls) {
            StepOutcome::Executed { .. } => println!("t{tid} {pc:5}: {listing}"),
            StepOutcome::Exception(info) => {
                println!("t{tid} {pc:5}: {listing}   !! {:?}", info.kind);
                break;
            }
            StepOutcome::Idle => break,
        }
    }
    Ok(())
}

/// `wtnc pecos <file.s> [--corrupt-cfi N] [--engine E]`
pub fn pecos(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args, &["corrupt-cfi", "engine"], &[])?;
    let [path] = positional.as_slice() else {
        return Err(
            "usage: wtnc pecos <file.s> [--corrupt-cfi N] [--engine slow|superblock]".into()
        );
    };
    let assembly = load_assembly(path)?;
    let inst = instrument(&assembly).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} CFIs protected; {} -> {} words ({:.0}% size overhead)",
        inst.meta.cfi_count,
        inst.meta.original_words,
        inst.meta.instrumented_words,
        inst.meta.size_overhead() * 100.0
    );

    let engine = match flags.get("engine") {
        None => None,
        Some(s) => Some(
            Engine::parse(s).ok_or_else(|| format!("unknown engine '{s}' (slow, superblock)"))?,
        ),
    };
    let corrupt = match flags.get("corrupt-cfi") {
        None => None,
        Some(which) => {
            Some(which.parse::<usize>().map_err(|_| "--corrupt-cfi expects an index".to_owned())?)
        }
    };
    if corrupt.is_none() && engine.is_none() {
        return Ok(());
    }

    let mut machine =
        Machine::load(&inst.program, MachineConfig { engine, ..MachineConfig::default() });
    inst.meta.install_fast_path(&mut machine);
    if let Some(which) = corrupt {
        let cfis: Vec<usize> = (0..inst.program.len())
            .filter(|&a| {
                wtnc::isa::decode(inst.program.text[a]).map(|i| i.is_cfi()).unwrap_or(false)
            })
            .collect();
        let Some(&target) = cfis.get(which) else {
            return Err(format!("program has {} CFIs; index {which} out of range", cfis.len()));
        };
        machine.store_text(target, inst.program.text[target] ^ 0x0000_0010); // flip a target bit
        println!("corrupted the CFI at text address {target}; running...");
    } else {
        println!("running clean on the {} engine...", machine.engine().name());
    }
    let t = machine.spawn_thread(inst.program.entry);
    match machine.run(&mut NoSyscalls, 1_000_000) {
        StepOutcome::Exception(info) => match handle_exception(&mut machine, &inst.meta, info) {
            PecosVerdict::PecosDetected => println!(
                "PECOS detection: divide-by-zero from the assertion block at pc {} — \
                 thread terminated before the corrupted jump executed",
                info.pc
            ),
            PecosVerdict::SystemFault => {
                println!("system fault: {:?} at pc {} (process crash)", info.kind, info.pc)
            }
        },
        StepOutcome::Idle => println!("program ran to completion"),
        StepOutcome::Executed { .. } => println!("no verdict after 1000000 steps (hang?)"),
    }
    println!("thread state: {:?}", machine.thread_state(t));
    print_superblock_report(&machine);
    Ok(())
}

/// Per-run superblock-engine report: resident block count, chain
/// length histogram, compile/invalidation counters.
fn print_superblock_report(machine: &Machine) {
    if machine.engine() != Engine::Superblock {
        return;
    }
    let stats = machine.superblock_stats();
    println!(
        "superblocks: {} resident, {} compiled, {} invalidated, {} entered \
         ({} instructions retired in blocks)",
        stats.blocks.len(),
        stats.compiled,
        stats.invalidated,
        stats.entered,
        stats.block_steps
    );
    if stats.blocks.is_empty() {
        return;
    }
    // Chain-length histogram over resident blocks, power-of-two buckets.
    const BUCKETS: [(u64, u64, &str); 6] = [
        (1, 2, "1-2"),
        (3, 4, "3-4"),
        (5, 8, "5-8"),
        (9, 16, "9-16"),
        (17, 32, "17-32"),
        (33, u64::MAX, "33+"),
    ];
    println!("chain length histogram (instructions retired per block execution):");
    for (lo, hi, label) in BUCKETS {
        let n = stats.blocks.iter().filter(|b| b.steps >= lo && b.steps <= hi).count();
        if n > 0 {
            println!("  {label:>6}  {} {n}", "#".repeat(n.min(60)));
        }
    }
}

/// `wtnc audit-demo`
pub fn audit_demo(args: &[String]) -> Result<(), String> {
    parse(args, &[], &[])?;
    let mut controller = Controller::standard().with_audit(AuditConfig::default());
    println!(
        "controller: {} tables, {} byte image, audit process alive",
        controller.db.catalog().table_count(),
        controller.db.region_len()
    );
    // One corruption per audit element class.
    let catalog_off = 6;
    let header_off = controller
        .db
        .record_offset(wtnc::db::RecordRef::new(schema::PROCESS_TABLE, 2))
        .expect("record exists");
    controller.inject_bit_flip(catalog_off, 1, SimTime::from_secs(1));
    controller.inject_bit_flip(header_off, 3, SimTime::from_secs(1));
    println!("injected 2 bit flips (catalog + record header)");
    let report = controller.run_audit_cycle(SimTime::from_secs(10)).expect("audit alive");
    for f in &report.findings {
        println!("  [{:?}] {} -> {:?}", f.element, f.detail, f.action);
    }
    println!("latent corruptions remaining: {}", controller.db.taint().latent_count());
    Ok(())
}

/// `wtnc audit [--cycles N] [--dirty-pct P]`: runs steady-state audit
/// cycles over a populated database and prints each cycle's findings,
/// records checked and wall time. `WTNC_NO_HWCRC=1` pins the portable
/// CRC kernel.
pub fn audit(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args, &["cycles", "dirty-pct", "load", "model"], &["storm"])?;
    if flags.contains_key("storm") {
        return audit_storm_demo(&flags);
    }
    let cycles: u64 = flag_num(&flags, "cycles", 3u64)?;
    let dirty_pct: f64 = flag_num(&flags, "dirty-pct", 25.0)?;

    let mut controller = Controller::standard().with_audit(AuditConfig::default());
    println!(
        "controller: {} tables, {} byte image; crc kernel {}",
        controller.db.catalog().table_count(),
        controller.db.region_len(),
        wtnc::db::crc_kernel().name()
    );

    // Steady-state workload: touch a fraction of the blocks with
    // same-value writes so the audit re-verifies them and finds
    // nothing — the recurring cost of an incremental audit.
    let n_blocks = controller.db.region_len() / wtnc::db::DIRTY_BLOCK_SIZE;
    let k = ((n_blocks as f64 * dirty_pct / 100.0) as usize).clamp(1, n_blocks);
    for cycle in 1..=cycles {
        for i in 0..k {
            let offset =
                ((i * n_blocks / k + cycle as usize) % n_blocks) * wtnc::db::DIRTY_BLOCK_SIZE;
            let byte = controller.db.region()[offset];
            controller.db.poke(offset, &[byte]).expect("offset in range");
        }
        let start = std::time::Instant::now();
        let report =
            controller.run_audit_cycle(SimTime::from_secs(10 * cycle)).expect("audit alive");
        let us = start.elapsed().as_secs_f64() * 1e6;
        println!(
            "cycle {cycle}: {} finding(s), {} records, {us:.0} us",
            report.findings.len(),
            report.records_checked
        );
    }
    Ok(())
}

/// `wtnc audit --storm [--load X] [--model NAME]`: one traffic-storm
/// run with and without the resource-isolation layer, side by side —
/// the overload walkthrough behind `wtnc campaign storm`.
fn audit_storm_demo(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let load = flag_load(flags)?;
    let model = match flags.get("model") {
        Some(name) => parse_storm_model(name)?,
        None => StormModel::SuperProducer,
    };
    println!(
        "storm walkthrough: {} at {load}x the auditor's saturation rate, one corruption \
         planted mid-storm\n",
        model.name()
    );
    for isolation in [true, false] {
        let config = StormCampaignConfig { model, load, isolation, ..Default::default() };
        let r = run_storm_once(&config, 1);
        println!(
            "isolation {}: bounded fair IPC + audit CPU token bucket {}",
            if isolation { "ON " } else { "OFF" },
            if isolation { "guard the detector" } else { "disabled — historical behavior" },
        );
        println!(
            "  storm events: {} offered, {} accepted, {} shed at lane bounds, {} backpressured",
            r.offered_events, r.accepted_events, r.shed_events, r.backpressured_events
        );
        println!(
            "  audit: {} cycles completed (mean {:.2} s), {} aborted, {} degraded \
             ({} explicit findings, {} table screens shed)",
            r.cycles_completed,
            r.mean_cycle_s,
            r.cycles_aborted,
            r.degraded_cycles,
            r.degraded_findings,
            r.tables_shed
        );
        println!(
            "  corruption {} (latency {:.2} s); {} false audit restart(s), {} escalation(s)\n",
            if r.detected { "DETECTED" } else { "NOT detected" },
            r.detection_latency_s,
            r.false_restarts,
            r.escalations
        );
    }
    Ok(())
}

fn parse_storm_model(name: &str) -> Result<StormModel, String> {
    StormModel::ALL.into_iter().find(|m| m.name() == name).ok_or_else(|| {
        let names: Vec<&str> = StormModel::ALL.iter().map(|m| m.name()).collect();
        format!("unknown storm model {name:?}; expected one of {}", names.join(", "))
    })
}

/// `wtnc recover [--budget N]`: a walkthrough of the staged
/// detect→diagnose→repair→verify loop.
pub fn recover(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args, &["budget"], &[])?;
    let budget: u32 = flag_num(&flags, "budget", RecoveryConfig::default().cycle_budget)?;
    let mut controller = Controller::standard()
        .with_audit(AuditConfig::default())
        .with_recovery(RecoveryConfig { cycle_budget: budget, ..RecoveryConfig::default() });
    println!(
        "controller: {} tables, {} byte image; audits detect-only; \
         recovery budget {budget} tokens/cycle",
        controller.db.catalog().table_count(),
        controller.db.region_len()
    );

    // One corruption per repair-rung class: a static configuration
    // field, a record header, and an out-of-range dynamic field.
    let rec = wtnc::db::RecordRef::new(schema::SYSCONFIG_TABLE, 0);
    let (cfg_off, _) =
        controller.db.field_extent(rec, schema::sysconfig::MAX_CALLS).expect("field exists");
    let header_off = controller
        .db
        .record_offset(wtnc::db::RecordRef::new(schema::PROCESS_TABLE, 2))
        .expect("record exists");
    controller.inject_bit_flip(cfg_off, 2, SimTime::from_secs(1));
    controller.inject_bit_flip(header_off, 3, SimTime::from_secs(1));
    let idx = controller.db.alloc_record_raw(schema::CONNECTION_TABLE).expect("free slot");
    let conn = wtnc::db::RecordRef::new(schema::CONNECTION_TABLE, idx);
    controller.db.write_field_raw(conn, schema::connection::STATE, 99).expect("field exists");
    println!("injected 3 faults: static config byte, record header, out-of-range field");

    for cycle in 1..=3u64 {
        let now = SimTime::from_secs(10 * cycle);
        let Some((report, outcome)) = controller.run_recovery_cycle(now) else {
            break;
        };
        println!(
            "cycle {cycle}: flagged {}, attempted {}, verified {}, escalated {}, \
             deferred {}, spent {} tokens ({} ms busy)",
            report.findings.len(),
            outcome.attempted,
            outcome.verified,
            outcome.escalated,
            outcome.deferred,
            outcome.tokens_spent,
            outcome.busy.as_secs_f64() * 1e3,
        );
        if outcome.deferred == 0 && report.findings.is_empty() {
            break;
        }
    }
    let engine = controller.recovery().expect("engine attached");
    for entry in engine.log() {
        println!(
            "  #{:<2} [{:?}] {:?} via {:?} -> {:?} (cost {})",
            entry.seq, entry.element, entry.target, entry.rung, entry.outcome, entry.cost
        );
    }
    let stats = engine.stats();
    println!(
        "closed {} of {} attempts verified, {} failed; mean repair latency {:.1} s; \
         latent corruptions remaining: {}",
        stats.verified,
        stats.attempted,
        stats.failed,
        stats.mean_latency_s(),
        controller.db.taint().latent_count()
    );
    Ok(())
}

/// `wtnc supervise`: a walkthrough of the process-supervision loop —
/// a client hangs holding a lock, another crashes, the supervisor
/// condemns both, steals the lock, and warm-restarts the lineages.
pub fn supervise(args: &[String]) -> Result<(), String> {
    use wtnc::sim::Responsiveness;

    parse(args, &[], &[])?;
    let mut controller = Controller::standard()
        .with_audit(AuditConfig::default())
        .with_supervision(SupervisorConfig::default());
    let hung = controller.spawn_client("client-a", SimTime::ZERO);
    let crashed = controller.spawn_client("client-b", SimTime::ZERO);
    println!(
        "supervising {} process(es): audit + 2 clients",
        controller.supervisor().expect("attached").supervised().count()
    );

    // Client A hangs (alive but silent) holding a connection lock;
    // client B crashes outright.
    let rec = wtnc::db::RecordRef::new(schema::CONNECTION_TABLE, 0);
    controller.api.lock(&controller.db, rec, hung, SimTime::from_secs(1)).expect("lock free");
    controller.registry.set_responsiveness(hung, Responsiveness::Hung);
    controller.registry.crash(crashed, SimTime::from_secs(2));
    println!("injected: {hung} hung holding a lock, {crashed} crashed");

    for s in 3..=30u64 {
        let now = SimTime::from_secs(s);
        let Some(report) = controller.supervise_tick(now) else {
            break;
        };
        for f in &report.findings {
            println!("  t={s:>2}s [{:?}] {}", f.element, f.detail);
        }
        if controller.supervisor().expect("attached").ledger().restarts.len() >= 2 {
            break;
        }
    }

    let supervisor = controller.supervisor().expect("attached");
    let ledger = supervisor.ledger();
    for r in &ledger.restarts {
        println!(
            "restarted {} -> {} ({:?}): detection latency {}, downtime {}, {} lock(s) stolen",
            r.old,
            r.new,
            r.cause,
            r.detection_latency(),
            r.downtime(),
            r.locks_stolen
        );
    }
    println!(
        "locks held now: {}; total downtime {}",
        controller.api.locks().len(),
        ledger.closed_downtime()
    );
    Ok(())
}

/// A short seeded mutation burst against the connection table, used by
/// the `wtnc store` walkthroughs to generate journal traffic.
fn store_workload(db: &mut wtnc::db::Database, rng: &mut SimRng, steps: usize) {
    let table = schema::CONNECTION_TABLE;
    let mut live = Vec::new();
    for _ in 0..steps {
        let result = if live.is_empty() || rng.chance(0.5) {
            match db.alloc_record_raw(table) {
                Ok(idx) => {
                    live.push(idx);
                    db.write_field_raw(
                        wtnc::db::RecordRef::new(table, idx),
                        schema::connection::CALLER_ID,
                        rng.range_u64(0, 99_999),
                    )
                }
                Err(wtnc::db::DbError::TableFull(_)) if !live.is_empty() => {
                    let idx = live.swap_remove(rng.index(live.len()));
                    db.free_record_raw(wtnc::db::RecordRef::new(table, idx))
                }
                Err(e) => Err(e),
            }
        } else {
            let idx = live[rng.index(live.len())];
            db.write_field_raw(
                wtnc::db::RecordRef::new(table, idx),
                schema::connection::STATE,
                rng.range_u64(0, 4),
            )
        };
        result.expect("workload step");
    }
}

fn print_store_findings(findings: &[wtnc::store::StoreFinding]) {
    if findings.is_empty() {
        println!("no findings: every checkpoint and the journal verify clean");
    }
    for f in findings {
        println!("  finding [{:?}] {f}", f.kind);
    }
}

/// `wtnc store <checkpoint|replay|verify|compact> [--dir D] [--seed N]
/// [--mutations N] [--delta] [--full-every N]`
pub fn store(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args, &["dir", "seed", "mutations", "full-every"], &["delta"])?;
    // On an existing directory only `checkpoint` journals a workload and
    // cuts a checkpoint; the other actions would ignore the rest.
    if flags.contains_key("dir") && matches!(positional[..], ["replay" | "verify" | "compact"]) {
        parse(args, &["dir"], &[])?;
    }
    let seed: u64 = flag_num(&flags, "seed", 0x00C0_FFEE)?;
    let mutations: usize = flag_num(&flags, "mutations", 64)?;
    // `--delta` switches on incremental checkpoints (every 4th full by
    // default); `--full-every N` picks the full-image period directly.
    let default_period = if flags.contains_key("delta") { 4 } else { 1 };
    let full_every: u32 = flag_num(&flags, "full-every", default_period)?;
    if full_every == 0 {
        return Err("--full-every expects a period of at least 1".into());
    }
    let config = StoreConfig { full_every, ..StoreConfig::default() };
    // Without --dir the command runs against a scratch directory that
    // is seeded with a small history and removed on exit.
    let scratch;
    let (dir, walkthrough) = match flags.get("dir") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => {
            scratch = ScratchDir::new("cli-store");
            println!("(no --dir: walkthrough in scratch directory {})\n", scratch.path().display());
            let mut db =
                wtnc::db::Database::build(schema::standard_schema()).map_err(|e| e.to_string())?;
            let mut store = Store::open(scratch.path(), config).map_err(|e| e.to_string())?;
            store.attach(&mut db);
            let mut rng = SimRng::seed_from(seed);
            store_workload(&mut db, &mut rng, mutations);
            store.checkpoint(&mut db).map_err(|e| e.to_string())?;
            store_workload(&mut db, &mut rng, mutations / 2);
            store.sync(&mut db).map_err(|e| e.to_string())?;
            (scratch.path().to_path_buf(), true)
        }
    };

    match positional.as_slice() {
        ["checkpoint"] => {
            let mut db =
                wtnc::db::Database::build(schema::standard_schema()).map_err(|e| e.to_string())?;
            let mut store = Store::open(&dir, config).map_err(|e| e.to_string())?;
            if store.has_state() {
                let info = store.recover_into(&mut db).map_err(|e| e.to_string())?;
                println!(
                    "recovered existing state: base generation {}, {} journal record(s) replayed",
                    info.base_gen, info.replayed
                );
                print_store_findings(&info.findings);
            }
            store.attach(&mut db);
            let mut rng = SimRng::seed_from(seed ^ 0x5EED);
            store_workload(&mut db, &mut rng, mutations);
            let gen = store.checkpoint(&mut db).map_err(|e| e.to_string())?;
            println!("journaled {mutations} mutation step(s), cut checkpoint at generation {gen}");
            println!("golden history ({} checkpoint(s)):", store.chain().len());
            for entry in store.chain() {
                match entry.kind {
                    wtnc::store::CheckpointKind::Full => {
                        println!("  gen {:>6}  full   digest {:016x}", entry.gen, entry.digest)
                    }
                    wtnc::store::CheckpointKind::Delta => println!(
                        "  gen {:>6}  delta  digest {:016x}  (base gen {})",
                        entry.gen, entry.digest, entry.base_gen
                    ),
                }
            }
            let stats = store.stats();
            println!(
                "journal: {} record(s), {} byte(s); checkpoints this session: {} full, {} delta",
                stats.journal_records,
                stats.journal_bytes,
                stats.full_checkpoints,
                stats.delta_checkpoints
            );
            Ok(())
        }
        ["compact"] => {
            let mut store = Store::open(&dir, config).map_err(|e| e.to_string())?;
            if !store.has_state() {
                return Err(format!("{} holds no checkpoints or journal", dir.display()));
            }
            let before = store.journal_bytes();
            let reclaimed = store.compact().map_err(|e| e.to_string())?;
            let stats = store.stats();
            println!(
                "journal compaction: {reclaimed} byte(s) reclaimed ({before} -> {} byte(s)), \
                 records at or below generation {} dropped",
                stats.journal_bytes, stats.compacted_through
            );
            println!(
                "journal now holds {} record(s); the retained suffix only replays onto \
                 checkpoints at or past the horizon",
                stats.journal_records
            );
            Ok(())
        }
        ["replay"] => {
            let mut store = Store::open(&dir, config).map_err(|e| e.to_string())?;
            if !store.has_state() {
                return Err(format!("{} holds no checkpoints or journal", dir.display()));
            }
            let mut db =
                wtnc::db::Database::build(schema::standard_schema()).map_err(|e| e.to_string())?;
            let info = store.recover_into(&mut db).map_err(|e| e.to_string())?;
            println!(
                "warm recovery: base checkpoint generation {}, {} journal record(s) \
                 replayed, image now at generation {}",
                info.base_gen,
                info.replayed,
                db.mutation_generation()
            );
            print_store_findings(&info.findings);
            Ok(())
        }
        ["verify"] => {
            if walkthrough {
                // Tamper with one golden byte so the screen has
                // something to report.
                let entry = std::fs::read_dir(&dir)
                    .map_err(|e| e.to_string())?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .find(|p| p.extension().is_some_and(|x| x == "img"))
                    .ok_or("walkthrough produced no checkpoint")?;
                let mut bytes = std::fs::read(&entry).map_err(|e| e.to_string())?;
                bytes[100] ^= 0x40;
                std::fs::write(&entry, &bytes).map_err(|e| e.to_string())?;
                println!("(walkthrough: flipped one bit inside the newest checkpoint)\n");
            }
            let findings = Store::verify(&dir, &config).map_err(|e| e.to_string())?;
            print_store_findings(&findings);
            Ok(())
        }
        _ => Err("usage: wtnc store <checkpoint|replay|verify|compact> [--dir D] [--seed N] \
             [--mutations N] [--delta] [--full-every N]"
            .into()),
    }
}

fn parse_powerfail_model(name: &str) -> Result<PowerFailModel, String> {
    PowerFailModel::ALL.into_iter().find(|m| m.name() == name).ok_or_else(|| {
        let names: Vec<&str> = PowerFailModel::ALL.iter().map(|m| m.name()).collect();
        format!("unknown power-fail model {name:?}; expected one of {}", names.join(", "))
    })
}

fn parse_fault_model(name: &str) -> Result<ProcessFaultModel, String> {
    ProcessFaultModel::ALL.into_iter().find(|m| m.name() == name).ok_or_else(|| {
        let names: Vec<&str> = ProcessFaultModel::ALL.iter().map(|m| m.name()).collect();
        format!("unknown fault model {name:?}; expected one of {}", names.join(", "))
    })
}

/// `wtnc campaign <db|text|priority|recovery|process|powerfail|storm>
/// [...]`; the campaign name comes first and picks the known flags.
pub fn campaign(args: &[String]) -> Result<(), String> {
    let (values, switches): (&[&str], &[&str]) = match args.first().map(String::as_str) {
        Some("db") => (&["runs"], &["no-audit"]),
        Some("text") => (&["runs"], &["directed"]),
        Some("priority") => (&["runs"], &["proportional"]),
        Some("recovery") => (&["runs", "budget"], &[]),
        Some("process" | "powerfail") => (&["runs", "model"], &[]),
        Some("storm") => (&["runs", "model", "load"], &["no-isolation"]),
        _ => (&[], &[]),
    };
    let (positional, flags) = parse(args, values, switches)?;
    match positional.as_slice() {
        ["db"] => {
            let runs: usize = flag_num(&flags, "runs", 5)?;
            let audits = !flags.contains_key("no-audit");
            let config = DbCampaignConfig {
                audits,
                duration: SimDuration::from_secs(500),
                ..DbCampaignConfig::default()
            };
            let r = run_db_campaign(&config, runs);
            println!(
                "db campaign ({runs} runs, audits {}): injected {}, escaped {} ({:.1}%), \
                 caught {} ({:.1}%), no effect {} ({:.1}%), setup {:.0} ms",
                if audits { "on" } else { "off" },
                r.injected,
                r.escaped,
                r.escaped_pct(),
                r.caught,
                r.caught_pct(),
                r.overwritten + r.latent,
                r.no_effect_pct(),
                r.avg_setup_ms
            );
            Ok(())
        }
        ["text"] => {
            let runs: usize = flag_num(&flags, "runs", 25)?;
            let target = if flags.contains_key("directed") {
                InjectionTarget::DirectedCfi
            } else {
                InjectionTarget::RandomText
            };
            let columns = four_column_table(target, runs, 2, 12, 0xC11);
            for (name, counts) in &columns {
                println!(
                    "{name:<32} activated {:>4}  pecos {:>5.1}%  crash {:>5.1}%  coverage {:>5.1}%",
                    counts.activated(),
                    counts.proportion_of_activated(RunOutcome::PecosDetection).percent(),
                    counts.proportion_of_activated(RunOutcome::SystemDetection).percent(),
                    counts.coverage()
                );
            }
            Ok(())
        }
        ["priority"] => {
            let runs: usize = flag_num(&flags, "runs", 3)?;
            let proportional = flags.contains_key("proportional");
            for prioritized in [false, true] {
                let config = wtnc::inject::priority_campaign::PriorityCampaignConfig {
                    prioritized,
                    proportional_errors: proportional,
                    duration: SimDuration::from_secs(200),
                    ..Default::default()
                };
                let r = wtnc::inject::priority_campaign::run_campaign(&config, runs);
                println!(
                    "{:<13} escaped {:>6.2}% of {:>6} injected, caught {:>6}, latency {:>5.2} s",
                    if prioritized { "prioritized" } else { "round-robin" },
                    r.escaped_pct(),
                    r.injected,
                    r.caught,
                    r.detection_latency_s
                );
            }
            Ok(())
        }
        ["recovery"] => {
            let runs: usize = flag_num(&flags, "runs", 3)?;
            let budget: u32 = flag_num(&flags, "budget", RecoveryConfig::default().cycle_budget)?;
            let config = RecoveryCampaignConfig {
                duration: SimDuration::from_secs(500),
                recovery: RecoveryConfig { cycle_budget: budget, ..RecoveryConfig::default() },
                ..RecoveryCampaignConfig::default()
            };
            let r = run_recovery_campaign(&config, runs);
            println!(
                "recovery campaign ({runs} runs, budget {budget}): injected {}, \
                 repaired+verified {}, repair failed {}, escaped {}, escalations {}, \
                 latency {:.2} s, calls {}",
                r.injected,
                r.outcomes.count(RunOutcome::DetectedRepaired),
                r.outcomes.count(RunOutcome::RepairFailed),
                r.outcomes.count(RunOutcome::FailSilenceViolation),
                r.escalations,
                r.repair_latency_s,
                r.calls
            );
            Ok(())
        }
        ["process"] => {
            let runs: usize = flag_num(&flags, "runs", 3)?;
            let models: Vec<ProcessFaultModel> = match flags.get("model") {
                Some(name) => vec![parse_fault_model(name)?],
                None => ProcessFaultModel::ALL.to_vec(),
            };
            for model in models {
                let config = ProcessCampaignConfig {
                    duration: SimDuration::from_secs(300),
                    model,
                    ..ProcessCampaignConfig::default()
                };
                let r = run_process_campaign(&config, runs);
                println!(
                    "{:<22} injected {:>3}, repaired {:>3}, repair failed {:>2}, \
                     detection {:>5.2} s, unavailable {:>5.2} s, restarts {:>3}, \
                     escalations {:>2}, locks stolen {:>3}, dropped calls {:>3}, \
                     availability {:>5.1}%",
                    model.name(),
                    r.injected,
                    r.outcomes.count(RunOutcome::DetectedRepaired),
                    r.outcomes.count(RunOutcome::RepairFailed),
                    r.detection_latency_s,
                    r.unavailable_s,
                    r.restarts,
                    r.escalations,
                    r.locks_stolen,
                    r.dropped_calls,
                    r.outcomes.availability()
                );
            }
            Ok(())
        }
        ["powerfail"] => {
            let runs: usize = flag_num(&flags, "runs", 5)?;
            let models: Vec<PowerFailModel> = match flags.get("model") {
                Some(name) => vec![parse_powerfail_model(name)?],
                None => PowerFailModel::ALL.to_vec(),
            };
            for model in models {
                let r = run_powerfail_campaign(model, runs);
                println!(
                    "{:<20} injected {:>3}, detected {:>3}, repaired {:>3}, exact \
                     recoveries {:>3}, fail-silence {:>2}, findings {:>3}, replayed {:>5}",
                    model.name(),
                    r.injected,
                    r.outcomes.count(RunOutcome::AuditDetection),
                    r.outcomes.count(RunOutcome::DetectedRepaired),
                    r.exact_recoveries,
                    r.outcomes.count(RunOutcome::FailSilenceViolation),
                    r.findings,
                    r.replayed
                );
            }
            Ok(())
        }
        ["storm"] => {
            let runs: usize = flag_num(&flags, "runs", 3)?;
            let load = flag_load(&flags)?;
            let models: Vec<StormModel> = match flags.get("model") {
                Some(name) => vec![parse_storm_model(name)?],
                None => StormModel::ALL.to_vec(),
            };
            let arms: &[bool] =
                if flags.contains_key("no-isolation") { &[false] } else { &[true, false] };
            for model in models {
                for &isolation in arms {
                    let config =
                        StormCampaignConfig { model, load, isolation, ..Default::default() };
                    let r = run_storm_campaign(&config, runs);
                    println!(
                        "{:<15} {:>4.1}x isolation {:<3} detected {:>2}/{:<2} \
                         latency {:>6.2} s, cycle {:>5.2} s, degraded {:>4}, \
                         shed {:>8}, aborted {:>3}, false restarts {:>3}",
                        model.name(),
                        load,
                        if isolation { "on" } else { "off" },
                        r.detected_runs,
                        r.runs,
                        r.detection_latency_s,
                        r.mean_cycle_s,
                        r.degraded_cycles,
                        r.shed_events,
                        r.cycles_aborted,
                        r.false_restarts
                    );
                }
            }
            Ok(())
        }
        _ => Err("usage: wtnc campaign <db|text|priority|recovery|process|powerfail|storm> \
             [--runs N] [--no-audit|--directed|--proportional|--budget N|--model NAME|\
             --load X|--no-isolation]"
            .into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_handles_flags_and_positionals() {
        let args = strings(&["file.s", "--threads", "4", "--directed", "--steps", "100"]);
        let (pos, flags) = parse(&args, &["threads", "steps"], &["directed"]).unwrap();
        assert_eq!(pos, vec!["file.s"]);
        assert_eq!(flags.get("threads"), Some(&"4"));
        assert_eq!(flags.get("directed"), Some(&"true"));
        assert_eq!(flag_num(&flags, "steps", 0u64).unwrap(), 100);
        assert_eq!(flag_num(&flags, "missing", 7u64).unwrap(), 7);
        assert!(flag_num::<u64>(&flags, "directed", 0).is_err());
        assert!(parse(&args, &["threads", "steps"], &[]).is_err(), "--directed is not known");

        // A switch never swallows the positional after it.
        let args = strings(&["--delta", "checkpoint", "--mutations", "50"]);
        let (pos, flags) = parse(&args, &["mutations"], &["delta"]).unwrap();
        assert_eq!(pos, vec!["checkpoint"]);
        assert_eq!(flags.get("delta"), Some(&"true"));
        assert_eq!(flags.get("mutations"), Some(&"50"));

        // A value flag with no value is an error naming the flag, not
        // the value "true".
        for args in [&["checkpoint", "--dir", "--delta"][..], &["checkpoint", "--dir"]] {
            let err = parse(&strings(args), &["dir"], &["delta"]).unwrap_err();
            assert_eq!(err, "--dir expects a value");
        }
    }

    /// Every subcommand's value flags and switches, as it hands them to
    /// `parse` (`campaign` per campaign name).
    const FLAG_SETS: &[(&[&str], &[&str])] = &[
        (&[], &[]),
        (&["threads", "steps"], &[]),
        (&["steps"], &[]),
        (&["corrupt-cfi", "engine"], &[]),
        (&["cycles", "dirty-pct", "load", "model"], &["storm"]),
        (&["budget"], &[]),
        (&["dir", "seed", "mutations", "full-every"], &["delta"]),
        (&["dir"], &[]),
        (&["runs"], &["no-audit"]),
        (&["runs"], &["directed"]),
        (&["runs"], &["proportional"]),
        (&["runs", "budget"], &[]),
        (&["runs", "model"], &[]),
        (&["runs", "model", "load"], &["no-isolation"]),
    ];

    /// Fuzzes `parse`, `flag_num` and `flag_load` with argument lists
    /// drawn from every subcommand's flags and hostile values. Nothing
    /// panics; an `Ok` holds only known flags, and every `Err` names a
    /// flag.
    #[test]
    fn parser_fuzz_never_panics_and_names_the_flag() {
        let dashed = |flags: &[&str]| flags.iter().map(|f| format!("--{f}")).collect::<Vec<_>>();
        let every_flag: Vec<String> = FLAG_SETS
            .iter()
            .flat_map(|(values, switches)| dashed(values).into_iter().chain(dashed(switches)))
            .collect();
        // Stray, empty and non-ASCII strings, and numbers at and past
        // the edges of u32, u64 and f64.
        let mut hostile: Vec<String> = "-- - --- --é é 日本 \u{0} nan NaN inf -inf 1e999 -1 -0 0 \
            1 7 2.5 4294967296 18446744073709551615 18446744073709551616 --runs=3 db storm"
            .split_whitespace()
            .map(String::from)
            .collect();
        hostile.push(String::new());
        let mut rng = SimRng::seed_from(0xC11F);
        for case in 0..16_384 {
            let (values, switches) = FLAG_SETS[rng.index(FLAG_SETS.len())];
            let own = [dashed(values), dashed(switches)].concat();
            // Mostly the subcommand's own flags and hostile values, so
            // that many lists parse and reach `flag_num`.
            let args: Vec<String> = (0..rng.index(9))
                .map(|_| {
                    let pool = match rng.index(5) {
                        0 | 1 if !own.is_empty() => &own,
                        0 | 4 => &every_flag,
                        _ => &hostile,
                    };
                    let mut arg = pool[rng.index(pool.len())].clone();
                    if rng.chance(0.1) {
                        // Splice a random character into it.
                        let c = char::from_u32(rng.range_u64(1, 0x3000) as u32).unwrap_or('?');
                        let at = arg.char_indices().map(|(i, _)| i).chain([arg.len()]);
                        let at = at.clone().nth(rng.index(at.count())).unwrap_or(0);
                        arg.insert(at, c);
                    }
                    arg
                })
                .collect();
            let names_an_arg =
                |err: &str| args.iter().any(|a| a.starts_with("--") && err.contains(a.as_str()));
            match parse(&args, values, switches) {
                Ok((positional, flags)) => {
                    assert!(positional.iter().all(|p| !p.starts_with("--")), "case {case}");
                    for (name, value) in &flags {
                        if switches.contains(name) {
                            assert_eq!(*value, "true", "case {case}: {args:?}");
                        } else {
                            assert!(values.contains(name), "case {case}: unknown --{name}");
                            assert!(!value.starts_with("--"), "case {case}: {args:?}");
                        }
                    }
                    for name in values.iter().chain(switches) {
                        let named = |err: String| assert!(err.contains(&format!("--{name}")));
                        let _ = flag_num::<u64>(&flags, name, 0).map_err(named);
                        let _ = flag_num::<u32>(&flags, name, 0).map_err(named);
                        let _ = flag_num::<usize>(&flags, name, 0).map_err(named);
                        let _ = flag_num::<f64>(&flags, name, 0.0).map_err(named);
                    }
                    match flag_load(&flags) {
                        Ok(load) => assert!(load.is_finite() && load >= 0.0, "case {case}"),
                        Err(err) => assert!(err.contains("--load"), "case {case}: {err}"),
                    }
                }
                Err(err) => assert!(names_an_arg(&err), "case {case}: {err:?} for {args:?}"),
            }
        }
    }

    #[test]
    fn load_must_be_finite_and_non_negative() {
        let load = |v: &'static str| flag_load(&HashMap::from([("load", v)]));
        assert_eq!(load("0.5"), Ok(0.5));
        assert_eq!(load("0"), Ok(0.0));
        assert_eq!(flag_load(&HashMap::new()), Ok(2.0));
        assert_eq!(load("100"), Ok(MAX_LOAD));
        for bad in ["nan", "NaN", "inf", "-inf", "1e999", "-1", "-0", "-0.5", "x", "100.5", "1e300"]
        {
            let err = load(bad).unwrap_err();
            assert!(err.starts_with("--load expects a"), "{bad}: {err}");
        }
        // Both commands that take --load check it before running.
        for args in [&["storm", "--load", "nan"][..], &["storm", "--runs", "1", "--load", "-1"]] {
            assert!(campaign(&strings(args)).unwrap_err().starts_with("--load"));
        }
        assert!(audit(&strings(&["--storm", "--load", "inf"])).unwrap_err().starts_with("--load"));
        assert!(audit(&strings(&["--storm", "--load", "1e300"]))
            .unwrap_err()
            .starts_with("--load"));
    }

    #[test]
    fn audit_demo_runs_clean() {
        audit_demo(&[]).unwrap();
    }

    #[test]
    fn audit_command_runs_in_every_mode() {
        audit(&strings(&["--cycles", "2"])).unwrap();
        audit(&strings(&["--cycles", "2", "--dirty-pct", "5"])).unwrap();
        // `--workers` left with the audit worker pool.
        assert!(audit(&strings(&["--workers", "4"])).is_err());
    }

    #[test]
    fn recover_walkthrough_runs_clean() {
        recover(&strings(&["--budget", "8"])).unwrap();
        recover(&[]).unwrap();
    }

    #[test]
    fn campaign_db_runs() {
        campaign(&strings(&["db", "--runs", "1"])).unwrap();
        let err = campaign(&strings(&["db", "--runs", "1", "--no-incremental"])).unwrap_err();
        assert!(err.starts_with("unknown flag --no-incremental"), "{err}");
    }

    #[test]
    fn campaign_recovery_runs() {
        campaign(&strings(&["recovery", "--runs", "1"])).unwrap();
    }

    #[test]
    fn campaign_process_runs() {
        campaign(&strings(&["process", "--runs", "1", "--model", "client_crash"])).unwrap();
        assert!(campaign(&strings(&["process", "--model", "bogus"])).is_err());
    }

    #[test]
    fn supervise_walkthrough_runs_clean() {
        supervise(&[]).unwrap();
    }

    #[test]
    fn store_walkthroughs_run_clean() {
        store(&strings(&["checkpoint", "--mutations", "16"])).unwrap();
        store(&strings(&["replay", "--mutations", "16"])).unwrap();
        store(&strings(&["verify", "--mutations", "16"])).unwrap();
        assert!(store(&strings(&["bogus"])).is_err());
    }

    #[test]
    fn store_persists_across_dir_invocations() {
        let scratch = ScratchDir::new("cli-store-test");
        let dir = scratch.path().to_str().unwrap().to_string();
        store(&strings(&["checkpoint", "--dir", &dir, "--mutations", "8"])).unwrap();
        store(&strings(&["checkpoint", "--dir", &dir, "--mutations", "8"])).unwrap();
        store(&strings(&["replay", "--dir", &dir])).unwrap();
        store(&strings(&["verify", "--dir", &dir])).unwrap();
    }

    #[test]
    fn store_replay_requires_state() {
        let scratch = ScratchDir::new("cli-store-empty");
        let dir = scratch.path().to_str().unwrap().to_string();
        assert!(store(&strings(&["replay", "--dir", &dir])).is_err());
        assert!(store(&strings(&["compact", "--dir", &dir])).is_err());
    }

    #[test]
    fn store_delta_checkpoints_compact_and_replay() {
        let scratch = ScratchDir::new("cli-store-delta");
        let dir = scratch.path().to_str().unwrap().to_string();
        // Four checkpoints under --delta: the first cuts the full base
        // image, the rest ride as dirty-block deltas (recovery re-warms
        // the lineage across invocations).
        for _ in 0..4 {
            store(&strings(&["checkpoint", "--dir", &dir, "--delta", "--mutations", "8"])).unwrap();
        }
        let deltas = std::fs::read_dir(scratch.path())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "delta"))
            .count();
        assert_eq!(deltas, 3, "--delta writes incremental checkpoints");
        store(&strings(&["compact", "--dir", &dir])).unwrap();
        // On an existing directory only `checkpoint` takes the workload
        // and period flags; the other actions reject them.
        for action in ["replay", "verify", "compact"] {
            for flag in
                [&["--delta"][..], &["--seed", "1"], &["--mutations", "8"], &["--full-every", "2"]]
            {
                let mut args = vec![action, "--dir", &dir];
                args.extend_from_slice(flag);
                let err = store(&strings(&args)).unwrap_err();
                assert!(err.starts_with(&format!("unknown flag {}", flag[0])), "{err}");
            }
        }
        store(&strings(&["replay", "--dir", &dir])).unwrap();
        store(&strings(&["verify", "--dir", &dir])).unwrap();
        assert!(store(&strings(&["checkpoint", "--dir", &dir, "--full-every", "0"])).is_err());
    }

    #[test]
    fn campaign_powerfail_runs() {
        campaign(&strings(&["powerfail", "--runs", "1", "--model", "chain_break"])).unwrap();
        assert!(campaign(&strings(&["powerfail", "--model", "bogus"])).is_err());
    }

    #[test]
    fn campaign_storm_runs() {
        campaign(&strings(&["storm", "--runs", "1", "--model", "ipc_flood"])).unwrap();
        campaign(&strings(&["storm", "--runs", "1", "--model", "super_producer", "--load", "0.5"]))
            .unwrap();
        campaign(&strings(&["storm", "--runs", "1", "--model", "ipc_flood", "--no-isolation"]))
            .unwrap();
        assert!(campaign(&strings(&["storm", "--model", "bogus"])).is_err());
    }

    #[test]
    fn audit_storm_walkthrough_runs() {
        audit(&strings(&["--storm", "--load", "1.0"])).unwrap();
        audit(&strings(&["--storm", "--model", "diurnal_burst"])).unwrap();
        assert!(audit(&strings(&["--storm", "--model", "bogus"])).is_err());
    }

    #[test]
    fn campaign_text_runs() {
        campaign(&strings(&["text", "--runs", "2"])).unwrap();
    }

    #[test]
    fn campaign_priority_runs() {
        campaign(&strings(&["priority", "--runs", "1"])).unwrap();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(campaign(&strings(&["bogus"])).is_err());
    }

    #[test]
    fn asm_and_run_and_pecos_round_trip() {
        let dir = std::env::temp_dir().join("wtnc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.s");
        std::fs::write(
            &path,
            "start:\n  movi r1, 3\nloop:\n  addi r1, r1, -1\n  bne r1, r0, loop\n  halt\n",
        )
        .unwrap();
        let p = path.to_str().unwrap().to_string();
        asm(std::slice::from_ref(&p)).unwrap();
        run(&strings(&[&p, "--threads", "2"])).unwrap();
        pecos(&strings(&[&p, "--corrupt-cfi", "0"])).unwrap();
        assert!(pecos(&strings(&[&p, "--corrupt-cfi", "99"])).is_err());
    }

    #[test]
    fn pecos_engine_flag_selects_engine() {
        let dir = std::env::temp_dir().join("wtnc-cli-engine");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.s");
        std::fs::write(
            &path,
            "start:\n  movi r1, 3\nloop:\n  addi r1, r1, -1\n  bne r1, r0, loop\n  halt\n",
        )
        .unwrap();
        let p = path.to_str().unwrap().to_string();
        for engine in ["slow", "superblock"] {
            pecos(&strings(&[&p, "--engine", engine])).unwrap();
            pecos(&strings(&[&p, "--engine", engine, "--corrupt-cfi", "0"])).unwrap();
        }
        assert!(pecos(&strings(&[&p, "--engine", "decoded"])).is_err());
        assert!(pecos(&strings(&[&p, "--engine", "warp"])).is_err());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn trace_lists_instructions() {
        let dir = std::env::temp_dir().join("wtnc-cli-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.s");
        std::fs::write(&path, "start: movi r1, 2\naddi r1, r1, 1\nhalt\n").unwrap();
        trace(&[path.to_str().unwrap().to_string()]).unwrap();
        trace(&[]).unwrap_err();
    }
}
