//! The `pecos_campaign` workload: seeded control-flow injection runs
//! on the PECOS-instrumented ISA client, one thread. The run loop is
//! `wtnc_inject::text_campaign::run_one` with the client program
//! instrumented once in set-up and a span around each layer call;
//! outcomes are checked against `run_one` itself.
//!
//! It reports the end-to-end metrics the node workloads report, with
//! these meanings: `ops_per_s` is classified runs per wall second;
//! `wall_ms_per_vsec` is wall ms per million guest instructions (the
//! campaign's virtual clock advances one µs per instruction);
//! `op_p50_us`/`op_p99_us` time one full audit period of the client
//! (4000 guest instructions and the audit cycle that closes them);
//! `audit_round_*` time the incremental audit cycles over the client's
//! database (every cycle but the first of each run and the forced full
//! rescans);
//! `recover_ms` is the client restart every run begins
//! with (fresh database, machine load, thread spawn); `setup_s` is
//! parsing and instrumenting the client. Times and rates are scaled
//! window by window for the host's speed, with a kernel timed right
//! after each window (see `KERNEL_REPS`).
//!
//! An operation is one classified run. It fails only when its outcome
//! disagrees with `run_one`; fail-silence violations and hangs are
//! outcomes the campaign counts, not failures of the benchmark.

use std::ops::Range;
use std::time::Instant;

use wtnc::callproc::{AsmClientConfig, BridgeStats, DbSyscallBridge};
use wtnc::db::{Database, DbApi};
use wtnc::inject::text_campaign::{run_one, InjectionTarget, TextCampaignConfig};
use wtnc::inject::{ErrorModel, OutcomeCounts, RunOutcome};
use wtnc::isa::{
    decode, Machine, MachineConfig, Program, StepOutcome, SyscallHandler, SyscallRequest,
    ThreadState,
};
use wtnc::pecos::{handle_exception, instrument, PecosMeta, PecosVerdict};
use wtnc::sim::{Pid, ProcessRegistry, SimRng, SimTime};

use crate::report::Outcome;
use crate::stats::{interquartile_mean, median, percentile, spread_note, Percentile, MIN_BEYOND};
use crate::trace::{Kind, KindTotals, Tracer};

/// Per-layer metrics only this workload exercises; the node workloads
/// report them as 0.
#[cfg(test)]
pub const LAYERS: [&str; 10] = [
    "db.bridge_calls",
    "db.bridge_us",
    "isa.load_us",
    "isa.exec_us",
    "isa.steps",
    "isa.superblock_entries",
    "isa.block_steps_ratio",
    "pecos.instrument_us",
    "pecos.handle_us",
    "pecos.detections",
];

/// Set-up runs this many times before the first run, then once more
/// after every window, outside the window clock.
const EARLY_SETUPS: usize = 5;
/// Wall seconds of one window of the timed phase.
const WINDOW_S: f64 = 0.5;
/// After every window the mixed kernel (`host::calibrate_mixed`) is
/// timed this many times; the window's times are multiplied, and its
/// rates divided, by the reference kernel time over their median. The
/// shared host slows this workload by up to 2x for seconds to minutes
/// at a time; the mixed kernel, timed next to the work it scales,
/// follows those spells where the node workloads' sort kernel follows
/// them only in part.
const KERNEL_REPS: usize = 3;
/// Peak RSS is read once this many runs are done — a fixed amount of
/// work, so a faster build that keeps more samples does not read as a
/// bigger one.
const RSS_AFTER_RUNS: u64 = 4096;
/// The traced run (and its untraced twin) makes this many runs: a
/// fixed amount of work, so per-layer times and counts compare across
/// builds. A multiple of the eight model × target pairings.
const TRACE_RUNS: usize = 2048;
/// Every this many-th run is replayed through `run_one`. 5 and 8 are
/// coprime, so the checked runs cover every model × target pairing.
const CHECK_EVERY: usize = 5;

/// The instrumented client, built once per set-up.
struct Prepared {
    program: Program,
    meta: PecosMeta,
    cfi: Vec<usize>,
}

fn prepare() -> Result<Prepared, String> {
    let base = TextCampaignConfig::default();
    let source = AsmClientConfig { iterations: base.iterations, ..AsmClientConfig::default() }
        .program_source();
    let asm = wtnc::isa::asm::Assembly::parse(&source).map_err(|e| format!("client: {e:?}"))?;
    let inst = instrument(&asm).map_err(|e| format!("instrument: {e:?}"))?;
    let program = inst.program;
    let cfi = (0..program.text.len())
        .filter(|&a| decode(program.text[a]).map(|i| i.is_cfi()).unwrap_or(false))
        .collect();
    Ok(Prepared { program, meta: inst.meta, cfi })
}

/// One set-up, timed into `times` (seconds).
fn timed_prepare(times: &mut Vec<f64>) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let prep = prepare()?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(prep)
}

/// Run `i` cycles through the four error models, then the two target
/// selections.
fn config_for(i: usize) -> TextCampaignConfig {
    let targets = [InjectionTarget::DirectedCfi, InjectionTarget::RandomText];
    TextCampaignConfig {
        model: ErrorModel::ALL[i % 4],
        target: targets[(i / 4) % 2],
        ..TextCampaignConfig::default()
    }
}

/// A syscall handler that puts a span around each bridge call.
struct TimedBridge<'a, 'b> {
    inner: DbSyscallBridge<'a>,
    tr: &'b mut Tracer,
    calls: u64,
}

impl SyscallHandler for TimedBridge<'_, '_> {
    fn handle(&mut self, req: SyscallRequest) -> u64 {
        self.calls += 1;
        self.tr.enter(Kind::DbBridge);
        let r = self.inner.handle(req);
        self.tr.exit();
        r
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    runs: u64,
    steps: u64,
    superblock_entries: u64,
    block_steps: u64,
    bridge_calls: u64,
    detections: u64,
    audit_cycles: u64,
    /// Audit cycles that ran on the serial engine.
    serial_cycles: u64,
    records_checked: u64,
    findings: u64,
}

/// Wall-time samples, in µs.
#[derive(Debug, Default)]
struct Samples {
    /// One full audit period: `audit_every_steps` guest instructions
    /// and the audit cycle that closes them — a fixed amount of client
    /// work. (Whole runs, and the shorter last period of a run, are no
    /// sample: their times fall in clusters by outcome, and a median
    /// jumps between clusters from seed to seed.)
    period: Vec<f64>,
    /// The client restart a run begins with.
    restart: Vec<f64>,
    /// One incremental audit cycle: neither the first of its run (it
    /// screens every record of the freshly built database) nor a forced
    /// full rescan (every `full_rescan_period`-th pass). Both take about
    /// twice as long; the first one's share follows the outcome mix, and
    /// the rescans are one cycle in eight, so a p90 over all kinds sits
    /// on the edge between them and jumps from run to run.
    audit: Vec<f64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FirstEvent {
    Pecos,
    Audit,
    System,
    Fsv,
}

/// One injection run: `run_one` with the set-up work hoisted out.
fn run_injection(
    prep: &Prepared,
    config: &TextCampaignConfig,
    seed: u64,
    tr: &mut Tracer,
    c: &mut Counters,
    samples: &mut Samples,
) -> RunOutcome {
    let mut rng = SimRng::seed_from(seed);
    let program = &prep.program;
    let meta = &prep.meta;

    let restart = Instant::now();
    tr.enter(Kind::DbBuild);
    let mut db = Database::build(wtnc::db::schema::standard_schema()).expect("schema builds");
    let mut api = DbApi::new();
    let mut registry = ProcessRegistry::new();
    let audit_config = wtnc::audit::AuditConfig {
        periodic_interval: wtnc::sim::SimDuration::from_micros(config.audit_every_steps),
        ..wtnc::audit::AuditConfig::default()
    };
    let full_every = u64::from(audit_config.full_rescan_period);
    let mut audit = wtnc::audit::AuditProcess::new(audit_config, &db);
    tr.exit();

    tr.enter(Kind::IsaLoad);
    let machine_cfg = MachineConfig {
        fast_path: config.fast_path,
        engine: config.engine,
        ..MachineConfig::default()
    };
    let mut machine = Machine::load(program, machine_cfg);
    if machine.engine() != wtnc::isa::Engine::Slow {
        meta.install_fast_path(&mut machine);
    }
    let mut pids: Vec<Pid> = Vec::with_capacity(config.threads);
    for _ in 0..config.threads {
        let pid = registry.spawn("asm-client", SimTime::ZERO);
        api.init(pid);
        pids.push(pid);
        machine.spawn_thread(program.entry);
    }
    tr.exit();
    samples.restart.push(restart.elapsed().as_secs_f64() * 1e6);

    let target = match config.target {
        InjectionTarget::DirectedCfi => prep.cfi[rng.index(prep.cfi.len())],
        InjectionTarget::RandomText => rng.index(program.text.len()),
    };
    let corrupted_word = config.model.corrupt(&program.text, target, &mut rng);
    let original_word = program.text[target];
    let trigger = meta
        .assertion_block_for_cfi(target as u16)
        .map(|(start, _)| start as usize)
        .unwrap_or(target);
    if corrupted_word == original_word {
        return RunOutcome::NotManifested;
    }

    let mut stats = BridgeStats::default();
    let mut injected = false;
    let mut restored = false;
    let mut injecting_thread: Option<usize> = None;
    let mut activated = false;
    let mut first_event: Option<FirstEvent> = None;
    let mut last_fsv: u64 = 0;
    let mut crashed = false;
    let mut steps: u64 = 0;
    let mut cycles: u64 = 0;
    'run: while steps < config.step_budget {
        if !machine.has_runnable() {
            break;
        }
        let batch_end = steps + config.audit_every_steps;
        let period = Instant::now();
        tr.enter(Kind::IsaExec);
        {
            let inner = DbSyscallBridge::new(&mut db, &mut api, &pids, &mut stats);
            let mut bridge = TimedBridge { inner, tr: &mut *tr, calls: 0 };
            while steps < batch_end && steps < config.step_budget {
                bridge.inner.set_now(SimTime::from_micros(steps));
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
                        if injected
                            && !restored
                            && info.pc as usize == target
                            && Some(info.thread) == injecting_thread
                        {
                            machine.store_text(target, original_word);
                            restored = true;
                        }
                        bridge.tr.enter(Kind::PecosHandle);
                        let verdict = handle_exception(&mut machine, meta, info);
                        bridge.tr.exit();
                        match verdict {
                            PecosVerdict::PecosDetected => {
                                c.detections += 1;
                                activated = true;
                                first_event.get_or_insert(FirstEvent::Pecos);
                                if injected && !restored {
                                    machine.store_text(target, original_word);
                                    restored = true;
                                }
                            }
                            PecosVerdict::SystemFault => {
                                activated = true;
                                first_event.get_or_insert(FirstEvent::System);
                                crashed = true;
                                c.bridge_calls += bridge.calls;
                                bridge.tr.exit();
                                break 'run;
                            }
                        }
                    }
                    StepOutcome::Idle => break,
                }
                let fsv_now = bridge.inner.stats().total_fsv();
                if fsv_now > last_fsv {
                    last_fsv = fsv_now;
                    if injected {
                        activated = true;
                    }
                    first_event.get_or_insert(FirstEvent::Fsv);
                }
            }
            c.bridge_calls += bridge.calls;
        }
        tr.exit();
        let now = SimTime::from_micros(steps);
        let cycle = Instant::now();
        tr.enter(Kind::AuditCycle);
        let report = audit.run_cycle(&mut db, &mut api, &mut registry, now);
        tr.exit();
        cycles += 1;
        if cycles > 1 && (full_every == 0 || !cycles.is_multiple_of(full_every)) {
            samples.audit.push(cycle.elapsed().as_secs_f64() * 1e6);
        }
        if steps == batch_end {
            samples.period.push(period.elapsed().as_secs_f64() * 1e6);
        }
        c.audit_cycles += 1;
        c.serial_cycles += u64::from(report.exec.mode == wtnc::audit::ExecutorMode::Serial);
        c.records_checked += report.records_checked;
        c.findings += report.findings.len() as u64;
        if !report.findings.is_empty() {
            if injected {
                activated = true;
            }
            first_event.get_or_insert(FirstEvent::Audit);
            for (tid, pid) in pids.iter().enumerate() {
                if !registry.is_alive(*pid) && machine.thread_state(tid) == ThreadState::Runnable {
                    machine.kill_thread(tid);
                }
            }
        }
    }
    c.steps += machine.total_steps();
    let sb = machine.superblock_stats();
    c.superblock_entries += sb.entered;
    c.block_steps += sb.block_steps;

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
    if stats.all_completed(config.threads) {
        RunOutcome::NotManifested
    } else {
        RunOutcome::ClientHang
    }
}

/// The runs of one phase, in order.
#[derive(Default)]
struct Campaign {
    seeds: Vec<u64>,
    outcomes: Vec<RunOutcome>,
    c: Counters,
    samples: Samples,
}

impl Campaign {
    /// Makes the next run, seeded with `seed`.
    fn run_next(&mut self, prep: &Prepared, seed: u64, tr: &mut Tracer) {
        let i = self.seeds.len();
        tr.enter(Kind::PecosRun);
        let outcome = run_injection(prep, &config_for(i), seed, tr, &mut self.c, &mut self.samples);
        tr.exit();
        self.c.runs += 1;
        self.seeds.push(seed);
        self.outcomes.push(outcome);
    }

    fn tally(&self) -> OutcomeCounts {
        let mut tally = OutcomeCounts::new();
        self.outcomes.iter().for_each(|&o| tally.record(o));
        tally
    }

    /// Replays every `CHECK_EVERY`-th run through `run_one`: the
    /// outcomes, and so the tally of the checked runs, must agree.
    /// Returns the number of checked runs that disagree.
    fn check_against_run_one(&self, out: &mut Outcome) -> u64 {
        let (mut checked, mut mismatches) = (0usize, 0usize);
        let mut reference = OutcomeCounts::new();
        let mut ours = OutcomeCounts::new();
        for i in (0..self.seeds.len()).step_by(CHECK_EVERY) {
            let expected = run_one(&config_for(i), self.seeds[i]);
            reference.record(expected);
            ours.record(self.outcomes[i]);
            checked += 1;
            mismatches += usize::from(expected != self.outcomes[i]);
        }
        out.check(
            mismatches == 0 && reference == ours,
            &format!(
                "outcomes and tally equal text_campaign::run_one on {checked} of {} seeded runs \
                 (every {CHECK_EVERY}th)",
                self.seeds.len()
            ),
        );
        mismatches as u64
    }

    /// Attempts, failures, the host stamp and a summary note. An
    /// operation is one classified run; it fails when its outcome
    /// disagrees with `run_one` (`mismatches`). Fail-silence violations
    /// and hangs are outcomes the campaign measures, not failures of the
    /// benchmark; the note counts them.
    fn report(&self, wall: f64, mismatches: u64, out: &mut Outcome) {
        let tally = self.tally();
        let fsv = tally.count(RunOutcome::FailSilenceViolation);
        let hangs = tally.count(RunOutcome::ClientHang);
        out.attempted = self.c.runs;
        out.failed = mismatches;
        out.stamp("crc_kernel", wtnc::db::crc_kernel().name());
        out.stamp("isa_engine", MachineConfig::default().effective_engine().name());
        out.stamp(
            "audit_executor",
            &format!("serial x{} of {} audit cycles", self.c.serial_cycles, self.c.audit_cycles),
        );
        out.stamp("store_fs", "none: injection runs keep their database in memory");
        out.stamp("flush_policy", "none: no store");
        out.note(&format!(
            "timed phase: {wall:.3} s wall, {} runs, {} guest instructions, {} PECOS \
             detections, {fsv} fail-silence violations, {hangs} hangs",
            self.c.runs, self.c.steps, self.c.detections,
        ));
    }
}

/// One window of the timed phase: its counts, the index ranges of its
/// samples, the set-up timed right after it and its host-speed scale.
struct Window {
    wall_s: f64,
    runs: u64,
    steps: u64,
    period: Range<usize>,
    audit: Range<usize>,
    restart: Range<usize>,
    setup_s: f64,
    /// Reference over measured mixed-kernel time: above 1 while the
    /// host is slower than the reference host.
    scale: f64,
}

impl Window {
    /// Wall ms per million guest instructions, unscaled.
    fn ms_per_vsec(&self) -> f64 {
        self.wall_s * 1e3 / (self.steps as f64 / 1e6)
    }
}

/// Puts under `name` the median over `windows` of each window's `q`-th
/// percentile of its `range` samples (µs), scaled by the window's
/// host-speed scale. A window whose tail is too thin for that
/// percentile is left out; the run fails when every window is. A burst
/// of host noise moves the tail of the windows it lands in, not the
/// median over windows.
fn put_window_percentile(
    out: &mut Outcome,
    name: &'static str,
    windows: &[Window],
    samples: &[f64],
    range: fn(&Window) -> Range<usize>,
    q: f64,
) {
    let per: Vec<(Percentile, f64)> = windows
        .iter()
        .filter_map(|w| percentile(&samples[range(w)], q).ok().map(|p| (p, w.scale)))
        .collect();
    if per.is_empty() {
        out.check(false, &format!("{name}: no window has {MIN_BEYOND} samples beyond p{q}"));
        return;
    }
    let (n, beyond): (usize, usize) =
        per.iter().fold((0, 0), |(n, b), (p, _)| (n + p.samples, b + p.beyond));
    let raw: Vec<f64> = per.iter().map(|(p, _)| p.value).collect();
    out.note(&format!(
        "{name}: median over {} of {} windows of each one's p{q}, scaled (raw {:.3}); \
         {n} samples, {beyond} beyond",
        per.len(),
        windows.len(),
        median(&raw)
    ));
    out.metrics.put(name, median(&per.iter().map(|(p, k)| p.value * k).collect::<Vec<_>>()), "us");
}

/// Runs the campaign in `WINDOW_S` windows until they add up to
/// `seconds` of wall time, with a set-up and the mixed kernel after
/// every window, and scales every time metric window by window.
fn run_plain(
    prep: &Prepared,
    setup_s: &mut Vec<f64>,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rng = SimRng::seed_from(seed);
    let mut off = Tracer::new(false);
    let mut camp = Campaign::default();
    let mut windows: Vec<Window> = Vec::new();
    let mut rss_mib = None;
    let mut wall = 0.0;
    while wall < seconds {
        let (runs, steps) = (camp.c.runs, camp.c.steps);
        let s = &camp.samples;
        let (p0, a0, r0) = (s.period.len(), s.audit.len(), s.restart.len());
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < WINDOW_S {
            camp.run_next(prep, rng.bits(), &mut off);
            if camp.c.runs == RSS_AFTER_RUNS {
                rss_mib = Some(crate::host::peak_rss_mib());
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        wall += wall_s;
        timed_prepare(setup_s)?;
        let kernel: Vec<f64> = (0..KERNEL_REPS).map(|_| crate::host::calibrate_mixed()).collect();
        let s = &camp.samples;
        windows.push(Window {
            wall_s,
            runs: camp.c.runs - runs,
            steps: camp.c.steps - steps,
            period: p0..s.period.len(),
            audit: a0..s.audit.len(),
            restart: r0..s.restart.len(),
            setup_s: *setup_s.last().expect("a set-up was just timed"),
            scale: crate::host::MIXED_REF_US / median(&kernel),
        });
    }
    let rss_mib = rss_mib.unwrap_or_else(crate::host::peak_rss_mib);
    let mismatches = camp.check_against_run_one(out);
    camp.report(wall, mismatches, out);

    let raw: Vec<f64> = windows.iter().map(Window::ms_per_vsec).collect();
    let per_vsec: Vec<f64> = windows.iter().map(|w| w.ms_per_vsec() * w.scale).collect();
    let rate: Vec<f64> = windows.iter().map(|w| w.runs as f64 / w.wall_s / w.scale).collect();
    let setups: Vec<f64> = windows.iter().map(|w| w.setup_s * w.scale).collect();
    let scales: Vec<f64> = windows.iter().map(|w| w.scale).collect();
    out.note(&format!(
        "host speed: mixed kernel timed {KERNEL_REPS}x after every window (reference \
         {} us); window scales: {}",
        crate::host::MIXED_REF_US,
        spread_note(&scales)
    ));
    out.note(&format!("window wall_ms_per_vsec, raw: {}", spread_note(&raw)));
    out.note(&format!("window wall_ms_per_vsec, scaled: {}", spread_note(&per_vsec)));
    out.note(&format!("setup s, scaled: {}", spread_note(&setups)));
    let s = &camp.samples;
    // Each window's median restart, scaled: a window whose kernel
    // samples met a hiccup then misplaces one value, not its samples.
    let restart: Vec<f64> =
        windows.iter().map(|w| median(&s.restart[w.restart.clone()]) * w.scale).collect();
    out.note(&format!("window median client restart us, scaled: {}", spread_note(&restart)));
    out.metrics.put("setup_s", median(&setups), "s");
    out.metrics.put("ops_per_s", median(&rate), "1/s");
    out.metrics.put("wall_ms_per_vsec", median(&per_vsec), "ms");
    let period = |w: &Window| w.period.clone();
    put_window_percentile(out, "op_p50_us", &windows, &s.period, period, 50.0);
    put_window_percentile(out, "op_p99_us", &windows, &s.period, period, 99.0);
    let audit = |w: &Window| w.audit.clone();
    put_window_percentile(out, "audit_round_p50_us", &windows, &s.audit, audit, 50.0);
    put_window_percentile(out, "audit_round_p90_us", &windows, &s.audit, audit, 90.0);
    out.metrics.put("recover_ms", interquartile_mean(&restart) / 1e3, "ms");
    out.metrics.put("peak_rss_mib", rss_mib, "MiB");
    Ok(())
}

/// The per-layer run: an untraced twin makes `TRACE_RUNS` runs, then a
/// traced campaign repeats them; the wall-time difference is the
/// tracing overhead.
fn run_traced(
    prep: &Prepared,
    setup_s: &[f64],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rng = SimRng::seed_from(seed);
    let seeds: Vec<u64> = (0..TRACE_RUNS).map(|_| rng.bits()).collect();
    let mut off = Tracer::new(false);
    let mut twin = Campaign::default();
    let t0 = Instant::now();
    seeds.iter().for_each(|&s| twin.run_next(prep, s, &mut off));
    let untraced_wall = t0.elapsed().as_secs_f64();

    let mut camp = Campaign::default();
    let mut tr = Tracer::new(true);
    tr.enter(Kind::Run);
    let t0 = Instant::now();
    seeds.iter().for_each(|&s| camp.run_next(prep, s, &mut tr));
    let traced_wall = t0.elapsed().as_secs_f64();
    tr.exit();
    out.check(
        camp.outcomes == twin.outcomes && camp.c.steps == twin.c.steps,
        &format!(
            "traced runs repeat their untraced twin's outcomes and {} guest instructions",
            twin.c.steps
        ),
    );
    let mismatches = camp.check_against_run_one(out);
    camp.report(traced_wall, mismatches, out);

    let totals = KindTotals::from_spans(tr.spans());
    let root_us = tr.spans()[0].duration_ns() as f64 / 1e3;
    let coverage = 100.0 * totals.covered_us() / root_us;
    out.check(coverage >= 95.0, &format!("trace.coverage_pct {coverage:.2} >= 95"));
    out.layer_shares(&totals, root_us);
    let trace_path = crate::node::run_dir().join("trace-pecos_campaign.csv");
    std::fs::create_dir_all(crate::node::run_dir()).map_err(|e| format!("run dir: {e}"))?;
    tr.write_csv(&trace_path).map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    out.note(&format!("{} spans written to {}", tr.spans().len(), trace_path.display()));

    let c = &camp.c;
    let ratio = |n: u64, base: u64| if base == 0 { 0.0 } else { n as f64 / base as f64 };
    let m = &mut out.metrics;
    m.put("db.bridge_calls", c.bridge_calls as f64, "count");
    m.put("db.bridge_us", totals.self_us(Kind::DbBridge), "us");
    m.put("audit.cycle_us", totals.self_us(Kind::AuditCycle), "us");
    m.put("audit.cycles", c.audit_cycles as f64, "count");
    m.put("audit.records_checked", c.records_checked as f64, "count");
    m.put("audit.findings", c.findings as f64, "count");
    m.put("isa.load_us", totals.self_us(Kind::IsaLoad), "us");
    m.put("isa.exec_us", totals.self_us(Kind::IsaExec), "us");
    m.put("isa.steps", c.steps as f64, "count");
    m.put("isa.superblock_entries", c.superblock_entries as f64, "count");
    m.put("isa.block_steps_ratio", ratio(c.block_steps, c.steps), "ratio");
    m.put("pecos.instrument_us", median(setup_s) * 1e6, "us");
    m.put("pecos.handle_us", totals.self_us(Kind::PecosHandle), "us");
    m.put("pecos.detections", c.detections as f64, "count");
    m.put("trace.overhead_pct", 100.0 * (traced_wall - untraced_wall) / untraced_wall, "%");
    m.put("trace.coverage_pct", coverage, "%");
    let idle = m.fill_idle_layers().to_vec();
    out.note(&format!("layers this workload does not exercise, reported as 0: {idle:?}"));
    out.note(&format!("traced phase: untraced {untraced_wall:.3} s, traced {traced_wall:.3} s"));
    Ok(())
}

/// Runs the `pecos_campaign` workload; `trace` selects the per-layer
/// run.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut prep = timed_prepare(&mut setup_s)?;
    for _ in 1..EARLY_SETUPS {
        prep = timed_prepare(&mut setup_s)?;
    }
    if trace {
        run_traced(&prep, &setup_s, seed, out)
    } else {
        run_plain(&prep, &mut setup_s, seed, seconds, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pecos_campaign_matches_run_one() {
        // Long enough for every percentile to have ten samples beyond it.
        let mut out = Outcome::default();
        run(5, 1.5, false, &mut out).unwrap();
        assert!(out.correct, "{out:?}");
        assert!(out.attempted > 0);
        assert_eq!(out.metrics.sorted(), crate::benchmark_sorted("end_to_end"));

        let mut out = Outcome::default();
        run(5, 1.5, true, &mut out).unwrap();
        assert!(out.correct, "{out:?}");
        assert_eq!(out.attempted, TRACE_RUNS as u64);
        assert_eq!(out.metrics.sorted(), crate::benchmark_sorted("per_layer"));
        let exercised: Vec<&str> = crate::report::PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !out.metrics.idle().contains(n))
            .collect();
        for name in LAYERS {
            assert!(exercised.contains(&name), "{name} is measured");
        }
    }
}
