//! Workspace-spanning integration tests: whole-controller scenarios
//! that cross every crate boundary (database ↔ audit ↔ clients ↔
//! PECOS ↔ injection).

use wtnc::audit::{AuditConfig, AuditElementKind, FindingTarget, RecoveryAction, SupervisorConfig};
use wtnc::callproc::{
    AsmClientConfig, BridgeStats, CallOutcome, DbSyscallBridge, DesClient, WorkloadConfig,
};
use wtnc::db::{schema, Database, DbApi, RecordRef};
use wtnc::isa::{asm::Assembly, Machine, MachineConfig, StepOutcome, ThreadState};
use wtnc::pecos::{handle_exception, instrument, PecosVerdict};
use wtnc::recovery::{RecoveryConfig, Rung};
use wtnc::sim::{Pid, Responsiveness, SimDuration, SimTime};
use wtnc::Controller;

/// End to end: inject → detect → repair → the client keeps serving
/// calls on the repaired database.
#[test]
fn injected_errors_are_repaired_and_service_continues() {
    let mut c = Controller::standard().with_audit(AuditConfig::default());
    let mut client = DesClient::new(WorkloadConfig::default(), 1, true);

    // Serve a call before any corruption.
    let (h, _) = client
        .start_call(&mut c.db, &mut c.api, &mut c.registry, SimTime::from_secs(1))
        .expect("first call sets up");
    assert_eq!(
        client.end_call(&mut c.db, &mut c.api, &mut c.registry, h, SimTime::from_secs(25)),
        CallOutcome::Clean
    );

    // Corrupt the catalog (the worst case: all operations fail).
    c.inject_bit_flip(2, 1, SimTime::from_secs(30));
    assert!(client
        .start_call(&mut c.db, &mut c.api, &mut c.registry, SimTime::from_secs(31))
        .is_none());

    // The next audit cycle repairs it; service resumes.
    let report = c.run_audit_cycle(SimTime::from_secs(40)).unwrap();
    assert!(report.findings.iter().any(|f| f.element == AuditElementKind::StaticData));
    let (h2, _) = client
        .start_call(&mut c.db, &mut c.api, &mut c.registry, SimTime::from_secs(41))
        .expect("service resumes after repair");
    assert_eq!(
        client.end_call(&mut c.db, &mut c.api, &mut c.registry, h2, SimTime::from_secs(70)),
        CallOutcome::Clean
    );
}

/// The manager tier (the supervisor's heartbeat probes) restarts a
/// crashed audit process; protection resumes.
#[test]
fn manager_restores_audit_protection_after_crash() {
    let mut c = Controller::standard()
        .with_audit(AuditConfig::default())
        .with_supervision(SupervisorConfig::default());
    c.crash_audit_process(SimTime::from_secs(5));
    assert!(!c.audit_alive());

    // While dead, corruption stays.
    let rec = RecordRef::new(schema::SYSCONFIG_TABLE, 0);
    let (off, _) = c.db.field_extent(rec, schema::sysconfig::N_CPUS).unwrap();
    c.inject_bit_flip(off, 0, SimTime::from_secs(6));
    assert!(c.run_audit_cycle(SimTime::from_secs(7)).is_none());
    assert_eq!(c.db.taint().latent_count(), 1);

    // Heartbeats detect the failure and restart the process.
    let mut restarts = Vec::new();
    for s in 8..14 {
        restarts.extend(c.supervise_tick(SimTime::from_secs(s)).unwrap().restarts);
    }
    assert_eq!(restarts.len(), 1, "one restart, of the audit process");
    assert!(c.audit_alive());
    let report = c.run_audit_cycle(SimTime::from_secs(20)).unwrap();
    assert_eq!(report.caught_count(), 1);
    assert_eq!(c.db.taint().latent_count(), 0);
}

/// A client that dies mid-transaction wedges a record; the progress
/// indicator frees it and another client proceeds.
#[test]
fn progress_indicator_resolves_client_deadlock() {
    let mut c = Controller::standard().with_audit(AuditConfig::default());
    let wedged = c.registry.spawn("wedged", SimTime::ZERO);
    c.api.init(wedged);
    let idx = c
        .api
        .alloc_record(&mut c.db, wedged, schema::CONNECTION_TABLE, SimTime::from_secs(1))
        .unwrap();
    c.api
        .lock(&c.db, RecordRef::new(schema::CONNECTION_TABLE, idx), wedged, SimTime::from_secs(1))
        .unwrap();
    c.api.crash_client(wedged);
    assert_eq!(c.api.locks().len(), 1);

    // Long silence → the progress indicator times out and recovers.
    let report = c.run_audit_cycle(SimTime::from_secs(200)).unwrap();
    assert!(report
        .findings
        .iter()
        .any(|f| matches!(f.action, RecoveryAction::ReleasedLock { .. })));
    assert!(c.api.locks().is_empty());
    assert!(!c.registry.is_alive(wedged));
}

/// The instrumented ISA client completes the same work as the plain
/// one, against the same database; PECOS adds no semantic change.
#[test]
fn pecos_instrumentation_is_transparent_to_the_client() {
    let config = AsmClientConfig { iterations: 12 };
    let source = config.program_source();

    let run = |instrumented: bool| -> (BridgeStats, u32) {
        let asm = Assembly::parse(&source).unwrap();
        let program =
            if instrumented { instrument(&asm).unwrap().program } else { asm.assemble().unwrap() };
        let mut db = Database::build(schema::standard_schema()).unwrap();
        let mut api = DbApi::new();
        let pid = Pid(1);
        api.init(pid);
        let mut machine = Machine::load(&program, MachineConfig::default());
        machine.spawn_thread(program.entry);
        let pids = [pid];
        let mut stats = BridgeStats::default();
        {
            let mut bridge = DbSyscallBridge::new(&mut db, &mut api, &pids, &mut stats);
            machine.run(&mut bridge, 10_000_000);
        }
        assert_eq!(machine.thread_state(0), ThreadState::Halted);
        let held = db.active_count(schema::CONNECTION_TABLE).unwrap();
        (stats, held)
    };

    let (plain, held_plain) = run(false);
    let (inst, held_inst) = run(true);
    assert_eq!(plain, inst, "bridge-visible behaviour must be identical");
    assert_eq!(held_plain, held_inst);
    assert!(plain.all_completed(1));
    assert_eq!(plain.total_fsv(), 0);
}

/// A control-flow error in one client thread is caught preemptively;
/// the remaining threads finish their calls untouched.
#[test]
fn pecos_detection_preserves_sibling_threads() {
    let config = AsmClientConfig { iterations: 8 };
    let asm = Assembly::parse(&config.program_source()).unwrap();
    let inst = instrument(&asm).unwrap();
    let mut db = Database::build(schema::standard_schema()).unwrap();
    let mut api = DbApi::new();
    let mut machine = Machine::load(&inst.program, MachineConfig::default());
    let mut pids = Vec::new();
    for i in 0..3 {
        let pid = Pid(i + 1);
        api.init(pid);
        pids.push(pid);
        machine.spawn_thread(inst.program.entry);
    }

    // Corrupt the target of the main-loop back edge after thread 0 has
    // started looping: PECOS must catch the first thread that reaches
    // it and terminate only that thread... but since all threads share
    // the text, every thread that *reaches* the corrupted branch is
    // caught and terminated gracefully — none may crash.
    let bne = (0..inst.program.len())
        .find(|&a| {
            matches!(wtnc::isa::decode(inst.program.text[a]), Ok(wtnc::isa::Inst::Bne { .. }))
        })
        .unwrap();
    machine.text_mut()[bne] ^= 0x0000_0004;

    let mut stats = BridgeStats::default();
    let mut detections = 0;
    {
        let mut bridge = DbSyscallBridge::new(&mut db, &mut api, &pids, &mut stats);
        for _ in 0..10_000_000u64 {
            match machine.step(&mut bridge) {
                StepOutcome::Exception(info) => {
                    match handle_exception(&mut machine, &inst.meta, info) {
                        PecosVerdict::PecosDetected => detections += 1,
                        PecosVerdict::SystemFault => panic!("no crash expected: {info:?}"),
                    }
                }
                StepOutcome::Idle => break,
                StepOutcome::Executed { .. } => {}
            }
        }
    }
    assert!(detections > 0, "the corrupted branch must be caught");
    // Every thread either completed or was terminated gracefully.
    for t in 0..3 {
        assert!(
            matches!(machine.thread_state(t), ThreadState::Halted | ThreadState::Killed),
            "thread {t}: {:?}",
            machine.thread_state(t)
        );
    }
}

/// Burst corruption across the whole image: escalated recovery brings
/// the database back to a consistent state.
#[test]
fn burst_corruption_triggers_escalated_recovery() {
    let mut c = Controller::standard().with_audit(AuditConfig::default());
    // Smash a swath of headers in the process table.
    for i in 0..6u32 {
        let base = c.db.record_offset(RecordRef::new(schema::PROCESS_TABLE, i)).unwrap();
        c.inject_bit_flip(base + 1, 5, SimTime::from_secs(1));
    }
    let report = c.run_audit_cycle(SimTime::from_secs(10)).unwrap();
    assert!(report.findings.iter().any(|f| f.action == RecoveryAction::ReloadedDatabase));
    assert_eq!(c.db.region(), c.db.golden());
    assert_eq!(c.db.taint().latent_count(), 0);
}

/// Semantic recovery tears down exactly the zombie call, not healthy
/// neighbours.
#[test]
fn zombie_call_reclaimed_without_collateral_damage() {
    let mut c = Controller::standard().with_audit(AuditConfig::default());
    let mut client = DesClient::new(WorkloadConfig::default(), 3, true);
    let t1 = SimTime::from_secs(1);
    let (healthy, _) = client.start_call(&mut c.db, &mut c.api, &mut c.registry, t1).unwrap();
    let (victim, _) = client.start_call(&mut c.db, &mut c.api, &mut c.registry, t1).unwrap();

    // Break the victim's semantic loop (connection record 1 belongs to
    // the second call).
    c.db.write_field_raw(
        RecordRef::new(schema::CONNECTION_TABLE, 1),
        schema::connection::CHANNEL_ID,
        55_555,
    )
    .unwrap();

    let report = c.run_audit_cycle(SimTime::from_secs(10)).unwrap();
    assert!(report.by_element(AuditElementKind::Semantic).count() > 0);

    // The healthy call survives to a clean end; the victim is dropped.
    assert!(!client.poll_call(&mut c.db, &mut c.api, &c.registry, victim, SimTime::from_secs(11)));
    assert_eq!(
        client.end_call(&mut c.db, &mut c.api, &mut c.registry, victim, SimTime::from_secs(20)),
        CallOutcome::Dropped
    );
    assert_eq!(
        client.end_call(&mut c.db, &mut c.api, &mut c.registry, healthy, SimTime::from_secs(25)),
        CallOutcome::Clean
    );
}

/// The full §5-style loop at miniature scale: audits keep escapes
/// strictly below the unprotected configuration.
#[test]
fn miniature_table3_shape_holds() {
    use wtnc::inject::db_campaign::{run_campaign, DbCampaignConfig};
    let base = DbCampaignConfig {
        duration: SimDuration::from_secs(400),
        error_iat: SimDuration::from_secs(10),
        ..DbCampaignConfig::default()
    };
    let with = run_campaign(&DbCampaignConfig { audits: true, ..base }, 2);
    let without = run_campaign(&DbCampaignConfig { audits: false, ..base }, 2);
    assert!(with.caught > 0);
    assert!(with.escaped_pct() < without.escaped_pct());
    assert!(with.avg_setup_ms > without.avg_setup_ms);
}

/// Operator reconfiguration is a legitimate change: it survives audit
/// cycles and full golden-image reloads, unlike corruption.
#[test]
fn reconfiguration_is_not_mistaken_for_corruption() {
    let mut c = Controller::standard().with_audit(AuditConfig::default());
    let operator = Pid(1);
    c.api.init(operator);

    // Change the CPU count through the proper path.
    c.reconfigure(
        operator,
        schema::SYSCONFIG_TABLE,
        0,
        schema::sysconfig::N_CPUS,
        8,
        SimTime::from_secs(1),
    )
    .unwrap();

    // The audit accepts the new configuration...
    let report = c.run_audit_cycle(SimTime::from_secs(10)).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let rec = RecordRef::new(schema::SYSCONFIG_TABLE, 0);
    assert_eq!(c.db.read_field_raw(rec, schema::sysconfig::N_CPUS).unwrap(), 8);

    // ...and even a full reload from disk preserves it.
    c.db.reload_all();
    assert_eq!(c.db.read_field_raw(rec, schema::sysconfig::N_CPUS).unwrap(), 8);

    // Dynamic fields are rejected: runtime state never reaches the
    // disk image.
    let err = c.reconfigure(
        operator,
        schema::CONNECTION_TABLE,
        0,
        schema::connection::STATE,
        1,
        SimTime::from_secs(11),
    );
    assert!(err.is_err());

    // A raw write to the same config field (not via reconfigure) IS
    // corruption, and the audit reverts it.
    c.db.write_field_raw(rec, schema::sysconfig::N_CPUS, 99).unwrap();
    let report = c.run_audit_cycle(SimTime::from_secs(20)).unwrap();
    assert!(!report.findings.is_empty());
    assert_eq!(c.db.read_field_raw(rec, schema::sysconfig::N_CPUS).unwrap(), 8);
}

/// Flips the same bit of one connection record's state field once a
/// round and runs a recovery cycle, until the engine's top rung runs
/// (or 12 rounds pass). Returns the target and the round the top rung
/// ran in.
fn churn_one_field(c: &mut Controller) -> (FindingTarget, Option<u64>) {
    let table = schema::CONNECTION_TABLE;
    let slot = c.db.alloc_record_raw(table).unwrap();
    let rec = RecordRef::new(table, slot);
    let (off, _) = c.db.field_extent(rec, schema::connection::STATE).unwrap();
    let target = FindingTarget::Field { table, record: slot, field: schema::connection::STATE.0 };
    for round in 1..=12u64 {
        // Record and table reloads free the slot; a call takes it again.
        if !c.db.is_active(rec).unwrap() {
            // Freeing an already-free slot points the allocator's
            // first-free hint at it, so the next allocation reuses it.
            c.db.free_record_raw(rec).unwrap();
            assert_eq!(c.db.alloc_record_raw(table).unwrap(), slot);
        }
        // A flaky memory bank keeps corrupting the same field.
        c.inject_bit_flip(off, 7, SimTime::from_secs(round));
        let (_, outcome) = c.run_recovery_cycle(SimTime::from_secs(round)).unwrap();
        if outcome.restart_requested {
            return (target, Some(round));
        }
    }
    (target, None)
}

/// Persistent corruption of one field escalates: each verified repair
/// of the same target sends its next detection one rung up the
/// recovery engine's ladder, from a field reset through record and
/// table reloads to a controller restart request (the 5ESS-style
/// recovery hierarchy).
#[test]
fn sustained_churn_escalates_hierarchically() {
    let mut c = Controller::standard()
        .with_audit(AuditConfig::default())
        .with_recovery(RecoveryConfig { escalate_after: 1, ..RecoveryConfig::default() });
    let (target, restart_round) = churn_one_field(&mut c);

    let rungs: Vec<Rung> =
        c.recovery().unwrap().log().iter().filter(|e| e.target == target).map(|e| e.rung).collect();
    assert!(rungs.windows(2).all(|w| w[0] < w[1]), "one rung up per recurrence: {rungs:?}");
    assert!(rungs.contains(&Rung::RecordReinit), "{rungs:?}");
    assert!(rungs.contains(&Rung::TableRebuild), "climbed past the record: {rungs:?}");
    assert_eq!(rungs.last(), Some(&Rung::ControllerRestart), "{rungs:?}");
    assert!(restart_round.is_some(), "the top rung requests a controller restart");
    assert_eq!(c.db.taint().latent_count(), 0, "no corruption stays latent");
}

/// The data ladder's top rung reloads the database and leaves the
/// processes to the supervisor. A hung client that the rung restarted
/// itself would be restarted a second time by the supervisor, which
/// still tracks the old pid: two live processes of one lineage.
#[test]
fn controller_restart_rung_leaves_process_restarts_to_the_supervisor() {
    let mut c = Controller::standard()
        .with_audit(AuditConfig::default())
        .with_recovery(RecoveryConfig { escalate_after: 1, ..RecoveryConfig::default() })
        .with_supervision(SupervisorConfig::default());
    let client = c.spawn_client("client-0", SimTime::ZERO);
    assert!(c.registry.set_responsiveness(client, Responsiveness::Hung));

    let (_, restart_round) = churn_one_field(&mut c);
    let restart_round = restart_round.expect("the churn reaches the top rung");

    let mut restarts = 0;
    for t in restart_round + 1..=restart_round + 60 {
        let report = c.supervise_tick(SimTime::from_secs(t)).expect("supervision attached");
        restarts += report.restarts.len();
        let live = c.registry.alive().filter(|&p| c.registry.name(p) == Some("client-0")).count();
        assert!(live <= 1, "{live} live processes named client-0 at {t} s");
    }
    assert!(restarts >= 1, "the supervisor restarts the hung client");
}
