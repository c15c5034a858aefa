//! Power-fail injection campaign against the durable store.
//!
//! The other campaigns corrupt memory or processes; this one attacks
//! the *durable* state `wtnc-store` maintains on disk. Each run drives
//! a seeded mutation workload through a journaled + checkpointed
//! database, then simulates a power failure or tampering event against
//! the store directory, reopens it cold, and performs warm recovery.
//! The recovered image is compared against the harness's mutation
//! timeline — a hash of the database after *every individual journal
//! record* (not every operation: one operation can emit several
//! records, and a torn write can land between them) — and classified
//! onto the extended Table 7 taxonomy:
//!
//! * [`RunOutcome::AuditDetection`] — the damage was detected (store
//!   findings reported) and recovery still reproduced the **exact**
//!   pre-failure image (a stale or broken checkpoint the full journal
//!   carried forward);
//! * [`RunOutcome::DetectedRepaired`] — the damage was detected and
//!   recovery restored a consistent **prefix** of the timeline (the
//!   fsynced history up to the torn or corrupt journal record);
//! * [`RunOutcome::NotManifested`] — the recovered image is exact and
//!   nothing was (or needed to be) reported;
//! * [`RunOutcome::FailSilenceViolation`] — the store recovered an
//!   image that is *not* on the timeline, or silently lost history
//!   without reporting a finding. The acceptance bar is **zero** such
//!   runs.

use wtnc_db::{frames, schema, Database, DbError, FrameKind, RecordRef};
use wtnc_sim::SimRng;
use wtnc_store::{ScratchDir, SipHasher24, Store, StoreConfig, JOURNAL_FILE};

use crate::outcome::{OutcomeCounts, RunOutcome};

/// The power-fail / tampering models (rows of the campaign table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerFailModel {
    /// Power fails while the newest checkpoint is being written: the
    /// file is truncated at a random byte.
    TornCheckpoint,
    /// Power fails during a journal append: the journal is truncated
    /// mid-record at a random cut inside its tail, the frames newer
    /// than the newest checkpoint.
    JournalTruncation,
    /// Bit rot or tampering inside the journal: one random bit of its
    /// tail (the frames newer than the newest checkpoint) flips.
    JournalCorruption,
    /// The newest checkpoint's content is tampered with while the full
    /// journal survives — recovery must fall back to an older golden
    /// image and carry it forward.
    StaleCheckpoint,
    /// A historical checkpoint is deleted, breaking the golden-image
    /// hash chain.
    ChainBreak,
    /// Power fails while a *delta* checkpoint is being written: the
    /// workload runs with `full_every = 3` and the newest `.delta`
    /// file is truncated at a random byte. Recovery must fall back to
    /// an earlier candidate and let the journal carry it forward.
    TornDeltaCheckpoint,
    /// Power fails in the middle of a journal compaction: the store is
    /// compacted mid-run, then the crash leaves a half-written
    /// rotation tmp file next to a journal torn inside a record.
    CompactionCrash,
}

impl PowerFailModel {
    /// Every model, in campaign-table order.
    pub const ALL: [PowerFailModel; 7] = [
        PowerFailModel::TornCheckpoint,
        PowerFailModel::JournalTruncation,
        PowerFailModel::JournalCorruption,
        PowerFailModel::StaleCheckpoint,
        PowerFailModel::ChainBreak,
        PowerFailModel::TornDeltaCheckpoint,
        PowerFailModel::CompactionCrash,
    ];

    /// Stable snake_case name (JSON column key).
    pub fn name(self) -> &'static str {
        match self {
            PowerFailModel::TornCheckpoint => "torn_checkpoint",
            PowerFailModel::JournalTruncation => "journal_truncation",
            PowerFailModel::JournalCorruption => "journal_corruption",
            PowerFailModel::StaleCheckpoint => "stale_checkpoint",
            PowerFailModel::ChainBreak => "chain_break",
            PowerFailModel::TornDeltaCheckpoint => "torn_delta_checkpoint",
            PowerFailModel::CompactionCrash => "compaction_crash",
        }
    }

    /// Store configuration the model's workload runs under: the delta
    /// and compaction models exercise the incremental checkpoint path
    /// (`full_every = 3`), the original five keep the always-full
    /// default.
    fn store_config(self) -> StoreConfig {
        match self {
            PowerFailModel::TornDeltaCheckpoint | PowerFailModel::CompactionCrash => {
                StoreConfig { full_every: 3, ..StoreConfig::default() }
            }
            _ => StoreConfig::default(),
        }
    }
}

/// Journal sync (fsync) interval, in workload steps.
const SYNC_EVERY: usize = 4;

/// Checkpoint interval, in workload steps.
const CHECKPOINT_EVERY: usize = 40;

/// Workload length in mutation steps. Deliberately not a multiple of
/// [`CHECKPOINT_EVERY`]: the journal tail past the last checkpoint is
/// what a torn or corrupt journal can actually cost.
const MUTATIONS: usize = 130;

/// Base seed the campaign draws its run seeds from.
const SEED: u64 = 0xD15C_0BEE;

/// Result of one power-fail run.
#[derive(Debug, Clone)]
pub struct PowerFailRunResult {
    /// Faults injected (always 1: one failure event per run).
    pub injected: u64,
    /// Outcome tally for this run.
    pub outcomes: OutcomeCounts,
    /// Store findings reported across open + recovery.
    pub findings: u64,
    /// Journal records replayed on top of the base image.
    pub replayed: u64,
    /// Whether recovery reproduced the exact pre-failure image.
    pub recovered_exact: bool,
}

/// Aggregated campaign result.
#[derive(Debug, Clone, Default)]
pub struct PowerFailCampaignResult {
    /// Total failure events injected.
    pub injected: u64,
    /// Outcome tally across all runs.
    pub outcomes: OutcomeCounts,
    /// Total findings reported.
    pub findings: u64,
    /// Total records replayed.
    pub replayed: u64,
    /// Runs whose recovery reproduced the exact pre-failure image.
    pub exact_recoveries: u64,
}

fn image_hash(region: &[u8], golden: &[u8]) -> u64 {
    let mut h = SipHasher24::new(b"wtnc-powerfail-k");
    h.write(region);
    h.write(golden);
    h.finish()
}

/// One random workload step against the raw record API. Steps that hit
/// a full or empty table fall through to a plain field write so every
/// step mutates something.
pub fn workload_step(
    db: &mut Database,
    rng: &mut SimRng,
    live: &mut Vec<u32>,
) -> Result<(), DbError> {
    let table = schema::CONNECTION_TABLE;
    match rng.index(4) {
        0 => match db.alloc_record_raw(table) {
            Ok(idx) => {
                live.push(idx);
                db.write_field_raw(
                    RecordRef::new(table, idx),
                    schema::connection::CALLER_ID,
                    rng.range_u64(0, 99_999),
                )?;
                Ok(())
            }
            Err(DbError::TableFull(_)) if !live.is_empty() => {
                let idx = live.swap_remove(rng.index(live.len()));
                db.free_record_raw(RecordRef::new(table, idx))
            }
            Err(e) => Err(e),
        },
        1 if !live.is_empty() => {
            let idx = live.swap_remove(rng.index(live.len()));
            db.free_record_raw(RecordRef::new(table, idx))
        }
        _ if !live.is_empty() => {
            let idx = live[rng.index(live.len())];
            db.write_field_raw(
                RecordRef::new(table, idx),
                schema::connection::STATE,
                rng.range_u64(0, 4),
            )
        }
        _ => {
            // Empty table: mutate a channel-config field instead.
            db.write_field_raw(
                RecordRef::new(schema::CHANNEL_CONFIG_TABLE, 0),
                schema::channel_config::FREQ_KHZ,
                rng.range_u64(800_000, 900_000),
            )
        }
    }
}

/// Byte range and generation of each journal frame, for picking a
/// deliberately mid-record cut. A compaction marker's generation is
/// its horizon.
fn frame_spans(journal: &[u8]) -> Vec<(usize, usize, u64)> {
    let mut at = 0;
    frames(journal)
        .map(|f| {
            let start = at;
            at += f.raw.len();
            (start, at, f.gen)
        })
        .collect()
}

/// A cut strictly inside the frame `[start, end)`, so fsynced history
/// is lost, not merely trimmed at a clean boundary.
fn cut_inside((start, end, _): (usize, usize, u64), rng: &mut SimRng) -> usize {
    start + 1 + rng.index(end - start - 1)
}

fn mutilate(dir: &std::path::Path, model: PowerFailModel, rng: &mut SimRng) {
    let mut ckpts: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(wtnc_store::parse_checkpoint_file_name)
                .is_some()
        })
        .collect();
    ckpts.sort();
    let journal_path = dir.join(JOURNAL_FILE);
    // The journal tail: the frames newer than the newest checkpoint,
    // which recovery replays on top of it. Damage before the tail cuts
    // the journal ahead of every frame recovery would replay, so no
    // good prefix of the tail could show.
    let tail = |journal: &[u8]| {
        let newest = ckpts
            .last()
            .and_then(|p| p.file_name()?.to_str())
            .and_then(wtnc_store::parse_checkpoint_file_name)
            .expect("at least one checkpoint");
        let spans: Vec<_> =
            frame_spans(journal).into_iter().filter(|&(_, _, gen)| gen > newest).collect();
        assert!(!spans.is_empty(), "the workload writes past its last checkpoint");
        spans
    };
    match model {
        PowerFailModel::TornCheckpoint => {
            let path = ckpts.last().expect("at least one checkpoint");
            let bytes = std::fs::read(path).expect("read checkpoint");
            let cut = rng.index(bytes.len().max(1));
            std::fs::write(path, &bytes[..cut]).expect("truncate checkpoint");
        }
        PowerFailModel::JournalTruncation => {
            let bytes = std::fs::read(&journal_path).expect("read journal");
            let tail = tail(&bytes);
            let cut = cut_inside(tail[rng.index(tail.len())], rng);
            std::fs::write(&journal_path, &bytes[..cut]).expect("truncate journal");
        }
        PowerFailModel::JournalCorruption => {
            let mut bytes = std::fs::read(&journal_path).expect("read journal");
            let tail = tail(&bytes);
            let (start, end) = (tail[0].0, tail[tail.len() - 1].1);
            let at = start + rng.index(end - start);
            bytes[at] ^= 1 << rng.index(8);
            std::fs::write(&journal_path, &bytes).expect("corrupt journal");
        }
        PowerFailModel::StaleCheckpoint => {
            let path = ckpts.last().expect("at least one checkpoint");
            let mut bytes = std::fs::read(path).expect("read checkpoint");
            // Flip a bit inside the image content (between the header
            // and the MAC table).
            let content = wtnc_store::full_content_range(&bytes).expect("checkpoint header");
            let at = content.start + rng.index(content.len());
            bytes[at] ^= 1 << rng.index(8);
            std::fs::write(path, &bytes).expect("tamper checkpoint");
        }
        PowerFailModel::ChainBreak => {
            // Delete a historical (non-newest when possible) link.
            let victim =
                if ckpts.len() > 1 { &ckpts[rng.index(ckpts.len() - 1)] } else { &ckpts[0] };
            std::fs::remove_file(victim).expect("delete checkpoint");
        }
        PowerFailModel::TornDeltaCheckpoint => {
            let mut deltas: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
                .expect("store dir")
                .map(|e| e.expect("dir entry").path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .and_then(wtnc_store::parse_delta_file_name)
                        .is_some()
                })
                .collect();
            deltas.sort();
            let path = deltas.last().expect("at least one delta checkpoint");
            let bytes = std::fs::read(path).expect("read delta");
            let cut = rng.index(bytes.len().max(1));
            std::fs::write(path, &bytes[..cut]).expect("truncate delta");
        }
        PowerFailModel::CompactionCrash => {
            // Crash mid-rotation: a half-written tmp journal stranded
            // next to the live one, whose own tail is torn inside a
            // record (the append that raced the rotation).
            std::fs::write(dir.join(wtnc_store::JOURNAL_TMP_FILE), b"half-written rotation")
                .expect("strand tmp journal");
            let bytes = std::fs::read(&journal_path).expect("read journal");
            let spans = frame_spans(&bytes);
            if !spans.is_empty() {
                let cut = cut_inside(spans[rng.index(spans.len())], rng);
                std::fs::write(&journal_path, &bytes[..cut]).expect("truncate journal");
            } else {
                std::fs::write(&journal_path, &bytes[..bytes.len() / 2]).expect("truncate journal");
            }
        }
    }
}

/// One run: seeded workload → power failure → cold reopen → warm
/// recovery → classification against the mutation timeline.
pub fn run_once(model: PowerFailModel, seed: u64) -> PowerFailRunResult {
    let mut rng = SimRng::seed_from(seed);
    let scratch = ScratchDir::new(&format!("powerfail-{seed:016x}"));
    let store_config = model.store_config();

    // Phase 1: the journaled workload, with the harness shadow-applying
    // every captured record to build the timeline of consistent states.
    let mut db = Database::build(schema::standard_schema()).expect("standard schema");
    let mut shadow_region = db.region().to_vec();
    let mut shadow_golden = db.golden().to_vec();
    let mut timeline = vec![image_hash(&shadow_region, &shadow_golden)];
    {
        let mut store = Store::open(scratch.path(), store_config).expect("open store");
        store.attach(&mut db);
        let mut live = Vec::new();
        let mut drain = |db: &mut Database, store: &mut Store| {
            for m in frames(db.captured()) {
                let golden = m.kind == FrameKind::Golden;
                let target = if golden { &mut shadow_golden } else { &mut shadow_region };
                let end = (m.offset + m.bytes.len()).min(target.len());
                target[m.offset..end].copy_from_slice(&m.bytes[..end - m.offset]);
                timeline.push(image_hash(&shadow_region, &shadow_golden));
            }
            store.sync(db).expect("journal sync");
        };
        for step in 1..=MUTATIONS {
            workload_step(&mut db, &mut rng, &mut live).expect("workload step");
            if step % SYNC_EVERY == 0 {
                drain(&mut db, &mut store);
            }
            if step % CHECKPOINT_EVERY == 0 {
                drain(&mut db, &mut store);
                store.checkpoint(&mut db).expect("checkpoint");
                // The compaction-crash model compacts mid-run (at the
                // second checkpoint) so the later crash tears a journal
                // that has already been rotated once.
                if model == PowerFailModel::CompactionCrash && step == CHECKPOINT_EVERY * 2 {
                    store.compact().expect("compact");
                }
            }
        }
        drain(&mut db, &mut store);
    }

    // Phase 2: the power failure / tampering event.
    mutilate(scratch.path(), model, &mut rng);

    // Phase 3: cold reopen and warm recovery.
    let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
    let mut store = Store::open(scratch.path(), store_config).expect("reopen store");
    let info = store.recover_into(&mut recovered).expect("recovery never errors");

    // Phase 4: classification.
    let hash = image_hash(recovered.region(), recovered.golden());
    let exact = hash == *timeline.last().expect("timeline nonempty");
    let on_timeline = timeline.contains(&hash);
    let detected = !info.findings.is_empty();
    let outcome = match (exact, on_timeline, detected) {
        (true, _, true) => RunOutcome::AuditDetection,
        (false, true, true) => RunOutcome::DetectedRepaired,
        (true, _, false) => RunOutcome::NotManifested,
        _ => RunOutcome::FailSilenceViolation,
    };
    let mut outcomes = OutcomeCounts::new();
    outcomes.record(outcome);
    PowerFailRunResult {
        injected: 1,
        outcomes,
        findings: info.findings.len() as u64,
        replayed: info.replayed as u64,
        recovered_exact: exact,
    }
}

/// Runs `runs` independent seeded runs in parallel and sums the
/// results (deterministic: identical to a serial execution).
pub fn run_campaign(model: PowerFailModel, runs: usize) -> PowerFailCampaignResult {
    let results = crate::parallel::run_runs(SEED, runs, |seed| run_once(model, seed));
    let mut total = PowerFailCampaignResult::default();
    for r in results {
        total.injected += r.injected;
        total.outcomes.merge(&r.outcomes);
        total.findings += r.findings;
        total.replayed += r.replayed;
        total.exact_recoveries += u64::from(r.recovered_exact);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_is_complete_for_every_model() {
        for model in PowerFailModel::ALL {
            let r = run_campaign(model, 4);
            assert_eq!(r.injected, 4, "{model:?}");
            assert_eq!(r.outcomes.total(), r.injected, "{model:?}: total == injected");
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign(PowerFailModel::JournalCorruption, 6);
        let b = run_campaign(PowerFailModel::JournalCorruption, 6);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.findings, b.findings);
        assert_eq!(a.replayed, b.replayed);
    }

    #[test]
    fn no_model_produces_a_silent_corruption_across_100_runs() {
        let mut total = PowerFailCampaignResult::default();
        for model in PowerFailModel::ALL {
            let r = run_campaign(model, 15);
            assert_eq!(
                r.outcomes.count(RunOutcome::FailSilenceViolation),
                0,
                "{model:?} must never corrupt silently"
            );
            total.injected += r.injected;
            total.outcomes.merge(&r.outcomes);
        }
        assert_eq!(total.injected, 105);
        assert_eq!(total.outcomes.total(), 105);
        assert_eq!(total.outcomes.count(RunOutcome::FailSilenceViolation), 0);
    }

    #[test]
    fn stale_checkpoints_recover_exactly_via_the_journal() {
        let r = run_campaign(PowerFailModel::StaleCheckpoint, 8);
        assert_eq!(r.exact_recoveries, 8, "the full journal carries an old golden forward");
        assert_eq!(r.outcomes.count(RunOutcome::AuditDetection), 8);
        assert!(r.findings >= 16, "MAC mismatch + stale fallback per run: {}", r.findings);
    }

    #[test]
    fn torn_delta_checkpoints_fall_back_and_recover_exactly() {
        let r = run_campaign(PowerFailModel::TornDeltaCheckpoint, 8);
        assert_eq!(r.outcomes.count(RunOutcome::FailSilenceViolation), 0);
        assert_eq!(
            r.exact_recoveries, 8,
            "the intact journal carries the fallback base forward: {:?}",
            r.outcomes
        );
        assert_eq!(r.outcomes.count(RunOutcome::AuditDetection), 8, "every torn delta reported");
    }

    #[test]
    fn compaction_crashes_recover_a_reported_prefix() {
        let r = run_campaign(PowerFailModel::CompactionCrash, 8);
        assert_eq!(r.outcomes.count(RunOutcome::FailSilenceViolation), 0);
        assert_eq!(
            r.outcomes.count(RunOutcome::DetectedRepaired)
                + r.outcomes.count(RunOutcome::AuditDetection),
            8,
            "every mid-compaction crash is reported: {:?}",
            r.outcomes
        );
        assert!(r.findings >= 8);
    }

    #[test]
    fn journal_damage_lands_in_the_replayed_tail() {
        for model in [PowerFailModel::JournalTruncation, PowerFailModel::JournalCorruption] {
            let r = run_campaign(model, 8);
            assert_eq!(
                r.outcomes.count(RunOutcome::DetectedRepaired),
                8,
                "{model:?}: every run recovers a reported prefix: {:?}",
                r.outcomes
            );
            assert!(r.replayed > 0, "{model:?}: the tail's good prefix is replayed");
        }
    }

    #[test]
    fn journal_truncation_recovers_a_reported_prefix() {
        let r = run_campaign(PowerFailModel::JournalTruncation, 8);
        assert_eq!(
            r.outcomes.count(RunOutcome::DetectedRepaired)
                + r.outcomes.count(RunOutcome::AuditDetection),
            8,
            "every torn tail is reported: {:?}",
            r.outcomes
        );
        assert!(r.findings >= 8);
    }
}
