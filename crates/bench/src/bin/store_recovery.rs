//! Durable-store recovery bench: journal replay throughput, warm-
//! restart latency as a function of journal length, checkpoint cost,
//! and the power-fail campaign outcome table.
//!
//! The framework's availability argument rests on the controller
//! restarting *warm*: instead of rebuilding the database from
//! provisioning data, it reloads the newest valid golden checkpoint
//! and replays the journal tail. This bench measures what that costs —
//! how fast journal records replay, how recovery latency grows with
//! the journal tail length, and how expensive cutting a checkpoint is
//! — and then runs the seeded power-fail campaign from
//! `wtnc::inject::powerfail_campaign` to show the detection ledger:
//! zero fail-silence violations across every fault model.
//!
//! Emits `results/BENCH_store_recovery.json`. Run counts scale with
//! `WTNC_RUNS_SCALE` as in the other campaign benches.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin store_recovery
//! ```

use std::time::Instant;

use wtnc::db::{schema, Database};
use wtnc::inject::powerfail_campaign::{run_campaign, workload_step, PowerFailModel};
use wtnc::sim::SimRng;
use wtnc::store::{ScratchDir, Store, StoreConfig};
use wtnc_bench::{host_info_json, outcome_counts_json, scaled_runs, write_results};

/// Builds a store directory holding one baseline checkpoint followed
/// by a journal tail of at least `records` mutation records. Returns
/// (journal records past the checkpoint, journal bytes).
fn build_tail(dir: &std::path::Path, records: usize, seed: u64) -> (usize, u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut db = Database::build(schema::standard_schema()).expect("standard schema");
    let mut store = Store::open(dir, StoreConfig::default()).expect("open store");
    store.attach(&mut db);
    store.checkpoint(&mut db).expect("baseline checkpoint");
    let baseline = store.journal_records();
    let mut live = Vec::new();
    while store.journal_records() - baseline < records as u64 {
        for _ in 0..16 {
            workload_step(&mut db, &mut rng, &mut live).expect("workload step");
        }
        store.sync(&mut db).expect("journal sync");
    }
    ((store.journal_records() - baseline) as usize, store.journal_bytes())
}

fn main() {
    let runs = scaled_runs(20);
    let sizes = [200usize, 1_000, 5_000];
    println!("Durable-store recovery bench\n");

    // 1. Checkpoint cost: cut a checkpoint of the standard schema
    //    image and report wall time plus on-disk size.
    let scratch = ScratchDir::new("bench-ckpt");
    let mut db = Database::build(schema::standard_schema()).expect("standard schema");
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open store");
    store.attach(&mut db);
    let t = Instant::now();
    let gen = store.checkpoint(&mut db).expect("checkpoint");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let checkpoint_bytes =
        std::fs::metadata(scratch.path().join(wtnc::store::checkpoint::checkpoint_file_name(gen)))
            .map(|m| m.len())
            .unwrap_or(0);
    drop(store);
    println!(
        "checkpoint cost: {:.3} ms for {} bytes on disk ({} byte image)\n",
        checkpoint_ms,
        checkpoint_bytes,
        db.region_len() * 2,
    );

    // 2. Recovery latency vs journal tail length, and replay
    //    throughput from the largest tail.
    println!(
        "{:>14} {:>14} {:>12} {:>12} {:>14}",
        "journal (rec)", "journal (B)", "open (ms)", "replay (ms)", "replay (rec/s)"
    );
    let mut tail_jsons: Vec<String> = Vec::new();
    let mut peak_rate = 0.0f64;
    for &records in &sizes {
        let scratch = ScratchDir::new(&format!("bench-tail-{records}"));
        let (replayable, journal_bytes) =
            build_tail(scratch.path(), records, 0xB5EC + records as u64);
        let t = Instant::now();
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut recovered = Database::build(schema::standard_schema()).expect("standard schema");
        let t = Instant::now();
        let info = store.recover_into(&mut recovered).expect("recover");
        let replay_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(info.replayed, replayable, "all tail records replay");
        assert!(info.findings.is_empty(), "clean store recovers clean");
        let rate = info.replayed as f64 / (replay_ms / 1e3).max(1e-9);
        peak_rate = peak_rate.max(rate);
        println!(
            "{replayable:>14} {journal_bytes:>14} {open_ms:>12.3} {replay_ms:>12.3} {rate:>14.0}"
        );
        tail_jsons.push(format!(
            "    {{\"journal_records\": {replayable}, \"journal_bytes\": {journal_bytes}, \
             \"open_ms\": {open_ms:.4}, \"replay_ms\": {replay_ms:.4}, \
             \"replay_records_per_s\": {rate:.0}}}"
        ));
    }

    // 3. Power-fail campaign: the detection ledger per fault model.
    println!("\nPower-fail campaign ({runs} runs per model)\n");
    println!(
        "{:>20} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
        "model", "injected", "detected", "repaired", "exact", "FSV", "repl."
    );
    let mut model_jsons: Vec<String> = Vec::new();
    for model in PowerFailModel::ALL {
        let r = run_campaign(model, runs);
        let fsv = r.outcomes.count(wtnc::inject::RunOutcome::FailSilenceViolation);
        println!(
            "{:>20} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
            model.name(),
            r.injected,
            r.outcomes.count(wtnc::inject::RunOutcome::AuditDetection),
            r.outcomes.count(wtnc::inject::RunOutcome::DetectedRepaired),
            r.exact_recoveries,
            fsv,
            r.replayed,
        );
        model_jsons.push(format!(
            "    \"{}\": {{\n      \"injected\": {},\n      \"findings\": {},\n      \
             \"replayed\": {},\n      \"exact_recoveries\": {},\n      \"outcomes\": {}\n    }}",
            model.name(),
            r.injected,
            r.findings,
            r.replayed,
            r.exact_recoveries,
            outcome_counts_json(&r.outcomes),
        ));
    }
    println!(
        "\npaper context: the controller restarts warm from the newest valid golden \
         checkpoint plus the journal tail; every power-fail or tampering event must \
         surface as a finding — fail-silence violations must stay at zero"
    );

    let json = format!(
        "{{\n  \"bench\": \"store_recovery\",\n  \"host\": {},\n  \"runs_per_model\": {runs},\n  \
         \"checkpoint\": {{\"wall_ms\": {checkpoint_ms:.4}, \"bytes\": {checkpoint_bytes}}},\n  \
         \"replay_peak_records_per_s\": {peak_rate:.0},\n  \"recovery_latency\": [\n{}\n  ],\n  \
         \"models\": {{\n{}\n  }}\n}}\n",
        host_info_json(),
        tail_jsons.join(",\n"),
        model_jsons.join(",\n")
    );
    write_results("store_recovery", &json);
}
