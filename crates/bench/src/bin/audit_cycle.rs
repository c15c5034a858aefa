//! Incremental-audit cycle benchmark: wall-clock time of one audit
//! cycle, full-scan vs change-aware, across dirty-block fractions.
//!
//! Each measured cycle first touches a controlled fraction of the
//! database's 256-byte blocks with *valid* writes (the workload the
//! incremental engine targets: mutated but correct data), then times
//! `AuditProcess::run_cycle` in both worlds. The incremental world
//! (`full_rescan_period: 0`) re-checksums only static chunks with a
//! dirty block and generation-skips unchanged records; the full world
//! (`full_rescan_period: 1`) scans everything every time. Each point
//! reports the median of its per-cycle times, and one throwaway cycle
//! pair per image runs before the first point, so no point is measured
//! cold.
//!
//! Two images are measured: 512 slots per dynamic table at ~70%
//! occupancy (`slots`, `points`), and a node-scale image of 32,768
//! slots at ~0.4% occupancy (`node_scale`), the occupancy of the
//! nodebench `audit_sweep` workload, where the range and semantic
//! passes visit only the few active slots.
//!
//! Emits `results/BENCH_audit_cycle.json`. `WTNC_BENCH_SMOKE=1` (or
//! `--smoke`) runs a one-iteration CI smoke pass.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin audit_cycle
//! ```

use std::time::Instant;

use wtnc::audit::{AuditConfig, AuditProcess};
use wtnc::db::{schema, Database, DbApi, DIRTY_BLOCK_SIZE};
use wtnc::sim::{ProcessRegistry, SimTime};
use wtnc_bench::median;

const SLOTS: u32 = 512;
/// Slots per dynamic table of the node-scale image.
const NODE_SLOTS: u32 = 32_768;

/// An image of `slots` slots per dynamic table holding `loops` linked
/// call loops, so the structural/range/semantic elements have real
/// records to walk.
fn populated_db(slots: u32, loops: u32) -> Database {
    let mut db = Database::build(schema::standard_schema_with_slots(slots)).unwrap();
    for _ in 0..loops {
        let p = db.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        let c = db.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let r = db.alloc_record_raw(schema::RESOURCE_TABLE).unwrap();
        db.write_field_raw(
            wtnc::db::RecordRef::new(schema::PROCESS_TABLE, p),
            schema::process::CONNECTION_ID,
            c as u64,
        )
        .unwrap();
        db.write_field_raw(
            wtnc::db::RecordRef::new(schema::CONNECTION_TABLE, c),
            schema::connection::CHANNEL_ID,
            r as u64,
        )
        .unwrap();
        db.write_field_raw(
            wtnc::db::RecordRef::new(schema::RESOURCE_TABLE, r),
            schema::resource::PROCESS_ID,
            p as u64,
        )
        .unwrap();
    }
    db
}

/// Touches `frac` of the region's blocks with same-value writes:
/// the dirty tracker marks them (and bumps the owning records'
/// generations) but the data stays valid, so the audits re-verify
/// and find nothing — the steady-state cost being measured.
fn touch_blocks(db: &mut Database, frac: f64, salt: usize) -> usize {
    let n_blocks = db.region_len() / DIRTY_BLOCK_SIZE;
    let k = ((n_blocks as f64 * frac) as usize).max(1);
    for i in 0..k {
        let block = (i * n_blocks / k + salt) % n_blocks;
        let offset = block * DIRTY_BLOCK_SIZE + (salt * 7 + i) % DIRTY_BLOCK_SIZE;
        let byte = db.region()[offset];
        db.poke(offset, &[byte]).unwrap();
    }
    k
}

struct World {
    db: Database,
    api: DbApi,
    registry: ProcessRegistry,
    audit: AuditProcess,
    tick: u64,
}

impl World {
    /// A world on `full_rescan_period`: 1 is the full scan; 0 never
    /// forces a sweep, the steady-state incremental cost (periodic
    /// forced sweeps are benchmarked by the full-scan world).
    fn new(base: &Database, full_rescan_period: u32) -> Self {
        let db = base.clone();
        let audit =
            AuditProcess::new(AuditConfig { full_rescan_period, ..AuditConfig::default() }, &db);
        World { db, api: DbApi::new(), registry: ProcessRegistry::new(), audit, tick: 0 }
    }

    /// Runs one cycle and returns (elapsed seconds, findings count).
    fn cycle(&mut self) -> (f64, usize) {
        self.tick += 10;
        let at = SimTime::from_secs(self.tick);
        let start = Instant::now();
        let report = self.audit.run_cycle(&mut self.db, &mut self.api, &mut self.registry, at);
        (start.elapsed().as_secs_f64(), report.findings.len())
    }
}

/// Times `iters` cycle pairs at dirty fraction `frac` on fresh worlds
/// cloned from `base`; returns the per-cycle seconds of the full and
/// the incremental world and the blocks touched per cycle.
fn time_point(base: &Database, frac: f64, iters: usize) -> (Vec<f64>, Vec<f64>, usize) {
    let mut full = World::new(base, 1);
    let mut incr = World::new(base, 0);
    // Warm-up cycle: establishes the verified-clean baseline both
    // engines skip from.
    full.cycle();
    incr.cycle();

    let (mut t_full, mut t_incr, mut touched) = (Vec::new(), Vec::new(), 0usize);
    for i in 0..iters {
        touched = touch_blocks(&mut full.db, frac, i + 1);
        touch_blocks(&mut incr.db, frac, i + 1);
        let (tf, ff) = full.cycle();
        let (ti, fi) = incr.cycle();
        assert_eq!(ff, fi, "parity violated: full={ff} incremental={fi} findings");
        assert_eq!(ff, 0, "valid writes must produce no findings");
        t_full.push(tf);
        t_incr.push(ti);
    }
    (t_full, t_incr, touched)
}

/// Prints the full-scan vs incremental table for one image and returns
/// its JSON points.
fn measure(base: &Database, slots: u32, loops: u32, iters: usize) -> String {
    let n_blocks = base.region_len() / DIRTY_BLOCK_SIZE;
    println!(
        "Audit cycle: full scan vs incremental ({slots} slots, {loops} active per table, \
         {} KiB region, {n_blocks} blocks, {iters} iters, median)\n",
        base.region_len() / 1024,
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>9}",
        "dirty %", "blocks", "full (us)", "incr (us)", "speedup"
    );

    // A throwaway cycle pair first, so the first point is not measured
    // cold (code, CRC tables and allocator not yet warm).
    time_point(base, 0.01, 1);

    let mut points = String::new();
    for &frac in &[0.01f64, 0.05, 0.10, 0.25, 0.50] {
        let (mut t_full, mut t_incr, touched) = time_point(base, frac, iters);
        let (med_full, med_incr) = (median(&mut t_full), median(&mut t_incr));
        let speedup = med_full / med_incr.max(1e-12);
        println!(
            "{:>8.0} {:>8} {:>12.1} {:>12.1} {:>8.1}x",
            frac * 100.0,
            touched,
            med_full * 1e6,
            med_incr * 1e6,
            speedup
        );
        points.push_str(&format!(
            "    {{\"dirty_frac\": {frac}, \"dirty_blocks\": {touched}, \
             \"full_cycle_us\": {:.2}, \"incremental_cycle_us\": {:.2}, \
             \"speedup\": {:.2}}},\n",
            med_full * 1e6,
            med_incr * 1e6,
            speedup
        ));
    }
    println!();
    points.trim_end_matches(",\n").to_string()
}

fn main() {
    let smoke = wtnc_bench::smoke();
    let iters: usize = if smoke { 1 } else { 40 };
    // ~70% of the small image's slots; ~0.4% of the node-scale one's.
    let (loops, node_loops) = (SLOTS * 7 / 10, NODE_SLOTS / 256);
    let base = populated_db(SLOTS, loops);
    let points = measure(&base, SLOTS, loops, iters);
    let node = populated_db(NODE_SLOTS, node_loops);
    let node_points = measure(&node, NODE_SLOTS, node_loops, iters);

    let json = format!(
        "{{\n  \"bench\": \"audit_cycle\",\n  \"host\": {},\n  \"slots\": {SLOTS},\n  \
         \"region_bytes\": {},\n  \"block_size\": {DIRTY_BLOCK_SIZE},\n  \
         \"iters\": {iters},\n  \"smoke\": {smoke},\n  \"points\": [\n{points}\n  ],\n  \
         \"node_scale\": {{\"slots\": {NODE_SLOTS}, \"active_per_table\": {node_loops}, \
         \"region_bytes\": {}, \"points\": [\n{node_points}\n  ]}}\n}}\n",
        wtnc_bench::host_info_json(),
        base.region_len(),
        node.region_len()
    );
    wtnc_bench::write_results("audit_cycle", &json);
}
