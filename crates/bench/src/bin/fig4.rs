//! Regenerates paper Figure 4: the run-time overhead of the modified
//! (audit-instrumented) database API, function by function.
//!
//! This binary reports the calibrated simulation cost model (used by
//! the DES experiments) side by side with **measured wall-clock
//! timings** of this implementation's API functions, instrumented vs
//! original.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin fig4
//! ```

use std::time::Instant;

use wtnc::db::{schema, Database, DbApi, DbOp};
use wtnc::sim::{Pid, SimTime};

const ITERS: u32 = 200; // the paper executed each function 200 times

fn measure(mut op: impl FnMut()) -> f64 {
    // Warm up, then time the paper's 200 executions.
    for _ in 0..20 {
        op();
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        op();
    }
    start.elapsed().as_secs_f64() / ITERS as f64 * 1e9 // ns per call
}

fn bench_api(instrumented: bool) -> Vec<(&'static str, f64)> {
    let mut db = Database::build(schema::standard_schema()).unwrap();
    let mut api = if instrumented { DbApi::new() } else { DbApi::without_instrumentation() };
    let pid = Pid(1);
    api.init(pid);
    let t = schema::CONNECTION_TABLE;
    let now = SimTime::from_secs(1);
    let idx = api.alloc_record(&mut db, pid, t, now).unwrap();
    let field_count = db.catalog().table(t).unwrap().def.fields.len();
    let values = vec![1u64; field_count];

    let mut results = Vec::new();
    results.push((
        "DBinit",
        measure(|| {
            api.init_at(Pid(2), now);
        }),
    ));
    results.push((
        "DBclose",
        measure(|| {
            api.close(Pid(2), now);
        }),
    ));
    results.push((
        "DBread_rec",
        measure(|| {
            api.read_rec(&mut db, pid, t, idx, now).unwrap();
        }),
    ));
    results.push((
        "DBread_fld",
        measure(|| {
            api.read_fld(&mut db, pid, t, idx, schema::connection::CALLER_ID, now).unwrap();
        }),
    ));
    results.push((
        "DBwrite_rec",
        measure(|| {
            api.write_rec(&mut db, pid, t, idx, &values, now).unwrap();
        }),
    ));
    results.push((
        "DBwrite_fld",
        measure(|| {
            api.write_fld(&mut db, pid, t, idx, schema::connection::STATE, 1, now).unwrap();
        }),
    ));
    results.push((
        "DBmove",
        measure(|| {
            api.move_rec(&mut db, pid, t, idx, 3, now).unwrap();
        }),
    ));
    results
}

fn main() {
    println!("Figure 4 — run-time overhead of the modified database API\n");

    // The calibrated DES cost model (paper-shaped, in microseconds).
    let costs = wtnc::db::ApiCosts::default();
    println!("simulated cost model (drives the DES experiments):");
    println!(
        "{:<14} {:>14} {:>14} {:>10}",
        "function", "original (us)", "modified (us)", "overhead"
    );
    for (name, op) in [
        ("DBinit", DbOp::Init),
        ("DBclose", DbOp::Close),
        ("DBread_rec", DbOp::ReadRec),
        ("DBread_fld", DbOp::ReadFld),
        ("DBwrite_rec", DbOp::WriteRec),
        ("DBwrite_fld", DbOp::WriteFld),
        ("DBmove", DbOp::Move),
    ] {
        let orig = costs.cost(op, false).as_secs_f64() * 1e6;
        let inst = costs.cost(op, true).as_secs_f64() * 1e6;
        println!(
            "{:<14} {:>14.0} {:>14.0} {:>9.1}%",
            name,
            orig,
            inst,
            (inst / orig - 1.0) * 100.0
        );
    }

    // Wall-clock measurement of this implementation (absolute numbers
    // are this machine's; the paper's shape claim is about relative
    // overheads).
    println!("\nmeasured wall-clock of this implementation ({} calls/function):", ITERS);
    let original = bench_api(false);
    let modified = bench_api(true);
    println!(
        "{:<14} {:>14} {:>14} {:>10}",
        "function", "original (ns)", "modified (ns)", "overhead"
    );
    for ((name, orig), (_, inst)) in original.iter().zip(modified.iter()) {
        println!(
            "{:<14} {:>14.0} {:>14.0} {:>9.1}%",
            name,
            orig,
            inst,
            (inst / orig - 1.0) * 100.0
        );
    }
    println!(
        "\npaper reference: overheads 6.5% (DBinit) … 45.2% (DBwrite_rec); write-class calls \
         pay the most because each one notifies the audit process"
    );
}
