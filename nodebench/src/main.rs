//! Whole-node controller benchmark.
//!
//! ```text
//! nodebench --workload <call_steady|audit_sweep|pecos_campaign> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is a JSON object carrying the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run.
//! Lines before it start with `#` and hold the host stamp, every
//! correctness check, the sample counts behind each percentile and the
//! host-speed scaling applied to the end-to-end times.
//! See `nodebench/README.md` for the metric → layer → workload map.

mod host;
mod node;
mod pecos;
mod report;
mod stats;
mod trace;

use report::Outcome;

/// `(name, unit)` of the metrics listed under `section` of the
/// repository's `BENCHMARK.json`, in file order (tests keep the two in
/// step).
#[cfg(test)]
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| {
        let from = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[from..from + entry[from..].find('"').unwrap()].to_owned()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

/// The same, sorted by name: the order a run's metrics are compared in.
#[cfg(test)]
fn benchmark_sorted(section: &str) -> Vec<(String, String)> {
    let mut v = benchmark_metrics(section);
    v.sort();
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nodebench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    out.stamp("workload", &args.workload);
    out.stamp("seed", &args.seed.to_string());
    out.stamp("trace", if args.trace { "1" } else { "0" });
    out.stamp("nproc", &host::nproc().to_string());
    out.stamp("cpu_model", &host::cpu_model());
    let result = match args.workload.as_str() {
        "call_steady" => {
            node::run(node::CALL_STEADY, args.seed, args.seconds, args.trace, &mut out)
        }
        "audit_sweep" => {
            node::run(node::AUDIT_SWEEP, args.seed, args.seconds, args.trace, &mut out)
        }
        "pecos_campaign" => pecos::run(args.seed, args.seconds, args.trace, &mut out),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = result {
        eprintln!("nodebench: {e}");
        std::process::exit(1);
    }
    out.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let table: Vec<(String, String)> =
            crate::report::PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(table, crate::benchmark_metrics("per_layer"));
    }
}
