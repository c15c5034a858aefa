//! `wtnc` — command-line tools for the WTNC dependability framework.
//!
//! ```text
//! wtnc asm <file.s>                assemble and list a program
//! wtnc run <file.s> [opts]         execute a program on the machine
//! wtnc pecos <file.s> [opts]       instrument with PECOS and report
//! wtnc audit-demo                  inject → detect → repair walkthrough
//! wtnc audit [opts]                steady-state cycles: findings,
//!                                  records and wall time per cycle
//! wtnc recover [opts]              staged detect → diagnose → repair
//!                                  → verify walkthrough
//! wtnc supervise                   process hang/crash → detect →
//!                                  warm-restart walkthrough
//! wtnc store <sub> [opts]          durable-store tools: checkpoint,
//!                                  warm replay, integrity verify
//! wtnc campaign <db|text> [opts]   run a fault-injection campaign
//! ```
//!
//! Argument parsing is deliberately hand-rolled: the tool has a few
//! fixed subcommands and a handful of `--flag value` options, which
//! does not justify a dependency.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "asm" => commands::asm(rest),
        "run" => commands::run(rest),
        "trace" => commands::trace(rest),
        "pecos" => commands::pecos(rest),
        "audit" => commands::audit(rest),
        "audit-demo" => commands::audit_demo(rest),
        "recover" => commands::recover(rest),
        "supervise" => commands::supervise(rest),
        "store" => commands::store(rest),
        "campaign" => commands::campaign(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("wtnc: {message}");
            ExitCode::FAILURE
        }
    }
}
