//! Campaign parity snapshot.
//!
//! Every campaign runs on a virtual clock from fixed seeds, so a
//! refactor that means to keep behaviour must leave each campaign's
//! result byte-identical. This test renders the `{:?}` of the db,
//! priority, recovery, process, storm and powerfail campaign results
//! at small run counts and short durations and compares the text with
//! the committed snapshot `snapshots/campaign_parity.txt`.
//!
//! A change that means to move these outputs edits the snapshot and
//! says why. On a mismatch the rendered text is written next to the
//! test binary's scratch files so it can be diffed against the
//! snapshot.

use std::fmt::Write as _;

use wtnc_inject::db_campaign::{self, DbCampaignConfig};
use wtnc_inject::powerfail_campaign::{self, PowerFailModel};
use wtnc_inject::priority_campaign::{self, PriorityCampaignConfig};
use wtnc_inject::process_campaign::{self, ProcessCampaignConfig, ProcessFaultModel};
use wtnc_inject::recovery_campaign::{self, RecoveryCampaignConfig};
use wtnc_inject::storm_campaign::{self, StormCampaignConfig, StormModel};
use wtnc_sim::SimDuration;

const SNAPSHOT: &str = include_str!("snapshots/campaign_parity.txt");

fn render() -> String {
    let mut out = String::new();

    let db =
        DbCampaignConfig { duration: SimDuration::from_secs(300), ..DbCampaignConfig::default() };
    writeln!(out, "db: {:?}", db_campaign::run_campaign(&db, 2)).unwrap();
    // The uninstrumented node: no audit tick, cold restarts on a
    // refused arrival.
    let no_audit = DbCampaignConfig { audits: false, ..db };
    writeln!(out, "db audits=false: {:?}", db_campaign::run_campaign(&no_audit, 2)).unwrap();
    // A 2 s error gap, so every element attribution (the selective
    // element's too) shows up in the breakdown.
    let selective =
        DbCampaignConfig { selective_monitoring: true, error_iat: SimDuration::from_secs(2), ..db };
    let r = db_campaign::run_campaign(&selective, 2);
    writeln!(out, "db selective_monitoring=true: {r:?}").unwrap();

    for (prioritized, proportional_errors) in [(true, false), (false, true)] {
        let cfg = PriorityCampaignConfig {
            prioritized,
            proportional_errors,
            duration: SimDuration::from_secs(60),
            scale: 40,
            ..PriorityCampaignConfig::default()
        };
        let r = priority_campaign::run_campaign(&cfg, 2);
        writeln!(
            out,
            "priority prioritized={prioritized} proportional={proportional_errors}: {r:?}"
        )
        .unwrap();
    }

    let recovery = RecoveryCampaignConfig {
        duration: SimDuration::from_secs(300),
        error_iat: SimDuration::from_secs(5),
        ..RecoveryCampaignConfig::default()
    };
    writeln!(out, "recovery: {:?}", recovery_campaign::run_campaign(&recovery, 2)).unwrap();

    for model in ProcessFaultModel::ALL {
        let cfg = ProcessCampaignConfig {
            duration: SimDuration::from_secs(200),
            fault_iat: SimDuration::from_secs(30),
            model,
            ..ProcessCampaignConfig::default()
        };
        let r = process_campaign::run_campaign(&cfg, 1);
        writeln!(out, "process {}: {r:?}", model.name()).unwrap();
    }

    for model in StormModel::ALL {
        for isolation in [true, false] {
            let cfg = StormCampaignConfig {
                duration: SimDuration::from_secs(60),
                model,
                isolation,
                ..StormCampaignConfig::default()
            };
            let r = storm_campaign::run_campaign(&cfg, 1);
            writeln!(out, "storm {} isolation={isolation}: {r:?}", model.name()).unwrap();
        }
    }

    for model in PowerFailModel::ALL {
        let r = powerfail_campaign::run_campaign(model, 2);
        writeln!(out, "powerfail {}: {r:?}", model.name()).unwrap();
    }

    out
}

#[test]
fn campaign_results_match_the_committed_snapshot() {
    let actual = render();
    if actual == SNAPSHOT {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("campaign_parity.actual.txt");
    std::fs::write(&path, &actual).expect("write the rendered campaign results");
    let first = actual
        .lines()
        .zip(SNAPSHOT.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(SNAPSHOT.lines().count()));
    panic!(
        "campaign results differ from tests/snapshots/campaign_parity.txt at line {}:\n  \
         actual:   {}\n  expected: {}\nfull rendering written to {}",
        first + 1,
        actual.lines().nth(first).unwrap_or("<end of output>"),
        SNAPSHOT.lines().nth(first).unwrap_or("<end of snapshot>"),
        path.display()
    );
}
