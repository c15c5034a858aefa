//! System-wide coverage estimation (§6.1.4, Table 10).
//!
//! The paper combines the client-side campaign (random text injection,
//! Table 9) with the database campaign (Table 3) under an assumed
//! error mix — 25% of errors hit the client, 75% hit the database,
//! from the relative sizes of the client text segment and the database
//! memory image. Coverage is `100% − (system detection + fail-silence
//! violation + hang)%` for the client and `(caught + no effect)%` for
//! the database.

use crate::db_campaign::DbCampaignResult;
use crate::outcome::OutcomeCounts;

/// One column of Table 10.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageColumn {
    /// Column label (e.g. "With PECOS / With Audit").
    pub name: String,
    /// Client-only coverage (percent of activated client errors).
    pub client: f64,
    /// Database-only coverage (percent of injected database errors).
    pub database: f64,
    /// Mixed coverage under the configured client fraction.
    pub combined: f64,
}

/// The full Table 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Table10 {
    /// Fraction of errors assumed to hit the client (paper: 0.25).
    pub client_fraction: f64,
    /// The four configuration columns.
    pub columns: Vec<CoverageColumn>,
}

/// Builds Table 10 from the four client campaign columns (Table 9
/// order: −/−, −/A, P/−, P/A) and the two database campaigns.
///
/// # Panics
///
/// Panics if `client_columns` does not have exactly four entries or
/// `client_fraction` is outside `[0, 1]`.
pub fn table10(
    client_columns: &[(String, OutcomeCounts)],
    db_without_audit: &DbCampaignResult,
    db_with_audit: &DbCampaignResult,
    client_fraction: f64,
) -> Table10 {
    assert_eq!(client_columns.len(), 4, "four campaign columns expected");
    assert!((0.0..=1.0).contains(&client_fraction), "client fraction must be a probability");
    let db_cov = |r: &DbCampaignResult| r.caught_pct() + r.no_effect_pct();
    let db_coverage = [
        db_cov(db_without_audit), // without audit
        db_cov(db_with_audit),    // with audit
        db_cov(db_without_audit),
        db_cov(db_with_audit),
    ];
    let columns = client_columns
        .iter()
        .zip(db_coverage.iter())
        .map(|((name, counts), &database)| {
            let client = counts.coverage();
            CoverageColumn {
                name: name.clone(),
                client,
                database,
                combined: client_fraction * client + (1.0 - client_fraction) * database,
            }
        })
        .collect();
    Table10 { client_fraction, columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::RunOutcome;

    fn counts(notman: u64, pecos: u64, audit: u64, system: u64, fsv: u64) -> OutcomeCounts {
        let mut c = OutcomeCounts::new();
        for _ in 0..notman {
            c.record(RunOutcome::NotManifested);
        }
        for _ in 0..pecos {
            c.record(RunOutcome::PecosDetection);
        }
        for _ in 0..audit {
            c.record(RunOutcome::AuditDetection);
        }
        for _ in 0..system {
            c.record(RunOutcome::SystemDetection);
        }
        for _ in 0..fsv {
            c.record(RunOutcome::FailSilenceViolation);
        }
        c
    }

    fn db(caught_pct: f64, no_effect_pct: f64) -> DbCampaignResult {
        DbCampaignResult {
            injected: 1000,
            caught: (caught_pct * 10.0) as u64,
            overwritten: (no_effect_pct * 10.0) as u64,
            escaped: 1000 - (caught_pct * 10.0) as u64 - (no_effect_pct * 10.0) as u64,
            ..DbCampaignResult::default()
        }
    }

    #[test]
    fn reproduces_the_papers_arithmetic() {
        // Paper Table 10: client coverages 28 / 33 / 57 / 58,
        // database coverages 37 / 87 / 37 / 87, mix 25/75 →
        // 35 / 73 / 42 / 80 (rounded).
        let columns = vec![
            ("--".to_owned(), counts(28, 0, 0, 66, 6)),
            ("-A".to_owned(), counts(26, 0, 7, 61, 6)),
            ("P-".to_owned(), counts(12, 45, 0, 41, 2)),
            ("PA".to_owned(), counts(7, 49, 2, 39, 3)),
        ];
        let t = table10(&columns, &db(0.0, 37.0), &db(85.0, 2.0), 0.25);
        let combined: Vec<f64> = t.columns.iter().map(|c| c.combined).collect();
        assert!((combined[0] - 35.0).abs() < 2.0, "{combined:?}");
        assert!((combined[1] - 73.0).abs() < 2.0, "{combined:?}");
        assert!((combined[2] - 42.0).abs() < 2.0, "{combined:?}");
        assert!((combined[3] - 80.0).abs() < 2.0, "{combined:?}");
        // Both-techniques column dominates.
        assert!(combined[3] > combined[1] && combined[3] > combined[2]);
    }

    #[test]
    #[should_panic(expected = "four campaign columns")]
    fn wrong_column_count_panics() {
        let _ = table10(&[], &db(0.0, 37.0), &db(85.0, 2.0), 0.25);
    }
}
