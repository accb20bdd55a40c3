//! Output checks of the `paper-suite` tables: every claim, bound and oracle
//! column must hold, with zero timeouts.

use selfstab_analysis::ExperimentTable;

/// What a checked column must read.
#[derive(Clone, Copy)]
enum Expect {
    /// Exactly this text.
    Is(&'static str),
    /// `a/b` with `a == b > 0` (stabilized runs that passed the oracle).
    AllRuns,
    /// At most 1 (0 when a run was silent from the start) on rows whose
    /// protocol is not a Δ-efficient baseline.
    OneEfficient,
    /// `1.00` on rows of the 1-efficient MIS.
    OneReadPerRound,
    /// The leading number is at most the row's numeric `bound` column.
    WithinBoundColumn,
}

/// Checked columns: (table id, or `*` for every table that has the
/// column; header; expectation). A rule naming a table fails when its
/// column is missing, so a renamed column cannot pass silently.
const RULES: &[(&str, &str, Expect)] = &[
    ("*", "within bound", Expect::Is("true")),
    ("*", "bound satisfied", Expect::Is("true")),
    ("*", "timeouts", Expect::Is("0")),
    ("E1", "measured k", Expect::OneEfficient),
    ("E2", "max k", Expect::OneEfficient),
    ("E3", "MIS in every silent config", Expect::Is("true")),
    (
        "E5",
        "maximal matching in every silent config",
        Expect::Is("true"),
    ),
    ("E7/E8", "violates predicate", Expect::Is("true")),
    ("E7/E8", "silent", Expect::Is("true")),
    ("E7/E8", "ever escaped", Expect::Is("false")),
    ("E9", "steady reads/process/round", Expect::OneReadPerRound),
    ("E10", "max k", Expect::OneEfficient),
    ("E11", "measured", Expect::WithinBoundColumn),
    ("E12", "oracle ok", Expect::AllRuns),
    ("E13", "leader+tree ok", Expect::AllRuns),
    ("E13", "suffix k", Expect::OneEfficient),
];

/// Table ids the suite must produce, in registry order.
pub const TABLE_IDS: [&str; 13] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7/E8", "E9", "E10", "E11", "E12", "E13", "E14",
];

fn cell<'a>(table: &'a ExperimentTable, row: &'a [String], header: &str) -> Option<&'a str> {
    let column = table.headers.iter().position(|h| h == header)?;
    row.get(column).map(String::as_str)
}

fn holds(table: &ExperimentTable, row: &[String], value: &str, expect: Expect) -> bool {
    let protocol = cell(table, row, "protocol").unwrap_or("");
    match expect {
        Expect::Is(text) => value == text,
        Expect::AllRuns => value
            .split_once('/')
            .is_some_and(|(ok, runs)| ok == runs && runs.parse::<u64>().is_ok_and(|r| r > 0)),
        Expect::OneEfficient => {
            protocol.contains("baseline") || value.parse::<u64>().is_ok_and(|k| k <= 1)
        }
        Expect::OneReadPerRound => protocol != "mis-1-efficient" || value == "1.00",
        Expect::WithinBoundColumn => {
            let leading = |text: &str| {
                text.split_whitespace()
                    .next()
                    .and_then(|word| word.parse::<f64>().ok())
            };
            match cell(table, row, "bound").and_then(leading) {
                Some(bound) => leading(value).is_some_and(|measured| measured <= bound),
                None => true,
            }
        }
    }
}

/// Every violated claim of the suite's tables, as readable messages; empty
/// when the suite's output is correct.
pub fn violations(tables: &[ExperimentTable]) -> Vec<String> {
    let mut found = Vec::new();
    let ids: Vec<&str> = tables.iter().map(|t| t.id.as_str()).collect();
    if ids != TABLE_IDS {
        found.push(format!("expected tables {TABLE_IDS:?}, got {ids:?}"));
    }
    for table in tables {
        let mut checked_columns = 0;
        for &(id, header, expect) in RULES {
            let has_column = table.headers.iter().any(|h| h == header);
            if id == "*" && !has_column {
                continue;
            }
            if id != "*" && id != table.id {
                continue;
            }
            if !has_column {
                found.push(format!(
                    "{}: checked column `{header}` is missing",
                    table.id
                ));
                continue;
            }
            checked_columns += 1;
            for row in &table.rows {
                let value = cell(table, row, header).unwrap_or("");
                if !holds(table, row, value, expect) {
                    found.push(format!(
                        "{}: `{header}` = `{value}` in row {}",
                        table.id,
                        row.join(" | ")
                    ));
                }
            }
        }
        if checked_columns == 0 || table.rows.is_empty() {
            found.push(format!("{}: no checked rows", table.id));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_analysis::experiments::{self, ExperimentConfig};

    fn quick_tables() -> Vec<ExperimentTable> {
        experiments::run_all(&ExperimentConfig::quick().with_threads(1))
    }

    #[test]
    fn the_quick_suite_passes_every_check() {
        assert_eq!(violations(&quick_tables()), Vec::<String>::new());
    }

    #[test]
    fn a_broken_claim_is_reported() {
        let mut tables = quick_tables();
        let e3 = tables.iter_mut().find(|t| t.id == "E3").expect("E3 runs");
        let column = e3
            .headers
            .iter()
            .position(|h| h == "within bound")
            .expect("E3 has a bound column");
        e3.rows[0][column] = "false".to_string();
        let found = violations(&tables);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("E3: `within bound` = `false`"));
    }

    #[test]
    fn a_missing_column_or_table_is_reported() {
        let mut tables = quick_tables();
        let e12 = tables.iter_mut().find(|t| t.id == "E12").expect("E12 runs");
        for header in &mut e12.headers {
            if header == "oracle ok" {
                *header = "oracle".to_string();
            }
        }
        tables.pop();
        let found = violations(&tables);
        assert!(found.iter().any(|f| f.starts_with("expected tables")));
        assert!(found.iter().any(|f| f.contains("`oracle ok` is missing")));
    }

    #[test]
    fn expectations_read_the_row_context() {
        let mut table = ExperimentTable::new("E10", "t", vec!["protocol", "max k", "bound"]);
        table.push_row(vec!["coloring-baseline-delta-efficient".into(), "4".into()]);
        table.push_row(vec!["coloring-1-efficient".into(), "1".into()]);
        let baseline = table.rows[0].clone();
        let efficient = table.rows[1].clone();
        assert!(holds(&table, &baseline, "4", Expect::OneEfficient));
        assert!(!holds(&table, &efficient, "2", Expect::OneEfficient));
        assert!(holds(&table, &efficient, "0", Expect::OneEfficient));
        assert!(holds(&table, &efficient, "3/3", Expect::AllRuns));
        assert!(!holds(&table, &efficient, "2/3", Expect::AllRuns));
        assert!(!holds(&table, &efficient, "0/0", Expect::AllRuns));
        let mut bounded = ExperimentTable::new("E11", "t", vec!["bound", "measured"]);
        bounded.push_row(vec!["8".into(), "2.0 rounds".into()]);
        bounded.push_row(vec!["-".into(), "12.7 ± 1.2 (max 14)".into()]);
        let rows = bounded.rows.clone();
        assert!(holds(
            &bounded,
            &rows[0],
            "2.0 rounds",
            Expect::WithinBoundColumn
        ));
        assert!(!holds(
            &bounded,
            &rows[0],
            "9.5 rounds",
            Expect::WithinBoundColumn
        ));
        assert!(holds(
            &bounded,
            &rows[1],
            "12.7 ± 1.2 (max 14)",
            Expect::WithinBoundColumn
        ));
    }
}
