//! The `--quick` tables against their committed golden file.
//!
//! `crates/analysis/golden/quick_tables.json` is the `tables` array of
//! `experiments --quick --format json`, pretty-printed by `jq .tables`. A
//! change that alters a quick table regenerates that file and says why;
//! this test makes `cargo test` fail until it does.

use selfstab_analysis::experiments::{self, ExperimentConfig};

/// `json` without the whitespace outside its string literals.
fn squeeze(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in json.chars() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c == '"' {
            in_string = true;
        } else if c.is_whitespace() {
            continue;
        }
        out.push(c);
    }
    out
}

#[test]
fn quick_tables_match_the_golden_file() {
    let golden = squeeze(include_str!("../golden/quick_tables.json"));
    // Walk the golden array table by table, so a failure names the first
    // table that changed.
    let mut rest = golden.strip_prefix('[').expect("a JSON array");
    for table in experiments::run_all(&ExperimentConfig::quick()) {
        rest = rest
            .strip_prefix(squeeze(&table.to_json()).as_str())
            .unwrap_or_else(|| panic!("{} differs from golden/quick_tables.json", table.id));
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    assert_eq!(rest, "]", "golden/quick_tables.json holds more tables");
}
