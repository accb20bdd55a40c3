//! Rendering: findings and the atomic inventory as aligned text tables
//! or JSON.
//!
//! JSON is hand-rolled (the workspace has no serialization dependency,
//! and the linter is deliberately dependency-free); the escaping follows
//! the same minimal-but-correct approach as
//! `selfstab_analysis::table::json_string`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::engine::{AtomicSite, Finding};
use crate::rules::Family;

/// Output format of both subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-oriented aligned table.
    Table,
    /// Machine-oriented JSON object on stdout.
    Json,
}

impl Format {
    /// Parses the `--format` argument.
    pub fn parse(value: &str) -> Option<Format> {
        match value {
            "table" => Some(Format::Table),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// Per-rule finding counts, with zeros for silent families so consumers
/// can `jq` any family unconditionally.
pub fn summarize(findings: &[Finding]) -> BTreeMap<String, usize> {
    let mut summary: BTreeMap<String, usize> = BTreeMap::new();
    for family in Family::ALL {
        summary.insert(family.id().to_string(), 0);
    }
    summary.insert("lint-escape".to_string(), 0);
    for finding in findings {
        *summary.entry(finding.rule.clone()).or_insert(0) += 1;
    }
    summary
}

/// Renders the `check` report.
pub fn render_check(findings: &[Finding], files_scanned: usize, format: Format) -> String {
    match format {
        Format::Table => render_check_table(findings, files_scanned),
        Format::Json => render_check_json(findings, files_scanned),
    }
}

fn render_check_table(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    if findings.is_empty() {
        let _ = writeln!(
            out,
            "selfstab-lint: clean — 0 findings across {files_scanned} files"
        );
        return out;
    }
    let mut rows: Vec<[String; 3]> = Vec::new();
    for f in findings {
        rows.push([
            format!("{}:{}", f.file, f.line),
            f.rule.clone(),
            format!("{} — {}", f.construct, f.message),
        ]);
    }
    let widths = column_widths(&rows);
    for row in &rows {
        let _ = writeln!(
            out,
            "{:w0$}  {:w1$}  {}",
            row[0],
            row[1],
            row[2],
            w0 = widths[0],
            w1 = widths[1]
        );
    }
    let _ = writeln!(out);
    for (rule, count) in summarize(findings) {
        if count > 0 {
            let _ = writeln!(out, "{rule}: {count}");
        }
    }
    let _ = writeln!(
        out,
        "selfstab-lint: {} finding(s) across {files_scanned} files",
        findings.len()
    );
    out
}

fn render_check_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": \"selfstab-lint\",");
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"construct\": {}, \"message\": {}}}",
            json_string(&f.rule),
            json_string(&f.file),
            f.line,
            json_string(&f.construct),
            json_string(&f.message)
        );
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"summary\": {");
    let summary = summarize(findings);
    for (i, (rule, count)) in summary.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {count}", json_string(rule));
    }
    let _ = write!(out, ", \"total\": {}", findings.len());
    out.push_str("}\n}\n");
    out
}

/// Renders the `atomics` inventory.
pub fn render_atomics(sites: &[AtomicSite], files_scanned: usize, format: Format) -> String {
    match format {
        Format::Table => render_atomics_table(sites, files_scanned),
        Format::Json => render_atomics_json(sites, files_scanned),
    }
}

fn render_atomics_table(sites: &[AtomicSite], files_scanned: usize) -> String {
    let mut out = String::new();
    let mut rows: Vec<[String; 3]> = Vec::new();
    for s in sites {
        rows.push([
            format!("{}:{}", s.file, s.line),
            s.ordering.clone(),
            s.justification
                .clone()
                .unwrap_or_else(|| "(UNJUSTIFIED)".to_string()),
        ]);
    }
    let widths = column_widths(&rows);
    for row in &rows {
        let _ = writeln!(
            out,
            "{:w0$}  {:w1$}  {}",
            row[0],
            row[1],
            row[2],
            w0 = widths[0],
            w1 = widths[1]
        );
    }
    let justified = sites.iter().filter(|s| s.justification.is_some()).count();
    let _ = writeln!(
        out,
        "\n{} atomic-ordering site(s) across {files_scanned} files, {justified} justified",
        sites.len()
    );
    out
}

fn render_atomics_json(sites: &[AtomicSite], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": \"selfstab-lint\",");
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    out.push_str("  \"sites\": [");
    for (i, s) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let justification = match &s.justification {
            Some(text) => json_string(text),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "\n    {{\"file\": {}, \"line\": {}, \"ordering\": {}, \"justified\": {}, \"justification\": {}, \"context\": {}}}",
            json_string(&s.file),
            s.line,
            json_string(&s.ordering),
            s.justification.is_some(),
            justification,
            json_string(&s.context)
        );
    }
    if !sites.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    let justified = sites.iter().filter(|s| s.justification.is_some()).count();
    let _ = writeln!(out, "  \"total\": {},", sites.len());
    let _ = writeln!(out, "  \"justified\": {justified}");
    out.push_str("}\n");
    out
}

/// Renders the rule table (`rules` subcommand) for docs and discovery.
pub fn render_rules() -> String {
    let mut out = String::new();
    let mut rows: Vec<[String; 3]> = Vec::new();
    for rule in crate::rules::RULES {
        rows.push([
            rule.family.id().to_string(),
            rule.construct.to_string(),
            rule.message.to_string(),
        ]);
    }
    let widths = column_widths(&rows);
    for row in &rows {
        let _ = writeln!(
            out,
            "{:w0$}  {:w1$}  {}",
            row[0],
            row[1],
            row[2],
            w0 = widths[0],
            w1 = widths[1]
        );
    }
    let _ = writeln!(
        out,
        "\nescape syntax: // lint: allow(<rule>[, <rule>]) — <reason (mandatory)>"
    );
    let _ = writeln!(
        out,
        "atomic justification: an adjacent comment containing `ordering: <why>`"
    );
    out
}

fn column_widths(rows: &[[String; 3]]) -> [usize; 2] {
    let mut widths = [0usize; 2];
    for row in rows {
        widths[0] = widths[0].max(row[0].len());
        widths[1] = widths[1].max(row[1].len());
    }
    widths
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, line: u32) -> Finding {
        Finding {
            rule: rule.to_string(),
            construct: "Vec::new".to_string(),
            file: "crates/x/src/lib.rs".to_string(),
            line,
            message: "msg with \"quotes\" and \\ backslash".to_string(),
        }
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let findings = vec![finding("hot-alloc", 3), finding("determinism", 9)];
        let json = render_check_json(&findings, 12);
        assert!(json.contains("\"files_scanned\": 12"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"hot-alloc\": 1"));
        assert!(json.contains("\"total\": 2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_findings_render_empty_array() {
        let json = render_check_json(&[], 12);
        assert!(json.contains("\"findings\": [],"));
        assert!(json.contains("\"total\": 0"));
    }

    #[test]
    fn summary_always_lists_every_family() {
        let summary = summarize(&[]);
        for family in Family::ALL {
            assert_eq!(summary.get(family.id()), Some(&0));
        }
        assert_eq!(summary.get("lint-escape"), Some(&0));
    }

    #[test]
    fn atomics_json_marks_unjustified_sites() {
        let sites = vec![AtomicSite {
            file: "f.rs".to_string(),
            line: 1,
            ordering: "Relaxed".to_string(),
            context: "x.load(Ordering::Relaxed)".to_string(),
            justification: None,
        }];
        let json = render_atomics_json(&sites, 1);
        assert!(json.contains("\"justified\": false"));
        assert!(json.contains("\"justification\": null"));
        assert!(json.contains("\"justified\": 0"));
    }
}
