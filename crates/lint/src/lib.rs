//! `selfstab-lint` — the workspace invariant checker.
//!
//! The executor's correctness story rests on invariants that the test
//! suite checks *dynamically*: the zero-allocation hot path (counting
//! global allocator), byte-identical determinism at every campaign thread
//! count (differential harnesses), and carefully justified atomic
//! orderings in the campaign claim loop and the wait-free metrics
//! registry. Those tests prove the regimes they drive; this crate makes
//! the *source* unable to express a violation unflagged, so review-time
//! coverage extends to paths no test regime exercises.
//!
//! Architecture, bottom to top:
//!
//! * [`lexer`] — a lossless, total, dependency-free Rust lexer (raw
//!   strings, nested block comments, char-vs-lifetime disambiguation);
//! * [`rules`] — the declarative rule table: three families
//!   (`hot-alloc`, `determinism`, `atomic-audit`), each a set of token
//!   patterns plus a path scope;
//! * [`engine`] — applies the table to one file: scoping,
//!   `#[cfg(test)]` exemptions, `// lint: allow(<rule>) — <reason>`
//!   escapes (reason mandatory), `// ordering:` justifications, and the
//!   atomic-site inventory;
//! * [`walk`] + [`lint_workspace`] — file discovery and the
//!   whole-workspace driver the CLI and the self-lint test share;
//! * [`report`] — table/JSON rendering.
//!
//! The binary (`src/main.rs`) exposes `check`, `atomics` and `rules`
//! subcommands; CI gates merges on `check --format json` reporting zero
//! findings and uploads the `atomics` inventory as a review artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use engine::{AtomicSite, Finding};

/// The result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// All atomic-ordering sites, sorted by (file, line).
    pub atomic_sites: Vec<AtomicSite>,
}

/// Lints every workspace `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let files = walk::rust_files(root)?;
    let mut report = WorkspaceReport {
        files_scanned: files.len(),
        ..WorkspaceReport::default()
    };
    for rel_path in &files {
        let source = fs::read_to_string(root.join(rel_path))?;
        let file_report = engine::lint_source(rel_path, &source);
        report.findings.extend(file_report.findings);
        report.atomic_sites.extend(file_report.atomic_sites);
    }
    // Files are walked in sorted order and per-file results are in line
    // order, so a stable sort here is belt-and-braces determinism.
    report
        .findings
        .sort_by(|a, b| a.file.cmp(&b.file).then_with(|| a.line.cmp(&b.line)));
    report
        .atomic_sites
        .sort_by(|a, b| a.file.cmp(&b.file).then_with(|| a.line.cmp(&b.line)));
    Ok(report)
}
