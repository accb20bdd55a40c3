//! The linter's acceptance gate, inverted: the workspace must lint
//! clean, so `cargo test` fails the moment anyone introduces an
//! unescaped hot-path allocation, a nondeterminism source, an
//! unjustified atomic ordering, or a reasonless escape. This is the same
//! check CI runs via `selfstab-lint check --format json`; having it in
//! the test suite means plain `cargo test` catches regressions locally.

use std::path::Path;

use selfstab_lint::{lint_workspace, walk};

fn workspace_root() -> std::path::PathBuf {
    walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the lint crate lives inside the workspace")
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walk broken?",
        report.files_scanned
    );
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{}:{} [{}] {} — {}",
                f.file, f.line, f.rule, f.construct, f.message
            )
        })
        .collect();
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_atomic_site_is_justified() {
    let report = lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    assert!(
        !report.atomic_sites.is_empty(),
        "the workspace is known to use atomics (metrics registry, campaign claim loop)"
    );
    let unjustified: Vec<String> = report
        .atomic_sites
        .iter()
        .filter(|s| s.justification.is_none())
        .map(|s| {
            format!(
                "{}:{} Ordering::{} — {}",
                s.file, s.line, s.ordering, s.context
            )
        })
        .collect();
    assert!(
        unjustified.is_empty(),
        "every Ordering::* site needs an adjacent `// ordering:` comment:\n{}",
        unjustified.join("\n")
    );
}

#[test]
fn inventory_covers_the_known_atomic_hotspots() {
    let report = lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    for expected in [
        "crates/runtime/src/telemetry/metrics.rs",
        "crates/analysis/src/campaign.rs",
        "crates/runtime/tests/zero_alloc.rs",
    ] {
        assert!(
            report.atomic_sites.iter().any(|s| s.file == expected),
            "expected atomic sites in {expected} — scope regression?"
        );
    }
}
