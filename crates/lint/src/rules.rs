//! The declarative rule table.
//!
//! Every rule is data: a token pattern, a rule family, a message, and a
//! path scope. The engine (`engine.rs`) walks each file's significant
//! tokens once and tries every pattern at every position — rule authors
//! add a row here, not code there. Paths are workspace-relative with `/`
//! separators.
//!
//! Three families, each pairing with a *dynamic* enforcement regime that
//! already exists in the workspace:
//!
//! * **hot-alloc** — allocation-prone constructs inside the designated
//!   hot-path modules. The counting-allocator test
//!   (`crates/runtime/tests/zero_alloc.rs`) proves steady-state stepping
//!   allocates nothing, but only on the regimes it drives; this rule
//!   covers every line of the hot modules at review time. Construction
//!   or cold paths carry `// lint: allow(hot-alloc) — <reason>`.
//! * **determinism** — wall-clock reads, hash-order iteration and
//!   unseeded randomness in result-producing crates. The differential
//!   harness (`determinism.rs`) proves byte-identical tables at every
//!   thread count; this rule bans the
//!   constructs that would make such a failure data-dependent and flaky
//!   instead of deterministic.
//! * **atomic-audit** — every `Ordering::*` site must justify itself
//!   with an adjacent `// ordering:` comment (see `engine.rs`); the
//!   binary's `atomics` subcommand emits the full inventory.

/// One element of a token pattern, matched against *significant* tokens
/// (whitespace and comments skipped, string/char contents opaque).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pat {
    /// An identifier with exactly this text.
    Id(&'static str),
    /// An identifier out of this set (the match reports which).
    IdIn(&'static [&'static str]),
    /// A single punctuation byte.
    P(char),
}

/// The three rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Allocation-prone constructs in hot-path modules.
    HotAlloc,
    /// Nondeterminism sources in result-producing crates.
    Determinism,
    /// `Ordering::*` sites requiring `// ordering:` justifications.
    AtomicAudit,
}

impl Family {
    /// The rule id used in reports and `lint: allow(...)` escapes.
    pub fn id(self) -> &'static str {
        match self {
            Family::HotAlloc => "hot-alloc",
            Family::Determinism => "determinism",
            Family::AtomicAudit => "atomic-audit",
        }
    }

    /// All families, for `rules` listings and escape validation.
    pub const ALL: [Family; 3] = [Family::HotAlloc, Family::Determinism, Family::AtomicAudit];

    /// Whether the family's rules also apply inside `#[cfg(test)]`
    /// modules. Hot-path and determinism rules exempt test code (tests
    /// allocate and time freely); the atomic audit does not — test
    /// atomics (the counting allocator's counters) need justifying too.
    pub fn applies_in_test_code(self) -> bool {
        matches!(self, Family::AtomicAudit)
    }

    /// Whether a file at this workspace-relative path is in the
    /// family's scope.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Family::HotAlloc => HOT_PATH_MODULES.contains(&path),
            Family::Determinism => {
                DETERMINISM_CRATES.iter().any(|root| path.starts_with(root))
                    && !path.contains("/tests/")
                    && !path.contains("/benches/")
                    && !path.contains("/examples/")
            }
            // The audit covers first-party code everywhere, test and
            // bench targets included (walk.rs already excludes vendor/).
            Family::AtomicAudit => true,
        }
    }
}

/// The designated hot-path modules: the files whose steady-state code the
/// zero-allocation regime covers. `telemetry/wire.rs` is the trace's
/// encode path (a recording step encodes into the trace's buffer, which
/// allocates only to grow) and its one parser, which allocates nothing
/// (replay parses every recorded step through it); `trace.rs` defines the
/// decoded record types and builds them, for tests and divergence
/// messages, so it is deliberately absent.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/runtime/src/executor.rs",
    "crates/runtime/src/view.rs",
    "crates/runtime/src/faults.rs",
    "crates/runtime/src/telemetry/wire.rs",
    "crates/graph/src/csr.rs",
];

/// Crate roots whose library/binary sources produce results (tables,
/// traces, stats) and therefore must be deterministic.
pub const DETERMINISM_CRATES: &[&str] = &[
    "crates/graph/src/",
    "crates/core/src/",
    "crates/runtime/src/",
    "crates/analysis/src/",
];

/// One row of the rule table.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The family (and thereby id, scope, and escape name).
    pub family: Family,
    /// Short name of the matched construct, e.g. `Vec::new`.
    pub construct: &'static str,
    /// The token pattern.
    pub pattern: &'static [Pat],
    /// Why the construct is flagged — shown with every finding.
    pub message: &'static str,
}

use Family::{AtomicAudit, Determinism, HotAlloc};
use Pat::{Id, IdIn, P};

/// The memory orderings the atomic audit inventories.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The full rule table. Order is cosmetic (findings sort by file/line).
pub const RULES: &[Rule] = &[
    // -- hot-alloc ------------------------------------------------------
    Rule {
        family: HotAlloc,
        construct: "Vec::new",
        pattern: &[Id("Vec"), P(':'), P(':'), Id("new")],
        message: "heap vector construction on a hot-path module; hoist to setup or reuse scratch",
    },
    Rule {
        family: HotAlloc,
        construct: "vec![",
        pattern: &[Id("vec"), P('!')],
        message: "vec! allocates; hoist to setup or reuse scratch",
    },
    Rule {
        family: HotAlloc,
        construct: ".clone()",
        pattern: &[P('.'), Id("clone"), P('(')],
        message: "clone on a hot-path module usually copies a heap structure; borrow or reuse",
    },
    Rule {
        family: HotAlloc,
        construct: ".collect",
        pattern: &[P('.'), Id("collect")],
        message: "collect materializes a fresh container; write into a reused buffer instead",
    },
    Rule {
        family: HotAlloc,
        construct: ".to_vec()",
        pattern: &[P('.'), Id("to_vec"), P('(')],
        message: "to_vec copies into a fresh allocation; borrow the slice or reuse a buffer",
    },
    Rule {
        family: HotAlloc,
        construct: "Box::new",
        pattern: &[Id("Box"), P(':'), P(':'), Id("new")],
        message: "boxing allocates; hot-path values should live inline or in arenas",
    },
    Rule {
        family: HotAlloc,
        construct: "format!",
        pattern: &[Id("format"), P('!')],
        message: "format! builds a String; hot paths must not format",
    },
    Rule {
        family: HotAlloc,
        construct: "String::from",
        pattern: &[Id("String"), P(':'), P(':'), Id("from")],
        message: "String construction allocates; hot paths must not build strings",
    },
    // -- determinism ----------------------------------------------------
    Rule {
        family: Determinism,
        construct: "HashMap",
        pattern: &[Id("HashMap")],
        message: "HashMap iteration order is randomized per process; use BTreeMap or sorted vecs",
    },
    Rule {
        family: Determinism,
        construct: "HashSet",
        pattern: &[Id("HashSet")],
        message: "HashSet iteration order is randomized per process; use BTreeSet or sorted vecs",
    },
    Rule {
        family: Determinism,
        construct: "Instant::now",
        pattern: &[Id("Instant"), P(':'), P(':'), Id("now")],
        message: "wall-clock reads make results machine-dependent; results must be pure in (inputs, seed)",
    },
    Rule {
        family: Determinism,
        construct: "SystemTime",
        pattern: &[Id("SystemTime")],
        message: "wall-clock reads make results machine-dependent; results must be pure in (inputs, seed)",
    },
    Rule {
        family: Determinism,
        construct: "thread::current",
        pattern: &[Id("thread"), P(':'), P(':'), Id("current")],
        message: "thread identity varies run to run; results must not observe which thread computed them",
    },
    Rule {
        family: Determinism,
        construct: "thread_rng",
        pattern: &[Id("thread_rng")],
        message: "unseeded RNG; every random stream must derive from an explicit seed",
    },
    Rule {
        family: Determinism,
        construct: "from_entropy",
        pattern: &[Id("from_entropy")],
        message: "unseeded RNG; every random stream must derive from an explicit seed",
    },
    Rule {
        family: Determinism,
        construct: "rand::random",
        pattern: &[Id("rand"), P(':'), P(':'), Id("random")],
        message: "unseeded RNG; every random stream must derive from an explicit seed",
    },
    // -- atomic-audit ---------------------------------------------------
    Rule {
        family: AtomicAudit,
        construct: "Ordering::*",
        pattern: &[Id("Ordering"), P(':'), P(':'), IdIn(ORDERINGS)],
        message: "atomic ordering without an adjacent `// ordering:` justification comment",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_has_rules() {
        for family in Family::ALL {
            assert!(
                RULES.iter().any(|r| r.family == family),
                "family {} has no rules",
                family.id()
            );
        }
    }

    #[test]
    fn hot_path_scope_is_exact_files() {
        assert!(Family::HotAlloc.applies_to("crates/runtime/src/executor.rs"));
        assert!(!Family::HotAlloc.applies_to("crates/runtime/src/trace.rs"));
        assert!(!Family::HotAlloc.applies_to("crates/analysis/src/campaign.rs"));
    }

    #[test]
    fn determinism_scope_covers_src_not_tests() {
        assert!(Family::Determinism.applies_to("crates/analysis/src/campaign.rs"));
        assert!(Family::Determinism.applies_to("crates/analysis/src/bin/experiments.rs"));
        assert!(!Family::Determinism.applies_to("crates/analysis/tests/determinism.rs"));
        assert!(!Family::Determinism.applies_to("crates/bench/benches/hot_path.rs"));
        assert!(!Family::Determinism.applies_to("crates/lint/src/engine.rs"));
    }

    #[test]
    fn atomic_audit_covers_everything() {
        assert!(Family::AtomicAudit.applies_to("crates/runtime/tests/zero_alloc.rs"));
        assert!(Family::AtomicAudit.applies_to("src/lib.rs"));
    }
}
