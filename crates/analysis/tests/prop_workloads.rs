//! Property-based tests for the workload vocabulary: the `Display` label of
//! every workload that builds must parse back into the identical value
//! (`FromStr`), so campaign JSON output is machine-readable back into
//! specs, and the label of every workload whose generator would panic must
//! be rejected with an error that names it.

use proptest::prelude::*;
use selfstab_analysis::Workload;

/// Strategy producing an arbitrary workload across every family (some
/// tori and Barabási–Albert graphs get parameters their generators reject).
fn workload() -> impl Strategy<Value = Workload> {
    (0usize..13, 1usize..50, 1usize..8, 1u32..95).prop_map(|(family, n, m, pct)| {
        let n = n + 2;
        match family {
            0 => Workload::Path(n),
            1 => Workload::Ring(n),
            2 => Workload::Grid(n, m + 1),
            3 => Workload::Star(n),
            4 => Workload::Complete(n),
            5 => Workload::Gnp(n, f64::from(pct) / 100.0),
            6 => Workload::Tree(n),
            7 => Workload::Caterpillar(n, m),
            8 => Workload::Figure11,
            9 => Workload::Torus(n, m + 1),
            10 => Workload::Hypercube(m),
            11 => Workload::BalancedTree(m + 1, 3),
            _ => Workload::Barabasi(n, m),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_and_fromstr_round_trip(w in workload()) {
        let label = w.label();
        let builds = std::panic::catch_unwind(|| w.build(1)).is_ok();
        match label.parse::<Workload>() {
            Ok(parsed) => {
                prop_assert!(builds, "label {} parsed but its generator panics", label);
                prop_assert_eq!(parsed, w, "label {} did not round-trip", label);
                // The round-trip is idempotent: re-displaying gives the same label.
                prop_assert_eq!(parsed.label(), label);
            }
            Err(err) => {
                prop_assert!(!builds, "label {} builds but was rejected: {}", label, err);
                prop_assert!(err.contains(&label), "{}", err);
            }
        }
    }

    #[test]
    fn parse_errors_never_panic_and_name_the_input(w in workload()) {
        // Corrupt the label in ways a hand-edited spec file might.
        let label = w.label();
        for broken in [
            format!("{label})"),
            format!("x{label}"),
            label.replace('(', "["),
        ] {
            if let Err(err) = broken.parse::<Workload>() {
                prop_assert!(!err.is_empty());
            }
        }
    }
}
