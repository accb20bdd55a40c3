//! Named graph workloads shared by the experiments and the trace cell.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_graph::{generators, Graph, NodeId};
use std::fmt;

/// The most processes `GraphBuilder::build` accepts (`NodeId` is a `u32`).
const MAX_NODES: usize = NodeId::MAX_INDEX + 1;
/// The most edges `GraphBuilder::build` accepts (each edge takes two `u32`
/// CSR port entries).
const MAX_EDGES: usize = u32::MAX as usize / 2;

/// A reproducible graph workload: a family plus its size parameter.
///
/// Every workload is deterministic given `(family, n, seed)`, so every
/// run of an experiment table, and a trace replay, measures exactly the
/// same topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Path of `n` processes (the Figure 9 family).
    Path(usize),
    /// Ring of `n` processes.
    Ring(usize),
    /// `rows × cols` grid.
    Grid(usize, usize),
    /// Star with `n` processes (degree `n - 1` hub).
    Star(usize),
    /// Complete graph on `n` processes.
    Complete(usize),
    /// Connected Erdős–Rényi graph with `n` processes and edge probability
    /// `p`.
    Gnp(usize, f64),
    /// Uniform random tree on `n` processes.
    Tree(usize),
    /// Caterpillar with `spine` spine processes and `legs` legs each.
    Caterpillar(usize, usize),
    /// The exact ∆ = 4, m = 14 example of Figure 11.
    Figure11,
    /// `rows × cols` torus (wrap-around grid).
    Torus(usize, usize),
    /// `d`-dimensional hypercube (`2^d` processes).
    Hypercube(usize),
    /// Balanced tree with the given arity and depth.
    BalancedTree(usize, usize),
    /// Barabási–Albert preferential-attachment graph with `n` processes,
    /// each attaching to `attach` existing ones.
    Barabasi(usize, usize),
}

impl Workload {
    /// Materializes the workload into a graph; `seed` only matters for the
    /// randomized families.
    pub fn build(&self, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            Workload::Path(n) => generators::path(n),
            Workload::Ring(n) => generators::ring(n),
            Workload::Grid(r, c) => generators::grid(r, c),
            Workload::Star(n) => generators::star(n),
            Workload::Complete(n) => generators::complete(n),
            Workload::Gnp(n, p) => {
                generators::gnp_connected(n, p, &mut rng).expect("valid G(n,p) parameters")
            }
            Workload::Tree(n) => generators::random_tree(n, &mut rng),
            Workload::Caterpillar(spine, legs) => generators::caterpillar(spine, legs),
            Workload::Figure11 => generators::figure11_example(),
            Workload::Torus(r, c) => generators::torus(r, c),
            Workload::Hypercube(d) => generators::hypercube(d),
            Workload::BalancedTree(arity, depth) => generators::balanced_tree(arity, depth),
            Workload::Barabasi(n, attach) => generators::barabasi_albert(n, attach, &mut rng)
                .expect("valid Barabási–Albert parameters"),
        }
    }

    /// Why the family's generator would reject these parameters, or `None`
    /// when [`Workload::build`] succeeds. Mirrors the generators' own
    /// preconditions and the graph builder's capacity.
    fn invalid_reason(&self) -> Option<String> {
        let reason: String = match *self {
            Workload::Path(0) => "a path needs at least one process".into(),
            Workload::Ring(n) if n < 3 => "a ring needs at least three processes".into(),
            Workload::Grid(r, c) if r == 0 || c == 0 => {
                "a grid needs at least one row and one column".into()
            }
            Workload::Star(n) if n < 2 => "a star needs at least two processes".into(),
            Workload::Complete(0) => "a complete graph needs at least one process".into(),
            Workload::Gnp(0, _) => "a G(n,p) graph needs at least one process".into(),
            Workload::Gnp(_, p) if !(0.0..=1.0).contains(&p) => {
                format!("edge probability {p} is not in [0, 1]")
            }
            Workload::Tree(0) => "a tree needs at least one process".into(),
            Workload::Caterpillar(0, _) => "a caterpillar needs a non-empty spine".into(),
            Workload::Torus(r, c) if r < 3 || c < 3 => {
                "a torus needs at least 3 rows and 3 columns".into()
            }
            Workload::Hypercube(d) if !(1..=20).contains(&d) => {
                "a hypercube needs between 1 and 20 dimensions".into()
            }
            Workload::BalancedTree(0, _) => "tree arity must be positive".into(),
            Workload::Barabasi(n, m) if m == 0 || m >= n => {
                format!("need 0 < attach < n, got n = {n}, attach = {m}")
            }
            _ => match self.largest_size() {
                None => "the graph's size overflows".into(),
                Some((nodes, _)) if nodes > MAX_NODES => {
                    format!("{nodes} processes exceed the {MAX_NODES} a graph can hold")
                }
                Some((_, edges)) if edges > MAX_EDGES => {
                    format!("up to {edges} edges exceed the {MAX_EDGES} a graph can hold")
                }
                Some(_) => return None,
            },
        };
        Some(reason)
    }

    /// The process count and the largest edge count [`Workload::build`]
    /// can produce from parameters its generator accepts, or `None` when
    /// either overflows `usize`.
    fn largest_size(&self) -> Option<(usize, usize)> {
        let tree = |n: usize| Some((n, n - 1));
        match *self {
            Workload::Path(n) | Workload::Star(n) | Workload::Tree(n) => tree(n),
            Workload::Ring(n) => Some((n, n)),
            Workload::Complete(n) => Some((n, n.checked_mul(n - 1)? / 2)),
            // Any pair may be drawn when p > 0; with p = 0 only the edges
            // that join the components are added.
            Workload::Gnp(n, p) if p > 0.0 => Some((n, n.checked_mul(n - 1)? / 2)),
            Workload::Gnp(n, _) => tree(n),
            Workload::Grid(r, c) => {
                let n = r.checked_mul(c)?;
                Some((n, n.checked_mul(2)? - r - c))
            }
            Workload::Torus(r, c) => {
                let n = r.checked_mul(c)?;
                Some((n, n.checked_mul(2)?))
            }
            Workload::Caterpillar(spine, legs) => tree(spine.checked_mul(legs.checked_add(1)?)?),
            Workload::Figure11 => Some((15, 14)),
            Workload::Hypercube(d) => Some((1 << d, d << (d - 1))),
            Workload::BalancedTree(1, depth) => tree(depth.checked_add(1)?),
            Workload::BalancedTree(arity, depth) => {
                // 1 + arity + … + arity^depth; with arity ≥ 2 the level
                // overflows within 64 levels, so the loop stays short.
                let (mut n, mut level) = (1usize, 1usize);
                for _ in 0..depth {
                    level = level.checked_mul(arity)?;
                    n = n.checked_add(level)?;
                }
                tree(n)
            }
            // A clique on the first attach + 1 processes, then attach edges
            // per further process.
            Workload::Barabasi(n, m) => {
                let edges = (m.checked_mul(m + 1)? / 2).checked_add((n - m - 1).checked_mul(m)?)?;
                Some((n, edges))
            }
        }
    }

    /// Short label used in table rows and bench identifiers.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// The default suite used by the convergence experiments (E2/E3/E5).
    pub fn convergence_suite() -> Vec<Workload> {
        vec![
            Workload::Path(32),
            Workload::Ring(32),
            Workload::Grid(6, 6),
            Workload::Star(24),
            Workload::Gnp(48, 0.12),
            Workload::Tree(48),
        ]
    }

    /// The suite used by the spanning-tree experiments (E12/E13): the four
    /// families named by the subsystem's acceptance criteria plus
    /// small-world and tree-shaped topologies spanning a wide diameter
    /// range (diameter is the quantity BFS convergence scales with).
    pub fn spanning_suite() -> Vec<Workload> {
        vec![
            Workload::Ring(24),
            Workload::Ring(48),
            Workload::Grid(4, 6),
            Workload::Grid(7, 7),
            Workload::Gnp(32, 0.15),
            Workload::Tree(32),
            Workload::BalancedTree(2, 4),
            Workload::Torus(4, 6),
            Workload::Hypercube(5),
            Workload::Barabasi(40, 2),
        ]
    }

    /// The suite used by the communication-complexity experiment (E1),
    /// spanning a range of maximum degrees.
    pub fn degree_suite() -> Vec<Workload> {
        vec![
            Workload::Ring(32),
            Workload::Grid(6, 6),
            Workload::Star(17),
            Workload::Star(65),
            Workload::Complete(16),
            Workload::Gnp(64, 0.15),
        ]
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    /// Parses the exact label format produced by [`Workload`]'s `Display`
    /// (`ring(32)`, `grid(6x6)`, `gnp(48,0.12)`, `figure11`, …), so that
    /// campaign JSON output is parseable back into specs.
    ///
    /// A label parses only if [`Workload::build`] can materialize it: every
    /// parameter the family's generator would reject (a two-process ring,
    /// an edge probability above 1, …) is an error naming the reason, so
    /// untrusted labels from the command line or a trace file never reach
    /// a generator's assertion.
    fn from_str(s: &str) -> Result<Workload, String> {
        let s = s.trim();
        if s == "figure11" {
            return Ok(Workload::Figure11);
        }
        let (family, args) = s
            .strip_suffix(')')
            .and_then(|s| s.split_once('('))
            .ok_or_else(|| format!("workload {s:?}: expected family(args) or figure11"))?;
        let usize_arg = |v: &str| {
            v.parse::<usize>()
                .map_err(|err| format!("workload {s:?}: {err}"))
        };
        let pair = |sep: char| -> Result<(usize, usize), String> {
            let (a, b) = args
                .split_once(sep)
                .ok_or_else(|| format!("workload {s:?}: expected two {sep:?}-separated sizes"))?;
            Ok((usize_arg(a)?, usize_arg(b)?))
        };
        let workload = match family {
            "path" => Workload::Path(usize_arg(args)?),
            "ring" => Workload::Ring(usize_arg(args)?),
            "grid" => pair('x').map(|(r, c)| Workload::Grid(r, c))?,
            "star" => Workload::Star(usize_arg(args)?),
            "complete" => Workload::Complete(usize_arg(args)?),
            "gnp" => {
                let (n, p) = args
                    .split_once(',')
                    .ok_or_else(|| format!("workload {s:?}: expected gnp(n,p)"))?;
                let p = p
                    .parse::<f64>()
                    .map_err(|err| format!("workload {s:?}: {err}"))?;
                Workload::Gnp(usize_arg(n)?, p)
            }
            "tree" => Workload::Tree(usize_arg(args)?),
            "caterpillar" => pair(',').map(|(s, l)| Workload::Caterpillar(s, l))?,
            "torus" => pair('x').map(|(r, c)| Workload::Torus(r, c))?,
            "hypercube" => Workload::Hypercube(usize_arg(args)?),
            "btree" => pair(',').map(|(a, d)| Workload::BalancedTree(a, d))?,
            "ba" => pair(',').map(|(n, m)| Workload::Barabasi(n, m))?,
            other => return Err(format!("unknown workload family {other:?} in {s:?}")),
        };
        match workload.invalid_reason() {
            Some(reason) => Err(format!("workload {s:?}: {reason}")),
            None => Ok(workload),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Workload::Path(n) => write!(f, "path({n})"),
            Workload::Ring(n) => write!(f, "ring({n})"),
            Workload::Grid(r, c) => write!(f, "grid({r}x{c})"),
            Workload::Star(n) => write!(f, "star({n})"),
            Workload::Complete(n) => write!(f, "complete({n})"),
            Workload::Gnp(n, p) => write!(f, "gnp({n},{p})"),
            Workload::Tree(n) => write!(f, "tree({n})"),
            Workload::Caterpillar(s, l) => write!(f, "caterpillar({s},{l})"),
            Workload::Figure11 => write!(f, "figure11"),
            Workload::Torus(r, c) => write!(f, "torus({r}x{c})"),
            Workload::Hypercube(d) => write!(f, "hypercube({d})"),
            Workload::BalancedTree(a, d) => write!(f, "btree({a},{d})"),
            Workload::Barabasi(n, m) => write!(f, "ba({n},{m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::properties;

    #[test]
    fn every_workload_builds_a_connected_graph() {
        let all = [
            Workload::Path(8),
            Workload::Ring(8),
            Workload::Grid(3, 4),
            Workload::Star(8),
            Workload::Complete(6),
            Workload::Gnp(20, 0.2),
            Workload::Tree(15),
            Workload::Caterpillar(4, 2),
            Workload::Figure11,
            Workload::Torus(3, 4),
            Workload::Hypercube(3),
            Workload::BalancedTree(2, 3),
            Workload::Barabasi(16, 2),
        ];
        for w in all {
            let g = w.build(3);
            assert!(properties::is_connected(&g), "{w} is not connected");
            assert!(g.node_count() > 0);
        }
    }

    #[test]
    fn randomized_workloads_are_reproducible_from_the_seed() {
        let w = Workload::Gnp(30, 0.15);
        assert_eq!(w.build(9), w.build(9));
        let t = Workload::Tree(30);
        assert_eq!(t.build(4), t.build(4));
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(Workload::Grid(3, 4).label(), "grid(3x4)");
        assert_eq!(Workload::Figure11.label(), "figure11");
        assert_eq!(Workload::Gnp(10, 0.25).label(), "gnp(10,0.25)");
    }

    #[test]
    fn labels_parse_back_into_workloads() {
        for w in [
            Workload::Path(8),
            Workload::Grid(3, 4),
            Workload::Gnp(20, 0.25),
            Workload::Caterpillar(4, 2),
            Workload::Figure11,
            Workload::Torus(3, 4),
            Workload::BalancedTree(2, 3),
            Workload::Barabasi(16, 2),
        ] {
            assert_eq!(w.label().parse::<Workload>(), Ok(w));
        }
        // Whitespace is tolerated; garbage is rejected with context.
        assert_eq!(" ring(9) ".parse::<Workload>(), Ok(Workload::Ring(9)));
        for bad in ["", "ring", "ring()", "grid(3,4)", "mobius(8)", "gnp(10)"] {
            let err = bad.parse::<Workload>().unwrap_err();
            assert!(err.contains("workload") || err.contains("family"), "{err}");
        }
    }

    #[test]
    fn labels_the_generators_reject_do_not_parse() {
        for (bad, reason) in [
            ("ring(2)", "at least three processes"),
            ("path(0)", "at least one process"),
            ("complete(0)", "at least one process"),
            ("tree(0)", "at least one process"),
            ("star(1)", "at least two processes"),
            ("grid(0x4)", "at least one row and one column"),
            ("grid(4x0)", "at least one row and one column"),
            ("torus(2x5)", "at least 3 rows and 3 columns"),
            ("torus(5x2)", "at least 3 rows and 3 columns"),
            ("hypercube(0)", "between 1 and 20 dimensions"),
            ("hypercube(21)", "between 1 and 20 dimensions"),
            ("btree(0,3)", "arity must be positive"),
            ("caterpillar(0,2)", "non-empty spine"),
            ("gnp(10,1.5)", "not in [0, 1]"),
            ("gnp(10,-0.1)", "not in [0, 1]"),
            ("gnp(10,NaN)", "not in [0, 1]"),
            ("gnp(0,0.5)", "at least one process"),
            ("ba(5,0)", "0 < attach < n"),
            ("ba(5,5)", "0 < attach < n"),
            ("ring(5000000000)", "processes exceed"),
            ("path(9000000000)", "processes exceed"),
            ("ring(2147483648)", "edges exceed"),
            ("complete(100000)", "edges exceed"),
            ("gnp(100000,0.001)", "edges exceed"),
            ("grid(4294967296x4294967296)", "overflows"),
            ("torus(65536x65536)", "edges exceed"),
            ("caterpillar(4294967296,1)", "processes exceed"),
            ("btree(2,40)", "processes exceed"),
            ("btree(2,100)", "overflows"),
            ("btree(1,18446744073709551615)", "overflows"),
            ("ba(100000,50000)", "edges exceed"),
        ] {
            let err = bad.parse::<Workload>().unwrap_err();
            assert!(err.contains(bad) && err.contains(reason), "{bad}: {err}");
        }
        // The smallest accepted parameters build.
        for good in [
            "ring(3)",
            "path(1)",
            "complete(1)",
            "tree(1)",
            "star(2)",
            "grid(1x1)",
            "torus(3x3)",
            "hypercube(1)",
            "btree(1,0)",
            "caterpillar(1,0)",
            "gnp(1,0)",
            "gnp(2,1)",
            "ba(2,1)",
        ] {
            let workload = good
                .parse::<Workload>()
                .unwrap_or_else(|err| panic!("{err}"));
            assert!(workload.build(1).node_count() > 0, "{good}");
        }
        // The largest ring the builder accepts has exactly u32::MAX / 2
        // edges; one more process is rejected above.
        assert_eq!(
            "ring(2147483647)".parse::<Workload>(),
            Ok(Workload::Ring(2_147_483_647))
        );
    }

    #[test]
    fn suites_are_non_empty() {
        assert!(!Workload::convergence_suite().is_empty());
        assert!(!Workload::degree_suite().is_empty());
        assert!(!Workload::spanning_suite().is_empty());
    }

    #[test]
    fn spanning_suite_spans_a_wide_diameter_range() {
        let diameters: Vec<usize> = Workload::spanning_suite()
            .iter()
            .map(|w| properties::diameter(&w.build(1)).expect("connected"))
            .collect();
        let min = diameters.iter().copied().min().unwrap();
        let max = diameters.iter().copied().max().unwrap();
        assert!(min <= 6, "the suite needs small-diameter workloads");
        assert!(max >= 20, "the suite needs large-diameter workloads");
    }
}
