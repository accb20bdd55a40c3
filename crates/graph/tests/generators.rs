//! What the generators build, pinned beyond the small graphs of the quick
//! tables: a digest of every process's degree and neighbour row, for each
//! family at fixed parameters and seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_graph::{generators, Graph, NodeId};

/// FNV-1a over a stream of integers.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, value: usize) {
        for byte in (value as u64).to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add_row(&mut self, row: &[NodeId]) {
        self.add(row.len());
        for q in row {
            self.add(q.index());
        }
    }
}

/// Digests `n`, then `degree(p)` and `neighbor_slice(p)` of every process
/// in order, so it changes with any edge and any port.
fn graph_digest(g: &Graph) -> u64 {
    let mut d = Digest::new();
    d.add(g.node_count());
    for p in g.nodes() {
        d.add(g.degree(p));
        d.add_row(g.neighbor_slice(p));
    }
    d.0
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Digests recorded from the generators before graph construction went
/// linear; every family must still build the same graph with the same
/// ports.
const EXPECTED: &[(&str, u64)] = &[
    ("path(100)", 458_192_033_548_979_938),
    ("ring(1000)", 5_101_144_377_817_298_140),
    ("complete(30)", 18_425_469_950_566_935_194),
    ("star(500)", 14_139_699_376_769_326_922),
    ("wheel(200)", 12_244_707_724_441_886_285),
    ("complete_bipartite(7,11)", 18_291_637_289_571_192_438),
    ("grid(30,40)", 4_491_471_687_505_873_741),
    ("torus(20,30)", 11_067_780_171_912_490_707),
    ("balanced_tree(3,6)", 8_590_527_431_510_985_584),
    ("balanced_tree(1,7)", 1_409_666_190_411_202_090),
    ("balanced_tree(2,10)", 3_042_938_217_885_841_285),
    ("balanced_tree(5,4)", 16_167_522_890_415_641_268),
    ("balanced_tree(7,0)", 6_569_228_600_058_460_324),
    ("balanced_tree(300,1)", 4_369_140_279_883_684_016),
    ("caterpillar(50,3)", 5_827_577_025_036_309_372),
    ("lollipop(12,30)", 13_059_280_396_519_373_229),
    ("hypercube(10)", 12_818_999_121_296_776_697),
    ("barbell(9,15)", 12_596_111_037_249_770_516),
    ("petersen", 391_516_801_186_753_454),
    ("random_tree(5000)", 14_621_011_719_852_885_936),
    ("barabasi_albert(20000,3)", 3_156_080_786_972_295_998),
    ("gnp_connected(300,0)", 3_578_193_765_739_366_970),
    ("gnp_connected(500,0.01)", 14_494_141_736_443_942_798),
    ("gnm_connected(500,1500)", 6_340_539_920_510_549_096),
    ("random_regular(1000,4)", 3_022_249_712_625_801_699),
    ("theorem1_chain", 2_858_978_403_930_530_084),
    ("theorem1_spliced_chain", 12_729_957_724_000_081_476),
    ("theorem1_general(4)", 13_422_351_577_422_849_184),
    ("theorem2_network", 9_522_584_734_491_819_843),
    ("theorem2_general(4)", 13_497_384_454_472_043_895),
    ("figure9_path(9)", 2_677_541_558_445_105_764),
    ("figure11_example", 6_033_984_709_536_955_969),
];

#[test]
fn generators_build_the_recorded_graphs() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("path(100)", generators::path(100)),
        ("ring(1000)", generators::ring(1000)),
        ("complete(30)", generators::complete(30)),
        ("star(500)", generators::star(500)),
        ("wheel(200)", generators::wheel(200)),
        (
            "complete_bipartite(7,11)",
            generators::complete_bipartite(7, 11),
        ),
        ("grid(30,40)", generators::grid(30, 40)),
        ("torus(20,30)", generators::torus(20, 30)),
        ("balanced_tree(3,6)", generators::balanced_tree(3, 6)),
        ("balanced_tree(1,7)", generators::balanced_tree(1, 7)),
        ("balanced_tree(2,10)", generators::balanced_tree(2, 10)),
        ("balanced_tree(5,4)", generators::balanced_tree(5, 4)),
        ("balanced_tree(7,0)", generators::balanced_tree(7, 0)),
        ("balanced_tree(300,1)", generators::balanced_tree(300, 1)),
        ("caterpillar(50,3)", generators::caterpillar(50, 3)),
        ("lollipop(12,30)", generators::lollipop(12, 30)),
        ("hypercube(10)", generators::hypercube(10)),
        ("barbell(9,15)", generators::barbell(9, 15)),
        ("petersen", generators::petersen()),
        (
            "random_tree(5000)",
            generators::random_tree(5000, &mut rng(2)),
        ),
        (
            "barabasi_albert(20000,3)",
            generators::barabasi_albert(20_000, 3, &mut rng(1)).unwrap(),
        ),
        (
            "gnp_connected(300,0)",
            generators::gnp_connected(300, 0.0, &mut rng(7)).unwrap(),
        ),
        (
            "gnp_connected(500,0.01)",
            generators::gnp_connected(500, 0.01, &mut rng(3)).unwrap(),
        ),
        (
            "gnm_connected(500,1500)",
            generators::gnm_connected(500, 1500, &mut rng(4)).unwrap(),
        ),
        (
            "random_regular(1000,4)",
            generators::random_regular(1000, 4, &mut rng(5)).unwrap(),
        ),
        ("theorem1_chain", generators::theorem1_chain()),
        (
            "theorem1_spliced_chain",
            generators::theorem1_spliced_chain(),
        ),
        (
            "theorem1_general(4)",
            generators::theorem1_general(4).unwrap(),
        ),
        ("theorem2_network", generators::theorem2_network().graph),
        (
            "theorem2_general(4)",
            generators::theorem2_general(4).unwrap().graph,
        ),
        ("figure9_path(9)", generators::figure9_path(9)),
        ("figure11_example", generators::figure11_example()),
    ];
    let digests: Vec<(&str, u64)> = graphs
        .iter()
        .map(|(name, g)| (*name, graph_digest(g)))
        .collect();
    assert_eq!(digests, EXPECTED);
}

/// With `prob == 0` no pair can be drawn, so `gnp_connected` skips the
/// n(n−1)/2 pairs and only links the singletons into a star on process 0.
#[test]
fn gnp_without_edges_skips_the_pairs() {
    let g = generators::gnp_connected(200_000, 0.0, &mut rng(6)).unwrap();
    assert_eq!(g.edge_count(), 199_999);
    assert_eq!(g.degree(NodeId::new(0)), 199_999);
}

/// `balanced_tree` walks the children once, so a depth-1 tree of huge
/// arity (a star) builds in time linear in its size.
#[test]
fn balanced_tree_of_huge_arity_is_a_star() {
    let g = generators::balanced_tree(200_000, 1);
    assert_eq!(g.node_count(), 200_001);
    assert_eq!(g.degree(NodeId::new(0)), 200_000);
}
