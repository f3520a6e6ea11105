//! Property-based tests for the graph substrate.

use antdensity_graphs::dist::WalkDistribution;
use antdensity_graphs::generators;
use antdensity_graphs::{CsrGraph, Hypercube, NodeId, Ring, Topology, Torus2d, TorusKd};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Checks neighbor symmetry with multiplicity: count of u in N(v) equals
/// count of v in N(u). This is the property that makes the uniform
/// distribution stationary (the paper's Lemma 2 requirement).
fn assert_symmetric<T: Topology>(topo: &T) {
    for v in 0..topo.num_nodes() {
        for u in topo.neighbors(v) {
            let forth = topo.neighbors(v).filter(|&w| w == u).count();
            let back = topo.neighbors(u).filter(|&w| w == v).count();
            assert_eq!(forth, back, "asymmetric multiplicity between {v} and {u}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn torus2d_is_symmetric(side in 1u64..12) {
        assert_symmetric(&Torus2d::new(side));
    }

    #[test]
    fn torus_kd_is_symmetric(dims in 1u32..4, side in 1u64..6) {
        assert_symmetric(&TorusKd::new(dims, side));
    }

    #[test]
    fn ring_is_symmetric(n in 1u64..40) {
        assert_symmetric(&Ring::new(n));
    }

    #[test]
    fn hypercube_is_symmetric(dims in 1u32..8) {
        assert_symmetric(&Hypercube::new(dims));
    }

    #[test]
    fn torus2d_displacement_roundtrip(side in 2u64..16, v in 0u64..256, u in 0u64..256) {
        let t = Torus2d::new(side);
        let a = v % t.num_nodes();
        let b = u % t.num_nodes();
        let (dx, dy) = t.displacement(a, b);
        prop_assert_eq!(t.offset(a, dx, dy), b);
        // displacement components stay in the minimal band
        prop_assert!(dx.abs() <= side as i64 / 2);
        prop_assert!(dy.abs() <= side as i64 / 2);
    }

    #[test]
    fn torus_kd_offset_roundtrip(
        dims in 1u32..4,
        side in 2u64..6,
        v_raw in 0u64..1000,
        dim_raw in 0u32..4,
        delta in -7i64..7,
    ) {
        let t = TorusKd::new(dims, side);
        let v = v_raw % t.num_nodes();
        let dim = dim_raw % dims;
        let u = t.offset(v, dim, delta);
        let back = t.offset(u, dim, -delta);
        prop_assert_eq!(back, v);
    }

    #[test]
    fn random_steps_stay_in_range(side in 1u64..10, seed in any::<u64>()) {
        let t = Torus2d::new(side);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut v = t.uniform_node(&mut rng);
        for _ in 0..50 {
            v = t.random_neighbor(v, &mut rng);
            prop_assert!(v < t.num_nodes());
        }
    }

    #[test]
    fn csr_graph_roundtrips_edges(
        n in 2u64..20,
        edge_bits in prop::collection::vec(any::<bool>(), 0..190),
    ) {
        // build a random subset of possible pairs, always add a spanning path
        // so no node is isolated.
        let mut edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let mut idx = 0usize;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if u + 1 == v { continue; } // path edges already there
                if idx >= edge_bits.len() { break 'outer; }
                if edge_bits[idx] {
                    edges.push((u, v));
                }
                idx += 1;
            }
        }
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.num_edges() as usize, edges.len());
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
        // degree sum = 2 |E|
        let degsum: usize = (0..n).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum as u64, 2 * g.num_edges());
        assert_symmetric(&g);
    }

    #[test]
    fn csr_rebuild_preserves_every_move(side in 1u64..10, dims in 1u32..7) {
        // structured topologies (multisets included, e.g. side <= 2)
        let torus = Torus2d::new(side);
        let csr = CsrGraph::from_topology(&torus);
        prop_assert_eq!(csr.num_nodes(), torus.num_nodes());
        for v in 0..torus.num_nodes() {
            prop_assert_eq!(csr.degree(v), torus.degree(v));
            for i in 0..torus.degree(v) {
                prop_assert_eq!(csr.neighbor(v, i), torus.neighbor(v, i));
            }
        }
        assert_symmetric(&csr);
        let cube = Hypercube::new(dims);
        let csr = CsrGraph::from_topology(&cube);
        prop_assert_eq!(csr.regular_degree(), Some(dims as usize));
        assert_symmetric(&csr);
    }

    #[test]
    fn csr_random_neighbor_matches_default_draws(
        side in 1u64..10,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        // the CSR zone-hoisted draw is bit-for-bit gen_range(0..d)
        let csr = CsrGraph::from_topology(&Torus2d::new(side));
        let mut fast = SmallRng::seed_from_u64(seed);
        let mut reference = fast.clone();
        let mut v = csr.uniform_node(&mut fast);
        let mut w = reference.gen_range(0..csr.num_nodes());
        prop_assert_eq!(v, w);
        for _ in 0..40 {
            v = csr.random_neighbor(v, &mut fast);
            w = csr.neighbor(w, reference.gen_range(0..csr.degree(w)));
            prop_assert_eq!(v, w);
        }
    }

    #[test]
    fn generated_csr_families_are_walkable(
        cliques in 2u64..8,
        size in 3u64..8,
        gside in 4u64..12,
        frac_pm in 0u32..600,
        seed in any::<u64>(),
    ) {
        let rc = generators::ring_of_cliques(cliques, size).unwrap();
        prop_assert_eq!(rc.num_nodes(), cliques * size);
        prop_assert!(rc.is_connected());
        assert_symmetric(&rc);

        let mut rng = SmallRng::seed_from_u64(seed);
        match generators::grid_with_holes(gside, f64::from(frac_pm) / 1000.0, &mut rng) {
            Ok(g) => {
                prop_assert!(g.is_connected(), "largest component must be connected");
                prop_assert!(g.max_degree() <= 4);
                prop_assert!(g.num_nodes() <= gside * gside);
                assert_symmetric(&g);
            }
            // tiny grids at high hole fractions may leave no usable
            // component — an error, never a bad graph
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(msg.contains("no connected component"));
            }
        }
    }

    #[test]
    fn distribution_mass_conserved(
        side in 1u64..8,
        start_raw in 0u64..64,
        steps in 0u64..30,
    ) {
        let t = Torus2d::new(side);
        let start = start_raw % t.num_nodes();
        let mut d = WalkDistribution::point(&t, start);
        d.evolve(&t, steps);
        prop_assert!((d.total_mass() - 1.0).abs() < 1e-9);
        prop_assert!(d.probs().iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn distribution_symmetry_around_start(
        side in 3u64..9,
        steps in 0u64..20,
    ) {
        // Walk distribution from (0,0) is symmetric under x -> -x.
        let t = Torus2d::new(side);
        let mut d = WalkDistribution::point(&t, t.node(0, 0));
        d.evolve(&t, steps);
        for v in 0..t.num_nodes() {
            let (x, y) = t.coord(v);
            let mirrored = t.node((side - x) % side, y);
            prop_assert!((d.prob(v) - d.prob(mirrored)).abs() < 1e-12);
        }
    }

    #[test]
    fn recollision_series_bounded_by_max_prob(
        side in 2u64..8,
        steps in 1u64..20,
    ) {
        // sum p^2 <= max p * sum p = max p.
        let t = Torus2d::new(side);
        let start = 0;
        let rec = antdensity_graphs::dist::recollision_series(&t, start, steps);
        let maxp = antdensity_graphs::dist::max_probability_series(&t, start, steps);
        for m in 0..=steps as usize {
            prop_assert!(rec[m] <= maxp[m] + 1e-12);
        }
    }

    #[test]
    fn generated_graphs_are_valid(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(60, 2, &mut rng).unwrap();
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.num_nodes(), 60);
        assert_symmetric(&g);
        let g = generators::random_regular(40, 4, 200, &mut rng).unwrap();
        prop_assert_eq!(g.regular_degree(), Some(4));
        prop_assert!(g.is_connected());
    }

    #[test]
    fn watts_strogatz_edge_count_invariant(
        seed in any::<u64>(),
        beta in 0.0..=1.0f64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 40u64;
        let k = 4usize;
        let g = generators::watts_strogatz(n, k, beta, &mut rng).unwrap();
        prop_assert_eq!(g.num_edges(), n * k as u64 / 2);
    }

    #[test]
    fn apply_moves_matches_neighbor_everywhere(seed in any::<u64>()) {
        // Every branchless batched override must equal the scalar
        // `neighbor` on random positions and random valid move indices
        // (TorusKd exercises the trait's default implementation).
        fn check<T: Topology>(topo: &T, rng: &mut SmallRng) {
            let degree = topo.regular_degree().unwrap() as u32;
            let n = 257; // not a multiple of any internal batch size
            let positions: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..topo.num_nodes()) as u32)
                .collect();
            let moves: Vec<u32> = (0..n).map(|_| rng.gen_range(0..degree)).collect();
            let mut batched = positions.clone();
            topo.apply_moves(&mut batched, &moves);
            for j in 0..n as usize {
                assert_eq!(
                    batched[j] as NodeId,
                    topo.neighbor(positions[j] as NodeId, moves[j] as usize),
                    "agent {j} at {} move {}",
                    positions[j],
                    moves[j]
                );
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        check(&Torus2d::new(2), &mut rng);
        check(&Torus2d::new(3), &mut rng);
        check(&Torus2d::new(37), &mut rng);
        check(&Torus2d::new(1024), &mut rng);
        check(&Ring::new(1), &mut rng);
        check(&Ring::new(97), &mut rng);
        check(&Hypercube::new(1), &mut rng);
        check(&Hypercube::new(13), &mut rng);
        check(&TorusKd::new(3, 5), &mut rng);
        check(&antdensity_graphs::CompleteGraph::new(513), &mut rng);
    }
}
