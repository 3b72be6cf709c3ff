//! Property-based tests on the WSN substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sid_net::{Network, NodeId, RadioModel, ShardedScheduler, Topology};

proptest! {
    #[test]
    fn scheduler_pops_in_time_order(
        times in prop::collection::vec((0.0..1e6f64, 0usize..4), 1..200),
    ) {
        let mut q = ShardedScheduler::new(4);
        for (i, &(t, lane)) in times.iter().enumerate() {
            q.schedule(lane, t, i);
        }
        let out = q.pop_until(f64::INFINITY);
        prop_assert_eq!(out.len(), times.len());
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn scheduler_ties_are_fifo(lanes in prop::collection::vec(0usize..4, 1..100)) {
        let mut q = ShardedScheduler::new(4);
        for (i, &lane) in lanes.iter().enumerate() {
            q.schedule(lane, 1.0, i);
        }
        let out = q.pop_until(2.0);
        for (i, (_, v)) in out.iter().enumerate() {
            prop_assert_eq!(*v, i);
        }
    }

    #[test]
    fn grid_hops_match_manhattan(
        rows in 1usize..8,
        cols in 1usize..8,
        src_r in 0usize..8,
        src_c in 0usize..8,
    ) {
        prop_assume!(src_r < rows && src_c < cols);
        // Orthogonal-only radio range: hops = Manhattan distance.
        let topo = Topology::grid(rows, cols, 25.0, 30.0);
        let src = topo.at_grid(src_r, src_c).unwrap();
        let hops = topo.hops_from(src);
        for id in topo.node_ids() {
            let r = topo.row_of(id).unwrap();
            let c = topo.col_of(id).unwrap();
            let manhattan = r.abs_diff(src_r) + c.abs_diff(src_c);
            prop_assert_eq!(hops[id.index()] as usize, manhattan);
        }
    }

    #[test]
    fn nodes_within_hops_is_monotone(k1 in 0u16..6, dk in 1u16..4) {
        let topo = Topology::grid(6, 6, 25.0, 30.0);
        let centre = topo.at_grid(3, 3).unwrap();
        let small = topo.nodes_within_hops(centre, k1);
        let large = topo.nodes_within_hops(centre, k1 + dk);
        prop_assert!(small.len() <= large.len());
        for n in &small {
            prop_assert!(large.contains(n));
        }
    }

    #[test]
    fn reliable_flood_reaches_exactly_the_ball(
        seed in 0u64..1000,
        hops in 1u16..6,
    ) {
        let topo = Topology::grid(5, 5, 25.0, 30.0);
        let centre = topo.at_grid(2, 2).unwrap();
        let eligible = topo.nodes_within_hops(centre, hops).len() - 1;
        let mut net: Network<u8> = Network::new(topo, RadioModel::reliable());
        let mut rng = StdRng::seed_from_u64(seed);
        let reached = net.flood(centre, 0, 0.0, hops, &mut rng);
        prop_assert_eq!(reached, eligible);
        prop_assert_eq!(net.poll(f64::INFINITY).len(), eligible);
    }

    #[test]
    fn lossy_traffic_accounting_balances(seed in 0u64..500) {
        let topo = Topology::grid(4, 4, 25.0, 30.0);
        let mut net: Network<u8> = Network::new(topo, RadioModel::lossy_no_retry());
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..16usize {
            net.broadcast(NodeId::from(i), 0, 0.0, &mut rng);
        }
        let delivered = net.poll(f64::INFINITY).len() as u64;
        let s = net.stats();
        prop_assert_eq!(s.transmissions, delivered + s.dropped);
        prop_assert_eq!(s.delivered, delivered);
    }

    #[test]
    fn route_latency_scales_with_hops(seed in 0u64..200) {
        let topo = Topology::grid(1, 9, 25.0, 30.0);
        let mut net: Network<u8> = Network::new(topo, RadioModel::reliable());
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(net.route(NodeId::new(0), NodeId::new(8), 0, 0.0, &mut rng));
        let out = net.poll(f64::INFINITY);
        prop_assert_eq!(out.len(), 1);
        prop_assert!((out[0].0 - 8.0 * 0.005).abs() < 1e-12);
    }
}
