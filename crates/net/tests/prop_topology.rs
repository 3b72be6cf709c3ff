//! Property tests for the neighbor-index equivalence (DESIGN.md §16):
//! the spatial-hash index must produce tables bitwise equal to the
//! brute-force scan on arbitrary placements — including co-located
//! nodes, exact-boundary distances, negative coordinates, fleet-scale
//! clustered coastlines, and the degenerate 1-node layout. The
//! brute-force path is the oracle; any divergence here is a determinism
//! bug that would silently fork journals between small and fleet-scale
//! deployments.

use proptest::prelude::*;

use sid_net::{NeighborIndex, NodeId, Position, Topology};

fn positions_of(raw: &[(f64, f64)]) -> Vec<Position> {
    raw.iter().map(|&(x, y)| Position::new(x, y)).collect()
}

/// Builds both index variants and asserts every neighbor list is
/// bitwise equal and strictly ascending, and the whole topologies equal.
fn assert_index_equivalence(positions: Vec<Position>, range: f64) -> Result<(), String> {
    let brute = Topology::from_positions_with(positions.clone(), range, NeighborIndex::BruteForce);
    let hash = Topology::from_positions_with(positions, range, NeighborIndex::SpatialHash);
    for id in brute.node_ids() {
        let b = brute.neighbors(id);
        let h = hash.neighbors(id);
        prop_assert_eq!(b, h, "index divergence at node {}", id);
        prop_assert!(
            b.windows(2).all(|w| w[0] < w[1]),
            "neighbors of {} not strictly ascending: {:?}",
            id,
            b
        );
    }
    prop_assert!(
        brute == hash,
        "topologies differ beyond their neighbor lists"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hash_matches_brute_force_on_random_placements(
        raw in prop::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 1..200),
        range in 5.0..80.0f64,
    ) {
        assert_index_equivalence(positions_of(&raw), range)?;
    }

    #[test]
    fn hash_matches_brute_force_on_negative_coordinates(
        raw in prop::collection::vec((-2000.0..-100.0f64, -1500.0..-50.0f64), 1..120),
        range in 5.0..80.0f64,
    ) {
        assert_index_equivalence(positions_of(&raw), range)?;
    }

    #[test]
    fn hash_matches_brute_force_with_co_located_nodes(
        raw in prop::collection::vec((-300.0..300.0f64, -300.0..300.0f64), 1..80),
        picks in prop::collection::vec(0usize..80, 1..40),
        range in 5.0..60.0f64,
    ) {
        // Duplicate a random selection of the base points so several
        // nodes share exact coordinates (distance 0, same hash cell).
        let mut positions = positions_of(&raw);
        for &p in &picks {
            positions.push(positions[p % raw.len()]);
        }
        assert_index_equivalence(positions, range)?;
    }

    #[test]
    fn exact_boundary_distance_is_inclusive_in_both_indexes(
        pairs in prop::collection::vec((-1000i32..1000, -1000i32..1000), 1..40),
        range_m in 5u32..60,
    ) {
        // Integer-valued coordinates and range keep every sum exact in
        // f64, so the second node of each pair sits at *exactly*
        // `radio_range` metres — pinning the inclusive boundary on both
        // implementations. Pairs are spread far apart so each is
        // isolated from the others.
        let range = f64::from(range_m);
        let mut positions = Vec::new();
        for (k, &(jx, jy)) in pairs.iter().enumerate() {
            let base_x = f64::from(k as i32 * 10_000 + jx);
            let base_y = f64::from(jy);
            positions.push(Position::new(base_x, base_y));
            positions.push(Position::new(base_x + range, base_y));
        }
        let brute = Topology::from_positions_with(
            positions.clone(), range, NeighborIndex::BruteForce);
        let hash = Topology::from_positions_with(positions, range, NeighborIndex::SpatialHash);
        for (k, _) in pairs.iter().enumerate() {
            let (a, b) = (NodeId::from(2 * k), NodeId::from(2 * k + 1));
            prop_assert_eq!(brute.neighbors(a), &[b]);
            prop_assert_eq!(brute.neighbors(b), &[a]);
            prop_assert_eq!(hash.neighbors(a), &[b]);
            prop_assert_eq!(hash.neighbors(b), &[a]);
        }
    }

    #[test]
    fn degenerate_single_node_has_no_neighbors(
        x in -1e6..1e6f64,
        y in -1e6..1e6f64,
        range in 1.0..100.0f64,
    ) {
        for index in [NeighborIndex::BruteForce, NeighborIndex::SpatialHash] {
            let t = Topology::from_positions_with(
                vec![Position::new(x, y)], range, index);
            prop_assert!(t.neighbors(NodeId::from(0)).is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hash_matches_brute_force_on_clustered_coastlines(
        centres in prop::collection::vec((-40.0..40.0f64, 0.0..260.0f64), 4..=12),
        scatter in prop::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 200..=2048),
        radius in 60.0..=120.0f64,
        range in 20.0..60.0f64,
    ) {
        // Fleet-scale placements: cluster centres strung eastward every
        // 180 m (with jitter) along a coastline strip, nodes scattered
        // round-robin about them, node 0 exactly at the first centre.
        // Equal topologies give equal runs, so this is what keeps a fleet
        // journal independent of the index choice.
        let positions = scatter
            .iter()
            .enumerate()
            .map(|(i, &(dx, dy))| {
                let k = i % centres.len();
                let (cx, cy) = (k as f64 * 180.0 + centres[k].0, centres[k].1);
                if i == 0 {
                    Position::new(cx, cy)
                } else {
                    Position::new(cx + dx * radius, cy + dy * radius)
                }
            })
            .collect();
        assert_index_equivalence(positions, range)?;
    }
}
