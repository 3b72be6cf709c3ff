//! Region sharding: a deterministic spatial partition of a topology.
//!
//! A [`ShardMap`] splits a deployment into `K` contiguous regions along
//! the same cell grid the spatial-hash neighbor index uses (cell size =
//! radio range, see [`crate::topology`]). Each shard gets its own radio
//! delivery lane, and the lane-partitioned scheduler in [`crate::sim`]
//! merges cross-shard traffic back into one deterministic delivery
//! order. The partition is a pure function of node positions,
//! radio range, and `K` — no RNG — so every run over the same topology
//! gets the same map.

use crate::topology::Topology;

/// A deterministic assignment of every node to one of `K` spatial shards.
///
/// Nodes are bucketed by spatial-hash cell column (`floor(x / radio
/// range)` — the exact cell key the neighbor index uses), columns are
/// walked in ascending order, and contiguous column runs are grouped so
/// each shard carries roughly `n / K` nodes. Radio neighbors therefore
/// land either in the same shard or in the adjacent one; everything
/// further apart cannot exchange single-hop frames at all.
///
/// # Examples
///
/// ```
/// use sid_net::{ShardMap, Topology};
///
/// let topo = Topology::grid(4, 8, 25.0, 30.0);
/// let map = ShardMap::from_topology(&topo, 4);
/// assert_eq!(map.shards(), 4);
/// assert_eq!(map.len(), 32);
/// // Every node is assigned, and shards are balanced on a uniform grid.
/// assert_eq!(map.counts().iter().sum::<usize>(), 32);
/// assert!(map.counts().iter().all(|&c| c == 8));
/// // Shard indices are monotone in x: region boundaries are vertical.
/// let left = map.shard_of(0);
/// let right = map.shard_of(7);
/// assert!(left < right);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shard_of: Vec<usize>,
    shards: usize,
}

impl ShardMap {
    /// Builds the `K`-shard partition of `topology`.
    ///
    /// `shards` is clamped to `1..=` the node count (1 when the
    /// topology is empty), so a count read from outside — a session
    /// checkpoint — cannot size the lane tables past the deployment.
    /// Asking for more shards than there are occupied cell columns
    /// leaves the surplus shards empty (the map still reports
    /// `shards()` lanes so schedulers can size themselves from it).
    pub fn from_topology(topology: &Topology, shards: usize) -> Self {
        let n = topology.len();
        let shards = shards.clamp(1, n.max(1));
        let range = topology.radio_range();
        // Cell key: identical to the spatial-hash column key.
        let col = |x: f64| (x / range).floor() as i64;
        let mut cols: Vec<i64> = topology
            .node_ids()
            .map(|id| col(topology.position(id).x))
            .collect();
        let mut distinct = cols.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // Count nodes per occupied column, in ascending column order.
        let col_index = |c: i64| distinct.binary_search(&c).expect("occupied column");
        let mut per_col = vec![0usize; distinct.len()];
        for &c in &cols {
            per_col[col_index(c)] += 1;
        }
        // Quantile grouping: a column joins the shard its cumulative
        // node count falls into, so contiguous column runs carry close
        // to `n / K` nodes each. `cum_before` is nondecreasing, hence
        // shard indices are monotone in column order (contiguity), and
        // `cum_before < n` keeps every index below `shards`.
        let mut shard_of_col = vec![0usize; distinct.len()];
        let mut cum_before = 0usize;
        for (ci, &count) in per_col.iter().enumerate() {
            shard_of_col[ci] = (cum_before * shards).checked_div(n).unwrap_or(0);
            cum_before += count;
        }
        for c in cols.iter_mut() {
            *c = shard_of_col[col_index(*c)] as i64;
        }
        ShardMap {
            shard_of: cols.into_iter().map(|s| s as usize).collect(),
            shards,
        }
    }

    /// The single-shard (unsharded) map over `n` nodes.
    pub fn single(n: usize) -> Self {
        ShardMap {
            shard_of: vec![0; n],
            shards: 1,
        }
    }

    /// Number of shards (lanes), including any empty ones.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes covered by the map.
    pub fn len(&self) -> usize {
        self.shard_of.len()
    }

    /// Whether the map covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.shard_of.is_empty()
    }

    /// The shard node `idx` belongs to.
    pub fn shard_of(&self, idx: usize) -> usize {
        self.shard_of[idx]
    }

    /// Node count per shard.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards];
        for &s in &self.shard_of {
            counts[s] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_covers_everything() {
        let topo = Topology::grid(3, 3, 25.0, 30.0);
        let map = ShardMap::from_topology(&topo, 1);
        assert_eq!(map.shards(), 1);
        assert_eq!(map.counts(), vec![9]);
        assert!((0..9).all(|i| map.shard_of(i) == 0));
    }

    #[test]
    fn partition_is_contiguous_in_x() {
        let topo = Topology::grid(6, 12, 25.0, 30.0);
        let map = ShardMap::from_topology(&topo, 3);
        // Walking nodes by x, shard indices never decrease.
        let mut by_x: Vec<usize> = (0..topo.len()).collect();
        by_x.sort_by(|&a, &b| {
            topo.position(a.into())
                .x
                .total_cmp(&topo.position(b.into()).x)
        });
        let shards: Vec<usize> = by_x.iter().map(|&i| map.shard_of(i)).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(map.counts().iter().sum::<usize>(), 72);
        assert!(map.counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn more_shards_than_columns_leaves_empties() {
        // 1 column of cells: everything lands in shard 0.
        let topo = Topology::grid(4, 1, 25.0, 30.0);
        let map = ShardMap::from_topology(&topo, 4);
        assert_eq!(map.shards(), 4);
        assert_eq!(map.counts()[0], 4);
        assert_eq!(map.counts()[1..], [0, 0, 0]);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let topo = Topology::grid(2, 2, 25.0, 30.0);
        let map = ShardMap::from_topology(&topo, 0);
        assert_eq!(map.shards(), 1);
    }

    #[test]
    fn partition_is_deterministic() {
        let topo = Topology::grid(5, 9, 25.0, 30.0);
        let a = ShardMap::from_topology(&topo, 4);
        let b = ShardMap::from_topology(&topo, 4);
        assert_eq!(a, b);
    }
}
