//! # sid-net
//!
//! Wireless-sensor-network substrate for the SID reproduction: the
//! communication fabric the paper's cooperative detection runs on,
//! replacing the real iMote2 radio deployment with a discrete-event
//! simulation (see DESIGN.md §2).
//!
//! * [`Topology`] — grid (or arbitrary) node placement, disc-radio
//!   neighborhoods, BFS hop counts.
//! * [`RadioModel`] — per-transmission loss and latency jitter, the error
//!   processes the paper cites as motivation for cluster-level fusion.
//! * [`Network`] — time-ordered delivery with unicast, neighborhood
//!   broadcast, N-hop flooding and shortest-path routing, queued on a
//!   [`ShardedScheduler`]. The temporary clusters those floods set up
//!   live in `sid-core`.
//! * [`SyncModel`] — residual time-sync error versus hop distance.
//! * [`GilbertElliott`] / [`FaultPlan`] — burst-loss channels and
//!   replayable node-fault campaigns for chaos runs (see DESIGN.md's
//!   failure-model section).
//!
//! # Examples
//!
//! Flood a 6-hop temporary-cluster invite, with losses: the flood reaches
//! at most the other nodes within 6 hops of the head.
//!
//! ```
//! use rand::SeedableRng;
//! use sid_net::{Network, RadioModel, Topology};
//!
//! let topo = Topology::grid(6, 6, 25.0, 30.0);
//! let head = topo.at_grid(3, 3).unwrap();
//! let others = topo.nodes_within_hops(head, 6).len() - 1; // minus the head
//! let mut net: Network<&str> = Network::new(topo, RadioModel::lossy());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let reached = net.flood(head, "join", 0.0, 6, &mut rng);
//! assert!(reached <= others);
//! ```

// `!(x > 0.0)`-style validation is used deliberately: unlike `x <= 0.0`,
// the negated comparison also rejects NaN inputs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
mod ids;
pub mod radio;
pub mod shard;
pub mod sim;
pub mod timesync;
pub mod topology;

pub use fault::{BurstState, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, GilbertElliott};
pub use ids::NodeId;
pub use radio::RadioModel;
pub use shard::ShardMap;
pub use sim::{CongestionModel, Delivery, NetStats, Network, ShardedScheduler};
pub use timesync::SyncModel;
pub use topology::{NeighborIndex, Position, Topology, SPATIAL_HASH_THRESHOLD};
