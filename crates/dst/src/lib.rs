//! # sid-dst
//!
//! Deterministic simulation testing (DST) for the SID reproduction, in
//! the FoundationDB style: a single u64 seed deterministically expands
//! into a full scenario (topology, ship tracks, sea state, duty cycling,
//! burst losses, fault campaign), the scenario runs through the real
//! pipeline with the `sid-obs` journal attached, and the journal is
//! replayed through a battery of invariant oracles. When an oracle
//! fires, an automatic shrinker greedily minimizes the scenario while
//! the violation persists and emits a minimal repro (seed + scenario
//! JSON + violated oracle).
//!
//! The three layers:
//!
//! * [`Scenario`] — seeded scenario generation and execution
//!   ([`Scenario::generate`], [`execute`], and the [`Variant`] reruns a
//!   seed carries).
//! * [`oracle`] — journal-driven invariants ([`oracle::check_all`]):
//!   twelve on every run, plus the differential `variant_equivalence`
//!   and `frontend_equivalence` selected by `Scenario::variants`.
//! * [`mod@shrink`] — greedy scenario minimization
//!   ([`shrink::shrink`], [`FailureRecord`]).
//!
//! Everything downstream of the seed is deterministic: the same seed
//! yields the same scenario, the same journal bytes at any worker-pool
//! size, and therefore the same oracle verdicts. See DESIGN.md §11.
//!
//! ```
//! use sid_dst::{execute, oracle, Sabotage, Scenario};
//!
//! let scenario = Scenario::generate(7);
//! let report = execute(&scenario, Sabotage::None);
//! assert!(oracle::check_all(&report).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use oracle::{check_all, Violation};
pub use scenario::{
    execute, execute_with_threads, FleetSpec, RunReport, Sabotage, Scenario, SeaKind, ShipSpec,
    Variant,
};
pub use shrink::{shrink, FailureRecord, ShrinkResult, SHRINK_BUDGET};
