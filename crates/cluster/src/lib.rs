#![warn(missing_docs)]

//! Multi-host HotC: the paper's §VII future work, built out.
//!
//! > "in a distributed system, a few containers are extremely popular and
//! > are invoked a lot while others may not be used often. Some host
//! > machines might become overloaded and we need to consider load balancing
//! > when reusing the hot runtime."
//!
//! A [`Cluster`] fronts several hosts, each running its own container engine
//! and HotC pool (one [`faas::Gateway`] per node). Incoming requests are
//! placed by a [`SchedulePolicy`]:
//!
//! * [`SchedulePolicy::RoundRobin`] — classic rotation; oblivious to both
//!   load and pooled runtimes, it smears every runtime type across all
//!   nodes (each node cold-starts its own copy).
//! * [`SchedulePolicy::LeastLoaded`] — place on the node with the fewest
//!   in-flight requests; balances load but still ignores the pools.
//! * [`SchedulePolicy::ReuseAffinity`] — prefer a node holding an *available
//!   warm runtime* of the request's type, breaking ties toward the least
//!   loaded node, and falling back to least-loaded when nobody is warm. An
//!   overload guard keeps affinity from melting a hot node: if the preferred
//!   node's in-flight load exceeds the cluster mean by more than
//!   [`Cluster::OVERLOAD_FACTOR`]×, the request spills to the least-loaded
//!   node instead (accepting one cold start to protect latency).
//! * [`SchedulePolicy::CostAware`] — estimate each node's completion time
//!   (cold-start cost, zero when warm, plus execution at the node's speed)
//!   and pick the minimum; the right policy for *heterogeneous* cloudlets
//!   where warm affinity would pin heavy work to a slow edge node.
//!
//! Warm-reading policies (reuse affinity *and* cost-aware) consult warm
//! availability through a periodically synchronized replicated view
//! ([`Cluster::set_warm_view_staleness`]), modelling the §VII distributed
//! key-value store and its staleness cost.
//!
//! Placement state is indexed, not scanned: a [`warm_index::WarmIndex`] of
//! per-key believed-warm host lists maintained by placement debits and sync
//! events, plus a [`load::LoadIndex`] picking fallback nodes by
//! power-of-two-choices — a placement costs O(1) amortized at 1024 hosts /
//! 10k functions (DESIGN §9). [`reference::ReferenceCluster`] retains the
//! naive scan-everything semantics as an executable spec; the
//! `indexed_matches_reference` property test holds the two to
//! decision-for-decision agreement.
//!
//! The `repro cluster` and `repro cloudlet` experiments compare the policies
//! under Zipf-skewed and heterogeneous workloads; `tests/cluster.rs` asserts
//! the expected orderings (affinity ⇒ fewest cold starts and containers on a
//! homogeneous cluster; cost-aware ⇒ best heavy-class latency on a
//! cloudlet).

pub mod load;
pub mod reference;
mod sched;
mod warm_index;

pub use reference::{RefInFlight, ReferenceCluster};
pub use sched::{
    Cluster, ClusterError, ClusterInFlight, ClusterStats, NodeSnapshot, SchedulePolicy,
};
