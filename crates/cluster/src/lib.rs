//! The full Curb protocol over real sockets: a multi-group control
//! plane with s-agents, a final committee, and live RE-ASS.
//!
//! Where `curb-core` runs the protocol inside a discrete-event
//! simulator and `curb-net` runs a *single* PBFT group over TCP, this
//! crate deploys the whole architecture on real sockets:
//!
//! * **Controller nodes** ([`ControllerNode`]) each host one consensus
//!   runner per controller group they belong to plus the final
//!   committee, multiplexed over a single TCP backbone connection per
//!   node pair (group-scoped *lanes* inside the shared transport; the
//!   wire handshake carries the cluster instance id and rejects
//!   foreign peers).
//! * **S-agents** ([`SAgent`]) are real TCP clients that raise
//!   PACKET_IN requests, accept on `f + 1` identical REPLYs, install
//!   the committed `curb-sdn` flow rules, and turn contradicting or
//!   missing replies into byzantine evidence — by driving
//!   [`AgentMachine`], the same s-agent the simulator runs.
//! * **Live RE-ASS**: accusations trigger a CAP re-solve; the
//!   committed `NewAssignment` rotates the epoch on every node while
//!   the previous epoch's consensus instances drain in flight.
//!
//! The per-phase spans `cluster.round`, `cluster.intra` and
//! `cluster.final` land in `curb-telemetry` alongside the transport's
//! `consensus.*` spans.
//!
//! # Example
//!
//! ```no_run
//! use curb_cluster::{Cluster, ClusterConfig};
//! use curb_core::SwitchId;
//! use curb_graph::synthetic;
//!
//! let topo = synthetic(4, 2, 7);
//! let cluster = Cluster::launch(&topo, ClusterConfig::default()).unwrap();
//! cluster.pkt_in(SwitchId(0), 1);
//! for (switch, event) in cluster.events.iter().take(1) {
//!     println!("{switch:?}: {event:?}");
//! }
//! cluster.shutdown();
//! ```
//!
//! [`AgentMachine`]: curb_core::AgentMachine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod driver;
pub mod introspect;
pub mod node;
pub mod payload;
pub mod persist;
pub mod sagent;
pub mod wire;

pub use cluster::{bootstrap, bootstrap_pinned, Bootstrap, Cluster, ClusterConfig};
pub use driver::{
    build_schedule, schedule_digest, spawn_fault_script, spawn_injector, Arrival, ArrivalGen,
    ArrivalProcess, FaultAction, FaultEvent, FaultPlane, PhaseSpec,
};
pub use introspect::{query as introspect_query, IntrospectServer, IntrospectState};
pub use node::{
    final_lane, genesis_record, intra_lane, ControllerNode, NodeBehavior, NodeConfig, NodeHandle,
    NodeProbe, LANE_STRIDE,
};
pub use payload::CtrlPayload;
pub use persist::{ChainStore, PersistConfig, RecoveryInfo, TAIL_BLOCKS};
pub use sagent::{AgentEvent, AgentHandle, AgentInjector, AgentProbe, SAgent};
pub use wire::{ClusterMsg, SbMsg};
