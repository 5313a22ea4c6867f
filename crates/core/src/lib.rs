//! The Curb protocol: a trusted and scalable group-based SDN control
//! plane (ICDCS 2022).
//!
//! Curb organises SDN controllers into groups of `3f + 1`, each
//! governing a set of switches. Flow-table updates and controller
//! reassignments are agreed in two stages — intra-group PBFT, then a
//! final committee PBFT — and recorded on a permissioned blockchain,
//! yielding byzantine fault tolerance, verifiability and traceability
//! with only `O(N)` messages per round.
//!
//! This crate implements the protocol end to end on top of the
//! workspace substrates:
//!
//! * [`CurbNetwork`] — Step 0 initialisation (key generation, the OP
//!   controller assignment, genesis block) plus the per-round driver
//!   (Steps 1–4 of the paper's workflow).
//! * [`CurbConfig`] / [`PlaneMode`] — paper-faithful defaults; the flat
//!   BFT baseline used by the Theorem 1 comparison is one enum variant
//!   away.
//! * [`ControllerBehavior`] — byzantine fault injection (silent and
//!   lazy controllers, the paper's experiments ❶–❸).
//! * [`Report`] / [`RoundReport`] — latency, throughput, message and
//!   PDL metrics matching the evaluation figures.
//!
//! # Examples
//!
//! ```rust
//! use curb_core::{ControllerBehavior, CurbConfig, CurbNetwork};
//! use curb_graph::internet2;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = internet2();
//! let mut net = CurbNetwork::new(&topo, CurbConfig::default())?;
//!
//! // A byzantine group leader stops responding...
//! let victim = net.epoch().groups[0].leader();
//! net.set_controller_behavior(victim, ControllerBehavior::Silent);
//! let report = net.run_rounds(8);
//!
//! // ...and is eventually detected and reassigned away.
//! assert!(report.first_reassignment_round().is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod config;
pub mod controller;
pub mod epoch;
pub mod ids;
pub mod metrics;
pub mod msg;
pub mod network;
pub mod payload;
pub mod round;
pub mod shared;
pub mod switch;

pub use agent::{AgentMachine, AgentOutput, ReqOutcome, ANNOUNCE_SEQ_BIT};
pub use config::{CurbConfig, PlaneMode};
pub use epoch::{Epoch, Group};
pub use ids::{ControllerId, GroupId, NodePlan, SwitchId};
pub use metrics::{Report, RoundReport};
pub use msg::CurbMsg;
pub use network::{CurbNetwork, CurbNode, SetupError};
pub use payload::{
    BlockPayload, ConfigData, FlowRuleSpec, ProtoTx, ReqKind, RequestKey, RequestRecord,
    SignedRequest, TxListPayload,
};
pub use round::{Audit, EvidenceBook, ReplyMatcher, ReplyOutcome};
pub use shared::{ControllerBehavior, Shared};
pub use switch::SwitchActor;
