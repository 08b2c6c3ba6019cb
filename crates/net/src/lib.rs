//! # cdnc-net
//!
//! Network substrate for the CDN consistency simulations.
//!
//! The paper's evaluation depends on three first-order network effects, all
//! modelled here:
//!
//! * **propagation delay** — updates travel at fibre speed over the
//!   great-circle distance between nodes, with an extra penalty when the
//!   path crosses ISP boundaries (paper §3.4.3 measures this penalty's
//!   effect on inconsistency);
//! * **sender-side congestion** — every node has a finite-bandwidth uplink
//!   with a FIFO transmit queue plus a per-packet processing cost, which is
//!   what makes Push collapse at the provider as packet size and network
//!   size grow (paper Figs. 19–20, the "Incast" discussion in §5.1);
//! * **traffic cost** — each delivered packet is charged `km × KB` (the
//!   paper's cost metric, following its reference \[41\]) and counted as an
//!   *update* or *light* message (the §5.3 accounting).
//!
//! Node absences (overload / failure / reboot, §3.4.5) are modelled as
//! per-node unavailability intervals in [`absence`].
//!
//! # Examples
//!
//! ```
//! use cdnc_geo::WorldBuilder;
//! use cdnc_net::{Network, NetworkConfig, NodeId, Packet};
//! use cdnc_simcore::SimTime;
//!
//! let world = WorldBuilder::new(10).seed(1).build();
//! let mut net = Network::from_world(&world, NetworkConfig::default(), 7);
//! let provider = net.add_node(world.provider_location(), cdnc_geo::IspId(0));
//! let packet = Packet::update(provider, NodeId(0), 1.0);
//! let arrival = net.send(SimTime::ZERO, &packet);
//! assert!(arrival > SimTime::ZERO);
//! ```

pub mod absence;
pub mod fault;
pub mod latency;
pub mod network;
pub mod node;
pub mod packet;
pub mod traffic;
pub mod uplink;

pub use absence::{AbsenceConfig, AbsenceSchedule};
pub use fault::{Brownout, FaultConfig, FaultDecision, FaultPlane, IspPartition, LinkPartition};
pub use latency::LatencyModel;
pub use network::{Deliveries, Network, NetworkConfig};
pub use node::{NetNode, NodeId};
pub use packet::{Packet, PacketKind, PACKET_KINDS};
pub use traffic::TrafficStats;
pub use uplink::Uplink;
