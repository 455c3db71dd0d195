//! Network topologies for the DozzNoC reproduction.
//!
//! The paper applies DozzNoC to two grid topologies (Fig. 1):
//!
//! * an **8×8 mesh** — 64 routers, one core per router, and
//! * a **4×4 concentrated mesh (cmesh)** — 16 routers, four cores per
//!   router.
//!
//! Both are instances of a concentration-`c` grid, so a single
//! [`Topology`] struct models both. Routing is XY dimension-order
//! (deadlock-free on meshes) with one-hop **look-ahead**: a router can name
//! the *next* router on a packet's path, which DozzNoC uses both for route
//! pre-computation and to secure/wake downstream power-gated routers.

pub mod direction;
pub mod grid;
pub mod routing;

pub use direction::{Direction, Port, DIR_PORTS};
pub use grid::{Coord, Topology, TopologyKind};
pub use routing::{DimOrder, XyRouter};
