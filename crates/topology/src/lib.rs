//! The Storm topology model.
//!
//! A Storm application is a directed graph (*topology*) of **spouts**
//! (stream sources) and **bolts** (stream consumers/transformers), connected
//! by streams whose routing is defined by a *grouping* (Section II of the
//! paper). Components are executed as parallel **tasks**, grouped into
//! **executors** (threads).
//!
//! This crate models the static structure: the graph, parallelism hints,
//! output field declarations, groupings, validation, and the expansion of
//! components into the executor/task list that the scheduler assigns to
//! slots. Dynamic behaviour (what a bolt actually does to a tuple) is
//! supplied by the simulator crate via logic traits, keeping this crate a
//! pure data model — exactly the property that makes T-Storm "transparent
//! to Storm users": the same [`Topology`] value runs unmodified under every
//! scheduler.
//!
//! # Example
//!
//! ```
//! use tstorm_topology::{Grouping, TopologyBuilder};
//!
//! let topo = TopologyBuilder::new("word-count")
//!     .spout("reader", 2, &["line"])
//!     .bolt("split", 5, &["word"], &[("reader", Grouping::Shuffle)])
//!     .bolt("count", 5, &["word", "n"], &[("split", Grouping::fields(&["word"]))])
//!     .num_ackers(2)
//!     .build()?;
//! assert_eq!(topo.components().len(), 4); // reader, split, count + __acker
//! # Ok::<(), tstorm_types::TStormError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod component;
pub mod grouping;
pub mod plan;
pub mod topology;
pub mod value;

pub use builder::TopologyBuilder;
pub use component::{ComponentKind, ComponentSpec, CostProfile};
pub use grouping::Grouping;
pub use plan::{ExecutionPlan, ExecutorSpec, TaskSpec};
pub use topology::{StreamEdge, Topology, ACKER_COMPONENT};
pub use value::{Fields, Value};
