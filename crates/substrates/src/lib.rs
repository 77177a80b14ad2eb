//! Simulated external systems (substrates) used by the paper's workloads.
//!
//! The paper's Word Count and Log Stream Processing topologies read from a
//! **Redis queue** fed by external producers (a file pusher, LogStash) and
//! write results into a **MongoDB** database; the inputs are the text of
//! *Alice's Adventures in Wonderland* and Microsoft IIS web-server logs.
//! None of those services or datasets are available here, so this crate
//! provides faithful in-process equivalents (see DESIGN.md's substitution
//! table):
//!
//! * [`RedisQueue`] — a FIFO queue with rate-controlled producers; spouts
//!   pop from it, and overload experiments attach a second producer stream
//!   mid-run exactly like the paper "pushed two concurrent streams";
//! * [`MongoStore`] — a collection/document store with deterministic
//!   contents used to *verify* results (the paper added Mongo bolts "to
//!   simply save the results … for verification");
//! * [`corpus`] — an embedded public-domain *Alice* excerpt cycled forever,
//!   mirroring "concatenating the text version of Alice's Adventures in
//!   Wonderland repeatedly";
//! * [`logstash`] — a synthetic Microsoft IIS (W3C extended) log line
//!   generator with realistic field skew, submitted as flat JSON values the
//!   way LogStash does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod json;
pub mod logstash;
pub mod mongo;
pub mod redis;

pub use corpus::CorpusReader;
pub use logstash::{IisLogGenerator, LogEntry};
pub use mongo::{Document, MongoStore};
pub use redis::RedisQueue;
