//! End-to-end benchmark of the Starlink mediator: seeded closed-loop
//! clients drive real client applications through a deployed
//! `MediatorHost` (both host shapes) to a real service, check every
//! reply, and report latency, throughput, set-up time and memory. A
//! separate traced run times each layer of the paper's Fig. 6 runtime
//! from outside, through its public traits. See `README.md`.

#![forbid(unsafe_code)]

pub mod layers;
pub mod run;
pub mod stats;
pub mod tap;
pub mod workload;
