//! # fgs-simkernel
//!
//! A small discrete-event simulation kernel, built from scratch as the
//! substrate for reproducing the queueing model of Carey, Franklin &
//! Zaharioudakis, *"Fine-Grained Sharing in a Page Server OODBMS"*
//! (SIGMOD 1994). It plays the role that the DeNet simulation language
//! played for the original study.
//!
//! The kernel provides:
//!
//! * [`Calendar`] — a time-ordered event queue with FIFO tie-breaking that
//!   owns the simulation clock;
//! * [`Cpu`] — a processor with the paper's two-level discipline: FIFO
//!   system requests preempt processor-shared user requests;
//! * [`FifoServer`] — single-server FIFO queues for disks and the network;
//! * [`Pcg32`] — a deterministic random number generator with independent
//!   streams, so experiments are exactly reproducible;
//! * statistics ([`Tally`], [`TimeWeighted`], [`BatchMeans`]) matching the
//!   paper's batch-means 90% confidence intervals.
//!
//! The kernel is model-agnostic: the OODBMS client/server model lives in
//! the `fgs-sim` crate and drives these resources through the calendar.
//!
//! ## Example
//!
//! ```
//! use fgs_simkernel::{Calendar, Cpu, CpuClass, SimTime};
//!
//! // One CPU, one event type: "cpu finished something".
//! let mut cal: Calendar<u64> = Calendar::new();
//! let mut cpu = Cpu::new(15.0); // 15 MIPS, as the paper's clients
//! cpu.submit(cal.now(), 1, 30_000.0, CpuClass::User);
//! let (t, generation) = cpu.completion_event(cal.now()).unwrap();
//! cal.schedule(t, generation);
//! let (now, generation) = cal.pop().unwrap();
//! assert_eq!(cpu.complete(now, generation), Some(vec![1]));
//! assert_eq!(now, SimTime::from_secs(0.002)); // 30k instrs at 15 MIPS
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calendar;
mod cpu;
mod fifo;
mod rng;
mod stats;
pub mod test_support;
mod time;

pub use calendar::{Calendar, EventId};
pub use cpu::{Cpu, CpuClass};
pub use fifo::FifoServer;
pub use rng::Pcg32;
pub use stats::{BatchMeans, Confidence, Tally, TimeWeighted};
pub use time::{Duration, SimTime};
