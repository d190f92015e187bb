//! # anonet-runtime
//!
//! Asynchronous, event-driven execution of the paper's node programs. The
//! algorithms in `anonet-core` and `anonet-baselines` are stated for
//! *synchronous* anonymous networks, but their headline property —
//! deterministic, constant-time, id-free — is exactly what makes them
//! deployable in *asynchronous* networks via a local synchronizer (the §1.5
//! observation this crate turns into an executable claim). Every existing
//! [`PnAlgorithm`](anonet_sim::PnAlgorithm) /
//! [`BcastAlgorithm`](anonet_sim::BcastAlgorithm) runs here **unchanged**.
//!
//! The pieces:
//!
//! * [`config::NetworkConfig`] — one scenario: per-link latency
//!   distributions with jitter ([`config::DelayModel`]), FIFO or reordering
//!   links, probabilistic loss with retransmission
//!   ([`config::LossModel`]), crash/restart churn scripted by the
//!   self-stabilization crate's `FaultPlan` ([`config::ChurnPlan`]), and the
//!   seed that makes a run bit-reproducible;
//! * [`events::EventQueue`](crate::events) — a seeded binary-heap
//!   discrete-event queue ordered by `(time, insertion seq)`, so the whole
//!   event trace is deterministic (witnessed by
//!   [`AsyncTrace::event_hash`]);
//! * [`runtime::AsyncRuntime`] — the α-synchronizer event loop: round-tagged
//!   messages, acks, retransmit-until-acked, per-port inboxes for the
//!   current and next round, and on-demand default replies from halted
//!   nodes. The module docs carry the correctness argument; the headline is
//!   that outputs are **bit-identical to the synchronous engine** under
//!   every configuration (property-tested for zero-delay lossless FIFO as
//!   the acceptance regime, and beyond);
//! * [`scenario`] — named ready-made configurations (`ideal`, `datacenter`,
//!   `wan`, `lossy_radio`, `churny_radio`).
//!
//! `MessageSize` instrumentation carries over: [`AsyncTrace`] counts unique
//! receipts (comparable with the synchronous
//! [`Trace`](anonet_sim::Trace) for fixed-schedule algorithms) and
//! separately accounts retransmitted, dropped, and synchronizer-overhead
//! bits, so nothing is silently undercounted when the network misbehaves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod events;
pub mod runtime;
pub mod scenario;

pub use config::{ChurnPlan, DelayModel, LossModel, NetworkConfig};
pub use runtime::{run_async_engine, AsyncError, AsyncResult, AsyncRuntime, AsyncTrace};
