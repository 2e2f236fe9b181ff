//! TCP service layer for the txview engine (DESIGN §14).
//!
//! * [`wire`] — length-prefixed, checksummed frames carrying a compact
//!   binary request/response protocol with a stable error-code taxonomy.
//! * [`session`] — per-connection transaction state, owned and executed
//!   by its connection's thread, which keeps the engine's
//!   `&mut Transaction` borrow discipline intact.
//! * [`server`] — an accept thread and one thread per connection that
//!   executes its own requests under `workers` permits, admission control
//!   wired to the engine health machine, TCP backpressure, and the
//!   graceful-drain vs abortive-kill shutdown pair.
//! * [`client`] — the blocking reference client.
//! * [`load`] — the open-loop load generator behind E16.

pub mod client;
pub mod load;
pub mod server;
pub mod session;
pub mod wire;

pub use client::Client;
pub use load::{run_load, AckLedger, LoadConfig, LoadReport};
pub use server::{Server, ServerConfig, ServerKiller, ServerStats};
pub use session::Session;
pub use wire::{Request, Response, WireErrorCode};
