//! # txview-common
//!
//! Foundation types shared by every crate in the `txview` workspace:
//!
//! * [`value::Value`] — the dynamic cell type of the row model,
//! * [`row::Row`] — an ordered tuple of values with a stable binary codec,
//! * [`key::Key`] — an order-preserving binary encoding used by the B-tree,
//! * [`schema`] — table/view schemas and column metadata,
//! * [`codec`] — the little hand-written binary reader/writer everything
//!   on-disk (pages, log records) is serialized with,
//! * [`frame`] — the one checksummed frame (and the checksum) every byte
//!   format's integrity rests on,
//! * [`rng`] — a deterministic xorshift RNG plus a Zipf sampler used by the
//!   workload generators and property tests,
//! * [`obs`] — zero-dependency metrics primitives (counters, gauges,
//!   log₂ histograms, trace ring) shared by every instrumented layer,
//! * [`error::Error`] — the workspace-wide error enum.
//!
//! The crate is intentionally dependency-free so that on-disk formats are
//! explicit and auditable.

pub mod codec;
pub mod error;
pub mod frame;
pub mod ids;
pub mod key;
pub mod obs;
pub mod retry;
pub mod rng;
pub mod row;
pub mod schema;
pub mod value;

pub use error::{Error, Result};
pub use ids::{IndexId, Lsn, ObjectId, PageId, SlotId, TxnId, ViewId};
pub use key::Key;
pub use row::Row;
pub use value::Value;

/// Replace the file at `path` with `bytes` so that a crash leaves either
/// the old contents or the new ones, never a mix: write a sibling
/// temporary file, force it to disk, rename it over `path`, then force the
/// directory entry that now names it.
pub fn write_file_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()
}
