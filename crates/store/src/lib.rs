//! Content-addressed checkpoint store for the AutoCAT workspace.
//!
//! Three layers, each usable on its own:
//!
//! - [`codec`] — the compact versioned binary codec for
//!   `autocat_nn::value::Value` trees (magic `ACSB`) — the only
//!   checkpoint codec. Bit-exact inverse of itself and tree-equal with
//!   the JSON codec.
//! - [`Store`] — `objects/<digest>.ckpt.bin` + `index.json`: put/fetch
//!   with digest verification, `(scenario, spec digest)` lookup,
//!   best/latest selection.
//! - [`RetentionPolicy`] — max-count / max-age / glob keep-patterns,
//!   applied only by an explicit [`Store::gc`] pass.
//! - [`Journal`] — a versioned append-only JSONL journal (header line +
//!   one record per line, torn-tail tolerant), the durability primitive
//!   the serving daemon's restart-safe job table is built on.
//!
//! The serving daemon (`autocat-serve`) and the resumable sweep sit on
//! top of this crate with the same [`Store`] layout; all their
//! persistence goes through it, and [`now_unix`] is the one wall-clock
//! read either makes (entry timestamps for gc).

pub mod codec;
pub mod journal;
pub mod retention;
pub mod store;

pub use journal::Journal;
pub use retention::{glob_match, RetentionPolicy};
pub use store::{digest_from_hex, digest_hex, now_unix, EntryMeta, GcStats, Store, StoreEntry};
