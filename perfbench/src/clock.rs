//! The benchmark's single wall-clock source.
//!
//! Every timing in the benchmark — end-to-end and per-layer — reads the
//! clock through [`now`], so the one audited `Instant::now` below is the
//! only wall-clock read in the package.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    Instant::now() // lint: allow(D2) -- the benchmark's one timing source; never feeds a digest
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
