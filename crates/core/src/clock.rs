//! The workspace's single wall-clock access point.
//!
//! Serving latency, socket and replication deadlines, heartbeats and
//! snapshot-tmp staleness are wall-clock by definition. Nothing on the
//! training or recovery path reads them, so the bit-reproducibility
//! contract (`cardest-lint`'s `nondeterminism` rule) is unaffected.
//! Keeping the sanctioned clock reads here makes every other timing site
//! grep-clean.

use std::time::{Instant, SystemTime};

/// Current monotonic instant (latency, deadlines, heartbeats, lag timing).
pub fn now() -> Instant {
    // cardest-lint: allow(nondeterminism): serving latency, deadlines and heartbeats are wall-clock by definition; no training-path result depends on this
    Instant::now()
}

/// Current wall time (file-mtime staleness comparisons only).
pub fn wall() -> SystemTime {
    // cardest-lint: allow(nondeterminism): stale-tmp sweeping compares file mtimes against wall time; no training-path result depends on this
    SystemTime::now()
}
