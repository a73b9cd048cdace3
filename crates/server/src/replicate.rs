//! Server-side replication role: who this process is in a primary /
//! warm-standby pair, and the handles the HTTP routes report on.
//!
//! A **primary** owns writes and (optionally) runs a
//! [`cardest_store::ReplicationListener`] streaming its WAL; a
//! **standby** runs a [`cardest_store::ReplicaClient`], serves read-only
//! estimates, answers `POST /insert` with `503` + `Retry-After`, and
//! flips to primary on `POST /admin/promote` — the client is stopped,
//! the drift monitor rebaselines, and inserts start being accepted, all
//! without restarting the process.

use cardest_store::replicate::{PrimaryReplStats, ReplicaClient, ReplicaStatus};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The replication view shared by `GET /ready` and `GET /stats`: role,
/// WAL position, and the counters of whichever stream ends this node
/// runs. Absent parts contribute no keys.
#[derive(Debug, Serialize)]
pub(crate) struct ReplicationSnapshot {
    /// `"standby"`, `"primary"`, or `"static"` (no durable store).
    role: &'static str,
    #[serde(flatten)]
    wal: Option<WalPosition>,
    /// The standby client's counters; kept after a promotion.
    #[serde(flatten)]
    client: Option<ClientSnapshot>,
    /// The WAL stream's counters, when this node streams to standbys.
    #[serde(flatten)]
    listener: Option<ListenerSnapshot>,
}

/// This node's durable WAL head.
#[derive(Debug, Serialize)]
pub(crate) struct WalPosition {
    last_seq: u64,
}

/// A standby's replication client, as of one read.
#[derive(Debug, Serialize)]
pub(crate) struct ClientSnapshot {
    connected: bool,
    last_applied: u64,
    primary_head: u64,
    lag: u64,
    records_applied: u64,
    snapshots_installed: u64,
    reconnects: u64,
    corrupt_frames: u64,
}

/// A primary's WAL stream, as of one read.
#[derive(Debug, Serialize)]
pub(crate) struct ListenerSnapshot {
    /// Standby sessions accepted over the listener's lifetime.
    standby_sessions: u64,
    /// Standby sessions streaming right now.
    standby_active: u64,
    standby_acked: u64,
    standby_lag: u64,
    records_sent: u64,
    snapshots_sent: u64,
}

impl ReplicationSnapshot {
    /// A standby is ready once connected and caught up; a primary or a
    /// static server always is.
    pub(crate) fn ready(&self) -> bool {
        let caught_up = |c: &ClientSnapshot| c.connected && c.lag == 0;
        self.role != "standby" || self.client.as_ref().is_some_and(caught_up)
    }
}

/// Replication role + live handles, shared with every worker thread.
pub struct ReplicationState {
    standby: AtomicBool,
    /// Where a standby's 503 should point writers (`Retry-After` body).
    primary_url: Option<String>,
    /// The standby's replication client; taken (stopped) on promote.
    client: Mutex<Option<ReplicaClient>>,
    /// The standby client's live counters, kept after promote for /stats.
    client_status: Mutex<Option<Arc<ReplicaStatus>>>,
    /// The primary listener's counters, when streaming is enabled.
    listener_stats: Mutex<Option<Arc<PrimaryReplStats>>>,
}

impl ReplicationState {
    /// A writable primary (the default role).
    pub fn primary() -> Arc<Self> {
        Self::new(false, None)
    }

    /// A read-only standby; `primary_url` is advertised on rejected
    /// writes so clients know where to go.
    pub fn standby(primary_url: Option<String>) -> Arc<Self> {
        Self::new(true, primary_url)
    }

    fn new(standby: bool, primary_url: Option<String>) -> Arc<Self> {
        Arc::new(ReplicationState {
            standby: AtomicBool::new(standby),
            primary_url,
            client: Mutex::new(None),
            client_status: Mutex::new(None),
            listener_stats: Mutex::new(None),
        })
    }

    /// Registers the standby's running replication client.
    pub fn attach_client(&self, client: ReplicaClient) {
        *lock(&self.client_status) = Some(client.status());
        *lock(&self.client) = Some(client);
    }

    /// Registers the primary listener's stats handle.
    pub fn attach_listener_stats(&self, stats: Arc<PrimaryReplStats>) {
        *lock(&self.listener_stats) = Some(stats);
    }

    pub fn is_standby(&self) -> bool {
        self.standby.load(Ordering::SeqCst)
    }

    pub fn primary_url(&self) -> Option<&str> {
        self.primary_url.as_deref()
    }

    /// Reads every replication counter once. `last_seq` is the node's
    /// durable WAL head, `None` for a server without a store.
    pub(crate) fn snapshot(&self, last_seq: Option<u64>) -> ReplicationSnapshot {
        let role = match (self.is_standby(), last_seq) {
            (true, _) => "standby",
            (false, Some(_)) => "primary",
            (false, None) => "static",
        };
        let client = lock(&self.client_status).as_ref().map(|s| ClientSnapshot {
            connected: s.connected.load(Ordering::Relaxed),
            last_applied: s.last_applied.load(Ordering::Relaxed),
            primary_head: s.primary_head.load(Ordering::Relaxed),
            lag: s.lag(),
            records_applied: s.records_applied.load(Ordering::Relaxed),
            snapshots_installed: s.snapshots_installed.load(Ordering::Relaxed),
            reconnects: s.reconnects.load(Ordering::Relaxed),
            corrupt_frames: s.corrupt_frames.load(Ordering::Relaxed),
        });
        let listener = lock(&self.listener_stats)
            .as_ref()
            .map(|p| ListenerSnapshot {
                standby_sessions: p.sessions.load(Ordering::Relaxed),
                standby_active: p.active.load(Ordering::Relaxed),
                standby_acked: p.last_acked.load(Ordering::Relaxed),
                standby_lag: p.lag(last_seq.unwrap_or(0)),
                records_sent: p.records_sent.load(Ordering::Relaxed),
                snapshots_sent: p.snapshots_sent.load(Ordering::Relaxed),
            });
        ReplicationSnapshot {
            role,
            wal: last_seq.map(|last_seq| WalPosition { last_seq }),
            client,
            listener,
        }
    }

    /// Standby → primary: stops (and joins) the replication client, then
    /// flips the role so the next `POST /insert` is accepted. Returns
    /// `false` if this node was already primary.
    pub fn promote(&self) -> bool {
        if !self.standby.swap(false, Ordering::SeqCst) {
            return false;
        }
        let client = lock(&self.client).take();
        if let Some(mut c) = client {
            c.stop();
        }
        true
    }
}

/// Counters stay readable after a panicking holder: poison is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_is_one_shot() {
        let state = ReplicationState::standby(Some("http://primary:8080".into()));
        assert!(state.is_standby());
        assert_eq!(state.primary_url(), Some("http://primary:8080"));
        assert!(state.promote(), "first promote flips the role");
        assert!(!state.is_standby());
        assert!(!state.promote(), "second promote reports already-primary");
    }

    #[test]
    fn role_and_readiness_come_from_one_snapshot() {
        let primary = ReplicationState::primary();
        assert_eq!(primary.snapshot(None).role, "static");
        let snap = primary.snapshot(Some(7));
        assert_eq!((snap.role, snap.ready()), ("primary", true));
        let standby = ReplicationState::standby(None);
        let snap = standby.snapshot(Some(7));
        assert_eq!(
            (snap.role, snap.ready()),
            ("standby", false),
            "a standby without a client is not ready"
        );
    }

    #[test]
    fn a_primary_never_promotes() {
        let state = ReplicationState::primary();
        assert!(!state.is_standby());
        assert!(!state.promote());
    }
}
