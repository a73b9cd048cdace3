//! The crash matrix: kill the WAL at every scheduled byte offset and
//! assert recovery is *bit-identical* to the never-crashed run's state
//! after the last fully-durable record.
//!
//! Methodology: run an op stream through a live [`DurableIngest`],
//! fingerprinting the full serialized state after every op (`fp[i]` =
//! state after `i` ops). The WAL bytes of that run, cut at offset `o`,
//! are exactly what a kill at `o` leaves on disk; recovery from that
//! prefix must reproduce `fp[records_surviving(o)]`. The schedule covers
//! clean boundaries, boundary ± 1, every header field's interior,
//! payload midpoints, and seeded random offsets — plus bit-flip
//! mid-stream, crash-between-snapshot-and-truncate, and stray
//! mid-rename temp files.

use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::tuning::TuningConfig;
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::vector::VectorData;
use cardest_data::workload::SearchWorkload;
use cardest_nn::trainer::TrainConfig;
use cardest_store::crash::{install_torn_wal, kill_offsets, records_surviving};
use cardest_store::ingest::{DurableIngest, StoreConfig, SNAPSHOT_FILE, WAL_FILE};
use cardest_store::wal::{scan, HEADER_LEN};
use std::path::{Path, PathBuf};

fn setup(dataset: PaperDataset, seed: u64) -> UpdatableGl {
    let spec = DatasetSpec {
        n_data: 400,
        n_train_queries: 30,
        n_test_queries: 10,
        ..dataset.spec()
    };
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, &spec, seed);
    let cfg = GlConfig {
        variant: GlVariant::GlCnn,
        n_segments: 4,
        local_train: TrainConfig {
            epochs: 2,
            batch_size: 64,
            ..Default::default()
        },
        global_train: TrainConfig {
            epochs: 3,
            batch_size: 64,
            ..Default::default()
        },
        tuning: TuningConfig::fast(),
        tuning_segments: 1,
        ..Default::default()
    };
    let training = TrainingSet::new(&w.queries, &w.train);
    let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
    UpdatableGl::new(
        data,
        spec.metric,
        gl,
        w.queries,
        w.train,
        w.test,
        &w.table,
        UpdateConfig::default(),
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cardest-crashmx-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// No auto-snapshots, no fsync (we crash from byte buffers, not kills),
/// and the full WAL retained so every kill offset is reachable.
fn matrix_cfg() -> StoreConfig {
    StoreConfig {
        snapshot_every: 0,
        sync_writes: false,
        retain_wal: true,
        rotate_bytes: 0,
    }
}

#[derive(Clone, Copy)]
enum Op {
    Insert(usize),
    Delete(usize),
}

/// An op stream with inserts, deletes, and a deliberate double-delete
/// (the no-op second delete is still logged, so replay must reproduce
/// the no-op identically).
fn op_stream() -> Vec<Op> {
    vec![
        Op::Insert(0),
        Op::Insert(1),
        Op::Insert(2),
        Op::Delete(3),
        Op::Insert(5),
        Op::Insert(8),
        Op::Delete(3), // no-op: already tombstoned
        Op::Insert(13),
        Op::Insert(21),
        Op::Delete(34),
        Op::Insert(55),
        Op::Insert(89),
        Op::Insert(144),
        Op::Insert(233),
    ]
}

/// Applies the stream to a live store, returning `fp[i]` = fingerprint
/// after the first `i` ops (so `fp[0]` is the pre-stream state).
fn run_stream(store: &mut DurableIngest, src: &VectorData, ops: &[Op]) -> Vec<u64> {
    let mut fps = vec![store.fingerprint().unwrap()];
    for op in ops {
        match *op {
            Op::Insert(row) => {
                store.insert(src.view(row)).unwrap();
            }
            Op::Delete(idx) => {
                store.delete(idx).unwrap();
            }
        }
        fps.push(store.fingerprint().unwrap());
    }
    fps
}

/// Record end offsets of a WAL byte buffer (cumulative framing).
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let s = scan(bytes);
    assert_eq!(s.defect, None, "live WAL must scan clean");
    let mut ends = Vec::with_capacity(s.records.len());
    let mut at = 0usize;
    for r in &s.records {
        at += HEADER_LEN + r.payload.len();
        ends.push(at);
    }
    ends
}

/// Installs `snapshot` + the first `keep` bytes of `wal` in `dir` and
/// recovers. Returns the recovered store and its report.
fn recover_torn(
    dir: &Path,
    snapshot: &[u8],
    wal: &[u8],
    keep: usize,
) -> (DurableIngest, cardest_store::RecoveryReport) {
    std::fs::write(dir.join(SNAPSHOT_FILE), snapshot).unwrap();
    install_torn_wal(&dir.join(WAL_FILE), wal, keep).unwrap();
    DurableIngest::open(dir, matrix_cfg()).unwrap()
}

#[test]
fn crash_matrix_dense_recovers_bit_identical_state() {
    let upd = setup(PaperDataset::GloVe300, 41);
    let src = upd.data().gather(&(0..300).collect::<Vec<_>>());
    let live_dir = tmp_dir("dense-live");
    let mut store = DurableIngest::create(&live_dir, upd, matrix_cfg()).unwrap();
    let ops = op_stream();
    let fps = run_stream(&mut store, &src, &ops);
    assert_eq!(fps.len(), ops.len() + 1);

    let snapshot = std::fs::read(live_dir.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(live_dir.join(WAL_FILE)).unwrap();
    let ends = record_ends(&wal);
    assert_eq!(ends.len(), ops.len());

    let offsets = kill_offsets(&ends, 0xC4A5, 12);
    let rec_dir = tmp_dir("dense-rec");
    for (k, &off) in offsets.iter().enumerate() {
        let survivors = records_surviving(&ends, off);
        let (recovered, report) = recover_torn(&rec_dir, &snapshot, &wal, off);
        assert_eq!(
            recovered.fingerprint().unwrap(),
            fps[survivors],
            "kill at byte {off} ({survivors} records durable) diverged: {report:?}"
        );
        assert_eq!(report.snapshot_seq, 0);
        assert_eq!(report.replayed, survivors);
        assert_eq!(recovered.last_seq(), survivors as u64);
        // A kill that did not land on a record boundary must be reported
        // as a (now truncated) tail defect.
        let clean = off == 0 || ends.contains(&off);
        assert_eq!(report.wal.defect.is_none(), clean, "kill at {off}");
        drop(recovered);
        // Recovery is idempotent: re-opening the repaired store drops
        // nothing further and lands on the same state.
        if k % 5 == 0 {
            let (again, report2) = DurableIngest::open(&rec_dir, matrix_cfg()).unwrap();
            assert_eq!(report2.wal.bytes_dropped, 0, "second open re-truncated");
            assert_eq!(report2.wal.defect, None);
            assert_eq!(again.fingerprint().unwrap(), fps[survivors]);
        }
    }

    // Post-recovery estimates stay well-formed after a full-tail recovery.
    let (recovered, _) = recover_torn(&rec_dir, &snapshot, &wal, wal.len());
    let est = recovered.estimator();
    for s in est.test_samples().iter().take(3) {
        let e = est.gl().estimate(est.queries().view(s.query), s.tau);
        assert!(e.is_finite() && e >= 0.0, "post-recovery estimate {e}");
    }

    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&rec_dir).ok();
}

#[test]
fn crash_matrix_binary_recovers_bit_identical_state() {
    // Same matrix on a bit-packed Hamming dataset: exercises the binary
    // insert op encoding. Boundary-heavy schedule, fewer random offsets.
    let upd = setup(PaperDataset::ImageNet, 43);
    let src = upd.data().gather(&(0..100).collect::<Vec<_>>());
    let live_dir = tmp_dir("bin-live");
    let mut store = DurableIngest::create(&live_dir, upd, matrix_cfg()).unwrap();
    let ops: Vec<Op> = vec![
        Op::Insert(0),
        Op::Insert(7),
        Op::Delete(2),
        Op::Insert(9),
        Op::Insert(11),
        Op::Delete(2),
        Op::Insert(63),
    ];
    let fps = run_stream(&mut store, &src, &ops);
    let snapshot = std::fs::read(live_dir.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(live_dir.join(WAL_FILE)).unwrap();
    let ends = record_ends(&wal);
    let rec_dir = tmp_dir("bin-rec");
    for &off in &kill_offsets(&ends, 0xB17, 4) {
        let survivors = records_surviving(&ends, off);
        let (recovered, _) = recover_torn(&rec_dir, &snapshot, &wal, off);
        assert_eq!(
            recovered.fingerprint().unwrap(),
            fps[survivors],
            "binary kill at byte {off}"
        );
    }
    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&rec_dir).ok();
}

#[test]
fn bit_flip_mid_stream_recovers_the_prefix_before_the_flip() {
    let upd = setup(PaperDataset::GloVe300, 47);
    let src = upd.data().gather(&(0..300).collect::<Vec<_>>());
    let live_dir = tmp_dir("flip-live");
    let mut store = DurableIngest::create(&live_dir, upd, matrix_cfg()).unwrap();
    let ops = op_stream();
    let fps = run_stream(&mut store, &src, &ops);
    let snapshot = std::fs::read(live_dir.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(live_dir.join(WAL_FILE)).unwrap();
    let ends = record_ends(&wal);
    let rec_dir = tmp_dir("flip-rec");
    // Flip one bit inside records 2, 6, and the last: recovery keeps
    // exactly the records before the flipped one.
    for &r in &[2usize, 6, ops.len() - 1] {
        let start = if r == 0 { 0 } else { ends[r - 1] };
        let mut torn = wal.clone();
        torn[start + 9] ^= 0x20; // inside the checksum field
        std::fs::write(rec_dir.join(SNAPSHOT_FILE), &snapshot).unwrap();
        std::fs::write(rec_dir.join(WAL_FILE), &torn).unwrap();
        let (recovered, report) = DurableIngest::open(&rec_dir, matrix_cfg()).unwrap();
        assert_eq!(report.replayed, r, "flip in record {r}");
        assert!(report.wal.defect.is_some());
        assert_eq!(recovered.fingerprint().unwrap(), fps[r]);
    }
    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&rec_dir).ok();
}

#[test]
fn segmented_wal_crash_matrix_recovers_across_segments() {
    // The same kill-and-recover methodology, with the WAL rotated into
    // several sealed segments: kills inside the active segment, kills
    // exactly at a rotation boundary (no active file yet), and a flip
    // inside a middle sealed segment — which must drop that segment's
    // tail AND every later segment, keeping one gap-free prefix.
    let upd = setup(PaperDataset::GloVe300, 59);
    let src = upd.data().gather(&(0..300).collect::<Vec<_>>());
    let live_dir = tmp_dir("seg-live");
    let cfg = StoreConfig {
        snapshot_every: 0,
        sync_writes: false,
        retain_wal: true,
        rotate_bytes: 256,
    };
    let mut store = DurableIngest::create(&live_dir, upd, cfg).unwrap();
    let ops = op_stream();
    let fps = run_stream(&mut store, &src, &ops);
    assert!(
        store.wal_segments() >= 2,
        "stream must span several sealed segments, got {}",
        store.wal_segments()
    );
    drop(store);

    let snapshot = std::fs::read(live_dir.join(SNAPSHOT_FILE)).unwrap();
    let mut sealed: Vec<(String, Vec<u8>)> = std::fs::read_dir(&live_dir)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name.starts_with("wal.") && name.ends_with(".seg"))
                .then(|| (name, std::fs::read(e.path()).unwrap()))
        })
        .collect();
    sealed.sort(); // zero-padded names: lexical order == sequence order
    let active = std::fs::read(live_dir.join(WAL_FILE)).unwrap();
    let per_segment: Vec<usize> = sealed.iter().map(|(_, b)| scan(b).records.len()).collect();
    let sealed_total: usize = per_segment.iter().sum();
    let ends_active = record_ends(&active);
    assert_eq!(sealed_total + ends_active.len(), ops.len());

    let rec_dir = tmp_dir("seg-rec");
    // Lays down snapshot + all sealed segments + `keep` bytes of the
    // active file (None = crashed exactly at a rotation boundary).
    let restore = |keep_active: Option<usize>| {
        for e in std::fs::read_dir(&rec_dir).unwrap().flatten() {
            if e.file_name().to_string_lossy().starts_with("wal.") {
                std::fs::remove_file(e.path()).unwrap();
            }
        }
        std::fs::write(rec_dir.join(SNAPSHOT_FILE), &snapshot).unwrap();
        for (name, bytes) in &sealed {
            std::fs::write(rec_dir.join(name), bytes).unwrap();
        }
        if let Some(keep) = keep_active {
            install_torn_wal(&rec_dir.join(WAL_FILE), &active, keep).unwrap();
        }
    };

    // Kill inside the active segment: sealed records all survive, the
    // active tail truncates exactly as in the single-file matrix.
    for &off in &kill_offsets(&ends_active, 0x5E61, 4) {
        restore(Some(off));
        let (recovered, report) = DurableIngest::open(&rec_dir, cfg).unwrap();
        let survivors = sealed_total + records_surviving(&ends_active, off);
        assert_eq!(
            recovered.fingerprint().unwrap(),
            fps[survivors],
            "active-segment kill at byte {off} diverged: {report:?}"
        );
        assert_eq!(recovered.last_seq(), survivors as u64);
    }

    // Kill exactly at a rotation boundary: the active file was never
    // created. Recovery is the sealed stream, and the sequence counter
    // continues where it left off.
    restore(None);
    let (mut recovered, report) = DurableIngest::open(&rec_dir, cfg).unwrap();
    assert_eq!(report.replayed, sealed_total);
    assert_eq!(recovered.fingerprint().unwrap(), fps[sealed_total]);
    let receipt = recovered.insert(src.view(250)).unwrap();
    assert_eq!(receipt.seq, sealed_total as u64 + 1);
    drop(recovered);

    // Flip a checksum bit in a *middle* sealed segment: everything from
    // that record on — including later segments and the active file — is
    // unreachable and must be dropped from disk.
    let mid = sealed.len() / 2;
    let before_mid: usize = per_segment[..mid].iter().sum();
    restore(Some(active.len()));
    let mut flipped = sealed[mid].1.clone();
    flipped[9] ^= 0x40; // inside the first record's checksum field
    std::fs::write(rec_dir.join(&sealed[mid].0), &flipped).unwrap();
    let (recovered, report) = DurableIngest::open(&rec_dir, cfg).unwrap();
    assert!(report.wal.defect.is_some(), "flip must surface as a defect");
    assert_eq!(report.replayed, before_mid);
    assert_eq!(recovered.fingerprint().unwrap(), fps[before_mid]);
    assert_eq!(recovered.last_seq(), before_mid as u64);
    for (name, _) in &sealed[mid..] {
        assert!(
            !rec_dir.join(name).exists(),
            "{name} should have been dropped with the broken chain"
        );
    }
    assert_eq!(
        std::fs::metadata(rec_dir.join(WAL_FILE)).unwrap().len(),
        0,
        "orphaned active records must not survive a mid-chain break"
    );
    drop(recovered);
    // Idempotent: a second open finds nothing further to repair.
    let (again, report2) = DurableIngest::open(&rec_dir, cfg).unwrap();
    assert_eq!(report2.wal.bytes_dropped, 0);
    assert_eq!(again.fingerprint().unwrap(), fps[before_mid]);

    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&rec_dir).ok();
}

#[test]
fn snapshot_mid_stream_matches_straight_through_replay() {
    let upd = setup(PaperDataset::GloVe300, 53);
    let base_json = upd.snapshot_json().unwrap();
    let src = upd.data().gather(&(0..300).collect::<Vec<_>>());
    let ops = op_stream();

    // Reference: full-WAL run, no snapshots.
    let dir_a = tmp_dir("snapmid-a");
    let mut store_a = DurableIngest::create(&dir_a, upd, matrix_cfg()).unwrap();
    let fps = run_stream(&mut store_a, &src, &ops);

    // Same stream with auto-snapshots every 5 appends (and WAL truncation
    // behind them): the end state must be bit-identical.
    let dir_b = tmp_dir("snapmid-b");
    let upd_b = UpdatableGl::from_snapshot_json(&base_json).unwrap();
    let cfg_b = StoreConfig {
        snapshot_every: 5,
        sync_writes: false,
        retain_wal: false,
        rotate_bytes: 0,
    };
    let mut store_b = DurableIngest::create(&dir_b, upd_b, cfg_b).unwrap();
    let fps_b = run_stream(&mut store_b, &src, &ops);
    assert_eq!(fps_b.last(), fps.last(), "snapshotting changed the state");
    drop(store_b);
    // The on-disk snapshot is the one auto-written at append 10.
    let snap_b = std::fs::read(dir_b.join(SNAPSHOT_FILE)).unwrap();

    // Store B's WAL now holds only the records past its last snapshot
    // (seq 10). Crash it at every offset: recovery = snapshot(10) + tail.
    let wal_b = std::fs::read(dir_b.join(WAL_FILE)).unwrap();
    let ends_b = record_ends(&wal_b);
    assert_eq!(ends_b.len(), ops.len() - 10);
    for &off in &kill_offsets(&ends_b, 0x5EED, 4) {
        install_torn_wal(&dir_b.join(WAL_FILE), &wal_b, off).unwrap();
        let (recovered, report) = DurableIngest::open(&dir_b, cfg_b).unwrap();
        assert_eq!(report.snapshot_seq, 10);
        let survivors = records_surviving(&ends_b, off);
        assert_eq!(recovered.fingerprint().unwrap(), fps[10 + survivors]);
    }

    // Crash *between* snapshot-write and WAL-truncate: the snapshot at
    // seq 10 paired with the full WAL (seqs 1..=14). Covered records are
    // skipped, the tail is replayed.
    let wal_a = std::fs::read(dir_a.join(WAL_FILE)).unwrap();
    let dir_c = tmp_dir("snapmid-c");
    std::fs::write(dir_c.join(SNAPSHOT_FILE), &snap_b).unwrap();
    std::fs::write(dir_c.join(WAL_FILE), &wal_a).unwrap();
    let (recovered, report) = DurableIngest::open(&dir_c, cfg_b).unwrap();
    assert_eq!(report.skipped, 10);
    assert_eq!(report.replayed, 4);
    assert_eq!(recovered.fingerprint().unwrap(), *fps.last().unwrap());

    // Crash mid-snapshot-rename: a stray temp file next to a good
    // snapshot is swept, never loaded. Recovery runs at least a process
    // restart after the crash, so the dropping is older than the sweep's
    // grace window — simulated by backdating its mtime.
    let dropping = dir_c.join(".state.snapshot.tmp.4242");
    std::fs::write(&dropping, b"torn snapshot").unwrap();
    let f = std::fs::File::options()
        .write(true)
        .open(&dropping)
        .unwrap();
    f.set_modified(cardest_core::clock::wall() - 2 * cardest_store::snapshot::SWEEP_GRACE)
        .unwrap();
    drop(f);
    let (_, report) = DurableIngest::open(&dir_c, cfg_b).unwrap();
    assert_eq!(report.stale_tmp_swept, 1);
    assert!(!dropping.exists());

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
    std::fs::remove_dir_all(&dir_c).ok();
}
