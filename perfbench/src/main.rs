//! `perfbench` — the serving benchmark for GL+.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_dense --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --self-test point_dense
//! ```
//!
//! Run from the repository root. One run stands the real server up with
//! `ServerConfig::default()` (the shipped `cardest-serve` settings) in
//! front of GL+ behind the guarded 1% sampling fallback, drives one named
//! workload over at most two connections, checks every answer against an
//! exact count, and prints as its last line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. The line
//! before it is the run's report: provenance, served-by accounting per
//! query class, validity and every failed check. `RATIONALE.md` explains
//! the workloads and what each metric should move.

mod artifact;
mod load;
mod prep;
mod serve;
mod stats;
mod trace;
mod traced;

use cardest_baselines::traits::CardinalityEstimator;
use cardest_data::paper::PaperDataset;
use cardest_server::stats::{LatencySnapshot, Route};
use cardest_server::ServerHandle;
use load::{Sent, Stream};
use prep::{Class, Pair, Served, Workload};
use serde::Value;
use stats::LagLog;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Offered rate of `point_dense` over its two connections, about a quarter
/// of what two closed-loop connections sustain.
const POINT_RATE: f64 = 500.0;
/// Offered estimate rate of `ingest_mixed`'s estimate connection.
const MIXED_ESTIMATE_RATE: f64 = 250.0;
/// Offered insert rate of `ingest_mixed`'s insert connection.
const INSERT_RATE: f64 = 12.5;
/// Inserts in one timed window: enough for a p90 with ten samples beyond
/// it, and one drift check (`DriftConfig::default().check_every` is 64).
/// Together with the traced inserts this stays below
/// `StoreConfig::default().snapshot_every` (256), so every run measures
/// the same write path.
const TIMED_INSERTS: usize = 100;
/// Traced inserts: any 64 consecutive inserts include one drift check
/// (`DriftConfig::default().check_every`).
const TRACED_INSERTS: usize = 64;
/// Entries per `/estimate_batch` request.
const BATCH: usize = 64;
/// Distinct batch bodies a run cycles through.
const BATCH_BODIES: usize = 48;
/// Untimed traffic before the timed window.
const WARMUP: Duration = Duration::from_millis(500);
/// Largest share of CPU time the hypervisor may steal from a window that
/// latency and throughput count before the run is flagged invalid.
const STEAL_LIMIT: f64 = 0.05;
/// `batch_binary` needs longer before its throughput settles.
const WARMUP_BATCH: Duration = Duration::from_millis(2000);
/// Requests of the traced replay.
const TRACED_ESTIMATES: usize = 300;
const TRACED_BATCHES: usize = 24;

/// Where runs write their reports, spans and scratch stores.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <point_dense|batch_binary|ingest_mixed> \
--seed <n> --seconds <n> --trace <0|1>\n       perfbench --self-test <workload>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.max(1),
        trace,
    })
}

/// The metric table of one run: name → (value, unit).
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, &(v, u))| {
                    (
                        k.clone(),
                        Value::Map(vec![
                            (
                                "value".to_string(),
                                Value::Float(if v.is_finite() { v } else { 0.0 }),
                            ),
                            ("unit".to_string(), Value::Str(u.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Counter readings taken around the timed window.
struct Counters {
    routes: Vec<(Route, LatencySnapshot)>,
    coalesced_batches: u64,
    coalesced_queries: u64,
    coalesced_max: u64,
    guard: cardest_baselines::guarded::GuardStats,
    reloads_ok: u64,
    ingest: Option<cardest_server::IngestSnapshot>,
}

fn counters(h: &ServerHandle) -> Counters {
    use std::sync::atomic::Ordering::Relaxed;
    let s = h.stats();
    Counters {
        routes: [Route::Estimate, Route::EstimateBatch, Route::Insert]
            .into_iter()
            .map(|r| (r, s.route(r).snapshot()))
            .collect(),
        coalesced_batches: s.coalesced_batches.load(Relaxed),
        coalesced_queries: s.coalesced_queries.load(Relaxed),
        coalesced_max: s.coalesced_max_batch.load(Relaxed),
        guard: h.registry().stats(),
        reloads_ok: h.registry().reload_stats().ok,
        ingest: h.ingest().map(|i| i.snapshot()),
    }
}

/// Mean route latency over the window between two snapshots.
fn route_mean(a: &Counters, b: &Counters, route: Route) -> f64 {
    let get = |c: &Counters| c.routes.iter().find(|(r, _)| *r == route).map(|(_, s)| *s);
    match (get(a), get(b)) {
        (Some(x), Some(y)) if y.count > x.count => {
            (y.mean_us * y.count as f64 - x.mean_us * x.count as f64) / (y.count - x.count) as f64
        }
        _ => 0.0,
    }
}

/// Served-by accounting of one query class.
#[derive(Default, Clone, Copy)]
struct ClassCount {
    sent: usize,
    answered: usize,
    by_model: usize,
    by_fallback: usize,
}

/// Everything the timed window produced, checked.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    classes: [ClassCount; 2],
    /// (due time, latency in µs from the due time) of every estimate
    /// request.
    latencies: Vec<(u64, f64)>,
    /// (answer time, estimates answered) of every estimate request.
    answers: Vec<(u64, usize)>,
    /// Latency from the actual send, for the attribution metrics.
    service_us: Vec<f64>,
    insert_latencies: Vec<f64>,
    answered_estimates: usize,
    /// First answer per pair.
    first: BTreeMap<usize, f32>,
    versions: Vec<u64>,
    acked_seqs: Vec<u64>,
    inserts_sent: usize,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Checks one estimate against its pair and files it.
    fn estimate(&mut self, pair_idx: usize, pair: &Pair, est: f64, n_max: f64) {
        let c = &mut self.classes[pair.class as usize];
        c.answered += 1;
        self.answered_estimates += 1;
        if !est.is_finite() || est < 0.0 || est > n_max {
            self.fail(format!(
                "estimate {est} for pair {pair_idx} is outside [0, {n_max}]"
            ));
            return;
        }
        let est = est as f32;
        if est.to_bits() == pair.fallback.to_bits() {
            c.by_fallback += 1;
            if pair.class == Class::InRange {
                self.fail(format!(
                    "in_range pair {pair_idx} (tau {}) was answered by the fallback",
                    pair.tau
                ));
            }
        } else {
            c.by_model += 1;
        }
        self.first.entry(pair_idx).or_insert(est);
    }
}

fn parse_json(body: &[u8]) -> Option<Value> {
    serde_json::from_slice::<Value>(body).ok()
}

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    let map = v.expect_map("response").ok()?;
    serde::get_field::<f64>(map, key, "response").ok()
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    let map = v.expect_map("response").ok()?;
    serde::get_field::<u64>(map, key, "response").ok()
}

fn git_provenance(root: &Path) -> (String, Value) {
    if !root.join(".git").exists() {
        return ("unknown (not a git checkout)".to_string(), Value::Null);
    }
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let sha = run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = run(&["status", "--porcelain", "--untracked-files=no"])
        .map_or(Value::Null, |s| Value::Bool(!s.is_empty()));
    (sha, dirty)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn f(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

fn u(v: usize) -> Value {
    Value::UInt(v as u64)
}

/// Every dataset some workload serves.
fn datasets() -> Vec<PaperDataset> {
    let mut out: Vec<PaperDataset> = Vec::new();
    for w in Workload::ALL {
        if !out.contains(&w.dataset()) {
            out.push(w.dataset());
        }
    }
    out
}

/// Trains every workload's missing artifact, so that only the first run
/// in a checkout pays for training. Training runs in a child process and
/// is waited for, so its allocations never count in this process's RSS.
fn ensure_artifacts(root: &Path) -> Result<(), String> {
    let mut missing = false;
    for d in datasets() {
        missing |= !artifact::path_for(root, &d.spec(), prep::DATA_SEED)?.exists();
    }
    if !missing {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("--prepare")
        .current_dir(root)
        .status()
        .map_err(|e| format!("spawn training: {e}"))?;
    if !status.success() {
        return Err(format!("training failed: {status}"));
    }
    Ok(())
}

fn prepare(root: &Path) -> Result<(), String> {
    for d in datasets() {
        Served::build(root, d)?;
    }
    Ok(())
}

fn self_test(root: &Path, w: Workload) -> Result<(), String> {
    let served = Served::build(root, w.dataset())?;
    let scratch = root
        .join(OUT_DIR)
        .join(format!("selftest-{}", std::process::id()));
    let sum = artifact::self_test(
        &served.artifact,
        &served.spec,
        &served.data,
        &served.workload,
        &scratch,
    );
    std::fs::remove_dir_all(&scratch).ok();
    let sum = sum?;
    println!(
        "self-test: a fresh training of {} reproduces {} byte for byte (fnv1a64 {sum:016x})",
        w.name(),
        served.artifact.display()
    );
    Ok(())
}

struct Traffic {
    /// Request bodies; estimates and batches index `pairs` via `members`.
    bodies: Vec<String>,
    /// Pair indices each body carries (one for `/estimate`, 64 for a batch).
    members: Vec<Vec<usize>>,
    insert_bodies: Vec<String>,
    /// Dataset row each insert body duplicates.
    insert_rows: Vec<usize>,
}

impl Traffic {
    /// Fails unless every body decodes to exactly what its answer will be
    /// checked against.
    fn check(&self, served: &Served, pairs: &[Pair]) -> Result<(), String> {
        let repr = served.repr();
        for (body, members) in self.bodies.iter().zip(&self.members) {
            let expected: Vec<_> = members
                .iter()
                .map(|&i| (&pairs[i].query, pairs[i].tau))
                .collect();
            prep::check_body(body, repr, &expected)?;
        }
        for (body, &row) in self.insert_bodies.iter().zip(&self.insert_rows) {
            prep::check_insert_body(body, repr, served.data.view(row))?;
        }
        Ok(())
    }
}

fn build_traffic(w: Workload, served: &Served, pairs: &[Pair], seed: u64) -> Traffic {
    let in_range: Vec<usize> = (0..pairs.len())
        .filter(|&i| pairs[i].class == Class::InRange)
        .collect();
    let estimate = |i: usize| prep::estimate_body(&pairs[i].comps, pairs[i].tau);
    match w {
        Workload::PointDense => Traffic {
            bodies: (0..pairs.len()).map(estimate).collect(),
            members: (0..pairs.len()).map(|i| vec![i]).collect(),
            insert_bodies: Vec::new(),
            insert_rows: Vec::new(),
        },
        Workload::BatchBinary => {
            let mut seq = Vec::with_capacity(BATCH * BATCH_BODIES);
            let mut round = 0u64;
            while seq.len() < BATCH * BATCH_BODIES {
                seq.extend(
                    prep::shuffled(in_range.len(), seed.wrapping_add(round))
                        .into_iter()
                        .map(|k| in_range[k]),
                );
                round += 1;
            }
            seq.truncate(BATCH * BATCH_BODIES);
            let members: Vec<Vec<usize>> = seq.chunks(BATCH).map(<[usize]>::to_vec).collect();
            let bodies = members
                .iter()
                .map(|m| {
                    prep::batch_body(m.iter().map(|&i| (pairs[i].comps.as_slice(), pairs[i].tau)))
                })
                .collect();
            Traffic {
                bodies,
                members,
                insert_bodies: Vec::new(),
                insert_rows: Vec::new(),
            }
        }
        Workload::IngestMixed => {
            let rows = prep::insert_rows(served.data.len(), TIMED_INSERTS + TRACED_INSERTS, seed);
            Traffic {
                bodies: in_range.iter().map(|&i| estimate(i)).collect(),
                members: in_range.iter().map(|&i| vec![i]).collect(),
                insert_bodies: rows
                    .iter()
                    .map(|&r| prep::insert_body(&served.row_components(r)))
                    .collect(),
                insert_rows: rows,
            }
        }
    }
}

/// Length of the windows the timed run is split into for the steal
/// filter.
const WINDOW_NS: u64 = 500_000_000;

fn gap(rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(1.0 / rate_per_s)
}

/// The timed (and warm-up) streams of a workload.
fn streams<'a>(w: Workload, t: &'a Traffic, seed: u64, warmup: bool) -> Vec<Stream<'a>> {
    let order = prep::shuffled(t.bodies.len(), seed ^ 0x5EED);
    let half = order.len() / 2;
    let rotated: Vec<usize> = order[half..]
        .iter()
        .chain(&order[..half])
        .copied()
        .collect();
    match w {
        Workload::PointDense => {
            let per_conn = gap(POINT_RATE / 2.0);
            vec![
                Stream {
                    path: "/estimate",
                    bodies: &t.bodies,
                    order,
                    interval: Some(per_conn),
                    phase: Duration::ZERO,
                    max_sends: usize::MAX,
                },
                Stream {
                    path: "/estimate",
                    bodies: &t.bodies,
                    order: rotated,
                    interval: Some(per_conn),
                    phase: per_conn / 2,
                    max_sends: usize::MAX,
                },
            ]
        }
        Workload::BatchBinary => vec![
            Stream {
                path: "/estimate_batch",
                bodies: &t.bodies,
                order,
                interval: None,
                phase: Duration::ZERO,
                max_sends: usize::MAX,
            },
            Stream {
                path: "/estimate_batch",
                bodies: &t.bodies,
                order: rotated,
                interval: None,
                phase: Duration::ZERO,
                max_sends: usize::MAX,
            },
        ],
        Workload::IngestMixed => {
            let mut v = vec![Stream {
                path: "/estimate",
                bodies: &t.bodies,
                order,
                interval: Some(gap(MIXED_ESTIMATE_RATE)),
                phase: Duration::ZERO,
                max_sends: usize::MAX,
            }];
            if !warmup {
                v.push(Stream {
                    path: "/insert",
                    bodies: &t.insert_bodies,
                    order: (0..TIMED_INSERTS).collect(),
                    interval: Some(gap(INSERT_RATE)),
                    phase: gap(MIXED_ESTIMATE_RATE) / 2,
                    max_sends: TIMED_INSERTS,
                });
            }
            v
        }
    }
}

/// Checks every answer of the timed window.
fn check(
    w: Workload,
    t: &Traffic,
    streams: &[Stream<'_>],
    sent: &[Vec<Sent>],
    pairs: &[Pair],
    n_data: usize,
) -> Outcome {
    let mut o = Outcome::default();
    // Inserts grow the dataset, so the bound on an estimate grows too.
    let inserts = if w == Workload::IngestMixed {
        TIMED_INSERTS
    } else {
        0
    };
    let n_max = (n_data + inserts) as f64;
    for (s, log) in streams.iter().zip(sent) {
        for r in log {
            match s.path {
                "/insert" => {
                    o.attempted += 1;
                    o.inserts_sent += 1;
                    let seq = (r.status == 200)
                        .then(|| parse_json(&r.response))
                        .flatten()
                        .and_then(|v| field_u64(&v, "seq"));
                    match seq {
                        Some(q) => {
                            o.acked_seqs.push(q);
                            o.insert_latencies.push(r.latency_us());
                        }
                        None => {
                            o.failed += 1;
                            o.fail(format!("insert answered {}", r.status));
                        }
                    }
                }
                _ => {
                    let members = &t.members[r.body];
                    o.attempted += members.len();
                    for &m in members {
                        o.classes[pairs[m].class as usize].sent += 1;
                    }
                    let v = (r.status == 200).then(|| parse_json(&r.response)).flatten();
                    let Some(v) = v else {
                        o.failed += members.len();
                        o.fail(format!("{} answered {}", s.path, r.status));
                        continue;
                    };
                    if let Some(ver) = field_u64(&v, "model_version") {
                        if !o.versions.contains(&ver) {
                            o.versions.push(ver);
                        }
                    }
                    if s.path == "/estimate" {
                        match field_f64(&v, "estimate") {
                            Some(est) => o.estimate(members[0], &pairs[members[0]], est, n_max),
                            None => {
                                o.failed += 1;
                                o.fail("estimate response without an estimate".to_string());
                            }
                        }
                    } else {
                        let results = v
                            .expect_map("response")
                            .ok()
                            .and_then(|m| m.iter().find(|(k, _)| k == "results"))
                            .and_then(|(_, r)| r.expect_seq("results").ok());
                        let results = results.unwrap_or(&[]);
                        if results.len() != members.len() {
                            o.failed += members.len();
                            o.fail(format!(
                                "batch of {} answered {} results",
                                members.len(),
                                results.len()
                            ));
                            continue;
                        }
                        for (&m, res) in members.iter().zip(results) {
                            match field_f64(res, "estimate") {
                                Some(est) => o.estimate(m, &pairs[m], est, n_max),
                                None => {
                                    o.failed += 1;
                                    o.fail(format!("batch entry for pair {m} answered an error"));
                                }
                            }
                        }
                    }
                    o.latencies.push((r.due_ns, r.latency_us()));
                    o.answers.push((r.done_ns, members.len()));
                    o.service_us
                        .push(r.done_ns.saturating_sub(r.sent_ns) as f64 / 1e3);
                }
            }
        }
    }
    if w == Workload::IngestMixed {
        let n = o.acked_seqs.len() as u64;
        let contiguous = o
            .acked_seqs
            .iter()
            .enumerate()
            .all(|(i, &q)| q == o.acked_seqs[0] + i as u64);
        if !contiguous || n != o.inserts_sent as u64 {
            o.fail(format!(
                "acknowledged insert sequence numbers are not contiguous ({n} acked of {} sent)",
                o.inserts_sent
            ));
        }
    }
    o
}

fn run(root: &Path, a: &Args) -> Result<(), String> {
    let t_run = std::time::Instant::now();
    let phase =
        |what: &str| eprintln!("perfbench: {what} at {:.1}s", t_run.elapsed().as_secs_f64());
    let out_dir = root.join(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    ensure_artifacts(root)?;
    let mut tracer = a.trace.then(Tracer::default);
    let w = a.workload;
    let served = Served::build(root, w.dataset())?;
    let probe = served.probe_body();
    phase("dataset ready");
    let store_dir = |k: usize| {
        (w == Workload::IngestMixed)
            .then(|| out_dir.join(format!("store-{}-{k}", std::process::id())))
    };

    // Set-up 1 serves the timed window; RSS is measured around it.
    let rss0 = serve::rss_mb();
    let stood = serve::stand_up(&served, &probe, store_dir(0).as_deref())?;
    let mut setups = vec![stood.setup_s];
    let mut loads = vec![stood.load];
    let handle = &stood.handle;
    let model = handle.registry().active();
    let tau_bound = model
        .guarded
        .inner()
        .tau_bound()
        .ok_or("served model reports no tau_bound")?;
    let model_kind = model.kind.clone();
    let specs = prep::classed_pairs(&served, tau_bound, a.seed, w == Workload::PointDense)?;
    let pairs = prep::make_pairs(&served, &specs, tau_bound, &**model.guarded.fallback())?;
    drop(model);
    let traffic = build_traffic(w, &served, &pairs, a.seed);
    traffic.check(&served, &pairs)?;
    phase("inputs checked");

    let warm = streams(w, &traffic, a.seed.wrapping_add(1), true);
    let _ = load::drive(
        handle.addr(),
        &warm,
        if w == Workload::BatchBinary {
            WARMUP_BATCH
        } else {
            WARMUP
        },
    );
    let serving_rss_mb = serve::rss_mb() - rss0;

    let timed = streams(w, &traffic, a.seed, false);
    let c0 = counters(handle);
    let (sent, cpu) = load::drive(handle.addr(), &timed, Duration::from_secs(a.seconds));
    let c1 = counters(handle);
    phase("timed window done");
    let o = check(w, &traffic, &timed, &sent, &pairs, served.data.len());

    // Open-loop schedule keeping.
    let mut lag = LagLog::default();
    let mut valid = true;
    let mut invalid = Vec::new();
    for (s, log) in timed.iter().zip(&sent) {
        if let Some(gap) = s.interval {
            let mut own = LagLog::default();
            for r in log {
                lag.record(r.due_ns, r.sent_ns);
                own.record(r.due_ns, r.sent_ns);
            }
            if !own.kept_schedule(gap.as_secs_f64() * 1e6) {
                valid = false;
                invalid.push(format!("{} fell behind its schedule", s.path));
            }
        }
    }
    // On a shared machine the hypervisor steals CPU time in bursts, and a
    // stolen window measures the neighbours, not the server. Latency and
    // throughput therefore count only windows that lost at most
    // STEAL_LIMIT of the CPU, or the least-stolen half if fewer are that
    // clean, which makes the run invalid.
    let window = WINDOW_NS;
    let windows = a.seconds * 1_000_000_000 / window;
    let steal = stats::steal_per_window(&cpu, window);
    let (kept, clean) = stats::kept_windows(&steal, windows, STEAL_LIMIT);
    if !clean {
        valid = false;
        invalid.push(format!(
            "fewer than half of the {windows} windows lost at most {:.0}% of the CPU to steal",
            STEAL_LIMIT * 100.0
        ));
    }
    let lat = stats::pooled(&o.latencies, window, &kept);
    if !stats::percentile_supported(lat.len(), 0.90) {
        valid = false;
        invalid.push(format!(
            "client.latency_p90_us: {} samples leave fewer than ten beyond p90",
            lat.len()
        ));
    }

    // Accuracy over the first answer of each model-served pair.
    let mut model_pairs = Vec::new();
    let mut fallback_pairs = Vec::new();
    for (&i, &est) in &o.first {
        let p = &pairs[i];
        if est.to_bits() == p.fallback.to_bits() {
            fallback_pairs.push((est, p.truth));
        } else {
            model_pairs.push((est, p.truth));
        }
    }
    let q = stats::qerror_summary(&model_pairs);

    let mut failures = o.failures.clone();
    let fallbacks = c1.guard.fallbacks - c0.guard.fallbacks;
    let served_fallback: usize = o.classes.iter().map(|c| c.by_fallback).sum();
    let oor_answered = o.classes[Class::OutOfRange as usize].answered;
    if fallbacks != served_fallback || served_fallback != oor_answered {
        failures.push(format!(
            "fallback count {fallbacks} (counted by answers: {served_fallback}) differs from the {oor_answered} out_of_range answers"
        ));
    }
    if o.first.is_empty() {
        failures.push("no estimate was answered".to_string());
    }

    // Traced replay after the timed window, on the same server.
    let mut layer = BTreeMap::new();
    let spans_file = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), a.seed));
    if let Some(tr) = tracer.as_mut() {
        let plan = traced::Plan {
            estimates: match w {
                Workload::BatchBinary => Vec::new(),
                _ => timed[0]
                    .order
                    .iter()
                    .take(TRACED_ESTIMATES)
                    .map(|&b| traffic.bodies[b].as_str())
                    .collect(),
            },
            batches: match w {
                Workload::BatchBinary => traffic
                    .bodies
                    .iter()
                    .take(TRACED_BATCHES)
                    .map(String::as_str)
                    .collect(),
                _ => Vec::new(),
            },
            inserts: traffic
                .insert_bodies
                .iter()
                .skip(TIMED_INSERTS)
                .map(String::as_str)
                .collect(),
        };
        layer = traced::run(
            tr,
            &served,
            handle.registry(),
            handle.ingest(),
            &pairs,
            &plan,
            &out_dir,
        )?;
    }
    stood.shutdown();
    phase("traced replay done");
    for k in 1..SETUPS {
        let again = serve::stand_up(&served, &probe, store_dir(k).as_deref())?;
        setups.push(again.setup_s);
        loads.push(again.load);
        again.shutdown();
    }

    let mut all_lat: Vec<f64> = o.latencies.iter().map(|&(_, l)| l).collect();
    all_lat.sort_by(f64::total_cmp);
    let mut ins = o.insert_latencies.clone();
    ins.sort_by(f64::total_cmp);
    let tail = stats::tail_percentile(all_lat.len()).unwrap_or(0.5);
    let answered: usize = o
        .answers
        .iter()
        .filter(|(t, _)| kept.contains(&(t / window)))
        .map(|&(_, n)| n)
        .sum();
    let throughput = answered as f64 * 1e9 / (kept.len() as u64 * window).max(1) as f64;
    let share = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut m = Metrics::default();
    if !a.trace {
        m.put("setup_s", stats::median(&setups), "s");
        m.put("serving_rss_mb", serving_rss_mb, "MiB");
        m.put("latency_p50_us", stats::percentile(&lat, 0.50), "us");
        m.put("throughput_qps", throughput, "1/s");
        m.put("qerror_mean", f64::from(q.mean), "ratio");
        m.put("qerror_median", f64::from(q.median), "ratio");
        m.put("qerror_p95", f64::from(q.p95), "ratio");
        m.put("qerror_p99", f64::from(q.p99), "ratio");
    } else {
        let tr = tracer.as_mut().ok_or("tracer missing")?;
        for (k, load) in loads.iter().enumerate() {
            tr.record(u64::MAX - k as u64, "registry.load", None, *load);
        }
        let main_route = match w {
            Workload::BatchBinary => Route::EstimateBatch,
            _ => Route::Estimate,
        };
        let client_mean = stats::mean(&o.service_us);
        let gd = |a: usize, b: usize| (b - a) as f64;
        let ingest_delta =
            |f: fn(&cardest_server::IngestSnapshot) -> u64| match (&c0.ingest, &c1.ingest) {
                (Some(x), Some(y)) => f(y).saturating_sub(f(x)) as f64,
                _ => 0.0,
            };
        let inserts = ingest_delta(|s| s.inserts);
        m.put("http.read_us", layer["http.read_us"], "us");
        m.put("http.write_us", layer["http.write_us"], "us");
        m.put(
            "http.outside_route_us",
            client_mean - route_mean(&c0, &c1, main_route),
            "us",
        );
        m.put("server.decode_us", layer["server.decode_us"], "us");
        m.put("server.encode_us", layer["server.encode_us"], "us");
        m.put(
            "server.route_mean_us.estimate",
            route_mean(&c0, &c1, Route::Estimate),
            "us",
        );
        m.put(
            "server.route_mean_us.estimate_batch",
            route_mean(&c0, &c1, Route::EstimateBatch),
            "us",
        );
        m.put(
            "server.route_mean_us.insert",
            route_mean(&c0, &c1, Route::Insert),
            "us",
        );
        m.put("model.codec_us", layer["model.codec_us"], "us");
        m.put(
            "coalesce.roundtrip_us",
            layer["coalesce.roundtrip_us"],
            "us",
        );
        m.put("coalesce.wait_us", layer["coalesce.wait_us"], "us");
        m.put(
            "coalesce.mean_batch",
            share(
                (c1.coalesced_queries - c0.coalesced_queries) as usize,
                (c1.coalesced_batches - c0.coalesced_batches) as usize,
            ),
            "count",
        );
        m.put("coalesce.max_batch", c1.coalesced_max as f64, "count");
        m.put(
            "registry.load_s",
            tr.mean_self_us("registry.load").unwrap_or(0.0) / 1e6,
            "s",
        );
        m.put(
            "registry.swaps",
            (c1.reloads_ok - c0.reloads_ok) as f64,
            "count",
        );
        m.put("guarded.serve_us", layer["guarded.serve_us"], "us");
        m.put("guarded.self_us", layer["guarded.self_us"], "us");
        m.put(
            "guarded.fallbacks",
            gd(c0.guard.fallbacks, c1.guard.fallbacks),
            "count",
        );
        m.put(
            "guarded.rejected",
            gd(c0.guard.rejected, c1.guard.rejected),
            "count",
        );
        m.put(
            "guarded.clamped",
            gd(c0.guard.clamped, c1.guard.clamped),
            "count",
        );
        m.put(
            "guarded.monotone_fixes",
            gd(c0.guard.monotone_fixes, c1.guard.monotone_fixes),
            "count",
        );
        for k in [
            "gl.estimate_us",
            "gl.estimate_b1_us",
            "gl.estimate_b64_us",
            "gl.featurize_us",
            "gl.global_us",
            "gl.locals_us",
            "sampling.estimate_us",
            "store.insert_us",
            "ingest.insert_us",
            "ingest.drift_us",
        ] {
            m.put(k, layer[k], "us");
        }
        m.put("gl.locals_per_query", layer["gl.locals_per_query"], "count");
        m.put(
            "ingest.drift_checks",
            ingest_delta(|s| s.drift_checks),
            "count",
        );
        m.put(
            "ingest.drift_triggers",
            ingest_delta(|s| s.drift_triggers),
            "count",
        );
        m.put(
            "ingest.finetunes_ok",
            ingest_delta(|s| s.finetunes_ok),
            "count",
        );
        m.put(
            "store.wal_bytes_per_insert",
            if inserts > 0.0 {
                ingest_delta(|s| s.wal_bytes) / inserts
            } else {
                0.0
            },
            "bytes",
        );
        // Unbounded: on a shared VM it swings with the host's steal (see
        // RATIONALE.md).
        m.put("client.latency_p90_us", stats::percentile(&lat, 0.90), "us");
        // The highest percentile with ten samples beyond it; the report
        // names which one.
        m.put(
            "client.latency_tail_us",
            stats::percentile(&all_lat, tail),
            "us",
        );
        m.put("loadgen.lag_p50_us", lag.percentile_us(0.50), "us");
        m.put("loadgen.lag_p99_us", lag.percentile_us(0.99), "us");
        m.put(
            "trace.unattributed_us",
            client_mean - layer["trace.request_us"],
            "us",
        );
        m.put(
            "fallback_share",
            share(served_fallback, o.answered_estimates),
            "ratio",
        );
        m.put(
            "fallback_qerror_mean",
            stats::qerror_mean(&fallback_pairs),
            "ratio",
        );
        m.put("error_share", share(o.failed, o.attempted), "ratio");
        m.put("insert_p50_us", stats::percentile(&ins, 0.50), "us");
        m.put("insert_p90_us", stats::percentile(&ins, 0.90), "us");
        tr.write_jsonl(&spans_file)
            .map_err(|e| format!("write spans: {e}"))?;
    }

    // The report: provenance, accounting, validity, failed checks.
    let (sha, dirty) = git_provenance(root);
    let class_report = |c: Class| {
        let k = o.classes[c as usize];
        Value::Map(vec![
            ("sent".to_string(), u(k.sent)),
            ("answered".to_string(), u(k.answered)),
            ("served_by_model".to_string(), u(k.by_model)),
            ("served_by_fallback".to_string(), u(k.by_fallback)),
        ])
    };
    let checksum = artifact::checksum(&served.artifact)?;
    let report = Value::Map(vec![
        ("workload".to_string(), s(w.name())),
        ("seed".to_string(), Value::UInt(a.seed)),
        ("seconds".to_string(), Value::UInt(a.seconds)),
        ("trace".to_string(), Value::Bool(a.trace)),
        ("git_sha".to_string(), s(&sha)),
        ("git_dirty".to_string(), dirty),
        (
            "nproc".to_string(),
            u(std::thread::available_parallelism().map_or(1, |p| p.get())),
        ),
        (
            "server_config".to_string(),
            s(&format!("{:?}", serve::server_config())),
        ),
        ("model_kind".to_string(), s(&model_kind)),
        ("dataset".to_string(), s(served.spec.dataset.name())),
        ("tau_bound".to_string(), f(f64::from(tau_bound))),
        (
            "artifact".to_string(),
            s(&served
                .artifact
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default()),
        ),
        (
            "artifact_fnv1a64".to_string(),
            s(&format!("{checksum:016x}")),
        ),
        (
            "setups_s".to_string(),
            Value::Seq(setups.iter().map(|&x| f(x)).collect()),
        ),
        (
            Class::InRange.name().to_string(),
            class_report(Class::InRange),
        ),
        (
            Class::OutOfRange.name().to_string(),
            class_report(Class::OutOfRange),
        ),
        ("inserts_sent".to_string(), u(o.inserts_sent)),
        ("inserts_acked".to_string(), u(o.acked_seqs.len())),
        (
            "model_versions".to_string(),
            Value::Seq(o.versions.iter().map(|&v| Value::UInt(v)).collect()),
        ),
        ("qerror_pairs".to_string(), u(model_pairs.len())),
        ("latency_samples".to_string(), u(o.latencies.len())),
        ("tail_percentile".to_string(), f(tail)),
        (
            "window_steal".to_string(),
            Value::Seq(
                (0..windows)
                    .map(|k| f(steal.get(&k).copied().unwrap_or(1.0)))
                    .collect(),
            ),
        ),
        (
            "windows_kept".to_string(),
            Value::Seq(kept.iter().map(|&k| Value::UInt(k)).collect()),
        ),
        ("kept_latency_samples".to_string(), u(lat.len())),
        ("valid".to_string(), Value::Bool(valid)),
        (
            "invalid_reasons".to_string(),
            Value::Seq(invalid.iter().map(|x| s(x)).collect()),
        ),
        (
            "failed_checks".to_string(),
            Value::Seq(failures.iter().map(|x| s(x)).collect()),
        ),
        (
            "spans".to_string(),
            if a.trace {
                s(&spans_file.to_string_lossy())
            } else {
                Value::Null
            },
        ),
    ]);
    let report_text = serde_json::to_string(&Value::Map(vec![("report".to_string(), report)]))
        .unwrap_or_default();
    if !valid {
        eprintln!("perfbench: run is INVALID: {}", invalid.join("; "));
    }
    for fc in &failures {
        eprintln!("perfbench: check failed: {fc}");
    }
    std::fs::write(
        out_dir.join(format!(
            "report-{}-seed{}-trace{}.json",
            w.name(),
            a.seed,
            u8::from(a.trace)
        )),
        &report_text,
    )
    .map_err(|e| format!("write report: {e}"))?;
    println!("{report_text}");
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(failures.is_empty())),
        ("attempted".to_string(), u(o.attempted.max(1))),
        ("failed".to_string(), u(o.failed)),
        ("metrics".to_string(), m.to_value()),
    ]);
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = PathBuf::from(".");
    let outcome = if argv.first().map(String::as_str) == Some("--prepare") {
        prepare(&root)
    } else if argv.first().map(String::as_str) == Some("--self-test") {
        match argv.get(1).and_then(|w| Workload::parse(w)) {
            Some(w) => self_test(&root, w),
            None => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&argv).and_then(|a| run(&root, &a))
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
