//! The traced run: replays a fixed sample of a workload's requests through
//! the same public calls the server makes, in the same order, with a span
//! around each call.
//!
//! * HTTP: `HttpConnection::read_request` / `write_response` on a loopback
//!   pair; the client writes the request before the read span opens, so
//!   `http.read` is the server's own parsing and copying.
//! * Route: `serde_json::from_slice` + `get_field` (`server.decode`),
//!   `OwnedQuery::from_components` (`model.codec`), then the layer the
//!   route calls — a private `Coalescer` with `CoalesceConfig::default()`
//!   for `/estimate`, `GuardedEstimator::serve_batch` for
//!   `/estimate_batch`, `IngestService::insert` for `/insert` — and
//!   `serde_json::to_string` (`server.encode`).
//! * Model: the coalescer's batcher runs on its own thread, so the calls
//!   it makes are replayed after each request under a `model` root:
//!   `serve_batch`, the model's `estimate_batch`, its featurization
//!   (`Segmentation::centroid_distances_into`) and global pass
//!   (`GlobalModel::probabilities_batch`), and the fallback.
//!
//! Layers whose calls are opaque are derived by difference: the coalescer
//! wait is the round trip minus `guarded.serve`, the guard's own time is
//! `guarded.serve` minus model and fallback, the local models are the
//! model call minus featurization and global pass, and the drift check is
//! `IngestService::insert` minus `DurableIngest::insert`.

use cardest_baselines::traits::CardinalityEstimator;
use cardest_core::gl::GlEstimator;
use cardest_data::vector::VectorView;
use cardest_nn::Matrix;
use cardest_server::coalesce::{CoalesceConfig, Coalescer};
use cardest_server::http::{HttpConnection, NextRequest};
use cardest_server::model::{LoadedModel, OwnedQuery};
use cardest_server::registry::ServingModel;
use cardest_server::stats::ServerStats;
use cardest_server::{IngestService, ModelRegistry};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::prep::{Class, Pair, Served};
use crate::trace::Tracer;

const MAX_BODY: usize = 4 * 1024 * 1024;

/// The client end of the loopback pair.
struct LoopClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LoopClient {
    fn send(&mut self, path: &str, body: &str) -> Result<(), String> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nhost: cardest\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(body.as_bytes()))
            .map_err(|e| format!("loopback write: {e}"))
    }

    /// Reads one response; returns its status and body.
    fn recv(&mut self) -> Result<(u16, Vec<u8>), String> {
        loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..end]).to_string();
                let status = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let len = head
                    .lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                if self.buf.len() >= end + 4 + len {
                    let body = self.buf[end + 4..end + 4 + len].to_vec();
                    self.buf.drain(..end + 4 + len);
                    return Ok((status, body));
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("loopback closed".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("loopback read: {e}")),
            }
        }
    }
}

fn loopback() -> Result<(LoopClient, HttpConnection), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let (server, _) = listener.accept().map_err(|e| e.to_string())?;
    for s in [&client, &server] {
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
    }
    Ok((
        LoopClient {
            stream: client,
            buf: Vec::new(),
        },
        HttpConnection::new(server),
    ))
}

fn gl_of(model: &ServingModel) -> Result<&GlEstimator, String> {
    match model.guarded.inner() {
        LoadedModel::Gl(gl) => Ok(gl),
        _ => Err(format!("served model is {}, not GL", model.kind)),
    }
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn decode_estimate(body: &[u8]) -> Result<(Vec<f32>, f32), String> {
    let v: Value = serde_json::from_slice(body).map_err(|e| e.to_string())?;
    let map = v.expect_map("estimate body").map_err(|e| e.to_string())?;
    let comps: Vec<f32> =
        serde::get_field(map, "query", "estimate body").map_err(|e| e.to_string())?;
    let tau: f32 = serde::get_field(map, "tau", "estimate body").map_err(|e| e.to_string())?;
    Ok((comps, tau))
}

fn decode_batch(body: &[u8]) -> Result<Vec<(Vec<f32>, f32)>, String> {
    let v: Value = serde_json::from_slice(body).map_err(|e| e.to_string())?;
    let map = v.expect_map("batch body").map_err(|e| e.to_string())?;
    let entries = map
        .iter()
        .find(|(k, _)| k == "queries")
        .ok_or("missing field `queries`")?
        .1
        .expect_seq("queries")
        .map_err(|e| e.to_string())?;
    entries
        .iter()
        .map(|e| {
            let m = e.expect_map("batch entry").map_err(|e| e.to_string())?;
            let comps: Vec<f32> =
                serde::get_field(m, "query", "batch entry").map_err(|e| e.to_string())?;
            let tau: f32 = serde::get_field(m, "tau", "batch entry").map_err(|e| e.to_string())?;
            Ok((comps, tau))
        })
        .collect()
}

/// Replays the model-side calls for one batch of queries under a `model`
/// root: the guard (unless it already ran on the request path), the GL
/// model with its featurization and global pass on the in-range rows, and
/// the fallback on the rest.
fn replay_model(
    tr: &mut Tracer,
    req: u64,
    model: &ServingModel,
    queries: &[(VectorView<'_>, f32)],
    guard_on_path: bool,
) -> Result<(), String> {
    let gl = gl_of(model)?;
    let bound = gl.tau_bound().unwrap_or(f32::INFINITY);
    let (inr, oor): (Vec<_>, Vec<_>) = queries.iter().copied().partition(|(_, t)| *t <= bound);
    let root = tr.open(req, "model", None);
    if !guard_on_path {
        tr.span(req, "guarded.serve", Some(root), || {
            model.guarded.serve_batch(queries)
        });
    }
    if !inr.is_empty() {
        tr.span(req, "gl.estimate", Some(root), || {
            model.guarded.inner().estimate_batch(&inr)
        });
        let seg = gl.segmentation();
        let n_seg = seg.n_segments();
        let dim = gl.expected_dim().unwrap_or(0);
        let mut xq = Matrix::zeros(inr.len(), dim);
        let mut xcd = Matrix::zeros(inr.len(), n_seg);
        tr.span(req, "gl.featurize", Some(root), || {
            let mut buf = Vec::with_capacity(dim);
            for (r, (q, _)) in inr.iter().enumerate() {
                q.write_dense(&mut buf);
                xq.row_mut(r).copy_from_slice(&buf);
                seg.centroid_distances_into(*q, xcd.row_mut(r));
            }
        });
        if let Some(g) = gl.global() {
            let taus: Vec<f32> = inr.iter().map(|(_, t)| *t).collect();
            tr.span(req, "gl.global", Some(root), || {
                g.probabilities_batch(&xq, &taus, &xcd)
            });
        }
    }
    if !oor.is_empty() {
        tr.span(req, "sampling.estimate", Some(root), || {
            model.guarded.fallback().estimate_batch(&oor)
        });
    }
    tr.close(root);
    Ok(())
}

/// What one request kind replays on the server side of the loopback.
pub enum Kind<'a> {
    /// `/estimate` through a private coalescer.
    Estimate(&'a Coalescer),
    /// `/estimate_batch` straight into the guard.
    Batch,
    /// `/insert` through the live ingest service.
    Insert(&'a IngestService),
}

/// Replays one request end to end; returns the status the client read.
fn replay_request(
    tr: &mut Tracer,
    req: u64,
    (client, conn): &mut (LoopClient, HttpConnection),
    registry: &ModelRegistry,
    kind: &Kind<'_>,
    path: &str,
    body: &str,
) -> Result<u16, String> {
    let repr = registry.config().repr;
    client.send(path, body)?;
    let root_name = if matches!(kind, Kind::Insert(_)) {
        "insert_request"
    } else {
        "request"
    };
    let root = tr.open(req, root_name, None);
    let got = tr.span(req, "http.read", Some(root), || conn.read_request(MAX_BODY));
    let request = match got {
        Ok(NextRequest::Ready(r)) => r,
        other => return Err(format!("loopback read_request: {other:?}")),
    };
    let route = tr.open(req, "server.route", Some(root));
    let mut replay: Option<(Vec<(OwnedQuery, f32)>, bool)> = None;
    let reply = match kind {
        Kind::Estimate(coalescer) => {
            let (comps, tau) = tr.span(req, "server.decode", Some(route), || {
                decode_estimate(&request.body)
            })?;
            let q = tr.span(req, "model.codec", Some(route), || {
                OwnedQuery::from_components(&comps, repr)
            })?;
            replay = Some((vec![(q.clone(), tau)], false));
            let reply = tr.span(req, "coalesce.roundtrip", Some(route), || {
                coalescer.submit(q, tau).ok().and_then(|rx| rx.recv().ok())
            });
            let reply = reply.ok_or("coalescer dropped the request")?;
            let est = reply.result.map_err(|e| e.to_string())?;
            tr.span(req, "server.encode", Some(route), || {
                json(&Value::Map(vec![
                    ("estimate".to_string(), Value::Float(f64::from(est))),
                    (
                        "model_version".to_string(),
                        Value::UInt(reply.model_version),
                    ),
                ]))
            })
        }
        Kind::Batch => {
            let entries = tr.span(req, "server.decode", Some(route), || {
                decode_batch(&request.body)
            })?;
            let queries = tr.span(req, "model.codec", Some(route), || {
                entries
                    .iter()
                    .map(|(c, t)| OwnedQuery::from_components(c, repr).map(|q| (q, *t)))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let model = registry.active();
            let views: Vec<_> = queries.iter().map(|(q, t)| (q.view(), *t)).collect();
            let results = tr.span(req, "guarded.serve", Some(route), || {
                model.guarded.serve_batch(&views)
            });
            let reply = tr.span(req, "server.encode", Some(route), || {
                let rendered = results
                    .into_iter()
                    .map(|r| match r {
                        Ok(e) => {
                            Value::Map(vec![("estimate".to_string(), Value::Float(f64::from(e)))])
                        }
                        Err(e) => {
                            Value::Map(vec![("error".to_string(), Value::Str(e.to_string()))])
                        }
                    })
                    .collect();
                json(&Value::Map(vec![
                    ("model_version".to_string(), Value::UInt(model.version)),
                    ("results".to_string(), Value::Seq(rendered)),
                ]))
            });
            drop(views);
            replay = Some((queries, true));
            reply
        }
        Kind::Insert(svc) => {
            let comps = tr.span(
                req,
                "server.decode",
                Some(route),
                || -> Result<Vec<f32>, String> {
                    let v: Value =
                        serde_json::from_slice(&request.body).map_err(|e| e.to_string())?;
                    let map = v.expect_map("insert body").map_err(|e| e.to_string())?;
                    serde::get_field(map, "point", "insert body").map_err(|e| e.to_string())
                },
            )?;
            let point = tr.span(req, "model.codec", Some(route), || {
                OwnedQuery::from_components(&comps, repr)
            })?;
            let (receipt, scheduled) = tr
                .span(req, "ingest.insert", Some(route), || svc.insert(&point))
                .map_err(|e| e.to_string())?;
            registry.set_n_data(receipt.index + 1);
            tr.span(req, "server.encode", Some(route), || {
                json(&Value::Map(vec![
                    ("seq".to_string(), Value::UInt(receipt.seq)),
                    ("index".to_string(), Value::UInt(receipt.index as u64)),
                    ("segment".to_string(), Value::UInt(receipt.segment as u64)),
                    ("finetune_scheduled".to_string(), Value::Bool(scheduled)),
                ]))
            })
        }
    };
    tr.close(route);
    tr.span(req, "http.write", Some(root), || {
        conn.write_response(200, reply.as_bytes(), true)
    })
    .map_err(|e| format!("loopback write_response: {e}"))?;
    tr.close(root);
    let (status, _) = client.recv()?;
    if let Some((queries, guard_on_path)) = replay {
        let model = registry.active();
        let views: Vec<_> = queries.iter().map(|(q, t)| (q.view(), *t)).collect();
        replay_model(tr, req, &model, &views, guard_on_path)?;
    }
    Ok(status)
}

/// Inputs of one traced replay.
pub struct Plan<'a> {
    pub estimates: Vec<&'a str>,
    pub batches: Vec<&'a str>,
    pub inserts: Vec<&'a str>,
}

/// Runs the replay and the per-call calibration spans; returns per-layer
/// values (µs unless the name says otherwise).
pub fn run(
    tr: &mut Tracer,
    served: &Served,
    registry: &Arc<ModelRegistry>,
    ingest: Option<&Arc<IngestService>>,
    pairs: &[Pair],
    plan: &Plan<'_>,
    scratch: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut pair = loopback()?;
    let mut req = 0u64;
    let mut bad = 0usize;
    let mut next = || {
        req += 1;
        req
    };

    if !plan.estimates.is_empty() {
        let coalescer = Coalescer::new(
            CoalesceConfig::default(),
            Arc::clone(registry),
            Arc::new(ServerStats::default()),
        );
        let batcher = coalescer.spawn_batcher().map_err(|e| e.to_string())?;
        let kind = Kind::Estimate(&coalescer);
        let mut result = Ok(());
        for body in &plan.estimates {
            match replay_request(tr, next(), &mut pair, registry, &kind, "/estimate", body) {
                Ok(200) => {}
                Ok(_) => bad += 1,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        coalescer.shutdown();
        let _ = batcher.join();
        result?;
    }
    for body in &plan.batches {
        if replay_request(
            tr,
            next(),
            &mut pair,
            registry,
            &Kind::Batch,
            "/estimate_batch",
            body,
        )? != 200
        {
            bad += 1;
        }
    }
    if let (Some(svc), false) = (ingest, plan.inserts.is_empty()) {
        for body in &plan.inserts {
            let kind = Kind::Insert(svc);
            if replay_request(tr, next(), &mut pair, registry, &kind, "/insert", body)? != 200 {
                bad += 1;
            }
        }
        // The store layer alone, on a scratch store of the same state.
        let dir = scratch.join(format!("trace-store-{}", std::process::id()));
        let mut store =
            crate::serve::durable_store(served, gl_of(&registry.active())?.clone(), &dir)?;
        for body in &plan.inserts {
            let comps = decode_insert(body)?;
            let point = OwnedQuery::from_components(&comps, served.repr())?;
            let r = next();
            tr.span(r, "store.insert", None, || store.insert(point.view()))
                .map_err(|e| e.to_string())?;
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    if bad > 0 {
        return Err(format!("{bad} replayed requests were not answered 200"));
    }

    // Per-call model cost at batch 1 and 64 on in-range pairs, and the
    // number of local models a query evaluates.
    let model = registry.active();
    let gl = gl_of(&model)?;
    let inr: Vec<(VectorView<'_>, f32)> = pairs
        .iter()
        .filter(|p| p.class == Class::InRange)
        .map(|p| (p.query.view(), p.tau))
        .collect();
    for q in inr.iter().take(64) {
        let r = next();
        tr.span(r, "gl.estimate.b1", None, || {
            model
                .guarded
                .inner()
                .estimate_batch(std::slice::from_ref(q))
        });
    }
    for chunk in inr.chunks_exact(64).take(8) {
        let r = next();
        tr.span(r, "gl.estimate.b64", None, || {
            model.guarded.inner().estimate_batch(chunk)
        });
    }
    let mut locals = 0usize;
    for chunk in inr.chunks(64) {
        locals += gl
            .estimate_batch_with_stats(chunk)
            .iter()
            .map(|&(_, n)| n)
            .sum::<usize>();
    }

    let m = |name: &str| tr.mean_self_us(name).unwrap_or(0.0);
    let total = |name: &str| -> f64 {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .sum()
    };
    let model_roots = tr
        .spans()
        .iter()
        .filter(|s| s.name == "model")
        .count()
        .max(1) as f64;
    let serve = m("guarded.serve");
    let roundtrip = m("coalesce.roundtrip");
    let mut out = BTreeMap::new();
    out.insert("http.read_us", m("http.read"));
    out.insert("http.write_us", m("http.write"));
    out.insert("server.decode_us", m("server.decode"));
    out.insert("server.encode_us", m("server.encode"));
    out.insert("model.codec_us", m("model.codec"));
    out.insert("coalesce.roundtrip_us", roundtrip);
    out.insert(
        "coalesce.wait_us",
        if plan.estimates.is_empty() {
            0.0
        } else {
            roundtrip - serve
        },
    );
    out.insert("guarded.serve_us", serve);
    out.insert(
        "guarded.self_us",
        serve - (total("gl.estimate") + total("sampling.estimate")) / model_roots,
    );
    let est = m("gl.estimate");
    out.insert("gl.estimate_us", est);
    out.insert("gl.estimate_b1_us", m("gl.estimate.b1"));
    out.insert("gl.estimate_b64_us", m("gl.estimate.b64"));
    out.insert("gl.featurize_us", m("gl.featurize"));
    out.insert("gl.global_us", m("gl.global"));
    out.insert("gl.locals_us", est - m("gl.featurize") - m("gl.global"));
    out.insert(
        "gl.locals_per_query",
        locals as f64 / inr.len().max(1) as f64,
    );
    out.insert("sampling.estimate_us", m("sampling.estimate"));
    let ingest_us = m("ingest.insert");
    let store_us = m("store.insert");
    out.insert("ingest.insert_us", ingest_us);
    out.insert("store.insert_us", store_us);
    out.insert(
        "ingest.drift_us",
        if plan.inserts.is_empty() {
            0.0
        } else {
            ingest_us - store_us
        },
    );
    // Mean traced duration of a request root, for the unattributed gap.
    out.insert(
        "trace.request_us",
        total("request")
            / tr.spans()
                .iter()
                .filter(|s| s.name == "request")
                .count()
                .max(1) as f64,
    );
    Ok(out)
}

fn decode_insert(body: &str) -> Result<Vec<f32>, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let map = v.expect_map("insert body").map_err(|e| e.to_string())?;
    serde::get_field(map, "point", "insert body").map_err(|e| e.to_string())
}
