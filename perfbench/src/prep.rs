//! Workload inputs: the served dataset, its held-out query classes, the
//! request bodies, and the exact counts every answer is checked against.
//!
//! The dataset, the held-out pairs and the model are fixed (data seed
//! [`DATA_SEED`]); the run seed draws the out-of-range thresholds, the
//! order of the traffic and the rows that inserts duplicate.
//!
//! Components are rendered with Rust's shortest round-trip formatting, and
//! [`make_pairs`] proves that every body decodes, through
//! `serde_json` and `OwnedQuery::from_components`, to exactly the vector
//! whose exact count the benchmark holds.

use cardest_baselines::traits::CardinalityEstimator;
use cardest_data::metric::Metric;
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::vector::{VectorData, VectorView};
use cardest_data::workload::SearchWorkload;
use cardest_server::model::{repr_of, OwnedQuery, QueryRepr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// Seed of the served dataset, its held-out pairs and the trained model.
pub const DATA_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointDense,
    BatchBinary,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointDense,
        Workload::BatchBinary,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointDense => "point_dense",
            Workload::BatchBinary => "batch_binary",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn dataset(self) -> PaperDataset {
        match self {
            Workload::PointDense | Workload::IngestMixed => PaperDataset::GloVe300,
            Workload::BatchBinary => PaperDataset::Aminer,
        }
    }
}

/// Named query classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Held-out pairs with τ at or below the loaded model's `tau_bound`.
    InRange,
    /// τ above `tau_bound`: the guard hands these to the fallback.
    OutOfRange,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::InRange => "in_range",
            Class::OutOfRange => "out_of_range",
        }
    }
}

/// The served dataset with the workload it was trained on.
pub struct Served {
    pub spec: DatasetSpec,
    pub data: VectorData,
    pub workload: SearchWorkload,
    pub artifact: PathBuf,
}

impl Served {
    /// Generates the dataset and its labelled workload, training the
    /// artifact on first use in this checkout.
    pub fn build(root: &Path, dataset: PaperDataset) -> Result<Self, String> {
        let spec = dataset.spec();
        let data = spec.generate(DATA_SEED);
        let workload = SearchWorkload::build(&data, &spec, DATA_SEED);
        let artifact = crate::artifact::ensure(root, &spec, DATA_SEED, &data, &workload)?;
        Ok(Served {
            spec,
            data,
            workload,
            artifact,
        })
    }

    pub fn repr(&self) -> QueryRepr {
        repr_of(&self.data)
    }

    pub fn metric(&self) -> Metric {
        self.spec.metric
    }

    /// Components of a held-out query as the wire carries them.
    pub fn components(&self, query: usize) -> Vec<f32> {
        components_of(self.workload.queries.view(query))
    }

    /// Components of a dataset row.
    pub fn row_components(&self, row: usize) -> Vec<f32> {
        components_of(self.data.view(row))
    }

    /// The first held-out pair as an `/estimate` body: the request whose
    /// answer ends set-up.
    pub fn probe_body(&self) -> String {
        let s = self.workload.test[0];
        estimate_body(&self.components(s.query), s.tau)
    }
}

fn components_of(v: VectorView<'_>) -> Vec<f32> {
    let mut out = Vec::with_capacity(v.dim());
    v.write_dense(&mut out);
    out
}

/// Writes `[c0,c1,…]` with shortest round-trip formatting.
fn push_components(out: &mut String, comps: &[f32]) {
    out.push('[');
    for (i, c) in comps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
}

pub fn estimate_body(comps: &[f32], tau: f32) -> String {
    let mut s = String::with_capacity(comps.len() * 12 + 32);
    s.push_str("{\"query\":");
    push_components(&mut s, comps);
    let _ = write!(s, ",\"tau\":{tau}}}");
    s
}

pub fn batch_body<'a>(entries: impl Iterator<Item = (&'a [f32], f32)>) -> String {
    let mut s = String::from("{\"queries\":[");
    for (i, (comps, tau)) in entries.enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"query\":");
        push_components(&mut s, comps);
        let _ = write!(s, ",\"tau\":{tau}}}");
    }
    s.push_str("]}");
    s
}

pub fn insert_body(comps: &[f32]) -> String {
    let mut s = String::from("{\"point\":");
    push_components(&mut s, comps);
    s.push('}');
    s
}

/// One (q, τ) pair of the traffic with everything needed to check its
/// answer.
pub struct Pair {
    pub class: Class,
    pub comps: Vec<f32>,
    pub tau: f32,
    /// The query exactly as the server decodes it.
    pub query: OwnedQuery,
    /// Exact count of `query` within `tau` on the served dataset.
    pub truth: f32,
    /// What the server's fallback answers for this pair.
    pub fallback: f32,
}

fn same_query(a: &OwnedQuery, b: VectorView<'_>) -> bool {
    match (a.view(), b) {
        (VectorView::Dense(x), VectorView::Dense(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (VectorView::Binary { words: x, dim: dx }, VectorView::Binary { words: y, dim: dy }) => {
            dx == dy && x == y
        }
        _ => false,
    }
}

/// Decodes one `{"query":…,"tau":…}` entry the way the server's router
/// does.
pub fn decode_entry(entry: &Value, repr: QueryRepr) -> Result<(OwnedQuery, f32), String> {
    let map = entry.expect_map("entry").map_err(|e| e.to_string())?;
    let comps: Vec<f32> = serde::get_field(map, "query", "entry").map_err(|e| e.to_string())?;
    let tau: f32 = serde::get_field(map, "tau", "entry").map_err(|e| e.to_string())?;
    Ok((OwnedQuery::from_components(&comps, repr)?, tau))
}

/// Fails unless `body` — one `/estimate` entry or an `/estimate_batch`
/// list — decodes entry by entry to exactly `expected`.
pub fn check_body(
    body: &str,
    repr: QueryRepr,
    expected: &[(&OwnedQuery, f32)],
) -> Result<(), String> {
    let value: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let map = value.expect_map("body").map_err(|e| e.to_string())?;
    let entries = match map.iter().find(|(k, _)| k == "queries") {
        Some((_, seq)) => seq
            .expect_seq("queries")
            .map_err(|e| e.to_string())?
            .to_vec(),
        None => vec![value.clone()],
    };
    if entries.len() != expected.len() {
        return Err(format!(
            "body carries {} entries, expected {}",
            entries.len(),
            expected.len()
        ));
    }
    for (e, &(q, tau)) in entries.iter().zip(expected) {
        let (decoded, t) = decode_entry(e, repr)?;
        if !same_query(&decoded, q.view()) || t.to_bits() != tau.to_bits() {
            return Err(
                "a request body does not decode to the pair it was rendered from".to_string(),
            );
        }
    }
    Ok(())
}

/// Fails unless an `/insert` body decodes to exactly `row`.
pub fn check_insert_body(body: &str, repr: QueryRepr, row: VectorView<'_>) -> Result<(), String> {
    let value: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let map = value.expect_map("insert body").map_err(|e| e.to_string())?;
    let comps: Vec<f32> =
        serde::get_field(map, "point", "insert body").map_err(|e| e.to_string())?;
    let point = OwnedQuery::from_components(&comps, repr)?;
    if !same_query(&point, row) {
        return Err("an insert body does not decode to the row it duplicates".to_string());
    }
    Ok(())
}

/// Builds the pairs of one class list, each decode-checked against the
/// vector it was rendered from and labelled with its exact count.
pub fn make_pairs(
    served: &Served,
    specs: &[(usize, f32)],
    tau_bound: f32,
    fallback: &dyn CardinalityEstimator,
) -> Result<Vec<Pair>, String> {
    let repr = served.repr();
    let mut pairs = Vec::with_capacity(specs.len());
    for &(query, tau) in specs {
        let original = served.workload.queries.view(query);
        let comps = served.components(query);
        let body = estimate_body(&comps, tau);
        let value: Value = serde_json::from_slice(body.as_bytes()).map_err(|e| e.to_string())?;
        let (decoded, tau_decoded) = decode_entry(&value, repr)?;
        if !same_query(&decoded, original) || tau_decoded.to_bits() != tau.to_bits() {
            return Err(format!(
                "body for held-out query {query} (tau {tau}) does not decode to the vector it was rendered from"
            ));
        }
        let class = if tau <= tau_bound {
            Class::InRange
        } else {
            Class::OutOfRange
        };
        pairs.push(Pair {
            class,
            comps,
            tau,
            query: decoded,
            truth: f32::NAN,
            fallback: f32::NAN,
        });
    }
    // Exact counts of the decoded vectors, split over two threads.
    let metric = served.metric();
    let half = pairs.len().div_ceil(2);
    std::thread::scope(|s| {
        for chunk in pairs.chunks_mut(half.max(1)) {
            s.spawn(move || {
                for p in chunk {
                    p.truth = metric.count_within(p.query.view(), &served.data, p.tau) as f32;
                }
            });
        }
    });
    let views: Vec<(VectorView<'_>, f32)> = pairs.iter().map(|p| (p.query.view(), p.tau)).collect();
    let fb = fallback.estimate_batch(&views);
    for (p, f) in pairs.iter_mut().zip(fb) {
        p.fallback = f.max(0.0).min(served.data.len() as f32);
    }
    Ok(pairs)
}

/// The held-out pairs plus one out-of-range τ per held-out query, drawn in
/// (`tau_bound`, τ_max] from the run seed.
pub fn classed_pairs(
    served: &Served,
    tau_bound: f32,
    seed: u64,
    with_out_of_range: bool,
) -> Result<Vec<(usize, f32)>, String> {
    let w = &served.workload;
    let mut specs: Vec<(usize, f32)> = w.test.iter().map(|s| (s.query, s.tau)).collect();
    if with_out_of_range {
        let tau_max = served.spec.tau_max;
        if tau_bound >= tau_max {
            return Err(format!(
                "tau_bound {tau_bound} leaves no out-of-range thresholds below tau_max {tau_max}"
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA70F_4A6E);
        for q in w.n_train_queries..w.queries.len() {
            let u: f32 = rng.gen_range(0.0..1.0);
            // (tau_bound, tau_max]: 1 - u lies in (0, 1].
            let tau = tau_bound + (1.0 - u) * (tau_max - tau_bound);
            specs.push((q, tau.min(tau_max).max(tau_bound.next_up())));
        }
    }
    Ok(specs)
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx
}

/// Rows that inserts duplicate, drawn from the run seed.
pub fn insert_rows(n_data: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1_45E7);
    (0..count).map(|_| rng.gen_range(0..n_data)).collect()
}
