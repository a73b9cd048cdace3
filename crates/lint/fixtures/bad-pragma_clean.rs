// cardest-lint-fixture: path=crates/data/src/cache.rs
//! Must-not-fire fixture: well-formed pragmas (known rule + reason).

pub fn f(v: f32) -> f32 {
    // cardest-lint: allow(raw-exp-decode): softmax normalizer, not a cardinality decode
    v.exp()
}
