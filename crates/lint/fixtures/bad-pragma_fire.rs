// cardest-lint-fixture: path=crates/data/src/cache.rs
//! Must-fire fixture: malformed suppression pragmas.

pub fn f(v: f32) -> f32 {
    // cardest-lint: allow(raw-exp-decode)
    let a = v.exp();
    // cardest-lint: allow(no-such-rule): reason present but rule unknown
    let b = a + 1.0;
    // cardest-lint: deny(raw-exp-decode): wrong verb
    a + b
}
