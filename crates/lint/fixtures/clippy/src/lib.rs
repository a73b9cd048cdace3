// The crate root carries the same lint attributes as every non-bench
// crate root in the workspace; `check.sh` asserts that clippy reports
// each `// fires:` line with the lints it names and nothing in clean.rs.
#![warn(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod clean;
pub mod fire;
pub mod kernels;
