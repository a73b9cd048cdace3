// The linter keeps the workspace contracts itself: no panics in library
// paths, no nondeterminism (BTree containers only, no clocks).
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

//! # cardest-lint
//!
//! A zero-dependency invariant checker for the `cardest` workspace. The
//! workspace promises, and earlier PRs hand-verified, three families of
//! guarantees:
//!
//! 1. **Determinism** — training is bit-identical for any
//!    `--train-threads` value; no wall-clock, OS entropy, or hash-ordered
//!    iteration in library crates.
//! 2. **Numerics** — every log-cardinality decode is clamped through
//!    `decode_log_card`.
//! 3. **Panic-safety** — library crates surface typed errors, never
//!    panics.
//!
//! rustc and clippy own what they can type-check (`unsafe`, panics, float
//! comparisons, kernel casts; see `[workspace.lints]`, the crate-root
//! attributes and DESIGN.md §10). `cardest-lint` checks the rest. It is
//! deliberately dependency-free (the workspace builds offline; `syn` is
//! unavailable):
//! a hand-rolled [`lexer`] separates code tokens from comments, strings,
//! and char literals, the [`rules`] registry walks the token stream, and
//! [`engine`] applies `// cardest-lint: allow(<rule>): <reason>` pragmas
//! (see [`pragma`]) before reporting `file:line` diagnostics, in text or
//! `--format=json`.
//!
//! Since v2 the linter is also *semantic*: an item-level [`parser`]
//! recovers functions, impl blocks, and `use` trees; [`callgraph`] links
//! them into a workspace call graph with heuristic name resolution; and
//! [`semrules`] checks cross-function invariants on top — panic
//! reachability from serving entry points, lock discipline, the store's
//! durability protocol, and error taxonomy. Semantic findings are gated
//! through a checked-in [`baseline`] so the CI gate only fails on *new*
//! diagnostics.
//!
//! See `DESIGN.md` §10 for which checker owns each invariant and §14 for
//! the semantic analysis.

pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod rules;
pub mod semrules;

pub use engine::{
    collect_rs_files, lint_paths, lint_paths_semantic, lint_source, lint_sources_semantic, to_json,
    Report,
};
pub use rules::{registry, Diagnostic};
