//! The rule of `crates/proto/clippy.toml` that the codec's own code does
//! not trip, planted under the `#[expect]` that a firing rule fulfils: an
//! entry that stops matching leaves its expectation unfulfilled, which
//! `cargo clippy -- -D warnings` fails. Compiled, never run.

#![allow(dead_code, reason = "plants are compiled, never called")]

#[expect(clippy::disallowed_macros, reason = "plant: a number formatted")]
fn formatted(n: u64) -> String {
    format!("{n}")
}

#[expect(
    clippy::disallowed_macros,
    reason = "plant: a number formatted, aliased"
)]
fn formatted_alias(n: u64) -> String {
    use std::format as render;
    render!("{n}")
}
