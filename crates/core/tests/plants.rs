//! One violation per rule of `crates/core/clippy.toml` that the crate's
//! own code does not already trip, each under the `#[expect]` that a
//! firing rule fulfils: an entry that stops matching leaves its
//! expectation unfulfilled, which `cargo clippy -- -D warnings` fails.
//! Compiled, never run.

#![allow(dead_code, reason = "plants are compiled, never called")]

use wcc_types::{FxHashMap, FxHashSet};

#[expect(clippy::disallowed_types, reason = "plant: a SipHash map")]
fn sip_map() -> std::collections::HashMap<u32, u32> {
    std::collections::HashMap::<u32, u32>::new()
}

#[expect(
    clippy::disallowed_types,
    reason = "plant: a SipHash set, glob-imported"
)]
fn sip_set_glob(set: &std::collections::HashSet<u32>) -> usize {
    use std::collections::*;
    let same: &HashSet<u32> = set;
    same.len()
}

#[expect(clippy::disallowed_methods, reason = "plant: an Fx map's values")]
fn fx_values(m: &FxHashMap<u32, u32>) -> u32 {
    m.values().sum()
}

#[expect(clippy::disallowed_methods, reason = "plant: a map's drain, aliased")]
fn drain_alias(m: &mut FxHashMap<u32, u32>) -> Vec<(u32, u32)> {
    use wcc_types::FxHashMap as Map;
    let same: &mut Map<u32, u32> = m;
    same.drain().collect()
}

#[expect(clippy::iter_over_hash_type, reason = "plant: a for over a set")]
fn for_over_set(s: &FxHashSet<u32>) -> u32 {
    let mut sum = 0;
    for v in s {
        sum += v;
    }
    sum
}

#[expect(
    clippy::disallowed_methods,
    reason = "plant: a set reached through a closure parameter"
)]
fn closure_parameter(m: &FxHashMap<u32, FxHashSet<u32>>) -> Vec<u32> {
    m.get(&0)
        .map(|s| s.iter().copied().collect())
        .unwrap_or_default()
}
