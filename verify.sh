#!/usr/bin/env sh
# Tier-1 verification: style, lints, release build, full test suite, repo
# hygiene lint, fuzz + bench smoke. Any failing step fails the script.
#
# This mirrors the CI matrix (.github/workflows/ci.yml) in one process:
#   lint job  -> rustfmt --check, clippy -D warnings, xtask-lint
#   test job  -> release build + root and workspace test suites + the 19
#                results/*.txt tables regenerated and compared
#                (CI also repeats the test job on beta)
#   serve job -> `wcc serve --self-check` + a reduced `wcc bench serve`
#                (CI runs 1000 connections and gates the JSON report)
#   benchmark job -> the benchmark/ package (its own workspace): its test
#                suite plus a 2 s smoke of all four workloads
#   bench job -> `wcc bench trajectory --check BENCH_replay.json`: every gated row
#                comes off the simulation clock, so the same gate binds here
#                and in CI (wall times are printed, never compared)
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
# Besides the workspace lints, crate roots deny two clippy lints the token
# lint used to approximate: `clippy::indexing_slicing` (core, proto, cache,
# net, reactor; allowed in their tests by clippy.toml) and
# `clippy::wildcard_enum_match_arm` (proto, core, httpsim, net, audit,
# types; tests included), which makes every match over `HttpMsg` /
# `AuditEvent` name each variant. An `#[expect]` whose lint no longer fires
# is rustc's `unfulfilled_lint_expectations`, an error under -D warnings:
# the stale-waiver audit's job, done by the compiler for these lints.
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> results/*.txt byte-identical (ci/check-results.sh)"
# The 19 committed tables against what `wcc bench <name>` prints now (full
# scale, default arguments; ~8 s), the fuzzer's 200-scenario summary
# against ci/fuzz-seed1.txt (~1 s), and the span order of one batched EPA
# replay's `--trace-out` dump against the digest in ci/trace-epa.sha256
# (35 883 events, < 1 s).
ci/check-results.sh

echo "==> xtask-lint"
cargo run --quiet --bin xtask-lint

echo "==> xtask-lint --waivers (stale-waiver audit)"
cargo run --quiet --bin xtask-lint -- --waivers

echo "==> wcc fuzz (smoke)"
./target/release/wcc fuzz --iters 25 --seed 1 --shrink

echo "==> wcc replay --inval-batch 8 (smoke)"
# Batched invalidation proposer: per-write fan-out coalesced into
# InvalidateBatch rounds (count threshold 8) with adaptive per-document
# leases; the replay must still report zero consistency violations.
./target/release/wcc replay --trace epa --protocol invalidation --scale 20 \
  --inval-batch 8 --adaptive-lease

echo "==> wcc replay --family (smoke)"
# Scenario-family path: the flash-crowd federation. The nightly workflow
# replays all five families at scale 4; this just proves the family
# generator and multi-origin replay path run.
./target/release/wcc replay --family flash-crowd --scale 20

echo "==> wcc replay --family real-time-feed (smoke)"
# The write-heavy family: origins stall while they fan out, so backlogs of
# acks and requests park behind them — the engine's run-length deferral and
# same-instant bucket drain, exercised outside the benchmark.
./target/release/wcc replay --family real-time-feed --scale 20

echo "==> engine order equivalence (reference model)"
# The engine against a per-message model that re-queues every waiting
# delivery one by one (crates/simnet/tests/delivery_proptest.rs): each
# node's handler order, every TimerId, the drop count and each node's busy
# time must match, with backlogs that run past the event queue's ring into
# its overflow heap. Then the queue alone against a BTreeSet of keys, across
# the ring's edge, its summary words and its wrap. Both also run in the
# suites above (CI's "Engine order equivalence (reference model)" step runs
# the first); named here because they pin how a busy node's deliveries wait.
cargo test -q -p wcc-simnet --test delivery_proptest
cargo test -q -p wcc-simnet --lib -- event::tests::the_queue_pops_in_key_order_and_recycles_every_slot

echo "==> wire decoder header rules (against the owned reference decoder)"
# The library's one decoder (decode_frame / decode_ref) held byte-for-byte
# to the owned, line-reading decoder it replaced, kept as the oracle in
# crates/proto/tests/wire_proptest.rs: round trips, truncation, corruption
# and header blocks no encoder writes. Also runs in the suites above; named
# here because it is what pins the header rules.
cargo test -q -p wcc-proto --test wire_proptest
# The decoder reads bytes: the reactor's incremental call (every cut of a
# frame defers or decodes what a stream ending there decodes) and header
# padding with the whitespace str::trim takes beyond space and tab (U+00A0,
# U+3000, U+0085, \x0B, \x0C). Both also run just above; named here
# because they are what holds the byte-level scan, trim and split.
cargo test -q -p wcc-proto --test wire_proptest -- \
  incremental_decode_defers_or_matches_eof zero_copy_unicode_padding_matches_owned

echo "==> origin conformance + missed-invalidation regression (serve tier)"
# One script fed to a bare wcc_core::OriginCore, a simulated deployment and
# a NetOrigin over raw sockets, a second one to a bare wcc_core::ParentCore,
# a hierarchy deployment and a NetParent (tests/origin_conformance.rs), and
# the writes that land while a push channel is down or nobody acknowledges
# (crates/net/tests/{serve_recovery,hierarchy_tcp}.rs). All also run in the
# suites above; named here because they are what holds the origin and
# parent drivers of both tiers together.
cargo test -q --test origin_conformance
cargo test -q -p wcc-net --test serve_recovery --test hierarchy_tcp

echo "==> a child's promise ends no later than its parent's"
# ParentCore cuts a child's lease to the held copy's and its volume lease to
# the parent's own, so a write the origin owes nobody (the parent's lease ran
# out) finds no child still trusting the old version: on the simulator
# (stale_hits 0) and over TCP (the new version served), with plain
# invalidation as the control. All also run in the suites above.
cargo test -q -p wcc-httpsim --test parent_behaviour -- \
  a_child_lease_ends_no_later_than_the_parents \
  a_child_volume_lease_ends_no_later_than_the_parents \
  an_unbounded_promise_is_invalidated_down_the_tree
cargo test -q -p wcc-net --test hierarchy_tcp -- \
  a_child_lease_ends_no_later_than_the_parents_over_tcp \
  a_child_volume_lease_ends_no_later_than_the_parents_over_tcp \
  an_unbounded_promise_is_invalidated_down_the_tree_over_tcp

echo "==> one connection per upstream hop"
# A proxy or parent dials its upstream once: the HELLO is that connection's
# first frame, misses go up it and pushes come down it, so a reply written
# before an invalidation is served before it; a parent that closes a child's
# connection behind a timed-out flight pushes the relay the child missed on
# its next HELLO. All also run in the suites above.
cargo test -q -p wcc-net --test scripted_upstream -- \
  a_node_dials_its_upstream_once a_reply_written_before_a_push_is_served_then_dropped
cargo test -q -p wcc-net --test hierarchy_tcp \
  a_relay_missed_behind_a_timed_out_flight_is_pushed_on_the_next_hello

echo "==> the cores speak frames + one HELLO partition count"
# ProxyCore::on_push applies an INVALIDATE, an InvalidateBatch or the bulk
# and builds its ack, for a proxy and for a parent (every copy held as its
# identity); any other frame changes nothing. WritePath builds the frames
# it pushes. The first HELLO fixes a node's partition count: a HELLO that
# names another one closes its connection, and a write still reaches every
# proxy. The decoder refuses a count past MAX_PARTITIONS (wire_proptest
# above). All also run in the suites above.
cargo test -q -p wcc-core --lib -- a_push_is_applied_and_acked_in_frame_order \
  a_frame_that_is_not_a_push_is_not_applied the_first_hello_fixes_the_site_count
cargo test -q -p wcc-net --test loopback a_hello_with_another_partition_count_is_refused

echo "==> only the site that holds a copy acknowledges it"
# The write side takes frames: a site's HELLO and acks go whole into
# OriginCore / ParentCore::on_site_frame with the site they came from, and
# one rule refuses a frame whole, counting nothing, if an entry is another
# site's copy, if it names another server, or if its sender is no site.
# The daemon origin and parent close the connection: the write stays
# incomplete and the retry reaches the holder; a bulk ack naming another
# server leaves the bulk owed. All also run in the suites above.
cargo test -q -p wcc-core --lib -- an_ack_from_another_site_is_refused \
  one_rule_decides_which_site_frame_counts
cargo test -q -p wcc-net --test serve_recovery an_ack_from_a_peer_that_does_not_hold_the_copy_is_refused
cargo test -q -p wcc-net --test hierarchy_tcp a_bulk_ack_naming_another_server_closes_the_child_connection

echo "==> one clock per node (leases judged on the node's clock, sent as durations)"
# Every daemon node judges a GET at its receipt time and a write at its own
# clock, never at a Date: or NOTIFY stamp a peer wrote; leases cross the wire
# as durations, counted by the holder from when it sent. A write stamped far
# past the lease still reaches a leased, two-tier (after an IMS) or
# volume-leased copy, and a lapsed volume lease bounds write completion over
# TCP. Lint rule peer-time denies reading issued_at in crates/net/src. All
# also run in the suites above.
cargo test -q -p wcc-net --test loopback -- a_write_stamped_past_the_lease_reaches \
  a_volume_lease_bounds_write_completion_over_tcp
cargo test -q -p wcc-core --lib a_lease_crosses_the_wire_as_a_duration
cargo test -q -p wcc-lint a_daemon_role_reads_no_peer_time

echo "==> the eight protocols are presets of one policy"
# ProtocolConfig::policy() is the one place that reads a protocol's name: it
# gives how the proxy trusts a copy, the lease on GET and on IMS, how a
# change reaches a site, and the volume lease. One table pins each preset's
# strength and fields. Lint rule protocol-name denies ProtocolKind::<Variant>
# in non-test crates/{core,audit,httpsim,net}/src outside config.rs. All
# also run in the suites above.
cargo test -q -p wcc-core --lib every_preset_is_one_point_of_the_policy
cargo test -q -p wcc-lint a_protocol_is_read_from_its_policy_not_its_name

echo "==> CLI command table + batched hierarchy parent"
# Every call's flags come from one table in src/bin/wcc.rs: a flag its call
# does not read exits 2 (`wcc replay --family` refuses the single-trace
# replay's --trace, --lifetime-days, --trace-out and --metrics), and the
# usage text shows exactly the flags each call accepts. The simulated parent
# applies an origin's InvalidateBatch as one round and acks it with one
# InvalidateBatchAck, like the proxies. All also run in the suites above.
cargo test -q --test cli_flags family_replay_rejects_the_single_trace_flags
cargo test -q --bin wcc every_flag_in_usage_is_accepted
cargo test -q -p wcc-httpsim --test parent_behaviour a_batched_round_is_applied_and_acked_as_one

echo "==> one send per connection per turn (serve-tier flush rule)"
# Output queued during a reactor turn leaves in one send(2) per connection at
# the turn's end: tickets redeemed in one turn, and a reply plus a push, each
# move the node's send-call counter by exactly 1, and a pipelined window of
# 8 GETs costs one recv and one send; a /metrics scrape pipelined behind a
# miss waits for the miss's reply. Also run in the suites above.
cargo test -q -p wcc-net --lib in_one_send
cargo test -q -p wcc-net --test scripted_upstream a_scrape_pipelined_behind_a_miss

echo "==> an upstream's X-Size is bounded at decode"
# A 200 claiming more than wcc_proto::MAX_DOC_SIZE is refused at decode and
# its connection dropped; the proxy allocates nothing for it. Also run in
# the suites above.
cargo test -q -p wcc-net --test scripted_upstream an_x_size_past_the_cap

echo "==> wcc serve --self-check (smoke)"
# Serving-tier self-check: spawn an origin+proxy daemon pair, push two
# pipelined GETs over a real socket, scrape /metrics, shut down cleanly.
timeout 60 ./target/release/wcc serve --self-check

echo "==> wcc bench serve (smoke)"
# 64 keep-alive connections through the readiness reactor; exits non-zero
# on any stale serve. CI's serve job runs the same bench at 1000
# connections and gates the JSON report.
timeout 120 ./target/release/wcc bench serve --connections 64 --requests 8 --in-process >/dev/null

echo "==> bench trajectory (regression gate)"
# Re-runs every pass at the committed report's scale: Exact rows must equal
# BENCH_replay.json (the allocation rows included: `wcc` counts each
# thread's allocations), Holds rows (byte identity, proposer cut, decode
# copies) must be true.
./target/release/wcc bench trajectory --check BENCH_replay.json

echo "==> benchmark package (tests + 2 s smoke)"
# benchmark/ is a workspace of its own: nothing above compiles it, so an
# API drift in wcc-net / wcc-httpsim would otherwise first show up in the
# benchmark gate.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --seconds 2 >/dev/null

echo "verify: OK"
