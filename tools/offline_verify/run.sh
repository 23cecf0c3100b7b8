#!/bin/sh
# Offline verification with bare rustc, for containers without a crates
# registry (cargo cannot resolve even cached deps there).  Compiles the
# dependency-light REAL crates — obs, e2ap, codec, sm, ransim, the
# tokio-free modules of transport (frame + rx), all of core but its driver
# (the agent and shard state machines, endpoint, scratch, report) and
# ctrl's sla_solver — against the refcount-faithful bytes shim and the mini
# proptest shim, runs their unit AND property tests and the protocol suite
# (tests/protocol.rs), then runs the A/B measurements.
#
# This is a *partial* stand-in for `cargo test`: what needs tokio
# (transport sockets, core's driver, ctrl, xapp, bench) still requires a
# networked host.  What it does cover is real: the exact sources of the
# frame codec, reassembler, borrowed decode, service models, delta
# streams, procedure table, the agent's and the controller's protocol
# logic, simulator and obs registry, with refcount/pointer semantics
# faithful enough that the zero-copy assertions are meaningful.
#
# Usage: tools/offline_verify/run.sh  (from anywhere; writes to $WORK or
# a fresh tempdir, prints a PASS/FAIL summary and the A/B JSON).
set -eu
cd "$(dirname "$0")"
ROOT=$(cd ../.. && pwd)
WORK=${WORK:-$(mktemp -d /tmp/flexric-offline.XXXXXX)}
echo "workdir: $WORK"

RUSTC="rustc --edition 2021 -O -L dependency=$WORK"

# 1. Shims (the bytes shim's own semantics tests run first — if the
#    double is wrong, everything downstream is noise).
$RUSTC --crate-type rlib --crate-name bytes bytes_shim.rs -o "$WORK/libbytes.rlib"
$RUSTC --test --crate-name bytes_shim_tests bytes_shim.rs -o "$WORK/bytes_shim_tests"
"$WORK/bytes_shim_tests" --quiet
$RUSTC --crate-type rlib --crate-name proptest mini_proptest.rs -o "$WORK/libproptest.rlib"

# 2. Real crates as rlibs (dependency order).
$RUSTC --crate-type rlib --crate-name flexric_obs \
    "$ROOT/crates/obs/src/lib.rs" -o "$WORK/libflexric_obs.rlib"
$RUSTC --crate-type rlib --crate-name flexric_e2ap \
    --extern bytes="$WORK/libbytes.rlib" \
    "$ROOT/crates/e2ap/src/lib.rs" -o "$WORK/libflexric_e2ap.rlib"
$RUSTC --crate-type rlib --crate-name flexric_codec \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_e2ap="$WORK/libflexric_e2ap.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    "$ROOT/crates/codec/src/lib.rs" -o "$WORK/libflexric_codec.rlib"
# transport_core.rs.in is a template: WireMsg and TransportAddr are cut
# out of the real crate root (attributes and docs included), as
# benchmark/build.sh does, instead of being kept as copies.
awk '/^\/\/\/|^#\[/ {buf = buf $0 "\n"; next}
     /^pub struct WireMsg|^impl WireMsg|^pub enum TransportAddr|^impl TransportAddr|^impl fmt::Display for TransportAddr/ {on = 1; printf "%s", buf}
     {if (on) print; if (on && /^}/) on = 0; buf = ""}' \
    "$ROOT/crates/transport/src/lib.rs" >"$WORK/transport_core.cut"
grep -q '^pub struct WireMsg' "$WORK/transport_core.cut" && grep -q '^pub enum TransportAddr' "$WORK/transport_core.cut" ||
    { echo "run.sh: could not cut WireMsg/TransportAddr out of crates/transport/src/lib.rs" >&2; exit 1; }
sed -e "s|@ROOT@|$ROOT|g" -e "/@CUT@/{r $WORK/transport_core.cut" -e 'd}' \
    transport_core.rs.in >"$WORK/transport_core.rs"
$RUSTC --crate-type rlib --crate-name flexric_transport \
    --extern bytes="$WORK/libbytes.rlib" \
    "$WORK/transport_core.rs" -o "$WORK/libflexric_transport.rlib"
$RUSTC --crate-type rlib --crate-name flexric_sm \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_codec="$WORK/libflexric_codec.rlib" \
    --extern flexric_e2ap="$WORK/libflexric_e2ap.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    "$ROOT/crates/sm/src/lib.rs" -o "$WORK/libflexric_sm.rlib"
# The whole ransim crate needs only std, sm and obs: scheduler, RLC, TC,
# traffic, KPI workload and scenario engine compile and test here.
$RUSTC --crate-type rlib --crate-name flexric_ransim \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    "$ROOT/crates/ransim/src/lib.rs" -o "$WORK/libflexric_ransim.rlib"
# The SLA share solver is std-only by design (see crates/ctrl/src/sla_solver.rs).
$RUSTC --crate-type rlib --crate-name sla_solver \
    "$ROOT/crates/ctrl/src/sla_solver.rs" -o "$WORK/libsla_solver.rlib"

# 3. Unit + property tests of the real modules.
$RUSTC --test --crate-name obs_tests \
    "$ROOT/crates/obs/src/lib.rs" -o "$WORK/obs_tests"
"$WORK/obs_tests" --quiet
$RUSTC --test --crate-name e2ap_tests \
    --extern bytes="$WORK/libbytes.rlib" \
    "$ROOT/crates/e2ap/src/lib.rs" -o "$WORK/e2ap_tests"
"$WORK/e2ap_tests" --quiet
$RUSTC --test --crate-name codec_tests \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_e2ap="$WORK/libflexric_e2ap.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    --extern proptest="$WORK/libproptest.rlib" \
    "$ROOT/crates/codec/src/lib.rs" -o "$WORK/codec_tests"
"$WORK/codec_tests" --quiet
$RUSTC --test --crate-name transport_core_tests \
    --extern bytes="$WORK/libbytes.rlib" \
    "$WORK/transport_core.rs" -o "$WORK/transport_core_tests"
"$WORK/transport_core_tests" --quiet
$RUSTC --test --crate-name sm_tests \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_codec="$WORK/libflexric_codec.rlib" \
    --extern flexric_e2ap="$WORK/libflexric_e2ap.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    "$ROOT/crates/sm/src/lib.rs" -o "$WORK/sm_tests"
"$WORK/sm_tests" --quiet
# Full ransim unit tests — scheduler, RLC, TC, traffic, KPI workload, and
# the scenario engine (mobility/churn/outage determinism, handover
# conservation).
$RUSTC --test --crate-name ransim_tests \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    "$ROOT/crates/ransim/src/lib.rs" -o "$WORK/ransim_tests"
"$WORK/ransim_tests" --quiet
$RUSTC --test --crate-name sla_solver_tests \
    "$ROOT/crates/ctrl/src/sla_solver.rs" -o "$WORK/sla_solver_tests"
"$WORK/sla_solver_tests" --quiet
# core without its driver (core_modules.rs): the procedure table and
# request-id allocator of endpoint.rs with their model-checked properties,
# the encode-once outbox of scratch.rs, and the unit tests of the two state
# machines' modules (agent, server/router, report).  Built once more as the
# rlib `flexric` for step 5.
CORE_EXTERNS="--extern bytes=$WORK/libbytes.rlib \
    --extern flexric_obs=$WORK/libflexric_obs.rlib \
    --extern flexric_e2ap=$WORK/libflexric_e2ap.rlib \
    --extern flexric_codec=$WORK/libflexric_codec.rlib \
    --extern flexric_sm=$WORK/libflexric_sm.rlib \
    --extern flexric_transport=$WORK/libflexric_transport.rlib"
$RUSTC --test --crate-name core_tests -A dead_code $CORE_EXTERNS \
    --extern proptest="$WORK/libproptest.rlib" \
    core_modules.rs -o "$WORK/core_tests"
"$WORK/core_tests" --quiet
$RUSTC --crate-type rlib --crate-name flexric -A dead_code $CORE_EXTERNS \
    core_modules.rs -o "$WORK/libflexric.rlib"

# 5. The protocol suite (tests/protocol.rs): agent machines and a sharded
#    server on an in-test wire with one virtual clock — lost requests,
#    restarts, grace-window rebinds, cross-shard fan-out, the E2 Setup
#    regressions, and the 1 000-schedule fault sweep with its invariants.
$RUSTC --test --crate-name protocol $CORE_EXTERNS \
    --extern flexric="$WORK/libflexric.rlib" \
    --extern proptest="$WORK/libproptest.rlib" \
    "$ROOT/tests/protocol.rs" -o "$WORK/protocol"
"$WORK/protocol" --quiet

# 4b. The real delta-stream property tests (crates/sm/tests/delta_props.rs):
#     the production encoder/decoder against the plain reference beside the
#     test (delta_reference/, which needs the codec's bit reader/writer) on
#     MAC, RLC, PDCP and KPM, plus every truncation and byte flip of a frame.
$RUSTC --test --crate-name delta_props \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_codec="$WORK/libflexric_codec.rlib" \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern proptest="$WORK/libproptest.rlib" \
    "$ROOT/crates/sm/tests/delta_props.rs" -o "$WORK/delta_props"
"$WORK/delta_props" --quiet

# 4e. Allocation budgets under a counting global allocator
#     (crates/sm/tests/delta_alloc.rs): the delta stream's steady state,
#     and one allocation per full 32-row snapshot in either codec.
$RUSTC --test --crate-name delta_alloc \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    "$ROOT/crates/sm/tests/delta_alloc.rs" -o "$WORK/delta_alloc"
"$WORK/delta_alloc" --quiet

# 4f. The SM encodings on the wire (crates/sm/tests/fb_wire.rs): FB bytes
#     the commit before vtable sharing produced (fb_parent_bytes/) still
#     decode, every bundled SM reads back from both sinks, rows of one
#     layout share one vtable.  The writers' own differential tests (PER
#     put_* against the bitwise reference, FB sharing and spilling) are
#     unit tests of crates/codec and ran in step 3.
$RUSTC --test --crate-name fb_wire \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_codec="$WORK/libflexric_codec.rlib" \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    "$ROOT/crates/sm/tests/fb_wire.rs" -o "$WORK/fb_wire"
"$WORK/fb_wire" --quiet

# 4g. The statistics SMs' field tables (crates/sm/tests/schema.rs): PER,
#     FB, PB and delta bytes of the commit before the tables (schema_golden/),
#     every field at 0 / MAX / MAX + 1 in every encoding, the out-of-range
#     delta value under a matching post-hash, and a service model declared
#     with the exported macros outside the crate.
$RUSTC --test --crate-name schema \
    --extern flexric_codec="$WORK/libflexric_codec.rlib" \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    "$ROOT/crates/sm/tests/schema.rs" -o "$WORK/schema"
"$WORK/schema" --quiet

# 4c. The real SM-registry property tests (crates/sm/tests/registry_props.rs).
$RUSTC --test --crate-name registry_props \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern proptest="$WORK/libproptest.rlib" \
    "$ROOT/crates/sm/tests/registry_props.rs" -o "$WORK/registry_props"
"$WORK/registry_props" --quiet

# 4. The real receive-path property tests (tests/rx_props.rs), verbatim.
$RUSTC --test --crate-name rx_props \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_transport="$WORK/libflexric_transport.rlib" \
    --extern proptest="$WORK/libproptest.rlib" \
    "$ROOT/crates/transport/tests/rx_props.rs" -o "$WORK/rx_props"
"$WORK/rx_props" --quiet

# 4d. Scenario-engine property tests (crates/ransim/tests/scenario_props.rs):
#     seed determinism (cheap specs, and the shipped presets over 120
#     virtual s on 8 seeds), UE conservation across handover, Poisson sanity.
$RUSTC --test --crate-name scenario_props \
    --extern flexric_ransim="$WORK/libflexric_ransim.rlib" \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    --extern proptest="$WORK/libproptest.rlib" \
    "$ROOT/crates/ransim/tests/scenario_props.rs" -o "$WORK/scenario_props"
"$WORK/scenario_props" --quiet

# 4h-4j. The simulator's TTI path (crates/ransim/tests/):
#     props.rs — packet conservation, capacity bound, NVS shares under
#     load, admission control, on the mini proptest;
#     golden_trajectory.rs — nine seeded worlds whose statistics, averages
#     and flow logs fold into digests pinned on the commit before the event
#     heap and the per-TTI Vecs went: what is simulated has not moved;
#     tick_alloc.rs — a warm Sim::tick allocates nothing (counting global
#     allocator).
#     All three run twice: optimised, then against a ransim built with
#     debug assertions and overflow checks (tier-1's profile), where the
#     event queues assert that they are pushed in order.
ransim_suites() { # <ransim rlib> <rustc flags...>
    rlib=$1
    shift
    for t in props golden_trajectory tick_alloc; do
        rustc --edition 2021 "$@" -L dependency="$WORK" --test --crate-name "$t" \
            --extern flexric_ransim="$rlib" \
            --extern flexric_sm="$WORK/libflexric_sm.rlib" \
            --extern proptest="$WORK/libproptest.rlib" \
            "$ROOT/crates/ransim/tests/$t.rs" -o "$WORK/$t"
        "$WORK/$t" --quiet
    done
}
ransim_suites "$WORK/libflexric_ransim.rlib" -O
mkdir -p "$WORK/dbg"
rustc --edition 2021 -C debug-assertions=on -C overflow-checks=on -L dependency="$WORK" \
    --crate-type rlib --crate-name flexric_ransim \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    "$ROOT/crates/ransim/src/lib.rs" -o "$WORK/dbg/libflexric_ransim.rlib"
ransim_suites "$WORK/dbg/libflexric_ransim.rlib" -C debug-assertions=on -C overflow-checks=on

# 6. Adaptive-monitoring A/B (full vs delta vs adaptive; feeds
#    BENCH_fig7b.json): real delta codec + real kpi workload, with
#    byte-identical reconstruction asserted as it runs.
$RUSTC --crate-name delta_ab \
    --extern bytes="$WORK/libbytes.rlib" \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern flexric_ransim="$WORK/libflexric_ransim.rlib" \
    delta_ab.rs -o "$WORK/delta_ab"
# (redirect + cat, not `| tee`: a pipe would mask the exit status)
"$WORK/delta_ab" > "$WORK/fig7b.json"
cat "$WORK/fig7b.json"

# 7. SLA closed-loop A/B (open vs closed NVS shares under scenario load;
#    feeds BENCH_sla.json): real scenario engine + real simulator + real
#    solver, trace hash-checked identical across arms, closed loop
#    required to reduce violation time.
$RUSTC --crate-name sla_ab \
    --extern flexric_ransim="$WORK/libflexric_ransim.rlib" \
    --extern flexric_sm="$WORK/libflexric_sm.rlib" \
    --extern flexric_obs="$WORK/libflexric_obs.rlib" \
    --extern sla_solver="$WORK/libsla_solver.rlib" \
    sla_ab.rs -o "$WORK/sla_ab"
"$WORK/sla_ab" > "$WORK/sla.json"
cat "$WORK/sla.json"

echo "offline verify: ALL PASS (see caveats in tools/offline_verify/run.sh header)"
