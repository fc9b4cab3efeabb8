#!/usr/bin/env bash
# Tier-1 verify: hermetic build + tests, then a policy check that no
# crate has reintroduced a registry dependency. The workspace must
# build from a clean checkout with an empty cargo registry cache —
# every dependency is an in-tree path dependency (see README "Building"
# and DESIGN.md "In-tree primitives").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (offline) =="
cargo test -q --offline

echo "== benches compile (offline) =="
cargo build --offline --benches

echo "== repository benchmark compiles (offline) =="
# perfbench is its own Cargo workspace (path deps on crates/*), so the
# workspace build above does not cover it; a public-API change that
# breaks it must fail here rather than when the benchmark runs.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== schedule auditor (fast budget) =="
# Random op schedules under 5% drop with retries on must preserve every
# invariant, and — with K-successor replication on — random schedules
# that mix in permanent kills must stay oracle-exact (the kill-forever
# op, DESIGN.md §13). A reduced case budget keeps this inside tier-1
# time; the full-budget run is the tests' default (`AUDIT_CASES`
# unset).
AUDIT_CASES=15 cargo test -q --offline -p integration-tests --test schedule_audit

echo "== replication placement + failover (simulator, fast budget) =="
# Kill-forever in the simulator: oracle-exact answers after ≤ K−1
# permanent losses, the replicas(1) no-op equivalence, and the
# K-successor placement property over random membership churn.
AUDIT_CASES=8 cargo test -q --offline -p integration-tests --test replication

echo "== tracing-off / cache-off byte-identity: figure CSVs =="
# The observability layer must be zero-cost when no sink is installed,
# and the locate cache must be zero-cost when not configured:
# regenerating the figure and fault-sweep CSVs with the instrumented
# binaries must reproduce the committed files byte for byte. (These
# binaries run trace-free and cache-off; any behavioral drift — an
# extra RNG draw, a reordered dispatch, a query answered differently —
# shows up here as a diff.) zipf_sweep doubles as the cache smoke: it
# runs every scenario cache-off AND cache-on at quick scale, asserts
# oracle-exact answers in both modes plus the headline reductions, and
# its committed artifacts are deterministic, so they are byte-gated
# like the figures.
for bin in fig6a_indexing_volume fig6b_indexing_netsize fig7a_query_netsize \
           fig7b_query_volume fig8a_load_balance fig8b_scheme_cost fault_sweep \
           zipf_sweep ablations; do
    ./target/release/"$bin" > /dev/null
done
git diff --exit-code -- \
    results/fig6a.csv results/fig6b.csv results/fig7a.csv results/fig7b.csv \
    results/fig8a.csv results/fig8b.csv results/fault_sweep.csv \
    results/zipf_sweep_off.csv results/zipf_sweep_on.csv results/BENCH_qcache.json \
    results/ablations.csv \
    || { echo "figure CSVs drifted from the committed baselines" >&2; exit 1; }
echo "OK: fig6/7/8 + fault_sweep + zipf_sweep + ablations byte-identical to committed baselines."

echo "== WAN federation sweep byte-identity (DESIGN.md §17) =="
# Flat ring vs proximity placement over the three-region wan3 topology
# at identical seeds. The binary hard-asserts the headline (proximity
# reduces cross-region bytes AND cross-region locate p95, oracle-exact
# in both modes); the byte gate pins the full per-region-pair tables.
# Purely modeled time — deterministic on any host.
./target/release/wan_sweep > /dev/null
git diff --exit-code -- \
    results/wan_sweep_flat.csv results/wan_sweep_proximity.csv \
    results/BENCH_wan.json \
    || { echo "wan_sweep artifacts drifted from the committed baselines" >&2; exit 1; }
echo "OK: wan_sweep flat/proximity artifacts byte-identical to committed baselines."

echo "== trace exporter: deterministic exports =="
# Two same-seed traced runs must write byte-identical artifacts.
./target/release/trace_run > /dev/null
cp results/trace_demo.json /tmp/verify_trace_demo.json
cp results/latency_histograms.csv /tmp/verify_latency_histograms.csv
./target/release/trace_run > /dev/null
cmp results/trace_demo.json /tmp/verify_trace_demo.json
cmp results/latency_histograms.csv /tmp/verify_latency_histograms.csv
rm -f /tmp/verify_trace_demo.json /tmp/verify_latency_histograms.csv
echo "OK: trace exports byte-identical across invocations."

echo "== sharded determinism: T=1 vs T=4 byte-identical =="
# The parallel executor's contract (DESIGN.md §16): thread count is a
# throughput knob, never a semantics knob. The canonical flat-engine
# geometry must produce byte-identical run summaries — events, windows,
# records, oracle counters, per-class message accounting — at 1 and 4
# worker threads.
./target/release/complexity_check --shard-csv /tmp/verify_shard_t1.csv --threads 1 > /dev/null
./target/release/complexity_check --shard-csv /tmp/verify_shard_t4.csv --threads 4 > /dev/null
cmp /tmp/verify_shard_t1.csv /tmp/verify_shard_t4.csv \
    || { echo "sharded executor results depend on the thread count" >&2; exit 1; }
rm -f /tmp/verify_shard_t1.csv /tmp/verify_shard_t4.csv
echo "OK: canonical sharded run byte-identical at T=1 and T=4."

echo "== flat-engine scale smoke (bounded) =="
# Sub-second ascending sweep with the locate oracle and the Θ(No)
# slope assert baked into the binary; the full 10^6-node / 10^7-object
# sweep is scripts/bench_simnet.sh, not tier-1.
./target/release/complexity_check --quick > /dev/null
echo "OK: complexity_check --quick clean (oracle-exact, Θ(No) slope)."

echo "== loopback cluster smoke (real sockets) =="
# Five daemon nodes on ephemeral loopback ports run a real movement and
# answer queries over the wire, inside a hard timeout so a wedged
# cluster fails the gate instead of hanging it. Sandboxes that forbid
# binding sockets skip this stage loudly (same probe the socket tests
# use).
if ./target/release/peertrackd --probe-bind; then
    timeout 120 cargo test -q --offline -p daemon --test loopback \
        || { echo "loopback cluster smoke failed (or timed out)" >&2; exit 1; }
    timeout 180 cargo test -q --offline -p integration-tests --test cluster_parity \
        || { echo "cluster/simulator parity failed (or timed out)" >&2; exit 1; }
    echo "OK: loopback cluster runs, queries answer, accounting matches the simulator."

    echo "== kill-and-recover smoke (durable data dirs) =="
    # A node crashed mid-schedule (no final snapshot) must restart from
    # its WAL+snapshot byte-identical and keep answering correctly; the
    # same test file also holds the snapshot-anywhere ≡ pure-replay and
    # corruption-prefix properties. Hard timeout: a wedged recovery
    # fails the gate instead of hanging it.
    timeout 180 cargo test -q --offline -p integration-tests --test crash_recovery \
        || { echo "crash recovery smoke failed (or timed out)" >&2; exit 1; }
    echo "OK: crashed node recovered byte-identical and answers match the oracle."

    echo "== kill-forever failover (--replicas, real sockets) =="
    # An 8-node cluster with K = 3 replication loses two nodes
    # *permanently* (no restart); every survivor's locate/trace must
    # stay oracle-exact with zero protocol anomalies (DESIGN.md §13).
    timeout 180 cargo test -q --offline -p integration-tests --test replication_cluster \
        || { echo "kill-forever failover failed (or timed out)" >&2; exit 1; }
    # And the flag itself: a replicated daemon must come up and answer
    # ctl, and a zero replica count must be rejected loudly.
    ./target/release/peertrackd --replicas 0 --site 0 --seed 1 --listen 127.0.0.1:0 \
        2>/dev/null && { echo "peertrackd accepted --replicas 0" >&2; exit 1; }
    repl_out=$(mktemp)
    ./target/release/peertrackd --site 0 --seed 1 --listen 127.0.0.1:0 --replicas 3 \
        > "$repl_out" &
    repl_pid=$!
    repl_addr=""
    for _ in $(seq 50); do
        repl_addr=$(sed -n 's/.*listening on //p' "$repl_out")
        [[ -n "$repl_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$repl_addr" ]] || {
        echo "peertrackd --replicas 3 never came up" >&2
        kill "$repl_pid" 2>/dev/null || true
        exit 1
    }
    ./target/release/peertrackd ctl "$repl_addr" status > /dev/null
    ./target/release/peertrackd ctl "$repl_addr" shutdown > /dev/null
    wait "$repl_pid" || true
    rm -f "$repl_out"
    echo "OK: two permanent losses survived; --replicas daemon answers ctl."

    echo "== region-cut partition smoke (wan3 over real sockets) =="
    # A six-node cluster over geo::Topology::wan3 is partitioned into
    # three isolated regions (Frame::RegionCut), keeps answering about
    # fully-propagated history, parks cross-region frames at the
    # senders, then heals and must be oracle-exact on everything —
    # including a handoff made during the partition — with zero
    # protocol anomalies on every node (DESIGN.md §17).
    timeout 180 cargo test -q --offline -p integration-tests --test wan_cluster \
        || { echo "region-cut partition smoke failed (or timed out)" >&2; exit 1; }
    echo "OK: three-way region partition parked, healed, reconverged oracle-exact."

    echo "== event-loop pipelining & backpressure (real sockets) =="
    # Pipelined bursts must answer byte-identical to request-at-a-time
    # (and match the oracle), slow-loris/partial frames must not block
    # or corrupt, a never-reading client must be parked (bounded
    # outbox), and pipelined acks must survive Frame::Crash.
    timeout 180 cargo test -q --offline -p integration-tests --test daemon_pipeline \
        || { echo "pipelining/backpressure suite failed (or timed out)" >&2; exit 1; }
    echo "OK: pipelining parity, slow-loris isolation, backpressure, group commit."

    echo "== daemon_load smoke (group-commit throughput floor) =="
    # A short open-loop run against a 4-node cluster at --fsync batch
    # must clear a deliberately loose captures/sec floor — the gate
    # catches a group-commit regression (per-request fsync would land
    # orders of magnitude under it), not machine-speed variance. The
    # committed trajectory (results/BENCH_daemon.json) is regenerated
    # by scripts/bench_daemon.sh, not here.
    timeout 180 ./target/release/daemon_load --mode pipelined --sites 4 \
        --secs 0.5 --rate 100000 --locates-per-site 5 \
        --min-captures-per-sec 1500 --json /tmp/verify_daemon_load.json > /dev/null \
        || { echo "daemon_load smoke failed its throughput floor" >&2; exit 1; }
    rm -f /tmp/verify_daemon_load.json
    echo "OK: daemon_load sustains the pipelined throughput floor."
else
    echo "WARNING: sandbox forbids binding loopback sockets; cluster and" >&2
    echo "         kill-and-recover smokes SKIPPED (socket-free recovery" >&2
    echo "         properties still ran in the test stage above)." >&2
fi

echo "== dependency policy: path-only =="
# Any dependency line carrying a version requirement or registry/git
# source is a policy violation. In-tree deps look like
# `foo = { workspace = true }` / `foo = { path = "..." }`; the
# workspace table itself must be path-only too.
# Inside any *dependencies* section, the only acceptable shapes are
# `foo = { workspace = true }` and `foo = { path = "...", ... }` with
# no version/git/registry source. Section-aware so keys like
# `description` or `resolver` elsewhere never false-positive.
violations=$(
    find . -name Cargo.toml -not -path './target/*' -print0 | xargs -0 awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
            ok = ($0 ~ /workspace[[:space:]]*=[[:space:]]*true/ || $0 ~ /path[[:space:]]*=/)
            bad = ($0 ~ /(version|git|registry)[[:space:]]*=/)
            if (!ok || bad) print FILENAME ":" FNR ": " $0
        }' || true
)
if [[ -n "$violations" ]]; then
    echo "registry/git dependencies are not allowed (hermetic build policy):" >&2
    echo "$violations" >&2
    exit 1
fi
echo "OK: all Cargo.toml dependencies are path-only."

# Generalized membership check: every directory under crates/ must be a
# workspace member, so a newly added crate can never dodge the build,
# the tests, or the dependency-policy scan above.
for dir in crates/*/; do
    c=$(basename "$dir")
    grep -q "crates/$c" Cargo.toml \
        || { echo "crates/$c missing from the workspace manifest" >&2; exit 1; }
done
echo "OK: every crates/* directory is a workspace member."
