#!/usr/bin/env bash
# Self-test of the benchmark. For each workload:
#  * a short-mode run with --trace 0 must print every end-to-end metric
#    named in BENCHMARK.json, with its unit, and report correct=true;
#  * a short-mode run with --trace 1 must do the same for every
#    per-layer metric;
#  * a short-mode run with an injected defect (an allocation the benchmark
#    deliberately leaks) must be rejected: correct=false, no metrics,
#    nonzero exit.
# Run from anywhere: bash itvbench/selftest.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cmd=(cargo run --release --offline --quiet --manifest-path itvbench/Cargo.toml --)

check() { # <trace 0|1> <expect correct: true|false> <last line>
    python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
trace, want, line = sys.argv[1], sys.argv[2] == "true", sys.argv[3]
res = json.loads(line)
bench = json.load(open("BENCHMARK.json"))
assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
assert res["correct"] is want, f"correct={res['correct']}, expected {want}"
assert isinstance(res["attempted"], int) and res["attempted"] >= 1
assert isinstance(res["failed"], int)
if not want:
    assert res["metrics"] == {}, "a failed run must report no numbers"
    sys.exit(0)
spec = bench["per_layer" if trace == "1" else "end_to_end"]
for m in spec:
    got = res["metrics"].get(m["name"])
    assert got is not None, f"missing metric {m['name']}"
    assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}"
    assert isinstance(got["value"], (int, float)), f"{m['name']}: value {got['value']}"
extra = set(res["metrics"]) - {m["name"] for m in spec}
assert not extra, f"metrics not in BENCHMARK.json: {extra}"
EOF
}

for w in vod-open zap-admit failover-sim; do
    for t in 0 1; do
        line="$("${cmd[@]}" --workload "$w" --seed 7 --seconds 1 --trace "$t" --short | tail -n 1)"
        check "$t" true "$line"
        echo "selftest: $w trace=$t emits every metric"
    done
    set +e
    line="$("${cmd[@]}" --workload "$w" --seed 7 --seconds 1 --trace 0 --short --inject-leak 2>/dev/null | tail -n 1)"
    status=$?
    set -e
    if [ "$status" -eq 0 ]; then
        echo "selftest: $w accepted an injected leaked allocation" >&2
        exit 1
    fi
    check 0 false "$line"
    echo "selftest: $w rejects an injected leaked allocation"
done
echo "selftest: OK"
