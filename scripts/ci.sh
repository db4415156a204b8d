#!/usr/bin/env bash
# CI gate: format, build, test, lint. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> trace golden test"
cargo test -q --test trace_golden

echo "==> fold-in golden test"
# The serving fold-in's θ̂, log-predictive and modelled-charge digests are
# pinned; any change to the fold-in read path must reproduce them exactly.
cargo test -q --test inference fold_in_golden
# The oracles the digests were regenerated behind: held-out perplexity
# within 2% of the dense fold-in's, and the three-bucket draw's histogram
# against the exact conditional (Eq. 1).
cargo test -q --test inference fold_in_matches_dense_perplexity
cargo test -q -p culda-sampler --lib three_bucket_draw_matches_exact_conditional

echo "==> inference smoke test"
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
cargo run --release -q -p culda-cli -- generate --preset tiny --seed 3 \
    --docword "$smoke/c.dw" --vocab "$smoke/c.v"
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/c.phi" --topics 8 --iters 3 \
    --score-every 0 --platform maxwell
cargo run --release -q -p culda-cli -- infer --model "$smoke/c.phi" \
    --docword "$smoke/c.dw" --vocab "$smoke/c.v" --workers 2 \
    --batch-size 16 --burnin 3 --samples 2 --out "$smoke/theta.json"
test -s "$smoke/theta.json"
grep -q '"theta"' "$smoke/theta.json"
grep -q '"perplexity"' "$smoke/theta.json"

echo "==> fault-injection smoke test"
# A transient launch fault mid-training must recover (exit 0), report
# recovery metrics, and train the exact same model as the clean run.
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/f.phi" --topics 8 --iters 3 \
    --score-every 0 --platform maxwell --fault-plan launch:0:1 \
    | tee "$smoke/fault.log"
grep -q 'recovery: 1 fault(s) injected, 1 retry(s)' "$smoke/fault.log"
cmp "$smoke/c.phi" "$smoke/f.phi"

echo "==> sync-mode matrix smoke test"
# Every ϕ synchronization strategy must train the bit-identical model;
# only modelled time and bytes moved may differ.
for sync_mode in dense-tree dense-ring delta auto; do
    cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
        --vocab "$smoke/c.v" --model "$smoke/s-$sync_mode.phi" --topics 8 \
        --iters 3 --score-every 0 --platform pascal --gpus 2 \
        --sync-mode "$sync_mode"
done
for sync_mode in dense-ring delta auto; do
    cmp "$smoke/s-dense-tree.phi" "$smoke/s-$sync_mode.phi"
done

echo "==> sampling-mode matrix smoke test"
# Every p* fill path must sample the bit-identical model; only the
# modelled sampling time may differ.
for sampling_mode in dense sparse auto; do
    cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
        --vocab "$smoke/c.v" --model "$smoke/p-$sampling_mode.phi" --topics 8 \
        --iters 3 --score-every 0 --platform pascal --gpus 2 \
        --sampling-mode "$sampling_mode"
done
for sampling_mode in sparse auto; do
    cmp "$smoke/p-dense.phi" "$smoke/p-$sampling_mode.phi"
done

echo "==> draw-mode matrix smoke test"
# Every p1 draw engine must sample the bit-identical model; only the
# modelled memory traffic may differ.
for draw_mode in tree butterfly auto; do
    cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
        --vocab "$smoke/c.v" --model "$smoke/d-$draw_mode.phi" --topics 8 \
        --iters 3 --score-every 0 --platform pascal --gpus 2 \
        --draw-mode "$draw_mode"
done
for draw_mode in butterfly auto; do
    cmp "$smoke/d-tree.phi" "$smoke/d-$draw_mode.phi"
done

echo "==> multi-node smoke test"
# A 2-node cluster run must train the bit-identical model to the 1-node
# run of the same configuration (the dense-tree model from above).
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/n.phi" --topics 8 --iters 3 \
    --score-every 0 --platform pascal --gpus 2 --nodes 2 \
    | tee "$smoke/nodes.log"
grep -q 'cluster: 2 node(s)' "$smoke/nodes.log"
cmp "$smoke/s-dense-tree.phi" "$smoke/n.phi"

echo "==> telemetry smoke test (eval, snapshots, report, openmetrics)"
# A telemetry-laden run must stream parseable snapshots, export a lintable
# OpenMetrics exposition, render a report — and train the bit-identical
# model to the plain run above.
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/t.phi" --topics 8 --iters 3 \
    --score-every 0 --platform maxwell --eval-every 2 --eval-fraction 0.2 \
    --snapshots "$smoke/run.jsonl" --openmetrics "$smoke/metrics.om"
cmp "$smoke/c.phi" "$smoke/t.phi"
test -s "$smoke/run.jsonl"
grep -q '# EOF' "$smoke/metrics.om"
# `report` re-parses both artifacts (the OpenMetrics lint runs inside it).
cargo run --release -q -p culda-cli -- report --snapshots "$smoke/run.jsonl" \
    --openmetrics "$smoke/metrics.om" --out "$smoke/report.md"
grep -q '# culda run report' "$smoke/report.md"
grep -q '## Held-out evaluation' "$smoke/report.md"
grep -q 'parses back cleanly' "$smoke/report.md"

echo "==> serving smoke test (registry, hot-swap, load report)"
# Two checkpoint versions behind the control plane: the load run must
# complete everything it offers, and the mid-run blue/green swap must
# drain cleanly (dropped == 0) while moving v1 -> v2.
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/green.phi" --topics 8 --iters 5 \
    --score-every 0 --platform maxwell
cargo run --release -q -p culda-cli -- serve --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/c.phi" --model-b "$smoke/green.phi" \
    --pools 2 --pool-workers 1 --rate 300 --duration 0.2 --swap-at 0.1 \
    --out "$smoke/serving.json" | tee "$smoke/serve.log"
grep -q 'zero downtime' "$smoke/serve.log"
grep -q '"dropped":0' "$smoke/serving.json"
grep -q '"from":"default@v1"' "$smoke/serving.json"
grep -q '"to":"default@v2"' "$smoke/serving.json"
grep -q '"p99_s"' "$smoke/serving.json"

echo "==> bench regression gate"
scripts/bench_gate.sh

echo "==> draw-path gate"
scripts/bench_draw.sh

echo "==> serving gate"
scripts/bench_serving.sh

echo "==> cluster gate"
scripts/bench_cluster.sh

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> CI green"
