"""Tier-1 hook of the hot-path perf regression guard (``scripts/check_perf.py``).

The deterministic section of ``BENCH_hotpaths.json`` pins the engine-step
and GEMM-launch counts of the vectorized hot paths on small fixed
configurations.  This test recomputes them and fails on any drift — the
machine-independent way to catch a de-vectorisation (per-head loops
creeping back, duplicated selection scoring, instrumentation GEMMs on the
disabled path) in CI, where wall-clock timings would be pure noise.
"""

import json
import sys
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS_DIR))

import check_perf  # noqa: E402
from check_perf import BENCH_PATH, baseline_diff  # noqa: E402

from repro.model import attention, get_model_config  # noqa: E402
from repro.perf import run_perf_bench  # noqa: E402


def load_baseline() -> dict:
    """The checked-in ``BENCH_hotpaths.json`` payload."""
    return json.loads(BENCH_PATH.read_text(encoding="utf-8"))


def test_bench_file_is_byte_regenerable():
    """The committed bench file is exactly what ``--update`` would write.

    Holds only because the file carries no wall-clock number: its keys are
    the deterministic payload and nothing else.
    """
    assert BENCH_PATH.exists(), (
        f"missing {BENCH_PATH}; create it with: python scripts/check_perf.py --update"
    )
    payload = load_baseline()
    assert set(payload) == {"schema", "config", "deterministic"}
    assert "serve" in payload["deterministic"]
    assert "kmeans" in payload["deterministic"]
    text = json.dumps(run_perf_bench(), indent=2, sort_keys=True) + "\n"
    assert text == BENCH_PATH.read_text(encoding="utf-8")


def test_deterministic_counters_match_baseline():
    """Live engine-step / GEMM / k-means counters equal the checked-in ones."""
    mismatches = baseline_diff(BENCH_PATH)
    assert not mismatches, (
        "deterministic hot-path counters drifted from BENCH_hotpaths.json:\n"
        + "\n".join(f"  - {line}" for line in mismatches)
        + "\nintentional? run: python scripts/check_perf.py --update"
    )


def test_config_edit_without_regenerating_is_caught(monkeypatch):
    """The comparison covers the whole file, so a ``PerfBenchConfig`` edit
    that forgets ``--update`` fails even when no counter depends on it."""
    live = load_baseline()
    live["config"]["seed"] += 1
    monkeypatch.setitem(check_perf.BASELINES, BENCH_PATH, lambda: live)
    assert baseline_diff(BENCH_PATH) == ["config.seed: baseline=0 current=1"]


def test_gemm_counters_prove_vectorization():
    """The pinned GEMM counts encode the vectorized shape of the hot paths.

    4 requests decode 8 tokens each on the 4-layer serve-sim model under
    ClusterKV.  With attention batched across heads *and* across the
    requests of a decode batch, the per-step decode GEMM count is bounded
    by a small multiple of the layer count — nowhere near the
    requests x layers x kv-heads explosion of the historical per-head loop.
    """
    payload = load_baseline()
    serve = payload["deterministic"]["serve"]
    counters = serve["counters"]
    steps = serve["engine_steps"]
    assert counters["gemm.attention_decode"] > 0
    # 2 launches per fused attention; at most (solo full layers + stacked
    # groups + stragglers) per step. The historical loop would need
    # >= 2 * 4 kv-head GEMMs per request per layer.
    per_step = counters["gemm.attention_decode"] / steps
    assert per_step <= 2 * (4 + 4)
    # Instrumentation is off in the pinned run: zero true-score GEMMs.
    assert counters.get("gemm.true_score", 0) == 0


def test_prefill_attention_stops_at_the_causal_frontier():
    """The pinned 512-token prefill scores about half of T x T per head.

    Row blocks of ``b`` rows multiplied against keys up to their own last
    row touch ``0.5 * T^2 * H * (1 + b/T)`` score elements per layer; full-
    width blocks (the pre-frontier kernel) touch ``T^2 * H`` and fail this
    bound with no timing loop.
    """
    payload = load_baseline()
    model = get_model_config(payload["config"]["model"])
    prefill = payload["deterministic"]["prefill"]
    tokens, heads = prefill["prompt_tokens"], model.n_heads
    block = attention._PREFILL_BLOCK_ELEMENTS // (heads * tokens)
    assert 1 <= block < tokens  # the pinned prefill takes the blocked path
    bound = 0.5 * tokens**2 * heads * (1 + block / tokens) * model.n_layers
    assert 0 < prefill["counters"]["attention_prefill.score_elements"] <= bound


def test_non_final_chunk_skips_the_last_layer():
    """The first of the pinned prefill's two chunks attends in every layer but the last.

    A chunk of ``c`` rows against its own ``c`` keys is ``ceil(c / b)``
    row blocks of two GEMMs per layer.  Nothing reads a non-final chunk's
    output hidden state, so its last layer appends its KV and stops.
    """
    payload = load_baseline()
    model = get_model_config(payload["config"]["model"])
    chunked = payload["deterministic"]["chunked_prefill"]
    rows, heads = chunked["chunk_tokens"], model.n_heads
    budget = attention._PREFILL_BLOCK_ELEMENTS
    block = rows if heads * rows * rows <= budget else max(1, budget // (heads * rows))
    blocks = -(-rows // block)
    first = chunked["counters"]["first"]
    assert first["gemm.attention_prefill"] == 2 * blocks * (model.n_layers - 1)
    assert "gemm.kmeans_assign" not in first  # clustering waits for the final chunk
