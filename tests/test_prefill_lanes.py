"""Prefill lanes: the answer never depends on how many threads computed it.

``repro.model._lanes`` deals the row-independent blocks of prefill (query-row
blocks of causal attention, row chunks of the dense projections) to as many
threads as the process owns CPUs.  Every test here forces the CPU probe to
1, 2 and 3 and demands *bytes*: attention outputs, generated tokens,
log-probabilities, the KV cache and the cluster structures built from it.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.model import GenerationConfig, TransformerModel, _lanes, attention, get_model_config
from repro.model import generation
from repro.model.attention import full_causal_attention
from repro.model.generation import EngineCore, SequenceState
from repro.memory import OffloadManager
from repro.perf import count_ops
from repro.policies import build_policy
from repro.serving import BatchedEngine, SchedulerConfig

LANE_COUNTS = (1, 2, 3)


@pytest.fixture()
def cpus(monkeypatch):
    """Setter for the number of CPUs the lane helper believes it owns."""

    def force(count: int) -> None:
        monkeypatch.setattr(_lanes, "available_cpus", lambda: count)

    return force


@pytest.fixture()
def lanes_used(monkeypatch):
    """Lane counts of every ``run_lanes`` call the attention kernel makes."""
    seen: list[int] = []

    def spy(work, lanes):
        seen.append(lanes)
        _lanes.run_lanes(work, lanes)

    monkeypatch.setattr(attention, "run_lanes", spy)
    return seen


@pytest.fixture(scope="module")
def serve_model():
    return TransformerModel(get_model_config("serve-sim"))


def _qkv(rng, n_heads, n_kv_heads, head_dim, t_q, t_k):
    return (
        rng.normal(size=(n_heads, t_q, head_dim)),
        rng.normal(size=(n_kv_heads, t_k, head_dim)),
        rng.normal(size=(n_kv_heads, t_k, head_dim)),
    )


# ----------------------------------------------------------------------
# (a) the attention kernel
# ----------------------------------------------------------------------
class TestAttentionLanes:
    # (n_heads, n_kv_heads, head_dim, t_q, t_k, rows per block)
    @pytest.mark.parametrize(
        "n_heads,n_kv_heads,head_dim,t_q,t_k,block",
        [
            (8, 4, 16, 96, 96, 8),  # monolithic, block divides: 12 blocks
            (8, 4, 16, 97, 97, 8),  # one-row tail block
            (4, 4, 8, 101, 101, 7),  # MHA, nothing divides
            (8, 2, 8, 60, 200, 4),  # chunk offset 140, GQA group of 4
            (4, 2, 8, 50, 51, 3),  # offset 1, blocks straddle the diagonal
            (4, 1, 8, 40, 64, 1),  # one row per block
            (2, 2, 8, 1, 300, 5),  # a single query row
        ],
    )
    def test_lane_count_never_changes_a_bit(
        self, monkeypatch, cpus, lanes_used, rng, n_heads, n_kv_heads, head_dim, t_q, t_k, block
    ):
        monkeypatch.setattr(attention, "_PREFILL_BLOCK_ELEMENTS", n_heads * t_k * block)
        q, k, v = _qkv(rng, n_heads, n_kv_heads, head_dim, t_q, t_k)
        outputs = []
        for count in LANE_COUNTS:
            cpus(count)
            with count_ops() as ops:
                outputs.append(full_causal_attention(q, k, v, 0.3).output)
        n_blocks = -(-t_q // min(block, t_q))
        work = ops.get("attention_prefill.score_elements") // attention._PREFILL_BLOCK_ELEMENTS
        assert lanes_used == [min(n_blocks, max(1, min(count, work))) for count in LANE_COUNTS]
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])
        # ... and the blocked arithmetic stays within rounding of one block.
        monkeypatch.setattr(attention, "_PREFILL_BLOCK_ELEMENTS", n_heads * t_q * t_k)
        single = full_causal_attention(q, k, v, 0.3).output
        np.testing.assert_allclose(outputs[2], single, atol=1e-12, rtol=0)

    def test_single_block_path_takes_one_lane(self, cpus, lanes_used, rng):
        cpus(3)
        q, k, v = _qkv(rng, 4, 2, 8, 40, 40)
        out = full_causal_attention(q, k, v, 0.5, return_weights=True)
        assert lanes_used == [1]
        assert out.weights[0].shape == (40, 40)

    @pytest.mark.parametrize("count", LANE_COUNTS)
    def test_future_keys_contribute_exactly_zero(self, monkeypatch, cpus, rng, count):
        """Rewriting every key/value after a row's position leaves the row alone."""
        monkeypatch.setattr(attention, "_PREFILL_BLOCK_ELEMENTS", 4 * 120 * 5)
        cpus(count)
        q, k, v = _qkv(rng, 4, 2, 8, 100, 120)
        base = full_causal_attention(q, k, v, 0.4).output
        for row in (0, 3, 49, 98):
            k2, v2 = k.copy(), v.copy()
            k2[:, 20 + row + 1 :] = rng.normal(size=k2[:, 20 + row + 1 :].shape) * 50.0
            v2[:, 20 + row + 1 :] = rng.normal(size=v2[:, 20 + row + 1 :].shape) * 50.0
            moved = full_causal_attention(q, k2, v2, 0.4).output
            assert np.array_equal(moved[: row + 1], base[: row + 1])
            assert not np.array_equal(moved[row + 1 :], base[row + 1 :])

    def test_production_block_size_lanes(self, cpus, lanes_used, rng):
        """No patching: 700 rows x 8 heads is 16 blocks of 46 rows."""
        q, k, v = _qkv(rng, 8, 4, 16, 700, 700)
        outputs = []
        for count in LANE_COUNTS:
            cpus(count)
            with count_ops() as ops:
                outputs.append(full_causal_attention(q, k, v, 0.25).output)
            assert ops.get("gemm.attention_prefill") == 2 * 16
        assert lanes_used == [1, 2, 3]
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])

    def test_prefix_hit_shape_engages_lanes_by_work(self, cpus, lanes_used, rng):
        """A cache hit's suffix: 63 rows against 3199 keys is only 7 blocks.

        They are wide blocks — 1.6 M score elements, six blocks' worth of
        the block budget — so every lane engages.
        """
        q, k, v = _qkv(rng, 8, 4, 16, 63, 3199)
        outputs = []
        for count in LANE_COUNTS:
            cpus(count)
            with count_ops() as ops:
                outputs.append(full_causal_attention(q, k, v, 0.25).output)
            assert ops.get("gemm.attention_prefill") == 2 * 7
        assert lanes_used == [1, 2, 3]
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])


# ----------------------------------------------------------------------
# (b) the whole engine
# ----------------------------------------------------------------------
def _generate(model, policy, prompt, chunk=None, prefix=None):
    """Prefill (optionally chunked, optionally after an attached prefix) + 6 tokens.

    Returns everything the lane count could conceivably reach: tokens,
    log-probabilities, every layer's KV bytes and ClusterKV's centroids and
    cluster-sorted token order.
    """
    config = GenerationConfig(
        budget=64, max_new_tokens=6, num_full_layers=1, num_sink_tokens=8
    )
    core = EngineCore(model, config)
    seq = SequenceState(model, build_policy(policy), config, OffloadManager())
    position = 0
    if prefix is not None:
        keys, values = prefix
        position = keys[0].shape[1]
        core.attach_prefix(seq, prompt, [[(k, v)] for k, v in zip(keys, values)])
    step = chunk or prompt.shape[0]
    distribution = None
    while position < prompt.shape[0]:
        end = min(position + step, prompt.shape[0])
        distribution = core.prefill_chunk(seq, prompt, position, end)
        position = end
    token = core.pick_token(seq, distribution)
    core.record_output(seq, token, distribution)
    for index in range(config.max_new_tokens - 1):
        distribution = core.decode_step_batch([seq], [token], [index])[0]
        token = core.pick_token(seq, distribution)
        core.record_output(seq, token, distribution)
    result = core.finalise(seq)
    arrays = [np.asarray(result.output_ids), np.asarray(result.output_logprobs)]
    for layer_idx in range(model.config.n_layers):
        arrays += [seq.kv_store.keys(layer_idx).copy(), seq.kv_store.values(layer_idx).copy()]
    for state in seq.layer_states:
        for metadata in getattr(state, "metadata", ()):
            arrays += [metadata.centroids.copy(), metadata._sorted_indices.copy()]
    return arrays


def _assert_same_bytes(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestEngineLanes:
    @pytest.mark.parametrize("policy", ["clusterkv", "full"])
    @pytest.mark.parametrize("length,chunk", [(700, None), (700, 512), (2048, None), (2048, 512)])
    def test_generate_is_lane_count_independent(
        self, serve_model, cpus, policy, length, chunk
    ):
        prompt = np.random.default_rng(length).integers(
            4, serve_model.config.vocab_size, size=length
        )
        cpus(1)
        serial = _generate(serve_model, policy, prompt, chunk)
        for count in LANE_COUNTS[1:]:
            cpus(count)
            _assert_same_bytes(serial, _generate(serve_model, policy, prompt, chunk))

    @pytest.mark.parametrize("policy", ["clusterkv", "full"])
    def test_prefix_attached_suffix(self, serve_model, cpus, policy):
        """A 1400-token suffix prefilled behind 648 attached positions."""
        prompt = np.random.default_rng(5).integers(4, serve_model.config.vocab_size, size=2048)
        cpus(1)
        whole = _generate(serve_model, policy, prompt)
        n_layers = serve_model.config.n_layers
        prefix = (
            [whole[2 + 2 * layer][:, :648] for layer in range(n_layers)],
            [whole[3 + 2 * layer][:, :648] for layer in range(n_layers)],
        )
        results = []
        for count in LANE_COUNTS:
            cpus(count)
            results.append(_generate(serve_model, policy, prompt, prefix=prefix))
        _assert_same_bytes(results[0], results[1])
        _assert_same_bytes(results[0], results[2])
        # Tokens match the unattached run (logprob last bits may differ:
        # the suffix blocks its attention differently).
        assert np.array_equal(results[0][0], whole[0])

    def test_prefix_cache_hit_is_lane_count_independent(
        self, serve_model, cpus, lanes_used, monkeypatch
    ):
        """A question over a cached 2048-token document, served end to end.

        The hit attaches the document's KV blocks, adopts its restored
        cluster segments and prefills a 48-token suffix whose attention is
        laned by work.  Tokens, log-probabilities and every byte of every
        ``LayerKVCache`` buffer match across lane counts.
        """
        kv_buffers: list[list[bytes]] = []
        real_finalise = EngineCore.finalise

        def finalise(core, seq):
            kv_buffers.append([layer._kv.tobytes() for layer in seq.kv_store.layers])
            return real_finalise(core, seq)

        monkeypatch.setattr(EngineCore, "finalise", finalise)
        rng = np.random.default_rng(12)
        vocab = serve_model.config.vocab_size
        document = rng.integers(4, vocab, size=2048)
        question = np.concatenate([document, rng.integers(4, vocab, size=48)])
        runs = []
        for count in LANE_COUNTS:
            cpus(count)
            engine = BatchedEngine(
                serve_model,
                selector="clusterkv:prefill_segment_tokens=512",
                generation_config=GenerationConfig(
                    budget=64, max_new_tokens=6, num_full_layers=1, num_sink_tokens=8
                ),
                scheduler_config=SchedulerConfig(
                    prefix_cache_tokens=4096, prefix_block_tokens=64
                ),
            )
            engine.submit(document, request_id="doc", max_new_tokens=1)
            engine.run()
            lanes_used.clear()
            engine.submit(question, request_id="question")
            result = engine.run().results()["question"]
            assert result.cached_prefix_tokens == 2048
            assert set(lanes_used) == {count}  # 4 suffix blocks, 3 blocks' work
            runs.append((result.output_ids, result.output_logprobs, kv_buffers[-1]))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_op_counters_do_not_see_lanes(self, serve_model, cpus):
        """(d) counters are recorded on the calling thread, per block."""
        prompt = np.random.default_rng(9).integers(4, serve_model.config.vocab_size, size=1100)
        totals = []
        for count in (1, 2):
            cpus(count)
            with count_ops() as ops:
                _generate(serve_model, "clusterkv", prompt)
            totals.append(ops.as_dict())
        assert totals[0] == totals[1]
        assert totals[0]["gemm.attention_prefill"] > 0


# ----------------------------------------------------------------------
# (c) failures and thread hygiene
# ----------------------------------------------------------------------
class TestRunLanes:
    def test_every_lane_runs_once(self):
        seen = []
        _lanes.run_lanes(seen.append, 3)
        assert sorted(seen) == [0, 1, 2]

    def test_helper_exception_surfaces_on_the_caller(self):
        before = threading.active_count()

        def work(lane):
            if lane == 2:
                raise KeyError("lane two")

        with pytest.raises(KeyError, match="lane two"):
            _lanes.run_lanes(work, 3)
        assert threading.active_count() == before

    def test_caller_exception_still_joins_the_helpers(self):
        before = threading.active_count()
        release = threading.Event()

        def work(lane):
            if lane == 0:
                release.set()
                raise RuntimeError("lane zero")
            release.wait(5)

        with pytest.raises(RuntimeError, match="lane zero"):
            _lanes.run_lanes(work, 2)
        assert threading.active_count() == before

    def test_exception_inside_a_laned_prefill(self, serve_model, cpus, monkeypatch):
        """A dense block failing on a helper lane fails the prefill, leak-free."""
        cpus(2)
        main = threading.get_ident()
        real_ffn = TransformerModel.ffn

        def ffn(self, layer_idx, hidden):
            if threading.get_ident() != main:
                raise FloatingPointError("helper lane")
            return real_ffn(self, layer_idx, hidden)

        monkeypatch.setattr(TransformerModel, "ffn", ffn)
        before = threading.active_count()
        prompt = np.arange(4, 4 + 600)
        with pytest.raises(FloatingPointError, match="helper lane"):
            _generate(serve_model, "full", prompt)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_prefill(self, serve_model, cpus):
        cpus(3)
        before = threading.active_count()
        _generate(serve_model, "full", np.arange(4, 4 + 800))
        assert threading.active_count() == before

    def test_lane_count_thresholds(self, cpus):
        cpus(4)
        assert _lanes.lane_count(255, 256) == 1
        assert _lanes.lane_count(512, 256) == 2
        assert _lanes.lane_count(5000, 256) == 4
        assert _lanes.lane_count(0, 4) == 1

    def test_lane_cap(self, cpus):
        cpus(8)
        try:
            _lanes.set_lane_cap(2)
            assert _lanes.lane_count(10_000, 1) == 2
        finally:
            _lanes.set_lane_cap(None)
        assert _lanes.lane_count(10_000, 1) == 8

    def test_dense_chunking_ignores_the_lane_count(self, serve_model, cpus, monkeypatch):
        """Rows are cut at fixed boundaries; lanes only decide who runs them."""
        shapes: dict[int, list[int]] = {}
        real_qkv = TransformerModel.attention_qkv

        def qkv(self, layer_idx, hidden, positions):
            shapes[count].append(hidden.shape[0])
            return real_qkv(self, layer_idx, hidden, positions)

        monkeypatch.setattr(TransformerModel, "attention_qkv", qkv)
        for count in (1, 2):
            cpus(count)
            shapes[count] = []
            _generate(serve_model, "full", np.arange(4, 4 + 600))
        prefill = [256, 256, 88] * serve_model.config.n_layers
        assert sorted(shapes[1][: len(prefill)]) == sorted(prefill)
        assert sorted(shapes[1]) == sorted(shapes[2])
        assert generation._DENSE_CHUNK_ROWS == 256


# ----------------------------------------------------------------------
# (e) a process pinned to one CPU
# ----------------------------------------------------------------------
_PINNED = """
import os, sys, threading, hashlib
os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
import numpy as np
from repro.model import TransformerModel, _lanes, get_model_config
from repro.model import attention
calls = []
real = _lanes.run_lanes
def spy(work, lanes):
    calls.append(lanes)
    real(work, lanes)
attention.run_lanes = spy
sys.path.insert(0, sys.argv[1])
from test_prefill_lanes import _generate
model = TransformerModel(get_model_config("serve-sim"))
prompt = np.random.default_rng(700).integers(4, model.config.vocab_size, size=700)
digest = hashlib.sha256()
for array in _generate(model, "clusterkv", prompt):
    digest.update(array.tobytes())
assert _lanes.available_cpus() == 1 and set(calls) == {1}, calls
print(digest.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
def test_single_cpu_affinity_takes_the_serial_path(serve_model, cpus):
    import hashlib

    completed = subprocess.run(
        [sys.executable, "-c", _PINNED, os.path.dirname(os.path.abspath(__file__))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    cpus(2)
    prompt = np.random.default_rng(700).integers(4, serve_model.config.vocab_size, size=700)
    digest = hashlib.sha256()
    for array in _generate(serve_model, "clusterkv", prompt):
        digest.update(array.tobytes())
    assert completed.stdout.strip() == digest.hexdigest()
