"""The prefill's last-layer cut and the k-means update, held to their references.

Only the final prompt row's hidden state reaches the logits, so
:meth:`EngineCore.prefill_chunk` runs the last layer's attention for the
query block holding that row only, and its output projection + FFN for the
final 256-row dense chunk only; a non-final chunk stops once its last
layer's KV is appended.  :func:`_reference_prefill_chunk` below is the
prefill without that cut — every layer over every row, in the same 256-row
chunks — and every test demands its bytes: the output distribution and
every layer's ``LayerKVCache`` buffer.

The batched k-means update (contiguous per-dimension columns, one masked
divide, a repair only for heads with an empty cluster) is held to the
per-head :func:`kmeans_cluster` the same way.
"""

import numpy as np
import pytest

from repro.core import clustering
from repro.core.clustering import kmeans_cluster, kmeans_cluster_batch
from repro.memory import OffloadManager
from repro.model import GenerationConfig, TransformerModel, get_model_config
from repro.model.attention import full_causal_attention
from repro.model.generation import EngineCore, SequenceState
from repro.model.tensor_ops import softmax
from repro.policies import build_policy

CHUNK_ROWS = 256


@pytest.fixture(scope="module")
def serve_model():
    return TransformerModel(get_model_config("serve-sim"))


def _reference_prefill_chunk(core, seq, prompt_ids, start, end):
    """``EngineCore.prefill_chunk`` without the last-layer cut, on one thread."""
    model, config = core.model, core.model.config
    length = prompt_ids.shape[0]
    if start == 0:
        seq.prefilled = True
        seq.result.prompt_length = length
    positions = np.arange(start, end)
    hidden = model.embed(prompt_ids[start:end])
    rows = end - start
    parts = [slice(lo, lo + CHUNK_ROWS) for lo in range(0, rows, CHUNK_ROWS)]
    q = np.empty((config.n_heads, rows, config.head_dim))
    k = np.empty((config.n_kv_heads, rows, config.head_dim))
    v = np.empty_like(k)
    for layer_idx in range(config.n_layers):
        for part in parts:
            q[:, part], k[:, part], v[:, part] = model.attention_qkv(
                layer_idx, hidden[part], positions[part]
            )
        seq.kv_store.append(layer_idx, k, v, step=-1)
        if start == 0:
            keys_ctx, values_ctx = k, v
        else:
            keys_ctx = seq.kv_store.keys(layer_idx)
            values_ctx = seq.kv_store.values(layer_idx)
        attn = full_causal_attention(q, keys_ctx, values_ctx, config.softmax_scale)
        for part in parts:
            hidden[part] = model.ffn(
                layer_idx, model.attention_output(layer_idx, hidden[part], attn.output[part])
            )
    if seq.copy_head is not None:
        seq.copy_head.ingest(prompt_ids[start:end])
    seq.position = end
    if end < length:
        return None
    for layer_idx in range(config.n_layers):
        state = seq.layer_states[layer_idx]
        if state is not None:
            state.observe_prefill(seq.kv_store.keys(layer_idx)[:, :length, :])
    if seq.copy_head is not None and seq.copy_state is not None:
        seq.copy_state.observe_prefill(seq.copy_head.keys[None, :, :])
    logits = model.final_logits(hidden[-1:, :])[0]
    return core._mix_copy(seq, softmax(logits), int(prompt_ids[-1]), allowed_indices=None)


def _prefill(model, prompt, prefill_chunk, chunk=None, prefix=None):
    """Prefill ``prompt`` through ``prefill_chunk``; the distribution and every KV byte.

    ``chunk`` splits the prompt into chunks of that many tokens; ``prefix``
    (per-layer keys, per-layer values) is attached first, as a prefix-cache
    hit does.
    """
    config = GenerationConfig(budget=64, max_new_tokens=4, num_full_layers=1, num_sink_tokens=8)
    core = EngineCore(model, config)
    seq = SequenceState(model, build_policy("clusterkv"), config, OffloadManager())
    position = 0
    if prefix is not None:
        keys, values = prefix
        position = keys[0].shape[1]
        core.attach_prefix(seq, prompt, [[(k, v)] for k, v in zip(keys, values)])
    step = chunk or prompt.shape[0]
    distribution = None
    while position < prompt.shape[0]:
        end = min(position + step, prompt.shape[0])
        distribution = prefill_chunk(core, seq, prompt, position, end)
        assert (distribution is None) == (end < prompt.shape[0])
        position = end
    buffers = [layer._kv.tobytes() for layer in seq.kv_store.layers]
    return distribution.tobytes(), buffers, seq


def _assert_same_as_reference(model, prompt, **kwargs):
    engine, engine_kv, _ = _prefill(model, prompt, EngineCore.prefill_chunk, **kwargs)
    reference, reference_kv, _ = _prefill(model, prompt, _reference_prefill_chunk, **kwargs)
    assert engine == reference
    assert len(engine_kv) == model.config.n_layers
    assert engine_kv == reference_kv


def _prompt(model, length, seed):
    return np.random.default_rng(seed).integers(4, model.config.vocab_size, size=length)


class TestLastLayerCut:
    # 1 row; 181 the last single-shot length (8 heads x 181^2 fits the block
    # budget); 182 the first blocked one; 255/256/257 around the dense
    # chunk; 257 also has its final attention block straddle two chunks.
    @pytest.mark.parametrize("length", [1, 181, 182, 255, 256, 257, 511, 2048])
    def test_monolithic_prefill(self, serve_model, length):
        _assert_same_as_reference(serve_model, _prompt(serve_model, length, length))

    @pytest.mark.parametrize("length", [300, 520])
    def test_chunked_prefill(self, serve_model, length):
        _assert_same_as_reference(serve_model, _prompt(serve_model, length, length), chunk=128)

    def test_prefix_cache_hit_suffix(self, serve_model):
        """48 suffix tokens prefilled behind an attached 2048-token document."""
        prompt = _prompt(serve_model, 2048 + 48, 12)
        _, _, seq = _prefill(serve_model, prompt[:2048], EngineCore.prefill_chunk)
        prefix = (
            [seq.kv_store.keys(layer).copy() for layer in range(serve_model.config.n_layers)],
            [seq.kv_store.values(layer).copy() for layer in range(serve_model.config.n_layers)],
        )
        _assert_same_as_reference(serve_model, prompt, prefix=prefix)

    def test_the_cut_is_taken(self, serve_model, monkeypatch):
        """The last layer mixes one dense chunk and a non-final chunk skips it."""
        rows = []
        real_ffn = TransformerModel.ffn

        def ffn(self, layer_idx, hidden):
            rows.append((layer_idx, hidden.shape[0]))
            return real_ffn(self, layer_idx, hidden)

        monkeypatch.setattr(TransformerModel, "ffn", ffn)
        last = serve_model.config.n_layers - 1
        _prefill(serve_model, _prompt(serve_model, 600, 3), EngineCore.prefill_chunk)
        assert [count for layer, count in rows if layer == last] == [88]
        rows.clear()
        _prefill(serve_model, _prompt(serve_model, 600, 3), EngineCore.prefill_chunk, chunk=300)
        assert [count for layer, count in rows if layer == last] == [44]


# ----------------------------------------------------------------------
# k-means: the batched update against the per-head loop
# ----------------------------------------------------------------------
def _assert_batch_matches_per_head(keys, n_clusters, metric, max_iters, seed=5):
    batch = kmeans_cluster_batch(keys, n_clusters, metric=metric, max_iters=max_iters, seed=seed)
    for head, result in enumerate(batch):
        solo = kmeans_cluster(
            keys[head], n_clusters, metric=metric, max_iters=max_iters, seed=seed + head
        )
        assert result.labels.tobytes() == solo.labels.tobytes()
        assert result.centroids.tobytes() == solo.centroids.tobytes()
        assert (result.n_iters, result.converged) == (solo.n_iters, solo.converged)
    return batch


@pytest.mark.parametrize("metric", ["cosine", "l2", "ip"])
class TestKMeansBatch:
    def test_all_heads_live(self, metric, rng):
        """Three iterations on 2,000 keys: no head settles, every update is whole."""
        keys = rng.normal(size=(4, 2000, 16))
        batch = _assert_batch_matches_per_head(keys, 25, metric, max_iters=3)
        assert not any(result.converged for result in batch)

    def test_heads_converge_at_different_iterations(self, metric, rng):
        keys = rng.normal(size=(6, 300, 8))
        keys[::2] *= 0.1  # scaled heads keep their own cluster geometry
        batch = _assert_batch_matches_per_head(keys, 6, metric, max_iters=40)
        assert len({result.n_iters for result in batch}) > 1
        assert all(result.converged for result in batch)

    def test_empty_cluster_repair(self, metric, rng, monkeypatch):
        """Heads of mostly repeated keys lose clusters; only they are repaired."""
        keys = rng.normal(size=(4, 60, 8))
        keys[1, 4:] = keys[1, 0]
        keys[3, 6:] = keys[3, 1]
        repaired = []
        real_repair = clustering._repair_empty_clusters

        def repair(head_keys, labels, centroids, metric):
            counts = np.bincount(labels, minlength=centroids.shape[0])
            repaired.append(bool((counts == 0).any()))
            return real_repair(head_keys, labels, centroids, metric)

        monkeypatch.setattr(clustering, "_repair_empty_clusters", repair)
        kmeans_cluster_batch(keys, 8, metric=metric, max_iters=20, seed=5)
        monkeypatch.undo()
        assert repaired and all(repaired)  # called for heads with an empty cluster only
        _assert_batch_matches_per_head(keys, 8, metric, max_iters=20)
