"""A prefix-cache hit, piece by piece, against the code paths it replaced.

A hit adopts cached KV blocks and cached ClusterKV segments instead of
recomputing them.  Two of its steps are written for cost, not clarity:

* **attach** copies each matched block once, straight into the request's
  KV store (``EngineCore.attach_prefix`` → ``KVCacheStore.append_blocks``),
  where it used to concatenate a layer's blocks and then append the
  concatenation;
* **segment adoption** appends every restored (and computed) prefill
  segment to ``ClusterMetadata`` in one append per head, where it used to
  append segment by segment.

Every test here runs the old spelling beside the new one and demands the
same bytes: KV buffers, transfer-ledger events, spill pages, cluster
metadata, exported prefix state and checkpoints.
"""

import pickle

import numpy as np
import pytest

from repro.capacity.spill import HostSpillManager
from repro.core.clusterkv import ClusterKVLayerState
from repro.memory import OffloadManager
from repro.model import EngineCore, GenerationConfig, SequenceState, TransformerModel, get_model_config
from repro.perf import count_ops
from repro.policies import build_policy
from repro.prefixcache import PrefixCacheConfig, RadixPrefixCache
from repro.serving import BatchedEngine, SchedulerConfig

BLOCK = 16
CLUSTERKV = "clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4"
SEGMENTED = CLUSTERKV + ",prefill_segment_tokens=16"


@pytest.fixture(scope="module")
def tiny_model():
    return TransformerModel(get_model_config("tiny"))


def generation() -> GenerationConfig:
    return GenerationConfig(
        budget=24, num_full_layers=1, num_sink_tokens=4, max_new_tokens=6, seed=3
    )


def concat_attach(core, seq, prompt_ids, layer_blocks) -> None:
    """The attach this path replaced: concatenate each layer's blocks, then append."""
    attached = sum(keys.shape[1] for keys, _ in layer_blocks[0])
    seq.prefilled = True
    seq.result.prompt_length = len(prompt_ids)
    seq.result.cached_prefix_tokens = attached
    for layer_idx, blocks in enumerate(layer_blocks):
        seq.kv_store.append(
            layer_idx,
            np.concatenate([keys for keys, _ in blocks], axis=1),
            np.concatenate([values for _, values in blocks], axis=1),
            step=-1,
        )
    if seq.copy_head is not None:
        seq.copy_head.ingest(np.asarray(prompt_ids)[:attached])
    seq.position = attached


def kv_bytes(seq) -> list[tuple[int, bytes]]:
    """Every layer's whole buffer (capacity included) and logical length."""
    return [(len(layer), layer._kv.tobytes()) for layer in seq.kv_store.layers]


def donor_and_match(model, policy, prompt, question):
    """Prefill ``prompt`` once, cache it, and match ``question`` against the cache."""
    core = EngineCore(model, generation())
    donor = SequenceState(model, build_policy(policy), generation(), OffloadManager())
    core.prefill_chunk(donor, prompt, 0, len(prompt))
    cache = RadixPrefixCache(PrefixCacheConfig(block_tokens=BLOCK))
    n_layers = model.config.n_layers
    cache.insert(
        prompt,
        [(donor.kv_store.keys(l), donor.kv_store.values(l)) for l in range(n_layers)],
    )
    match = cache.match(question)
    assert match is not None and match.num_blocks > 1
    return core, donor, match


class TestBlockwiseAttach:
    def test_matches_concatenate_then_append(self, tiny_model):
        """KV bytes, ledger events and the served tokens agree with the old attach."""
        vocab = tiny_model.config.vocab_size
        rng = np.random.default_rng(4)
        prompt = rng.integers(0, vocab, 80)
        question = np.concatenate([prompt[:70], rng.integers(0, vocab, 9)])
        core, _, match = donor_and_match(tiny_model, CLUSTERKV, prompt, question)
        runs = []
        for attach in (core.attach_prefix, lambda s, p, b: concat_attach(core, s, p, b)):
            offload = OffloadManager()
            seq = SequenceState(tiny_model, build_policy(CLUSTERKV), generation(), offload)
            attach(seq, question, match.layer_blocks())
            attached = (kv_bytes(seq), list(offload.ledger.events), seq.position)
            distribution = core.prefill_chunk(seq, question, seq.position, len(question))
            token = core.pick_token(seq, distribution)
            core.record_output(seq, token, distribution)
            for step in range(4):
                distribution = core.decode_step_batch([seq], [token], [step])[0]
                token = core.pick_token(seq, distribution)
                core.record_output(seq, token, distribution)
            result = core.finalise(seq)
            runs.append(
                attached
                + (kv_bytes(seq), list(offload.ledger.events), result.output_ids,
                   result.output_logprobs, result.cached_prefix_tokens)
            )
        assert runs[0][0][0][0] == 64 and runs[0][1]  # 4 blocks attached, offload charged
        assert runs[0] == runs[1]

    def test_matches_under_a_spill_pager_that_must_make_room(self, tiny_model):
        """A host tier too small for the attach spills the same pages either way."""
        vocab = tiny_model.config.vocab_size
        rng = np.random.default_rng(8)
        prompt = rng.integers(0, vocab, 96)
        question = np.concatenate([prompt[:80], rng.integers(0, vocab, 5)])
        core, _, match = donor_and_match(tiny_model, CLUSTERKV, prompt, question)
        n_layers = tiny_model.config.n_layers
        runs = []
        for blockwise in (True, False):
            offload = OffloadManager()
            spill = HostSpillManager(offload, page_tokens=8)
            holder = SequenceState(
                tiny_model, build_policy(CLUSTERKV), generation(), offload, buffer_prefix="a/"
            )
            core.prefill_chunk(holder, prompt, 0, len(prompt))
            spill.manage("a", holder.kv_store, tuple(range(n_layers)))
            seq = SequenceState(
                tiny_model, build_policy(CLUSTERKV), generation(), offload, buffer_prefix="b/"
            )
            spill.manage("b", seq.kv_store, tuple(range(n_layers)))
            # Room for the holder plus half the attach: make_room must spill.
            token_bytes = seq.kv_store.token_nbytes()
            offload.cpu.capacity_bytes = offload.cpu.used_bytes + 40 * n_layers * token_bytes
            if blockwise:
                core.attach_prefix(seq, question, match.layer_blocks())
            else:
                concat_attach(core, seq, question, match.layer_blocks())
            runs.append(
                (
                    kv_bytes(holder),
                    kv_bytes(seq),
                    list(offload.ledger.events),
                    offload.cpu.used_bytes,
                    offload.ssd.used_bytes,
                    {key: page.payload for key, page in spill._spilled.items()},
                    spill.stats(),
                )
            )
        assert runs[0][6]["spill_events"] > 0
        assert runs[0] == runs[1]

    def test_attached_tokens_counter_and_engine_outputs(self, tiny_model, monkeypatch):
        """Served end to end, the old attach and the new one are indistinguishable."""
        vocab = tiny_model.config.vocab_size
        rng = np.random.default_rng(2)
        preamble = rng.integers(0, vocab, 48)
        prompts = [np.concatenate([preamble, rng.integers(0, vocab, 17 + k)]) for k in range(3)]

        def serve():
            engine = BatchedEngine(
                tiny_model,
                selector=SEGMENTED,
                generation_config=generation(),
                scheduler_config=SchedulerConfig(
                    max_batch_size=4,
                    max_prefills_per_step=1,
                    prefix_cache_tokens=4096,
                    prefix_block_tokens=BLOCK,
                ),
            )
            for prompt in prompts:
                engine.submit(prompt)
            with count_ops() as ops:
                report = engine.run()
            results = {
                rid: (r.output_ids, r.output_logprobs, r.cached_prefix_tokens)
                for rid, r in report.results().items()
            }
            return results, ops.as_dict(), list(engine.offload.ledger.events)

        blockwise = serve()
        monkeypatch.setattr(
            EngineCore,
            "attach_prefix",
            lambda core, seq, prompt, blocks: concat_attach(core, seq, prompt, blocks),
        )
        concatenated = serve()
        assert blockwise == concatenated
        attached = sum(cached for _, _, cached in blockwise[0].values())
        assert attached == 96
        assert blockwise[1]["prefix_cache.attached_tokens"] == attached

    def test_layers_of_unequal_length_raise(self, tiny_model):
        vocab = tiny_model.config.vocab_size
        prompt = np.random.default_rng(1).integers(0, vocab, 64)
        core, _, match = donor_and_match(tiny_model, CLUSTERKV, prompt, prompt)
        blocks = [list(layer) for layer in match.layer_blocks()]
        blocks[1] = blocks[1][:-1]
        seq = SequenceState(tiny_model, build_policy(CLUSTERKV), generation(), OffloadManager())
        with pytest.raises(ValueError, match="different attached lengths"):
            core.attach_prefix(seq, prompt, blocks)
        assert not seq.prefilled and seq.kv_store.context_length() == 0


# ----------------------------------------------------------------------
# segment adoption
# ----------------------------------------------------------------------
_APPEND_CLUSTERINGS = ClusterKVLayerState._append_clusterings


def append_run_by_run(state, runs) -> None:
    """One metadata append per head for each run, as segments used to be appended."""
    for run in runs:
        _APPEND_CLUSTERINGS(state, [run])


class PerSegmentState(ClusterKVLayerState):
    """ClusterKV appending its clustering runs one at a time."""

    _append_clusterings = append_run_by_run


SEGMENT = 32
SINKS = 4


def layer_state(cls, trim_policy):
    config = build_policy(
        f"clusterkv:tokens_per_cluster=8,num_sink_tokens={SINKS},"
        f"prefill_segment_tokens={SEGMENT},trim_policy={trim_policy}"
    ).config
    return cls(2, 2, 8, config)


def metadata_arrays(state) -> list[np.ndarray]:
    arrays = []
    for meta in state.metadata:
        arrays += [
            meta.centroids,
            meta.centroid_norms,
            meta.cluster_sizes,
            meta.prefix_sum,
            meta.sorted_indices,
        ]
        if meta._affinity is not None:
            arrays.append(meta._affinity)
    return arrays


def select_rows(state, seed) -> list[np.ndarray]:
    queries = np.random.default_rng(seed).normal(size=(3, 2, 2, 8))
    return [np.asarray(state.select(q, 40, step)) for step, q in enumerate(queries)]


class TestOneAppendAdoption:
    @pytest.mark.parametrize("trim_policy", ["order", "centroid"])
    @pytest.mark.parametrize(
        "length,restored",
        [
            (SINKS + 4 * SEGMENT, (0, 1, 2, 3)),  # every segment restored
            (SINKS + 4 * SEGMENT + 19, (0, 1)),  # restored, then computed
            (SINKS + 4 * SEGMENT, (0, 2, 3)),  # restored, missing, restored
        ],
    )
    def test_matches_per_segment_appends(self, trim_policy, length, restored):
        rng = np.random.default_rng(length)
        keys = rng.normal(size=(2, length, 8))
        donor = layer_state(ClusterKVLayerState, trim_policy)
        donor.observe_prefill(keys)
        exported = donor.export_prefix_state(length)
        spans = sorted(exported)
        segments = {spans[i]: exported[spans[i]] for i in restored}
        states = []
        for cls in (ClusterKVLayerState, PerSegmentState):
            state = layer_state(cls, trim_policy)
            state.restore_prefix_state(segments)
            state.observe_prefill(keys)
            states.append(state)
        one, per_segment = states
        assert len(metadata_arrays(one)) == (12 if trim_policy == "centroid" else 10)
        for a, b in zip(metadata_arrays(one), metadata_arrays(per_segment)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert pickle.dumps(one.export_prefix_state(length)) == pickle.dumps(
            per_segment.export_prefix_state(length)
        )
        assert pickle.dumps(one.export_state()) == pickle.dumps(per_segment.export_state())
        assert one.stats == per_segment.stats
        # Adoption is exact: the same structures as clustering from scratch.
        for a, b in zip(metadata_arrays(one), metadata_arrays(donor)):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(select_rows(one, 1), select_rows(per_segment, 1)):
            assert np.array_equal(a, b)

    def test_engine_checkpoints_match_per_segment_appends(self, tiny_model, monkeypatch):
        """A served hit's checkpoint pickles to the same bytes either way."""
        vocab = tiny_model.config.vocab_size
        rng = np.random.default_rng(6)
        preamble = rng.integers(0, vocab, 64)
        prompts = [np.concatenate([preamble, rng.integers(0, vocab, 13)]) for _ in range(2)]

        def checkpoint_bytes():
            engine = BatchedEngine(
                tiny_model,
                selector=SEGMENTED,
                generation_config=generation(),
                scheduler_config=SchedulerConfig(
                    max_batch_size=2,
                    max_prefills_per_step=1,
                    prefix_cache_tokens=4096,
                    prefix_block_tokens=BLOCK,
                ),
            )
            engine.submit(prompts[0], request_id="leader")
            engine.run()
            engine.submit(prompts[1], request_id="hit")
            for _ in range(3):
                engine.step()
            assert engine.prefix_cache_stats()["hits"] == 1
            return pickle.dumps(engine.checkpoint_request("hit"))

        one = checkpoint_bytes()
        monkeypatch.setattr(ClusterKVLayerState, "_append_clusterings", append_run_by_run)
        assert one == checkpoint_bytes()
