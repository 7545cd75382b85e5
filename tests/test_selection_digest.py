"""Selection digests: every selector's per-step choices, pinned byte for byte.

Each registered policy (plus ClusterKV's centroid trim and a decode window
short enough that decode-time clustering runs) serves two requests on the
``tiny`` model (pointer head on) and on ``serve-sim``: max batch 2, chunked
prefill at 64 tokens, and the second request attached to the first one's
prompt through the prefix cache.  Every ``LayerSelectorState.select`` call
is recorded as ``(layer, step, head, indices)`` and hashed together with
the emitted tokens and log-probabilities.

A refactor of the selector protocol, the KV layout or the gather must
leave these digests unchanged: a changed digest means some head attended
a different token set at some step.  The prompts stay below the prefill
lane threshold, so the digests do not depend on the CPU count.

The same scenario also pins each request's merged ``SelectorStats`` and
cluster-cache hit rate: the digests hash only indices, tokens and
log-probabilities, and a batched selector must not change any FLOP, byte
or cache count either.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.model import GenerationConfig, TransformerModel, get_model_config
from repro.policies import available_policies, build_policy
from repro.serving import BatchedEngine, SchedulerConfig

POLICIES = tuple(sorted(available_policies())) + (
    "clusterkv:trim_policy=centroid",
    "clusterkv:decode_window=8",
)
MODELS = ("tiny", "serve-sim")

DIGESTS: dict[tuple[str, str], str] = {
    ("clusterkv", "tiny"): "333467b3c6a9a34770500279515e6d6dbd131437f06659938fba5bb2720b1c42",
    ("clusterkv", "serve-sim"): "09a86ba77ddc0f248a1f5eb723bd00ee217c06bf3aa78d87d1eecb8b93f732fc",
    ("full", "tiny"): "93dd15874d39db0b56b8f094ad0076da9a278a7e5140874a03adc0e1dad2f988",
    ("full", "serve-sim"): "f40931a2d016ada65d9bd9617f588f6d06e57b32f6df3610d2a8a231294339b0",
    ("h2o", "tiny"): "36654dd1349b4bc67acb180a46f4b8c2a2a35aadd37275bc7953d80a3a7f8ee3",
    ("h2o", "serve-sim"): "3bc57a4a75dad195812725d2001da86755bf2be15a7772d3b22e63b2558b28da",
    ("infinigen", "tiny"): "49ad595eb0b580c6cb169e2470965f903748e75e851953027807eff7c0efc259",
    ("infinigen", "serve-sim"): "d38daacfb484942376a34f53fbd806bd8929e55731ed817633714efd0e7819fc",
    ("oracle", "tiny"): "a49815c2937350745335bd5ad535a2380545a57e7389e07c8cf99359a0412aae",
    ("oracle", "serve-sim"): "67f66f9cc77020f39c09565409eb5bcb49d84112ada4addf4a850f9c139cb20d",
    ("quest", "tiny"): "d69d2328fc20e938af40cdf7adfb0f10ee3452e8ad0bd6140207d4b6edf593f7",
    ("quest", "serve-sim"): "6cfcdd02afeeac921a15c138ee94d4bce28dbefd10ec686a1ced2399531f3356",
    ("streaming_llm", "tiny"): "3073fa006e888071e2f3aef4f5bf59baff23bfc4686de1e39f53ef0f5478cfbb",
    ("streaming_llm", "serve-sim"): "160d1752d5bcf2d0247f0257d0fda54cadc6afeabc34b237128ceeeb8566b3f1",
    ("clusterkv:trim_policy=centroid", "tiny"): (
        "a6bb9923f2e57b21096e28dd5d4ceaa8a39a1a27e1da96b9cabdeeef0dffc515"
    ),
    ("clusterkv:trim_policy=centroid", "serve-sim"): (
        "a7aa745cad3d027dc4da50c33cd6826f8478e2823d23c7c8f7ac8f01252e44b2"
    ),
    ("clusterkv:decode_window=8", "tiny"): (
        "c667fed569ebf9c276e6d6c3f067798f993d46211793914bd4d9c31fca5ab188"
    ),
    ("clusterkv:decode_window=8", "serve-sim"): (
        "e41d01d03ecb47fb8e6e1847e7f3b4c86f90fe04361cbcf11842895233c5e70e"
    ),
}


# Per request ("a", "b"): the merged SelectorStats fields in declaration
# order (score_flops, build_flops, selected_tokens, fetched_tokens,
# cache_hit_tokens, cache_miss_tokens, num_selections, aux_bytes), then
# GenerationResult.cache_hit_rate.
STATS: dict[tuple[str, str], tuple] = {
    ("clusterkv", "tiny"): (
        (8448, 2878848, 1760, 909, 301, 909, 33, 5958, 0.2527548209366391),
        (8448, 1822080, 1760, 776, 434, 776, 33, 6118, 0.3780991735537191),
    ),
    ("clusterkv", "serve-sim"): (
        (12672, 3943296, 4224, 2009, 895, 2009, 33, 13608, 0.3081955922865014),
        (12672, 3594240, 4224, 2145, 759, 2145, 33, 13992, 0.2613636363636364),
    ),
    ("full", "tiny"): (
        (0, 0, 14410, 0, 0, 0, 33, 0, 0.0),
        (0, 0, 14850, 0, 0, 0, 33, 0, 0.0),
    ),
    ("full", "serve-sim"): (
        (0, 0, 34584, 0, 0, 0, 33, 0, 0.0),
        (0, 0, 35640, 0, 0, 0, 33, 0, 0.0),
    ),
    ("h2o", "tiny"): (
        (150272, 0, 1760, 0, 0, 0, 33, 0, 0.0),
        (152320, 0, 1760, 0, 0, 0, 33, 0, 0.0),
    ),
    ("h2o", "serve-sim"): (
        (225408, 0, 4224, 0, 0, 0, 33, 0, 0.0),
        (228480, 0, 4224, 0, 0, 0, 33, 0, 0.0),
    ),
    ("infinigen", "tiny"): (
        (212608, 1994240, 1760, 1760, 0, 0, 33, 17088, 0.0),
        (218240, 2055680, 1760, 1760, 0, 0, 33, 17600, 0.0),
    ),
    ("infinigen", "serve-sim"): (
        (293568, 1196544, 4224, 4224, 0, 0, 33, 25632, 0.0),
        (302016, 1233408, 4224, 4224, 0, 0, 33, 26400, 0.0),
    ),
    ("oracle", "tiny"): (
        (737792, 0, 1760, 0, 0, 0, 33, 0, 0.0),
        (760320, 0, 1760, 0, 0, 0, 33, 0, 0.0),
    ),
    ("oracle", "serve-sim"): (
        (1106688, 0, 4224, 0, 0, 0, 33, 0, 0.0),
        (1140480, 0, 4224, 0, 0, 0, 33, 0, 0.0),
    ),
    ("quest", "tiny"): (
        (95744, 68352, 1210, 0, 0, 0, 33, 8704, 0.0),
        (97280, 70400, 1410, 0, 0, 0, 33, 9216, 0.0),
    ),
    ("quest", "serve-sim"): (
        (143616, 102528, 2904, 0, 0, 0, 33, 13056, 0.0),
        (145920, 105600, 3384, 0, 0, 0, 33, 13824, 0.0),
    ),
    ("streaming_llm", "tiny"): (
        (0, 0, 1760, 0, 0, 0, 33, 0, 0.0),
        (0, 0, 1760, 0, 0, 0, 33, 0, 0.0),
    ),
    ("streaming_llm", "serve-sim"): (
        (0, 0, 4224, 0, 0, 0, 33, 0, 0.0),
        (0, 0, 4224, 0, 0, 0, 33, 0, 0.0),
    ),
    ("clusterkv:trim_policy=centroid", "tiny"): (
        (8448, 2878848, 1760, 829, 381, 829, 33, 5958, 0.2892561983471074),
        (8448, 1822080, 1760, 836, 374, 836, 33, 6118, 0.3009641873278237),
    ),
    ("clusterkv:trim_policy=centroid", "serve-sim"): (
        (12672, 3943296, 4224, 1923, 981, 1923, 33, 13608, 0.3378099173553719),
        (12672, 3594240, 4224, 2263, 641, 2263, 33, 13992, 0.22073002754820936),
    ),
    ("clusterkv:decode_window=8", "tiny"): (
        (12544, 2895232, 1760, 1026, 344, 1026, 33, 7342, 0.2542579075425791),
        (12544, 1838464, 1760, 876, 494, 876, 33, 7502, 0.3765206812652068),
    ),
    ("clusterkv:decode_window=8", "serve-sim"): (
        (18816, 3967872, 4224, 2273, 1015, 2273, 33, 16008, 0.30869829683698297),
        (18816, 3618816, 4224, 2367, 921, 2367, 33, 16392, 0.2801094890510949),
    ),
}


@pytest.fixture(scope="module")
def models() -> dict[str, TransformerModel]:
    """One model instance per name, shared by every policy."""
    return {name: TransformerModel(get_model_config(name)) for name in MODELS}


def _state_classes() -> list[type]:
    """The layer-state class of every registered policy."""
    classes = {
        type(build_policy(name).create_layer_state(0, 1, 4, 0))
        for name in available_policies()
    }
    return sorted(classes, key=lambda cls: cls.__name__)


def selection_digest(model: TransformerModel, policy: str, monkeypatch) -> tuple[str, dict]:
    """Serve the two-request scenario and hash every selection it made.

    Returns the digest and the results by request id.
    """
    hasher = hashlib.sha256()
    calls = [0]

    def recording(original):
        def select(self, queries, budget, step, *args, **kwargs):
            selections = original(self, queries, budget, step, *args, **kwargs)
            for head, indices in enumerate(selections):
                header = [self.layer_idx, step, head, len(indices)]
                hasher.update(np.asarray(header, dtype=np.int64).tobytes())
                hasher.update(np.asarray(indices, dtype=np.int64).tobytes())
            calls[0] += 1
            return selections

        return select

    for cls in _state_classes():
        monkeypatch.setattr(cls, "select", recording(cls.select))

    engine = BatchedEngine(
        model,
        policy,
        GenerationConfig(
            budget=32,
            num_full_layers=1,
            num_sink_tokens=4,
            max_new_tokens=12,
        ),
        SchedulerConfig(
            max_batch_size=2,
            prefill_chunk_tokens=64,
            prefix_cache_tokens=1024,
            prefix_block_tokens=32,
        ),
    )
    rng = np.random.default_rng(5)
    vocab = model.config.vocab_size
    first = rng.integers(4, vocab, size=256)
    second = np.concatenate([first[:192], rng.integers(4, vocab, size=72)])
    engine.submit(first, request_id="a")
    for _ in range(4):  # four 64-token chunks: the prompt lands in the cache
        engine.step()
    engine.submit(second, request_id="b")
    results = engine.run().results()
    assert results["b"].cached_prefix_tokens == 192
    assert calls[0] > 0
    for request_id in sorted(results):
        result = results[request_id]
        hasher.update(np.asarray(result.output_ids, dtype=np.int64).tobytes())
        hasher.update(np.asarray(result.output_logprobs, dtype=np.float64).tobytes())
    return hasher.hexdigest(), results


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("policy", POLICIES)
def test_selection_digest_pinned(models, policy, model_name, monkeypatch):
    """Selections, tokens and log-probabilities match the pinned digest.

    Every FLOP, byte, token and cache count matches the pinned stats.
    """
    digest, results = selection_digest(models[model_name], policy, monkeypatch)
    assert digest == DIGESTS[(policy, model_name)]
    observed = tuple(
        dataclasses.astuple(results[request_id].selector_stats)
        + (results[request_id].cache_hit_rate,)
        for request_id in sorted(results)
    )
    assert observed == STATS[(policy, model_name)]
