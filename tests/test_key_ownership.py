"""The KV store owns the keys: selectors keep no hidden copy and never read a spilled page.

* Under a host budget that really spills to SSD, ClusterKV — decode-time
  clustering included — decodes exactly the tokens of the unbounded run.
* While a spill pager is attached, every host-resident selector is handed
  ``keys=None``; without one it is handed the store's own view.
* No registered policy's exported state holds a key history: after a
  600-token prefill, no array in ``export_state()`` has ``head_dim``
  columns and 600 or more rows.
"""

from collections import deque

import numpy as np
import pytest

from repro.api import EngineSpec, Session
from repro.baselines.infinigen import InfiniGenLayerState
from repro.core.clusterkv import ClusterKVLayerState
from repro.memory import OffloadManager, TransferDirection
from repro.model import (
    EngineCore,
    GenerationConfig,
    SequenceState,
    TransformerModel,
    get_model_config,
)
from repro.policies import available_policies, build_policy

# Tight enough that a 192-token x 3-request burst fits only by spilling.
TIERS = "gpu=320KiB,host=448KiB,ssd=4MiB"
CLUSTERKV = "clusterkv:tokens_per_cluster=32,decode_window=8,decode_clusters=2,num_sink_tokens=8"


def serve_burst(tiers: str | None, policy: str = CLUSTERKV) -> Session:
    """Three 192-token requests, 16 new tokens each."""
    session = Session(
        EngineSpec(
            model="serve-sim",
            policy=policy,
            budget=48,
            max_new_tokens=16,
            num_full_layers=1,
            num_sink_tokens=8,
            max_batch_size=3,
            max_prefills_per_step=3,
            tiers=tiers,
        )
    )
    rng = np.random.default_rng([0, 192, 3])
    for index in range(3):
        session.submit(rng.integers(4, 2048, size=192), request_id=f"r{index}")
    session.run()
    return session


def record_select_keys(monkeypatch, cls) -> list:
    """Record the ``keys`` argument of every ``cls.select`` call."""
    seen: list = []
    original = cls.select

    def select(self, queries, budget, step, keys=None):
        seen.append(keys)
        return original(self, queries, budget, step, keys)

    monkeypatch.setattr(cls, "select", select)
    return seen


class TestSpillSafety:
    def test_decode_clustering_under_spill_matches_unbounded(self, monkeypatch):
        windows = [0]
        original = ClusterKVLayerState._cluster_pending_window

        def counting(self):
            windows[0] += 1
            return original(self)

        monkeypatch.setattr(ClusterKVLayerState, "_cluster_pending_window", counting)
        bounded = serve_burst(TIERS)
        ledger = bounded.engine.offload.ledger
        assert ledger.total_bytes(TransferDirection.HOST_TO_SSD) > 0
        assert windows[0] > 0
        unbounded = serve_burst(None)
        for rid, result in unbounded.results().items():
            assert bounded.results()[rid].output_ids == result.output_ids
            assert bounded.results()[rid].output_logprobs == result.output_logprobs

    @pytest.mark.parametrize(
        "policy, state_cls",
        [(CLUSTERKV, ClusterKVLayerState), ("infinigen", InfiniGenLayerState)],
    )
    def test_pager_withholds_keys(self, monkeypatch, policy, state_cls):
        seen = record_select_keys(monkeypatch, state_cls)
        session = serve_burst(TIERS, policy)
        assert session.engine.spill.stats()["spill_events"] > 0
        assert seen and all(keys is None for keys in seen)

    def test_store_view_without_pager(self, monkeypatch):
        """Unbounded, the selector gets the store's buffer itself, read-only."""
        seen = record_select_keys(monkeypatch, ClusterKVLayerState)
        serve_burst(None)
        assert seen
        for keys in seen:
            assert keys is not None and not keys.flags.owndata
            assert not keys.flags.writeable


def _arrays(obj, seen: set[int]):
    """Every NumPy array reachable from ``obj``."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset, deque)):
        for value in obj:
            yield from _arrays(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), seen)


@pytest.fixture(scope="module")
def tiny_model() -> TransformerModel:
    """The pointer-head model: its copy state is checked too."""
    return TransformerModel(get_model_config("tiny"))


@pytest.mark.parametrize("policy", sorted(available_policies()))
def test_exported_state_holds_no_key_history(tiny_model, policy):
    generation = GenerationConfig(
        budget=64, num_full_layers=1, num_sink_tokens=4, max_new_tokens=9
    )
    core = EngineCore(tiny_model, generation)
    seq = SequenceState(tiny_model, build_policy(policy), generation, OffloadManager())
    prompt = np.random.default_rng(3).integers(4, tiny_model.config.vocab_size, 600)
    token = core.pick_token(seq, core.prefill(seq, prompt))
    for step in range(8):
        token = core.pick_token(seq, core.decode_step_batch([seq], [token], [step])[0])
    states = [state for state in seq.layer_states if state is not None]
    states.append(seq.copy_state)
    for state in states:
        for array in _arrays(state.export_state(), set()):
            rows = array.size // array.shape[-1] if array.ndim >= 2 else 0
            assert not (array.shape[-1] == state.head_dim and rows >= 600), (
                f"{type(state).__name__} exports a {array.shape} key copy"
            )
