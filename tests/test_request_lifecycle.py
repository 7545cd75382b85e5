"""The batched engine's request lifecycle: one way in, one way out.

An admitted request enters the active set through one path (admission or
:meth:`BatchedEngine.restore_request`) and leaves through one path
(retirement or ``checkpoint_request(keep=False)``).  These tests hold the
engine's public accounting to that over a composition of every feature
that holds per-request resources — the KV budget reservation, capacity
tiers' GPU staging and SSD paging, the prefix cache's block references and
preemption's checkpoints — and check the doors that refuse a request
before it can take any of them.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import FullKVSelector
from repro.memory import TierBudgets
from repro.model import GenerationConfig
from repro.serving import BatchedEngine, SchedulerConfig

CLUSTERKV = "clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4"


def _referenced_blocks(cache) -> int:
    """Prefix-cache nodes some request still holds a reference on."""
    held = 0
    stack = list(cache._root.children.values())
    while stack:
        node = stack.pop()
        held += node.refcount > 0
        stack.extend(node.children.values())
    return held


class TestComposedLifecycle:
    """Prefix cache, capacity tiers and preemption in one run."""

    def _engine(self, model, features: bool) -> BatchedEngine:
        kv_per_token = model.config.kv_bytes_per_token()
        scheduler = SchedulerConfig(
            max_batch_size=2,
            kv_budget_bytes=200 * kv_per_token if features else None,
            prefill_chunk_tokens=16,
            prefix_cache_tokens=256 if features else None,
            prefix_block_tokens=8,
            preemption=features,
        )
        # Host tight enough that the pager spills clusters to SSD.
        tiers = (
            TierBudgets.parse("gpu=64KiB,host=12KiB,ssd=1MiB", spill_page_tokens=4)
            if features
            else None
        )
        generation = GenerationConfig(
            budget=24, max_new_tokens=8, num_full_layers=1, num_sink_tokens=4
        )
        return BatchedEngine(model, CLUSTERKV, generation, scheduler, tiers=tiers)

    def _serve(self, engine: BatchedEngine, after_step=None) -> dict[str, list[int]]:
        """Batch-class work first, then interactive arrivals that preempt it."""
        vocab = engine.model.config.vocab_size
        rng = np.random.default_rng(0)
        preamble = rng.integers(4, vocab, size=32)

        def prompt(suffix: int) -> np.ndarray:
            return np.concatenate([preamble, rng.integers(4, vocab, size=suffix)])

        for i in range(3):
            engine.submit(
                prompt(20 + i),
                request_id=f"batch{i}",
                slo_class="batch",
                # A GPU-resident policy, which stages nothing, in the mix.
                policy="full" if i == 1 else None,
            )
        arrivals = {2: ["chat0"], 4: ["chat1", "chat2"]}
        outputs: dict[str, list[int]] = {}
        step = 0
        while engine.queue or engine.num_active or engine.num_preempted or step < 5:
            for request_id in arrivals.get(step, []):
                engine.submit(prompt(10), request_id=request_id)
            for done in engine.step():
                outputs[done.request.request_id] = list(done.result.output_ids)
            if after_step is not None:
                after_step(engine)
            step += 1
        return outputs

    def test_reservations_and_buffers_are_conserved(self, tiny_model):
        engine = self._engine(tiny_model, features=True)
        kv_per_token = tiny_model.config.kv_bytes_per_token()
        default_new = engine.generation_config.max_new_tokens
        seen = {"spilled": 0, "staged": 0}

        def check(engine: BatchedEngine) -> None:
            projections = sum(
                engine.scheduler.projected_bytes(
                    request.prompt_length(), request.max_new_tokens, kv_per_token, default_new
                )
                for request, _ in engine.snapshot().active
            )
            assert engine.reserved_kv_bytes() == projections
            engine.check_memory_invariants()
            seen["spilled"] += engine.last_step_trace.spilled_tokens
            seen["staged"] = max(
                seen["staged"],
                sum(
                    engine.offload.gpu.has_allocation(f"{request_id}/staging")
                    for request_id in engine.active_request_ids
                ),
            )

        outputs = self._serve(engine, after_step=check)
        # Every feature really took part.
        assert engine.num_preemptions_total > 0
        assert engine.prefix_cache_stats()["hits"] > 0
        assert seen["spilled"] > 0
        assert seen["staged"] > 0
        # Drained: nothing reserved, staged, registered or referenced.
        assert sorted(outputs) == ["batch0", "batch1", "batch2", "chat0", "chat1", "chat2"]
        assert engine.reserved_kv_bytes() == 0
        assert engine.check_memory_invariants() == {"gpu": 0, "cpu": 0, "ssd": 0}
        assert _referenced_blocks(engine.prefix_cache) == 0
        # The features move resources, never tokens.
        assert outputs == self._serve(self._engine(tiny_model, features=False))


class TestRefusedAtTheDoor:
    """Requests the model cannot run are refused before an id is issued."""

    @pytest.mark.parametrize("bad_token", [99999, 128, -1])
    def test_out_of_vocabulary_prompt(self, tiny_model, short_prompt, bad_token):
        engine = BatchedEngine(tiny_model, FullKVSelector(), GenerationConfig(max_new_tokens=3))
        engine.submit(short_prompt, request_id="good")
        with pytest.raises(ValueError, match="outside the vocabulary"):
            engine.submit([5, bad_token, 3], request_id="bad")
        assert len(engine.queue) == 1
        report = engine.run()
        # The valid request in the same batch still completes ...
        assert list(report.results()) == ["good"]
        assert len(report.results()["good"].output_ids) == 3
        # ... and the refused id was never issued.
        engine.submit([5, 6, 3], request_id="bad")

    def test_negative_arrival(self, tiny_model, short_prompt):
        engine = BatchedEngine(tiny_model, FullKVSelector(), GenerationConfig(max_new_tokens=3))
        for request_id in ("early", None):
            with pytest.raises(ValueError, match="arrival_time_s must be non-negative"):
                engine.submit(short_prompt, request_id=request_id, arrival_time_s=-0.5)
        assert len(engine.queue) == 0
        # Neither the explicit nor the automatic id, nor an arrival order, was issued.
        first = engine.submit(short_prompt)
        second = engine.submit(short_prompt, request_id="early")
        assert (first.request_id, first.arrival_order) == ("req-0", 0)
        assert (second.request_id, second.arrival_order) == ("early", 1)

    def test_restore_rejects_checkpoint_without_identity(self, tiny_model, short_prompt):
        source = BatchedEngine(tiny_model, FullKVSelector(), GenerationConfig(max_new_tokens=4))
        source.submit(short_prompt, request_id="moving")
        source.step()
        checkpoint = source.checkpoint_request("moving")
        target = BatchedEngine(tiny_model, FullKVSelector(), GenerationConfig(max_new_tokens=4))
        broken = dataclasses.replace(checkpoint, request=None)
        with pytest.raises(ValueError, match="no request identity"):
            target.restore_request(broken)
        assert target.num_active == 0
        assert target.reserved_kv_bytes() == 0
        # The intact checkpoint still restores and finishes.
        target.restore_request(checkpoint)
        assert list(target.run().results()) == ["moving"]
