"""Round-trip property tests of :mod:`repro.seqstate` checkpoints.

The load-bearing guarantee: checkpointing a live sequence at *any* point —
mid-decode, mid-chunk during prefill, after a prefix-cache attach, under
greedy or sampled decoding — and restoring it onto a fresh
:class:`~repro.model.generation.SequenceState` (fresh selector instance,
fresh offload manager, as a migration would use) produces exactly the
tokens and log-probabilities of the uninterrupted run, for every
registered policy on both test models.
"""

import dataclasses

import numpy as np
import pytest

from repro.memory import OffloadManager
from repro.model import (
    EngineCore,
    GenerationConfig,
    SequenceState,
    TransformerModel,
    get_model_config,
)
from repro.policies import available_policies, build_policy
from repro.seqstate import (
    SEQSTATE_VERSION,
    SequenceCheckpoint,
    checkpoint_sequence,
    policy_signature,
    restore_sequence,
)

CLUSTERKV = "clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4"

# Policy spec of every registered method, sized for the tiny test models.
POLICY_SPECS = {
    name: (CLUSTERKV if name == "clusterkv" else name) for name in available_policies()
}


def tiny_generation(greedy: bool = True) -> GenerationConfig:
    """Small-budget generation config shared by the round-trip tests."""
    return GenerationConfig(
        budget=24,
        num_full_layers=1,
        num_sink_tokens=4,
        max_new_tokens=6,
        greedy=greedy,
        seed=3,
    )


def make_prompt(vocab_size: int, length: int = 40, seed: int = 11) -> np.ndarray:
    """Deterministic random prompt."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab_size, length)


def fresh_sequence(model, policy, generation):
    """A new (core, sequence) pair with its own selector and offload."""
    selector = build_policy(policy)
    core = EngineCore(model, generation)
    seq = SequenceState(model, selector, generation, OffloadManager())
    return core, seq


def decode_from(core, seq, token, start_step):
    """Drive decoding from ``start_step`` to completion; returns the result."""
    generation = core.generation_config
    for step in range(start_step, generation.max_new_tokens - 1):
        distribution = core.decode_step_batch([seq], [token], [step])[0]
        token = core.pick_token(seq, distribution)
        core.record_output(seq, token, distribution)
        seq.result.decode_steps += 1
    return core.finalise(seq)


def run_uninterrupted(model, policy, generation, prompt):
    """Baseline: prefill plus a full decode with no checkpoint."""
    core, seq = fresh_sequence(model, policy, generation)
    distribution = core.prefill(seq, prompt)
    token = core.pick_token(seq, distribution)
    core.record_output(seq, token, distribution)
    return decode_from(core, seq, token, 0)


def run_with_checkpoint(model, policy, generation, prompt, stop_step):
    """Decode to ``stop_step``, checkpoint, restore elsewhere, finish there.

    The restore target uses a *fresh* selector instance and a *fresh*
    offload manager — exactly what a migration to another replica does.
    """
    core, seq = fresh_sequence(model, policy, generation)
    distribution = core.prefill(seq, prompt)
    token = core.pick_token(seq, distribution)
    core.record_output(seq, token, distribution)
    for step in range(stop_step):
        distribution = core.decode_step_batch([seq], [token], [step])[0]
        token = core.pick_token(seq, distribution)
        core.record_output(seq, token, distribution)
        seq.result.decode_steps += 1
    checkpoint = core.checkpoint_request(seq)
    seq.release()  # the source is gone, as after a migration or failure

    target_core = EngineCore(model, generation)
    restored = target_core.restore_request(
        checkpoint, build_policy(policy), OffloadManager()
    )
    token = restored.result.output_ids[-1]
    return decode_from(target_core, restored, token, stop_step)


def assert_same_result(expected, actual) -> None:
    """Token- and logprob-identical generation results."""
    assert actual.output_ids == expected.output_ids
    assert actual.output_logprobs == expected.output_logprobs
    assert actual.decode_steps == expected.decode_steps
    assert actual.prompt_length == expected.prompt_length


# ----------------------------------------------------------------------
# the core property: restore == never interrupted
# ----------------------------------------------------------------------


class TestRoundTrip:
    """Checkpoint/restore must be invisible in the outputs."""

    @pytest.mark.parametrize("model_name", ["tiny", "serve-sim"])
    @pytest.mark.parametrize("policy_name", sorted(POLICY_SPECS))
    def test_every_policy_round_trips_bit_identically(self, model_name, policy_name):
        """All registered policies x both models: identical tokens."""
        config = get_model_config(model_name)
        model = TransformerModel(config)
        prompt = make_prompt(config.vocab_size)
        policy = POLICY_SPECS[policy_name]
        generation = tiny_generation()
        expected = run_uninterrupted(model, policy, generation, prompt)
        actual = run_with_checkpoint(model, policy, generation, prompt, stop_step=2)
        assert_same_result(expected, actual)

    @pytest.mark.parametrize("stop_step", range(0, 5))
    def test_checkpoint_at_every_decode_position(self, stop_step):
        """Arbitrary decode positions: every step is a valid checkpoint."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompt = make_prompt(config.vocab_size)
        generation = tiny_generation()
        expected = run_uninterrupted(model, CLUSTERKV, generation, prompt)
        actual = run_with_checkpoint(
            model, CLUSTERKV, generation, prompt, stop_step=stop_step
        )
        assert_same_result(expected, actual)

    @pytest.mark.parametrize("policy_name", ["clusterkv", "full", "infinigen"])
    def test_sampled_decoding_round_trips(self, policy_name):
        """The restored RNG draws exactly the samples the source would have."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompt = make_prompt(config.vocab_size)
        policy = POLICY_SPECS[policy_name]
        generation = tiny_generation(greedy=False)
        expected = run_uninterrupted(model, policy, generation, prompt)
        actual = run_with_checkpoint(model, policy, generation, prompt, stop_step=3)
        assert_same_result(expected, actual)

    @pytest.mark.parametrize("policy_name", ["clusterkv", "infinigen", "quest"])
    def test_snapshot_holds_no_derived_or_spare_storage(self, policy_name):
        """ClusterKV's head stack is left out; growable buffers keep only live rows."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        core, seq = fresh_sequence(model, POLICY_SPECS[policy_name], tiny_generation())
        token = core.pick_token(seq, core.prefill(seq, make_prompt(config.vocab_size)))
        core.decode_step_batch([seq], [token], [0])  # one select has run
        states = [state for state in seq.layer_states if state is not None]
        assert states
        for state in states:
            snapshot = state.export_state()
            if policy_name == "clusterkv":
                assert state._stacked is not None and snapshot["_stacked"] is None
            elif policy_name == "infinigen":
                live = snapshot["_partial_buffer"].shape[1]
                assert live == state.context_length < state._partial_buffer.shape[1]
            else:
                pages = snapshot["_page_max"].shape[0]
                assert pages == snapshot["_page_min"].shape[0] == state.num_pages
                assert pages < state._page_max.shape[0]

    def test_checkpoint_leaves_the_source_sequence_unaffected(self):
        """Checkpointing is a pure read: the source finishes identically."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompt = make_prompt(config.vocab_size)
        generation = tiny_generation(greedy=False)
        expected = run_uninterrupted(model, CLUSTERKV, generation, prompt)

        core, seq = fresh_sequence(model, CLUSTERKV, generation)
        distribution = core.prefill(seq, prompt)
        token = core.pick_token(seq, distribution)
        core.record_output(seq, token, distribution)
        for step in range(2):
            distribution = core.decode_step_batch([seq], [token], [step])[0]
            token = core.pick_token(seq, distribution)
            core.record_output(seq, token, distribution)
            seq.result.decode_steps += 1
        core.checkpoint_request(seq)  # snapshot taken, then ignored
        actual = decode_from(core, seq, token, 2)
        assert_same_result(expected, actual)


# ----------------------------------------------------------------------
# prefill-time checkpoints: mid-chunk and prefix-attached
# ----------------------------------------------------------------------


class TestPrefillCheckpoints:
    """Checkpoints taken before decoding starts restore exactly too."""

    @pytest.mark.parametrize("policy_name", ["clusterkv", "full", "quest"])
    def test_mid_chunk_prefill_round_trips(self, policy_name):
        """A checkpoint between prefill chunks resumes the chunk sequence."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompt = make_prompt(config.vocab_size)
        policy = POLICY_SPECS[policy_name]
        generation = tiny_generation()
        chunks = [(0, 16), (16, 32), (32, len(prompt))]

        def chunked_prefill(core, seq, start_chunk):
            """Run the remaining prefill chunks; returns the distribution."""
            distribution = None
            for start, end in chunks[start_chunk:]:
                distribution = core.prefill_chunk(seq, prompt, start, end)
            assert distribution is not None
            return distribution

        core, seq = fresh_sequence(model, policy, generation)
        distribution = chunked_prefill(core, seq, 0)
        token = core.pick_token(seq, distribution)
        core.record_output(seq, token, distribution)
        expected = decode_from(core, seq, token, 0)

        core, seq = fresh_sequence(model, policy, generation)
        core.prefill_chunk(seq, prompt, *chunks[0])
        checkpoint = core.checkpoint_request(seq)
        seq.release()
        target_core = EngineCore(model, generation)
        restored = target_core.restore_request(
            checkpoint, build_policy(policy), OffloadManager()
        )
        assert restored.position == chunks[0][1] and restored.prefilled
        distribution = chunked_prefill(target_core, restored, 1)
        token = target_core.pick_token(restored, distribution)
        target_core.record_output(restored, token, distribution)
        actual = decode_from(target_core, restored, token, 0)
        assert_same_result(expected, actual)

    def test_prefix_attached_request_round_trips(self):
        """A request running on attached prefix KV checkpoints and restores."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompt = make_prompt(config.vocab_size, length=33)
        attached = 16
        generation = tiny_generation()

        def donor_kv():
            """Prefill the full prompt once; harvest the prefix KV."""
            core, seq = fresh_sequence(model, CLUSTERKV, generation)
            core.prefill(seq, prompt)
            keys = [seq.kv_store.keys(l)[:, :attached, :].copy() for l in range(config.n_layers)]
            values = [seq.kv_store.values(l)[:, :attached, :].copy() for l in range(config.n_layers)]
            seq.release()
            return keys, values

        keys, values = donor_kv()

        def attached_run(checkpoint_at: int | None):
            """Serve the prompt on attached KV, optionally checkpointing."""
            core, seq = fresh_sequence(model, CLUSTERKV, generation)
            core.attach_prefix(seq, prompt, [[(k, v)] for k, v in zip(keys, values)])
            distribution = core.prefill_chunk(seq, prompt, attached, len(prompt))
            token = core.pick_token(seq, distribution)
            core.record_output(seq, token, distribution)
            if checkpoint_at is None:
                return decode_from(core, seq, token, 0)
            for step in range(checkpoint_at):
                distribution = core.decode_step_batch([seq], [token], [step])[0]
                token = core.pick_token(seq, distribution)
                core.record_output(seq, token, distribution)
                seq.result.decode_steps += 1
            checkpoint = core.checkpoint_request(seq)
            seq.release()
            target_core = EngineCore(model, generation)
            restored = target_core.restore_request(
                checkpoint, build_policy(CLUSTERKV), OffloadManager()
            )
            assert restored.result.cached_prefix_tokens == attached
            return decode_from(
                target_core, restored, restored.result.output_ids[-1], checkpoint_at
            )

        expected = attached_run(checkpoint_at=None)
        actual = attached_run(checkpoint_at=2)
        assert_same_result(expected, actual)
        assert actual.cached_prefix_tokens == attached


# ----------------------------------------------------------------------
# validation: incompatible restores are refused
# ----------------------------------------------------------------------


class TestRestoreValidation:
    """Restore refuses anything that would break exactness."""

    def make_checkpoint(self, generation=None) -> tuple:
        """A real mid-decode checkpoint of a tiny clusterkv run."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompt = make_prompt(config.vocab_size)
        generation = generation or tiny_generation()
        core, seq = fresh_sequence(model, CLUSTERKV, generation)
        distribution = core.prefill(seq, prompt)
        token = core.pick_token(seq, distribution)
        core.record_output(seq, token, distribution)
        checkpoint = core.checkpoint_request(seq)
        seq.release()
        return model, generation, checkpoint

    def test_version_mismatch_is_refused(self):
        """A checkpoint from another format version does not restore.

        The previous version (2) snapshotted per-head lists where Quest,
        InfiniGen and H2O now hold head-stacked arrays; restored, it would
        lack the fields selection reads, so it is refused up front.
        """
        model, generation, checkpoint = self.make_checkpoint()
        for version in (SEQSTATE_VERSION - 1, SEQSTATE_VERSION + 1):
            stale = dataclasses.replace(checkpoint, version=version)
            with pytest.raises(ValueError, match=f"version {version} "):
                restore_sequence(
                    model, generation, stale, build_policy(CLUSTERKV), OffloadManager()
                )

    def test_policy_signature_mismatch_is_refused(self):
        """Same policy name, different configuration: refused."""
        model, generation, checkpoint = self.make_checkpoint()
        other = build_policy(
            "clusterkv:tokens_per_cluster=8,decode_window=8,decode_clusters=2,num_sink_tokens=4"
        )
        assert policy_signature(other) != checkpoint.policy_signature
        with pytest.raises(ValueError, match="signature"):
            restore_sequence(model, generation, other_checkpoint := checkpoint, other, OffloadManager())
        assert other_checkpoint is checkpoint

    def test_generation_config_mismatch_is_refused(self):
        """Restoring under a different decoding configuration is refused."""
        model, generation, checkpoint = self.make_checkpoint()
        other = dataclasses.replace(generation, budget=16)
        with pytest.raises(ValueError, match="generation configuration"):
            restore_sequence(
                model, other, checkpoint, build_policy(CLUSTERKV), OffloadManager()
            )

    def test_model_mismatch_is_refused(self):
        """Restoring onto a different model is refused."""
        _, generation, checkpoint = self.make_checkpoint()
        other_model = TransformerModel(get_model_config("serve-sim"))
        with pytest.raises(ValueError, match="model"):
            restore_sequence(
                other_model, generation, checkpoint, build_policy(CLUSTERKV), OffloadManager()
            )

    def test_checkpoint_carries_identity_defaults(self):
        """An engine-level checkpoint carries no request until the serving layer fills it."""
        _, _, checkpoint = self.make_checkpoint()
        assert isinstance(checkpoint, SequenceCheckpoint)
        assert checkpoint.version == SEQSTATE_VERSION
        assert checkpoint.request is None
        assert checkpoint.request_id == ""
        assert checkpoint.tokens_generated == 1
        assert checkpoint.num_tokens == checkpoint.position
        summary = checkpoint.describe()
        assert summary["policy"] == "clusterkv"
        assert summary["tokens_generated"] == 1
