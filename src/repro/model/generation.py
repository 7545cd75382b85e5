"""Inference engine: prefill and decoding with pluggable KV compression.

The engine mirrors the paper's system organisation (paper Fig. 5):

* **Prefill** runs exact causal attention over the prompt, stores the KV
  cache (offloading it to the CPU tier when the active method requires it)
  and lets the selector build its acceleration structure — semantic
  clustering for ClusterKV, page summaries for Quest, partial keys for
  InfiniGen.
* **Decoding** appends the new token's KV, asks the selector for the token
  indices to attend to (respecting the KV cache budget), performs the
  approximate attention, and tracks every byte that has to be moved between
  memory tiers.

The module is split into three layers so that both the single-sequence
:class:`InferenceEngine` and the multi-request
:class:`repro.serving.BatchedEngine` share one numerical code path:

* :class:`SequenceState` — everything that belongs to *one* request: the KV
  cache store, per-layer selector states, the pointer-head state and the
  sampling RNG.
* :class:`EngineCore` — stateless-per-request stepping logic bound to a
  model and a :class:`~repro.model.config.GenerationConfig`.  Its
  :meth:`EngineCore.decode_step_batch` runs one decoding step for ``B``
  sequences at once, batching the per-token transformer blocks (embedding,
  QKV projection, attention output, feed-forward, logits) into single NumPy
  calls while attention and KV selection remain per-request.  With ``B = 1``
  the executed operations are exactly those of the single-sequence path, so
  batched serving at batch size one is bit-identical to this engine.
* :class:`InferenceEngine` — the historical one-request facade used by the
  accuracy and analysis experiments.

The engine also supports teacher-forced scoring (for perplexity evaluation)
and optional recording of exact attention scores so that recall-rate metrics
and the motivation analyses can be computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..baselines.base import KVSelectorFactory, LayerSelectorState, SelectorStats
from ..baselines.full import FullKVSelector
from ..baselines.oracle import top_k_indices
from ..memory import OffloadManager, TransferLedger
from ..perf import counters
from ._lanes import lane_count, run_lanes
from .attention import (
    _softmax_inplace,
    full_causal_attention,
    selected_attention_batch,
)
from .config import GenerationConfig, ModelConfig
from .kv_cache import KVCacheStore
from .pointer import CopyHead
from .sampling import greedy_sample, mix_distributions, temperature_sample
from .tensor_ops import softmax
from .transformer import TransformerModel

# Row chunk of the prefill's dense blocks: bounds a lane's temporaries (the
# (rows, 2 d_ff) gate/up product above all) and is the least a lane must
# have before a second one pays (docs/PERFORMANCE.md § Prefill).
_DENSE_CHUNK_ROWS = 256

__all__ = [
    "RecallRecord",
    "StepAttentionRecord",
    "GenerationResult",
    "SequenceState",
    "EngineCore",
    "InferenceEngine",
]


@dataclass(frozen=True)
class RecallRecord:
    """Recall of the truly important tokens at one (step, layer, head).

    ``recall`` is ``|I_T ∩ I_T^true| / |I_T^true|`` with ``|I_T^true| = B``
    (paper Sec. V-B, "Recall Rate of important tokens").
    """

    step: int
    layer: int
    head: int
    budget: int
    recall: float


@dataclass
class StepAttentionRecord:
    """Attention snapshot of the traced layer at one decoding step."""

    step: int
    layer: int
    selected_indices: list[np.ndarray]
    attention_weights: list[np.ndarray]
    true_scores: list[np.ndarray] | None = None


@dataclass
class GenerationResult:
    """Everything produced by one generation or scoring run."""

    prompt_length: int
    output_ids: list[int] = field(default_factory=list)
    output_logprobs: list[float] = field(default_factory=list)
    target_logprobs: list[float] = field(default_factory=list)
    selector_stats: SelectorStats = field(default_factory=SelectorStats)
    per_layer_stats: dict[int, SelectorStats] = field(default_factory=dict)
    recall_records: list[RecallRecord] = field(default_factory=list)
    attention_trace: list[StepAttentionRecord] = field(default_factory=list)
    # The sequence's transfer ledger when the sequence owns its offload
    # manager (InferenceEngine).  ``None`` for BatchedEngine results: their
    # sequences share the engine's manager, whose ledger covers every
    # request and is read from ServeReport.ledger or offload_stats().
    ledger: TransferLedger | None = None
    cache_hit_rate: float = 0.0
    decode_steps: int = 0
    kv_cache_bytes: int = 0
    method: str = "full"
    method_config: dict[str, object] = field(default_factory=dict)
    # Prompt tokens attached from the cross-request prefix cache instead of
    # being prefilled (0 for a cache miss or a run without the cache).
    cached_prefix_tokens: int = 0
    # Speculative decoding accounting (all 0 for a speculation-off run).
    # ``spec_drafted == spec_accepted + spec_rejected`` in every result; the
    # bonus token sampled from a round's last verified distribution is not a
    # draft and is counted in none of them.
    spec_rounds: int = 0
    spec_drafted_tokens: int = 0
    spec_accepted_tokens: int = 0
    spec_rejected_tokens: int = 0

    def mean_recall(self) -> float:
        """Average recall over all recorded (step, layer, head) triples."""
        if not self.recall_records:
            return 0.0
        return float(np.mean([record.recall for record in self.recall_records]))

    def perplexity(self) -> float:
        """Perplexity of the teacher-forced targets (scoring runs only)."""
        if not self.target_logprobs:
            raise ValueError("no target log-probabilities were recorded")
        return float(np.exp(-np.mean(self.target_logprobs)))


class SequenceState:
    """Per-request decoding state, independent of the engine driving it.

    One instance exists per generation request and owns every piece of
    mutable state the request accumulates: the KV cache of all layers, one
    :class:`~repro.baselines.base.LayerSelectorState` per compressed layer,
    the pointer-head history, the sampling RNG and the
    :class:`GenerationResult` under construction.  The
    :class:`repro.serving.BatchedEngine` keeps many of these alive at once
    and interleaves their decode steps; the single-sequence
    :class:`InferenceEngine` owns exactly one.

    Parameters
    ----------
    model:
        The (shared, immutable) transformer whose weights are used.
    selector:
        KV compression method factory; fresh per-layer states are created
        for this sequence, so one factory instance can serve many requests.
    generation_config:
        Decoding configuration (budget, sinks, sampling, tracing).
    offload:
        Memory-tier manager on which the KV buffers of this sequence are
        registered.  In batched serving this manager is shared by all
        requests, which is what lets the scheduler enforce a *global* KV
        memory budget.
    buffer_prefix:
        Prefix for the names of the KV buffers registered on ``offload``;
        must be unique per live sequence when the manager is shared.
    seed:
        Optional per-request sampling seed; defaults to
        ``generation_config.seed``.
    """

    def __init__(
        self,
        model: TransformerModel,
        selector: KVSelectorFactory,
        generation_config: GenerationConfig,
        offload: OffloadManager,
        buffer_prefix: str = "",
        seed: int | None = None,
    ) -> None:
        config = model.config
        self.selector = selector
        self.offload = offload
        self.rng = np.random.default_rng(
            generation_config.seed if seed is None else seed
        )
        self.kv_store = KVCacheStore(
            n_layers=config.n_layers,
            n_kv_heads=config.n_kv_heads,
            head_dim=config.head_dim,
            offload=offload,
            residency=selector.kv_residency,
            buffer_prefix=buffer_prefix,
        )
        self.layer_states: list[LayerSelectorState | None] = []
        for layer_idx in range(config.n_layers):
            if layer_idx < generation_config.num_full_layers:
                self.layer_states.append(None)
            else:
                self.layer_states.append(
                    selector.create_layer_state(
                        layer_idx,
                        config.n_kv_heads,
                        config.head_dim,
                        generation_config.num_sink_tokens,
                    )
                )
        self.copy_head = CopyHead(model.weights) if config.use_copy_head else None
        # The pointer (copy) head is an attention head over the context like
        # any other: its keys go through the same KV selection machinery, so
        # the accuracy of a compression method directly gates what the model
        # can retrieve.
        self.copy_state: LayerSelectorState | None = None
        if self.copy_head is not None:
            self.copy_state = selector.create_layer_state(
                config.n_layers,
                1,
                config.d_model,
                generation_config.num_sink_tokens,
            )
        self.trace_layer = config.n_layers - 1
        self.prefilled = False
        self.position = 0
        self.result = GenerationResult(prompt_length=0, method=selector.name)

    def release(self) -> None:
        """Deregister this sequence's KV buffers from the offload manager.

        Called by the serving engine when a request retires so that its tier
        usage is returned to the pool before the next admission decision.
        """
        self.kv_store.release()


class EngineCore:
    """Shared stepping logic for single-sequence and batched inference.

    The core is bound to one model and one
    :class:`~repro.model.config.GenerationConfig` and operates on
    :class:`SequenceState` instances passed in per call.  It holds no
    per-request state, so one core can drive any number of concurrent
    sequences.
    """

    def __init__(self, model: TransformerModel, generation_config: GenerationConfig) -> None:
        self.model = model
        self.generation_config = generation_config
        # Reusable decode-step work buffers, keyed by batch size: the
        # concatenated attention output of one layer is written in place at
        # every layer of every step, so steady-state decoding allocates no
        # new per-step buffer here.
        self._attn_buffers: dict[int, np.ndarray] = {}
        # Growable zero-initialised workspaces of the fused cross-request
        # attention (padded K/V, queries, lengths); see _stacked_workspace.
        self._stacked_kv: np.ndarray | None = None
        self._stacked_queries: np.ndarray | None = None
        self._stacked_lengths: np.ndarray | None = None

    def _stacked_workspace(
        self, num: int, s_max: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Reusable buffers for :meth:`_attend_stacked`, grown by doubling.

        Only the dimension that fell short grows: a wider selection keeps
        the row count, a bigger batch keeps the width.

        The K/V buffer is zero-initialised on (re)allocation and *not*
        re-zeroed between steps: stale entries beyond a request's valid
        length are masked to ``-inf`` scores (keys) or multiplied by an
        exactly-zero attention weight (values), so they never influence the
        output — and the buffer only ever holds finite cache data.
        """
        config = self.model.config
        kv = self._stacked_kv
        if kv is None or kv.shape[1] < num or kv.shape[3] < s_max:
            if kv is None:
                rows, width = max(num, 2), 64
            else:
                rows, width = kv.shape[1], kv.shape[3]
                if rows < num:
                    rows = max(num, rows * 2)
            while width < s_max:
                width *= 2
            self._stacked_kv = np.zeros(
                (2, rows, config.n_kv_heads, width, config.head_dim)
            )
            self._stacked_queries = np.empty(
                (rows, config.n_kv_heads, config.group_size, config.head_dim)
            )
            self._stacked_lengths = np.empty((rows, config.n_kv_heads), dtype=np.int64)
            kv = self._stacked_kv
        assert self._stacked_queries is not None and self._stacked_lengths is not None
        return (
            kv[0, :num, :, :s_max],
            kv[1, :num, :, :s_max],
            self._stacked_queries[:num],
            self._stacked_lengths[:num],
        )

    # ------------------------------------------------------------------
    # prefill
    # ------------------------------------------------------------------
    def prefill(self, seq: SequenceState, prompt_ids: np.ndarray) -> np.ndarray:
        """Run exact prefill attention over the prompt of one sequence.

        Returns the output probability distribution (``(vocab,)``) after the
        last prompt token, from which the first generated token is sampled.
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        if prompt_ids.shape[0] == 0:
            raise ValueError("the prompt must contain at least one token")
        distribution = self.prefill_chunk(seq, prompt_ids, 0, prompt_ids.shape[0])
        assert distribution is not None
        return distribution

    def prefill_chunk(
        self,
        seq: SequenceState,
        prompt_ids: np.ndarray,
        start: int,
        end: int,
    ) -> np.ndarray | None:
        """Prefill prompt positions ``[start, end)`` of one sequence.

        Chunked prefill: the chunk's queries run exact causal attention
        against the KV cache of all ``end`` prompt positions seen so far, so
        a long prompt can be split across several engine steps (interleaved
        with other requests' decode steps) instead of stalling the batch in
        one monolithic pass.  Chunks must be contiguous and in order; the
        selector states observe the complete prompt once the last chunk
        lands, exactly as in a monolithic prefill.  With ``start == 0`` and
        ``end == len(prompt_ids)`` this *is* the monolithic prefill — one
        code path, so full-chunk prefill is trivially token-identical.

        Returns the output probability distribution after the last prompt
        token when ``end`` completes the prompt, else ``None``.
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        config = self.model.config
        length = prompt_ids.shape[0]
        if length == 0:
            raise ValueError("the prompt must contain at least one token")
        if not 0 <= start < end <= length:
            raise ValueError(
                f"invalid prefill chunk [{start}, {end}) of a {length}-token prompt"
            )
        if start == 0:
            if seq.prefilled:
                raise RuntimeError("the sequence has already been prefilled")
            seq.prefilled = True
            seq.result.prompt_length = length
        elif seq.position != start:
            raise RuntimeError(
                f"prefill chunk starts at {start} but the sequence is at "
                f"position {seq.position}"
            )
        whole_prefix = start == 0
        positions = np.arange(start, end)
        hidden = self.model.embed(prompt_ids[start:end], positions)

        # The dense blocks are row-independent: each layer's QKV+RoPE and its
        # output projection+FFN run as fixed row chunks dealt round-robin to
        # lanes (repro.model._lanes), writing into arrays allocated here.
        # The chunking does not depend on the lane count, so neither does
        # any byte of the result.  Everything stateful — KV store, attention
        # (it records counters and runs lanes of its own), selectors, copy
        # head, logits — stays on this thread.
        model = self.model
        rows = end - start
        chunks = range(0, rows, _DENSE_CHUNK_ROWS)
        lanes = lane_count(rows, _DENSE_CHUNK_ROWS)
        model.reserve_positions(end)  # lanes must never grow the shared RoPE tables
        q = np.empty((config.n_heads, rows, config.head_dim))
        k = np.empty((config.n_kv_heads, rows, config.head_dim))
        v = np.empty_like(k)

        def in_row_chunks(block: Callable[[slice], None]) -> None:
            def lane_chunks(lane: int) -> None:
                for lo in chunks[lane::lanes]:
                    block(slice(lo, lo + _DENSE_CHUNK_ROWS))

            run_lanes(lane_chunks, lanes)

        for layer_idx in range(config.n_layers):

            def project(part: slice) -> None:
                q[:, part], k[:, part], v[:, part] = model.attention_qkv(
                    layer_idx, hidden[part], positions[part]
                )

            in_row_chunks(project)
            seq.kv_store.append(layer_idx, k, v, step=-1)
            if whole_prefix:
                keys_ctx, values_ctx = k, v
            else:
                keys_ctx = seq.kv_store.keys(layer_idx)
                values_ctx = seq.kv_store.values(layer_idx)
            attn = full_causal_attention(q, keys_ctx, values_ctx, config.softmax_scale)

            def mix(part: slice) -> None:
                hidden[part] = model.ffn(
                    layer_idx,
                    model.attention_output(layer_idx, hidden[part], attn.output[part]),
                )

            in_row_chunks(mix)

        if seq.copy_head is not None:
            seq.copy_head.ingest(prompt_ids[start:end])
        seq.position = end
        if end < length:
            return None

        # Last chunk: the selectors observe the complete prompt (the cache
        # holds exactly the prompt KV at this point) and build their
        # acceleration structures, as in a monolithic prefill.
        for layer_idx in range(config.n_layers):
            state = seq.layer_states[layer_idx]
            if state is not None:
                state.observe_prefill(seq.kv_store.keys(layer_idx)[:, :length, :])
        if seq.copy_head is not None and seq.copy_state is not None:
            # Chunks and attach_prefix ingest every prompt token exactly
            # once, so the pointer head's history is the whole prompt now.
            seq.copy_state.observe_prefill(seq.copy_head.keys[None, :, :])

        logits = self.model.final_logits(hidden[-1:, :])[0]
        vocab_probs = softmax(logits)
        return self._mix_copy(seq, vocab_probs, int(prompt_ids[-1]), allowed_indices=None)

    def attach_prefix(
        self,
        seq: SequenceState,
        prompt_ids: np.ndarray,
        keys_per_layer: list[np.ndarray],
        values_per_layer: list[np.ndarray],
    ) -> None:
        """Adopt the cached KV of a prompt prefix instead of prefilling it.

        ``keys_per_layer``/``values_per_layer`` hold, per layer, the KV
        entries of the first ``H`` prompt positions as produced by an
        earlier prefill of the same token ids (shape
        ``(n_kv_heads, H, head_dim)``).  Causality makes this exact: the KV
        of position ``p`` depends only on tokens ``[0, p]``, so the
        injected entries are bit-identical to what prefilling this prompt
        would compute.  The copy head replays the attached token ids (its
        ingest is a pure per-token function), and the selector states are
        *not* notified here — the final suffix chunk's ``observe_prefill``
        runs over the complete prompt keys exactly as in a monolithic
        prefill, which is what keeps every policy token-identical.

        After attaching, the engine must prefill the remaining chunk(s)
        ``[H, len(prompt_ids))`` through :meth:`prefill_chunk`; ``H`` must
        leave at least one prompt token for that final chunk.
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        config = self.model.config
        length = prompt_ids.shape[0]
        attached = keys_per_layer[0].shape[1] if keys_per_layer else 0
        if seq.prefilled:
            raise RuntimeError("the sequence has already been prefilled")
        if len(keys_per_layer) != config.n_layers or len(values_per_layer) != config.n_layers:
            raise ValueError("attach_prefix needs one KV pair per model layer")
        if not 0 < attached < length:
            raise ValueError(
                f"attached prefix of {attached} tokens must leave at least one of "
                f"the {length} prompt tokens to prefill"
            )
        seq.prefilled = True
        seq.result.prompt_length = length
        seq.result.cached_prefix_tokens = int(attached)
        for layer_idx in range(config.n_layers):
            seq.kv_store.append(
                layer_idx, keys_per_layer[layer_idx], values_per_layer[layer_idx], step=-1
            )
        if seq.copy_head is not None:
            seq.copy_head.ingest(prompt_ids[:attached])
        seq.position = int(attached)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode_step_batch(
        self,
        seqs: list[SequenceState],
        token_ids: list[int],
        steps: list[int],
    ) -> list[np.ndarray]:
        """Run one decoding step for a batch of sequences.

        The per-token transformer blocks (embedding, QKV projection with
        RoPE, attention output projection, feed-forward, final logits) are
        row-wise over tokens, so the batch is pushed through them as a
        pseudo-sequence of ``B`` independent tokens in single NumPy calls.
        Attention and KV selection depend on per-request caches of differing
        lengths and stay per-sequence.

        Parameters
        ----------
        seqs:
            The sequences to step, each already prefilled.
        token_ids:
            The most recent token of each sequence (fed back as input).
        steps:
            Per-sequence zero-based decode step indices (requests admitted
            at different times sit at different steps within one batch).

        Returns
        -------
        list of numpy.ndarray
            One output probability distribution (``(vocab,)``) per sequence.
        """
        config = self.model.config
        batch = len(seqs)
        if not (batch == len(token_ids) == len(steps)):
            raise ValueError("seqs, token_ids and steps must have equal lengths")
        tokens = np.asarray(token_ids, dtype=np.int64)
        positions = np.asarray([seq.position for seq in seqs], dtype=np.int64)
        hidden = self.model.embed(tokens, positions)

        attn_concat = self._attn_buffers.get(batch)
        if attn_concat is None:
            attn_concat = np.empty((batch, config.n_heads * config.head_dim))
            self._attn_buffers[batch] = attn_concat
        for layer_idx in range(config.n_layers):
            q, k, v = self.model.attention_qkv(layer_idx, hidden, positions)
            self._attend_layer_batch(seqs, layer_idx, q, k, v, steps, attn_concat)
            hidden = self.model.attention_output(layer_idx, hidden, attn_concat)
            hidden = self.model.ffn(layer_idx, hidden)

        logits = self.model.final_logits(hidden)
        # Row-wise softmax over the whole batch: one call instead of B, and
        # each row is identical to the 1-D softmax of that row's logits.
        all_probs = softmax(logits, axis=-1)
        distributions: list[np.ndarray] = []
        for b, seq in enumerate(seqs):
            allowed_indices = self._update_copy_head(seq, int(tokens[b]), steps[b])
            seq.position += 1
            distributions.append(
                self._mix_copy(seq, all_probs[b], int(tokens[b]), allowed_indices)
            )
        return distributions

    def _prepare_attend(
        self,
        seq: SequenceState,
        layer_idx: int,
        query_vectors: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
        step: int,
    ) -> tuple:
        """KV append, observation and selection of one sequence/layer.

        The first part of a decode-step attention's front half: appends the
        new token's KV, lets the selector observe it and runs token
        selection under the budget.  Returns the prepared-attention tuple
        ``(seq, query vectors, keys, values, rows, state, context length,
        step)`` consumed by :meth:`_attend_layer_batch`: a budgeted
        request carries its selected index ``rows`` (keys and values are
        ``None`` until :meth:`_gather_selected` writes them into the
        workspace); a full-context one carries the cache views and no rows.
        """
        config = self.model.config
        gen = self.generation_config
        seq.kv_store.append(layer_idx, k_new, v_new, step=step)
        state = seq.layer_states[layer_idx]
        context_length = len(seq.kv_store.layers[layer_idx])

        if state is not None:
            state.observe_decode(k_new)

        budget = gen.budget if gen.budget is not None else context_length
        if state is not None and gen.budget is not None and budget < context_length:
            grouped = query_vectors.reshape(
                config.n_kv_heads, config.group_size, config.head_dim
            )
            fetched_before = state.stats.fetched_tokens
            # The store's own key view, not a copy; withheld under a spill
            # pager, where a cold page reads as zeros until recalled.
            store = seq.kv_store
            keys = None if store.pager is not None else store.layers[layer_idx].keys
            rows = state.select(grouped, budget, step, keys)
            store.record_fetch(state.stats.fetched_tokens - fetched_before, step)
            return (seq, query_vectors, None, None, rows, state, context_length, step)
        # Full-context attention: hand the cache views straight to the
        # batched attention — same values, no per-step O(L) copy.  Index
        # rows are only materialised if a recorder needs them.
        if state is not None:
            state.stats.selected_tokens += context_length * config.n_kv_heads
            state.stats.num_selections += 1
        return (
            seq,
            query_vectors,
            seq.kv_store.keys(layer_idx),
            seq.kv_store.values(layer_idx),
            None,
            state,
            context_length,
            step,
        )

    def _finish_attend(
        self,
        layer_idx: int,
        prep: tuple,
        weights: list[np.ndarray] | None,
    ) -> None:
        """Recording hooks of one sequence/layer attention (recall, trace)."""
        gen = self.generation_config
        (seq, query_vectors, _, _, rows, state, context_length, step) = prep
        record_recall = (
            gen.record_true_scores and state is not None and gen.budget is not None
        )
        record_trace = gen.record_attention_trace and layer_idx == seq.trace_layer
        if not record_recall and not record_trace:
            return
        config = self.model.config
        if rows is None:
            rows = np.broadcast_to(
                np.arange(context_length, dtype=np.int64),
                (config.n_kv_heads, context_length),
            )
        if record_recall:
            budget = gen.budget
            assert budget is not None
            self._record_recall(seq, layer_idx, step, query_vectors, rows, budget)
        if record_trace:
            self._record_trace(seq, layer_idx, step, query_vectors, rows, weights)

    def _attend_layer_batch(
        self,
        seqs: list[SequenceState],
        layer_idx: int,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        steps: list[int],
        out: np.ndarray,
    ) -> None:
        """Attention of one layer for the whole decode batch.

        Requests decoding under a budget produce *bounded* selections, and
        their keys and values are gathered straight into the fused
        workspace (:meth:`_gather_selected`) before any attention runs.
        Two or more of them fuse across requests into one pair of broadcast
        GEMMs over a ``(R, n_kv_heads, g, S_max)`` score tensor (padding
        entries carry exactly-zero weight, so each request's output equals
        its solo computation).  A lone budgeted request — which is how a
        batch of one runs the single-sequence path — gathers into a
        one-row workspace and attends alone; full-context requests keep
        per-request GEMMs on zero-copy cache views, as padding them would
        copy O(context) per step.  Rows of ``out`` are written in place.
        """
        gen = self.generation_config
        preps = [
            self._prepare_attend(
                seq, layer_idx, q[:, b, :], k[:, b : b + 1, :], v[:, b : b + 1, :], steps[b]
            )
            for b, seq in enumerate(seqs)
        ]
        stacked: list[tuple[int, tuple]] = []
        solo: list[tuple[int, tuple]] = []
        for b, prep in enumerate(preps):
            needs_weights = (
                gen.record_attention_trace and layer_idx == prep[0].trace_layer
            )
            if prep[4] is not None and not needs_weights:
                stacked.append((b, prep))
            else:
                solo.append((b, prep))
        if len(stacked) < 2:
            solo = sorted(solo + stacked)
            stacked = []

        if stacked:
            workspace = self._gather_selected(layer_idx, stacked)
            self._attend_stacked(layer_idx, stacked, out, workspace)
        for b, prep in solo:
            seq = prep[0]
            need_weights = (
                gen.record_attention_trace and layer_idx == seq.trace_layer
            )
            keys, values, lengths = prep[2], prep[3], None
            if prep[4] is not None:
                ws_keys, ws_values, _, ws_lengths = self._gather_selected(
                    layer_idx, [(b, prep)]
                )
                keys, values = ws_keys[0], ws_values[0]
                # Equal rows fill the one-row workspace exactly.
                if not isinstance(prep[4], np.ndarray):
                    lengths = ws_lengths[0]
            attn = selected_attention_batch(
                prep[1],
                keys,
                values,
                self.model.config.softmax_scale,
                lengths=lengths,
                return_weights=need_weights,
            )
            out[b] = attn.output
            self._finish_attend(layer_idx, prep, attn.weights)

    def _gather_selected(
        self, layer_idx: int, entries: list[tuple[int, tuple]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gather each entry's selected KV straight into its workspace slot.

        Returns the ``(keys, values, queries, lengths)`` workspace views of
        :meth:`_stacked_workspace`, one slot per entry, sized to the widest
        selection; the queries are left for :meth:`_attend_stacked`.
        """
        widths = [
            prep[4].shape[1] if isinstance(prep[4], np.ndarray) else max(map(len, prep[4]))
            for _, prep in entries
        ]
        workspace = self._stacked_workspace(len(entries), max(widths))
        keys, values, _, lengths = workspace
        for i, (_, prep) in enumerate(entries):
            prep[0].kv_store.gather_many(
                layer_idx, prep[4], out=(keys[i], values[i], lengths[i])
            )
        return workspace

    def _attend_stacked(
        self,
        layer_idx: int,
        entries: list[tuple[int, tuple]],
        out: np.ndarray,
        workspace: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Fused attention of several requests' bounded KV selections.

        ``workspace`` holds every request's gathered keys/values, padded to
        the batch-wide maximum (:meth:`_gather_selected`); the scores and
        the weighted sum run as two broadcast GEMMs for all requests and
        heads at once.  Keys past a head's length score ``-inf`` (zero
        weight), so each request's slice is identical to its standalone
        computation.
        """
        config = self.model.config
        n_kv = config.n_kv_heads
        keys, values, queries, lengths = workspace
        num, _, s_max, _ = keys.shape
        for i, (_, prep) in enumerate(entries):
            queries[i] = prep[1].reshape(n_kv, config.group_size, config.head_dim)
        if int(lengths.min(initial=1)) <= 0:
            raise ValueError("a kv head has no selected tokens")

        scores = np.matmul(queries, keys.transpose(0, 1, 3, 2)) * config.softmax_scale
        counters.record("gemm.attention_decode", 2)
        for i in range(num):
            for kv_head in range(n_kv):
                valid = lengths[i, kv_head]
                if valid < s_max:
                    scores[i, kv_head, :, valid:] = -np.inf
        weights = _softmax_inplace(scores)
        outputs = np.matmul(weights, values)  # (num, n_kv, group, head_dim)
        for i, (b, prep) in enumerate(entries):
            out[b] = outputs[i].reshape(-1)
            self._finish_attend(layer_idx, prep, None)

    def _update_copy_head(
        self, seq: SequenceState, token_id: int, step: int
    ) -> np.ndarray | None:
        """Ingest the current token into the pointer head and select its context.

        Returns the indices the pointer head may attend to at this step
        (``None`` means the full history, i.e. no compression).
        """
        if seq.copy_head is None:
            return None
        gen = self.generation_config
        copy_keys = seq.copy_head.ingest(np.asarray([token_id]))
        if seq.copy_state is None:
            return None
        seq.copy_state.observe_decode(copy_keys[None, :, :])
        history = len(seq.copy_head)
        if gen.budget is None or gen.budget >= history:
            seq.copy_state.stats.selected_tokens += history
            seq.copy_state.stats.num_selections += 1
            return None
        query = seq.copy_head.current_signature()
        selections = seq.copy_state.select(
            query[None, None, :], gen.budget, step, seq.copy_head.keys[None, :, :]
        )
        return selections[0]

    # ------------------------------------------------------------------
    # sampling and bookkeeping
    # ------------------------------------------------------------------
    def pick_token(self, seq: SequenceState, distribution: np.ndarray) -> int:
        """Sample the next token of a sequence from an output distribution."""
        if self.generation_config.greedy:
            return greedy_sample(distribution)
        return temperature_sample(
            distribution, seq.rng, self.generation_config.temperature
        )

    def record_output(self, seq: SequenceState, token_id: int, distribution: np.ndarray) -> None:
        """Append a generated token and its log-probability to the result."""
        seq.result.output_ids.append(token_id)
        # math.log == np.log for scalars (both IEEE-754 libm ln), without
        # the ufunc dispatch on this per-token path.
        seq.result.output_logprobs.append(
            math.log(max(float(distribution[token_id]), 1e-30))
        )

    def finalise(self, seq: SequenceState) -> GenerationResult:
        """Merge per-layer selector statistics into the sequence's result."""
        result = seq.result
        merged = SelectorStats()
        states: list[tuple[int, LayerSelectorState]] = [
            (layer_idx, state)
            for layer_idx, state in enumerate(seq.layer_states)
            if state is not None
        ]
        if seq.copy_state is not None:
            states.append((self.model.config.n_layers, seq.copy_state))
        for layer_idx, state in states:
            result.per_layer_stats[layer_idx] = state.stats
            merged = merged.merge(state.stats)
        result.selector_stats = merged
        result.ledger = seq.offload.ledger
        result.kv_cache_bytes = seq.kv_store.total_nbytes()
        # Embed the full selector configuration so any report built from
        # this result can reproduce the method exactly.
        result.method_config = dict(seq.selector.describe())
        hit_rates = [
            state.cache_hit_rate()
            for _, state in states
            if hasattr(state, "cache_hit_rate")
        ]
        result.cache_hit_rate = float(np.mean(hit_rates)) if hit_rates else 0.0
        return result

    # ------------------------------------------------------------------
    # checkpoint / restore (sequence migration, preemption, recovery)
    # ------------------------------------------------------------------
    def checkpoint_request(self, seq: SequenceState):
        """Capture the complete decoding state of one live sequence.

        Returns a :class:`repro.seqstate.SequenceCheckpoint` that, passed to
        :meth:`restore_request`, resumes the request bit-identically to
        never having been interrupted.  The sequence itself is unaffected.
        """
        from ..seqstate import checkpoint_sequence

        return checkpoint_sequence(self.model, self.generation_config, seq)

    def restore_request(
        self,
        checkpoint,
        selector: KVSelectorFactory,
        offload: OffloadManager,
        buffer_prefix: str = "",
    ) -> SequenceState:
        """Rebuild a live sequence from a checkpoint, bit-identical.

        ``selector`` must carry the same configuration signature the
        checkpoint was captured under, and ``offload`` is the (possibly
        different) memory manager the restored KV buffers register on —
        restoring onto another engine's manager is what migration is.
        """
        from ..seqstate import restore_sequence

        return restore_sequence(
            self.model,
            self.generation_config,
            checkpoint,
            selector,
            offload,
            buffer_prefix=buffer_prefix,
        )

    # ------------------------------------------------------------------
    # instrumentation helpers
    # ------------------------------------------------------------------
    def _mix_copy(
        self,
        seq: SequenceState,
        vocab_probs: np.ndarray,
        current_token_id: int,
        allowed_indices: np.ndarray | None,
    ) -> np.ndarray:
        if seq.copy_head is None:
            return vocab_probs
        copy_dist = seq.copy_head.copy_distribution(
            current_token_id, allowed_indices=allowed_indices
        )
        if copy_dist is None:
            return vocab_probs
        return mix_distributions(copy_dist, vocab_probs, self.model.config.copy_gate)

    def _record_recall(
        self,
        seq: SequenceState,
        layer_idx: int,
        step: int,
        query_vectors: np.ndarray,
        rows: np.ndarray | list[np.ndarray],
        budget: int,
    ) -> None:
        config = self.model.config
        keys = seq.kv_store.keys(layer_idx)
        context_length = keys.shape[1]
        effective_budget = min(budget, context_length)
        grouped = query_vectors.reshape(
            config.n_kv_heads, config.group_size, config.head_dim
        ).sum(axis=1)
        # Full-context true-score GEMMs: instrumentation-only work, counted
        # so tests can assert the disabled path never reaches here.
        counters.record("gemm.true_score", config.n_kv_heads)
        for kv_head in range(config.n_kv_heads):
            true_scores = keys[kv_head] @ grouped[kv_head]
            true_top = top_k_indices(true_scores, effective_budget)
            selected = set(rows[kv_head].tolist())
            hits = sum(1 for index in true_top.tolist() if index in selected)
            recall = hits / max(1, true_top.shape[0])
            seq.result.recall_records.append(
                RecallRecord(
                    step=step,
                    layer=layer_idx,
                    head=kv_head,
                    budget=effective_budget,
                    recall=recall,
                )
            )

    def _record_trace(
        self,
        seq: SequenceState,
        layer_idx: int,
        step: int,
        query_vectors: np.ndarray,
        rows: np.ndarray | list[np.ndarray],
        attention_weights: list[np.ndarray] | None,
    ) -> None:
        config = self.model.config
        keys = seq.kv_store.keys(layer_idx)
        grouped = query_vectors.reshape(
            config.n_kv_heads, config.group_size, config.head_dim
        ).sum(axis=1)
        counters.record("gemm.true_score", config.n_kv_heads)
        true_scores = [keys[kv_head] @ grouped[kv_head] for kv_head in range(config.n_kv_heads)]
        # Average the per-query-head weights inside each kv group so the trace
        # has one weight vector per kv head, aligned with its selected indices.
        kv_weights: list[np.ndarray] = []
        if attention_weights is not None:
            for kv_head in range(config.n_kv_heads):
                group_slice = attention_weights[
                    kv_head * config.group_size : (kv_head + 1) * config.group_size
                ]
                kv_weights.append(np.mean(np.stack(group_slice, axis=0), axis=0))
        seq.result.attention_trace.append(
            StepAttentionRecord(
                step=step,
                layer=layer_idx,
                selected_indices=[row.copy() for row in rows],
                attention_weights=kv_weights,
                true_scores=true_scores,
            )
        )


class InferenceEngine:
    """Runs prefill and decoding for one model / selection method pair.

    This is the single-request facade used by the accuracy experiments; the
    heavy lifting lives in :class:`EngineCore` and :class:`SequenceState`,
    which :class:`repro.serving.BatchedEngine` shares for multi-request
    continuous batching.
    """

    def __init__(
        self,
        model: TransformerModel,
        selector: KVSelectorFactory | None = None,
        generation_config: GenerationConfig | None = None,
        offload: OffloadManager | None = None,
    ) -> None:
        self.model = model
        self.selector = selector if selector is not None else FullKVSelector()
        self.generation_config = generation_config or GenerationConfig()
        self.offload = offload if offload is not None else OffloadManager()
        self._core = EngineCore(model, self.generation_config)
        self._sequence = SequenceState(
            model, self.selector, self.generation_config, self.offload
        )

    @property
    def kv_store(self) -> KVCacheStore:
        """KV cache store of the engine's single sequence."""
        return self._sequence.kv_store

    @property
    def layer_states(self) -> list[LayerSelectorState | None]:
        """Per-layer selector states (``None`` for uncompressed layers)."""
        return self._sequence.layer_states

    @property
    def copy_head(self) -> CopyHead | None:
        """Pointer head of the engine's single sequence, if enabled."""
        return self._sequence.copy_head

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, prompt_ids: np.ndarray | list[int]) -> GenerationResult:
        """Autoregressively generate ``max_new_tokens`` tokens after the prompt."""
        seq = self._sequence
        distribution = self._core.prefill(seq, np.asarray(prompt_ids, dtype=np.int64))

        current_token = self._core.pick_token(seq, distribution)
        self._core.record_output(seq, current_token, distribution)

        for step in range(self.generation_config.max_new_tokens - 1):
            distribution = self._core.decode_step_batch([seq], [current_token], [step])[0]
            current_token = self._core.pick_token(seq, distribution)
            self._core.record_output(seq, current_token, distribution)
            seq.result.decode_steps += 1

        return self._core.finalise(seq)

    def score_sequence(
        self, token_ids: np.ndarray | list[int], prefill_length: int
    ) -> GenerationResult:
        """Teacher-forced scoring of ``token_ids`` for perplexity evaluation.

        The first ``prefill_length`` tokens are processed as the prompt; the
        remaining tokens are fed one at a time through the decoding path (so
        that KV compression affects the predictions exactly as it would
        during generation) and the log-probability of each true next token
        is recorded.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if not 0 < prefill_length < token_ids.shape[0]:
            raise ValueError(
                "prefill_length must be positive and smaller than the sequence"
            )
        seq = self._sequence
        distribution = self._core.prefill(seq, token_ids[:prefill_length])

        for offset in range(prefill_length, token_ids.shape[0]):
            target = int(token_ids[offset])
            seq.result.target_logprobs.append(
                float(np.log(max(distribution[target], 1e-30)))
            )
            if offset == token_ids.shape[0] - 1:
                break
            step = offset - prefill_length
            distribution = self._core.decode_step_batch([seq], [target], [step])[0]
            seq.result.decode_steps += 1

        return self._core.finalise(seq)
