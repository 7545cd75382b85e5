"""Common interface of all KV cache selection methods.

Every compression method (ClusterKV and the baselines it is compared with)
is expressed as a *selector*: at each decoding step the selector receives the
query vectors and returns, for every key/value head, the indices of the
tokens whose KV entries participate in the approximate attention
``softmax(q K_S^T / sqrt(d)) V_S`` (paper Sec. II-B).

Selectors are stateful per layer: they observe the keys produced during
prefill and decoding (so that they can build whatever acceleration structure
they need — semantic clusters, page bounds, partial keys, ...) and maintain
instrumentation counters that the performance model consumes.

A policy is declared, not programmed: its factory names a config class and
a state class, and :class:`KVSelectorFactory` writes construction,
layer-state creation and ``describe()`` once for every policy.

Selectors do not own the key history.  The request's
:class:`~repro.model.kv_cache.KVCacheStore` holds every layer's keys (and
the :class:`~repro.model.pointer.CopyHead` the pointer head's); a selector
keeps only what it derives from them.  A method that scores raw keys at
selection time (H2O, the exact oracle) reads them from the ``keys``
argument of :meth:`LayerSelectorState.select`: a read-only view of the
store, valid for that call only, and ``None`` when a host-to-SSD spill
pager is attached (a spilled page reads as zeros, so no selector may
compute on it).
"""

from __future__ import annotations

import abc
import copy
import functools
import inspect
from dataclasses import dataclass, field

import numpy as np

from ..memory import TierKind

__all__ = [
    "SelectorStats",
    "LayerSelectorState",
    "KVSelectorFactory",
    "merge_group_queries",
    "clip_budget",
]


@dataclass
class SelectorStats:
    """Instrumentation counters accumulated by a layer selector.

    Attributes
    ----------
    score_flops:
        Floating point operations spent computing selection scores (the
        "recall overhead" of the paper).
    build_flops:
        Floating point operations spent building the selection structure
        (K-means clustering for ClusterKV, page summaries for Quest, partial
        key generation for InfiniGen).
    selected_tokens:
        Total number of tokens selected, summed over heads and steps.
    fetched_tokens:
        Tokens whose KV had to be transferred from the CPU tier (after any
        GPU-side caching).
    cache_hit_tokens / cache_miss_tokens:
        Cluster-cache hits and misses in token units (ClusterKV only; zero
        for other methods).
    num_selections:
        Number of ``select`` calls served.
    aux_bytes:
        Size of auxiliary metadata kept on the GPU (centroids, page bounds,
        partial keys, ...).
    """

    score_flops: int = 0
    build_flops: int = 0
    selected_tokens: int = 0
    fetched_tokens: int = 0
    cache_hit_tokens: int = 0
    cache_miss_tokens: int = 0
    num_selections: int = 0
    aux_bytes: int = 0

    def merge(self, other: "SelectorStats") -> "SelectorStats":
        """Return a new stats object with counters summed element-wise."""
        return SelectorStats(
            score_flops=self.score_flops + other.score_flops,
            build_flops=self.build_flops + other.build_flops,
            selected_tokens=self.selected_tokens + other.selected_tokens,
            fetched_tokens=self.fetched_tokens + other.fetched_tokens,
            cache_hit_tokens=self.cache_hit_tokens + other.cache_hit_tokens,
            cache_miss_tokens=self.cache_miss_tokens + other.cache_miss_tokens,
            num_selections=self.num_selections + other.num_selections,
            aux_bytes=self.aux_bytes + other.aux_bytes,
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of selected tokens served from the GPU-side cache."""
        total = self.cache_hit_tokens + self.cache_miss_tokens
        if total == 0:
            return 0.0
        return self.cache_hit_tokens / total


class LayerSelectorState(abc.ABC):
    """Per-layer state of a KV selection method, with its factory's ``config``."""

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        config: object | None = None,
        num_sink_tokens: int = 0,
    ) -> None:
        self.layer_idx = layer_idx
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.config = config
        self.num_sink_tokens = num_sink_tokens
        self.stats = SelectorStats()
        self._num_tokens = 0

    def observe_prefill(self, keys: np.ndarray) -> None:
        """Ingest prompt keys, shape ``(n_kv_heads, L, head_dim)``.

        The default only counts them — all a policy needs whose selection
        depends on the context length alone or on the ``keys`` argument
        of :meth:`select`.  A policy that builds a structure overrides it.
        """
        self._num_tokens = int(np.asarray(keys).shape[1])

    def observe_decode(self, keys: np.ndarray) -> None:
        """Ingest keys of newly decoded tokens, shape ``(n_kv_heads, t, head_dim)``.

        The default only counts them (see :meth:`observe_prefill`).
        """
        self._num_tokens += int(np.asarray(keys).shape[1])

    @abc.abstractmethod
    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Select token indices for the current decoding step.

        Parameters
        ----------
        queries:
            Query vectors grouped by kv head, shape
            ``(n_kv_heads, group_size, head_dim)``.
        budget:
            KV cache budget ``B`` (tokens per head).
        step:
            Zero-based decoding step index.
        keys:
            The layer's whole key history, shape ``(n_kv_heads,
            context_length, head_dim)``: a read-only view of the store the
            engine owns (never a copy), so a state must not write to it or
            keep it past the call.  ``None`` under a host-to-SSD spill
            pager, and for callers that know the policy does not read keys;
            a policy that needs them raises ``ValueError``.

        Returns
        -------
        numpy.ndarray
            An ``(n_kv_heads, S)`` int64 matrix, for all heads in one pass:
            every head selects the same number ``S`` of tokens, and row
            ``h`` holds head ``h``'s sorted, unique token positions in
            ``[0, context_length)``.  The result is read-only to the
            caller: it may be a view of the state's own arrays or one row
            broadcast to every head.
        """

    @property
    def context_length(self) -> int:
        """Number of tokens observed so far (prefill plus decode)."""
        return self._num_tokens

    def _require_keys(self, keys: np.ndarray | None) -> np.ndarray:
        """The ``keys`` argument of :meth:`select`, for a policy that scores raw keys."""
        expected = (self.n_kv_heads, self._num_tokens, self.head_dim)
        if keys is None or keys.shape != expected:
            raise ValueError(f"{type(self).__name__}.select needs keys of shape {expected}")
        return keys

    def _validate_keys(self, keys: np.ndarray) -> np.ndarray:
        """``keys`` as float64, checked to be ``(n_kv_heads, t, head_dim)``."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 3 or keys.shape[0] != self.n_kv_heads or keys.shape[2] != self.head_dim:
            raise ValueError(
                f"expected keys of shape ({self.n_kv_heads}, t, {self.head_dim}), "
                f"got {keys.shape}"
            )
        return keys

    # ------------------------------------------------------------------
    # whole-state checkpoint hooks (sequence migration / preemption)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, object]:
        """Deep snapshot of this state's complete mutable contents.

        The generalisation of :meth:`export_prefix_state` from prompt
        prefixes to *arbitrary decode positions*: everything the selector
        has accumulated — acceleration structures, caches, instrumentation
        counters — is captured so that :meth:`restore_state` on a fresh
        state of the same policy configuration reproduces this state
        exactly.  The key history is not part of it: the KV store owns
        that and is checkpointed on its own.  Selector states hold only
        plain-Python containers and NumPy arrays, so a deep copy of
        ``__dict__`` (as :meth:`_export_fields` trims it) is exact for every
        registered policy; a selector holding unpicklable resources must
        override both hooks.
        """
        return copy.deepcopy(self._export_fields())

    def _export_fields(self) -> dict[str, object]:
        """The ``__dict__`` entries :meth:`export_state` deep-copies.

        A state overrides this to leave out what it rebuilds on demand or
        to cut a growable buffer to its live rows; the trimmed snapshot
        must still restore to a state that selects identically.
        """
        return self.__dict__

    def restore_state(self, state: dict[str, object]) -> None:
        """Adopt a snapshot produced by :meth:`export_state`.

        Called on a freshly created state of the same policy configuration
        (layer index, kv heads, head dim); afterwards the state behaves —
        selection results, statistics, context length — exactly as the
        exported one did at capture time, which is what makes
        checkpoint/restore bit-identical to uninterrupted decoding.
        """
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))

    # ------------------------------------------------------------------
    # cross-request prefix-cache hooks (optional)
    # ------------------------------------------------------------------
    def export_prefix_state(self, prefix_len: int) -> dict[tuple[int, int], object]:
        """Semantic state of the prompt prefix, for the prefix cache.

        Returns a mapping from absolute token segments ``(seg_start,
        seg_end)`` with ``seg_end <= prefix_len`` to opaque payloads that
        :meth:`restore_prefix_state` on a *fresh* state of the same policy
        configuration can consume.  The default returns an empty mapping:
        most selectors rebuild their structure from the full prompt keys
        at prefill observation time and need nothing restored.
        """
        return {}

    def restore_prefix_state(self, segments: dict[tuple[int, int], object]) -> None:
        """Adopt exported prefix segments ahead of ``observe_prefill``.

        Called on a fresh state (before any observation) when the engine
        attaches the request to a cached prompt prefix.  The default is a
        no-op, matching the empty default export.
        """


@functools.cache
def config_parameters(config_cls: type) -> tuple[str, ...]:
    """A config class's keyword constructor parameters: a policy's kwargs, in order.

    Cached per class: ``describe()`` runs for every report, checkpoint and
    prefix-cache lookup.
    """
    params = inspect.signature(config_cls).parameters.values()
    return tuple(
        param.name
        for param in params
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    )


class KVSelectorFactory:
    """Factory building per-layer selector states for one generation run.

    A policy declares the four class attributes below and writes no
    method; a factory may still override any method.

    Attributes
    ----------
    name:
        Identifier used in experiment reports (``"clusterkv"``, ``"quest"``,
        ``"infinigen"``, ``"full"``, ...).
    kv_residency:
        The memory tier holding the bulk KV cache under this method.  Full
        KV and Quest keep everything on the GPU; ClusterKV and InfiniGen
        offload to the CPU and fetch selected entries per step.
    config_cls:
        Class of ``config``, the only constructor argument; it must store
        every constructor parameter as an attribute of the same name.
        ``None`` for a policy without configuration.
    state_cls:
        The :class:`LayerSelectorState` subclass :meth:`create_layer_state`
        builds.
    """

    name: str = "abstract"
    kv_residency: TierKind = TierKind.GPU
    config_cls: type | None = None
    state_cls: type[LayerSelectorState] | None = None
    config: object | None = None

    def __init__(self, config: object | None = None) -> None:
        if self.config_cls is not None:
            self.config = config or self.config_cls()
        elif config is not None:
            raise TypeError(f"{type(self).__name__} takes no configuration")

    def create_layer_state(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        num_sink_tokens: int,
    ) -> LayerSelectorState:
        """Create the selector state of one layer."""
        if self.state_cls is None:
            raise NotImplementedError(f"{type(self).__name__} declares no state_cls")
        return self.state_cls(layer_idx, n_kv_heads, head_dim, self.config, num_sink_tokens)

    def describe(self) -> dict[str, object]:
        """Description of the method: identity plus its *full* configuration.

        ``name`` and ``kv_residency``, then every constructor parameter of
        the config's class in parameter order, so the description is
        complete by construction.  It is embedded in experiment reports
        and :meth:`repro.serving.ServeReport.policy_descriptions`, keys
        checkpoints and the prefix cache, and rebuilds the policy via
        :func:`repro.policies.policy_spec_from_description`.
        """
        description = {"name": self.name, "kv_residency": self.kv_residency.value}
        if self.config is not None:
            for param in config_parameters(type(self.config)):
                description[param] = getattr(self.config, param)
        return description


def merge_group_queries(queries: np.ndarray) -> np.ndarray:
    """Collapse grouped query heads into one scoring query per kv head.

    ``queries`` has shape ``(n_kv_heads, group_size, head_dim)``; the result
    has shape ``(n_kv_heads, head_dim)``.  Scores computed against the summed
    query equal the sum of per-query scores, which matches how grouped-query
    attention shares a kv head across its query group.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 2:
        return queries
    if queries.ndim != 3:
        raise ValueError(f"expected (n_kv_heads, group, head_dim), got {queries.shape}")
    return queries.sum(axis=1)


def clip_budget(budget: int, context_length: int) -> int:
    """Clamp a budget to the number of available tokens."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return min(budget, context_length)
