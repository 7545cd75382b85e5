"""Live sequence-state checkpointing: mobile, restorable request state.

The :mod:`repro.seqstate` subsystem makes a request's decoding state a
first-class, mobile object.  :class:`SequenceCheckpoint` is a versioned,
policy-aware snapshot of everything one in-flight request owns; its one
identity field is the :class:`~repro.serving.request.ServeRequest` itself,
so a restored request is the submitted one.  :func:`checkpoint_sequence` /
:func:`restore_sequence` prove the round trip bit-identical to
uninterrupted decoding for every registered policy.
The serving engine builds preemption on top
(:meth:`repro.serving.BatchedEngine.checkpoint_request`), and the cluster
layer builds live migration and failure recovery
(:class:`repro.cluster.ClusterSimulator` with ``migrate_on_drain`` and
``checkpoint_interval_s``).
"""

from .checkpoint import (
    SEQSTATE_VERSION,
    SequenceCheckpoint,
    checkpoint_sequence,
    policy_signature,
    restore_sequence,
)

__all__ = [
    "SEQSTATE_VERSION",
    "SequenceCheckpoint",
    "checkpoint_sequence",
    "policy_signature",
    "restore_sequence",
]
