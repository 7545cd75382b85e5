"""Mixed-policy serving: one batch, a different compression method per request.

One ``BatchedEngine.run()`` serves a burst of requests in which every
request carries its own KV compression policy — ClusterKV, Quest,
StreamingLLM and full KV side by side in the same continuous batch.  The
example then re-serves each request homogeneously (a batch containing only
its policy) and verifies each request generates the **same tokens**:
per-request policies change what each request computes, never how its
batch neighbours decode.  Log-probabilities are compared to within
rounding (``rtol=1e-9, atol=1e-12``): a request narrower than its batch's
widest selection attends over a padded workspace, which can move its
log-probabilities in the last bits (docs/ARCHITECTURE.md, per-request
policies).

It also shows the two declarative layers this flows through:

* policies are named through the registry (``repro.policies``) as
  ``PolicySpec`` strings, round-trippable to JSON — the same strings the
  CLI accepts via ``repro traffic-bench --policy ... --policy ...``;
* the ``repro.api.Session`` facade drives everything from one
  ``EngineSpec``.

Run with:  python examples/mixed_policy_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.api import EngineSpec, Session
from repro.model import get_model_config

POLICIES = (
    "clusterkv:tokens_per_cluster=24,decode_window=24,decode_clusters=2,num_sink_tokens=8",
    "quest:page_size=16",
    "streaming_llm",
    "full",
)
NUM_REQUESTS = 8
PROMPT_LEN = 48

SPEC = EngineSpec(
    model="serve-sim",
    policy="full",  # session default; every request overrides it below
    budget=32,
    max_new_tokens=24,
    num_full_layers=1,
    num_sink_tokens=8,
    max_batch_size=NUM_REQUESTS,
    max_prefills_per_step=NUM_REQUESTS,
)


def make_prompts() -> list[np.ndarray]:
    """Deterministic random prompts shared by both serving modes."""
    rng = np.random.default_rng(7)
    vocab = get_model_config(SPEC.model).vocab_size
    return [
        rng.integers(4, vocab, size=PROMPT_LEN).astype(np.int64)
        for _ in range(NUM_REQUESTS)
    ]


def main() -> None:
    prompts = make_prompts()
    assignments = [POLICIES[i % len(POLICIES)] for i in range(NUM_REQUESTS)]

    # ------------------------------------------------------------------
    # 1. One heterogeneous batch: every request brings its own policy.
    # ------------------------------------------------------------------
    session = Session(SPEC)
    for i, (prompt, policy) in enumerate(zip(prompts, assignments)):
        session.submit(prompt, request_id=f"r{i}", policy=policy)
    report = session.run()

    print("mixed batch: one BatchedEngine.run(), four policies")
    print(f"  engine steps: {report.engine_steps}")
    print(f"  mean occupancy: {report.mean_batch_occupancy:.1f}")
    print(f"  tokens: {report.total_generated_tokens}")
    descriptions = report.policy_descriptions()
    for i in range(NUM_REQUESTS):
        name = descriptions[f"r{i}"]["name"]
        tokens = len(report.results()[f"r{i}"].output_ids)
        print(f"  r{i}: {name:14s} {tokens} tokens")

    # ------------------------------------------------------------------
    # 2. Homogeneous control runs: same prompts, one policy per engine.
    # ------------------------------------------------------------------
    mismatches = 0
    for policy in POLICIES:
        control = Session(SPEC)
        indices = [i for i, assigned in enumerate(assignments) if assigned == policy]
        for i in indices:
            control.submit(prompts[i], request_id=f"r{i}", policy=policy)
        control_results = control.run().results()
        for i in indices:
            mixed = report.results()[f"r{i}"]
            homogeneous = control_results[f"r{i}"]
            matches = mixed.output_ids == homogeneous.output_ids and np.allclose(
                mixed.output_logprobs, homogeneous.output_logprobs, rtol=1e-9, atol=1e-12
            )
            mismatches += 0 if matches else 1

    print()
    if mismatches:
        raise SystemExit(f"{mismatches} request(s) diverged between mixed and homogeneous runs")
    print(
        "verified: every request generates the same tokens as a homogeneous "
        "run of its policy (logprobs within rtol=1e-9)"
    )
    print()
    print("a traffic workload mixing policies across its requests, from the command line:")
    print(
        "  python -m repro traffic-bench "
        + " ".join(f"--policy {policy.split(':')[0]}" for policy in POLICIES[:3])
    )


if __name__ == "__main__":
    main()
