"""The five workloads of the benchmark, each isolating one regime.

Every workload fixes its *work* (request counts, prompt and decode
lengths, arrival instants, service classes, which preamble a request
shares) from ``STRUCTURE_SEED``; the ``--seed`` argument only chooses
token ids.  A pass is therefore the same amount of work for every seed,
which is what lets medians from runs with different seeds be compared.

Only public entry points of ``repro`` are driven: ``Session`` /
``EngineSpec``, ``BatchedEngine``, ``repro.traffic.simulate`` and
``repro.cluster.simulate_cluster``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.api import EngineSpec, Session
from repro.cluster import ClusterConfig, FailureEvent, FailurePlan, simulate_cluster
from repro.execbackend import MultiprocessBackend, SerialBackend
from repro.model import get_model_config
from repro.policies import PolicySpec
from repro.serving import BatchedEngine
from repro.serving.bench import serving_policy_spec
from repro.traffic import (
    PrefixAffineRouter,
    RequestShape,
    SLOSpec,
    TrafficConfig,
    TrafficReport,
    build_arrivals,
    generate_traffic,
    simulate,
)

import trace as tracing

STRUCTURE_SEED = 20260928
PREFIX_COUNTERS = ("hits", "misses", "hit_tokens", "evicted_tokens")
MODEL = "serve-sim"
VOCAB = get_model_config(MODEL).vocab_size


def token_ids(rng: np.random.Generator, length: int) -> np.ndarray:
    """Uniform prompt ids over the vocabulary, skipping the special ids."""
    return rng.integers(4, VOCAB, size=length).astype(np.int64)


# ----------------------------------------------------------------------
# wall-clock token timing, shared by engine and fleet workloads
# ----------------------------------------------------------------------
class TokenClock:
    """Per-request wall latencies derived from engine step traces.

    ``submitted`` stamps a request when it is handed to an engine;
    ``step_done`` is called with every finished step's ``StepTrace`` and
    the instant the step returned.  A request's first token is produced by
    the step whose prefill entry completes its prompt; every decode entry
    is one further token.  A token becomes visible to its client when the
    step returns, so all of a step's tokens carry that instant.
    """

    def __init__(self) -> None:
        self.submit_t: dict[str, float] = {}
        self.first_token_t: dict[str, float] = {}
        self.last_token_t: dict[str, float] = {}
        self.tokens: dict[str, int] = {}
        self.admitted: set[str] = set()
        self.ttft_s: list[float] = []
        self.itl_s: list[float] = []
        self.queue_wait_s: list[float] = []
        self.step_wall_s: list[float] = []
        self.occupancy: list[int] = []
        self.submits = 0

    def submitted(self, request_id: str, now: float) -> None:
        """Stamp one submission (a failure retry re-stamps the request)."""
        self.submit_t[request_id] = now
        self.submits += 1

    def step_done(self, trace, now: float, wall_s: float) -> None:
        """Account one finished engine step that returned at ``now``."""
        begin = now - wall_s
        self.step_wall_s.append(wall_s)
        self.occupancy.append(len(trace.decodes))
        for entry in (*trace.attaches, *trace.prefills):
            rid = entry.request_id
            if rid not in self.admitted:
                self.admitted.add(rid)
                self.queue_wait_s.append(max(0.0, begin - self.submit_t.get(rid, begin)))
        first_token_here = set()
        for entry in trace.prefills:
            chunk = entry.chunk_tokens
            if chunk is None or entry.chunk_start + chunk >= entry.context_length:
                rid = entry.request_id
                self.ttft_s.append(now - self.submit_t.get(rid, begin))
                # A failure retry prefills again: its token time line restarts.
                self.first_token_t[rid] = self.last_token_t[rid] = now
                self.tokens[rid] = 1
                first_token_here.add(rid)
        for entry in trace.decodes:
            rid = entry.request_id
            self.tokens[rid] = self.tokens.get(rid, 0) + 1
            # The step that completes a prefill also decodes once: both
            # tokens reach the client together, which is no gap to record.
            if rid in first_token_here:
                continue
            previous = self.last_token_t.get(rid)
            if previous is not None:
                self.itl_s.append(now - previous)
            self.last_token_t[rid] = now

    def tpot_s(self) -> list[float]:
        """Per request: mean seconds per output token after the first."""
        return [
            (self.last_token_t[rid] - first) / (self.tokens[rid] - 1)
            for rid, first in self.first_token_t.items()
            if self.tokens[rid] > 1
        ]


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    wall_s: float
    output_tokens: int
    attempted: int
    failed: int
    # Compared across passes by the correctness gate: greedy tokens per
    # request for engine workloads, the report JSON for fleets.
    fingerprint: object
    clock: TokenClock
    completed: list = field(default_factory=list)
    step_traces: list = field(default_factory=list)
    report: TrafficReport | None = None
    prefix_cache: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Req:
    """One request of an engine workload."""

    rid: str
    prompt: np.ndarray
    new_tokens: int
    policy: PolicySpec | str | None = None


class Workload:
    """Interface the harness drives; see the five subclasses below."""

    name = ""
    why = ""
    sizes: dict[str, dict[str, object]] = {}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.size = self.sizes["smoke" if smoke else "full"]

    def setup(self) -> None:
        """Build everything a pass needs and run the untimed warm-up."""
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        """One timed pass; the same work for every ``index`` and seed."""
        raise NotImplementedError

    def verify(self, passes: list[PassResult]) -> int:
        """Correctness gate: number of outputs that are not what they must be."""
        raise NotImplementedError

    def recall_at_budget(self) -> float:
        """Untimed quality pass: paper Fig. 11 recall on this workload's requests."""
        raise NotImplementedError


def measure_recall(
    spec: EngineSpec, model, requests: list[Req], prefix_cache=None
) -> float:
    """Mean recall of the truly important tokens over ``requests``.

    Runs them on a second engine that differs from ``spec`` only in
    ``record_true_scores=True`` (exact scores over the full context at
    every step, far too slow for a timed pass).
    """
    engine = BatchedEngine(
        model,
        selector=spec.build_policy(),
        generation_config=dataclasses.replace(
            spec.generation_config(), record_true_scores=True
        ),
        scheduler_config=spec.scheduler_config(),
    )
    if prefix_cache is not None:
        engine.prefix_cache = prefix_cache
    for req in requests:
        engine.submit(
            req.prompt, request_id=req.rid, max_new_tokens=req.new_tokens, policy=req.policy
        )
    recalls = [
        record.recall
        for item in engine.run().completed
        for record in item.result.recall_records
    ]
    return float(np.mean(recalls))


# ----------------------------------------------------------------------
# engine workloads: closed-loop clients on one Session
# ----------------------------------------------------------------------
def drive_closed_loop(
    session: Session, clients: list[list[Req]], clock: TokenClock
) -> tuple[float, list, list]:
    """Serve ``clients`` closed-loop: each sends its next request on completion.

    Returns the wall time, the completed requests and every step's trace.
    """
    queues = [deque(client) for client in clients]
    in_flight: dict[str, int] = {}
    idle = set(range(len(clients)))
    completed: list = []
    traces: list = []
    engine = session.engine
    start = time.perf_counter()
    while True:
        for index in sorted(idle):
            if queues[index]:
                req = queues[index].popleft()
                session.submit(
                    req.prompt,
                    request_id=req.rid,
                    max_new_tokens=req.new_tokens,
                    policy=req.policy,
                )
                clock.submitted(req.rid, time.perf_counter())
                in_flight[req.rid] = index
                idle.discard(index)
        if not in_flight:
            break
        finished = session.step()
        step_trace = engine.last_step_trace
        clock.step_done(step_trace, time.perf_counter(), step_trace.wall_seconds)
        traces.append(step_trace)
        for item in finished:
            completed.append(item)
            idle.add(in_flight.pop(item.request.request_id))
    return time.perf_counter() - start, completed, traces


class EngineWorkload(Workload):
    """A workload served by one ``Session`` under closed-loop clients."""

    def spec(self) -> EngineSpec:
        """The engine under test."""
        raise NotImplementedError

    def requests(self, tag: str) -> list[Req]:
        """One pass's requests, ids under ``tag``.

        Every pass sends the same requests, which is what lets the
        correctness gate demand identical greedy tokens from all of them.
        """
        raise NotImplementedError

    def pass_clients(self, tag: str) -> list[list[Req]]:
        """The pass's requests dealt round-robin to the closed-loop clients."""
        requests = self.requests(tag)
        clients = self.size.get("clients", 1)
        return [requests[c::clients] for c in range(clients)]

    def warmup_clients(self) -> list[list[Req]]:
        """A small untimed slice of the pass shape (fills lazy state)."""
        raise NotImplementedError

    def quality_requests(self) -> list[Req]:
        """At most 8 budgeted requests of the workload for the recall pass."""
        raise NotImplementedError

    def build_session(self, spec: EngineSpec) -> Session:
        """A session ready to serve passes (subclasses pre-load caches)."""
        return Session(spec)

    def setup(self) -> None:
        self.session = self.build_session(self.spec())
        drive_closed_loop(self.session, self.warmup_clients(), TokenClock())
        self.session.clear_completed()

    def run_pass(self, index: int, session: Session | None = None, policy=None) -> PassResult:
        session = session or self.session
        clients = self.pass_clients(f"p{index}")
        if policy is not None:
            clients = [
                [dataclasses.replace(req, policy=policy) for req in client]
                for client in clients
            ]
        before = session.prefix_cache_stats()
        clock = TokenClock()
        with tracing.span("pass"):
            wall_s, completed, traces = drive_closed_loop(session, clients, clock)
        session.clear_completed()
        after = session.prefix_cache_stats()
        attempted = sum(len(client) for client in clients)
        return PassResult(
            wall_s=wall_s,
            output_tokens=sum(len(item.result.output_ids) for item in completed),
            attempted=attempted,
            failed=attempted - len(completed),
            fingerprint={
                item.request.request_id.split(".", 1)[1]: tuple(item.result.output_ids)
                for item in completed
            },
            clock=clock,
            completed=completed,
            step_traces=traces,
            prefix_cache={
                key: float(after[key]) - float(before[key])
                for key in PREFIX_COUNTERS
                if key in after
            },
        )

    def verify(self, passes: list[PassResult]) -> int:
        """Identical-input passes must produce identical greedy tokens."""
        reference = passes[0].fingerprint
        return sum(
            1
            for result in passes[1:]
            for key, tokens in result.fingerprint.items()
            if reference.get(key) != tokens
        )

    def recall_at_budget(self) -> float:
        return measure_recall(self.spec(), self.session.model, self.quality_requests())

    def full_attention_session(self) -> Session:
        """A second session serving with full attention, the paper's baseline."""
        return self.build_session(dataclasses.replace(self.spec(), policy="full", budget=None))


class LongCtxIngest(EngineWorkload):
    name = "longctx_ingest"
    why = (
        "unshared 2048-token prompts, 16 new tokens: prefill attention and "
        "cluster build dominate, decode and scheduling do almost nothing"
    )
    sizes = {
        "full": {"prompts": 2, "prompt_len": 2048, "new_tokens": 16, "budget": 256},
        "smoke": {"prompts": 2, "prompt_len": 160, "new_tokens": 4, "budget": 32},
    }

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        rng = np.random.default_rng(seed)
        self.prompts = [
            token_ids(rng, self.size["prompt_len"]) for _ in range(self.size["prompts"])
        ]

    def spec(self) -> EngineSpec:
        return EngineSpec(
            model=MODEL,
            policy="clusterkv:tokens_per_cluster=80",
            budget=self.size["budget"],
            max_new_tokens=self.size["new_tokens"],
            num_full_layers=1,
            max_batch_size=1,
        )

    def requests(self, tag: str) -> list[Req]:
        return [
            Req(f"{tag}.r.{k}", prompt, self.size["new_tokens"])
            for k, prompt in enumerate(self.prompts)
        ]

    def warmup_clients(self) -> list[list[Req]]:
        return [[Req("w.r.0", self.prompts[0], 2)]]

    def quality_requests(self) -> list[Req]:
        return [Req("q.0", self.prompts[0], self.size["new_tokens"])]


class LongDocQA(EngineWorkload):
    name = "longdoc_qa"
    why = (
        "questions over one prefix-cached 3136-token document: ClusterKV "
        "select, gather and attend over a 12x-budget context is most of every step"
    )
    sizes = {
        "full": {
            "doc_len": 3136,
            "questions": 8,
            "suffix": (16, 63),
            "new_tokens": 96,
            "budget": 256,
            "clients": 4,
            "cache_tokens": 8192,
            "block": 64,
            "segment": 512,
        },
        "smoke": {
            "doc_len": 256,
            "questions": 4,
            "suffix": (8, 15),
            "new_tokens": 4,
            "budget": 32,
            "clients": 2,
            "cache_tokens": 1024,
            "block": 16,
            "segment": 64,
        },
    }

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        rng = np.random.default_rng(seed)
        self.document = token_ids(rng, self.size["doc_len"])
        lo, hi = self.size["suffix"]
        lengths = np.random.default_rng(STRUCTURE_SEED).integers(
            lo, hi + 1, size=self.size["questions"]
        )
        self.suffixes = [token_ids(rng, int(length)) for length in lengths]

    def spec(self) -> EngineSpec:
        size = self.size
        return EngineSpec(
            model=MODEL,
            policy=PolicySpec(
                "clusterkv",
                {"tokens_per_cluster": 80, "prefill_segment_tokens": size["segment"]},
            ),
            budget=size["budget"],
            max_new_tokens=size["new_tokens"],
            num_full_layers=1,
            max_batch_size=size["clients"],
            max_prefills_per_step=size["clients"],
            prefix_cache_tokens=size["cache_tokens"],
            prefix_block_tokens=size["block"],
        )

    def build_session(self, spec: EngineSpec) -> Session:
        """Prefill the document once so every question attaches to it."""
        session = Session(spec)
        session.generate(self.document, request_id="doc", max_new_tokens=1)
        session.clear_completed()
        return session

    def requests(self, tag: str) -> list[Req]:
        """The pass's questions; a suffix under 64 tokens adds no cache block,
        so asking them again in the next pass is the same work."""
        return [
            Req(f"{tag}.q.{k}", np.concatenate([self.document, suffix]), self.size["new_tokens"])
            for k, suffix in enumerate(self.suffixes)
        ]

    def warmup_clients(self) -> list[list[Req]]:
        return [[req] for req in self.requests("w")[:2]]

    def quality_requests(self) -> list[Req]:
        # Four questions give the recall of all eight to +-0.001 (the
        # document decides it) in half the time.
        return self.requests("quality")[:4]

    def recall_at_budget(self) -> float:
        # The recall engine reads the document's KV and cluster state from
        # the session's prefix cache instead of prefilling it a second time.
        return measure_recall(
            self.spec(),
            self.session.model,
            self.quality_requests(),
            prefix_cache=self.session.engine.prefix_cache,
        )


CHAT_POLICIES = ("clusterkv", "quest", "streaming_llm", "full", "h2o", "infinigen")


class ChatMixed(EngineWorkload):
    name = "chat_mixed"
    why = (
        "short prompts, full batches, six policies round-robin: dense batched "
        "GEMMs, sampling and step scheduling dominate; many small builds and selects"
    )
    sizes = {
        "full": {
            "requests": 24,
            "prompt_len": (32, 256),
            "new_tokens": 96,
            "budget": 48,
            "clients": 8,
        },
        "smoke": {
            "requests": 12,
            "prompt_len": (16, 48),
            "new_tokens": 6,
            "budget": 16,
            "clients": 4,
        },
    }

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        lo, hi = self.size["prompt_len"]
        lengths = np.random.default_rng(STRUCTURE_SEED).integers(
            lo, hi + 1, size=self.size["requests"]
        )
        rng = np.random.default_rng(seed)
        self.prompts = [token_ids(rng, int(length)) for length in lengths]
        self.policies = [
            serving_policy_spec(CHAT_POLICIES[k % len(CHAT_POLICIES)])
            for k in range(len(self.prompts))
        ]

    def spec(self) -> EngineSpec:
        return EngineSpec(
            model=MODEL,
            policy=serving_policy_spec("clusterkv"),
            budget=self.size["budget"],
            max_new_tokens=self.size["new_tokens"],
            num_full_layers=1,
            num_sink_tokens=8,
            max_batch_size=self.size["clients"],
        )

    def requests(self, tag: str) -> list[Req]:
        return [
            Req(f"{tag}.r.{k}", prompt, self.size["new_tokens"], policy)
            for k, (prompt, policy) in enumerate(zip(self.prompts, self.policies))
        ]

    def warmup_clients(self) -> list[list[Req]]:
        # One request of every policy, so each selector's lazy state exists.
        return [[req] for req in self.requests("w")[: len(CHAT_POLICIES)]]

    def quality_requests(self) -> list[Req]:
        budgeted = [req for req in self.requests("quality") if req.policy.name != "full"]
        return budgeted[:8]


# ----------------------------------------------------------------------
# fleet workloads: open-loop arrivals on the virtual clock
# ----------------------------------------------------------------------
@contextmanager
def tapped_backends(clock: TokenClock, completed: list) -> Iterator[None]:
    """Record per-step wall time of every replica the simulators create.

    Fleet requests live on the virtual clock, so their wall latencies are
    taken where the simulator talks to a replica: ``submit`` stamps the
    request, ``finish_step`` hands the step's trace and wall time to
    ``clock``.  The handles are the simulators' own; only these two calls
    are observed, nothing is altered.
    """

    def tap(handle):
        submit, finish_step = handle.submit, handle.finish_step

        def recording_submit(prompt_ids, request_id, *args, **kwargs):
            submit(prompt_ids, request_id, *args, **kwargs)
            clock.submitted(request_id, time.perf_counter())

        def recording_finish_step():
            outcome = finish_step()
            clock.step_done(outcome.trace, time.perf_counter(), outcome.wall_s)
            completed.extend(outcome.finished)
            return outcome

        handle.submit, handle.finish_step = recording_submit, recording_finish_step
        return handle

    originals = [(cls, cls.create_handle) for cls in (SerialBackend, MultiprocessBackend)]
    for cls, create_handle in originals:
        cls.create_handle = lambda self, _create=create_handle: tap(_create(self))
    try:
        yield
    finally:
        for cls, create_handle in originals:
            cls.create_handle = create_handle


class FleetWorkload(Workload):
    """A workload that is one simulator call over seeded open-loop traffic."""

    def engine_spec(self) -> EngineSpec:
        """The replica engine."""
        raise NotImplementedError

    def simulate(self, requests) -> TrafficReport:
        """Run the workload's simulator over ``requests``."""
        raise NotImplementedError

    def traffic(self, count: int, id_prefix: str):
        """``count`` requests of the workload's shape mix (ids from ``--seed``)."""
        raise NotImplementedError

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.requests = self.traffic(self.size["requests"], "t")
        self.warmup = self.traffic(self.size["warmup"], "w")

    def setup(self) -> None:
        self.warmup_report = self.simulate(self.warmup)

    def run_pass(self, index: int, simulate=None) -> PassResult:
        """One simulator call; ``simulate`` replaces ``self.simulate`` for a twin."""
        simulate = simulate or self.simulate
        clock = TokenClock()
        completed: list = []
        with tapped_backends(clock, completed), tracing.span("pass"):
            start = time.perf_counter()
            with tracing.span("traffic.run"):
                report = simulate(self.requests)
            with tracing.span("traffic.report"):
                fingerprint = report.to_json()
            wall_s = time.perf_counter() - start
        return PassResult(
            wall_s=wall_s,
            output_tokens=report.total_output_tokens,
            attempted=len(self.requests),
            failed=report.num_rejected,
            fingerprint=fingerprint,
            clock=clock,
            completed=completed,
            report=report,
            prefix_cache={key: float(report.prefix_cache.get(key, 0)) for key in PREFIX_COUNTERS},
        )

    def verify(self, passes: list[PassResult]) -> int:
        """Reports of identical runs must be byte-identical."""
        return sum(1 for result in passes[1:] if result.fingerprint != passes[0].fingerprint)

    def recall_at_budget(self) -> float:
        spec = self.engine_spec()
        budgeted = [
            Req(item.request_id, item.prompt_ids, item.max_new_tokens, item.policy)
            for item in self.requests[:8]
        ]
        return measure_recall(spec, spec.build_model(), budgeted)


def shaped_traffic(count: int, id_prefix: str, arrivals, shapes: list[RequestShape]):
    """Requests whose shape draws come from STRUCTURE_SEED and ids from ``seed``.

    ``generate_traffic`` draws shape, length and content from one
    generator; the shapes here carry a ``prompt_sampler`` that takes the
    content from a second, ``--seed``-ed generator instead, so lengths,
    classes and arrival instants stay the same for every seed.
    """
    times = arrivals.times(count, seed=STRUCTURE_SEED)
    return generate_traffic(
        shapes, times, vocab_size=VOCAB, seed=STRUCTURE_SEED, id_prefix=id_prefix
    )


class FleetElastic(FleetWorkload):
    name = "fleet_elastic"
    why = (
        "every serving feature composed under the cluster event loop: autoscaler, "
        "admission, prefix-affine routing, chunked prefill, preemption, failures"
    )
    sizes = {
        "full": {
            "requests": 64,
            "warmup": 16,
            "rate": 0.5,
            "body_len": (32, 192),
            "new_tokens": 32,
            "capacity_tokens": 4096,
            "failures_at": (0.3, 0.6),
        },
        "smoke": {
            "requests": 10,
            "warmup": 4,
            "rate": 1.0,
            "body_len": (8, 24),
            "new_tokens": 4,
            "capacity_tokens": 4096,
            "failures_at": (0.5,),
        },
    }
    PREAMBLES = 4
    PREAMBLE_LEN = 128
    BLOCK = 32

    def traffic(self, count: int, id_prefix: str):
        # A preamble's first block is the same for every seed: the
        # prefix-affine router hashes it, so replica placement (and with it
        # the work of a pass) must not depend on --seed.
        structure = np.random.default_rng(STRUCTURE_SEED)
        content = np.random.default_rng(self.seed)
        preambles = [
            np.concatenate(
                [
                    token_ids(structure, self.BLOCK),
                    token_ids(content, self.PREAMBLE_LEN - self.BLOCK),
                ]
            )
            for _ in range(self.PREAMBLES)
        ]

        def sampler(rng: np.random.Generator, length: int) -> np.ndarray:
            head = preambles[int(rng.integers(len(preambles)))]
            return np.concatenate([head, token_ids(content, length)])

        shapes = [
            RequestShape(
                prompt_len_range=self.size["body_len"],
                max_new_tokens=self.size["new_tokens"],
                weight=weight,
                slo_class=slo_class,
                prompt_sampler=sampler,
            )
            for slo_class, weight in (("interactive", 0.6), ("batch", 0.4))
        ]
        arrivals = build_arrivals("onoff", rate=self.size["rate"], burstiness=4.0)
        return shaped_traffic(count, id_prefix, arrivals, shapes)

    def engine_spec(self) -> EngineSpec:
        return EngineSpec(
            model=MODEL,
            policy=serving_policy_spec("clusterkv"),
            budget=48,
            max_new_tokens=self.size["new_tokens"],
            num_full_layers=1,
            num_sink_tokens=8,
            max_batch_size=4,
            max_prefills_per_step=4,
            prefill_chunk_tokens=128,
            prefix_cache_tokens=2048,
            prefix_block_tokens=self.BLOCK,
            preemption=True,
            kv_capacity_tokens=self.size["capacity_tokens"],
        )

    def simulate(self, requests) -> TrafficReport:
        # Replica kills at fixed fractions of the arrival horizon.
        horizon_s = requests[-1].arrival_time_s
        config = ClusterConfig(
            engine=self.engine_spec(),
            min_replicas=2,
            max_replicas=6,
            autoscaler="queue_depth:high=2,low=0.25,cooldown_s=2",
            admission="token_budget",
            # Virtual-clock deadlines at which 50-90 % of this traffic conforms.
            slo=SLOSpec(ttft_s=15.0, tpot_s=0.35),
            failures=FailurePlan(
                events=tuple(
                    FailureEvent(time_s=share * horizon_s, slot=k)
                    for k, share in enumerate(self.size["failures_at"])
                )
            ),
            checkpoint_interval_s=5.0,
        )
        return simulate_cluster(
            requests, config, router=PrefixAffineRouter(block_tokens=self.BLOCK)
        )


class FleetMP(FleetWorkload):
    name = "fleet_mp"
    why = (
        "static 4-replica fleet on the multiprocess backend: the only workload "
        "where execbackend RPC/IPC and pool start-up do work"
    )
    sizes = {
        "full": {
            "requests": 64,
            "warmup": 16,
            "prompt_len": (64, 256),
            "new_tokens": 32,
            "replicas": 4,
        },
        "smoke": {
            "requests": 8,
            "warmup": 4,
            "prompt_len": (16, 32),
            "new_tokens": 4,
            "replicas": 2,
        },
    }

    def traffic(self, count: int, id_prefix: str):
        content = np.random.default_rng(self.seed)
        shapes = [
            RequestShape(
                prompt_len_range=self.size["prompt_len"],
                max_new_tokens=self.size["new_tokens"],
                prompt_sampler=lambda rng, length: token_ids(content, length),
            )
        ]
        # Saturated: every request is waiting long before a replica frees up.
        arrivals = build_arrivals("constant", rate=1000.0)
        return shaped_traffic(count, id_prefix, arrivals, shapes)

    def engine_spec(self) -> EngineSpec:
        return EngineSpec(
            model=MODEL,
            policy=serving_policy_spec("clusterkv"),
            budget=48,
            max_new_tokens=self.size["new_tokens"],
            num_full_layers=1,
            num_sink_tokens=8,
            max_batch_size=8,
            max_prefills_per_step=8,
        )

    def config(self) -> TrafficConfig:
        return TrafficConfig(
            engine=self.engine_spec(), num_replicas=self.size["replicas"], router="jsq"
        )

    def simulate(self, requests) -> TrafficReport:
        return simulate(requests, self.config(), workers=min(2, os.cpu_count() or 1))

    def simulate_serial(self, requests) -> TrafficReport:
        """The serial twin: same traffic and fleet, stepped in this process."""
        return simulate(requests, self.config())

    def verify(self, passes: list[PassResult]) -> int:
        """Also: the multiprocess report must equal its serial twin's.

        The twin runs the warm-up traffic (a full-size twin is a third of
        the run); the traced run compares the full-size twin as well.
        """
        twin = self.simulate_serial(self.warmup)
        mismatch = int(twin.to_json() != self.warmup_report.to_json())
        return super().verify(passes) + mismatch


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LongCtxIngest, LongDocQA, ChatMixed, FleetElastic, FleetMP)
}
