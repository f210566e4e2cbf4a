"""The four workloads: inputs, set-up, timed closed loop, output check.

Each workload function takes a :class:`Run` (seed, time or op budget,
output directory, whether to trace) and returns an :class:`Outcome`.
The timed part of every workload is a closed loop: a client sends its
next request only when the previous one answered. It is measured in
segments -- whole passes over the query pool for the Fig 16 streams,
fixed-length load blocks for the serve workloads -- and the host
reference task (:mod:`perfbench.hostref`) is sampled at idle points of
each segment. Output checks run after the timed window, untimed.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import hostref, inputs
from perfbench.serving import (
    Client,
    ServerProcess,
    children_peak_rss_mb,
    peak_rss_mb,
    reset_peak_rss,
)
from perfbench.stats import Tally

#: Match cap of the one-shot Fig 16 stream (the study's default).
ENUM_MATCH_LIMIT = inputs.FIG16_MATCH_LIMIT
#: Match cap of the parallel stream. Each of the 16 root chunks runs to
#: this cap, so at 10^5 one pass of the pool would outlast a run.
PARALLEL_MATCH_LIMIT = 10_000
#: Match cap of the serve workloads.
SERVE_MATCH_LIMIT = 1_000
#: Per-request budget; a request that runs out of it counts as failed.
BUDGET_S = 60.0
#: Times set-up is repeated in one run (the median is reported).
SETUP_REPEATS = 7
#: Host reference samples taken before each set-up and between blocks.
REF_BURST = 10
#: Length of one load block of the serve workloads.
BLOCK_S = 2.5
#: Presets of the Fig 16 stream: static order, adaptive order.
STATIC_PRESET = "GQL-opt"
ADAPTIVE_PRESET = "DP-opt"
#: Cross-check preset for queries the serve tier answers with its
#: default ("recommended", GraphQL filter and order on these queries).
CROSS_PRESET = "DP-opt"
#: Distinct queries of the Fig 16 streams, issued in whole passes.
FIG16_POOL = inputs.POOL_SIZE
SERVE_POOL = inputs.POOL_SIZE
DYNAMIC_POOL = 8
DYNAMIC_BATCH = 32
SERVER_WORKERS = 2
PARALLEL_WORKERS = 2


@dataclass
class Run:
    root: str
    seed: int
    seconds: float
    out_dir: str
    #: When set, the loop stops after these many ops instead of on time
    #: (the traced phase replays the untraced phase's op counts).
    op_counts: Optional[Dict[str, int]] = None
    spans_path: Optional[str] = None
    #: Called with "start" and "end" around the timed window.
    mark: Callable[[str], None] = lambda event: None

    def more(self, kind: str, done: int) -> bool:
        """Whether an op-count replay has ``kind`` ops left to issue."""
        return self.op_counts is None or done < self.op_counts.get(kind, 0)


@dataclass
class Outcome:
    #: Wall seconds of each set-up.
    setup_s: List[float] = field(default_factory=list)
    #: Each set-up's wall time over its paired reference process start,
    #: for set-ups that are one process start (fig16-enum).
    setup_ratios: List[float] = field(default_factory=list)
    #: Round-trip seconds and match count of every match request that
    #: completed OK.
    latencies: List[float] = field(default_factory=list)
    found: List[int] = field(default_factory=list)
    #: Host reference sampler, and the samples (seconds) it took during
    #: set-up and during the timed window.
    ref: hostref.Sampler = field(default_factory=hostref.Sampler)
    setup_samples: List[float] = field(default_factory=list)
    window_samples: List[float] = field(default_factory=list)
    mutate_latencies: List[float] = field(default_factory=list)
    #: perf_counter() at the start and end of the timed window.
    window: Tuple[float, float] = (0.0, 0.0)
    peak_rss_mb: float = 0.0
    #: Measured segments (whole passes, load blocks): (requests,
    #: matches, wall seconds, median reference sample around it).
    segments: List[Tuple[int, int, float, float]] = field(default_factory=list)
    #: Requests cancelled because the window's hard cap passed under them.
    cut: int = 0
    tally: Tally = field(default_factory=Tally)
    #: Ops issued per kind; replayed by the traced phase.
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: Wire timings of serve workloads, milliseconds.
    queue_ms: List[float] = field(default_factory=list)
    execute_ms: List[float] = field(default_factory=list)
    wire_ms: List[float] = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)
    #: Client round trips of traced serve runs: (wire id, op, start, end).
    client_spans: list = field(default_factory=list)

    def completed(self, latency: float, matches: int) -> None:
        self.latencies.append(latency)
        self.found.append(matches)

    def close_segment(self, first: int, seconds: float, samples: List[float]) -> None:
        """Record requests ``first..`` as one segment of ``seconds``,
        with the reference ``samples`` taken in and around it."""
        self.segments.append(
            (
                len(self.latencies) - first,
                sum(self.found[first:]),
                seconds,
                statistics.median(samples),
            )
        )


def _check_embeddings(tally: Tally, query, data, embeddings, what: str) -> None:
    from repro.core.verify import verify_embedding

    if not embeddings:
        tally.record(False, f"{what}: no embeddings to verify")
    for emb in embeddings:
        tally.record(verify_embedding(query, data, emb), f"{what}: bad embedding")


def _cross_count(query, data, limit: int, preset: str = CROSS_PRESET) -> int:
    import repro

    return repro.match(
        query,
        data,
        algorithm=preset,
        match_limit=limit,
        store_limit=0,
        time_limit=BUDGET_S,
    ).num_matches


def _repeat_setup(out: Outcome, start: Callable, stop: Callable):
    """Set up ``SETUP_REPEATS`` times, timing each; keeps the last one."""
    current = None
    for _ in range(SETUP_REPEATS):
        if current is not None:
            stop(current)
        out.setup_samples += out.ref.burst(REF_BURST)
        t0 = time.perf_counter()
        current = start()
        out.setup_s.append(time.perf_counter() - t0)
    return current


def _whole_passes(run: Run, out: Outcome, n: int, issue) -> None:
    """Closed loop over requests ``0..n-1`` in whole passes.

    ``issue(k, cancel)`` sends request ``k`` and returns False when the
    window closed under it (the request is then cut, not counted). A
    host reference sample precedes every request. A new pass starts
    only if one more pass like the last fits in the window, and the
    metrics cover whole passes only, so every run measures the same
    multiset of requests; each whole pass is one segment. The hard cap
    for a pass that overruns is 1.5 windows.
    """
    run.mark("start")
    started = time.perf_counter()
    cap = run.seconds * 1.5 if run.op_counts is None else run.seconds * 3
    window_closed = lambda: time.perf_counter() > started + cap  # noqa: E731
    kept, end, issued = 0, started, 0
    while True:
        pass_start = time.perf_counter()
        samples: List[float] = []
        whole = True
        for k in range(n):
            samples.append(out.ref.sample())
            if not issue(k, window_closed):
                whole = False
                break
        out.window_samples += samples
        if not whole:
            out.cut += 1
            break
        issued += n
        end = time.perf_counter()
        out.close_segment(kept, end - pass_start - sum(samples), samples)
        kept = len(out.latencies)
        if not run.more("match", issued):
            break
        if run.op_counts is None and (end - started) + (end - pass_start) > run.seconds:
            break
    if kept == 0:  # not one whole pass: keep what completed
        end = time.perf_counter()
        out.close_segment(
            0, end - started - sum(out.window_samples), out.window_samples
        )
        kept = len(out.latencies)
    del out.latencies[kept:], out.found[kept:]
    out.window = (started, end)
    out.op_counts = {"match": issued}
    run.mark("end")


def _blocks(run: Run, out: Outcome, loops: Dict[str, Callable[[int], None]]) -> None:
    """Closed-loop client threads in fixed-length load blocks.

    ``loops[name](i)`` sends that client's ``i``-th request and records
    it. Each block lasts :data:`BLOCK_S` (a request in flight at the end
    finishes in its block) and is one segment; between blocks every
    client waits with no request in flight while the host reference is
    sampled. A timed run has ``seconds / BLOCK_S`` blocks; an op-count replay runs
    blocks until every client has issued its count.
    """
    names = list(loops)
    start_gate = threading.Barrier(len(names) + 1)
    end_gate = threading.Barrier(len(names) + 1)
    state = {"end": 0.0, "stop": False}
    issued = {name: 0 for name in names}
    errors: List[BaseException] = []

    def client(name: str) -> None:
        step, i = loops[name], 0
        try:
            while True:
                start_gate.wait()
                if state["stop"]:
                    break
                while time.perf_counter() < state["end"] and run.more(name, i):
                    step(i)
                    i += 1
                    issued[name] = i
                end_gate.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # re-raised by the main thread
            errors.append(exc)
            start_gate.abort()
            end_gate.abort()

    threads = [threading.Thread(target=client, args=(n,)) for n in names]
    for t in threads:
        t.start()
    blocks = max(1, round(run.seconds / BLOCK_S))
    started = end = time.perf_counter()
    try:
        before = out.ref.burst(REF_BURST)
        out.window_samples += before
        run.mark("start")
        started = end = time.perf_counter()
        k = 0
        while True:
            if run.op_counts is None:
                if k == blocks:
                    break
            elif not any(run.more(n, issued[n]) for n in names):
                break
            first = len(out.latencies)
            t0 = time.perf_counter()
            state["end"] = t0 + BLOCK_S
            start_gate.wait()
            end_gate.wait()
            end = time.perf_counter()
            after = out.ref.burst(REF_BURST)
            out.window_samples += after
            out.close_segment(first, end - t0, before + after)
            before = after
            k += 1
        run.mark("end")
        state["stop"] = True
        start_gate.wait()
    except threading.BrokenBarrierError:
        pass
    finally:
        start_gate.abort()
        end_gate.abort()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    out.window = (started, end)
    out.op_counts = dict(issued)


# ----------------------------------------------------------------------
# fig16-enum: one-shot match(), presets alternating
# ----------------------------------------------------------------------


def _import_setup(run: Run, out: Outcome) -> None:
    """Set up one-shot match() ``SETUP_REPEATS`` times: a fresh
    interpreter that imports ``repro`` (it needs nothing else before its
    first call), each paired with a reference start
    (:func:`hostref.import_sample`)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(run.root, "src"))
    for _ in range(SETUP_REPEATS):
        ref = hostref.import_sample(run.root)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, cwd=run.root, check=True
        )
        out.setup_s.append(time.perf_counter() - t0)
        out.setup_ratios.append(out.setup_s[-1] / ref)


def fig16_enum(run: Run) -> Outcome:
    import repro

    data = inputs.data_graph()
    pool = inputs.queries(data, run.seed, FIG16_POOL)
    out = Outcome()
    reset_peak_rss()
    _import_setup(run, out)
    presets = (STATIC_PRESET, ADAPTIVE_PRESET)
    counts: Dict[Tuple[int, str], int] = {}

    def issue(k: int, cancel) -> bool:
        qi, preset = k // 2, presets[k % 2]
        t0 = time.perf_counter()
        result = repro.match(
            pool[qi],
            data,
            algorithm=preset,
            match_limit=ENUM_MATCH_LIMIT,
            store_limit=0,
            time_limit=BUDGET_S,
            cancel=cancel,
        )
        elapsed = time.perf_counter() - t0
        if not result.solved and cancel():
            return False
        if out.tally.record(result.solved, "unsolved"):
            out.completed(elapsed, result.num_matches)
        counts[(qi, preset)] = result.num_matches
        return True

    _whole_passes(run, out, 2 * len(pool), issue)
    out.peak_rss_mb = peak_rss_mb()

    # Output check: each query's count under GQL-opt equals DP-opt's
    # (different filter and order); the stream ran most pairs already.
    for qi in sorted({q for q, _ in counts}):
        for preset, other in (presets, presets[::-1]):
            if (qi, preset) in counts and (qi, other) not in counts:
                counts[(qi, other)] = _cross_count(
                    pool[qi], data, ENUM_MATCH_LIMIT, other
                )
        out.tally.record(
            counts[(qi, presets[0])] == counts[(qi, presets[1])],
            "count differs between presets",
        )
    for qi in sorted({q for q, _ in counts})[:3]:
        sample = repro.match(
            pool[qi], data, algorithm=STATIC_PRESET, match_limit=1000, store_limit=20
        )
        _check_embeddings(out.tally, pool[qi], data, sample.embeddings, "fig16-enum")
    return out


# ----------------------------------------------------------------------
# fig16-parallel: GQL-opt through one MatchSession(n_workers=2)
# ----------------------------------------------------------------------


def _parallel_session(data, warm_query):
    from repro import MatchSession

    # No prep cache: every pass filters and orders again, as pass one did.
    session = MatchSession(
        data, algorithm=STATIC_PRESET, n_workers=PARALLEL_WORKERS, prep_cache_size=0
    )
    # The first eligible match spawns the pool and publishes the graph.
    warm = session.match(warm_query, match_limit=1, store_limit=0)
    if not warm.metrics.counters.get("parallel.chunks"):
        raise RuntimeError("warm-up query did not run in parallel")
    return session


def fig16_parallel(run: Run) -> Outcome:
    from repro.graph.query_gen import extract_query
    from repro.parallel import shutdown_pools

    data = inputs.data_graph()
    pool = inputs.queries(data, run.seed, FIG16_POOL)
    warm_query = extract_query(data, 3, seed=run.seed)
    # Both CPUs are busy while the pool works, so sample on both.
    out = Outcome(ref=hostref.Sampler(width=PARALLEL_WORKERS))
    session = None

    def stop(old) -> None:
        old.close()
        shutdown_pools()

    reset_peak_rss()
    try:
        session = _repeat_setup(
            out, lambda: _parallel_session(data, warm_query), stop
        )

        counts: Dict[int, int] = {}

        def issue(qi: int, cancel) -> bool:
            t0 = time.perf_counter()
            result = session.match(
                pool[qi],
                match_limit=PARALLEL_MATCH_LIMIT,
                store_limit=0,
                time_limit=BUDGET_S,
                cancel=cancel,
            )
            elapsed = time.perf_counter() - t0
            if not result.solved and cancel():
                return False
            if out.tally.record(result.solved, "unsolved"):
                out.completed(elapsed, result.num_matches)
            counts[qi] = result.num_matches
            return True

        _whole_passes(run, out, len(pool), issue)
        # The session's process plus the pool workers that enumerated.
        out.peak_rss_mb = peak_rss_mb() + children_peak_rss_mb(out.ref.pids)

        for qi, n in sorted(counts.items()):
            out.tally.record(
                n == _cross_count(pool[qi], data, PARALLEL_MATCH_LIMIT),
                "parallel count differs from sequential DP-opt",
            )
        for qi in sorted(counts)[:2]:
            sample = session.match(pool[qi], match_limit=1000, store_limit=20)
            _check_embeddings(
                out.tally, pool[qi], data, sample.embeddings, "fig16-parallel"
            )
    finally:
        if session is not None:
            session.close()
        shutdown_pools()
        out.ref.close()
    return out


# ----------------------------------------------------------------------
# serve workloads: the real server in its own process
# ----------------------------------------------------------------------


def _start(run: Run, serve_args: List[str], spans: Optional[str]) -> ServerProcess:
    server = ServerProcess(
        run.root,
        ["--port", "0", "--workers", str(SERVER_WORKERS)] + serve_args,
        os.path.join(run.out_dir, "server.log"),
        spans_path=spans,
    )
    server.wait_ready()
    return server


def _match_request(query_payload: dict, tenant: str, **extra) -> dict:
    request = {
        "op": "match",
        "graph": "g",
        "tenant": tenant,
        "query": query_payload,
        "match_limit": SERVE_MATCH_LIMIT,
        "store_limit": 0,
        "budget_ms": BUDGET_S * 1000.0,
    }
    request.update(extra)
    return request


def _record_match(out: Outcome, lock: threading.Lock, response, rtt, expected):
    with lock:
        ok = out.tally.record_response(response, expected)
        if ok:
            out.completed(rtt, response["num_matches"])
            out.queue_ms.append(response["queue_ms"])
            out.execute_ms.append(response["total_ms"] - response["queue_ms"])
            out.wire_ms.append(rtt * 1000.0 - response["total_ms"])
    return ok


def _finish_server(out: Outcome, server: ServerProcess) -> None:
    client = Client(server.port)
    try:
        stats, _ = client.request({"op": "stats"})
    finally:
        client.close()
    out.server_stats = stats.get("stats", {})
    out.peak_rss_mb = server.peak_rss_mb()
    server.stop()


def serve_repeat(run: Run) -> Outcome:
    from repro.graph.store import write_rgf
    from repro.serve.protocol import graph_to_payload

    data = inputs.data_graph()
    pool = inputs.queries(data, run.seed, SERVE_POOL)
    rgf = os.path.join(run.out_dir, "data.rgf")
    write_rgf(data, rgf)
    payloads = [graph_to_payload(q) for q in pool]
    expected = [_cross_count(q, data, SERVE_MATCH_LIMIT) for q in pool]
    rng = random.Random(run.seed // inputs.SEED_BLOCK)
    tenants = ["t0", "t1"]
    orders = {t: rng.sample(range(len(pool)), len(pool)) for t in tenants}
    requests = {t: [_match_request(p, t) for p in payloads] for t in tenants}

    # The server and the client keep both CPUs busy: sample on both.
    out = Outcome(ref=hostref.Sampler(width=SERVER_WORKERS))
    args = ["--graph", f"g={rgf}"]
    server = None
    try:
        server = _repeat_setup(
            out, lambda: _start(run, args, None), ServerProcess.stop
        )
        if run.spans_path is not None:
            server.stop()
            server = _start(run, args, run.spans_path)

        # Warm-up: every tenant sees every pool query once, so timed
        # requests are plan and prep cache hits. Embeddings are checked.
        for tenant in tenants:
            client = Client(server.port)
            try:
                for qi, payload in enumerate(payloads):
                    response, _ = client.request(
                        _match_request(
                            payload, tenant, store_limit=20, include_embeddings=True
                        )
                    )
                    out.tally.record_response(response, expected[qi])
                    _check_embeddings(
                        out.tally,
                        pool[qi],
                        data,
                        [tuple(e) for e in response.get("embeddings", [])],
                        "serve-repeat",
                    )
            finally:
                client.close()

        lock = threading.Lock()
        traced_spans = out.client_spans if run.spans_path else None
        clients = {t: Client(server.port, spans=traced_spans) for t in tenants}

        def loop(tenant: str):
            order = orders[tenant]

            def step(i: int) -> None:
                qi = order[i % len(order)]
                response, rtt = clients[tenant].request(requests[tenant][qi])
                _record_match(out, lock, response, rtt, expected[qi])

            return step

        try:
            _blocks(run, out, {t: loop(t) for t in tenants})
        finally:
            for client in clients.values():
                client.close()
        _finish_server(out, server)
        server = None
    finally:
        if server is not None:
            server.stop()
        out.ref.close()
    return out


def serve_dynamic(run: Run) -> Outcome:
    from repro.dynamic.mutations import Mutation
    from repro.dynamic.overlay import DynamicGraph
    from repro.serve.protocol import graph_to_payload

    data = inputs.data_graph()
    pool = inputs.queries(data, run.seed, DYNAMIC_POOL)
    script = inputs.mutation_script(data, run.seed, 2000, DYNAMIC_BATCH)
    add_line = (
        json.dumps(
            {
                "op": "add_graph",
                "name": "g",
                "graph": graph_to_payload(data),
                "dynamic": True,
            },
            separators=(",", ":"),
        )
        + "\n"
    ).encode()
    payloads = [graph_to_payload(q) for q in pool]
    match_requests = [_match_request(p, "t0") for p in payloads]
    rng = random.Random(run.seed // inputs.SEED_BLOCK)
    order = rng.sample(range(len(pool)), len(pool))

    # The server and the client keep both CPUs busy: sample on both.
    out = Outcome(ref=hostref.Sampler(width=SERVER_WORKERS))
    server = None

    def start(spans):
        s = _start(run, [], spans)
        client = Client(s.port)
        try:
            response = client.send_raw(add_line)
        finally:
            client.close()
        if not response.get("ok"):
            s.stop()
            raise RuntimeError(f"add_graph failed: {response}")
        return s

    try:
        server = _repeat_setup(out, lambda: start(None), ServerProcess.stop)
        if run.spans_path is not None:
            server.stop()
            server = start(run.spans_path)

        lock = threading.Lock()
        traced_spans = out.client_spans if run.spans_path else None
        epochs_seen: List[Tuple[int, int, int]] = []  # (epoch, qi, count)
        mutate_epochs: List[int] = []
        writer = Client(server.port, spans=traced_spans)
        reader = Client(server.port, spans=traced_spans)

        def mutate(i: int) -> None:
            response, rtt = writer.request(
                {"op": "mutate", "graph": "g", "mutations": script[i]}
            )
            with lock:
                if out.tally.record_response(response):
                    out.mutate_latencies.append(rtt)
                mutate_epochs.append(response.get("epoch", -1))

        def match(i: int) -> None:
            qi = order[i % len(order)]
            response, rtt = reader.request(match_requests[qi])
            if _record_match(out, lock, response, rtt, None):
                epochs_seen.append((response["epoch"], qi, response["num_matches"]))

        try:
            _blocks(run, out, {"mutate": mutate, "match": match})
        finally:
            writer.close()
            reader.close()
        issued = out.op_counts

        # Embeddings at the final epoch, checked after the replay below.
        final: List[Tuple[int, dict]] = []
        client = Client(server.port)
        try:
            for qi, payload in enumerate(payloads[:3]):
                response, _ = client.request(
                    _match_request(payload, "t0", store_limit=20, include_embeddings=True)
                )
                out.tally.record_response(response)
                final.append((qi, response))
        finally:
            client.close()
        _finish_server(out, server)
        server = None

        # Output check: replay the script on a local DynamicGraph; the
        # server's epochs must match, and sampled (epoch, query) counts
        # must equal one-shot DP-opt on that epoch's snapshot.
        applied = issued["mutate"]
        sample_rng = random.Random(run.seed + 1)
        sample = sample_rng.sample(epochs_seen, min(6, len(epochs_seen)))
        wanted: Dict[int, List[Tuple[int, int]]] = {}
        for epoch, qi, count in sample:
            wanted.setdefault(epoch, []).append((qi, count))
        local = DynamicGraph(data)

        def check_epoch(epoch: int) -> None:
            for qi, count in wanted.pop(epoch, ()):
                out.tally.record(
                    count == _cross_count(pool[qi], local.snapshot(), SERVE_MATCH_LIMIT),
                    "dynamic count differs from snapshot cross-check",
                )

        check_epoch(0)
        for k in range(applied):
            delta = local.apply([Mutation.from_json(m) for m in script[k]])
            out.tally.record(
                delta.epoch == mutate_epochs[k], "epoch differs from local replay"
            )
            check_epoch(delta.epoch)
        out.tally.record(not wanted, "sampled epoch never reached in replay")
        snap = local.snapshot()
        for qi, response in final:
            out.tally.record(
                response.get("epoch") == local.epoch, "final epoch differs"
            )
            _check_embeddings(
                out.tally,
                pool[qi],
                snap,
                [tuple(e) for e in response.get("embeddings", [])],
                "serve-dynamic",
            )
    finally:
        if server is not None:
            server.stop()
        out.ref.close()
    return out


WORKLOADS = {
    "fig16-enum": fig16_enum,
    "fig16-parallel": fig16_parallel,
    "serve-repeat": serve_repeat,
    "serve-dynamic": serve_dynamic,
}
