"""Workload ``serve``: the gateway's cache-hit and cache-miss paths over HTTP.

Set-up starts one gateway as its own process with the shipped CLI
(``python -m repro.server`` with default flags, ``--port 0`` and a fresh
``--cache-dir``), waits for ``/healthz`` with a 2 ms probe and primes a
working set of small instances drawn from ``--seed``.  One closed-loop
keep-alive client then runs rounds of a hit phase (the working set replayed
twice, in a seeded order) and a miss phase (fresh instances of the same
shape).  Latency is taken by the client around each ``/solve``; a hit is the
workload's light operation, a miss its heavy one.  The client is alone so
that a request's latency is its own path through the gateway: with two
clients a miss took one solve or two depending on whether the other
client's miss fell into the same micro-batch window, and the share of such
pairs moved the miss median by a quarter between runs.

A traced round reads the spans of its requests back from
``/debug/traces?full=1`` (the gateway traces in every run; that tracing
ships on by default), and times the decode, fingerprint, cache and HO-seed
calls in this process on the same payloads.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional

from checks import DeviceView, check_floorplan, median, percentile
from repro.device.catalog import synthetic_device
from repro.device.resources import ResourceVector
from repro.floorplan import ObjectiveWeights
from repro.floorplan.ho import HOSeeder
from repro.floorplan.problem import Connection, FloorplanProblem, Region
from repro.milp import SolverOptions
from repro.obs.trace import TRACE_HEADER, parse_trace_header
from repro.server.loadgen import GatewayClient
from repro.server.protocol import job_from_dict, job_to_dict
from repro.service.cache import SolveCache
from repro.service.jobs import SolveJob
from repro.service.results import JobResult

HOST = "127.0.0.1"
WORKING_SET = 32  # distinct instances; the gateway's in-memory LRU holds 1024
HIT_PASSES = 2
MISSES_PER_ROUND = 16
MIN_ROUNDS = 7  # 112 misses: a p90 with ten samples beyond it
SETUP_REPS = 3
PROBE_INTERVAL_S = 0.002
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
OPTIONS = SolverOptions(time_limit=20.0, mip_gap=0.02)
WEIGHTS = ObjectiveWeights(wirelength=0.0, wasted_frames=1.0)

class Instance:
    def __init__(self, payload: Dict[str, object], requirements) -> None:
        self.payload = payload
        self.requirements = requirements


class Instances:
    """Two-region instances on a 10x4 device, each with distinct content."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.device = synthetic_device(10, 4, bram_every=4, dsp_every=7, name="serve-dev")
        self.view = DeviceView(self.device)
        self._seen = set()

    def draw(self, name: str) -> Instance:
        while True:
            key = (
                self.rng.randint(2, 4),
                self.rng.randint(1, 3),
                round(self.rng.uniform(1.0, 16.0), 3),
            )
            if key not in self._seen:
                break
        self._seen.add(key)
        a_clb, b_clb, weight = key
        problem = FloorplanProblem(
            self.device,
            [
                Region("A", ResourceVector(CLB=a_clb)),
                Region("B", ResourceVector(CLB=b_clb, BRAM=1)),
            ],
            [Connection("A", "B", weight=weight)],
            name=name,
        )
        job = SolveJob(problem, mode="HO", options=OPTIONS, weights=WEIGHTS)
        return Instance(
            job_to_dict(job), {"A": {"CLB": a_clb}, "B": {"CLB": b_clb, "BRAM": 1}}
        )


class Reply:
    def __init__(self, latency: float, status: int, body, trace_id: Optional[str]) -> None:
        self.latency = latency
        self.status = status
        self.body = body if isinstance(body, dict) else {}
        self.trace_id = trace_id


class Gateway:
    """One ``python -m repro.server`` process on an ephemeral port."""

    def __init__(self, root, cache_dir) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0", "--cache-dir", str(cache_dir)],
            cwd=str(root),
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()  # printed once the listener is bound
        match = re.search(r"http://[^:\s]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"gateway did not report its port: {line!r}")
        self.port = int(match.group(1))

    async def ready(self) -> None:
        """Poll ``/healthz`` every 2 ms until it answers 200."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                async with GatewayClient(HOST, self.port) as client:
                    status, _ = await client.healthz()
                if status == 200:
                    return
            except OSError:
                pass
            await asyncio.sleep(PROBE_INTERVAL_S)
        raise RuntimeError(f"gateway on port {self.port} never became healthy")

    def stop(self) -> None:
        """SIGTERM (the gateway drains), then wait; kill if it hangs."""
        start = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if time.perf_counter() - start > 2.0:
            print(f"gateway took {time.perf_counter() - start:.1f}s to stop", file=sys.stderr)


async def _send(client: GatewayClient, payload) -> Reply:
    start = time.perf_counter()
    status, body = await client.solve(payload)
    latency = time.perf_counter() - start
    trace_id, _parent = parse_trace_header(client.last_headers.get(TRACE_HEADER.lower()))
    return Reply(latency, status, body, trace_id)


async def _phase(client: GatewayClient, payloads) -> List[Reply]:
    """Closed loop: send each payload once the previous one is answered."""
    return [await _send(client, payload) for payload in payloads]


def _check_solved(bench, phase: str, reply: Reply, instance: Instance, view, cached: bool):
    """Count one request and check its answer; returns whether it succeeded."""
    result = reply.body.get("result") or {}
    failure = None
    if reply.status != 200:
        failure = f"HTTP {reply.status}: {reply.body}"
    elif result.get("status") != "optimal" or reply.body.get("degraded"):
        failure = f"solve ended {result.get('status')} (degraded={reply.body.get('degraded')})"
    bench.count(phase, failure=failure, tag=f"status_{reply.status}")
    if failure is not None:
        return False
    bench.expect(
        reply.body.get("cached") is cached,
        f"{phase}: response cached={reply.body.get('cached')}, expected {cached}",
    )
    metrics = result.get("metrics") or {}
    claimed = metrics.get("wasted_frames")
    bench.expect_none(
        check_floorplan(
            view, instance.requirements, result.get("floorplan") or {},
            claimed_waste=None if claimed is None else int(claimed),
        ),
        f"{phase} {reply.body.get('fingerprint', '?')[:12]}",
    )
    return True


def _self_times(doc) -> Dict[str, float]:
    """Self time of each span in one trace, summed by span name (seconds)."""
    spans = doc.get("spans", [])
    children: Dict[str, List] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    out: Dict[str, float] = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["span_id"], []), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["name"]] = out.get(span["name"], 0.0) + (span["end"] - span["start"] - covered)
    return out


async def _fetch_traces(port: int, limit: int) -> Dict[str, dict]:
    async with GatewayClient(HOST, port) as client:
        status, body = await client.request("GET", f"/debug/traces?full=1&limit={limit}")
    if status != 200:
        raise RuntimeError(f"/debug/traces answered {status}")
    return {doc["trace_id"]: doc for doc in body.get("traces", [])}


def _in_process_timings(bench, working_set, reference, cache_dir) -> None:
    """Decode, fingerprint and cache calls on the working-set payloads (µs)."""
    cache = SolveCache(directory=cache_dir)
    for index, instance in enumerate(working_set):
        start = time.perf_counter()
        job = job_from_dict(instance.payload)
        decoded = time.perf_counter()
        fingerprint = job.fingerprint
        hashed = time.perf_counter()
        result = JobResult.from_dict(reference[index]["result"])
        put_start = time.perf_counter()
        cache.put(result)
        put_end = time.perf_counter()
        cache.get(fingerprint)
        got = time.perf_counter()
        for name, seconds in (
            ("protocol.job_from_dict_us", decoded - start),
            ("jobs.fingerprint_us", hashed - decoded),
            ("cache.put_us", put_end - put_start),
            ("cache.get_us", got - put_end),
        ):
            bench.detail(name, seconds * 1e6, "us")
        bench.expect(
            fingerprint == reference[index]["fingerprint"],
            "client-side fingerprint differs from the gateway's",
        )


async def _setup(bench, working_set, rep: int):
    """Start a gateway, wait until healthy, prime the working set."""
    gateway = Gateway(bench.root, bench.fresh_dir(f"cache-{rep}"))
    try:
        await gateway.ready()
        async with GatewayClient(HOST, gateway.port) as client:
            replies = await _phase(client, [inst.payload for inst in working_set])
    except BaseException:
        gateway.stop()
        raise
    return gateway, replies


async def _main(bench) -> None:
    instances = Instances(bench.seed)
    working_set = [instances.draw(f"ws-{i}") for i in range(WORKING_SET)]
    order = list(range(WORKING_SET)) * HIT_PASSES
    random.Random(bench.seed + 1).shuffle(order)

    gateway = None
    for rep in range(SETUP_REPS):
        if gateway is not None:
            gateway.stop()  # draining the previous set-up is not set-up time
        start = time.perf_counter()
        gateway, primed = await _setup(bench, working_set, rep)
        bench.setup_times.append(time.perf_counter() - start)
    try:
        reference = []
        for reply, instance in zip(primed, working_set):
            ok = _check_solved(bench, "prime", reply, instance, instances.view, cached=False)
            reference.append(reply.body if ok else None)
        if any(ref is None for ref in reference):
            return
        await _rounds(bench, gateway, instances, working_set, order, reference)
    finally:
        gateway.stop()


async def _rounds(bench, gateway, instances, working_set, order, reference) -> None:
    hit_payloads = [working_set[i].payload for i in order]
    client = await GatewayClient(HOST, gateway.port).connect()
    misses = 0
    try:
        while bench.next_round(MIN_ROUNDS):
            fresh = [instances.draw(f"miss-{misses + i}") for i in range(MISSES_PER_ROUND)]
            hits = await _phase(client, hit_payloads)
            missed = await _phase(client, [inst.payload for inst in fresh])
            misses += len(fresh)

            for reply, index in zip(hits, order):
                if _check_solved(bench, "hit", reply, working_set[index], instances.view, True):
                    bench.op("light", reply.latency)
                    ref = reference[index]
                    bench.expect(
                        reply.body.get("fingerprint") == ref["fingerprint"]
                        and reply.body["result"].get("floorplan") == ref["result"]["floorplan"],
                        f"hit on {ref['fingerprint'][:12]} returned another floorplan",
                    )
            for reply, instance in zip(missed, fresh):
                if _check_solved(bench, "miss", reply, instance, instances.view, False):
                    bench.op("heavy", reply.latency)
            if bench.traced:
                docs = await _fetch_traces(gateway.port, len(hits) + len(missed))
                _record_spans(bench, "hit", docs, hits)
                _record_spans(bench, "miss", docs, missed)
                _traced_solver(bench, docs, missed, fresh)
                _in_process_timings(
                    bench, working_set, reference, bench.fresh_dir("cache-local")
                )
            bench.settle()
    finally:
        await client.close()

    for phase, op in (("hit", "light"), ("miss", "heavy")):
        values = bench.op_times[op][False]  # untraced rounds
        if values:
            bench.detail(f"{phase}_p50_ms", percentile(values, 50) * 1e3, "ms")
            bench.detail(f"{phase}_p90_ms", percentile(values, 90) * 1e3, "ms")


def _traced_solver(bench, docs, replies, instances) -> None:
    """The solver layers of the round's misses: the gateway's stage spans,
    and ``HOSeeder.build_seed`` on each miss's problem in this process."""
    totals: Dict[str, float] = {}
    for reply in replies:
        spans = docs[reply.trace_id]["spans"]
        bench.stages(
            [{"name": s["name"], "seconds": s["end"] - s["start"]} for s in spans], totals
        )
    ho_seed_s = 0.0
    for instance in instances:
        job = job_from_dict(instance.payload)
        start = time.perf_counter()
        HOSeeder(job.problem).build_seed(spec=job.relocation, heuristic=job.heuristic)
        ho_seed_s += time.perf_counter() - start
    bench.round_stages(totals, ho_seed_s)


def _record_spans(bench, phase: str, docs, replies) -> None:
    """Median self time of each span name over ``replies``, the time outside
    the gateway's root span (``net.client_overhead``) and the share of the
    latency that no named layer covers (the root span's own self time)."""
    per_name: Dict[str, List[float]] = {}
    uncovered = []
    for reply in replies:
        doc = docs.get(reply.trace_id)
        if doc is None:
            raise RuntimeError(f"trace {reply.trace_id} was not kept by the gateway")
        self_times = _self_times(doc)
        for name, seconds in self_times.items():
            per_name.setdefault(name, []).append(seconds)
        root = next(s for s in doc["spans"] if s["name"] == "gateway.request")
        per_name.setdefault("net.client_overhead", []).append(
            reply.latency - (root["end"] - root["start"])
        )
        uncovered.append(self_times["gateway.request"] / reply.latency)
    for name, values in per_name.items():
        bench.detail(f"{phase}.{name}_ms", median(values) * 1e3, "ms")
    bench.detail(f"{phase}.uncovered_share", median(uncovered), "ratio")


def run(bench) -> None:
    asyncio.run(_main(bench))
