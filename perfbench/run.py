"""The repository's benchmark: one command, two workloads, checked outputs.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper-floorplan --seed 1 --seconds 20 --trace 0

Every workload times two operations, a light one and a heavy one (see
README.md), so all of them print the same metrics: ``--trace 0`` prints
``setup_s``, ``light_op_ms`` and ``heavy_op_ms``; ``--trace 1`` the solver
stage times and the tracing overhead of each operation.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it break the counts down by
phase, list any check that failed and give the workload's own figures
(``detail <name> <value> <unit>``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload name -> module in this directory that runs it
WORKLOADS = {
    "paper-floorplan": "paper_floorplan",
    "serve": "serve",
}

OPS = ("light", "heavy")
#: solver stages, as ``repro.obs.trace.collect_stages`` and the gateway name them
STAGES = ("floorplan.build", "milp.presolve", "milp.search", "floorplan.postsolve")
END_TO_END = ("setup_s", "light_op_ms", "heavy_op_ms")
PER_LAYER = (
    ("floorplan.ho_seed_ms",)
    + tuple(f"{stage}_ms" for stage in STAGES)
    + tuple(f"{op}_op.trace_overhead_share" for op in OPS)
)


class Bench:
    """State of one benchmark run: arguments, counts, checks and metrics."""

    STAGES = STAGES

    def __init__(self, seed: int, seconds: float, trace: bool, import_s: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.import_s = import_s
        self.root = ROOT
        self.work_dir = ROOT / ".perfbench-work" / str(os.getpid())
        self.phases: Dict[str, Dict[str, int]] = {}
        self.violations: List[str] = []
        self.setup_times: List[float] = []
        #: op -> traced? -> seconds of each timed operation
        self.op_times: Dict[str, Dict[bool, List[float]]] = {
            op: {False: [], True: []} for op in OPS
        }
        #: per-layer metric -> (unit, one value per traced round)
        self.layers: Dict[str, Tuple[str, List[float]]] = {}
        #: workload-specific figures printed as ``detail`` lines: name -> (unit, values)
        self.details: Dict[str, Tuple[str, List[float]]] = {}
        self.rounds = 0
        self._started: Optional[float] = None

    # -- rounds --------------------------------------------------------
    def next_round(self, minimum: int = 1) -> bool:
        """Whether to run another round; starts the clock on the first call.

        Runs whole rounds until ``seconds`` have passed: at least
        ``minimum``, and two in a traced run, whose even rounds are traced
        and odd ones not (see :meth:`traced`), so that it can compare the two.
        """
        if self._started is None:
            self._started = time.perf_counter()
        minimum = max(minimum, 2 if self.trace else 1)
        if self.rounds >= minimum and time.perf_counter() - self._started >= self.seconds:
            return False
        self.rounds += 1
        return True

    @property
    def traced(self) -> bool:
        """Whether the current round is a traced one."""
        return self.trace and self.rounds % 2 == 0

    # -- counting ------------------------------------------------------
    def count(self, phase: str, failure: Optional[str] = None, tag: Optional[str] = None) -> None:
        """One attempted operation of ``phase``, failed when ``failure`` says why.

        ``tag`` adds a per-phase tally (an HTTP status, say) to the summary.
        """
        entry = self.phases.setdefault(phase, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        if tag is not None:
            entry[tag] = entry.get(tag, 0) + 1
        if failure is not None:
            entry["failed"] += 1
            print(f"failed {phase}: {failure}", flush=True)

    def expect(self, condition: bool, message: str) -> bool:
        """Record a failed output check; returns ``condition``."""
        if not condition:
            self.violations.append(message)
        return condition

    def expect_none(self, errors: Sequence[str], context: str) -> bool:
        for error in errors:
            self.violations.append(f"{context}: {error}")
        return not errors

    # -- measurements --------------------------------------------------
    def op(self, op: str, seconds: float) -> None:
        """One timed light or heavy operation of the current round."""
        self.op_times[op][self.traced].append(seconds)

    def layer(self, name: str, value: float, unit: str) -> None:
        """One traced round's value of a per-layer metric."""
        self.layers.setdefault(name, (unit, []))[1].append(float(value))

    def detail(self, name: str, value: float, unit: str) -> None:
        """One value of a workload-specific figure; its median is printed."""
        self.details.setdefault(name, (unit, []))[1].append(float(value))

    def stages(self, records, totals: Dict[str, float]) -> None:
        """Add solver stage records (``collect_stages`` or gateway spans) to
        ``totals``, in seconds by stage name."""
        for record in records:
            if record["name"] in STAGES:
                totals[record["name"]] = totals.get(record["name"], 0.0) + float(
                    record["seconds"]
                )

    def round_stages(self, totals: Dict[str, float], ho_seed_s: float) -> None:
        """The solver layers of one traced round, summed over its solves."""
        self.layer("floorplan.ho_seed_ms", ho_seed_s * 1e3, "ms")
        for stage in STAGES:
            self.layer(f"{stage}_ms", totals.get(stage, 0.0) * 1e3, "ms")

    def settle(self) -> None:
        """Collect garbage between timed operations, in every round alike.

        A traced round makes untimed calls between its operations; left
        alone, the cycle collector frees their garbage during the next timed
        operation (a plan after the traced round's eight extra fleet
        simulations took ~25 % longer).  Collecting at the same points in
        untraced rounds keeps the two comparable.
        """
        gc.collect()

    def timed_setup(self, build, reps: int):
        """Run ``build()`` ``reps`` times, timing each; returns every result.

        ``setup_s`` is the import time plus the median of these timings.
        """
        results = []
        for _ in range(reps):
            start = time.perf_counter()
            results.append(build())
            self.setup_times.append(time.perf_counter() - start)
        return results

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    # -- result --------------------------------------------------------
    def _metrics(self) -> Dict[str, Dict[str, object]]:
        from checks import median

        metrics: Dict[str, Dict[str, object]] = {}

        def put(name: str, value: float, unit: str) -> None:
            metrics[name] = {"value": float(value), "unit": unit}

        if not self.trace:
            if self.setup_times:
                put("setup_s", self.import_s + median(self.setup_times), "s")
            for op in OPS:
                if self.op_times[op][False]:  # empty only when every such op failed
                    put(f"{op}_op_ms", median(self.op_times[op][False]) * 1e3, "ms")
            return metrics
        for name, (unit, values) in self.layers.items():
            put(name, median(values), unit)
        for op in OPS:
            traced, untraced = self.op_times[op][True], self.op_times[op][False]
            if traced and untraced:
                put(f"{op}_op.trace_overhead_share", median(traced) / median(untraced) - 1, "ratio")
        return metrics

    def emit(self) -> None:
        from checks import median

        metrics = self._metrics()
        expected = PER_LAYER if self.trace else END_TO_END
        missing = [name for name in expected if name not in metrics]
        self.expect(not missing, f"no value for {', '.join(missing)}")
        for phase, entry in sorted(self.phases.items()):
            print(f"phase {phase}: " + json.dumps(entry, sort_keys=True), flush=True)
        for name, (unit, values) in sorted(self.details.items()):
            print(f"detail {name} {median(values):.6g} {unit} (n={len(values)})", flush=True)
        for message in self.violations[:20]:
            print(f"check failed: {message}", flush=True)
        if len(self.violations) > 20:
            print(f"... {len(self.violations) - 20} more failed checks", flush=True)
        attempted = sum(entry["attempted"] for entry in self.phases.values())
        failed = sum(entry["failed"] for entry in self.phases.values())
        print(
            json.dumps(
                {
                    "correct": not self.violations and attempted > 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {name: metrics[name] for name in expected if name in metrics},
                }
            ),
            flush=True,
        )


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    On a small shared virtual machine the CPUs run at different speeds, and
    a thread woken on an idle CPU waits for the host to schedule it: a
    single-threaded run's speed then depends on where the scheduler placed
    it, and a gateway request hopping between threads on two CPUs paid that
    wake-up several times over (hit p50 3.3-7.8 ms across ten runs).
    """
    if hasattr(os, "sched_getaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _exit_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into ``SystemExit`` so that cleanup (stopping the
    gateway, removing scratch files) runs when the run is cut short."""
    sys.exit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    pin_to_one_cpu()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOADS[args.workload])
    bench = Bench(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=time.perf_counter() - STARTED,
    )
    try:
        module.run(bench)
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work_dir.parent.rmdir()  # only once no other run uses it
    bench.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
