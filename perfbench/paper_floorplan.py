"""Workload ``paper-floorplan``: the Table II protocol on the SDR design,
then the run-time stack on a relocation-aware floorplan.

One round runs the [8] tessellation baseline once, the [10] floorplanner
(HO, no relocation) on SDR four times and the relocation-aware floorplanner
(PA, HO) on SDR2 once, in the order SDR, SDR, SDR2, SDR, SDR; every solve
goes through ``FloorplanSolver.solve`` with the wasted-frames objective and
``mip_gap=0.02``, the protocol of ``benchmarks/conftest.py``.  The [10] SDR
solve is the workload's light operation, the PA SDR2 solve its heavy one.
The round ends with :class:`online_sim.OnlineStack`: a relocation-aware
mini-SDR solve, then simulations and capacity plans on that floorplan,
whose traffic, fault and capacity streams ``--seed`` draws (the SDR
instance itself has no random part).

Set-up builds the inputs and makes one SDR solve, so that the first timed
solve does not pay for first-use work (about 0.7 s here).  A traced round
collects the solver's own stage records around each solve and then times
``HOSeeder.build_seed`` for each solve on its own.
"""

from __future__ import annotations

import time

from checks import (
    SDR_TABLE_I_FRAMES,
    DeviceView,
    check_floorplan,
    region_rects,
    region_requirements,
    required_frames,
    wasted_frames,
)
from repro.baselines.tessellation import tessellation_floorplan
from repro.floorplan import FloorplanSolver, ObjectiveWeights
from repro.floorplan.ho import HOSeeder, HOSeedError
from repro.floorplan.metrics import evaluate_floorplan
from repro.milp import SolveStatus, SolverOptions
from repro.obs.trace import collect_stages
from repro.workloads import sdr2_spec, sdr_problem

from online_sim import OnlineStack

MIP_GAP = 0.02
OPTIONS = SolverOptions(time_limit=90.0, mip_gap=MIP_GAP)
WEIGHTS = ObjectiveWeights(wirelength=0.0, wasted_frames=1.0)
SDR2_AREAS = 6  # two free-compatible areas for each of three relocatable regions
SETUP_REPS = 3
#: the solves of one round; an SDR solve takes ~2 s, SDR2 ~15 s
ROUND = ("sdr", "sdr", "sdr2", "sdr", "sdr")
OP = {"sdr": "light", "sdr2": "heavy"}


class Inputs:
    def __init__(self) -> None:
        self.problem = sdr_problem()
        self.specs = {"sdr": None, "sdr2": sdr2_spec()}
        self.view = DeviceView(self.problem.device)
        self.requirements = region_requirements(self.problem)
        self.usable_frames = self.view.usable_frames()


def _limit_failure(solution) -> str | None:
    """Why a solve counts as failed: it did not prove its gap within the limit."""
    if solution.status is not SolveStatus.OPTIMAL:
        return f"status {solution.status.value} after {solution.solve_time:.1f}s"
    if solution.solve_time >= OPTIONS.time_limit:
        return f"ran to its {OPTIONS.time_limit}s limit"
    return None


def _solve(bench, inputs: Inputs, name: str, phase: str = "solves"):
    """One ``FloorplanSolver.solve``; returns ``(seconds, report)`` or ``None``.

    In a traced round the solver's stage records go to ``stages``.
    """
    solver = FloorplanSolver(
        inputs.problem, relocation=inputs.specs[name], mode="HO", options=OPTIONS
    )
    stages = []
    try:
        if bench.traced:
            with collect_stages() as stages:
                start = time.perf_counter()
                report = solver.solve(weights=WEIGHTS)
                seconds = time.perf_counter() - start
        else:
            start = time.perf_counter()
            report = solver.solve(weights=WEIGHTS)
            seconds = time.perf_counter() - start
    except HOSeedError as exc:
        bench.count(phase, failure=f"{name}: HOSeedError {exc}")
        return None
    failure = _limit_failure(report.solution)
    bench.count(phase, failure=f"{name}: {failure}" if failure else None)
    if failure:
        return None
    report.stages = stages
    return seconds, report


def _check_solve(bench, inputs: Inputs, name: str, report, areas: int) -> int:
    """Checks every solve must pass; returns the independently counted waste."""
    encoded = report.floorplan.to_dict()
    claimed = report.metrics.wasted_frames if report.metrics is not None else None
    bench.expect_none(
        check_floorplan(
            inputs.view, inputs.requirements, encoded, claimed_waste=claimed,
            expected_areas=areas,
        ),
        name,
    )
    solution = report.solution
    bench.expect(solution.gap <= MIP_GAP, f"{name}: reported gap {solution.gap} > {MIP_GAP}")
    waste = wasted_frames(inputs.view, inputs.requirements, region_rects(encoded))
    # with wasted frames as the only objective term, objective * Rmax is the waste
    bench.expect(
        abs(solution.objective * inputs.usable_frames - waste) < 1e-6 * inputs.usable_frames,
        f"{name}: objective {solution.objective} is not {waste} frames / {inputs.usable_frames}",
    )
    return waste


def _setup() -> Inputs:
    """Inputs, and one SDR solve to get first-use work out of the timed rounds."""
    inputs = Inputs()
    FloorplanSolver(inputs.problem, mode="HO", options=OPTIONS).solve(weights=WEIGHTS)
    return inputs


def run(bench) -> None:
    inputs = bench.timed_setup(_setup, SETUP_REPS)[-1]
    table_i = sum(required_frames(req) for req in inputs.requirements.values())
    bench.expect(table_i == SDR_TABLE_I_FRAMES, f"SDR needs {table_i} frames, Table I says 4202")

    online = OnlineStack(bench.seed)
    while bench.next_round():
        start = time.perf_counter()
        baseline = tessellation_floorplan(inputs.problem)
        bench.detail("tessellation_s", time.perf_counter() - start, "s")
        ok = baseline is not None and baseline.is_complete
        bench.count("baseline", failure=None if ok else "[8] placed no complete floorplan")

        solved = {"sdr": [], "sdr2": []}
        for name in ROUND:
            outcome = _solve(bench, inputs, name)
            if outcome is not None:
                solved[name].append(outcome)
                bench.op(OP[name], outcome[0])
                bench.detail(f"{name}_solve_s", outcome[0], "s")

        for _, report in solved["sdr"]:
            _check_solve(bench, inputs, "sdr", report, areas=0)
        for _, report in solved["sdr2"]:
            _check_solve(bench, inputs, "sdr2", report, areas=SDR2_AREAS)
        totals = {}
        ho_seed_s = online.round(bench, totals)
        if bench.traced:
            _traced_round(bench, inputs, solved, totals, ho_seed_s)
        bench.settle()
        if not solved["sdr"]:
            continue
        bound = solved["sdr"][-1][1].solution.bound * inputs.usable_frames
        if ok:
            encoded = baseline.to_dict()
            bench.expect_none(
                check_floorplan(inputs.view, inputs.requirements, encoded,
                                claimed_waste=evaluate_floorplan(baseline).wasted_frames),
                "[8]",
            )
            base_waste = wasted_frames(inputs.view, inputs.requirements, region_rects(encoded))
            bench.expect(base_waste >= bound - 1e-6,
                         f"[8] wastes {base_waste} frames, below SDR's proven bound {bound}")
        for _, report in solved["sdr2"]:
            sdr2_waste = wasted_frames(
                inputs.view, inputs.requirements, region_rects(report.floorplan.to_dict())
            )
            bench.expect(sdr2_waste >= bound - 1e-6,
                         f"SDR2 wastes {sdr2_waste} frames, below SDR's proven bound {bound}")


def _traced_round(bench, inputs: Inputs, solved, totals, ho_seed_s: float) -> None:
    """Solver layers of the round: stage records, plus the HO seed timed apart,
    added to the online solve's ``totals`` and ``ho_seed_s``."""
    for name, outcomes in solved.items():
        for seconds, report in outcomes:
            bench.stages(report.stages, totals)
            start = time.perf_counter()
            HOSeeder(inputs.problem).build_seed(spec=inputs.specs[name], heuristic="tessellation")
            seed_s = time.perf_counter() - start
            ho_seed_s += seed_s
            bench.detail(f"{name}.floorplan.ho_seed_ms", seed_s * 1e3, "ms")
            covered = 0.0
            for record in report.stages:
                if record["name"] in bench.STAGES:
                    bench.detail(f"{name}.{record['name']}_ms", record["seconds"] * 1e3, "ms")
                    covered += record["seconds"]
            bench.detail(f"{name}.uncovered_share", 1.0 - covered / seconds, "ratio")
            bench.detail(f"{name}.milp.nodes", report.solution.node_count, "count")
    bench.round_stages(totals, ho_seed_s)
