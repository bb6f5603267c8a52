"""The run-time stack on a relocation-aware floorplan, one round at a time.

``paper-floorplan`` ends each of its rounds with :meth:`OnlineStack.round`,
which solves ``mini_sdr_problem()`` with two hard free-compatible areas per
relocatable region and then, four times, on that floorplan:

* one ``SimulationEngine.run``: Poisson mode requests over the five
  regions, ``RelocateFirst``, and ``RandomFaults`` on the relocatable
  regions, sparse enough that every fault is relocated around (at most two
  per region, none in the first second or the last five);
* one ``plan_min_devices`` over ``DeviceProfile.from_floorplan`` of the same
  floorplan, under an SLO the profile can meet (eight fleet simulations).

Every round repeats the same inputs, which ``--seed`` draws: the traffic,
fault and capacity streams.  Their times are ``detail`` figures, with no
end-to-end metric of their own (see README.md).  A traced round collects
the solver's stage records around the solve and times
``HOSeeder.build_seed``, ``TrafficModel.generate`` and
``CapacityScenario.build(n).run()`` for each fleet size the planner tried,
each on its own.
"""

from __future__ import annotations

import contextlib
import random
import time
from collections import Counter
from typing import Dict

from checks import DeviceView, check_floorplan, percentile, region_requirements
from repro.capacity import CapacityScenario, CapacitySLO, DeviceProfile, plan_min_devices
from repro.floorplan import FloorplanSolver, ObjectiveWeights
from repro.floorplan.ho import HOSeeder
from repro.milp import SolveStatus, SolverOptions
from repro.obs.trace import collect_stages
from repro.relocation.spec import RelocationSpec
from repro.runtime import ReconfigurationManager
from repro.sim import PoissonTraffic, RandomFaults, RelocateFirst, SimConfig, SimulationEngine
from repro.workloads.sdr import mini_sdr_problem, sdr_relocatable_regions

AREAS_PER_REGION = 2
OPS_PER_ROUND = 4  # simulations and plans per round
SOLVER_OPTIONS = SolverOptions(time_limit=60, mip_gap=0.02)
WEIGHTS = ObjectiveWeights(wirelength=0.0, wasted_frames=1.0)

SIM_RATE = 40.0  # mode requests per virtual second, all regions together
SIM_HORIZON = 60.0
SIM_SECONDS_PER_FRAME = 5e-5
FAULT_RATE = 0.05
MODES_PER_REGION = 3

PLAN_RATE = 36.0
PLAN_HORIZON = 30.0
PLAN_SECONDS_PER_FRAME = 1e-3
PLAN_MAX_DEVICES = 64
SLO = CapacitySLO(max_p99_latency_s=1.0, max_blocking=0.01, min_throughput_fraction=0.95)


def _spec() -> RelocationSpec:
    return RelocationSpec.as_constraint(
        {region: AREAS_PER_REGION for region in sdr_relocatable_regions()}
    )


def _floorplan(problem=None):
    """Solve the relocation-aware mini-SDR floorplan; returns ``(problem, report)``."""
    problem = problem or mini_sdr_problem()
    report = FloorplanSolver(
        problem, relocation=_spec(), mode="HO", options=SOLVER_OPTIONS
    ).solve(weights=WEIGHTS)
    return problem, report


def _fault_seed(base: int) -> int:
    """The first seed from ``base`` whose faults all get relocated around."""
    regions = sdr_relocatable_regions()
    for seed in range(base, base + 10_000):
        events = RandomFaults(regions, rate=FAULT_RATE, seed=seed).events(SIM_HORIZON)
        per_region = Counter(event.region for event in events)
        if (
            events
            and max(per_region.values()) <= AREAS_PER_REGION
            and all(1.0 <= event.time <= SIM_HORIZON - 5.0 for event in events)
        ):
            return seed
    raise RuntimeError(f"no sparse fault plan within 10000 seeds of {base}")


class Scenario:
    """The seeded inputs of every round."""

    def __init__(self, seed: int, floorplan) -> None:
        rng = random.Random(seed)
        self.traffic_seed = rng.randrange(2**31)
        self.fault_seed = _fault_seed(rng.randrange(2**31))
        self.capacity_seed = rng.randrange(2**31)
        self.floorplan = floorplan
        self.regions = sorted(floorplan.placements)
        rects = {name: p.rect for name, p in floorplan.placements.items()}
        self.profile = DeviceProfile.from_floorplan(
            floorplan.device, rects, seconds_per_frame=PLAN_SECONDS_PER_FRAME, name="mini-sdr"
        )
        self.capacity = CapacityScenario(
            profile=self.profile, rate=PLAN_RATE, horizon=PLAN_HORIZON, seed=self.capacity_seed
        )

    def traffic(self) -> PoissonTraffic:
        return PoissonTraffic(
            self.regions, rate=SIM_RATE, modes_per_region=MODES_PER_REGION, seed=self.traffic_seed
        )

    def engine(self) -> SimulationEngine:
        return SimulationEngine(
            ReconfigurationManager(self.floorplan),
            traffic=self.traffic(),
            policy=RelocateFirst(),
            faults=RandomFaults(sdr_relocatable_regions(), rate=FAULT_RATE, seed=self.fault_seed),
            config=SimConfig(horizon=SIM_HORIZON, seconds_per_frame=SIM_SECONDS_PER_FRAME),
        )


def _check_sim(bench, scenario: Scenario, result, frames: Dict[str, int]) -> None:
    stats = result.stats
    arrivals = len(scenario.traffic().generate(SIM_HORIZON))
    served, blocked = len(stats.served), len(stats.blocked)
    bench.expect(
        served + blocked + stats.rejected_arrivals == arrivals,
        f"sim: {served} served + {blocked} blocked + {stats.rejected_arrivals} dropped "
        f"!= {arrivals} arrivals",
    )
    expected = {"reconfigure": 1, "relocate+reconfigure": 2}
    bad = 0
    for record in stats.records:
        writes = expected.get(record.action, 0) * frames[record.region]
        service = writes * SIM_SECONDS_PER_FRAME
        if record.frames != writes or record.latency < service - 1e-12 or abs(
            record.service - service
        ) > 1e-9:
            bad += 1
    bench.expect(bad == 0, f"sim: {bad} requests with frames or service time off the count")
    relocations = stats.actions().get("relocate+reconfigure", 0)
    faults = len(stats.fault_times)
    bench.expect(relocations >= 1, "sim: no fault was relocated around")
    bench.expect(
        relocations == faults and blocked == 0,
        f"sim: {faults} faults gave {relocations} relocations and {blocked} blocked requests",
    )


def _meets_slo(scenario: Scenario, num_devices: int) -> bool:
    """Re-run one fleet size and judge it with this benchmark's own arithmetic."""
    result = scenario.capacity.build(num_devices).run()
    offered = len(
        PoissonTraffic(
            scenario.profile.regions(), rate=PLAN_RATE,
            modes_per_region=scenario.capacity.modes_per_region,
            seed=scenario.capacity_seed,
        ).generate(PLAN_HORIZON)
    )
    records = result.stats.records
    served = [r.finish - r.arrival for r in records if r.ok]
    lost = offered - len(served)
    return (
        bool(served)
        and percentile(served, 99) <= SLO.max_p99_latency_s
        and lost / offered <= SLO.max_blocking
        and len(served) / offered >= SLO.min_throughput_fraction
    )


class OnlineStack:
    """Solve, simulate and plan; the first round also checks every answer."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problem = mini_sdr_problem()
        self.view = DeviceView(self.problem.device)
        self.requirements = region_requirements(self.problem)
        self.scenario = None
        self.placements = None
        self.first = None

    def round(self, bench, totals: Dict[str, float]) -> float:
        """One round; in a traced round adds the solve's stage records to
        ``totals`` and returns the HO seed's seconds (0.0 otherwise)."""
        traced = bench.traced
        start = time.perf_counter()
        with collect_stages() if traced else _no_stages() as stages:
            _, report = _floorplan(self.problem)
        bench.detail("online.floorplan_s", time.perf_counter() - start, "s")
        solved = report.solution.status is SolveStatus.OPTIMAL
        bench.count("online_floorplan", failure=None if solved else report.solution.status.value)
        if not solved:
            return 0.0
        if self.scenario is None:
            self._first_floorplan(bench, report)
        else:
            bench.expect(
                report.floorplan.to_dict()["placements"] == self.placements,
                "online: this round's floorplan differs from the first round's",
            )
        ho_seed_s = 0.0
        if traced:
            bench.stages(stages, totals)
            start = time.perf_counter()
            HOSeeder(self.problem).build_seed(spec=_spec(), heuristic="tessellation")
            ho_seed_s = time.perf_counter() - start
        bench.settle()

        for _ in range(OPS_PER_ROUND):
            engine = self.scenario.engine()
            start = time.perf_counter()
            result = engine.run()
            run_s = time.perf_counter() - start
            bench.count("sim_runs")
            bench.detail("sim_run_ms", run_s * 1e3, "ms")
            bench.detail("sim_events_per_s", result.events_processed / run_s, "1/s")

            start = time.perf_counter()
            outcome = plan_min_devices(self.scenario.capacity, SLO, max_devices=PLAN_MAX_DEVICES)
            plan_s = time.perf_counter() - start
            bench.count("plans", failure=None if outcome.min_devices else "SLO unreachable")
            bench.detail("plan_s", plan_s, "s")

            self._check(bench, result, outcome)
            if traced:
                _traced_ops(bench, self.scenario, result, run_s, outcome, plan_s)
            bench.settle()
        return ho_seed_s

    def _first_floorplan(self, bench, report) -> None:
        bench.expect_none(
            check_floorplan(
                self.view, self.requirements, report.floorplan.to_dict(),
                claimed_waste=report.metrics.wasted_frames,
                expected_areas=AREAS_PER_REGION * len(sdr_relocatable_regions()),
            ),
            "online floorplan",
        )
        self.placements = report.floorplan.to_dict()["placements"]
        self.scenario = Scenario(self.seed, report.floorplan)
        self.frames = {
            name: self.view.frames((p.rect.col, p.rect.row, p.rect.width, p.rect.height))
            for name, p in report.floorplan.placements.items()
        }

    def _check(self, bench, result, outcome) -> None:
        """Check the first simulation and plan; later ones must repeat them."""
        signature = (result.events_processed, outcome.min_devices, len(outcome.evaluations))
        if self.first is not None:
            bench.expect(signature == self.first,
                         f"online round {bench.rounds} differs: {signature} vs {self.first}")
            return
        self.first = signature
        _check_sim(bench, self.scenario, result, self.frames)
        n = outcome.min_devices
        if n:
            bench.expect(_meets_slo(self.scenario, n), f"plan: {n} devices miss the SLO")
            bench.expect(
                n == 1 or not _meets_slo(self.scenario, n - 1),
                f"plan: {n - 1} devices already meet the SLO",
            )


def _no_stages():
    return contextlib.nullcontext([])


def _traced_ops(bench, scenario: Scenario, result, run_s: float, outcome, plan_s: float) -> None:
    """Layers of one simulation and one plan, each call timed on its own."""
    start = time.perf_counter()
    scenario.traffic().generate(SIM_HORIZON)
    bench.detail("traffic.generate_ms", (time.perf_counter() - start) * 1e3, "ms")
    bench.detail("engine.run_ms", run_s * 1e3, "ms")
    bench.detail("sim.events", result.events_processed, "count")
    bench.detail("sim.relocations", result.stats.actions().get("relocate+reconfigure", 0), "count")
    fleet_s, events = 0.0, 0
    for evaluation in outcome.evaluations:
        start = time.perf_counter()
        fleet = scenario.capacity.build(evaluation.num_devices).run()
        fleet_s += time.perf_counter() - start
        events += fleet.events_processed
    bench.detail("capacity.fleet_run_ms", fleet_s * 1e3, "ms")
    bench.detail("capacity.evaluations", len(outcome.evaluations), "count")
    bench.detail("capacity.events", events, "count")
    bench.detail("plan.uncovered_share", 1.0 - fleet_s / plan_s, "ratio")
