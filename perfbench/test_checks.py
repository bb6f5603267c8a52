"""The benchmark's floorplan checker accepts a good floorplan and rejects bad ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from checks import (  # noqa: E402
    SDR_TABLE_I_FRAMES,
    DeviceView,
    check_floorplan,
    percentile,
    region_requirements,
    required_frames,
)
from repro.device.grid import FPGADevice, ForbiddenRect  # noqa: E402
from repro.device.tile import BRAM, CLB  # noqa: E402

# columns: 0 CLB, 1 CLB, 2 BRAM, 3 CLB, 4 CLB, 5 BRAM, 6 CLB, 7 CLB; four rows;
# cells (6..7, 2..3) forbidden
DEVICE = FPGADevice.from_columns(
    "test-dev",
    [CLB, CLB, BRAM, CLB, CLB, BRAM, CLB, CLB],
    height=4,
    forbidden=[ForbiddenRect("HB", 6, 2, 2, 2)],
)
REQUIREMENTS = {"R": {"CLB": 3, "BRAM": 2}, "S": {"CLB": 2}}
WASTE = 36  # R covers 4 CLB + 2 BRAM tiles for 3 CLB + 2 BRAM; S is exact


def place(col, row, width, height, compatible_with=None):
    return {"col": col, "row": row, "width": width, "height": height,
            "compatible_with": compatible_with, "satisfied": True}


def floorplan(**changes):
    encoded = {
        "placements": {"R": place(0, 0, 3, 2), "S": place(6, 0, 1, 2)},
        "free_areas": {"R#1": place(3, 0, 3, 2, "R"), "R#2": place(0, 2, 3, 2, "R")},
    }
    for key, value in changes.items():
        group = "free_areas" if "#" in key else "placements"
        encoded[group][key] = value
    return encoded


def errors(encoded, **kwargs):
    return check_floorplan(DeviceView(DEVICE), REQUIREMENTS, encoded, **kwargs)


def test_accepts_a_good_floorplan():
    assert errors(floorplan(), claimed_waste=WASTE, expected_areas=2) == []


def test_rejects_an_overlap():
    found = errors(floorplan(**{"R#2": place(1, 1, 3, 2, "R")}))
    assert any("overlaps" in error for error in found)


def test_rejects_an_under_provisioned_region():
    found = errors(floorplan(R=place(0, 0, 3, 1)))  # 2 CLB + 1 BRAM for 3 + 2
    assert any("needs" in error for error in found)


def test_rejects_an_incompatible_free_area():
    found = errors(floorplan(**{"R#1": place(4, 0, 3, 2, "R")}))  # CLB BRAM CLB
    assert any("tile layout" in error for error in found)


def test_rejects_a_wrong_waste_count():
    found = errors(floorplan(), claimed_waste=WASTE - 36)
    assert found == [f"wasted frames {WASTE - 36} claimed, {WASTE} counted"]


def test_rejects_forbidden_cells_and_missing_regions():
    found = errors(floorplan(S=place(6, 1, 1, 2)))
    assert any("forbidden" in error for error in found)
    encoded = floorplan()
    del encoded["placements"]["S"]
    assert any("not placed" in error for error in errors(encoded))


def test_rejects_a_wrong_area_count():
    assert errors(floorplan(), expected_areas=3) == ["2 free areas, 3 expected"]


def test_table_i_frames_of_the_sdr_design():
    from repro.workloads import sdr_problem

    requirements = region_requirements(sdr_problem())
    assert sum(required_frames(req) for req in requirements.values()) == SDR_TABLE_I_FRAMES


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
