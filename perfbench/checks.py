"""Floorplan checks made apart from the program's own verifier.

Everything here is derived from the raw device description (the tile type
at each cell and the forbidden blocks) and from a floorplan in its plain
``Floorplan.to_dict()`` encoding, so one checker serves both in-process
solve reports and ``/solve`` response bodies.  Nothing calls
``repro.floorplan.verify`` or ``repro.floorplan.metrics``.

Frame counts come from the Virtex-5 figures of the paper's Section VI: 36
frames per CLB tile, 30 per BRAM tile, 28 per DSP tile.  Each tile type
provides one unit of the resource of the same name.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

FRAMES_PER_TILE: Dict[str, int] = {"CLB": 36, "BRAM": 30, "DSP": 28}

#: Table I of the paper: minimum frames of the five SDR regions together.
SDR_TABLE_I_FRAMES = 4202

Rect = Tuple[int, int, int, int]  # col, row, width, height


class DeviceView:
    """Tile names and forbidden cells of a device, read once from its grid."""

    def __init__(self, device) -> None:
        self.width = int(device.width)
        self.height = int(device.height)
        self.tiles: List[List[str]] = [
            [device.tile_type_at(col, row).name for row in range(self.height)]
            for col in range(self.width)
        ]
        self.forbidden = set()
        for block in device.forbidden:
            for col in range(block.col, block.col + block.width):
                for row in range(block.row, block.row + block.height):
                    self.forbidden.add((col, row))

    def cells(self, rect: Rect):
        col, row, width, height = rect
        for c in range(col, col + width):
            for r in range(row, row + height):
                yield c, r

    def tile_counts(self, rect: Rect) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for c, r in self.cells(rect):
            name = self.tiles[c][r]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def frames(self, rect: Rect) -> int:
        return sum(FRAMES_PER_TILE[self.tiles[c][r]] for c, r in self.cells(rect))

    def usable_frames(self) -> int:
        """Frames of every non-forbidden tile (the wasted-frame normaliser)."""
        return sum(
            FRAMES_PER_TILE[self.tiles[c][r]]
            for c in range(self.width)
            for r in range(self.height)
            if (c, r) not in self.forbidden
        )

    def signature(self, rect: Rect) -> Tuple[Tuple[str, ...], ...]:
        """Tile names column by column, bottom to top, relative to the corner."""
        col, row, width, height = rect
        return tuple(
            tuple(self.tiles[c][r] for r in range(row, row + height))
            for c in range(col, col + width)
        )


def required_frames(requirements: Mapping[str, int]) -> int:
    """Minimum frames of a region: one tile per resource unit it needs."""
    return sum(FRAMES_PER_TILE[rtype] * count for rtype, count in requirements.items())


def region_requirements(problem) -> Dict[str, Dict[str, int]]:
    return {
        region.name: {str(k): int(v) for k, v in region.requirements.as_dict().items()}
        for region in problem.regions
    }


def _rect(encoded: Mapping[str, object]) -> Rect:
    return (
        int(encoded["col"]),
        int(encoded["row"]),
        int(encoded["width"]),
        int(encoded["height"]),
    )


def region_rects(encoded: Mapping[str, object]) -> Dict[str, Rect]:
    """The regions' rectangles of a floorplan in ``to_dict()`` form."""
    return {name: _rect(p) for name, p in encoded.get("placements", {}).items()}


def _overlap(a: Rect, b: Rect) -> bool:
    return not (
        a[0] + a[2] <= b[0]
        or b[0] + b[2] <= a[0]
        or a[1] + a[3] <= b[1]
        or b[1] + b[3] <= a[1]
    )


def wasted_frames(view: DeviceView, requirements, placements: Mapping[str, Rect]) -> int:
    """Frames covered by the regions minus the frames they need."""
    return sum(
        view.frames(rect) - required_frames(requirements[name])
        for name, rect in placements.items()
    )


def check_floorplan(
    view: DeviceView,
    requirements: Mapping[str, Mapping[str, int]],
    encoded: Mapping[str, object],
    claimed_waste: Optional[int] = None,
    expected_areas: Optional[int] = None,
) -> List[str]:
    """Every violation found in ``encoded``; an empty list means it passes.

    ``requirements`` maps region name to ``{resource: count}``.  The checks:
    every region placed inside the device and clear of forbidden cells; tiles
    per resource type at least the requirement; regions and free areas
    pairwise disjoint; every free area the same size and tile layout as its
    region; the wasted-frame count equal to ``claimed_waste`` when given; the
    number of free areas equal to ``expected_areas`` when given.
    """
    errors: List[str] = []
    placements = region_rects(encoded)
    free = {name: _rect(p) for name, p in encoded.get("free_areas", {}).items()}
    owners = {
        name: p.get("compatible_with") for name, p in encoded.get("free_areas", {}).items()
    }

    for name in requirements:
        if name not in placements:
            errors.append(f"region {name!r} is not placed")
    for name in placements:
        if name not in requirements:
            errors.append(f"placement {name!r} names no region of the problem")

    every: List[Tuple[str, Rect]] = list(placements.items()) + list(free.items())
    for name, rect in every:
        col, row, width, height = rect
        if width <= 0 or height <= 0 or col < 0 or row < 0 or (
            col + width > view.width or row + height > view.height
        ):
            errors.append(f"{name!r} at {rect} leaves the {view.width}x{view.height} device")
            continue
        hit = next((cell for cell in view.cells(rect) if cell in view.forbidden), None)
        if hit is not None:
            errors.append(f"{name!r} covers forbidden cell {hit}")
    if errors:
        return errors

    for index, (first, a) in enumerate(every):
        for second, b in every[index + 1:]:
            if _overlap(a, b):
                errors.append(f"{first!r} {a} overlaps {second!r} {b}")

    for name, rect in placements.items():
        need = requirements.get(name, {})
        have = view.tile_counts(rect)
        short = {rtype: count for rtype, count in need.items() if have.get(rtype, 0) < count}
        if short:
            errors.append(f"region {name!r} covers {have}, needs {dict(need)}")

    for name, rect in free.items():
        owner = owners.get(name)
        if owner not in placements:
            errors.append(f"free area {name!r} names no placed region ({owner!r})")
        elif view.signature(rect) != view.signature(placements[owner]):
            errors.append(
                f"free area {name!r} {rect} does not match the tile layout of "
                f"{owner!r} {placements[owner]}"
            )

    if claimed_waste is not None and not errors:
        waste = wasted_frames(view, requirements, placements)
        if waste != claimed_waste:
            errors.append(f"wasted frames {claimed_waste} claimed, {waste} counted")
    if expected_areas is not None and len(free) != expected_areas:
        errors.append(f"{len(free)} free areas, {expected_areas} expected")
    return errors


# ----------------------------------------------------------------------
# order statistics shared by every workload
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
