"""Multi-criteria placement scoring and candidate selection.

Scoring combines three normalized components: predicted availability over the
task's expected runtime, deadline headroom (qos) and locality to the task's
data centroid. The offer/claim protocol driving these decisions lives in the
agent; this module keeps the arithmetic pure so it can be checked against a
brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Position, TaskSpec

LOCALITY_SCALE = 100.0  # meters at which locality halves


@dataclass(frozen=True)
class SchedulerParams:
    w_availability: float = 0.4
    w_qos: float = 0.4
    w_locality: float = 0.2

    def __post_init__(self):
        # The score is a convex sum of criteria in [0, 1], so each weight
        # lies in [0, 1] and the weights sum to 1.
        for name in ("w_availability", "w_qos", "w_locality"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        total = self.w_availability + self.w_qos + self.w_locality
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"score weights must sum to 1, got {total}")


@dataclass(frozen=True)
class PlacementScore:
    availability: float
    qos: float
    locality: float
    total: float


def compute_score(
    availability: float,
    predicted_completion: float,
    deadline_remaining: float,
    distance_to_centroid: float,
    params: SchedulerParams,
) -> PlacementScore:
    """Weighted sum of the three criteria, each normalized into [0,1]; a
    completion predicted at 0 s meets every deadline not yet past."""
    if predicted_completion == 0:
        qos = 1.0 if deadline_remaining >= 0 else 0.0
    else:
        qos = max(0.0, min(1.0, deadline_remaining / predicted_completion))
    locality = 1.0 / (1.0 + distance_to_centroid / LOCALITY_SCALE)
    availability = min(1.0, max(0.0, availability))
    total = (
        params.w_availability * availability
        + params.w_qos * qos
        + params.w_locality * locality
    )
    return PlacementScore(
        availability=availability, qos=qos, locality=locality, total=total
    )


def rank_candidates(scored) -> list:
    """Descending total score, ties broken by ascending NodeId.

    scored: iterable of (NodeId, PlacementScore).
    """
    return sorted(scored, key=lambda item: (-item[1].total, item[0]))


def select_top_k(scored, k: int) -> list:
    return [node for node, _ in rank_candidates(scored)[:k]]


def data_centroid(task: TaskSpec, source_position_of, origin_position: Position) -> Position:
    """Mean of the task's input source positions; origin position if none.

    source_position_of: DataSourceId -> Position | None (unknown sources are
    skipped).
    """
    xs, ys, n = 0.0, 0.0, 0
    for inp in task.input_data:
        pos = source_position_of(inp.source)
        if pos is None:
            continue
        xs += pos.x
        ys += pos.y
        n += 1
    if n == 0:
        return origin_position
    return Position(xs / n, ys / n)
