import itertools
import random

import pytest

from swarmsim.model import DataInput, Position
from swarmsim.scheduler import (
    LOCALITY_SCALE,
    PlacementScore,
    SchedulerParams,
    compute_score,
    data_centroid,
    rank_candidates,
    select_top_k,
)

from conftest import make_task

EQUAL = SchedulerParams(w_availability=1 / 3, w_qos=1 / 3, w_locality=1 / 3)


def _score_from_components(availability, qos, locality, params):
    """Build raw inputs that hit exactly the wanted component values."""
    # qos = min(1, deadline/completion): completion 1, deadline = qos value
    # locality = 1/(1+d/scale): d = scale*(1/locality - 1)
    dist = LOCALITY_SCALE * (1.0 / locality - 1.0)
    return compute_score(availability, 1.0, qos, dist, params)


def test_worked_example_three_candidates():
    # availability {0.6, 0.9, 0.5}, qos {1, 0.5, 1}, locality {0.5, 0.5, 1},
    # equal weights -> totals {0.70, 0.6333..., 0.8333...}; third wins.
    rows = [(0.6, 1.0, 0.5), (0.9, 0.5, 0.5), (0.5, 1.0, 1.0)]
    totals = [
        _score_from_components(a, q, l, EQUAL).total for a, q, l in rows
    ]
    assert totals[0] == pytest.approx(0.70, abs=1e-12)
    assert totals[1] == pytest.approx(0.9 / 3 + 0.5 / 3 + 0.5 / 3, abs=1e-12)
    assert totals[2] == pytest.approx(0.5 / 3 + 1.0 / 3 + 1.0 / 3, abs=1e-12)
    scored = [(i + 1, _score_from_components(a, q, l, EQUAL)) for i, (a, q, l) in enumerate(rows)]
    assert select_top_k(scored, 1) == [3]


def test_component_normalization():
    p = SchedulerParams()
    s = compute_score(1.5, 2.0, 10.0, 0.0, p)
    assert s.availability == 1.0  # clamped
    assert s.qos == 1.0  # deadline slack saturates
    assert s.locality == 1.0  # at the centroid
    assert s.total == pytest.approx(1.0)
    # past-deadline candidate: qos floor at 0
    late = compute_score(1.0, 10.0, -1.0, 0.0, p)
    assert late.qos == 0.0
    # completion predicted at 0 s: qos 1 unless the deadline has passed
    assert compute_score(1.0, 0.0, 0.0, 0.0, p).qos == 1.0
    assert compute_score(1.0, 0.0, -1.0, 0.0, p).qos == 0.0


def test_locality_half_at_scale_distance():
    assert LOCALITY_SCALE == 100.0
    s = compute_score(1.0, 1.0, 1.0, LOCALITY_SCALE, SchedulerParams())
    assert s.locality == pytest.approx(0.5)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        SchedulerParams(w_availability=0.5, w_qos=0.5, w_locality=0.5)


def test_weights_must_each_lie_in_the_unit_interval():
    # These sum to 1, but the score is a convex sum of its criteria.
    with pytest.raises(ValueError, match="w_availability must be in \\[0, 1\\], got -0.5"):
        SchedulerParams(w_availability=-0.5, w_qos=1.0, w_locality=0.5)


def test_tie_broken_by_ascending_node_id():
    score = PlacementScore(availability=1, qos=1, locality=1, total=0.9)
    scored = [(7, score), (3, score), (5, score)]
    assert [n for n, _ in rank_candidates(scored)] == [3, 5, 7]
    assert select_top_k(scored, 2) == [3, 5]


def test_selection_matches_brute_force_oracle():
    """rank/select agree with exhaustive max over random candidate sets."""
    rng = random.Random(99)
    p = SchedulerParams()
    for _ in range(300):
        n = rng.randrange(1, 7)
        scored = []
        for node in rng.sample(range(1, 50), n):
            s = compute_score(
                rng.random(),
                rng.uniform(0.1, 20.0),
                rng.uniform(0.0, 30.0),
                rng.uniform(0.0, 400.0),
                p,
            )
            scored.append((node, s))
        ranked = rank_candidates(scored)
        best = min(scored, key=lambda kv: (-kv[1].total, kv[0]))
        assert ranked[0] == best
        # full order agrees with a sort done independently
        oracle = sorted(scored, key=lambda kv: (-kv[1].total, kv[0]))
        assert ranked == oracle


def test_data_centroid():
    task = make_task(inputs=[DataInput(1, 1.0), DataInput(2, 1.0)])
    positions = {1: Position(0, 0), 2: Position(10, 20)}
    c = data_centroid(task, positions.get, Position(-5, -5))
    assert (c.x, c.y) == (5.0, 10.0)
    # no inputs -> origin position
    bare = make_task()
    c2 = data_centroid(bare, positions.get, Position(-5, -5))
    assert (c2.x, c2.y) == (-5.0, -5.0)
    # unknown sources are skipped
    partial = make_task(inputs=[DataInput(1, 1.0), DataInput(99, 1.0)])
    c3 = data_centroid(partial, positions.get, Position(-5, -5))
    assert (c3.x, c3.y) == (0.0, 0.0)
