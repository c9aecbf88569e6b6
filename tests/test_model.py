import math

import pytest
from hypothesis import given, strategies as st

from swarmsim.model import (
    MAINS,
    DataInput,
    Position,
    TaskSpec,
    capability_match,
    distance,
    is_mains,
    validate_profile,
    validate_task,
)

from conftest import make_profile, make_task


def test_valid_profile_passes():
    assert validate_profile(make_profile()) == []


def test_profile_violations_are_collected_not_raised():
    bad = make_profile(perf=-1.0, utilization=2.0, battery=1.5)
    issues = validate_profile(bad)
    assert "hw.cpu_perf_index not positive" in issues
    assert "dyn.utilization out of [0,1]" in issues
    assert "dyn.battery out of [0,1]" in issues
    infinite = make_profile(perf=math.inf, bandwidth=math.inf)
    assert validate_profile(infinite) == [
        "hw.cpu_perf_index not finite", "hw.link_bandwidth not finite"
    ]


def test_mains_battery_is_always_valid():
    assert validate_profile(make_profile(battery=MAINS)) == []
    assert is_mains(MAINS)
    assert not is_mains(0.5)


def test_validate_task():
    assert validate_task(make_task()) == []
    bad = make_task(work=0.0, deadline=-1.0, typology="")
    issues = validate_task(bad)
    assert "work not positive" in issues
    assert "deadline not positive" in issues
    assert "typology empty" in issues
    assert validate_task(make_task(work=math.inf)) == ["work not finite"]
    with_bad_input = make_task(inputs=[DataInput(source=1, size=0.0)])
    assert "input_data size not positive" in validate_task(with_bad_input)
    for size, problem in ((math.nan, "input_data size not positive"),
                          (math.inf, "input_data size not finite")):
        with_bad_input = make_task(inputs=[DataInput(source=1, size=1.0),
                                           DataInput(source=2, size=size)])
        assert validate_task(with_bad_input) == [problem], size


def test_distance():
    assert distance(Position(0, 0), Position(3, 4)) == 5.0
    assert distance(Position(1, 1), Position(1, 1)) == 0.0


def test_capability_match_typology_and_memory():
    node = make_profile(memory=512, typologies=("vision",))
    assert capability_match(make_task(typology="vision", memory=512), node)
    assert not capability_match(make_task(typology="audio", memory=10), node)
    assert not capability_match(make_task(typology="vision", memory=513), node)


def test_capability_match_rejects_drained_battery():
    dead = make_profile(battery=0.0)
    assert not capability_match(make_task(), dead)
    mains = make_profile(battery=MAINS)
    assert capability_match(make_task(), mains)


def test_profile_dict_round_trip():
    p = make_profile(battery=0.75, utilization=0.3, position=(1.5, -2.0))
    assert type(p).from_dict(p.to_dict()) == p
    mains = make_profile(battery=MAINS)
    assert type(mains).from_dict(mains.to_dict()) == mains


def test_task_dict_round_trip():
    t = make_task(inputs=[DataInput(source=3, size=2.5)])
    assert TaskSpec.from_dict(t.to_dict()) == t


@given(
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
)
def test_distance_is_a_metric(x1, y1, x2, y2):
    a, b = Position(x1, y1), Position(x2, y2)
    assert distance(a, b) >= 0
    assert distance(a, b) == distance(b, a)
    assert distance(a, a) == 0.0


def test_with_dyn_replaces_only_dynamic_fields():
    p = make_profile(utilization=0.1)
    q = p.with_dyn(utilization=0.9)
    assert q.dyn.utilization == 0.9
    assert q.hw == p.hw and q.typologies == p.typologies and q.node == p.node
    assert math.isclose(p.dyn.utilization, 0.1)  # original untouched


def test_position_not_finite_rejected():
    p = make_profile(position=(float("nan"), 0.0))
    assert "dyn.position not finite" in validate_profile(p)
