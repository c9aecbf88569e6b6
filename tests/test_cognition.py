import math
import random

import pytest
from hypothesis import given, strategies as st

from swarmsim.cognition import (
    EWMA_ALPHA,
    LoadForecast,
    SessionHistory,
    churn_survival,
    forecast_load,
    predict_availability,
    predict_completion,
)
from swarmsim.model import MAINS

from conftest import make_profile, make_task


def test_survival_worked_example():
    # sessions [10,20,30], age 5, horizon 10: two sessions reached 15,
    # all three reached 5 -> (2+1)/(3+2) = 0.6
    h = SessionHistory(durations=(10.0, 20.0, 30.0), current_session_age=5.0)
    assert churn_survival(h, 10.0) == pytest.approx(0.6, abs=0)


def test_survival_no_history_is_one_half():
    assert churn_survival(SessionHistory(), 5.0) == 0.5


def test_survival_counting_oracle_randomized():
    """Exact agreement with a brute-force count on >= 1000 random histories."""
    rng = random.Random(42)
    for _ in range(1200):
        durations = tuple(rng.uniform(0, 100) for _ in range(rng.randrange(0, 12)))
        age = rng.uniform(0, 60)
        horizon = rng.uniform(0, 60)
        h = SessionHistory(durations=durations, current_session_age=age)
        reached = [d for d in durations if d >= age]
        survived = [d for d in durations if d >= age + horizon]
        expected = (len(survived) + 1) / (len(reached) + 2)
        assert churn_survival(h, horizon) == expected


def test_availability_mains_is_pure_survival():
    h = SessionHistory(durations=(10.0, 20.0, 30.0), current_session_age=5.0)
    p = make_profile(battery=MAINS)
    assert predict_availability(p, h, 10.0) == pytest.approx(0.6)


def test_availability_battery_gate():
    h = SessionHistory(durations=(100.0,) * 10, current_session_age=0.0)
    # battery 0.3, drain 0.01/s, horizon 50 -> 0.3 - 0.5 <= 0 -> gated to 0
    low = make_profile(battery=0.3, drain_rate=0.01)
    assert predict_availability(low, h, 50.0) == 0.0
    # horizon 20 -> 0.3 - 0.2 > 0 -> survival passes through
    assert predict_availability(low, h, 20.0) > 0.0


def test_availability_rejects_negative_horizon():
    with pytest.raises(ValueError):
        predict_availability(make_profile(), SessionHistory(), -1.0)


def test_completion_worked_example():
    # one remote input 10 MiB at 5 MiB/s over 100 m: 2 + 0.01 + 0.01 = 2.02 s
    # plus work 1 at perf 1, idle -> 1 s
    p = make_profile(perf=1.0, bandwidth=5.0)
    t = make_task(work=1.0)
    got = predict_completion(
        t, p, [(10.0, 100.0)], base_latency=0.01, latency_per_meter=0.0001
    )
    assert got == pytest.approx(3.02, abs=1e-9)


def test_completion_matches_hand_formula_randomized():
    rng = random.Random(7)
    for _ in range(500):
        perf = rng.uniform(0.1, 8.0)
        util = rng.uniform(0.0, 1.0)
        bw = rng.uniform(0.5, 50.0)
        work = rng.uniform(0.01, 100.0)
        inputs = [
            (rng.uniform(0.1, 50.0), rng.uniform(0.0, 500.0))
            for _ in range(rng.randrange(0, 4))
        ]
        base, per_m = 0.01, 0.0001
        p = make_profile(perf=perf, bandwidth=bw, utilization=util)
        t = make_task(work=work)
        expected = sum(s / bw + base + per_m * d for s, d in inputs)
        expected += work / (perf * max(0.05, 1.0 - util))
        got = predict_completion(t, p, inputs, base_latency=base, latency_per_meter=per_m)
        assert got == pytest.approx(expected, abs=1e-9)


def test_completion_saturated_node_clamped():
    p = make_profile(perf=2.0, utilization=1.0)
    assert predict_completion(make_task(work=1.0), p, []) == pytest.approx(
        1.0 / (2.0 * 0.05), abs=1e-9
    )
    # A capacity that underflows to 0 never finishes.
    tiny = make_profile(perf=5e-324, utilization=0.96)
    assert predict_completion(make_task(work=1.0), tiny, []) == math.inf


def test_ewma_convergence_bound():
    """|ewma - c| shrinks geometrically; closed-form step bound holds."""
    c, alpha = 0.8, EWMA_ALPHA
    state = LoadForecast(ewma_utilization=0.0)
    e0 = abs(c - state.ewma_utilization)
    steps = math.ceil(math.log(1e-6 / e0) / math.log(1 - alpha))
    for _ in range(steps):
        state = forecast_load(c, state)
    assert abs(state.ewma_utilization - c) < 1e-6


def test_ewma_single_step():
    state = LoadForecast(ewma_utilization=0.5)
    out = forecast_load(1.0, state)
    assert out.ewma_utilization == pytest.approx(0.65)  # 0.3 * 1.0 + 0.7 * 0.5


def test_ewma_rejects_out_of_range():
    with pytest.raises(ValueError):
        forecast_load(1.5, LoadForecast())
    with pytest.raises(ValueError):
        forecast_load(-0.1, LoadForecast())


@given(st.floats(0, 1), st.floats(0, 1))
def test_ewma_stays_in_unit_interval(current, start):
    out = forecast_load(current, LoadForecast(ewma_utilization=start))
    assert 0.0 <= out.ewma_utilization <= 1.0


@given(
    st.lists(st.floats(0, 1000), max_size=20),
    st.floats(0, 500),
    st.floats(0, 500),
)
def test_survival_is_a_probability(durations, age, horizon):
    h = SessionHistory(durations=tuple(durations), current_session_age=age)
    s = churn_survival(h, horizon)
    assert 0.0 < s <= 1.0
