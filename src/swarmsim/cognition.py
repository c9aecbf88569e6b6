"""Availability prediction, completion-time estimation and load forecasting.

Pure functions over value inputs; the scheduler consumes these signals when
scoring placement candidates. The availability estimator is deliberately a
transparent empirical-survival model (with add-one smoothing) rather than
anything learned, so results stay reproducible; it can be swapped out behind
the same signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import NodeProfile, TaskSpec, is_mains

#: Weight of the newest sample in the load forecast's EWMA.
EWMA_ALPHA = 0.3
#: Residual-capacity clamp for saturated nodes (keeps T_exec finite).
MIN_CAPACITY_FRACTION = 0.05


@dataclass(frozen=True)
class SessionHistory:
    """Observed up-sessions of one peer: completed durations plus current age.

    Durations are append-only within a scenario; the current session is the
    one still running (age = seconds since the peer was last seen joining).
    """

    durations: tuple = ()
    current_session_age: float = 0.0


@dataclass(frozen=True)
class LoadForecast:
    ewma_utilization: float = 0.0


def churn_survival(history: SessionHistory, horizon: float) -> float:
    """Probability the current session lasts another `horizon` seconds.

    Empirical survival with add-one smoothing: among past sessions that
    reached the current age, how many also reached age + horizon. With no
    history this is 1/2.
    """
    age = history.current_session_age
    reached_age = sum(1 for d in history.durations if d >= age)
    reached_horizon = sum(1 for d in history.durations if d >= age + horizon)
    return (reached_horizon + 1) / (reached_age + 2)


def predict_availability(
    profile: NodeProfile,
    history: SessionHistory,
    horizon: float,
) -> float:
    """P(node still up after `horizon` seconds) = P_battery * S_churn."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    battery = profile.dyn.battery
    if is_mains(battery):
        p_battery = 1.0
    else:
        p_battery = 1.0 if battery - profile.hw.drain_rate * horizon > 0 else 0.0
    return p_battery * churn_survival(history, horizon)


def predict_completion(
    task: TaskSpec,
    profile: NodeProfile,
    remote_inputs,
    base_latency: float = 0.0,
    latency_per_meter: float = 0.0,
) -> float:
    """Estimated seconds until the task would finish on the given node.

    remote_inputs: iterable of (size_mib, distance_m) pairs for every input
    whose nearest replica is not on the node itself; local inputs cost
    nothing. Execution time divides work by the node's residual capacity,
    clamped at `MIN_CAPACITY_FRACTION` for saturated nodes; a capacity that
    underflows to 0 never finishes.
    """
    capacity = profile.hw.cpu_perf_index * max(
        MIN_CAPACITY_FRACTION, 1.0 - profile.dyn.utilization
    )
    t_exec = task.work / capacity if capacity > 0 else math.inf
    t_transfer = 0.0
    for size, dist in remote_inputs:
        t_transfer += (
            size / profile.hw.link_bandwidth
            + base_latency
            + latency_per_meter * dist
        )
    return t_transfer + t_exec


def forecast_load(current_utilization: float, state: LoadForecast) -> LoadForecast:
    """One EWMA step: ewma' = EWMA_ALPHA * current + (1 - EWMA_ALPHA) * ewma."""
    if not (0.0 <= current_utilization <= 1.0):
        raise ValueError("utilization must be in [0,1]")
    new = EWMA_ALPHA * current_utilization + (1.0 - EWMA_ALPHA) * state.ewma_utilization
    return replace(state, ewma_utilization=new)
