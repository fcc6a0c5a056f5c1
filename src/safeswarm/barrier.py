"""Braking-distance barriers and the linear control constraints they induce.

For a pair of planar double integrators the barrier

    h = sqrt(2 (a_i + a_j) (dist - Ds)) + vbar

is nonnegative exactly when the pair, braking at its combined limit
a_i + a_j, still comes to rest at least Ds apart. Keeping h nonnegative is
done by bounding its decay rate, -dh/dt <= gain * h^3, which after scaling
by the pair distance becomes a single linear constraint on the pair's
controls. This module builds that constraint:

* ``centralized_row``  - one ensemble row coupling both agents' controls;
* ``strategy_a_rows``  - rate split: each agent bounds its own share of dh/dt;
* ``strategy_b_rows``  - bound split: each agent receives a share of the
  ensemble bound (needs the neighbor's limit to evaluate it);
* ``strategy_c_row``   - hybrid split computable from the agent's own
  parameters plus sensed relative state only, also usable with a
  conservative estimate of the neighbor's acceleration limit.

Per-agent rows are expressed in the owner's own frame and scaled so that
the two rows of a pair sum exactly to the ensemble row. Each bound formula
is written once, as an array function over many pairs
(``centralized_bounds``, ``rate_split_bounds``, ``bound_split_bounds``,
``hybrid_bounds``); the scalar builders above call it with one row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AgentParams, AgentState, RelativeState, relative_state, row_dot


class AlreadyViolatedError(RuntimeError):
    """A pair is at or inside its safety distance; no constraint can be built."""

    def __init__(self, i: int, j: int, dist: float, safety_dist: float):
        self.pair = (i, j)
        self.dist = dist
        self.safety_dist = safety_dist
        super().__init__(
            f"agents {i} and {j} are {dist:.6g} m apart, inside safety distance "
            f"{safety_dist:.6g} m"
        )


@dataclass(frozen=True)
class BarrierConfig:
    """How pairwise safety distances and constraint numerics are chosen.

    ds_mode "sum_of_radii" uses r_i + r_j per pair; "fixed" uses one global
    distance ``ds`` for every pair. epsilon floors the (dist - Ds) factor in
    constraint denominators so bounds stay finite as a pair approaches its
    safety distance, while remaining maximally restrictive.
    """

    ds_mode: str = "sum_of_radii"
    ds: float | None = None
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.ds_mode not in ("sum_of_radii", "fixed"):
            raise ValueError(f"unknown ds_mode {self.ds_mode!r}")
        if self.ds_mode == "fixed":
            if self.ds is None or not self.ds > 0:
                raise ValueError("fixed ds_mode requires a positive ds")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    def safety_distances(self, radius: np.ndarray) -> np.ndarray:
        """(N, N) safety distance of every ordered pair, from the agents' radii."""
        if self.ds_mode == "fixed":
            return np.full((radius.size, radius.size), float(self.ds))
        return radius[:, None] + radius[None, :]

    def safety_distance(self, pi: AgentParams, pj: AgentParams) -> float:
        return float(self.safety_distances(np.array([pi.radius, pj.radius]))[0, 1])


@dataclass(frozen=True)
class HalfspaceRow:
    """One linear constraint a . u <= b on a control vector.

    Per-agent rows have a 2-vector ``a`` acting on the owning agent's
    control; ensemble rows have a 2N-vector with nonzero blocks on both
    agents of the pair. ``pair`` records (owner, other) for per-agent rows
    and (i, j) with i < j for ensemble rows.
    """

    a: np.ndarray
    b: float
    pair: tuple[int, int]


def barrier_values(dist, vbar, accel_sum, safety_dist):
    """h of each pair from its distance and line-of-sight speed; elementwise
    over arrays. Inside the safety disk the square-root term is zero."""
    return np.sqrt(2.0 * accel_sum * np.maximum(dist - safety_dist, 0.0)) + vbar


def pair_barrier(rel: RelativeState, accel_sum: float, safety_dist: float) -> tuple[float, bool]:
    """Barrier value for a pair, plus a flag set when dist <= safety_dist."""
    if not accel_sum > 0:
        raise ValueError(f"accel_sum must be positive, got {accel_sum!r}")
    h = float(barrier_values(rel.dist, rel.vbar, accel_sum, safety_dist))
    return h, rel.dist - safety_dist <= 0.0


def guard_pairs(owner, other, dist: np.ndarray, safety_dist) -> None:
    """Raise AlreadyViolatedError for the first pair at or inside its safety distance."""
    inside = (dist <= safety_dist).nonzero()[0]
    if inside.size:
        k = inside[0]
        raise AlreadyViolatedError(int(owner[k]), int(other[k]), float(dist[k]),
                                   float(np.broadcast_to(safety_dist, dist.shape)[k]))


def _pow(x: np.ndarray, y: float) -> np.ndarray:
    # Per element through C pow, as Python's float ** rounds; numpy's **
    # differs in a few percent of cases. An element whose C pow overflows,
    # which math.pow raises on, takes numpy's IEEE result, +-inf.
    try:
        return np.array(list(map(math.pow, x.tolist(), itertools.repeat(y))))
    except OverflowError:
        with np.errstate(over="ignore"):
            out = np.power(x, y)
        finite = np.isfinite(out)
        out[finite] = list(map(math.pow, x[finite].tolist(), itertools.repeat(y)))
        return out


# The bound functions below give the right-hand side b of the row
# -dp . u_owner <= b (the owner's share) or -dp . u_i + dp . u_j <= b (the
# ensemble row) for every row k of their (E, 2) and (E,) array arguments:
# dp = p_owner - p_other, dist = |dp|, dv = v_owner - v_other, v_self =
# v_owner. Limits, gains and distances are per-row arrays or scalars.


def centralized_bounds(dp, dist, dv, accel_sum, gamma, safety_dist, epsilon):
    """Ensemble bounds: the pair keeps -dh/dt <= gamma * h^3, scaled by dist.
    Centralized mode passes the gain of the pair's lower-indexed agent i."""
    dpdv = row_dot(dp, dv)
    h = barrier_values(dist, dpdv / dist, accel_sum, safety_dist)
    denom = np.sqrt(2.0 * accel_sum * np.maximum(dist - safety_dist, epsilon))
    return (gamma * _pow(h, 3.0) * dist - _pow(dpdv, 2.0) / _pow(dist, 2.0)
            + row_dot(dv, dv) + accel_sum * dpdv / denom)


def rate_split_bounds(dp, dist, dv, v_self, accel_self, accel_other, gamma_self,
                      safety_dist, epsilon):
    """Strategy A: the owner bounds its own share of the barrier decay rate,
    scaled by dist so the two rows of a pair sum exactly to the ensemble row."""
    accel_sum = accel_self + accel_other
    dpdv, dpv = row_dot(dp, dv), row_dot(dp, v_self)
    h = barrier_values(dist, dpdv / dist, accel_sum, safety_dist)
    denom = np.sqrt(2.0 * accel_sum * np.maximum(dist - safety_dist, epsilon))
    return ((accel_self / accel_sum) * gamma_self * _pow(h, 3.0) * dist
            + row_dot(dv, v_self) - dpdv * dpv / _pow(dist, 2.0) + accel_sum * dpv / denom)


def bound_split_bounds(dp, dist, dv, v_self, accel_self, accel_other, gamma_self,
                       safety_dist, epsilon):
    """Strategy B: the owner takes its acceleration-limit share of the
    ensemble bound, evaluated with its own gain."""
    accel_sum = accel_self + accel_other
    return (accel_self / accel_sum) * centralized_bounds(
        dp, dist, dv, accel_sum, gamma_self, safety_dist, epsilon)


def hybrid_bounds(dp, dist, dv, v_self, accel_self, accel_other, gamma_self,
                  safety_dist, epsilon):
    """Strategy C: computable from the owner's own parameters, the sensed
    relative state and ``accel_other``, the neighbor's limit or a
    conservative estimate of it."""
    accel_sum = accel_self + accel_other
    dpdv, dpv = row_dot(dp, dv), row_dot(dp, v_self)
    h = barrier_values(dist, dpdv / dist, accel_sum, safety_dist)
    denom = np.sqrt(2.0 * np.maximum(dist - safety_dist, epsilon))
    return (-dpdv * dpv / _pow(dist, 2.0) + row_dot(dv, v_self)
            + (accel_self / accel_sum)
            * (gamma_self * _pow(h, 3.0) * dist + np.sqrt(accel_sum) * dpdv / denom))


def _one(bounds, rel: RelativeState, *args) -> float:
    """``bounds`` for the single pair ``rel``."""
    return float(bounds(rel.dp[None], np.array([rel.dist]), rel.dv[None], *args)[0])


def centralized_bound(
    rel: RelativeState,
    accel_sum: float,
    gamma: float,
    safety_dist: float,
    epsilon: float,
) -> float:
    """Right-hand side of the ensemble constraint -dp . du <= b for one pair."""
    return _one(centralized_bounds, rel, accel_sum, gamma, safety_dist, epsilon)


def centralized_row(
    i: int,
    j: int,
    states: list[AgentState],
    params: list[AgentParams],
    cfg: BarrierConfig,
    gamma: float | None = None,
) -> HalfspaceRow:
    """Ensemble constraint for pair (i, j) over the stacked control vector.

    Coefficients are -dp on agent i's block and +dp on agent j's, zero
    elsewhere. Uses a single gain (agent i's unless overridden); per-agent
    gains belong to the decentralized strategies.
    """
    rel = relative_state(states[i], states[j])
    safety_dist = cfg.safety_distance(params[i], params[j])
    guard_pairs((i,), (j,), np.array([rel.dist]), safety_dist)
    accel_sum = params[i].accel_limit + params[j].accel_limit
    if gamma is None:
        gamma = params[i].barrier_gain
    b = centralized_bound(rel, accel_sum, gamma, safety_dist, cfg.epsilon)
    a = np.zeros(2 * len(states))
    a[2 * i : 2 * i + 2] = -rel.dp
    a[2 * j : 2 * j + 2] = rel.dp
    return HalfspaceRow(a, b, (i, j))


def _split_rows(bounds, i, j, states, params, cfg):
    # The rows of both agents of pair (i, j), each over its own control.
    rel = relative_state(states[i], states[j])
    safety_dist = cfg.safety_distance(params[i], params[j])
    guard_pairs((i,), (j,), np.array([rel.dist]), safety_dist)
    ai, aj = params[i].accel_limit, params[j].accel_limit
    b_i = _one(bounds, rel, states[i].v[None], ai, aj, params[i].barrier_gain,
               safety_dist, cfg.epsilon)
    b_j = _one(bounds, rel.flipped(), states[j].v[None], aj, ai, params[j].barrier_gain,
               safety_dist, cfg.epsilon)
    return (
        HalfspaceRow(-rel.dp, b_i, (i, j)),
        HalfspaceRow(rel.dp.copy(), b_j, (j, i)),
    )


def strategy_a_rows(
    i: int,
    j: int,
    states: list[AgentState],
    params: list[AgentParams],
    cfg: BarrierConfig,
) -> tuple[HalfspaceRow, HalfspaceRow]:
    """Rate-split rows for pair (i, j): one per agent, over its own control.

    Each agent bounds the decrease of h attributable to its own state
    derivative by its acceleration-limit share of gain * h^3. Velocity
    dependent terms are moved into the bound so the decision variable is
    the agent's control alone.
    """
    return _split_rows(rate_split_bounds, i, j, states, params, cfg)


def strategy_b_rows(
    i: int,
    j: int,
    states: list[AgentState],
    params: list[AgentParams],
    cfg: BarrierConfig,
) -> tuple[HalfspaceRow, HalfspaceRow]:
    """Bound-split rows for pair (i, j): each agent takes a share of the
    ensemble bound proportional to its acceleration limit."""
    return _split_rows(bound_split_bounds, i, j, states, params, cfg)


def strategy_c_row(
    i: int,
    j: int,
    states: list[AgentState],
    self_params: AgentParams,
    other_accel: float,
    cfg: BarrierConfig,
    safety_dist: float | None = None,
) -> HalfspaceRow:
    """Hybrid-split row for agent i against j, from local information only.

    Needs the owner's own parameters, the sensed relative state and own
    velocity, plus ``other_accel``: the neighbor's acceleration limit or a
    conservative estimate of it. With an underestimate the implied pairwise
    safe set shrinks, so safety is preserved.
    """
    if not other_accel > 0:
        raise ValueError(f"other_accel must be positive, got {other_accel!r}")
    rel = relative_state(states[i], states[j])
    if safety_dist is None:
        if cfg.ds_mode != "fixed":
            # Pairwise distances need the neighbor's (sensed) radius; the
            # caller must supply them in sum_of_radii mode.
            raise ValueError("sum_of_radii mode requires an explicit safety_dist")
        safety_dist = float(cfg.ds)
    guard_pairs((i,), (j,), np.array([rel.dist]), safety_dist)
    b = _one(hybrid_bounds, rel, states[i].v[None], self_params.accel_limit, other_accel,
             self_params.barrier_gain, safety_dist, cfg.epsilon)
    return HalfspaceRow(-rel.dp, b, (i, j))


def neighbor_radius(
    params_i: AgentParams,
    min_other_accel: float,
    max_other_speed: float,
    safety_dist: float,
) -> float:
    """Distance beyond which agent i can ignore another agent entirely.

    Outside this radius the pair's worst-case approach (both at top speed,
    weakest combined braking, own gain) cannot defeat the barrier before a
    constraint would activate, so no row needs to be built.
    """
    for name, value in (
        ("min_other_accel", min_other_accel),
        ("max_other_speed", max_other_speed),
        ("safety_dist", safety_dist),
    ):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    accel_sum = params_i.accel_limit + min_other_accel
    reach = np.cbrt(2.0 * accel_sum / params_i.barrier_gain) + params_i.speed_limit + max_other_speed
    with np.errstate(over="ignore"):  # past the float range every agent is a neighbour
        return float(safety_dist + reach**2 / (2.0 * accel_sum))


def neighbors(i: int, states: list[AgentState], radius: float) -> set[int]:
    """Indices of agents within agent i's interaction radius (inclusive), at
    the ``math.hypot`` distance that ``relative_state`` measures."""
    p = states[i].p
    return {j for j, sj in enumerate(states) if j != i and math.hypot(*(p - sj.p)) <= radius}
