"""Fixed-step scenario engine: nominal control, safety filtering, logging.

Every step takes one synchronous snapshot of all agents, computes each
agent's nominal goal-seeking control, builds the safety rows prescribed by
the scenario mode, solves the projection QP(s), falls back to maximum
braking when a QP is infeasible or a pair is already inside its safety
distance, and only then integrates everyone forward. Runs are fully
deterministic for a given scenario.

The run state is the (N, 2) arrays ``SimContext.P`` and ``V``; a step runs
on per-step arrays. Pair geometry runs over the pairs i < j in ``pair_keys``
order, the neighbour sets are an (N, N) mask, and the mode's bound function
in ``barrier`` builds the rows of all directed pairs (owner, other) in one
call. Each agent's QP reads its rows, speed rows included, as one slice of
one array; the centralized QP embeds them in one dense array. Every value is
bit-identical to what the scalar functions (``relative_state``,
``pair_barrier``, ``barrier.neighbors`` and the row builders) give.

Modes
-----
centralized:
    All pairwise rows in one ensemble QP over the stacked controls.
decentralized_A / _B / _C:
    Per-agent QPs; each agent builds rows only against the agents inside
    its interaction radius, using the selected constraint split.
decentralized_C_estimated:
    Strategy C with each neighbor's acceleration limit replaced by the
    agent's own running conservative estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import barrier, qp
from .barrier import BarrierConfig, NeighborInfo
from .dynamics import (AgentParams, AgentState, DegenerateGeometryError, row_dot,
                       saturate_box, step)
from .dynamics import relative_state  # noqa: F401  (perfbench/layers.py wraps sim.relative_state)
from .estimator import LimitEstimator

MODES = (
    "centralized",
    "decentralized_A",
    "decentralized_B",
    "decentralized_C",
    "decentralized_C_estimated",
)

# Early-stop thresholds: a run ends once every agent is this close to its
# goal and this slow, well inside the 0.05 m goal tolerance used by the
# deadlock detector and the scenario checks.
GOAL_STOP_TOL = 0.03  # m
GOAL_STOP_SPEED = 0.05  # m/s

DEADLOCK_WINDOW = 5.0  # s
DEADLOCK_SPEED_EPS = 0.01  # m/s
DEADLOCK_GOAL_EPS = 0.05  # m


class ScenarioError(ValueError):
    """A scenario is malformed or starts outside the safe set."""


@dataclass
class AgentSetup:
    """One agent's parameters, initial state, and goal position."""

    params: AgentParams
    state0: AgentState
    goal: np.ndarray

    def __post_init__(self):
        self.goal = np.asarray(self.goal, dtype=float).reshape(2)


@dataclass
class Scenario:
    """Complete, validated description of one simulation run."""

    agents: list[AgentSetup]
    dt: float = 0.02
    t_end: float = 20.0
    mode: str = "decentralized_C"
    k1: float = 1.0  # 1/s^2, position gain of the nominal controller
    k2: float = 2.0  # 1/s, damping gain of the nominal controller
    barrier_cfg: BarrierConfig = field(default_factory=BarrierConfig)
    estimator_gain: float = 1.0  # 1/s
    alpha_floor: float | None = None  # None: half the smallest accel limit
    neighbor_bounds: tuple[float, float] | None = None  # (min accel, max speed)
    seed: int = 0

    def validate(self) -> None:
        if not self.agents:
            raise ScenarioError("scenario has no agents")
        if not self.dt > 0:
            raise ScenarioError(f"dt must be positive, got {self.dt!r}")
        if self.t_end < 0:
            raise ScenarioError(f"t_end must be nonnegative, got {self.t_end!r}")
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        ids = [a.params.id for a in self.agents]
        for aid in ids:
            if ids.count(aid) > 1:
                raise ScenarioError(f"duplicate agent id {aid}")
        for a in self.agents:
            values = np.concatenate([a.state0.p, a.state0.v, a.goal])
            if not np.all(np.isfinite(values)):
                raise ScenarioError(f"agent {a.params.id} has non-finite state or goal")
            if np.max(np.abs(a.state0.v)) > a.params.speed_limit + 1e-9:
                raise ScenarioError(
                    f"agent {a.params.id} starts above its speed limit"
                )
        pairs = _Pairs([a.params for a in self.agents], self.barrier_cfg)
        P = np.array([a.state0.p for a in self.agents])
        dp, dist = _pair_dist(pairs, P)
        norm = np.sqrt(row_dot(dp, dp))
        with np.errstate(divide="ignore", invalid="ignore"):  # a coincident pair fails first
            h = _pair_h(pairs, dist, _pair_vbar(pairs, dp, dist,
                                                np.array([a.state0.v for a in self.agents])))
        near = norm <= pairs.pair_ds
        bad = np.flatnonzero(near | (h < 0))
        if bad.size:
            k = bad[0]
            ai, aj = (self.agents[x].params.id for x in pairs.pair_keys[k])
            raise ScenarioError(f"agents {ai} and {aj} start " + (
                f"{norm[k]:.6g} m apart, within safety distance {pairs.pair_ds[k]:.6g} m"
                if near[k] else f"closing too fast to brake (barrier {h[k]:.6g} < 0)"))

    def resolved_alpha_floor(self) -> float:
        if self.alpha_floor is not None:
            return self.alpha_floor
        return 0.5 * min(a.params.accel_limit for a in self.agents)


@dataclass
class StepRecord:
    """Snapshot after one step: post-step states, the controls that
    produced them, and per-pair safety data on the post-step states."""

    t: float
    p: np.ndarray  # (N, 2)
    v: np.ndarray  # (N, 2)
    u_applied: np.ndarray  # (N, 2)
    u_nominal: np.ndarray  # (N, 2)
    qp_status: list[str]
    pair_h: dict[tuple[int, int], float]  # keyed by SimContext.pair_keys
    min_pair_dist: float
    row_pairs: tuple[tuple[int, int], ...]  # barrier rows built this step


@dataclass
class TrajectoryLog:
    scenario: Scenario
    records: list[StepRecord]


@dataclass
class RunMetrics:
    min_pair_dist: float  # m
    min_h: float  # m/s
    goal_errors: dict[int, float]  # m, by agent id
    qp_infeasible_count: int
    deadlock_detected: bool
    deadlock_onset: float | None  # s
    path_lengths: dict[int, float]  # m, by agent id


def goal_controller(p: np.ndarray, v: np.ndarray, goal: np.ndarray, k1: float, k2: float,
                    accel_limit) -> np.ndarray:
    """Saturated PD control toward a fixed goal position. Broadcasts over
    (N, 2) arrays of agents, with one row of limits per agent."""
    u = -k1 * (p - np.asarray(goal, dtype=float)) - k2 * v
    return saturate_box(u, accel_limit)


def braking_fallback(v: np.ndarray, accel_limit: float) -> np.ndarray:
    """Maximum per-axis deceleration along the velocity v of one agent."""
    peak = float(np.max(np.abs(v)))
    if peak < 1e-12:
        return np.zeros(2)
    return np.clip(-accel_limit * v / peak, -accel_limit, accel_limit)


class _Pairs:
    """The pairs i < j of a team, in ``pair_keys`` order, with each pair's
    safety distance and summed acceleration limit."""

    def __init__(self, params: list[AgentParams], cfg: BarrierConfig):
        self.safety_dist = cfg.safety_distances(np.array([p.radius for p in params]))
        self.accel = np.array([p.accel_limit for p in params])
        self.pair_keys = list(itertools.combinations(range(len(params)), 2))
        self.pair_i, self.pair_j = np.array(self.pair_keys, dtype=int).reshape(-1, 2).T.copy()
        self.pair_ds = self.safety_dist[self.pair_i, self.pair_j]
        self.pair_accel_sum = self.accel[self.pair_i] + self.accel[self.pair_j]


class SimContext(_Pairs):
    """Mutable run state: the (N, 2) positions ``P`` and velocities ``V``,
    estimators and warm starts, plus the per-pair and per-agent constants
    the array step reads."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.params = [a.params for a in scenario.agents]
        self.cfg = scenario.barrier_cfg
        super().__init__(self.params, self.cfg)
        self.n = len(scenario.agents)
        self.goals = np.array([a.goal for a in scenario.agents])
        self.P = np.array([a.state0.p for a in scenario.agents])
        self.V = np.array([a.state0.v for a in scenario.agents])
        self.t = 0.0
        self.box = np.repeat(self.accel[:, None], 2, axis=1)  # per-axis control bounds
        self.speed = np.array([p.speed_limit for p in self.params])
        self.gain = np.array([p.barrier_gain for p in self.params])
        self.neighbor_info = [self._neighbor_info(i) for i in range(self.n)]
        self.neighbor_radius = np.array([info.neighbor_radius for info in self.neighbor_info])
        self.pair_index = np.zeros((self.n, self.n), dtype=int)  # of (i, j) and (j, i)
        self.pair_index[self.pair_i, self.pair_j] = np.arange(self.pair_i.size)
        self.pair_index[self.pair_j, self.pair_i] = np.arange(self.pair_i.size)
        self.estimators: list[LimitEstimator] | None = None
        if scenario.mode == "decentralized_C_estimated":
            floor = scenario.resolved_alpha_floor()
            self.estimators = [
                LimitEstimator(
                    [j for j in range(self.n) if j != i], floor, scenario.estimator_gain
                )
                for i in range(self.n)
            ]
        self.warm_starts: list[tuple[int, ...]] = [() for _ in range(self.n)]
        self.ensemble_warm: tuple[int, ...] = ()

    def _neighbor_info(self, i: int) -> NeighborInfo:
        others = [p for k, p in enumerate(self.params) if k != i]
        if self.scenario.neighbor_bounds is not None:
            min_accel, max_speed = self.scenario.neighbor_bounds
        elif others:
            min_accel = min(p.accel_limit for p in others)
            max_speed = max(p.speed_limit for p in others)
        else:
            min_accel = self.params[i].accel_limit
            max_speed = self.params[i].speed_limit
        if self.scenario.mode == "decentralized_C_estimated":
            min_accel = min(min_accel, self.scenario.resolved_alpha_floor())
        ds_worst = max(
            (self.safety_dist[i, j] for j in range(self.n) if j != i),
            default=2 * self.params[i].radius,
        )
        radius = barrier.neighbor_radius(self.params[i], min_accel, max_speed, ds_worst)
        return NeighborInfo(radius)


# Normals of each agent's four speed rows, +e_0, -e_0, +e_1, -e_1. The
# negative faces are -e, with -0.0 off the diagonal.
_SPEED_A = np.array([[1.0, 0.0], [-1.0, -0.0], [0.0, 1.0], [-0.0, -1.0]])


def _speed_bounds(speed: np.ndarray, V: np.ndarray, dt: float) -> np.ndarray:
    # (N, 4) bounds of the rows _SPEED_A: per-axis cap on the next-step
    # velocity, |v_c + u_c dt| <= speed_limit.
    return np.stack(((speed[:, None] - V) / dt, (speed[:, None] + V) / dt), 2).reshape(-1, 4)


def _pair_dist(ctx: _Pairs, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dp and dist of every pair i < j, as ``relative_state`` computes them
    (math.hypot: np.hypot rounds differently)."""
    dp = P[ctx.pair_i] - P[ctx.pair_j]
    return dp, np.array(list(map(math.hypot, dp[:, 0].tolist(), dp[:, 1].tolist())))


def _require_apart(dist: np.ndarray) -> None:
    if dist.size and not dist.all():
        raise DegenerateGeometryError("coincident agent positions")


def _pair_vbar(ctx: _Pairs, dp: np.ndarray, dist: np.ndarray, V: np.ndarray) -> np.ndarray:
    return row_dot(dp, V[ctx.pair_i] - V[ctx.pair_j]) / dist


def _pair_h(ctx: _Pairs, dist: np.ndarray, vbar: np.ndarray) -> np.ndarray:
    """``pair_barrier`` of every pair, with the true acceleration limits."""
    return barrier.barrier_values(dist, vbar, ctx.pair_accel_sum, ctx.pair_ds)


def _violated(ctx: SimContext, dist: np.ndarray) -> np.ndarray:
    """(N,) mask of the agents in a pair at or inside its safety distance."""
    inside = dist <= ctx.pair_ds
    violated = np.zeros(ctx.n, dtype=bool)
    violated[ctx.pair_i[inside]] = violated[ctx.pair_j[inside]] = True
    return violated


def _neighbor_mask(ctx: SimContext, P: np.ndarray) -> np.ndarray:
    """(N, N) mask of ``barrier.neighbors``: row i holds agent i's neighbours.
    The norm is sqrt of a (1, 2) by (2, 1) matmul, as np.linalg.norm rounds."""
    dP = P[:, None, :] - P[None, :, :]
    mask = np.sqrt(row_dot(dP, dP)) <= ctx.neighbor_radius[:, None]
    np.fill_diagonal(mask, False)
    return mask


def _apply(ctx: SimContext, U: np.ndarray, brake: np.ndarray) -> np.ndarray:
    # The QP answers clipped to the box, and braking where ``brake`` is set.
    U = np.clip(U, -ctx.box, ctx.box)
    for i in np.flatnonzero(brake).tolist():
        U[i] = braking_fallback(ctx.V[i], ctx.accel[i])
    return U


# The per-agent row bound of each decentralized mode, over directed pairs.
_BOUNDS = {
    "decentralized_A": barrier.rate_split_bounds,
    "decentralized_B": barrier.bound_split_bounds,
    "decentralized_C": barrier.hybrid_bounds,
    "decentralized_C_estimated": barrier.hybrid_bounds,
}


def _agent_rows(ctx: SimContext, violated: np.ndarray, dist: np.ndarray):
    """Every non-violated agent's QP rows, as one (R, 2) array A and (R,) b.

    Agent i's rows are ``A[lo:hi]`` with ``(lo, hi) = blocks[i]``: its
    barrier rows against each neighbour in ascending order, then its four
    speed rows. Rows against braking (violated-pair) agents stay in force:
    any pair involving a non-violated agent is still outside its safety
    distance. Also returns the (owner, other) pair of each barrier row.
    """
    P, V = ctx.P, ctx.V
    own, oth = np.nonzero(_neighbor_mask(ctx, P) & ~violated[:, None])  # row-major
    # p_own - p_oth afresh, not a negated pair dp: a zero must keep its sign.
    dp = P[own] - P[oth]
    dist = dist[ctx.pair_index[own, oth]]
    ds = ctx.safety_dist[own, oth]
    barrier.guard_pairs(own, oth, dist, ds)
    if ctx.estimators is None:
        accel_other = ctx.accel[oth]
    else:  # column oth - (oth > own) of estimators[own], whose ids skip own
        accel_other = np.stack([e._est for e in ctx.estimators])[own, oth - (oth > own)]
    counts = np.bincount(own, minlength=ctx.n) + 4
    ends = np.cumsum(counts)
    A = np.empty((ends[-1], 2))
    b = np.empty(ends[-1])
    at = np.arange(own.size) + 4 * own
    A[at] = -dp
    b[at] = _BOUNDS[ctx.scenario.mode](dp, dist, V[own] - V[oth], V[own], ctx.accel[own],
                                       accel_other, ctx.gain[own], ds, ctx.cfg.epsilon)
    at = (ends - 4)[:, None] + np.arange(4)
    A[at], b[at] = _SPEED_A, _speed_bounds(ctx.speed, V, ctx.scenario.dt)
    blocks = list(zip((ends - counts).tolist(), ends.tolist()))
    return A, b, blocks, list(zip(own.tolist(), oth.tolist()))


def _solve_decentralized(ctx: SimContext, U_nom: np.ndarray, violated: np.ndarray,
                         dp: np.ndarray, dist: np.ndarray):
    A, b, blocks, row_pairs = _agent_rows(ctx, violated, dist)
    U = np.zeros((ctx.n, 2))
    statuses = [qp.INFEASIBLE] * ctx.n
    brake = violated.copy()
    for i in np.flatnonzero(~violated).tolist():
        lo, hi = blocks[i]
        sol = qp.solve(qp.QpProblem(U_nom[i], A[lo:hi], b[lo:hi], ctx.box[i]),
                       warm_start=ctx.warm_starts[i])
        ctx.warm_starts[i] = sol.active_set
        statuses[i] = sol.status
        if sol.status == qp.OPTIMAL:
            U[i] = sol.u_star
        else:
            brake[i] = True
    return _apply(ctx, U, brake), statuses, row_pairs


def _ensemble_rows(ctx: SimContext, violated: np.ndarray, dp: np.ndarray, dist: np.ndarray):
    """The ensemble QP's rows over the stacked controls of the free agents.

    One row per pair that is not braking at both ends, in ``pair_keys``
    order, then each free agent's four speed rows. Free agent c owns
    columns 2c and 2c + 1; a braking agent's control is fixed, so its block
    times its braking control moves into b. Also returns the row pairs.
    """
    V = ctx.V
    keep = ~(violated[ctx.pair_i] & violated[ctx.pair_j])
    i, j, dp, ds = ctx.pair_i[keep], ctx.pair_j[keep], dp[keep], ctx.pair_ds[keep]
    barrier.guard_pairs(i, j, dist[keep], ds)
    b = barrier.centralized_bounds(dp, dist[keep], V[i] - V[j], ctx.pair_accel_sum[keep],
                                   ctx.gain[i], ds, ctx.cfg.epsilon)
    brake_i, brake_j = violated[i], violated[j]
    if violated.any():
        U_brake = _apply(ctx, np.zeros((ctx.n, 2)), violated)
        b[brake_i] -= row_dot(-dp[brake_i], U_brake[i[brake_i]])
        b[brake_j] -= row_dot(dp[brake_j], U_brake[j[brake_j]])
    free = np.flatnonzero(~violated)
    col = np.cumsum(~violated) - 1
    k, f = np.arange(i.size)[:, None], np.arange(free.size)
    A = np.zeros((i.size + 4 * free.size, 2 * free.size))
    A[k[~brake_i], 2 * col[i[~brake_i], None] + [0, 1]] = -dp[~brake_i]
    A[k[~brake_j], 2 * col[j[~brake_j], None] + [0, 1]] = dp[~brake_j]
    A[i.size + 4 * f[:, None, None] + np.arange(4)[:, None],
      2 * f[:, None, None] + np.arange(2)] = _SPEED_A
    b = np.concatenate((b, _speed_bounds(ctx.speed[free], V[free], ctx.scenario.dt).ravel()))
    return A, b, list(zip(i.tolist(), j.tolist()))


def _solve_centralized(ctx: SimContext, U_nom: np.ndarray, violated: np.ndarray,
                       dp: np.ndarray, dist: np.ndarray):
    A, b, row_pairs = _ensemble_rows(ctx, violated, dp, dist)
    free = np.flatnonzero(~violated)
    if not free.size:
        return _apply(ctx, np.zeros((ctx.n, 2)), violated), [qp.INFEASIBLE] * ctx.n, row_pairs
    sol = qp.solve(qp.QpProblem(U_nom[free].ravel(), A, b, ctx.box[free].ravel()),
                   warm_start=ctx.ensemble_warm)
    ctx.ensemble_warm = sol.active_set
    optimal = sol.status == qp.OPTIMAL
    U = np.zeros((ctx.n, 2))
    if optimal:
        U[free] = sol.u_star.reshape(-1, 2)
    statuses = [qp.OPTIMAL if optimal and not v else qp.INFEASIBLE for v in violated.tolist()]
    return _apply(ctx, U, violated | (not optimal)), statuses, row_pairs


_SOLVERS = {mode: _solve_decentralized for mode in _BOUNDS}
_SOLVERS["centralized"] = _solve_centralized


def step_once(ctx: SimContext) -> StepRecord:
    """Advance the world by one step and return the post-step record."""
    scn = ctx.scenario
    P, V = ctx.P, ctx.V
    finite = np.isfinite(P).all(axis=1) & np.isfinite(V).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise RuntimeError(
            f"non-finite state for agent {ctx.params[i].id} at t={ctx.t:.6g}"
        )
    U_nom = goal_controller(P, V, ctx.goals, scn.k1, scn.k2, ctx.box)
    dp, dist = _pair_dist(ctx, P)
    _require_apart(dist)
    U, statuses, row_pairs = _SOLVERS[scn.mode](ctx, U_nom, _violated(ctx, dist), dp, dist)

    if ctx.estimators is not None:
        for est in ctx.estimators:
            est.observe(V[est.ids], scn.dt)
            est.update(scn.dt)

    ctx.P, ctx.V = step(P, V, U, scn.dt)
    ctx.t += scn.dt

    dp, dist = _pair_dist(ctx, ctx.P)
    _require_apart(dist)
    h = _pair_h(ctx, dist, _pair_vbar(ctx, dp, dist, ctx.V))
    return StepRecord(
        t=ctx.t,
        p=ctx.P,
        v=ctx.V,
        u_applied=U,
        u_nominal=U_nom,
        qp_status=statuses,
        pair_h=dict(zip(ctx.pair_keys, h.tolist())),
        min_pair_dist=float(dist.min()) if dist.size else math.inf,
        row_pairs=tuple(row_pairs),
    )


def detect_deadlock(
    log: TrajectoryLog,
    window: float = DEADLOCK_WINDOW,
    speed_eps: float = DEADLOCK_SPEED_EPS,
    goal_eps: float = DEADLOCK_GOAL_EPS,
) -> tuple[bool, float | None]:
    """Flag an agent sitting still away from its goal for a full window.

    Returns the flag and the onset time (start of the first such window).
    """
    if not window > 0:
        raise ValueError("window must be positive")
    records = log.records
    if not records:
        return False, None
    dt = log.scenario.dt
    span = max(1, int(round(window / dt)))
    goals = np.array([a.goal for a in log.scenario.agents])
    speeds = np.array([np.linalg.norm(r.v, axis=1) for r in records])  # (T, N)
    goal_dist = np.array([np.linalg.norm(r.p - goals, axis=1) for r in records])
    stuck = (speeds < speed_eps) & (goal_dist > goal_eps)
    T = stuck.shape[0]
    if T < span:
        return False, None
    onset = None
    for start in range(0, T - span + 1):
        if np.any(np.all(stuck[start : start + span], axis=0)):
            onset = records[start].t
            break
    return onset is not None, onset


def compute_metrics(log: TrajectoryLog) -> RunMetrics:
    """Summarize a run. Covers the initial state plus every recorded step."""
    scn = log.scenario
    positions = np.array([[a.state0.p for a in scn.agents]] + [rec.p for rec in log.records])
    pairs = _Pairs([a.params for a in scn.agents], scn.barrier_cfg)
    dp, dist = _pair_dist(pairs, positions[0])
    h = _pair_h(pairs, dist, _pair_vbar(pairs, dp, dist,
                                        np.array([a.state0.v for a in scn.agents])))
    min_dist = float(np.min(dist, initial=math.inf))
    min_h = float(np.min(h, initial=math.inf))
    for rec in log.records:
        min_dist = min(min_dist, rec.min_pair_dist)
        if rec.pair_h:
            min_h = min(min_h, min(rec.pair_h.values()))

    goal_errors = {
        a.params.id: float(np.linalg.norm(positions[-1, i] - a.goal))
        for i, a in enumerate(scn.agents)
    }
    total = np.linalg.norm(np.diff(positions, axis=0), axis=2).sum(axis=0)
    path_lengths = {a.params.id: float(total[i]) for i, a in enumerate(scn.agents)}
    infeasible = sum(
        status == qp.INFEASIBLE for rec in log.records for status in rec.qp_status
    )
    flag, onset = detect_deadlock(log)
    return RunMetrics(
        min_pair_dist=min_dist,
        min_h=min_h,
        goal_errors=goal_errors,
        qp_infeasible_count=int(infeasible),
        deadlock_detected=flag,
        deadlock_onset=onset,
        path_lengths=path_lengths,
    )


def run(scenario: Scenario) -> tuple[TrajectoryLog, RunMetrics]:
    """Run a scenario to t_end (or until every agent has settled at its
    goal) and return the full log plus summary metrics."""
    ctx = SimContext(scenario)
    records: list[StepRecord] = []
    n_steps = int(round(scenario.t_end / scenario.dt))
    for _ in range(n_steps):
        records.append(step_once(ctx))
        # Goal distances round like np.linalg.norm.
        to_goal = ctx.P - ctx.goals
        if (np.sqrt(row_dot(to_goal, to_goal)).max() <= GOAL_STOP_TOL
                and np.abs(ctx.V).max() <= GOAL_STOP_SPEED):
            break
    log = TrajectoryLog(scenario, records)
    return log, compute_metrics(log)
