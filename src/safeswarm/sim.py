"""Fixed-step scenario engine: nominal control, safety filtering, logging.

Every step takes one synchronous snapshot of all agents, computes each
agent's nominal goal-seeking control, builds the safety rows prescribed by
the scenario mode, solves the projection QP(s), falls back to maximum
braking when a QP is infeasible or a pair is already inside its safety
distance, and only then integrates everyone forward. Runs are fully
deterministic for a given scenario.

The pair work of a step runs on numpy arrays over the pairs i < j, in
``SimContext.pair_keys`` order. On the pre-step (N, 2) positions it computes
each pair's distance, for the agents inside a violated pair, and the (N, N)
neighbour mask ``norm <= radius[i]``; on the post-step positions and
velocities, each pair's distance, line-of-sight speed and barrier h for the
step record. Every value is bit-identical to what ``relative_state``,
``pair_barrier`` and ``barrier.neighbors`` give. Rows and QPs stay per agent.

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

import math
from dataclasses import dataclass, field

import numpy as np

from . import barrier, qp
from .barrier import BarrierConfig, HalfspaceRow, NeighborInfo
from .dynamics import (AgentParams, AgentState, DegenerateGeometryError, relative_state,
                       saturate_box, step)
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
        for i in range(len(self.agents)):
            for j in range(i + 1, len(self.agents)):
                ai, aj = self.agents[i], self.agents[j]
                ds = self.barrier_cfg.safety_distance(ai.params, aj.params)
                rel_dist = float(np.linalg.norm(ai.state0.p - aj.state0.p))
                if rel_dist <= ds:
                    raise ScenarioError(
                        f"agents {ai.params.id} and {aj.params.id} start "
                        f"{rel_dist:.6g} m apart, within safety distance {ds:.6g} m"
                    )
                rel = relative_state(ai.state0, aj.state0)
                accel_sum = ai.params.accel_limit + aj.params.accel_limit
                h, _ = barrier.pair_barrier(rel, accel_sum, ds)
                if h < 0:
                    raise ScenarioError(
                        f"agents {ai.params.id} and {aj.params.id} start closing "
                        f"too fast to brake (barrier {h:.6g} < 0)"
                    )

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


def goal_controller(s: AgentState, goal: np.ndarray, k1: float, k2: float,
                    accel_limit: float) -> np.ndarray:
    """Saturated PD control toward a fixed goal position."""
    u = -k1 * (s.p - np.asarray(goal, dtype=float)) - k2 * s.v
    return saturate_box(u, accel_limit)


def braking_fallback(s: AgentState, accel_limit: float) -> np.ndarray:
    """Maximum per-axis deceleration along the current velocity."""
    peak = float(np.max(np.abs(s.v)))
    if peak < 1e-12:
        return np.zeros(2)
    return np.clip(-accel_limit * s.v / peak, -accel_limit, accel_limit)


class SimContext:
    """Mutable run state: current agent states, estimators, warm starts,
    plus the per-pair and per-agent constants the array step reads."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.params = [a.params for a in scenario.agents]
        self.goals = [a.goal for a in scenario.agents]
        self.states = [a.state0.copy() for a in scenario.agents]
        self.n = len(scenario.agents)
        self.t = 0.0
        self.cfg = scenario.barrier_cfg
        self.safety_dist = np.zeros((self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                if i != j:
                    self.safety_dist[i, j] = self.cfg.safety_distance(
                        self.params[i], self.params[j]
                    )
        self.neighbor_info = [self._neighbor_info(i) for i in range(self.n)]
        self.neighbor_radius = np.array([info.neighbor_radius for info in self.neighbor_info])
        self.pair_i, self.pair_j = np.triu_indices(self.n, 1)
        self.pair_keys = list(zip(self.pair_i.tolist(), self.pair_j.tolist()))
        self.pair_ds = self.safety_dist[self.pair_i, self.pair_j]
        accel = np.array([p.accel_limit for p in self.params])
        self.pair_accel_sum = accel[self.pair_i] + accel[self.pair_j]
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
        return NeighborInfo(radius, min_accel, max_speed)


def _speed_rows(i: int, state: AgentState, params: AgentParams, dt: float) -> list[HalfspaceRow]:
    # Per-axis cap on the next-step velocity: |v_c + u_c dt| <= speed_limit.
    rows = []
    for c in range(2):
        e = np.zeros(2)
        e[c] = 1.0
        rows.append(HalfspaceRow(e, (params.speed_limit - state.v[c]) / dt, (i, i)))
        rows.append(HalfspaceRow(-e, (params.speed_limit + state.v[c]) / dt, (i, i)))
    return rows


def _pair_dist(ctx: SimContext, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dp and dist of every pair i < j, as ``relative_state`` computes them
    (math.hypot: np.hypot rounds differently). Raises
    DegenerateGeometryError when two positions coincide."""
    dp = P[ctx.pair_i] - P[ctx.pair_j]
    dist = np.array(list(map(math.hypot, dp[:, 0].tolist(), dp[:, 1].tolist())))
    if dist.size and not dist.all():
        raise DegenerateGeometryError("coincident agent positions")
    return dp, dist


def _pair_vbar(ctx: SimContext, dp: np.ndarray, dist: np.ndarray, V: np.ndarray) -> np.ndarray:
    # matmul of (1, 2) by (2, 1) rounds like dp @ dv; an elementwise
    # multiply-add or einsum does not.
    dv = V[ctx.pair_i] - V[ctx.pair_j]
    return np.matmul(dp[:, None, :], dv[:, :, None])[:, 0, 0] / dist


def _pair_h(ctx: SimContext, dist: np.ndarray, vbar: np.ndarray) -> np.ndarray:
    """``pair_barrier`` of every pair, with the true acceleration limits."""
    gap = dist - ctx.pair_ds
    return np.sqrt(2.0 * ctx.pair_accel_sum * np.maximum(gap, 0.0)) + vbar


def _violated(ctx: SimContext, dist: np.ndarray) -> set[int]:
    """Agents in a pair at or inside its safety distance."""
    inside = dist <= ctx.pair_ds
    return set(ctx.pair_i[inside].tolist()) | set(ctx.pair_j[inside].tolist())


def _neighbor_mask(ctx: SimContext, P: np.ndarray) -> np.ndarray:
    """(N, N) mask of ``barrier.neighbors``: row i holds agent i's neighbours.
    The norm is sqrt of a (1, 2) by (2, 1) matmul, as np.linalg.norm rounds."""
    dP = P[:, None, :] - P[None, :, :]
    norm = np.sqrt(np.matmul(dP[..., None, :], dP[..., :, None]))[..., 0, 0]
    mask = norm <= ctx.neighbor_radius[:, None]
    np.fill_diagonal(mask, False)
    return mask


def _agent_barrier_rows(
    ctx: SimContext, i: int, neighbor_ids: list[int]
) -> list[HalfspaceRow]:
    mode = ctx.scenario.mode
    rows = []
    for j in neighbor_ids:
        if mode == "decentralized_A":
            rows.append(barrier.strategy_a_rows(i, j, ctx.states, ctx.params, ctx.cfg)[0])
        elif mode == "decentralized_B":
            rows.append(barrier.strategy_b_rows(i, j, ctx.states, ctx.params, ctx.cfg)[0])
        elif mode == "decentralized_C":
            rows.append(
                barrier.strategy_c_row(
                    i, j, ctx.states, ctx.params[i],
                    ctx.params[j].accel_limit, ctx.cfg,
                    safety_dist=ctx.safety_dist[i, j],
                )
            )
        else:  # decentralized_C_estimated
            rows.append(
                barrier.strategy_c_row(
                    i, j, ctx.states, ctx.params[i],
                    ctx.estimators[i].estimates[j], ctx.cfg,
                    safety_dist=ctx.safety_dist[i, j],
                )
            )
    return rows


def _solve_decentralized(
    ctx: SimContext, u_nominal: list[np.ndarray], violated: set[int], P: np.ndarray
) -> tuple[list[np.ndarray], list[str], list[tuple[int, int]]]:
    dt = ctx.scenario.dt
    u_applied = []
    statuses = []
    row_pairs: list[tuple[int, int]] = []
    neighbor_ids: list[list[int]] = [[] for _ in range(ctx.n)]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(_neighbor_mask(ctx, P)))):
        neighbor_ids[i].append(j)  # row-major order keeps each list ascending
    for i in range(ctx.n):
        if i in violated:
            u_applied.append(braking_fallback(ctx.states[i], ctx.params[i].accel_limit))
            statuses.append(qp.INFEASIBLE)
            continue
        # Rows against braking (violated-pair) agents stay in force: any pair
        # involving a non-violated agent is still outside its safety distance.
        rows = _agent_barrier_rows(ctx, i, neighbor_ids[i])
        row_pairs.extend(row.pair for row in rows)
        rows += _speed_rows(i, ctx.states[i], ctx.params[i], dt)
        problem = qp.QpProblem(
            u_nominal[i], rows, np.full(2, ctx.params[i].accel_limit)
        )
        sol = qp.solve(problem, warm_start=ctx.warm_starts[i])
        ctx.warm_starts[i] = sol.active_set
        if sol.status == qp.OPTIMAL:
            u_applied.append(np.clip(sol.u_star, -ctx.params[i].accel_limit,
                                     ctx.params[i].accel_limit))
        else:
            u_applied.append(braking_fallback(ctx.states[i], ctx.params[i].accel_limit))
        statuses.append(sol.status)
    return u_applied, statuses, row_pairs


def _solve_centralized(
    ctx: SimContext, u_nominal: list[np.ndarray], violated: set[int]
) -> tuple[list[np.ndarray], list[str], list[tuple[int, int]]]:
    dt = ctx.scenario.dt
    n = ctx.n
    free = [i for i in range(n) if i not in violated]
    u_brake = {
        i: braking_fallback(ctx.states[i], ctx.params[i].accel_limit) for i in violated
    }
    col = {agent: idx for idx, agent in enumerate(free)}
    rows: list[HalfspaceRow] = []
    row_pairs: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if i in violated and j in violated:
                continue
            full = barrier.centralized_row(i, j, ctx.states, ctx.params, ctx.cfg)
            row_pairs.append((i, j))
            a = np.zeros(2 * len(free))
            b = full.b
            for agent in (i, j):
                block = full.a[2 * agent : 2 * agent + 2]
                if agent in col:
                    a[2 * col[agent] : 2 * col[agent] + 2] = block
                else:
                    b -= float(block @ u_brake[agent])  # fixed braking control
            rows.append(HalfspaceRow(a, b, (i, j)))
    for i in free:
        for srow in _speed_rows(i, ctx.states[i], ctx.params[i], dt):
            a = np.zeros(2 * len(free))
            a[2 * col[i] : 2 * col[i] + 2] = srow.a
            rows.append(HalfspaceRow(a, srow.b, srow.pair))
    if not free:
        return ([u_brake[i] for i in range(n)], [qp.INFEASIBLE] * n, row_pairs)
    u_hat = np.concatenate([u_nominal[i] for i in free])
    box = np.concatenate([np.full(2, ctx.params[i].accel_limit) for i in free])
    sol = qp.solve(qp.QpProblem(u_hat, rows, box), warm_start=ctx.ensemble_warm)
    ctx.ensemble_warm = sol.active_set
    u_applied = []
    statuses = []
    for i in range(n):
        if i in violated:
            u_applied.append(u_brake[i])
            statuses.append(qp.INFEASIBLE)
        elif sol.status == qp.OPTIMAL:
            u = sol.u_star[2 * col[i] : 2 * col[i] + 2]
            limit = ctx.params[i].accel_limit
            u_applied.append(np.clip(u, -limit, limit))
            statuses.append(qp.OPTIMAL)
        else:
            u_applied.append(braking_fallback(ctx.states[i], ctx.params[i].accel_limit))
            statuses.append(qp.INFEASIBLE)
    return u_applied, statuses, row_pairs


def step_once(ctx: SimContext) -> StepRecord:
    """Advance the world by one step and return the post-step record."""
    scn = ctx.scenario
    P = np.array([s.p for s in ctx.states])
    V = np.array([s.v for s in ctx.states])
    finite = np.isfinite(P).all(axis=1) & np.isfinite(V).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise RuntimeError(
            f"non-finite state for agent {ctx.params[i].id} at t={ctx.t:.6g}"
        )
    u_nominal = [
        goal_controller(ctx.states[i], ctx.goals[i], scn.k1, scn.k2,
                        ctx.params[i].accel_limit)
        for i in range(ctx.n)
    ]
    _, dist = _pair_dist(ctx, P)
    violated = _violated(ctx, dist)
    if scn.mode == "centralized":
        u_applied, statuses, row_pairs = _solve_centralized(ctx, u_nominal, violated)
    else:
        u_applied, statuses, row_pairs = _solve_decentralized(ctx, u_nominal, violated, P)

    if ctx.estimators is not None:
        for est in ctx.estimators:
            est.observe(V[est.ids], scn.dt)
            est.update(scn.dt)

    ctx.states = [step(ctx.states[i], u_applied[i], scn.dt) for i in range(ctx.n)]
    ctx.t += scn.dt

    P = np.array([s.p for s in ctx.states])
    V = np.array([s.v for s in ctx.states])
    dp, dist = _pair_dist(ctx, P)
    h = _pair_h(ctx, dist, _pair_vbar(ctx, dp, dist, V))
    return StepRecord(
        t=ctx.t,
        p=P,
        v=V,
        u_applied=np.array(u_applied),
        u_nominal=np.array(u_nominal),
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


def _final_positions(log: TrajectoryLog) -> np.ndarray:
    if log.records:
        return log.records[-1].p
    return np.array([a.state0.p for a in log.scenario.agents])


def compute_metrics(log: TrajectoryLog) -> RunMetrics:
    """Summarize a run. Covers the initial state plus every recorded step."""
    scn = log.scenario
    n = len(scn.agents)
    params = [a.params for a in scn.agents]
    cfg = scn.barrier_cfg
    states0 = [a.state0 for a in scn.agents]

    min_dist = math.inf
    min_h = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            rel = relative_state(states0[i], states0[j])
            min_dist = min(min_dist, rel.dist)
            h, _ = barrier.pair_barrier(
                rel,
                params[i].accel_limit + params[j].accel_limit,
                cfg.safety_distance(params[i], params[j]),
            )
            min_h = min(min_h, h)
    for rec in log.records:
        min_dist = min(min_dist, rec.min_pair_dist)
        if rec.pair_h:
            min_h = min(min_h, min(rec.pair_h.values()))

    final_p = _final_positions(log)
    goal_errors = {
        a.params.id: float(np.linalg.norm(final_p[i] - a.goal))
        for i, a in enumerate(scn.agents)
    }
    positions = [np.array([a.state0.p for a in scn.agents])]
    positions += [rec.p for rec in log.records]
    hops = [
        np.linalg.norm(positions[k + 1] - positions[k], axis=1)
        for k in range(len(positions) - 1)
    ]
    total = np.sum(hops, axis=0) if hops else np.zeros(n)
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
        rec = step_once(ctx)
        records.append(rec)
        goal_dist = max(
            float(np.linalg.norm(ctx.states[i].p - ctx.goals[i])) for i in range(ctx.n)
        )
        top_speed = max(float(np.max(np.abs(s.v))) for s in ctx.states)
        if goal_dist <= GOAL_STOP_TOL and top_speed <= GOAL_STOP_SPEED:
            break
    log = TrajectoryLog(scenario, records)
    return log, compute_metrics(log)
