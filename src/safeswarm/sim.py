"""Fixed-step scenario engine: nominal control, safety filtering, logging.

Every step takes one synchronous snapshot of all agents, computes each
agent's nominal goal-seeking control, builds the safety rows prescribed by
the scenario mode and solves the projection QP(s). The mode's solver
returns the QP answers as an (N, 2) array, an (N,) brake mask and the row
pairs. An agent brakes when a pair it is in is at or inside its safety
distance (it then has no QP) or when its QP, or the ensemble QP, has no
solution. ``step_once`` clamps every answer to the box, overwrites the
braking rows with one ``braking_fallback`` call, reads each status off the
mask, and only then integrates everyone forward. Runs are fully
deterministic for a given scenario.

The run state is the (N, 2) arrays ``SimContext.P`` and ``V``; a step runs
on per-step arrays. Pair geometry runs over the pairs i < j in
``np.triu_indices`` order, with one ``math.hypot`` distance per pair. The
start's dp and dist are computed once, when the context is built, and a
step's post-step ones are carried over as the next step's pre-step values
(``SimContext.geometry``, keyed by the identity of ``P``; reassign ``P``
rather than editing it in place), so each step computes and checks them
once. The neighbour test reads that dist over the directed pairs (owner,
other), and the mode's bound function in ``barrier`` builds the rows of
all neighbour pairs in one call.

In the decentralized modes every free agent's QP is one row of the padded
layout that ``qp.solve_padded`` takes: (K, M, 2) rows and (K, M) bounds,
in the order barrier rows, four speed rows, four box faces, padding. What
fixes that layout, the slots of the barrier and speed rows, templates
holding the speed normals, box faces and padding, the row pairs, the
per-row lookups and the speed limits, depends only on the (neighbour mask,
violated mask) pair; it is cached on ``SimContext.layout`` while the bytes
of that pair are unchanged, and each step writes its barrier rows and
bounds into copies of the templates; empty scatters are skipped.
Warm starts are one (N, W) bool mask, ``SimContext.warm``, sliced into the
kernel and written back from its final working sets. The centralized QP
embeds the rows in one dense array and goes to ``qp.solve``. In the
estimated mode one ``LimitEstimator`` serves every agent. Every value is
bit-identical to what the scalar functions (``relative_state``,
``pair_barrier``, ``barrier.neighbors``, the row builders, a ``qp.solve``
per agent and one estimator per agent) give.

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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import barrier, qp
from .barrier import BarrierConfig
from .dynamics import AgentParams, AgentState, DegenerateGeometryError, row_dot, step
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

    def validate(self) -> None:
        _Start(self)

    def resolved_alpha_floor(self) -> float:
        if self.alpha_floor is not None:
            return self.alpha_floor
        return 0.5 * min(a.params.accel_limit for a in self.agents)


@dataclass
class StepRecord:
    """Snapshot after one step: post-step states, the controls that
    produced them, the (owner, other) pair of each barrier row the step
    built, and the minimum h and distance over all pairs on the post-step
    states. Per-pair h is not kept, so a record is O(N + rows)."""

    t: float
    p: np.ndarray  # (N, 2)
    v: np.ndarray  # (N, 2)
    u_applied: np.ndarray  # (N, 2)
    u_nominal: np.ndarray  # (N, 2)
    qp_status: list[str]
    min_h: float  # inf without pairs
    min_pair_dist: float  # inf without pairs
    row_pairs: np.ndarray  # (E, 2) int, in row order


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
    """Saturated PD control toward a fixed goal position, clamped to the
    box. Broadcasts over (N, 2) arrays of agents, with one row of positive
    limits per agent (``AgentParams`` checks that they are)."""
    u = -k1 * (p - np.asarray(goal, dtype=float)) - k2 * v
    return np.minimum(np.maximum(u, -accel_limit), accel_limit)


def braking_fallback(v: np.ndarray, accel_limit) -> np.ndarray:
    """Maximum per-axis deceleration along the velocity v, zero at rest (both
    speeds below 1e-12). Broadcasts over (N, 2) arrays of agents, with one
    row of limits per agent, as ``goal_controller``."""
    peak = np.max(np.abs(v), axis=-1, keepdims=True)
    rest = peak < 1e-12
    u = np.clip(-accel_limit * v / np.where(rest, 1.0, peak), -accel_limit, accel_limit)
    return np.where(rest, 0.0, u)


class _Start:
    """A scenario's checked start: ``Scenario.validate``'s checks, the pairs
    i < j in ``np.triu_indices`` order with each pair's safety distance and
    summed acceleration limit, the start ``P`` and ``V``, the ``goals``, and
    the pairs' start ``dp``, ``dist`` and ``h``. The nominal gains must be
    nonnegative and finite, and so must every agent's unclamped nominal
    control at the start."""

    def __init__(self, scn: Scenario):
        agents = scn.agents
        if not agents:
            raise ScenarioError("scenario has no agents")
        if not scn.dt > 0:
            raise ScenarioError(f"dt must be positive, got {scn.dt!r}")
        if not 0 < scn.estimator_gain < math.inf:
            raise ScenarioError(f"estimator gain k must be positive and finite, got "
                                f"{scn.estimator_gain!r}")
        if scn.estimator_gain * scn.dt > 1:  # past 1 an estimator step overshoots its target
            raise ScenarioError(f"estimator gain k times dt must be at most 1, got "
                                f"{scn.estimator_gain!r} * {scn.dt!r}")
        floor, top = scn.alpha_floor, min(a.params.accel_limit for a in agents)
        if floor is not None and not (0 < floor < math.inf and floor <= top):
            raise ScenarioError(f"alpha_floor must be positive, finite and at most the smallest "
                                f"accel limit {top!r}, got {floor!r}")
        for name, gain in (("k1", scn.k1), ("k2", scn.k2)):
            if not 0 <= gain < math.inf:
                raise ScenarioError(f"gain {name} must be nonnegative and finite, got {gain!r}")
        if scn.t_end < 0:
            raise ScenarioError(f"t_end must be nonnegative, got {scn.t_end!r}")
        if not math.isfinite(scn.t_end / scn.dt):
            raise ScenarioError(f"t_end / dt = {scn.t_end / scn.dt!r} steps is not finite")
        if scn.mode not in MODES:
            raise ScenarioError(f"unknown mode {scn.mode!r}; expected one of {MODES}")
        ids = [a.params.id for a in agents]
        counts = Counter(ids)
        for aid in ids:
            if counts[aid] > 1:
                raise ScenarioError(f"duplicate agent id {aid}")
        for a in agents:
            values = np.concatenate([a.state0.p, a.state0.v, a.goal])
            if not np.all(np.isfinite(values)):
                raise ScenarioError(f"agent {a.params.id} has non-finite state or goal")
            if np.max(np.abs(a.state0.v)) > a.params.speed_limit + 1e-9:
                raise ScenarioError(
                    f"agent {a.params.id} starts above its speed limit"
                )
        self.params = [a.params for a in agents]
        self.safety_dist = scn.barrier_cfg.safety_distances(np.array([p.radius for p in self.params]))
        self.accel = np.array([p.accel_limit for p in self.params])
        self.pair_i, self.pair_j = np.triu_indices(len(agents), 1)
        self.pair_ds = self.safety_dist[self.pair_i, self.pair_j]
        self.pair_accel_sum = self.accel[self.pair_i] + self.accel[self.pair_j]
        self.P = np.array([a.state0.p for a in agents])
        self.V = np.array([a.state0.v for a in agents])
        self.goals = np.array([a.goal for a in agents])
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            pd = goal_controller(self.P, self.V, self.goals, scn.k1, scn.k2, math.inf)
        bad = np.flatnonzero(~np.isfinite(pd).all(axis=1))
        if bad.size:
            raise ScenarioError(f"agent {self.params[bad[0]].id} starts with a non-finite nominal "
                                f"control under gains k1 = {scn.k1!r}, k2 = {scn.k2!r}")
        self.dp, self.dist = _pair_dist(self, self.P)
        with np.errstate(divide="ignore", invalid="ignore"):  # a coincident pair fails first
            self.h = _pair_h(self, self.dist, _pair_vbar(self, self.dp, self.dist, self.V))
        near = self.dist <= self.pair_ds  # as _violated
        bad = np.flatnonzero(near | (self.h < 0))
        if bad.size:
            k = bad[0]
            ai, aj = (self.params[x].id for x in (self.pair_i[k], self.pair_j[k]))
            raise ScenarioError(f"agents {ai} and {aj} start " + (
                f"{self.dist[k]:.6g} m apart, within safety distance {self.pair_ds[k]:.6g} m"
                if near[k] else f"closing too fast to brake (barrier {self.h[k]:.6g} < 0)"))


class SimContext(_Start):
    """Mutable run state: the (N, 2) positions ``P`` and velocities ``V``,
    estimators and warm starts, plus the per-pair and per-agent constants
    the array step reads, the decentralized ``layout`` cached by the first
    step and the carried pair ``geometry``, the start's until then.

    The directed pairs (``dir_own``, ``dir_oth``, pair ``dir_pair``) list
    every pair twice, once per owner, in owner-major order, with the
    owner's neighbour radius ``dir_radius``.

    In the estimated mode one estimator serves every agent, since all
    observe all others with the same law, floor and gain; the step
    observes and updates it once and reads its ``est``. ``estimators``
    holds it N times, agent i's at ``estimators[i]``, because
    ``perfbench/run.py`` reads ``estimators[i].estimates``. Observing only
    the agents in each one's interaction radius (ROADMAP item 2) would
    bring back per-agent state, as one (N, N) array.
    """

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self.scenario = scenario
        self.cfg = scenario.barrier_cfg
        self.n = len(scenario.agents)
        self.t = 0.0
        self.box = np.repeat(self.accel[:, None], 2, axis=1)  # per-axis control bounds
        self.speed = np.array([p.speed_limit for p in self.params])
        self.gain = np.array([p.barrier_gain for p in self.params])
        self.neighbor_radius = self._neighbor_radius()
        own = np.concatenate((self.pair_j, self.pair_i))
        order = np.argsort(own, kind="stable")  # per owner: the others below it, then above
        self.dir_own, self.dir_oth = own[order], np.concatenate((self.pair_i, self.pair_j))[order]
        self.dir_pair = np.tile(np.arange(self.pair_i.size), 2)[order]
        self.dir_radius = self.neighbor_radius[self.dir_own]
        self.estimators: list[LimitEstimator] | None = None
        if scenario.mode == "decentralized_C_estimated":
            shared = LimitEstimator(self.n, scenario.resolved_alpha_floor(),
                                    scenario.estimator_gain)
            self.estimators = [shared] * self.n
        self.warm = np.zeros((self.n, 0), dtype=bool)  # (N, W), grown as layouts widen
        self.ensemble_warm: tuple[int, ...] = ()
        self.layout: _Layout | None = None
        self.geometry = (self.P, self.dp, self.dist)

    def _neighbor_radius(self) -> np.ndarray:
        """Each agent's ``barrier.neighbor_radius`` against the weakest
        braking, the top speed and the widest safety distance among the
        others; a lone agent's own limits and twice its radius stand in."""
        scn, lone = self.scenario, self.n == 1
        others = ~np.eye(self.n, dtype=bool) | lone
        min_accel = np.where(others, self.accel, np.inf).min(axis=1)
        max_speed = np.where(others, self.speed, -np.inf).max(axis=1)
        ds_worst = (2 * np.array([p.radius for p in self.params]) if lone
                    else np.where(others, self.safety_dist, -np.inf).max(axis=1))
        if scn.mode == "decentralized_C_estimated":
            min_accel = np.minimum(min_accel, scn.resolved_alpha_floor())
        return np.array([barrier.neighbor_radius(*args) for args in zip(
            self.params, min_accel.tolist(), max_speed.tolist(), ds_worst.tolist())])


# Normals of each agent's four speed rows, +e_0, -e_0, +e_1, -e_1. The
# negative faces are -e, with -0.0 off the diagonal.
_SPEED_A = np.array([[1.0, 0.0], [-1.0, -0.0], [0.0, 1.0], [-0.0, -1.0]])


def _speed_bounds(speed: np.ndarray, V: np.ndarray, dt: float) -> np.ndarray:
    # (N, 4) bounds of the rows _SPEED_A: per-axis cap on the next-step
    # velocity, |v_c + u_c dt| <= speed_limit.
    out, speed = np.empty((len(V), 2, 2)), speed[:, None]
    np.subtract(speed, V, out=out[..., 0])
    np.add(speed, V, out=out[..., 1])
    out /= dt
    return out.reshape(-1, 4)


def _pair_dist(ctx: _Start, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dp and dist of every pair i < j, as ``relative_state`` computes them
    (math.hypot: np.hypot rounds differently)."""
    dp = P[ctx.pair_i] - P[ctx.pair_j]
    return dp, np.array(list(map(math.hypot, dp[:, 0].tolist(), dp[:, 1].tolist())))


def _require_apart(dp: np.ndarray, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not dist.all():
        raise DegenerateGeometryError("coincident agent positions")
    return dp, dist


def _pair_vbar(ctx: _Start, dp: np.ndarray, dist: np.ndarray, V: np.ndarray) -> np.ndarray:
    return row_dot(dp, V[ctx.pair_i] - V[ctx.pair_j]) / dist


def _pair_h(ctx: _Start, dist: np.ndarray, vbar: np.ndarray) -> np.ndarray:
    """``pair_barrier`` of every pair, with the true acceleration limits."""
    return barrier.barrier_values(dist, vbar, ctx.pair_accel_sum, ctx.pair_ds)


def _violated(ctx: SimContext, dist: np.ndarray) -> np.ndarray:
    """(N,) mask of the agents in a pair at or inside its safety distance."""
    inside = (dist <= ctx.pair_ds).nonzero()[0]
    violated = np.zeros(ctx.n, dtype=bool)
    if inside.size:
        violated[ctx.pair_i[inside]] = violated[ctx.pair_j[inside]] = True
    return violated


# The per-agent row bound of each decentralized mode, over directed pairs.
_BOUNDS = {
    "decentralized_A": barrier.rate_split_bounds,
    "decentralized_B": barrier.bound_split_bounds,
    "decentralized_C": barrier.hybrid_bounds,
    "decentralized_C_estimated": barrier.hybrid_bounds,
}


class _Layout:
    """The fixed part of a decentralized step's QPs, in ``qp.pad_rows``'s
    padded layout, for one (neighbour mask, violated mask) pair: ``near``
    over the directed pairs and ``violated`` over the agents.

    Free agent ``free[k]`` owns problem k: its barrier rows against each
    neighbour (the ``near`` directed pairs it owns) in ascending order, its
    four speed rows, its four box faces, then padding. A violated agent has
    no problem. Rows against braking (violated-pair) agents stay in force:
    any pair involving a non-violated agent is still outside its safety
    distance. ``A`` and ``b`` hold the speed normals, box faces, face bounds
    and padding; the step writes the barrier rows and all bounds that move
    into copies of them at the flat slots ``bar`` and ``speed``. ``own``,
    ``oth``, ``pair``, ``ds``, ``accel``, ``accel_other`` and ``gain`` are
    per barrier row, and ``row_pairs`` is their (E, 2) (owner, other)
    array, and ``vmax`` the free agents' speed limits. ``key`` is the
    masks' bytes. Every array a step record or template shares is read-only.
    """

    def __init__(self, ctx: SimContext, near: np.ndarray, violated: np.ndarray):
        self.key = near.tobytes() + violated.tobytes()
        mine = near & ~violated[ctx.dir_own]  # the directed pairs free agents own
        self.own, self.oth, self.pair = own, oth, pair = (
            ctx.dir_own[mine], ctx.dir_oth[mine], ctx.dir_pair[mine])
        self.free = np.flatnonzero(~violated)
        counts = np.bincount(own, minlength=ctx.n)[self.free] + 4
        rows = np.zeros((counts.sum(), 2))
        speed = np.zeros(len(rows), dtype=bool)
        speed[(np.cumsum(counts) - 4)[:, None] + np.arange(4)] = True
        rows[speed] = np.tile(_SPEED_A, (self.free.size, 1))
        self.A, self.b, self.m = qp.pad_rows(rows, np.zeros(len(rows)), counts,
                                             ctx.box[self.free])
        slots = np.flatnonzero(np.arange(self.A.shape[1]) < counts[:, None])
        self.bar, self.speed = slots[~speed], slots[speed]
        self.ds = ctx.pair_ds[pair]
        self.accel, self.accel_other, self.gain = ctx.accel[own], ctx.accel[oth], ctx.gain[own]
        self.vmax = ctx.speed[self.free]
        self.row_pairs = np.array((own, oth)).T
        for shared in (self.A, self.b, self.row_pairs):
            shared.flags.writeable = False

    def holds(self, near: np.ndarray, violated: np.ndarray) -> bool:
        return near.tobytes() + violated.tobytes() == self.key


def _agent_qps(ctx: SimContext, violated: np.ndarray, dist: np.ndarray):
    """The step's layout, cached on ``ctx`` while its key holds, and the
    (K, M, 2) rows and (K, M) bounds of every free agent's QP in it. Widens
    ``ctx.warm`` to at least M columns."""
    near = dist[ctx.dir_pair] <= ctx.dir_radius
    lay = ctx.layout
    if lay is None or not lay.holds(near, violated):
        lay = ctx.layout = _Layout(ctx, near, violated)
        if ctx.warm.shape[1] < lay.A.shape[1]:
            ctx.warm = np.pad(ctx.warm, ((0, 0), (0, lay.A.shape[1] - ctx.warm.shape[1])))
    P, V, own, oth = ctx.P, ctx.V, lay.own, lay.oth
    # p_own - p_oth afresh, not a negated pair dp: a zero must keep its sign.
    dp = P[own] - P[oth]
    dist = dist[lay.pair]
    accel_other = lay.accel_other if ctx.estimators is None else ctx.estimators[0].est[oth]
    A, b = lay.A.copy(), lay.b.copy()
    A.reshape(-1, 2)[lay.bar] = -dp
    flat = b.reshape(-1)
    flat[lay.bar] = _BOUNDS[ctx.scenario.mode](dp, dist, V[own] - V[oth], V[own], lay.accel,
                                               accel_other, lay.gain, lay.ds, ctx.cfg.epsilon)
    flat[lay.speed] = _speed_bounds(lay.vmax, V[lay.free], ctx.scenario.dt).ravel()
    return lay, A, b


def _solve_decentralized(ctx: SimContext, U_nom: np.ndarray, violated: np.ndarray,
                         dp: np.ndarray, dist: np.ndarray):
    lay, A, b = _agent_qps(ctx, violated, dist)
    free, width = lay.free, b.shape[1]
    u, optimal, active, _ = qp.solve_padded(U_nom[free], A, b, lay.m, ctx.warm[free, :width])
    ctx.warm[free, :width] = active
    if ctx.warm.shape[1] > width:  # clear the bits beyond a narrower layout
        ctx.warm[free, width:] = False
    U = np.zeros((ctx.n, 2))
    U[free], violated[free] = u, ~optimal  # the brake mask: violated or without an optimum
    return U, violated, lay.row_pairs


def _ensemble_rows(ctx: SimContext, violated: np.ndarray, dp: np.ndarray, dist: np.ndarray):
    """The ensemble QP's rows over the stacked controls of the free agents.

    One row per pair that is not braking at both ends, in pair order, then
    each free agent's four speed rows. Free agent c owns columns 2c and
    2c + 1; a braking agent's control is fixed, so its block times its
    braking control moves into b. Also returns the (E, 2) row pairs.
    """
    V = ctx.V
    keep = ~(violated[ctx.pair_i] & violated[ctx.pair_j])
    i, j, dp, ds = ctx.pair_i[keep], ctx.pair_j[keep], dp[keep], ctx.pair_ds[keep]
    b = barrier.centralized_bounds(dp, dist[keep], V[i] - V[j], ctx.pair_accel_sum[keep],
                                   ctx.gain[i], ds, ctx.cfg.epsilon)
    brake_i, brake_j = violated[i], violated[j]
    if violated.any():
        U_brake = braking_fallback(V, ctx.box)
        b[brake_i] -= row_dot(-dp[brake_i], U_brake[i[brake_i]])
        b[brake_j] -= row_dot(dp[brake_j], U_brake[j[brake_j]])
    free = (~violated).nonzero()[0]
    col = np.cumsum(~violated) - 1
    k, f = np.arange(i.size)[:, None], np.arange(free.size)
    A = np.zeros((i.size + 4 * free.size, 2 * free.size))
    A[k[~brake_i], 2 * col[i[~brake_i], None] + [0, 1]] = -dp[~brake_i]
    A[k[~brake_j], 2 * col[j[~brake_j], None] + [0, 1]] = dp[~brake_j]
    A[i.size + 4 * f[:, None, None] + np.arange(4)[:, None],
      2 * f[:, None, None] + np.arange(2)] = _SPEED_A
    b = np.concatenate((b, _speed_bounds(ctx.speed[free], V[free], ctx.scenario.dt).ravel()))
    return A, b, np.array((i, j)).T


def _solve_centralized(ctx: SimContext, U_nom: np.ndarray, violated: np.ndarray,
                       dp: np.ndarray, dist: np.ndarray):
    A, b, row_pairs = _ensemble_rows(ctx, violated, dp, dist)
    free, U = (~violated).nonzero()[0], np.zeros((ctx.n, 2))
    if not free.size:
        return U, violated, row_pairs
    sol = qp.solve(qp.QpProblem(U_nom[free].ravel(), A, b, ctx.box[free].ravel()),
                   warm_start=ctx.ensemble_warm)
    ctx.ensemble_warm = sol.active_set
    U[free] = sol.u_star.reshape(-1, 2)
    return U, violated | (sol.status != qp.OPTIMAL), row_pairs


_SOLVERS = {mode: _solve_decentralized for mode in _BOUNDS}
_SOLVERS["centralized"] = _solve_centralized


def step_once(ctx: SimContext) -> StepRecord:
    """Advance the world by one step and return the post-step record."""
    scn = ctx.scenario
    P, V = ctx.P, ctx.V
    if not (np.isfinite(P).all() and np.isfinite(V).all()):  # then find the agent
        i = int(np.argmin(np.isfinite(P).all(axis=1) & np.isfinite(V).all(axis=1)))
        raise RuntimeError(f"non-finite state for agent {ctx.params[i].id} at t={ctx.t:.6g}")
    U_nom = goal_controller(P, V, ctx.goals, scn.k1, scn.k2, ctx.box)
    carried = ctx.geometry  # the start's or last step's, checked, while P is its positions
    dp, dist = carried[1:] if carried[0] is P else _require_apart(*_pair_dist(ctx, P))
    U, brake, row_pairs = _SOLVERS[scn.mode](ctx, U_nom, _violated(ctx, dist), dp, dist)
    U = np.minimum(np.maximum(U, -ctx.box), ctx.box)
    if brake.any():
        U[brake] = braking_fallback(V[brake], ctx.box[brake])

    if ctx.estimators is not None:  # one estimator shared by every agent
        ctx.estimators[0].observe(V, scn.dt)
        ctx.estimators[0].update(scn.dt)

    ctx.P, ctx.V = step(P, V, U, scn.dt)
    ctx.t += scn.dt

    dp, dist = _require_apart(*_pair_dist(ctx, ctx.P))
    ctx.geometry = (ctx.P, dp, dist)
    h = _pair_h(ctx, dist, _pair_vbar(ctx, dp, dist, ctx.V))
    return StepRecord(
        t=ctx.t,
        p=ctx.P,
        v=ctx.V,
        u_applied=U,
        u_nominal=U_nom,
        qp_status=[qp.INFEASIBLE if x else qp.OPTIMAL for x in brake.tolist()],
        min_h=float(h[h.argmin()]) if h.size else math.inf,  # the first minimum, as min()
        min_pair_dist=float(dist.min()) if dist.size else math.inf,
        row_pairs=row_pairs,
    )


def detect_deadlock(log: TrajectoryLog) -> tuple[bool, float | None]:
    """Flag an agent sitting still (below ``DEADLOCK_SPEED_EPS``) away from
    its goal (beyond ``DEADLOCK_GOAL_EPS``) for a full ``DEADLOCK_WINDOW``.

    Returns the flag and the onset time (start of the first such window).
    """
    records = log.records
    if not records:
        return False, None
    dt = log.scenario.dt
    span = max(1, int(round(DEADLOCK_WINDOW / dt)))
    goals = np.array([a.goal for a in log.scenario.agents])
    speeds = np.linalg.norm(np.array([r.v for r in records]), axis=2)  # (T, N)
    goal_dist = np.linalg.norm(np.array([r.p for r in records]) - goals, axis=2)
    stuck = (speeds < DEADLOCK_SPEED_EPS) & (goal_dist > DEADLOCK_GOAL_EPS)
    # Stuck steps of each agent in every window [start, start + span).
    counts = np.cumsum(np.vstack((np.zeros_like(stuck[:1], dtype=int), stuck)), axis=0)
    starts = np.flatnonzero((counts[span:] - counts[:-span] == span).any(axis=1))
    return (True, records[starts[0]].t) if starts.size else (False, None)


def compute_metrics(log: TrajectoryLog) -> RunMetrics:
    """Summarize a run. Covers the initial state plus every recorded step."""
    scn, start = log.scenario, _Start(log.scenario)
    positions = np.array([start.P] + [rec.p for rec in log.records])
    min_dist = float(np.min(start.dist, initial=math.inf))
    min_h = float(np.min(start.h, initial=math.inf))
    for rec in log.records:
        min_dist = min(min_dist, rec.min_pair_dist)
        min_h = min(min_h, rec.min_h)

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
