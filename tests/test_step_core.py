"""The array step core against the scalar functions it replaces.

Every array the step computes must equal, bit for bit, what the scalar
reference computes on the same states: ``relative_state`` for dist and
vbar, ``pair_barrier`` for h, ``barrier.neighbors`` for the neighbour test
over the directed pairs and the ``dist <= Ds`` test for the violated set.
The rows every mode hands to its QPs must equal a plain-Python
transcription of the scalar row formulas, compared by ``tobytes`` so that
signed zeros count: a decentralized QP's barrier rows and four face rows,
each face bounded by the smaller of its box and speed bounds, and the
ensemble's barrier and speed rows. Folding each speed row into its face
must leave every decentralized answer as it was. ``LimitEstimator`` must
equal a plain-Python transcription of its law.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safeswarm import (
    AgentParams,
    AgentState,
    AlreadyViolatedError,
    BarrierConfig,
    INFEASIBLE,
    OPTIMAL,
    DegenerateGeometryError,
    LimitEstimator,
    neighbors,
    pair_barrier,
    relative_state,
)
from safeswarm import barrier, cli, sim
from safeswarm.estimator import SMOOTHING
from safeswarm.presets import circle6, ring_swap
from safeswarm.sim import MODES, AgentSetup, Scenario, ScenarioError, SimContext, step_once

from conftest import lanes_tiles, preset

# Relative offsets from a critical distance: just inside, on it (up to the
# rounding of the placement) and just outside.
EDGE_OFFSETS = (-1e-9, -1e-15, 0.0, 1e-15, 1e-12, 1e-9)
DECENTRALIZED = tuple(m for m in MODES if m != "centralized")


@st.composite
def ensembles(draw, modes=MODES, inside=False):
    """A context over 2..12 heterogeneous agents whose states were then
    replaced by arbitrary ones, some pairs placed on the edge of Ds, of the
    ``barrier.EPSILON`` floor of dist - Ds or of the owner's neighbour radius, some
    along an axis so that one coordinate of their dp is zero. With
    ``inside`` the first pair sits just inside Ds."""
    n = draw(st.integers(2, 12))
    params = [
        AgentParams(
            k,
            draw(st.floats(0.3, 2.5)),
            draw(st.floats(0.3, 1.5)),
            draw(st.floats(0.3, 3.0)),
            draw(st.floats(0.1, 0.4)),
        )
        for k in range(n)
    ]
    cfg = draw(st.sampled_from([BarrierConfig(), BarrierConfig("fixed", 0.5)]))
    agents = [
        AgentSetup(p, AgentState((10.0 * k, 0.0), (0.0, 0.0)), (10.0 * k, 1.0))
        for k, p in enumerate(params)
    ]
    ctx = SimContext(Scenario(agents, mode=draw(st.sampled_from(modes)), barrier_cfg=cfg))

    coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    P = np.array([[draw(coord), draw(coord)] for _ in range(n)])
    V = np.array([[draw(coord), draw(coord)] for _ in range(n)])
    for j in range(1, n):
        edge = "ds" if inside and j == 1 else draw(st.sampled_from(["free", "ds", "eps", "radius"]))
        if edge == "free":
            continue
        i = draw(st.integers(0, j - 1))
        offset = -1e-9 if inside and j == 1 else draw(st.sampled_from(EDGE_OFFSETS))
        if edge == "eps":
            d = ctx.safety_dist[i, j] + barrier.EPSILON * (1.0 + offset * 1e6)
        else:
            d = ctx.safety_dist[i, j] if edge == "ds" else ctx.neighbor_radius[i]
            d *= 1.0 + offset
        unit = draw(st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
                    | st.floats(0.0, 2.0 * math.pi).map(lambda t: (math.cos(t), math.sin(t))))
        P[j] = P[i] + d * np.array(unit)
    assume(len({tuple(p) for p in P.tolist()}) == n)
    ctx.P, ctx.V = P, V
    if ctx.estimators is not None:  # move the estimates off their floor, one step at a time
        for V_seen in (V, V + draw(st.floats(-0.05, 0.05))):
            ctx.estimators[0].observe(V_seen, 0.02)
            ctx.estimators[0].update(0.02)
    return ctx, P, V


def _states(P, V):
    return [AgentState(p, v) for p, v in zip(P, V)]


def _pairs(ctx):
    return list(zip(ctx.pair_i.tolist(), ctx.pair_j.tolist()))


def _reference(ctx):
    states = _states(ctx.P, ctx.V)
    return [relative_state(states[i], states[j]) for i, j in _pairs(ctx)]


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_pair_geometry_matches_relative_state(case):
    ctx, P, V = case
    rels = _reference(ctx)
    dp, dist = sim._pair_dist(ctx, P)
    vbar = sim._pair_vbar(ctx, dp, dist, V)
    assert np.array_equal(dp, np.array([r.dp for r in rels]))
    assert np.array_equal(dist, np.array([r.dist for r in rels]))
    assert np.array_equal(vbar, np.array([r.vbar for r in rels]))


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_pair_h_matches_pair_barrier(case):
    ctx, P, V = case
    dp, dist = sim._pair_dist(ctx, P)
    h = sim._pair_h(ctx, dist, sim._pair_vbar(ctx, dp, dist, V))
    ref = [
        pair_barrier(rel, ctx.params[i].accel_limit + ctx.params[j].accel_limit,
                     ctx.safety_dist[i, j])[0]
        for (i, j), rel in zip(_pairs(ctx), _reference(ctx))
    ]
    assert np.array_equal(h, np.array(ref))


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_violated_set_matches_scalar_test(case):
    ctx, P, _ = case
    ref = set()
    for (i, j), rel in zip(_pairs(ctx), _reference(ctx)):
        if rel.dist <= ctx.safety_dist[i, j]:
            ref |= {i, j}
    assert set(np.flatnonzero(sim._violated(ctx, sim._pair_dist(ctx, P)[1]))) == ref


@settings(max_examples=150, deadline=None)
@given(ensembles(DECENTRALIZED))
def test_directed_neighbor_rows_match_neighbors(case):
    """The directed pairs list every (owner, other) in row-major order, and
    the barrier rows of a layout with no violated agent list each agent's
    ``barrier.neighbors`` in ascending order."""
    ctx, P, V = case
    own, oth, pair = ctx.dir_own, ctx.dir_oth, ctx.dir_pair
    assert np.array((own, oth)).T.tolist() == [
        [i, j] for i in range(ctx.n) for j in range(ctx.n) if i != j]
    assert np.array_equal(np.minimum(own, oth), ctx.pair_i[pair])
    assert np.array_equal(np.maximum(own, oth), ctx.pair_j[pair])
    assert np.array_equal(ctx.dir_radius, ctx.neighbor_radius[own])
    near = sim._pair_dist(ctx, P)[1][pair] <= ctx.dir_radius  # as _agent_qps
    lay = sim._Layout(ctx, near, np.zeros(ctx.n, dtype=bool))
    assert lay.row_pairs.tolist() == [
        [i, j] for i in range(ctx.n)
        for j in sorted(neighbors(i, _states(P, V), ctx.neighbor_radius[i]))]


# Today's scalar formulas, transcribed in Python floats; dot products are
# numpy 2-vector ``@`` as in the scalar builders.


def _rel(P, V, i, j):
    dp, dv = P[i] - P[j], V[i] - V[j]
    dist = float(np.hypot(dp[0], dp[1]))
    return dp, dv, dist, float(dp @ dv) / dist


def _h(dist, vbar, accel_sum, ds):
    return float(np.sqrt(2.0 * accel_sum * max(dist - ds, 0.0)) + vbar)


def _centralized_b(dp, dv, dist, vbar, accel_sum, gamma, ds):
    h = _h(dist, vbar, accel_sum, ds)
    dpdv = float(dp @ dv)
    denom = np.sqrt(2.0 * accel_sum * max(dist - ds, barrier.EPSILON))
    return float(gamma * h * h * h * dist - dpdv * dpdv / (dist * dist) + dv @ dv
                 + accel_sum * dpdv / denom)


def _agent_b(mode, dp, dv, dist, vbar, v_self, a_self, a_other, gamma, ds):
    accel_sum = a_self + a_other
    if mode == "decentralized_B":
        return (a_self / accel_sum) * _centralized_b(dp, dv, dist, vbar, accel_sum, gamma, ds)
    h = _h(dist, vbar, accel_sum, ds)
    dpdv, dpv = float(dp @ dv), float(dp @ v_self)
    if mode == "decentralized_A":
        denom = np.sqrt(2.0 * accel_sum * max(dist - ds, barrier.EPSILON))
        return float((a_self / accel_sum) * gamma * h * h * h * dist + dv @ v_self
                     - dpdv * dpv / (dist * dist) + accel_sum * dpv / denom)
    denom = np.sqrt(2.0 * max(dist - ds, barrier.EPSILON))
    return float(-dpdv * dpv / (dist * dist) + dv @ v_self
                 + (a_self / accel_sum) * (gamma * h * h * h * dist + np.sqrt(accel_sum) * dpdv / denom))


def _speed_rows(speed, v, dt):
    rows = []
    for c in range(2):
        e = np.zeros(2)
        e[c] = 1.0
        rows += [(e, (speed - v[c]) / dt), (0.0 - e, (speed + v[c]) / dt)]  # +0.0 off e's axis
    return rows


def _brake(v, limit):
    peak = float(np.max(np.abs(v)))
    if peak < 1e-12:
        return np.zeros(2)
    return np.clip(-limit * v / peak, -limit, limit)


def _violated_ref(ctx, P, V):
    inside = [False] * ctx.n
    for i, j in _pairs(ctx):
        if _rel(P, V, i, j)[2] <= ctx.safety_dist[i, j]:
            inside[i] = inside[j] = True
    return inside


def _box_rows(limit):
    return [(np.array(face), limit) for face in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])]


def _face_rows(limit, speed, v, dt):
    """The four box faces, each bounded by the smaller of the box and the
    speed row on its side."""
    return [(a, min(box, bound))
            for (a, box), (_, bound) in zip(_box_rows(limit), _speed_rows(speed, v, dt))]


def _same_bytes(rows, A, b):
    ref_A = np.array([a for a, _ in rows]).reshape(A.shape)
    assert A.tobytes() == ref_A.tobytes()
    assert b.tobytes() == np.array([bound for _, bound in rows], dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(ensembles(DECENTRALIZED))
def test_agent_rows_match_scalar_formulas(case):
    """Problem k of the padded layout is free agent k's barrier rows and
    face rows, then zero rows with an infinite bound."""
    ctx, P, V = case
    scn, params = ctx.scenario, ctx.params
    violated = _violated_ref(ctx, P, V)
    lay, A, b = sim._agent_qps(ctx, np.array(violated), sim._pair_dist(ctx, P)[1])
    free = [i for i in range(ctx.n) if not violated[i]]
    assert lay.free.tolist() == free and A.shape[0] == b.shape[0] == len(free)
    pairs, width = [], 0
    for k, i in enumerate(free):
        rows = []
        for j in sorted(neighbors(i, _states(P, V), ctx.neighbor_radius[i])):
            dp, dv, dist, vbar = _rel(P, V, i, j)
            other = (ctx.estimators[i].estimates[j] if ctx.estimators is not None
                     else params[j].accel_limit)
            rows.append((-dp, _agent_b(scn.mode, dp, dv, dist, vbar, V[i], params[i].accel_limit,
                                       other, params[i].barrier_gain, ctx.safety_dist[i, j])))
            pairs.append([i, j])
        rows += _face_rows(params[i].accel_limit, params[i].speed_limit, V[i], scn.dt)
        width = max(width, len(rows))
        rows += [(np.zeros(2), math.inf)] * (A.shape[1] - len(rows))
        _same_bytes(rows, A[k], b[k])
    assert A.shape[1] == width
    assert lay.row_pairs.shape == (len(pairs), 2) and lay.row_pairs.tolist() == pairs


@settings(max_examples=150, deadline=None)
@given(ensembles(DECENTRALIZED) | ensembles(DECENTRALIZED, inside=True),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_folded_faces_keep_the_unfolded_answer(case, shift):
    """Each free agent's QP as the step poses it, its barrier rows and four
    face rows with no box, ends with the status of the unfolded QP, its
    barrier rows, four speed rows and the symmetric box, and within 1e-12
    of its answer. Every optimal answer keeps the next velocity within the
    speed cap and the control within the box, to the solver's 1e-10 on box
    bounds (an active face can round to one ulp past it)."""
    ctx, P, V = case
    params, dt = ctx.params, ctx.scenario.dt
    dist = sim._pair_dist(ctx, P)[1]
    lay, A, b = sim._agent_qps(ctx, sim._violated(ctx, dist), dist)
    scn = ctx.scenario
    U_nom = sim.goal_controller(P, V, ctx.goals, scn.k1, scn.k2, ctx.box) + shift
    for k, i in enumerate(lay.free.tolist()):
        bar = np.count_nonzero(lay.own == i)
        speed = _speed_rows(params[i].speed_limit, V[i], dt)
        unfolded = sim.qp.solve(sim.qp.QpProblem(
            U_nom[i], np.vstack([A[k, :bar]] + [a for a, _ in speed]),
            np.concatenate([b[k, :bar], [bound for _, bound in speed]]), ctx.box[i]))
        folded = sim.qp.solve(sim.qp.QpProblem(U_nom[i], A[k], b[k], np.full(2, np.inf)))
        assert folded.status == unfolded.status
        if folded.status != OPTIMAL:
            continue
        assert np.abs(folded.u_star - unfolded.u_star).max() <= 1e-12
        assert np.all(np.abs(V[i] + folded.u_star * dt) <= params[i].speed_limit + 1e-9)
        assert np.all(np.abs(folded.u_star) <= params[i].accel_limit + 1e-10)


@settings(max_examples=150, deadline=None)
@given(ensembles(("centralized",)) | ensembles(("centralized",), inside=True))
def test_ensemble_rows_match_scalar_formulas(case):
    ctx, P, V = case
    params, dt = ctx.params, ctx.scenario.dt
    violated = _violated_ref(ctx, P, V)
    free = [k for k in range(ctx.n) if not violated[k]]
    col = {agent: c for c, agent in enumerate(free)}
    rows, pairs = [], []
    for i, j in _pairs(ctx):
        if violated[i] and violated[j]:
            continue
        dp, dv, dist, vbar = _rel(P, V, i, j)
        bound = _centralized_b(dp, dv, dist, vbar, params[i].accel_limit + params[j].accel_limit,
                               params[i].barrier_gain, ctx.safety_dist[i, j])
        a = np.zeros(2 * len(free))
        for agent, block in ((i, -dp), (j, dp)):
            if agent in col:
                a[2 * col[agent] : 2 * col[agent] + 2] = block
            else:  # a braking agent's fixed control moves into the bound
                bound -= float(block @ _brake(V[agent], params[agent].accel_limit))
        rows.append((a, bound))
        pairs.append([i, j])
    for i in free:
        for normal, bound in _speed_rows(params[i].speed_limit, V[i], dt):
            a = np.zeros(2 * len(free))
            a[2 * col[i] : 2 * col[i] + 2] = normal
            rows.append((a, bound))
    dp, dist = sim._pair_dist(ctx, P)
    A, b, row_pairs = sim._ensemble_rows(ctx, np.array(violated), dp, dist)
    _same_bytes(rows, A, b)
    assert row_pairs.shape == (len(pairs), 2) and row_pairs.tolist() == pairs


@settings(max_examples=100, deadline=None)
@given(ensembles(("centralized",), inside=True))
def test_cached_ensemble_equals_cold_build(case):
    """The ensemble layout cached on ctx is rebuilt when the violated mask
    changes and reused while it holds; either way A, b and the row pairs
    equal, by bytes, those of a build with the cache cleared. The arrays
    it shares between steps are read-only. The cache is warmed on masks a
    step can meet: the violated set with every agent, or one more free
    agent, braking."""
    ctx, P, V = case
    dp, dist = sim._pair_dist(ctx, P)
    violated = sim._violated(ctx, dist)
    assume(not violated.all())
    ctx.ensemble = None
    cold = sim._ensemble_rows(ctx, violated, dp, dist)
    one_more = violated.copy()
    one_more[np.argmin(violated)] = True
    for warm_mask in (np.ones_like(violated), one_more):
        ctx.ensemble = None
        sim._ensemble_rows(ctx, warm_mask, dp, dist)
        stale = ctx.ensemble
        changed = sim._ensemble_rows(ctx, violated, dp, dist)
        built = ctx.ensemble
        held = sim._ensemble_rows(ctx, violated, dp, dist)
        assert built is not stale and ctx.ensemble is built
        for got in (changed, held):
            for x, y in zip(got, cold):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert held[2] is changed[2] is built.row_pairs
        assert not built.A.flags.writeable and not built.row_pairs.flags.writeable


@settings(max_examples=150, deadline=None)
@given(ensembles() | ensembles(inside=True))
def test_no_row_pair_at_or_inside_its_safety_distance(case):
    """Every pair the step builds a barrier row for is outside its Ds: a
    pair at or inside it marks both agents as braking, so no free agent
    owns its row and the ensemble drops it."""
    ctx, P, _ = case
    dp, dist = sim._pair_dist(ctx, P)
    violated = sim._violated(ctx, dist)
    if ctx.scenario.mode == "centralized":
        row_pairs = sim._ensemble_rows(ctx, violated, dp, dist)[2]
    else:
        row_pairs = sim._agent_qps(ctx, violated, dist)[0].row_pairs
    for i, j in row_pairs.tolist():
        assert _rel(P, ctx.V, i, j)[2] > ctx.safety_dist[i, j]


@pytest.mark.parametrize("mode", MODES)
def test_step_with_every_agent_inside_a_pair_brakes_without_a_qp(mode, monkeypatch):
    """Two pairs, each inside its Ds: every agent brakes at its own limit,
    every brake flag is set, no barrier row is built and ``qp.solve``
    is never called."""
    agents = _headon(mode).agents + [
        AgentSetup(AgentParams(4, 0.5, 0.6, 1.0, 0.3), AgentState((0.0, -3.0), (0.0, 0.0)),
                   (0.0, 3.0))]
    ctx = SimContext(Scenario(agents, mode=mode))
    P = ctx.P.copy()
    P[1] = P[0] + [ctx.safety_dist[0, 1] * 0.9, 0.0]
    P[3] = P[2] + [0.0, -ctx.safety_dist[2, 3] * 0.5]
    ctx.P, ctx.V = P, np.array([[0.4, -0.1], [0.0, 0.0], [-0.2, 0.5], [1e-13, -0.3]])
    V = ctx.V.copy()

    def no_qp(*args, **kwargs):
        raise AssertionError("qp.solve was called")

    monkeypatch.setattr(sim.qp, "solve", no_qp)
    rec = step_once(ctx)
    assert rec.brake.tolist() == [True] * 4
    assert rec.row_pairs.shape == (0, 2)
    brake = np.array([_brake(V[i], ctx.params[i].accel_limit) for i in range(4)])
    assert rec.u_applied.tobytes() == brake.tobytes()


@pytest.mark.parametrize("builder", [barrier.centralized_row, barrier.strategy_a_rows,
                                     barrier.strategy_b_rows, barrier.strategy_c_row],
                         ids=lambda f: f.__name__)
def test_row_builders_refuse_a_pair_at_or_inside_its_safety_distance(builder):
    """Each scalar row builder raises AlreadyViolatedError for pair (2, 0)
    at its safety distance 0.5 (radii 0.25) and inside it, naming the pair
    and both distances as floats, and DegenerateGeometryError for a
    coincident pair first. Strategy C checks ``other_accel`` before the
    geometry and the geometry before asking for a safety distance."""
    params = [AgentParams(k + 1, 1.0, 1.0, 1.0, 0.25) for k in range(3)]

    def build(x, cfg=BarrierConfig(), **kwargs):
        states = [AgentState((0.0, 0.0), (0.1, 0.0)), AgentState((4.0, 0.0), (0.0, 0.0)),
                  AgentState((x, 0.0), (-0.2, 0.0))]
        if builder is barrier.strategy_c_row:
            return builder(2, 0, states, params[2], kwargs.get("other_accel", 1.0), cfg,
                           kwargs.get("safety_dist", 0.5))
        return builder(2, 0, states, params, cfg)

    for x in (0.5, 0.3):
        with pytest.raises(AlreadyViolatedError) as err:
            build(x)
        assert err.value.pair == (2, 0) and (err.value.dist, err.value.safety_dist) == (x, 0.5)
        assert type(err.value.dist) is type(err.value.safety_dist) is float
    with pytest.raises(DegenerateGeometryError):
        build(0.0)
    if builder is barrier.strategy_c_row:
        with pytest.raises(ValueError, match="other_accel"):
            build(0.0, other_accel=0.0)
        with pytest.raises(DegenerateGeometryError):
            build(0.0, safety_dist=None)
        with pytest.raises(ValueError, match="explicit safety_dist"):
            build(0.3, safety_dist=None)
        with pytest.raises(AlreadyViolatedError) as err:
            build(0.5, BarrierConfig("fixed", ds=0.5), safety_dist=None)
        assert err.value.safety_dist == 0.5


def _headon(mode="decentralized_C"):
    agents = [
        AgentSetup(AgentParams(1, 1.2, 0.6, 1.0, 0.2), AgentState((-1.0, 0.0), (0.0, 0.0)),
                   (1.0, 0.0)),
        AgentSetup(AgentParams(2, 0.8, 0.6, 1.0, 0.2), AgentState((1.0, 0.0), (0.0, 0.0)),
                   (-1.0, 0.0)),
        AgentSetup(AgentParams(3, 1.0, 0.6, 1.0, 0.2), AgentState((0.0, 2.0), (0.0, 0.0)),
                   (0.0, -2.0)),
    ]
    return Scenario(agents, mode=mode)


@pytest.mark.parametrize("offset", EDGE_OFFSETS)
def test_validate_rejects_inside_ds_exactly_when_violated(offset):
    """Two agents at rest on the edge of Ds along a diagonal: validation
    says "within safety distance" exactly when the step's violated test
    flags the pair, since both read the same dist."""
    agents = _headon().agents[:2]
    ctx = SimContext(Scenario(agents))
    d = ctx.safety_dist[0, 1] * (1.0 + offset) * math.sqrt(0.5)
    agents[1].state0 = AgentState(agents[0].state0.p + [d, d], (0.0, 0.0))
    P = np.array([a.state0.p for a in agents])
    violated = sim._violated(ctx, sim._pair_dist(ctx, P)[1]).any()
    if violated:
        with pytest.raises(ScenarioError, match="within safety distance"):
            Scenario(agents).validate()
    else:
        Scenario(agents).validate()


@pytest.mark.parametrize("mode", MODES)
def test_coincident_pair_raises(mode):
    ctx = SimContext(_headon(mode))
    P = ctx.P.copy()  # reassigned, not edited in place: the start geometry is keyed by P
    P[1], ctx.V[1] = P[0], 0.0
    ctx.P = P
    with pytest.raises(DegenerateGeometryError):
        step_once(ctx)


def test_one_checked_start_per_context(monkeypatch, tmp_path, capsys):
    """A run builds the checked start twice, for its context and for its
    metrics, and takes the pair distances of one state once per step plus
    once per start, and of a stack of states once per batch of the
    metrics' per-step minima; the CLI adds no build when ``--mode``
    overrides the mode."""
    builds, dists = [], []
    init, pair_dist = sim._Start.__init__, sim._pair_dist
    monkeypatch.setattr(sim._Start, "__init__", lambda s, scn: builds.append(1) or init(s, scn))
    monkeypatch.setattr(sim, "_pair_dist", lambda c, P: dists.append(P.ndim) or pair_dist(c, P))
    log, _ = sim.run(circle6())  # 15 pairs: batches of 4096 // 15 = 273 steps
    assert (len(builds), dists.count(2), dists.count(3)) == (2, len(log.records) + 2, 3)
    assert len(log.records) == 799
    builds.clear()
    dists.clear()
    argv = ["--preset", "headon2", "--mode", "decentralized_C", "--out-dir", str(tmp_path)]
    assert cli.run_command(argv) == 0
    steps = int(re.search(r"steps=(\d+)", capsys.readouterr().out).group(1))
    assert (len(builds), dists.count(2), dists.count(3)) == (2, steps + 2, 1)
    assert steps == 463


def test_log_minima_are_the_scalar_minima():
    """``log_minima`` gives each record, bit for bit, min() over
    ``pair_barrier`` and over ``relative_state``'s dist of every pair on
    its post-step states, over more steps than one of its batches holds;
    inf when there is no pair."""
    for mode in MODES:
        scn = preset("circle6", mode)
        ctx, records, ref_h, ref_dist = SimContext(scn), [], [], []
        for _ in range(400):
            records.append(step_once(ctx))
            rels = _reference(ctx)
            ref_h.append(min(pair_barrier(rel, ctx.params[i].accel_limit
                                          + ctx.params[j].accel_limit, ctx.safety_dist[i, j])[0]
                             for (i, j), rel in zip(_pairs(ctx), rels)))
            ref_dist.append(min(rel.dist for rel in rels))
        assert len(records) * ctx.pair_i.size > sim._MINIMA_CHUNK
        min_h, min_dist = sim.log_minima(sim.TrajectoryLog(scn, records))
        assert [x.hex() for x in min_h.tolist()] == [x.hex() for x in ref_h]
        assert [x.hex() for x in min_dist.tolist()] == [x.hex() for x in ref_dist]
    lone = Scenario(_headon().agents[:1])
    minima = sim.log_minima(sim.TrajectoryLog(lone, [step_once(SimContext(lone))]))
    assert [m.tolist() for m in minima] == [[math.inf], [math.inf]]


def _step_against_cold_layout(ctx, steps):
    """Step ``ctx``, checking at every step that the cached layout gives
    the same padded rows, bounds, row pairs and answers, by bytes, as a
    layout rebuilt with the cache cleared; that the carried (dp, dist) are
    the post-step ``_pair_dist``; and that each free agent's warm row is the
    active set a ``qp.solve`` replay of its problem (its whole padded row,
    with an infinite box) ends on, from its last warm row. Returns the number of steps whose layout came from the cache
    and the number of free agents whose QP went infeasible."""
    scn, hits, infeasible = ctx.scenario, 0, 0
    for _ in range(steps):
        dist = sim._pair_dist(ctx, ctx.P)[1]
        violated = sim._violated(ctx, dist)
        cached = ctx.layout
        lay, A, b = sim._agent_qps(ctx, violated, dist)
        warm = ctx.warm.copy()
        hits += lay is cached
        ctx.layout = None
        cold, A0, b0 = sim._agent_qps(ctx, violated, dist)
        assert cold is not lay
        for x, y in ((A, A0), (b, b0), (lay.row_pairs, cold.row_pairs)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        width = b.shape[1]
        U_nom = sim.goal_controller(ctx.P, ctx.V, ctx.goals, scn.k1, scn.k2, ctx.box)
        hot = sim.qp.solve_padded(U_nom[lay.free], A, b, warm[lay.free, :width])
        for x, y in zip(hot, sim.qp.solve_padded(U_nom[cold.free], A0, b0,
                                                 warm[cold.free, :width])):
            assert x.tobytes() == y.tobytes()
        ctx.layout = cached  # the step itself takes the cached path
        rec = step_once(ctx)
        assert rec.row_pairs is ctx.layout.row_pairs
        assert ctx.geometry[0] is ctx.P
        for x, y in zip(ctx.geometry[1:], sim._pair_dist(ctx, ctx.P)):
            assert x.tobytes() == y.tobytes()
        for k, i in enumerate(lay.free.tolist()):
            sol = sim.qp.solve(sim.qp.QpProblem(U_nom[i], A0[k], b0[k], np.full(2, np.inf)),
                               warm_start=tuple(np.flatnonzero(warm[i]).tolist()))
            assert tuple(np.flatnonzero(ctx.warm[i]).tolist()) == sol.active_set
            assert rec.brake[i] == (sol.status == INFEASIBLE)
            assert hot[0][k].tobytes() == sol.u_star.tobytes()
            infeasible += sol.status == INFEASIBLE
        assert ctx.warm[violated].tobytes() == warm[violated].tobytes()
    return hits, infeasible


@pytest.mark.parametrize("mode", DECENTRALIZED)
def test_cached_layout_equals_cold_layout_on_circle6(mode):
    ctx = SimContext(preset("circle6", mode))
    assert _step_against_cold_layout(ctx, 300)[0] > 150


def test_cached_layout_equals_cold_layout_on_lanes_tiles():
    ctx = SimContext(lanes_tiles())
    assert _step_against_cold_layout(ctx, 150)[0] > 75


def test_cached_layout_equals_cold_layout_while_braking():
    """The ring8 swap with a +-3 degree stagger under strategy B: QPs go
    infeasible from step 66 and pairs fall inside their safety distance
    from step 124, so the violated set changes under the cache."""
    scn = ring_swap(8, 1.75, [3.0, -3.0] * 4)
    scn.mode = "decentralized_B"
    ctx = SimContext(scn)
    hits, infeasible = _step_against_cold_layout(ctx, 130)
    assert hits > 65 and infeasible and ctx.layout.free.size < ctx.n


def test_cached_layout_for_a_lone_agent_and_for_no_free_agent():
    lone = SimContext(Scenario(_headon().agents[:1]))
    assert _step_against_cold_layout(lone, 20) == (19, 0)
    assert lone.layout.A.shape == (1, 4, 2) and lone.layout.row_pairs.shape == (0, 2)
    ctx = SimContext(_headon())
    ctx.P = ctx.P.copy()
    ctx.P[1] = ctx.P[0] + [ctx.safety_dist[0, 1] * 0.9, 0.0]  # a pair inside Ds
    ctx.P[2] = ctx.P[0] - [0.0, ctx.safety_dist[0, 2] * 0.9]
    ctx.V[:] = [[0.1, 0.0], [0.0, -0.2], [0.3, 0.0]]
    _step_against_cold_layout(ctx, 1)
    assert ctx.layout.free.size == 0 and ctx.layout.A.shape == (0, 0, 2)
    assert ctx.warm.shape == (3, 0)


def test_warm_bits_beyond_the_layout_are_cleared():
    """A step clears each free agent's warm bits beyond its layout's width,
    as left by a wider layout before it."""
    ctx = SimContext(circle6())
    step_once(ctx)
    width = ctx.warm.shape[1]
    ctx.warm = np.pad(ctx.warm, ((0, 0), (0, 3)), constant_values=True)
    step_once(ctx)
    assert ctx.layout.A.shape[1] == width and ctx.layout.free.size == ctx.n
    assert ctx.warm.shape[1] == width + 3 and not ctx.warm[:, width:].any()


def test_layout_arrays_are_shared_and_read_only():
    """Records stepped under one layout share its row_pairs; neither they
    nor the layout's templates can be written."""
    ctx = SimContext(circle6())
    first, second = step_once(ctx), step_once(ctx)
    assert second.row_pairs is first.row_pairs and len(first.row_pairs)
    for shared in (first.row_pairs, ctx.layout.A, ctx.layout.b):
        with pytest.raises(ValueError):
            shared[0] = 0


def test_shared_estimator_matches_one_estimator_per_agent():
    """The estimated mode's one shared estimator holds, for every agent i
    and other agent j, the same estimate as an estimator of agent i's own
    over the others, observed on the same pre-step velocities."""
    scn = preset("circle6", "decentralized_C_estimated")
    ctx = SimContext(scn)
    assert all(e is ctx.estimators[0] for e in ctx.estimators)
    assert scn.alpha_floor is None and ctx.alpha_floor == 0.5 * min(ctx.accel)  # the default
    others = [[j for j in range(ctx.n) if j != i] for i in range(ctx.n)]
    own = [LimitEstimator(ctx.n - 1, ctx.alpha_floor, scn.estimator_gain)
           for _ in range(ctx.n)]
    moved = False
    for _ in range(400):
        V = ctx.V.copy()
        step_once(ctx)
        for est, ids in zip(own, others):
            est.observe(V[ids], scn.dt)
            est.update(scn.dt)
        for i, ids in enumerate(others):
            shared = np.array([ctx.estimators[i].estimates[j] for j in ids])
            assert shared.tobytes() == own[i].est.tobytes()
        moved |= own[0].est.max() > ctx.alpha_floor
    assert moved  # the estimates left their floor


class ScalarLaw:
    """The estimator's law, transcribed agent by agent in plain Python floats."""

    def __init__(self, n, floor, gain):
        self.gain = gain
        self.est = {j: floor for j in range(n)}
        self.obs = {j: 0.0 for j in range(n)}
        self.last = {}

    def observe(self, j, v, dt):
        if j in self.last:
            last = self.last[j]
            raw = max(abs(v[0] - last[0]), abs(v[1] - last[1])) / dt
            self.obs[j] = (1.0 - SMOOTHING) * self.obs[j] + SMOOTHING * raw
        self.last[j] = v

    def update(self, j, dt):
        est = self.est[j]
        self.est[j] = est + dt * self.gain * (max(est, self.obs[j]) - est)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 6),
    st.floats(0.05, 2.0),
    st.floats(0.1, 5.0),
    st.floats(0.005, 0.1),
    st.integers(0, 2**32 - 1),
)
def test_estimator_matches_scalar_law(k, floor, gain, dt, seed):
    rng = np.random.default_rng(seed)
    est = LimitEstimator(k, floor, gain)
    ref = ScalarLaw(k, floor, gain)
    V = rng.uniform(-1.0, 1.0, (k, 2))
    for _ in range(30):
        V = V + rng.uniform(-3.0, 3.0, (k, 2)) * dt
        est.observe(V, dt)
        est.update(dt)
        for j in range(k):
            ref.observe(j, V[j].tolist(), dt)
            ref.update(j, dt)
        assert est.estimates == ref.est
        assert est.obs.tolist() == [ref.obs[j] for j in range(k)]
