"""The array step core against the scalar functions it replaces.

Every array the step computes must equal, bit for bit, what the scalar
reference computes on the same states: ``relative_state`` for dist and
vbar, ``pair_barrier`` for h, ``barrier.neighbors`` for the neighbour mask
and the ``dist <= Ds`` test for the violated set. The barrier, speed and
ensemble rows every mode hands to its QPs must equal a plain-Python
transcription of the scalar row formulas, compared by ``tobytes`` so that
signed zeros count. ``LimitEstimator`` must equal a plain-Python
transcription of its law.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safeswarm import (
    AgentParams,
    AgentState,
    AlreadyViolatedError,
    BarrierConfig,
    DegenerateGeometryError,
    LimitEstimator,
    neighbors,
    pair_barrier,
    relative_state,
)
from safeswarm import barrier, sim
from safeswarm.sim import MODES, AgentSetup, Scenario, SimContext, step_once

# Relative offsets from a critical distance: just inside, on it (up to the
# rounding of the placement) and just outside.
EDGE_OFFSETS = (-1e-9, -1e-15, 0.0, 1e-15, 1e-12, 1e-9)
DECENTRALIZED = tuple(m for m in MODES if m != "centralized")


@st.composite
def ensembles(draw, modes=MODES, inside=False):
    """A context over 2..12 heterogeneous agents whose states were then
    replaced by arbitrary ones, some pairs placed on the edge of Ds, of the
    epsilon floor of dist - Ds or of the owner's neighbour radius, some
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
            d = ctx.safety_dist[i, j] + cfg.epsilon * (1.0 + offset * 1e6)
        else:
            d = ctx.safety_dist[i, j] if edge == "ds" else ctx.neighbor_radius[i]
            d *= 1.0 + offset
        unit = draw(st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
                    | st.floats(0.0, 2.0 * math.pi).map(lambda t: (math.cos(t), math.sin(t))))
        P[j] = P[i] + d * np.array(unit)
    assume(len({tuple(p) for p in P.tolist()}) == n)
    ctx.P, ctx.V = P, V
    if ctx.estimators is not None:  # move the estimates off their floor
        for est in ctx.estimators:
            for V_seen in (V, V + draw(st.floats(-0.05, 0.05))):
                est.observe(V_seen[est.ids], 0.02)
                est.update(0.02)
    return ctx, P, V


def _states(P, V):
    return [AgentState(p, v) for p, v in zip(P, V)]


def _reference(ctx):
    states = _states(ctx.P, ctx.V)
    return [relative_state(states[i], states[j]) for i, j in ctx.pair_keys]


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
        for (i, j), rel in zip(ctx.pair_keys, _reference(ctx))
    ]
    assert np.array_equal(h, np.array(ref))


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_violated_set_matches_scalar_test(case):
    ctx, P, _ = case
    ref = set()
    for (i, j), rel in zip(ctx.pair_keys, _reference(ctx)):
        if rel.dist <= ctx.safety_dist[i, j]:
            ref |= {i, j}
    assert set(np.flatnonzero(sim._violated(ctx, sim._pair_dist(ctx, P)[1]))) == ref


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_neighbor_mask_matches_neighbors(case):
    ctx, P, V = case
    mask = sim._neighbor_mask(ctx, P)
    for i in range(ctx.n):
        ref = sorted(neighbors(i, _states(P, V), ctx.neighbor_info[i]))
        assert np.flatnonzero(mask[i]).tolist() == ref


# Today's scalar formulas, transcribed in Python floats; dot products are
# numpy 2-vector ``@`` as in the scalar builders.


def _rel(P, V, i, j):
    dp, dv = P[i] - P[j], V[i] - V[j]
    dist = math.hypot(dp[0], dp[1])
    return dp, dv, dist, float(dp @ dv) / dist


def _h(dist, vbar, accel_sum, ds):
    return float(np.sqrt(2.0 * accel_sum * max(dist - ds, 0.0)) + vbar)


def _centralized_b(dp, dv, dist, vbar, accel_sum, gamma, ds, eps):
    h = _h(dist, vbar, accel_sum, ds)
    dpdv = float(dp @ dv)
    denom = np.sqrt(2.0 * accel_sum * max(dist - ds, eps))
    return float(gamma * h**3 * dist - dpdv**2 / dist**2 + dv @ dv + accel_sum * dpdv / denom)


def _agent_b(mode, dp, dv, dist, vbar, v_self, a_self, a_other, gamma, ds, eps):
    accel_sum = a_self + a_other
    if mode == "decentralized_B":
        return (a_self / accel_sum) * _centralized_b(dp, dv, dist, vbar, accel_sum, gamma, ds, eps)
    h = _h(dist, vbar, accel_sum, ds)
    dpdv, dpv = float(dp @ dv), float(dp @ v_self)
    if mode == "decentralized_A":
        denom = np.sqrt(2.0 * accel_sum * max(dist - ds, eps))
        return float((a_self / accel_sum) * gamma * h**3 * dist + dv @ v_self
                     - dpdv * dpv / dist**2 + accel_sum * dpv / denom)
    denom = np.sqrt(2.0 * max(dist - ds, eps))
    return float(-dpdv * dpv / dist**2 + dv @ v_self
                 + (a_self / accel_sum) * (gamma * h**3 * dist + np.sqrt(accel_sum) * dpdv / denom))


def _speed_rows(speed, v, dt):
    rows = []
    for c in range(2):
        e = np.zeros(2)
        e[c] = 1.0
        rows += [(e, (speed - v[c]) / dt), (-e, (speed + v[c]) / dt)]
    return rows


def _brake(v, limit):
    peak = float(np.max(np.abs(v)))
    if peak < 1e-12:
        return np.zeros(2)
    return np.clip(-limit * v / peak, -limit, limit)


def _violated_ref(ctx, P, V):
    inside = [False] * ctx.n
    for i, j in ctx.pair_keys:
        if _rel(P, V, i, j)[2] <= ctx.safety_dist[i, j]:
            inside[i] = inside[j] = True
    return inside


def _same_bytes(rows, A, b):
    ref_A = np.array([a for a, _ in rows]).reshape(A.shape)
    assert A.tobytes() == ref_A.tobytes()
    assert b.tobytes() == np.array([bound for _, bound in rows], dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(ensembles(DECENTRALIZED))
def test_agent_rows_match_scalar_formulas(case):
    ctx, P, V = case
    scn, params = ctx.scenario, ctx.params
    violated = _violated_ref(ctx, P, V)
    A, b, blocks, row_pairs = sim._agent_rows(
        ctx, np.array(violated), sim._pair_dist(ctx, P)[1])
    pairs = []
    for i in range(ctx.n):
        if violated[i]:
            continue
        rows = []
        for j in sorted(neighbors(i, _states(P, V), ctx.neighbor_info[i])):
            dp, dv, dist, vbar = _rel(P, V, i, j)
            other = (ctx.estimators[i].estimates[j] if ctx.estimators is not None
                     else params[j].accel_limit)
            rows.append((-dp, _agent_b(scn.mode, dp, dv, dist, vbar, V[i], params[i].accel_limit,
                                       other, params[i].barrier_gain, ctx.safety_dist[i, j],
                                       ctx.cfg.epsilon)))
            pairs.append((i, j))
        rows += _speed_rows(params[i].speed_limit, V[i], scn.dt)
        lo, hi = blocks[i]
        _same_bytes(rows, A[lo:hi], b[lo:hi])
    assert row_pairs == pairs


@settings(max_examples=150, deadline=None)
@given(ensembles(("centralized",)) | ensembles(("centralized",), inside=True))
def test_ensemble_rows_match_scalar_formulas(case):
    ctx, P, V = case
    params, dt = ctx.params, ctx.scenario.dt
    violated = _violated_ref(ctx, P, V)
    free = [k for k in range(ctx.n) if not violated[k]]
    col = {agent: c for c, agent in enumerate(free)}
    rows, pairs = [], []
    for i, j in ctx.pair_keys:
        if violated[i] and violated[j]:
            continue
        dp, dv, dist, vbar = _rel(P, V, i, j)
        bound = _centralized_b(dp, dv, dist, vbar, params[i].accel_limit + params[j].accel_limit,
                               params[i].barrier_gain, ctx.safety_dist[i, j], ctx.cfg.epsilon)
        a = np.zeros(2 * len(free))
        for agent, block in ((i, -dp), (j, dp)):
            if agent in col:
                a[2 * col[agent] : 2 * col[agent] + 2] = block
            else:  # a braking agent's fixed control moves into the bound
                bound -= float(block @ _brake(V[agent], params[agent].accel_limit))
        rows.append((a, bound))
        pairs.append((i, j))
    for i in free:
        for normal, bound in _speed_rows(params[i].speed_limit, V[i], dt):
            a = np.zeros(2 * len(free))
            a[2 * col[i] : 2 * col[i] + 2] = normal
            rows.append((a, bound))
    dp, dist = sim._pair_dist(ctx, P)
    A, b, row_pairs = sim._ensemble_rows(ctx, np.array(violated), dp, dist)
    _same_bytes(rows, A, b)
    assert row_pairs == pairs


def test_guard_names_the_first_pair_inside_its_safety_distance():
    with pytest.raises(AlreadyViolatedError) as err:
        barrier.guard_pairs(np.array([0, 2, 3]), np.array([1, 0, 1]),
                            np.array([1.0, 0.4, 0.3]), np.array([0.5, 0.4, 0.5]))
    assert err.value.pair == (2, 0) and err.value.dist == 0.4
    barrier.guard_pairs(np.array([0]), np.array([1]), np.array([0.6]), 0.5)


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


@pytest.mark.parametrize("mode", MODES)
def test_coincident_pair_raises(mode):
    ctx = SimContext(_headon(mode))
    ctx.P[1], ctx.V[1] = ctx.P[0], 0.0
    with pytest.raises(DegenerateGeometryError):
        step_once(ctx)


def test_step_record_reuses_the_context_pair_keys():
    ctx = SimContext(_headon())
    for _ in range(3):
        rec = step_once(ctx)
        assert list(rec.pair_h) == ctx.pair_keys
        assert all(a is b for a, b in zip(rec.pair_h, ctx.pair_keys))


class ScalarLaw:
    """The estimator's law, transcribed id by id in plain Python floats."""

    def __init__(self, ids, floor, gain, smoothing, cap):
        self.gain, self.smoothing, self.cap = gain, smoothing, cap
        self.est = {j: floor for j in ids}
        self.obs = {j: 0.0 for j in ids}
        self.last = {}

    def observe(self, j, v, dt):
        if j in self.last:
            last = self.last[j]
            raw = max(abs(v[0] - last[0]), abs(v[1] - last[1])) / dt
            if self.cap is not None:
                raw = min(raw, self.cap)
            self.obs[j] = (1.0 - self.smoothing) * self.obs[j] + self.smoothing * raw
        self.last[j] = v

    def update(self, j, dt):
        est = self.est[j]
        self.est[j] = est + dt * self.gain * (max(est, self.obs[j]) - est)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 6),
    st.floats(0.05, 2.0),
    st.floats(0.1, 5.0),
    st.floats(0.05, 1.0),
    st.none() | st.floats(0.1, 3.0),
    st.floats(0.005, 0.1),
    st.integers(0, 2**32 - 1),
)
def test_estimator_matches_scalar_law(k, floor, gain, smoothing, cap, dt, seed):
    rng = np.random.default_rng(seed)
    ids = [int(j) for j in rng.permutation(20)[:k]]
    est = LimitEstimator(ids, floor, gain, smoothing=smoothing, obs_cap=cap)
    ref = ScalarLaw(ids, floor, gain, smoothing, cap)
    V = rng.uniform(-1.0, 1.0, (k, 2))
    for _ in range(30):
        V = V + rng.uniform(-3.0, 3.0, (k, 2)) * dt
        est.observe(V, dt)
        est.update(dt)
        for row, j in enumerate(ids):
            ref.observe(j, V[row].tolist(), dt)
            ref.update(j, dt)
        assert est.estimates == ref.est
        assert [est.observed_accel(j) for j in ids] == [ref.obs[j] for j in ids]
