"""The array step core against the scalar functions it replaces.

Every array the step computes must equal, bit for bit, what the scalar
reference computes on the same states: ``relative_state`` for dist and
vbar, ``pair_barrier`` for h, ``barrier.neighbors`` for the neighbour mask
and the ``dist <= Ds`` test for the violated set. ``LimitEstimator`` must
equal a plain-Python transcription of its law.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safeswarm import (
    AgentParams,
    AgentState,
    BarrierConfig,
    DegenerateGeometryError,
    LimitEstimator,
    neighbors,
    pair_barrier,
    relative_state,
)
from safeswarm import sim
from safeswarm.sim import MODES, AgentSetup, Scenario, SimContext, step_once

# Relative offsets from a critical distance: just inside, on it (up to the
# rounding of the placement) and just outside.
EDGE_OFFSETS = (-1e-9, -1e-15, 0.0, 1e-15, 1e-12, 1e-9)


@st.composite
def ensembles(draw):
    """A context over 2..12 heterogeneous agents whose states were then
    replaced by arbitrary ones, some pairs placed on the edge of Ds or of
    the owner's neighbour radius."""
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
    ctx = SimContext(Scenario(agents, mode=draw(st.sampled_from(MODES)), barrier_cfg=cfg))

    coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    P = np.array([[draw(coord), draw(coord)] for _ in range(n)])
    V = np.array([[draw(coord), draw(coord)] for _ in range(n)])
    for j in range(1, n):
        edge = draw(st.sampled_from(["free", "ds", "radius"]))
        if edge == "free":
            continue
        i = draw(st.integers(0, j - 1))
        d = ctx.safety_dist[i, j] if edge == "ds" else ctx.neighbor_radius[i]
        d *= 1.0 + draw(st.sampled_from(EDGE_OFFSETS))
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        P[j] = P[i] + d * np.array([math.cos(theta), math.sin(theta)])
    assume(len({tuple(p) for p in P.tolist()}) == n)
    ctx.states = [AgentState(P[k], V[k]) for k in range(n)]
    return ctx, P, V


def _reference(ctx):
    return [relative_state(ctx.states[i], ctx.states[j]) for i, j in ctx.pair_keys]


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
    assert sim._violated(ctx, sim._pair_dist(ctx, P)[1]) == ref


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_neighbor_mask_matches_neighbors(case):
    ctx, P, _ = case
    mask = sim._neighbor_mask(ctx, P)
    for i in range(ctx.n):
        ref = sorted(neighbors(i, ctx.states, ctx.neighbor_info[i]))
        assert np.flatnonzero(mask[i]).tolist() == ref


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
    ctx.states[1] = AgentState(ctx.states[0].p.copy(), np.zeros(2))
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
