import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from safeswarm import (
    AgentParams,
    AgentState,
    DegenerateGeometryError,
    relative_state,
    step,
)
from safeswarm.dynamics import row_dot

finite = st.floats(-50.0, 50.0, allow_nan=False)


def state(px, py, vx, vy):
    return AgentState(np.array([px, py]), np.array([vx, vy]))


class TestAgentParams:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="accel_limit"):
            AgentParams(1, 0.0, 1.0, 1.0, 0.2)
        with pytest.raises(ValueError, match="radius"):
            AgentParams(1, 1.0, 1.0, 1.0, -0.1)

    @pytest.mark.parametrize("field", ["accel_limit", "speed_limit", "barrier_gain", "radius"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_nonfinite_fields(self, field, value):
        fields = dict(accel_limit=1.0, speed_limit=1.0, barrier_gain=1.0, radius=0.2)
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            AgentParams(1, **dict(fields, **{field: value}))


class TestRelativeState:
    def test_static_pair(self):
        rel = relative_state(state(1, 0, 0, 0), state(0, 0, 0, 0))
        assert np.allclose(rel.dp, [1, 0])
        assert np.allclose(rel.dv, [0, 0])
        assert rel.dist == 1.0
        assert rel.vbar == 0.0

    def test_closing_pair_scalar_values(self):
        rel = relative_state(state(1.1, 0, -0.8, 0), state(0, 0, 0, 0))
        assert rel.dist == pytest.approx(1.1, abs=1e-15)
        assert rel.vbar == pytest.approx(-0.8, abs=1e-15)

    def test_swap_antisymmetry_example(self):
        a, b = state(1.1, 0.4, -0.8, 0.2), state(0, -0.3, 0.1, 0)
        fwd, rev = relative_state(a, b), relative_state(b, a)
        assert np.allclose(rev.dp, -fwd.dp)
        assert np.allclose(rev.dv, -fwd.dv)
        assert rev.dist == fwd.dist
        assert rev.vbar == fwd.vbar

    def test_coincident_positions_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            relative_state(state(1, 2, 0, 0), state(1, 2, 3, 4))

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    def test_antisymmetry_and_consistency(self, px, py, vx, vy, qx, qy, wx, wy):
        a, b = state(px, py, vx, vy), state(qx, qy, wx, wy)
        if np.all(a.p == b.p):
            return
        fwd, rev = relative_state(a, b), relative_state(b, a)
        assert np.array_equal(rev.dp, -fwd.dp)
        assert np.array_equal(rev.dv, -fwd.dv)
        assert rev.vbar == fwd.vbar
        assert fwd.dist == pytest.approx(np.linalg.norm(fwd.dp), rel=1e-12)
        assert fwd.vbar * fwd.dist == pytest.approx(float(fwd.dp @ fwd.dv), abs=1e-9)


class TestStep:
    def test_zero_input_zero_velocity(self):
        p, v = step(np.zeros(2), np.zeros(2), np.zeros(2), 0.02)
        assert np.all(p == 0) and np.all(v == 0)

    def test_constant_velocity(self):
        p, v = step(np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), 0.1)
        assert np.allclose(p, [0.1, 0]) and np.allclose(v, [1, 0])

    def test_velocity_updates_before_position(self):
        p, v = step(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), 0.1)
        assert np.allclose(v, [0.1, 0])
        assert np.allclose(p, [0.01, 0])  # new velocity moves the position

    def test_deterministic(self):
        a = step(np.array([0.1, -0.2]), np.array([0.3, 0.7]), np.array([0.31, -0.13]), 0.02)
        b = step(np.array([0.1, -0.2]), np.array([0.3, 0.7]), np.array([0.31, -0.13]), 0.02)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @given(finite, finite, st.floats(1e-4, 1.0))
    def test_zero_input_conserves_speed_exactly(self, vx, vy, dt):
        before = np.array([vx, vy])
        _, after = step(np.zeros(2), before, np.zeros(2), dt)
        assert np.array_equal(after, before)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)

    def test_broadcasts_over_agents_like_one_agent_at_a_time(self):
        rng = np.random.default_rng(3)
        P, V, U = (rng.uniform(-2.0, 2.0, (5, 2)) for _ in range(3))
        P1, V1 = step(P, V, U, 0.02)
        for k in range(5):
            p, v = step(P[k], V[k], U[k], 0.02)
            assert P1[k].tobytes() == p.tobytes() and V1[k].tobytes() == v.tobytes()


def matmul_row_dot(a, b):
    """Each row pair's dot as a (1, 2) by (2, 1) matmul, the rounding
    ``row_dot`` promises."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class TestRowDot:
    SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e200, -1e200, 1.0, -1.0)

    @pytest.mark.parametrize("shapes", [((50, 2), (50, 2)), ((6, 9, 2), (6, 1, 2)),
                                        ((6, 9, 2), (9, 2)), ((2,), (40, 2)), ((2,), (2,))])
    def test_equals_the_matmul_bit_for_bit(self, shapes):
        """Stacked and broadcast shapes, with signed zeros, subnormals, inf,
        NaN and overflowing products among scaled normal entries."""
        rng = np.random.default_rng(7)
        a, b = (np.ldexp(rng.normal(size=shape), rng.integers(-60, 61, shape)) for shape in shapes)
        for x in (a, b):
            x.flat[::3] = rng.choice(self.SPECIALS, x.flat[::3].size)
        with np.errstate(all="ignore"):
            got, want = row_dot(a, b), matmul_row_dot(a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            transposed = row_dot(a[..., ::-1], b)  # a strided operand
            assert transposed.tobytes() == matmul_row_dot(a[..., ::-1], b).tobytes()

    def test_signed_zeros(self):
        a = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        b = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert row_dot(a, b).tobytes() == matmul_row_dot(a, b).tobytes()
        assert row_dot(a[0], b[0]).tobytes() == (a[0] @ b[0]).tobytes()

    @pytest.mark.parametrize("a, b, kind", [([1e200, 1e200], [1e200, 1e200], "overflow"),
                                            ([np.inf, 1.0], [0.0, 1.0], "invalid value")])
    def test_warns_as_the_matmul(self, a, b, kind):
        a, b = np.array([a]), np.array([b])
        for dot in (row_dot, matmul_row_dot):
            with pytest.warns(RuntimeWarning, match=f"^{kind} encountered in "):
                dot(a, b)
