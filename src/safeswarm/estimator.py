"""Online, conservative estimation of neighbors' acceleration limits.

Each agent watches its neighbors' velocities, finite-differences them into
an observed acceleration magnitude, smooths that exponentially (each new
sample enters with weight ``SMOOTHING``), and raises its per-neighbor limit
estimate toward any observation that exceeds it:

    d(est)/dt = gain * (max(est, observed) - est)

Estimates start at a global floor, never decrease, and, because the
observed magnitude of a box-limited control never exceeds the true limit,
never overshoot it under noiseless observations while each Euler step
moves an estimate at most all the way (gain * dt <= 1, which ``update``
requires). Underestimates keep the safety constraints they feed strictly
more cautious than the truth.

Magnitudes use the max-abs (per-axis) norm, matching the box that bounds
the controls being observed. One estimator tracks agents 0 .. n - 1 by
index and applies the law to all of them at once, as the arrays ``est``
(the estimates) and ``obs`` (the smoothed observations).
"""

from __future__ import annotations

import numpy as np

SMOOTHING = 0.2  # weight of each new finite-difference sample in the observation


class LimitEstimator:
    """Running estimates of n agents' acceleration limits.

    Parameters
    ----------
    n:
        Number of agents tracked, by index; row k of the velocities that
        ``observe`` takes belongs to agent k. Every estimate starts at
        ``accel_floor``.
    accel_floor:
        Global conservative lower bound on any agent's acceleration limit.
    gain:
        Adaptation rate (1/s) of the estimate toward large observations.
    """

    def __init__(self, n: int, accel_floor: float, gain: float):
        if not 0 < accel_floor < np.inf:
            raise ValueError(f"accel_floor must be positive and finite, got {accel_floor!r}")
        if not 0 < gain < np.inf:
            raise ValueError(f"gain must be positive and finite, got {gain!r}")
        self.gain = float(gain)
        self.est = np.full(n, float(accel_floor))
        self.obs = np.zeros(n)
        self._last_v: np.ndarray | None = None
        self._by_index: dict[int, float] | None = None

    @property
    def estimates(self) -> dict[int, float]:
        """The estimates by agent index, ``dict(enumerate(est.tolist()))``: a
        read-only view, built once per update for readers that look up
        every agent after every step."""
        if self._by_index is None:
            self._by_index = dict(enumerate(self.est.tolist()))
        return self._by_index

    def observe(self, V: np.ndarray, dt: float) -> None:
        """Fold one velocity observation of every tracked agent (row k of
        the (n, 2) array ``V`` belongs to agent k) into its smoothed
        acceleration magnitude. The first observation only stores V."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        V = np.array(V, dtype=float)
        if V.shape != (len(self.est), 2):
            raise ValueError(f"expected velocities of shape ({len(self.est)}, 2), got {V.shape}")
        if self._last_v is not None:
            step = np.abs(V - self._last_v)
            raw = np.maximum(step[:, 0], step[:, 1]) / dt
            self.obs = (1.0 - SMOOTHING) * self.obs + SMOOTHING * raw
        self._last_v = V

    def update(self, dt: float) -> None:
        """One Euler step of the adaptation law for every tracked agent."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        if dt * self.gain > 1:
            raise ValueError(f"gain * dt must be at most 1, got {self.gain!r} * {dt!r}")
        est = self.est
        self.est = est + dt * self.gain * (np.maximum(est, self.obs) - est)
        self._by_index = None
