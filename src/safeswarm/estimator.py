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
the controls being observed. One estimator tracks a fixed list of ids and
applies the law to all of them at once, as arrays in the order of ``ids``.
"""

from __future__ import annotations

import numpy as np

SMOOTHING = 0.2  # weight of each new finite-difference sample in the observation


class LimitEstimator:
    """Running estimates of other agents' acceleration limits.

    Parameters
    ----------
    neighbor_ids:
        Ids this estimator will track, in the order of the rows that
        ``observe`` takes; repeated ids count once. Estimates for all of
        them start at ``accel_floor``.
    accel_floor:
        Global conservative lower bound on any agent's acceleration limit.
    gain:
        Adaptation rate (1/s) of the estimate toward large observations.
    """

    def __init__(self, neighbor_ids, accel_floor: float, gain: float):
        if not 0 < accel_floor < np.inf:
            raise ValueError(f"accel_floor must be positive and finite, got {accel_floor!r}")
        if not 0 < gain < np.inf:
            raise ValueError(f"gain must be positive and finite, got {gain!r}")
        self.accel_floor = float(accel_floor)
        self.gain = float(gain)
        self.ids = list(dict.fromkeys(int(j) for j in neighbor_ids))
        self.estimates: dict[int, float] = dict.fromkeys(self.ids, self.accel_floor)  # _est by id
        self._est = np.full(len(self.ids), self.accel_floor)
        self._obs = np.zeros(len(self.ids))
        self._last_v: np.ndarray | None = None

    def observe(self, V: np.ndarray, dt: float) -> None:
        """Fold one velocity observation of every tracked agent (row k of
        the (len(ids), 2) array ``V`` belongs to ``ids[k]``) into its
        smoothed acceleration magnitude. The first observation only stores V."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        V = np.array(V, dtype=float)
        if V.shape != (len(self.ids), 2):
            raise ValueError(f"expected velocities of shape ({len(self.ids)}, 2), got {V.shape}")
        if self._last_v is not None:
            raw = np.abs(V - self._last_v).max(axis=1) / dt
            self._obs = (1.0 - SMOOTHING) * self._obs + SMOOTHING * raw
        self._last_v = V

    def update(self, dt: float) -> None:
        """One Euler step of the adaptation law for every tracked agent."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        if dt * self.gain > 1:
            raise ValueError(f"gain * dt must be at most 1, got {self.gain!r} * {dt!r}")
        est = self._est
        self._est = est + dt * self.gain * (np.maximum(est, self._obs) - est)
        self.estimates.update(zip(self.ids, self._est.tolist()))

    def observed_accel(self, j: int) -> float:
        """Current smoothed acceleration magnitude for neighbor j."""
        return float(self._obs[self.ids.index(j)])
