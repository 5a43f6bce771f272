"""Hyperchaotic map iteration: fold nonlinearity, exact and settling-limited steps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .params import DEFAULT_PARAMS, SettlingConfig, SystemParams

DEFAULT_TRANSIENT = 1000


class FoldBreakpointError(ValueError):
    """A fold argument sits exactly on a branch boundary, where the slope is undefined."""


class DegenerateTrajectoryError(ValueError):
    """The trajectory carries no usable dynamics (e.g. pinned at a fixed point)."""


def _as_state(state) -> np.ndarray:
    s = np.asarray(state, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"state must have shape (3,), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("state components must be finite")
    return s


def wrap_unit(x):
    """Wrap values into [-1, 1) via floored modulo: mod(x + 1, 2) - 1.

    The floored convention pins wrap_unit(-1.0) to -1.0, which matters on
    languages whose native modulo follows the dividend sign; it is fixed
    here so folded trajectories replay identically everywhere.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_unit requires finite input")
    out = _wrap(arr)
    return out if out.ndim else float(out)


def _wrap(u):
    """``(u + 1) % 2 - 1`` bit for bit on finite floats, without numpy's slow remainder.

    With v = u + 1, both v/2 and 2*floor(v/2) are exact, so the one rounding
    in v - 2*floor(v/2) sees the same exact value as the fmod-then-add-2
    of a floored ``%``.
    """
    v = u + 1.0
    return v - 2.0 * np.floor(v * 0.5) - 1.0


def fold(x, beta):
    """Piecewise-linear tent fold with asymmetry ``beta`` in [0, 1].

    The central segment has slope 1/(1-beta) and the outer segments slope
    -1/beta; outputs always land in [-1, 1]. beta = 0 and beta = 1 give the
    exact constant-slope limits (+1 and -1) with no division, and the
    single undefined point at beta = 1 maps to 0 so the origin remains a
    fixed point for every beta.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("fold requires finite input")
    with np.errstate(over="ignore"):
        out = _fold_unchecked(np.atleast_1d(arr), beta).reshape(arr.shape)
    return out if out.ndim else float(out)


def _fold_unchecked(u, beta):
    """fold's arithmetic on a 1-d float array, without fold's input checks.

    Agrees bit for bit with ``_kernels.fold_scalar`` on every finite
    element; callers have validated ``beta`` and the input. Each branch is
    evaluated on the whole array and np.where keeps the one that applies.
    For beta within about 1e-308 of 0 or 1 a discarded branch can
    overflow, so callers silence numpy's overflow warning; a kept value
    always lies in [-1, 1]. Returns a new array.
    """
    g = _wrap(u)
    if beta == 0.0:
        return g
    if beta == 1.0:
        return np.where(g > 0.0, 1.0 - g, np.where(g < 0.0, -1.0 - g, 0.0))
    hi = 1.0 - beta
    inner = np.where(g < -hi, (-1.0 - g) / beta, g / (1.0 - beta))
    return np.where(g > hi, (1.0 - g) / beta, inner)


def fold_slopes(u, beta):
    """Per-component fold slopes at pre-wrap arguments ``u``.

    Returns (slopes, at_breakpoint) where at_breakpoint marks components
    lying exactly on a branch boundary. Boundary hits keep the
    central-branch slope, consistent with how fold() assigns boundaries.
    """
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    slopes = np.empty_like(arr)
    hits = np.zeros(arr.shape, dtype=bool)
    flat = arr.reshape(-1)
    s_flat = slopes.reshape(-1)
    h_flat = hits.reshape(-1)
    for i, value in enumerate(flat):
        s, h = _kernels.fold_slope_scalar(value, beta)
        s_flat[i] = s
        h_flat[i] = h
    return slopes, hits


def step_ideal(state, params: SystemParams = DEFAULT_PARAMS) -> np.ndarray:
    """One exact iteration: componentwise fold of A @ state."""
    s = _as_state(state)
    return np.asarray(fold(params.matrix() @ s, params.beta))


def step_nonideal(
    state, params: SystemParams, settling: SettlingConfig
) -> np.ndarray:
    """One settling-limited iteration.

    Moves only the fraction ``settling.weight`` of the way from the current
    state toward the exact image, i.e. exact interpolation
    ``(1 - w) * state + w * step_ideal(state)`` computed in the numerically
    equivalent form ``state + (image - state) * w``.
    """
    s = _as_state(state)
    image = step_ideal(s, params)
    return s + (image - s) * settling.weight


def jacobian_at(
    state, params: SystemParams = DEFAULT_PARAMS, on_breakpoint: str = "raise"
) -> np.ndarray:
    """Jacobian of the exact step at ``state``: diag(fold slopes) @ A.

    The diagonal entries are 1/(1-beta) on central segments and -1/beta on
    outer segments, classified per component of A @ state. When a component
    falls exactly on a branch boundary the slope is ambiguous;
    ``on_breakpoint`` selects "raise" (default, FoldBreakpointError) or
    "central" (keep the central-branch slope silently).
    """
    if on_breakpoint not in ("raise", "central"):
        raise ValueError(f"unknown on_breakpoint mode: {on_breakpoint!r}")
    s = _as_state(state)
    a_mat = params.matrix()
    u = a_mat @ s
    slopes, hits = fold_slopes(u, params.beta)
    if hits.any() and on_breakpoint == "raise":
        where = np.nonzero(hits)[0].tolist()
        raise FoldBreakpointError(
            f"fold argument exactly on a branch boundary in component(s) {where}"
        )
    return slopes[:, None] * a_mat


def drive_output(state, gamma: float):
    """Scalar output gamma * x + z; broadcasts over trailing state axes."""
    arr = np.asarray(state, dtype=float)
    out = gamma * arr[..., 0] + arr[..., 2]
    return out if getattr(out, "ndim", 0) else float(out)


def random_initial_state(seed: int) -> np.ndarray:
    """Seeded draw from the uniform cube [-0.5, 0.5]^3."""
    return np.random.default_rng(seed).uniform(-0.5, 0.5, size=3)


def spawn_seeds(seed: int, n: int) -> list:
    """Split a master seed into ``n`` independent integer sub-seeds.

    Sub-seed k is the first 32-bit word of the k-th child spawned from
    ``SeedSequence(seed)``; it does not depend on ``n``.
    """
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(n)
    ]


@dataclass(frozen=True)
class Trajectory:
    """A recorded orbit plus the inputs needed to regenerate it."""

    states: np.ndarray
    params: SystemParams
    settling: SettlingConfig | None = None
    seed: int | None = None
    transient: int = 0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 3:
            raise ValueError(f"states must have shape (n, 3), got {states.shape}")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def mode(self) -> str:
        return "ideal" if self.settling is None else f"non-ideal(t_n={self.settling.t_n})"

    @property
    def w(self) -> np.ndarray:
        """Scalar drive series gamma * x + z for every recorded state."""
        return drive_output(self.states, self.params.gamma)


def generate_trajectory(
    n: int,
    params: SystemParams = DEFAULT_PARAMS,
    init=None,
    seed: int | None = None,
    settling: SettlingConfig | None = None,
    transient: int = DEFAULT_TRANSIENT,
) -> Trajectory:
    """Iterate the map for ``n`` recorded steps after a discarded transient.

    Either an explicit ``init`` state or a ``seed`` (for a uniform draw from
    [-0.5, 0.5]^3) must be supplied; the seed is recorded on the trajectory
    so runs are replayable. Identical inputs yield bit-identical output.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if transient < 0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    if init is None:
        if seed is None:
            raise ValueError("provide either init or seed")
        init = random_initial_state(seed)
    start = _as_state(init)
    weight = 1.0 if settling is None else settling.weight
    out = np.empty((n, 3))
    flat_out = out.reshape(-1)
    x, y, z = start
    coefficients = (params.a, params.b, params.c, params.beta, weight)
    # the transient runs through the same kernel; its states are dropped
    for lo in range(0, transient, _kernels.CHUNK):
        _, x, y, z = _kernels.iterate_map(
            x, y, z, *coefficients, min(_kernels.CHUNK, transient - lo)
        )
    for lo in range(0, n, _kernels.CHUNK):
        hi = min(lo + _kernels.CHUNK, n)
        flat, x, y, z = _kernels.iterate_map(x, y, z, *coefficients, hi - lo)
        flat_out[3 * lo : 3 * hi] = flat
    return Trajectory(
        states=out, params=params, settling=settling, seed=seed, transient=transient
    )
