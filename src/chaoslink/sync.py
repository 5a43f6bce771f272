"""Scalar-signal synchronization: receiver dynamics, stability, noise metrics.

The transmitter runs free and sends only ``w = gamma*x + z``. The receiver
rebuilds its missing third coordinate by synchronous substitution,
``z_est = w - gamma*x_r``, and iterates the same fold dynamics on the
substituted state. Stability of the error dynamics is governed by the
eigenvalues of the coupled matrix scaled by the worst-case fold slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core_map import (
    _as_state,
    _fold_unchecked,
    fold,
    generate_trajectory,
    random_initial_state,
    spawn_seeds,
)
from .params import DEFAULT_PARAMS, SystemParams

SYNC_DISCARD = 100  # settle window dropped before error statistics


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling gain and channel noise level for a synchronization run."""

    gamma: float = DEFAULT_PARAMS.gamma
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}"
            )


@dataclass(frozen=True)
class SyncRun:
    """Synchronization quality metrics for one drive/response simulation."""

    rms_error: tuple
    correlation: tuple
    delta_n: float
    samples: int

    def __post_init__(self):
        if any(r < 0 for r in self.rms_error) or self.delta_n < 0:
            raise ValueError("rms errors and delta_n must be non-negative")
        if any(not -1.0 <= c <= 1.0 for c in self.correlation):
            raise ValueError("correlations must lie in [-1, 1]")


@dataclass(frozen=True)
class DeviationFit:
    """Least-squares fit of delta_n**2 = A**2 + (sigma*B)**2."""

    a: float
    b: float
    residual: float
    r_squared: float


def receiver_step(state, w_received: float, params: SystemParams = DEFAULT_PARAMS):
    """One response-system update driven by the received scalar.

    Substitutes ``z_est = w_received - gamma*x`` for the third coordinate and
    applies the folded linear update to (x, y, z).
    """
    s = _as_state(state)
    x, y, z = s
    z_est = w_received - params.gamma * x
    beta = params.beta
    return np.array(
        [
            fold(params.a * x + params.b * z_est, beta),
            fold(params.c * y + z_est, beta),
            fold(x + y, beta),
        ]
    )


def receiver_run(w, init, params: SystemParams = DEFAULT_PARAMS) -> np.ndarray:
    """Response states for a whole received series.

    Returns an array (len(w), 3); row k is the receiver state at sample k,
    i.e. before consuming w[k], so transmitter and receiver rows align.

    On the interpreted backend a long series with stable params runs block
    by block in lockstep (see _receiver_blocks); the result is bit-identical
    to the sequential kernel, which handles every other case.
    """
    w = np.asarray(w, dtype=float)
    start = _as_state(init)
    out = np.empty((w.size, 3))
    warm = None if _kernels.HAVE_NUMBA else _warmup_steps(params)
    if (
        warm is not None
        and w.size >= 2 * _block_length(warm)
        and _stays_finite(w, start, params)
    ):
        _receiver_blocks(w, start, params, warm, out)
    else:
        _receiver_chain(w, start, params, out)
    return out


def _receiver_chain(w, start, params: SystemParams, out) -> None:
    _kernels.receiver_chain(
        w,
        start[0],
        start[1],
        start[2],
        params.a,
        params.b,
        params.c,
        params.beta,
        params.gamma,
        out,
    )


def _warmup_steps(params: SystemParams):
    """Steps after which a receiver started anywhere matches the true one.

    Under stability_check's condition the synchronization error shrinks at
    least by rho = 1 - min(margins)/bound per step, so
    ceil(log(2**-53)/log(rho)) steps take a unit error below the last bit.
    The slack covers start errors up to 2 and the y error, which the x
    error keeps feeding. None for unstable params, which never forget their
    start state.
    """
    verdict = stability_check(params)
    if not verdict["stable"]:
        return None
    rho = 1.0 - min(verdict["margins"].values()) / verdict["bound"]
    steps = math.ceil(math.log(2.0**-53) / math.log(rho)) if rho > 0.0 else 1
    return steps + steps // 4 + 8


def _block_length(warm: int) -> int:
    """Rows per lockstep block: 1.25 warm-ups.

    Each lockstep step costs a fixed numpy overhead plus a share per lane,
    so short blocks (many lanes, few steps) win on short series and long
    ones (less warm-up per row) on long series; 1.25 was within a few
    percent of the best of 1, 1.5 and 2 at both 2e4 and 2e5 samples.
    """
    return warm + warm // 4


def _stays_finite(w, start, params: SystemParams) -> bool:
    """True when no receiver intermediate can overflow from ``w`` and ``start``.

    States after a fold lie in [-1, 1], so every intermediate is bounded by
    the product below. The lockstep path needs finite values: IEEE 754
    leaves NaN payloads open, and vector and scalar code may propagate them
    differently.
    """
    lo, hi = float(w.min()), float(w.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return False
    size = max(1.0, float(np.abs(start).max())) + max(-lo, hi)
    gain = (abs(params.a) + abs(params.b) + abs(params.c) + 2.0) * (1.0 + abs(params.gamma))
    return gain * (size + 1.0) < 1e300


def _lockstep(state, wk, params: SystemParams, u):
    """receiver_chain's update on (3, lanes) states, one sample ``wk`` per lane."""
    x, y = state[0], state[1]
    zt = wk - params.gamma * x
    u[0] = params.a * x + params.b * zt
    u[1] = params.c * y + zt
    np.add(x, y, out=u[2])
    return _fold_unchecked(u.reshape(-1), params.beta).reshape(u.shape)


def _receiver_blocks(w, start, params: SystemParams, warm: int, out):
    """Block-parallel receiver_chain, exact by construction.

    Block j covers rows [j*block, (j+1)*block), where block comes from
    _block_length and is at least ``warm``. Block 0 starts from ``start``.
    Every later block starts from ``start`` placed ``warm`` samples earlier
    (inside the block before it) and runs over those samples first, which
    lets it forget the wrong start (see _warmup_steps). All blocks then step together as
    numpy vectors and write straight into ``out``. A block is kept only if
    its first row equals, bit for bit, the true end state of the block
    before it; otherwise the sequential kernel re-runs it from that state.
    Rows past the last whole block run sequentially too.
    """
    n = w.size
    block = _block_length(warm)
    lanes = n // block
    rows = out[: lanes * block].reshape(lanes, block, 3)
    series = w[: lanes * block].reshape(lanes, block)
    early = w[block - warm : lanes * block - warm].reshape(lanes - 1, block)
    state = np.repeat(start[:, None], lanes - 1, axis=1)
    with np.errstate(over="ignore"):  # see _fold_unchecked
        u = np.empty((3, lanes - 1))
        for s in range(warm):
            state = _lockstep(state, early[:, s], params, u)
        state = np.concatenate([start[:, None], state], axis=1)
        u = np.empty((3, lanes))
        for s in range(block):
            rows[:, s, :] = state.T
            state = _lockstep(state, series[:, s], params, u)
    starts = rows[:, 0, :].copy()
    true_end = state[:, 0]
    for j in range(1, lanes):
        if starts[j].tobytes() == true_end.tobytes():
            true_end = state[:, j]
            continue
        begin = j * block
        # one row past the block is the next block's true start; a block
        # that ends the series has no such row and needs none
        stop = min(begin + block + 1, n)
        _receiver_chain(w[begin:stop], true_end, params, out[begin:stop])
        true_end = out[stop - 1].copy()
    if lanes * block < n:
        _receiver_chain(w[lanes * block :], true_end, params, out[lanes * block :])


def response_estimate(w, states, gamma: float) -> np.ndarray:
    """Receiver's reconstruction of the drive state: (x_r, y_r, z_est).

    The third coordinate is the substituted value ``w - gamma*x_r`` (the
    receiver's actual output for the missing variable), not the internal z
    state, which only feeds the next iteration.
    """
    w = np.asarray(w, dtype=float)
    est = np.array(states, dtype=float, copy=True)
    est[:, 2] = w - gamma * est[:, 0]
    return est


def coupled_matrix(params: SystemParams = DEFAULT_PARAMS) -> np.ndarray:
    """Error-dynamics matrix of the substituted receiver.

    Lower triangular with eigenvalues (a - b*gamma, c, 0); the fold slope
    multiplies these when assessing stability.
    """
    return np.array(
        [
            [params.a - params.b * params.gamma, 0.0, 0.0],
            [-params.gamma, params.c, 0.0],
            [1.0, 1.0, 0.0],
        ]
    )


def stability_check(params: SystemParams = DEFAULT_PARAMS) -> dict:
    """Synchronization stability verdict with per-condition margins.

    The receiver error contracts when |a - b*gamma| and |c| both stay below
    the reciprocal of the worst fold slope: 1 for beta in {0, 1}, beta for
    0 < beta <= 1/2, and 1 - beta for 1/2 < beta < 1. Margins are
    bound - |value|, positive when satisfied.
    """
    beta = params.beta
    if beta in (0.0, 1.0):
        bound = 1.0
    elif beta <= 0.5:
        bound = beta
    else:
        bound = 1.0 - beta
    coupling_term = abs(params.a - params.b * params.gamma)
    margins = {
        "coupling": bound - coupling_term,
        "c": bound - abs(params.c),
    }
    return {
        "stable": bool(margins["coupling"] > 0 and margins["c"] > 0),
        "bound": bound,
        "margins": margins,
    }


def normalized_deviation(z1, z2) -> float:
    """RMS difference of two series divided by the product of their spreads.

    Note the denominator is the plain product sigma(z1)*sigma(z2), not its
    square root, so the metric scales as 1/s when both series are scaled by
    s. It is implemented exactly in this form for comparability.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    num = np.sqrt(np.mean((z1 - z2) ** 2))
    denom = np.std(z1) * np.std(z2)
    if denom == 0:
        raise ValueError("series must have nonzero spread")
    return float(num / denom)


def run_sync(
    params: SystemParams = DEFAULT_PARAMS,
    coupling: CouplingConfig = CouplingConfig(),
    n: int = 10_000,
    seed: int = 0,
) -> SyncRun:
    """Simulate drive and response over a noisy scalar channel.

    White Gaussian noise of ``coupling.noise_sigma`` is added to the
    transmitted scalar only. The drive starts from the seeded cube draw
    (sub-seed 0), the receiver from a different point (sub-seed 1), and the
    noise uses sub-seed 2; the first ``SYNC_DISCARD`` samples are excluded
    from the statistics so convergence is exercised but not measured. Errors are
    scored against the receiver's reconstructed estimate (x_r, y_r, z_est),
    see response_estimate.
    """
    if n < 1000:
        raise ValueError("need at least 1000 samples after the settle window")
    run_params = params.replace(gamma=coupling.gamma)
    total = n + SYNC_DISCARD
    drive_seed, recv_seed, noise_seed = np.random.SeedSequence(seed).spawn(3)
    drive = generate_trajectory(
        total,
        params=run_params,
        init=random_initial_state(drive_seed),
        seed=seed,
    )
    w = drive.w
    if coupling.noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        w = w + rng.normal(0.0, coupling.noise_sigma, size=w.size)
    recv_init = random_initial_state(recv_seed)
    response = response_estimate(w, receiver_run(w, recv_init, run_params), coupling.gamma)

    d = drive.states[SYNC_DISCARD:]
    r = response[SYNC_DISCARD:]
    err = r - d
    rms = tuple(np.sqrt(np.mean(err**2, axis=0)))
    corr = tuple(
        float(np.corrcoef(d[:, k], r[:, k])[0, 1]) for k in range(3)
    )
    delta = normalized_deviation(d[:, 2], r[:, 2])
    return SyncRun(rms_error=rms, correlation=corr, delta_n=delta, samples=n)


def sync_sweep(
    params: SystemParams,
    gammas,
    sigmas,
    n: int = 10_000,
    seed: int = 0,
):
    """run_sync over the gamma x sigma grid, in grid order.

    Grid point (i, j) uses the sub-seed spawned from the master seed at
    position i*len(sigmas)+j, so points are independent and reproducible.
    Returns a list of dicts with keys gamma, sigma, run.
    """
    gammas = [float(g) for g in gammas]
    sigmas = [float(s) for s in sigmas]
    if not gammas or not sigmas:
        raise ValueError("gamma and sigma grids must be non-empty")
    grid = [(gamma, sigma) for gamma in gammas for sigma in sigmas]
    points = []
    for (gamma, sigma), point_seed in zip(grid, spawn_seeds(seed, len(grid))):
        coupling = CouplingConfig(gamma=gamma, noise_sigma=sigma)
        run = run_sync(params, coupling, n=n, seed=point_seed)
        points.append({"gamma": gamma, "sigma": sigma, "run": run})
    return points


def fit_deviation_model(points) -> DeviationFit:
    """Fit delta_n**2 = A**2 + sigma**2 * B**2 by linear least squares.

    ``points`` is a sequence of (sigma, delta_n) pairs; at least three
    distinct noise levels are required. Returns non-negative A and B, the
    RMS residual of delta_n**2, and the R^2 of the linear fit in sigma**2.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (sigma, delta_n) pairs")
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 points")
    sigma2 = pts[:, 0] ** 2
    if np.ptp(sigma2) == 0:
        raise ValueError("all sigma values are equal; fit is underdetermined")
    target = pts[:, 1] ** 2
    design = np.column_stack([np.ones_like(sigma2), sigma2])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    a = float(np.sqrt(max(coef[0], 0.0)))
    b = float(np.sqrt(max(coef[1], 0.0)))
    residual = float(np.sqrt(np.mean((target - pred) ** 2)))
    return DeviationFit(a=a, b=b, residual=residual, r_squared=r_squared)
