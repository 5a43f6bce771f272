"""Scalar-signal synchronization: receiver dynamics, stability, noise metrics.

The transmitter runs free and sends only ``w = gamma*x + z``. The receiver
rebuilds its missing third coordinate by synchronous substitution,
``z_est = w - gamma*x_r``, and iterates the same fold dynamics on the
substituted state. Stability of the error dynamics is governed by the
eigenvalues of the coupled matrix scaled by the worst-case fold slope.

One engine (``_run``) receives a series or stacked frames, block-parallel
in time and bit-identical to the sequential kernel, and returns each
frame's end state. ``receiver_run`` and ``receiver_output`` record states
or w_r; ``recover_slice``, the link's slice receive, writes ``w - w_r``
over the received slice itself and returns the end states, from which the
next slice continues, so it holds the slice and the lockstep's step-major
copy of it. Slices bound the lockstep's lanes, and with them its per-step
temporaries (a 2**20 sample slice of the default map: 6944 lanes, 56 KB
each, below glibc's 128 KB mmap threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core_map import (
    _as_state,
    _fold_unchecked,
    generate_trajectory,
    random_initial_state,
    spawn_seeds,
)
from .params import DEFAULT_PARAMS, SystemParams

SYNC_DISCARD = 100  # settle window dropped before error statistics
SYNC_MIN_SAMPLES = 1000  # run_sync: the fewest samples it scores


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


def receiver_run(w, init, params: SystemParams = DEFAULT_PARAMS) -> np.ndarray:
    """Response states for a whole received series, or for stacked frames.

    For a series ``w`` of shape (n,) and a start state ``init`` of shape
    (3,), returns an array (n, 3); row k is the receiver state at sample k,
    i.e. before consuming w[k], so transmitter and receiver rows align.
    Stacked frames, ``w`` of shape (F, n) with one start state per frame in
    ``init`` of shape (F, 3), give (F, n, 3), frame f being the receiver
    run on ``w[f]`` from ``init[f]``.

    On the interpreted backend every long frame with stable params runs
    block by block, the blocks of all such frames in one lockstep (see
    _receiver_blocks); the result is bit-identical to the sequential
    kernel, which handles every other frame.
    """
    return _receive(w, init, params, states=True)


def receiver_output(w, init, params: SystemParams = DEFAULT_PARAMS) -> np.ndarray:
    """The receiver's regenerated output ``w_r = gamma*x + z``, per sample.

    Takes what receiver_run takes and returns an array of ``w``'s shape
    whose entry k equals ``gamma*x + z`` of receiver_run's row k, bit for
    bit. It runs the same engine but never holds the (..., 3) states: the
    lockstep records w_r step by step, and the sequential kernel runs
    ``_kernels.CHUNK`` samples at a time into one small state buffer.
    """
    return _receive(w, init, params, states=False)


def _receive(w, init, params: SystemParams, states: bool) -> np.ndarray:
    """receiver_run (``states``) or receiver_output on a series or stacked frames."""
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2):
        raise ValueError(f"w must be a series or stacked frames, got shape {w.shape}")
    frames = w if w.ndim == 2 else w[None]
    starts = np.array([_as_state(s) for s in (init if w.ndim == 2 else [init])])
    if len(starts) != len(frames):
        raise ValueError(
            f"{len(frames)} frames need as many start states, got {len(starts)}"
        )
    out = np.empty(frames.shape + ((3,) if states else ()))
    _run(frames, starts, params, out)
    return out.reshape(w.shape + out.shape[2:])


def recover_slice(w, starts, params: SystemParams) -> np.ndarray:
    """Write ``w - w_r`` over the received frames ``w`` and return the end states.

    ``w`` is an owned float64 (F, m) array of received samples and
    ``starts`` (F, 3) the receiver state before each frame's first sample.
    Frame f becomes, bit for bit, ``w[f]`` minus receiver_output's w_r, and
    row f of the result is the receiver state after its last sample, from
    which the samples that follow continue. So one long series received
    slice by slice equals it received whole, and the receive holds no array
    besides ``w`` and the lockstep's step-major copy of it.
    """
    return _run(w, starts, params, None)


def _run(frames, starts, params: SystemParams, out) -> np.ndarray:
    """The receive engine on (F, n) ``frames``; returns the (F, 3) end states.

    ``out`` takes the readouts (see _record); None writes the residual
    ``frames - w_r`` over ``frames`` instead. Every long frame with stable
    params runs block by block, the blocks of all such frames in one
    lockstep; the sequential kernel runs the others.
    """
    warm = None if _kernels.HAVE_NUMBA else _warmup_steps(params)
    long_enough = warm is not None and frames.shape[1] >= 2 * _block_length(warm)
    blocked = np.array(
        [long_enough and _stays_finite(f, s, params) for f, s in zip(frames, starts)],
        dtype=bool,
    )
    target = frames if out is None else out
    ends = np.empty((len(frames), 3))
    for f in np.flatnonzero(~blocked):
        ends[f] = _receiver_chain(frames[f], starts[f], params, target[f], out is None)
    if blocked.size and blocked.all():
        ends[:] = _receiver_blocks(frames, starts, params, warm, out)
    elif blocked.any():
        sub = frames[blocked]
        part = None if out is None else np.empty((len(sub), *out.shape[1:]))
        ends[blocked] = _receiver_blocks(sub, starts[blocked], params, warm, part)
        target[blocked] = sub if out is None else part
    return ends


def _record(state, gamma: float, out, residual: bool = False) -> None:
    """Write the readout of ``state`` (3, ...) into ``out``.

    An ``out`` of the state's shape takes the state itself; one without
    the component axis takes ``gamma*x + z``, rounded as that expression is,
    or with ``residual`` has it subtracted.
    """
    if out.ndim == state.ndim:
        out[...] = state
    elif residual:
        out -= gamma * state[0] + state[2]
    else:
        np.multiply(gamma, state[0], out=out)
        out += state[2]


def _receiver_chain(w, start, params: SystemParams, out, residual: bool = False):
    """The sequential kernel on ``w`` from ``start``; returns the state after it.

    Row k of ``out`` takes the readout (see _record) of the state at sample
    k, or with ``residual`` has w_r subtracted, so ``out`` may be ``w``
    itself. The kernel runs ``_kernels.CHUNK`` samples at a time into one
    small state buffer, each call continuing from the last one's end state,
    so an output readout holds no states beyond that buffer.
    """
    coefficients = (params.a, params.b, params.c, params.beta, params.gamma)
    buf = np.empty((min(len(w), _kernels.CHUNK), 3))
    x, y, z = start
    for lo in range(0, len(w), _kernels.CHUNK):
        chunk = w[lo : lo + _kernels.CHUNK]
        rows = buf[: len(chunk)]
        x, y, z = _kernels.receiver_chain(chunk, x, y, z, *coefficients, rows)
        _record(rows.T, params.gamma, out[lo : lo + len(chunk)].T, residual)
    return np.array([x, y, z])


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
    """receiver_chain's update on (3, ...) states, one sample ``wk`` per lane."""
    x, y = state[0], state[1]
    zt = wk - params.gamma * x
    u[0] = params.a * x + params.b * zt
    u[1] = params.c * y + zt
    np.add(x, y, out=u[2])
    return _fold_unchecked(u.reshape(-1), params.beta).reshape(u.shape)


def _receiver_blocks(w, start, params: SystemParams, warm: int, out):
    """Block-parallel receiver_chain on F stacked frames, exact by construction.

    ``w`` is (F, n), ``start`` (F, 3) and ``out`` (F, n, 3) for states,
    (F, n) for the output (see _record), or None to write ``w - w_r`` over
    ``w``. Returns each frame's (F, 3) state after its last sample. Block j
    of a frame covers rows [j*block, (j+1)*block), where block comes from
    _block_length and is at least ``warm``. Block 0 starts from the frame's
    ``start``. Every later block starts from that state placed ``warm``
    samples earlier (inside the block before it) and runs over those
    samples first, which lets it forget the wrong start (see
    _warmup_steps). The blocks of all frames then step together as numpy
    vectors, so a sweep of frames pays for one block's steps, not one per
    frame.

    The steps read a step-major copy of the series, ``series[s, f, j]``
    being sample s of block j of frame f, so each step reads and writes
    contiguous rows; the warm-up reads are a view of the same copy, and a
    partial last block is padded with zeros. Each step's readout goes into
    a step-major buffer (for the output, the series rows already read).

    A block is kept only if its first state equals, bit for bit, the true
    end state of the frame's block before it. All seams are compared at
    once; the sequential kernel re-runs each block that fails from the
    true state, then the blocks after it until one matches, into the
    step-major buffer. Only then do the readouts move into ``out`` (or
    out of ``w``), so the re-runs read ``w`` as received.
    """
    frames, n = w.shape
    block = _block_length(warm)
    full, tail = divmod(n, block)
    lanes = full + (tail > 0)
    # zeros pad a partial last lane: the receiver is causal, so they change
    # no readout before n, and the end state is taken before them
    series = np.zeros((block, frames, lanes))
    lane_rows = series.transpose(1, 2, 0)  # (F, lanes, block) view
    lane_rows[:, :full] = w[:, : full * block].reshape(frames, full, block)
    if tail:
        lane_rows[:, full, :tail] = w[:, full * block :]
    early = series[block - warm :, :, :-1]  # lane j's warm-up: lane j-1's last samples
    states = out is not None and out.ndim == 3
    rec = np.empty((block, 3, frames, lanes)) if states else series
    first = start.T[:, :, None]
    state = np.repeat(first, lanes - 1, axis=2)
    with np.errstate(over="ignore"):  # see _fold_unchecked
        u = np.empty(state.shape)
        for s in range(warm):
            state = _lockstep(state, early[s], params, u)
        starts = state = np.concatenate([first, state], axis=2)
        u = np.empty(state.shape)
        for s in range(block):
            if s == tail:
                last = state[:, :, -1].copy()  # the last lane after its n - full*block samples
            stepped = _lockstep(state, series[s], params, u)
            _record(state, params.gamma, rec[s])  # after series[s] is read
            state = stepped
    ends = state
    if not tail:
        last = ends[:, :, -1].copy()
    readouts = rec.transpose((2, 3, 0, 1) if states else (1, 2, 0))  # (F, lanes, block, ...)
    # bitwise, since == equates -0.0 and +0.0
    broken = (starts[:, :, 1:].view(np.int64) != ends[:, :, :-1].view(np.int64)).any(axis=0)
    checked = np.zeros(frames, dtype=int)  # blocks below this are re-run or right
    for f, seam in zip(*np.nonzero(broken)):
        j = seam + 1
        if j <= checked[f]:
            continue
        true = ends[:, f, j - 1]
        while j < lanes and starts[:, f, j].tobytes() != true.tobytes():
            lo = j * block
            rows = w[f, lo : lo + block]
            true = _receiver_chain(rows, true, params, readouts[f, j, : len(rows)])
            j += 1
        if j == lanes:
            last[:, f] = true
        checked[f] = j
    target = w if out is None else out
    moves = [(target[:, : full * block].reshape(readouts[:, :full].shape), readouts[:, :full])]
    if tail:
        moves.append((target[:, full * block :], readouts[:, full, :tail]))
    for dest, readout in moves:
        if out is None:
            dest -= readout
        else:
            dest[...] = readout
    return last.T


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
    noise_sigma: float = 0.0,
    n: int = 10_000,
    seed: int = 0,
) -> SyncRun:
    """Simulate drive and response over a noisy scalar channel.

    White Gaussian noise of ``noise_sigma`` is added to the transmitted
    scalar only. ``seed`` is split as the link's master seed is: the drive
    starts from sub-seed 0 of ``spawn_seeds(seed, 3)``, the channel draws
    from sub-seed 1 and the receiver starts from sub-seed 2. The first
    ``SYNC_DISCARD`` samples are excluded from the statistics so
    convergence is exercised but not measured. Errors are scored against
    the receiver's reconstructed estimate (x_r, y_r, z_est), see
    response_estimate.
    """
    from .link import channel_awgn  # link imports this module

    if n < SYNC_MIN_SAMPLES:
        raise ValueError(f"need at least {SYNC_MIN_SAMPLES} samples after the settle window")
    drive_seed, ch_seed, rx_seed = spawn_seeds(seed, 3)
    drive = generate_trajectory(n + SYNC_DISCARD, params=params, seed=drive_seed)
    w = channel_awgn(drive.w, noise_sigma, seed=ch_seed)
    states = receiver_run(w, random_initial_state(rx_seed), params)
    response = response_estimate(w, states, params.gamma)

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
        run = run_sync(params.replace(gamma=gamma), sigma, n=n, seed=point_seed)
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
