"""Lyapunov spectra, correlation dimension, and spectral estimation.

Four Lyapunov estimators with different trust models:

* ``le_analytic``   closed form, only valid for the constant-slope folds
  (beta 0 or 1) where the Jacobian never changes.
* ``le_qr``         exact Jacobians accumulated along a simulated orbit with
  QR re-orthonormalization; the internal ground truth.
* ``le_eckmann_ruelle``  data-driven: local linear maps fitted from
  neighborhoods, then the same QR accumulation.
* ``le_wolf``       data-driven dominant exponent by following a neighbor
  trajectory and renormalizing through replacements.

The Welch PSD and the zero-order-hold helpers run on numpy alone. The
only scipy subpackage this module loads is ``scipy.spatial``, imported
inside the neighbour searches (``le_eckmann_ruelle``, ``le_wolf`` and the
correlation sums), so importing the package (and starting the CLI) loads
none.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .core_map import (
    DegenerateTrajectoryError,
    Trajectory,
    generate_trajectory,
    jacobian_at,
)
from .params import DEFAULT_PARAMS, SettlingConfig, SystemParams

# correlation_dimension: default radius count, and the R^2 and the width
# (in radii) the log-log fit window must reach
CD_RADII = 24
CD_MIN_R_SQUARED = 0.995
CD_MIN_WINDOW = 6

# le_qr: the fewest trajectory steps it accepts; le_eckmann_ruelle and
# le_wolf: their default fewest series points (min_points)
QR_MIN_STEPS = 10
NEIGHBOR_MIN_POINTS = 2000

# le_wolf and le_eckmann_ruelle query and prepare neighbours this many
# consecutive rows at a time, so one window's arrays stay near 1-2 MB at
# the default candidate and neighbour counts, whatever the series length
WOLF_WINDOW_ROWS = 2048
ER_WINDOW_ROWS = 256

# compensate_zoh drops bins within this fraction of f_clk of a hold null
ZOH_GUARD_FRACTION = 0.05


@dataclass(frozen=True)
class LeSpectrum:
    """Ordered Lyapunov exponents (nats per iteration) with estimator metadata."""

    exponents: tuple
    method: str
    sample_count: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        exps = tuple(float(v) for v in self.exponents)
        if list(exps) != sorted(exps, reverse=True):
            raise ValueError("exponents must be sorted descending")
        if self.method == "wolf" and len(exps) != 1:
            raise ValueError("wolf spectra carry exactly one exponent")
        object.__setattr__(self, "exponents", exps)

    def __iter__(self):
        return iter(self.exponents)


@dataclass(frozen=True)
class PsdEstimate:
    """Welch power spectral density on a uniform frequency grid."""

    frequencies: np.ndarray
    power: np.ndarray
    segment_length: int
    overlap: float

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        p = np.asarray(self.power, dtype=float)
        if f.shape != p.shape:
            raise ValueError("frequency and power grids must match")
        if np.any(p < 0):
            raise ValueError("power must be non-negative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "power", p)


@dataclass(frozen=True)
class DimensionFit:
    """Correlation-dimension slope fit with a residual-based error bar."""

    dimension: float
    error: float
    radii: np.ndarray
    correlation_sums: np.ndarray
    fit_window: tuple
    r_squared: float


class NoScalingRegionError(RuntimeError):
    """No radius window met the linearity requirement for the slope fit."""


def le_analytic(params: SystemParams = DEFAULT_PARAMS) -> LeSpectrum:
    """Closed-form spectrum for the constant-Jacobian folds (beta 0 or 1).

    With a constant Jacobian J = +-A the orbit average collapses and each
    exponent is half the log of an eigenvalue of A @ A.T.
    """
    if params.beta not in (0.0, 1.0):
        raise ValueError(
            "analytic spectrum requires beta in {0, 1}; "
            f"got beta={params.beta} (use le_qr for intermediate asymmetry)"
        )
    a_mat = params.matrix()
    eig = np.linalg.eigvalsh(a_mat @ a_mat.T)
    exps = np.sort(0.5 * np.log(eig))[::-1]
    return LeSpectrum(tuple(exps), method="analytic", sample_count=0)


def le_qr(traj: Trajectory) -> LeSpectrum:
    """Exact-Jacobian spectrum accumulated along a trajectory with QR steps.

    Handles both ideal and settling-limited trajectories (the Jacobian picks
    up the identity blend in the latter case). Steps whose fold argument
    lands exactly on a branch boundary keep the central-branch slope and are
    reported in meta["breakpoint_fraction"].
    """
    states = traj.states
    if len(traj) < QR_MIN_STEPS:
        raise ValueError("trajectory too short for spectrum estimation")
    p = traj.params
    weight = 1.0 if traj.settling is None else traj.settling.weight
    spread = np.max(np.abs(states - states[0]), axis=0).max()
    if spread == 0.0:
        # Pinned orbit: meaningful only if the point actually attracts
        # (e.g. strongly damped settling); otherwise it is a measure-zero
        # artifact such as starting exactly at the unstable origin.
        jac = jacobian_at(states[0], p)
        if weight != 1.0:
            jac = (1.0 - weight) * np.eye(3) + weight * jac
        if np.max(np.abs(np.linalg.eigvals(jac))) >= 1.0:
            raise DegenerateTrajectoryError(
                "trajectory is pinned at a non-attracting fixed point; "
                "no expansion data"
            )
    sums, used, breakpoints = _kernels.qr_log_sums(
        states, p.a, p.b, p.c, p.beta, weight
    )
    if used < len(traj):
        raise DegenerateTrajectoryError(
            "tangent vectors collapsed during QR accumulation"
        )
    exps = np.sort(np.asarray(sums) / used)[::-1]
    return LeSpectrum(
        tuple(exps),
        method="qr",
        sample_count=used,
        meta={"breakpoint_fraction": breakpoints / used},
    )


def _require_count(value, name: str) -> int:
    """Return ``value`` as an int, raising ValueError unless it is an integer >= 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _require_finite(states: np.ndarray) -> None:
    """Raise ValueError naming the first row that holds a NaN or inf."""
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"series row {row} is not finite: {states[row].tolist()}")


def _as_series(series) -> np.ndarray:
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"series must have shape (n, 3), got {arr.shape}")
    _require_finite(arr)
    return arr


def _neighborhoods(states: np.ndarray, n_reference: int, n_neighbors: int):
    """Yield (dx, dy, sum of dy**2) for reference points 0 .. n_reference - 1.

    dx holds the displacements of a point's first ``n_neighbors`` neighbors
    other than the point itself and its successor, dy those of their
    successors from the point's successor. The neighbors come from one tree
    over all points but the last, queried and prepared ``ER_WINDOW_ROWS``
    reference points at a time.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(states[:-1])
    for lo in range(0, n_reference, ER_WINDOW_ROWS):
        hi = min(lo + ER_WINDOW_ROWS, n_reference)
        # +2 candidates so the point itself and its successor can be dropped.
        # A row drops at most those two, so each keeps its first n_neighbors
        # survivors.
        _, neighbors = tree.query(states[lo:hi], k=n_neighbors + 2)
        rows = np.arange(lo, hi)[:, None]
        survivor = (neighbors != rows) & (neighbors != rows + 1)
        first = survivor & (np.cumsum(survivor, axis=1) <= n_neighbors)
        keep = neighbors[first].reshape(-1, n_neighbors)
        all_dx = states[keep] - states[rows]
        all_dy = states[keep + 1] - states[rows + 1]
        yield from zip(all_dx, all_dy, np.sum(all_dy**2, axis=(1, 2)))


def le_eckmann_ruelle(
    series,
    n_reference: int = 2000,
    n_neighbors: int | None = None,
    min_points: int = NEIGHBOR_MIN_POINTS,
) -> LeSpectrum:
    """Data-driven spectrum from locally fitted linear maps.

    For each of ``n_reference`` consecutive fiducial points a linear map is
    fitted by least squares from neighbor displacements at step n to step
    n+1, then the fitted Jacobians are QR-accumulated exactly like le_qr.
    The default neighborhood is 2% of the series clamped to [20, 40]
    points; larger neighborhoods span a sizable part of the attractor and
    wash the local Jacobian out. The fraction of displacement variance
    explained by the fits is reported as meta["fit_quality"], and
    meta["low_confidence"] is set when the local dynamics do not look
    deterministic (e.g. white noise input).
    """
    states = _as_series(series)
    n = states.shape[0]
    if n < min_points:
        raise ValueError(f"need at least {min_points} points, got {n}")
    if n_neighbors is None:
        n_neighbors = max(20, min(40, int(0.02 * n)))
    # the tree holds n - 1 points and each query drops two of its k results
    n_neighbors = min(n_neighbors, n - 3)
    n_reference = min(_require_count(n_reference, "n_reference"), n - 1)
    if n_reference < 500:
        warnings.warn(
            f"only {n_reference} reference points available; estimates may be noisy",
            RuntimeWarning,
        )

    if n_neighbors < 4:
        # a local fit needs at least four neighbors, so no row could be used
        raise DegenerateTrajectoryError("no usable reference points for local fits")
    q = np.eye(3)
    sums = np.zeros(3)
    used = 0
    resid_power = 0.0
    target_power = 0.0
    # one least-squares fit and one QR step per point, in order: the tests pin
    # these LAPACK results bit for bit
    for dx, dy, target in _neighborhoods(states, n_reference, n_neighbors):
        jac, _, rank, _ = np.linalg.lstsq(dx, dy, rcond=None)
        if rank < 3:
            continue
        pred = dx @ jac
        resid_power += np.sum((dy - pred) ** 2)
        target_power += target
        q, r = np.linalg.qr(jac.T @ q)
        diag = r.diagonal()
        if np.any(diag == 0.0):
            continue
        q = q * np.sign(diag)
        sums += np.log(np.abs(diag))
        used += 1
    if used == 0:
        raise DegenerateTrajectoryError("no usable reference points for local fits")
    coverage = used / n_reference
    if coverage < 1.0:
        warnings.warn(
            f"local fits succeeded at {coverage:.1%} of reference points",
            RuntimeWarning,
        )
    fit_quality = 1.0 - resid_power / target_power if target_power > 0 else 0.0
    exps = np.sort(sums / used)[::-1]
    return LeSpectrum(
        tuple(exps),
        method="eckmann-ruelle",
        sample_count=used,
        meta={
            "n_neighbors": n_neighbors,
            "coverage": coverage,
            "fit_quality": fit_quality,
            "low_confidence": bool(fit_quality < 0.3),
        },
    )


def le_wolf(
    series,
    max_separation: float = 0.1,
    min_separation: float = 1e-6,
    theiler: int = 10,
    n_candidates: int = 50,
    min_points: int = NEIGHBOR_MIN_POINTS,
) -> LeSpectrum:
    """Dominant exponent by direct neighbor tracking (Wolf-style).

    Follows the recorded future of the nearest neighbor of the fiducial
    point until their separation exceeds ``max_separation``, accumulates the
    log growth, then replaces the neighbor with the candidate best aligned
    with the current displacement direction (separation kept above
    ``min_separation``). Euclidean metric in the native (x, y, z) space.

    Raises ValueError unless ``n_candidates`` is an integer >= 1,
    ``theiler >= 0``, ``max_separation`` is finite and positive and
    ``0 <= min_separation < max_separation``.
    """
    from scipy.spatial import cKDTree

    n_candidates = _require_count(n_candidates, "n_candidates")
    if not theiler >= 0:
        raise ValueError(f"theiler must be >= 0, got {theiler}")
    if not (math.isfinite(max_separation) and max_separation > 0):
        raise ValueError(f"max_separation must be finite and positive, got {max_separation}")
    if not 0 <= min_separation < max_separation:
        raise ValueError(
            f"min_separation must lie in [0, max_separation), got {min_separation} "
            f"with max_separation {max_separation}"
        )
    states = _as_series(series)
    n = states.shape[0]
    if n < min_points:
        raise ValueError(f"need at least {min_points} points, got {n}")

    def admissible(i, dists, idx):
        # |idx - i| > theiler as two comparisons: boolean temporaries only
        outside = (idx > i + theiler) | (idx < i - theiler)
        return (idx < n - 1) & outside & (dists >= min_separation)

    tree = cKDTree(states)
    bound = np.nextafter(max_separation, np.inf)

    def query_window(lo):
        # One batched query for rows lo .. lo + WOLF_WINDOW_ROWS - 1, bounded
        # one ulp above max_separation because scipy's bound is strict: row r
        # holds the candidates for fiducial point lo + r within max_separation
        # in ascending distance, padded with distance inf and index n. It asks
        # for one candidate more than it keeps, to see ties.
        hi = min(lo + WOLF_WINDOW_ROWS, n)
        dists, idx = tree.query(states[lo:hi], k=n_candidates + 1, distance_upper_bound=bound)
        # The search orders equal distances as it meets them, and the bounded
        # search meets them in another order than the unbounded one. Rows with
        # a tie inside the bound take the unbounded order, as rows past it do.
        tied = np.any((dists[:, 1:] == dists[:, :-1]) & np.isfinite(dists[:, 1:]), axis=1)
        dists = dists[:, :-1]
        idx = idx[:, :-1]
        near = admissible(np.arange(lo, hi)[:, None], dists, idx) & (dists <= max_separation)
        return lo, hi, dists, idx, tied, near

    # the fiducial index only grows, so one window of rows is kept at a time
    window = query_window(0)

    def separation(i, j):
        # np.linalg.norm of a 1-d array is sqrt(v.dot(v)); same value, less overhead
        v = states[j] - states[i]
        return math.sqrt(v.dot(v))

    def replacement(i, direction):
        nonlocal window
        if i >= window[1]:
            window = query_window(i)
        lo, _, dists, idx, tied, near = window
        r = i - lo
        d, j, keep = dists[r], idx[r], near[r]
        if tied[r] or not keep.any():
            # one unbounded query for this point: a tied row needs its order,
            # and the fallback (the nearest admissible neighbor regardless of
            # angle) may lie past the bound
            d, j = map(np.atleast_1d, tree.query(states[i], k=n_candidates))
            ok = admissible(i, d, j)
            keep = ok & (d <= max_separation)
            if not keep.any():
                first = np.flatnonzero(ok)
                return int(j[first[0]]) if first.size else -1
        d = d[keep]
        j = j[keep]
        norm_dir = math.sqrt(direction.dot(direction))
        if norm_dir > 0:
            cosang = ((states[j] - states[i]) @ direction) / (d * norm_dir)
            score = d * (1.0 + 2.0 * np.arccos(cosang.clip(-1.0, 1.0)))
        else:
            score = d
        return int(j[score.argmin()])

    i = 0
    j = replacement(0, np.zeros(3))
    if j < 0:
        raise DegenerateTrajectoryError("no admissible neighbor found")
    log_sum = 0.0
    steps = 0
    replacements = 0
    dist = separation(i, j)
    while i + 1 < n and j + 1 < n:
        i += 1
        j += 1
        steps += 1
        new_dist = separation(i, j)
        if new_dist > max_separation or j + 1 >= n or new_dist == 0.0:
            if new_dist > 0.0 and dist > 0.0:
                log_sum += np.log(new_dist / dist)
            direction = states[j] - states[i]
            j = replacement(i, direction)
            replacements += 1
            if j < 0:
                break
            dist = separation(i, j)
    if steps == 0:
        raise DegenerateTrajectoryError("could not follow any neighbor trajectory")
    # close the last open segment
    if j >= 0 and dist > 0.0:
        tail = separation(i, j)
        if tail > 0.0:
            log_sum += np.log(tail / dist)
    exponent = log_sum / steps
    return LeSpectrum(
        (exponent,),
        method="wolf",
        sample_count=steps,
        meta={"replacements": replacements},
    )


def _pair_counts(states: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Ordered pairs of distinct points closer than each ascending radius.

    The last radius is inclusive (d <= r). One dual KD-tree pass in scipy's
    non-cumulative mode, which is tuned for many radii, counts the pairs in
    each shell between consecutive radii (the first shell from 0); their
    cumulative sum is the count within each radius. The tree counts d <= r,
    so the inner radii step down one ulp, and every point pairs with itself
    once at distance 0.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(states)
    bounds = np.append(np.nextafter(radii[:-1], -np.inf), radii[-1])
    shells = tree.count_neighbors(tree, bounds, cumulative=False)
    return np.cumsum(shells) - states.shape[0]


def correlation_dimension(
    series,
    radii=None,
    max_points: int = 8000,
) -> DimensionFit:
    """Correlation-sum slope (Grassberger-Procaccia) with auto scaling region.

    Computes C(r) over log-spaced radii, then fits the slope on the longest
    log-log window of at least ``CD_MIN_WINDOW`` radii whose linear fit
    reaches ``CD_MIN_R_SQUARED``. The error bar is the standard error of the
    fitted slope. The default ``CD_RADII`` radii run from 0.08 to 0.55
    standard deviations: the lower cutoff keeps enough pairs per radius for
    stable counts, the upper one stays well below the attractor extent
    where the sum saturates. Points beyond ``max_points``
    are thinned deterministically (every k-th sample). The pair counts come
    from one dual KD-tree pass that counts the pairs between consecutive
    radii and sums them up, so the cap no longer bounds a quadratic cost; it
    stays so that the results do not change.

    Raises NoScalingRegionError when no window is linear enough, and
    ValueError on a non-finite series, a non-finite or non-positive radius,
    or a ``max_points`` that is not an integer >= 1.
    """
    max_points = _require_count(max_points, "max_points")
    states = np.asarray(series, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    n = states.shape[0]
    if n < 100:
        raise ValueError(f"need at least 100 points, got {n}")
    _require_finite(states)
    if n > max_points:
        stride = int(np.ceil(n / max_points))
        states = states[::stride]
        n = states.shape[0]

    if radii is None:
        scale = np.std(states)
        if scale == 0:
            raise ValueError("series has no spread: every point is the same")
        radii = np.geomspace(0.08 * scale, 0.55 * scale, CD_RADII)
    else:
        radii = np.sort(np.asarray(radii, dtype=float))
        if radii.size < CD_MIN_WINDOW:
            raise ValueError("need at least as many radii as the fit window")
        if not np.all(np.isfinite(radii)) or radii[0] <= 0:
            raise ValueError("radii must be finite and positive")

    csums = _pair_counts(states, radii) / (n * (n - 1))

    valid = csums > 0
    log_r = np.log(radii[valid])
    log_c = np.log(csums[valid])
    m = log_r.size
    best = None
    for width in range(m, CD_MIN_WINDOW - 1, -1):
        for lo in range(0, m - width + 1):
            x = log_r[lo : lo + width]
            y = log_c[lo : lo + width]
            slope, intercept = np.polyfit(x, y, 1)
            pred = slope * x + intercept
            ss_res = np.sum((y - pred) ** 2)
            ss_tot = np.sum((y - y.mean()) ** 2)
            r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
            if r2 >= CD_MIN_R_SQUARED:
                stderr = np.sqrt(
                    ss_res / (width - 2) / np.sum((x - x.mean()) ** 2)
                ) if width > 2 else np.inf
                best = (slope, stderr, (lo, lo + width), r2)
                break
        if best is not None:
            break
    if best is None:
        raise NoScalingRegionError(
            f"no radius window of >= {CD_MIN_WINDOW} points reached "
            f"R^2 >= {CD_MIN_R_SQUARED}"
        )
    slope, stderr, window, r2 = best
    return DimensionFit(
        dimension=float(slope),
        error=float(stderr),
        radii=radii,
        correlation_sums=csums,
        fit_window=window,
        r_squared=float(r2),
    )


def _require_clock(f_clk) -> None:
    if not (math.isfinite(f_clk) and f_clk > 0):
        raise ValueError(f"f_clk must be finite and positive, got {f_clk}")


def welch_psd(
    series,
    segment_length: int = 1024,
    overlap: float = 0.5,
    fs: float = 1.0,
) -> PsdEstimate:
    """Averaged periodogram over overlapping Hann-windowed segments (Welch).

    The series is cut into segments of L = ``segment_length`` samples whose
    starts are ``L - noverlap`` apart, with ``noverlap = round(L * overlap)``;
    a tail shorter than a segment is left out. Each segment has its mean
    removed and is multiplied by the periodic Hann window
    ``0.5 - 0.5 cos(2 pi k / L)``. The |rfft|^2 of the segments is averaged,
    divided by ``fs * sum(window**2)`` and doubled in every bin but DC (and
    Nyquist when L is even): density scaling, so the integral over
    [0, fs/2] approximates the series variance.

    Raises ValueError, before any arithmetic, when ``segment_length`` is not
    an integer >= 1, when ``noverlap`` falls outside [0, L) (a NaN or
    negative overlap, or one that rounds up to the whole segment), when
    ``fs`` is not finite and positive, or when the series is not 1-D, is
    shorter than one segment or holds a NaN or inf (the message names the
    first such sample).
    """
    seg = _require_count(segment_length, "segment_length")
    noverlap = seg * float(overlap)
    if math.isfinite(noverlap):
        noverlap = int(round(noverlap))
    if not 0 <= noverlap < seg:
        raise ValueError(
            f"overlap {overlap} gives {noverlap} overlapping samples, "
            f"outside [0, {seg})"
        )
    fs = float(fs)
    if not (math.isfinite(fs) and fs > 0):
        raise ValueError(f"fs must be finite and positive, got {fs}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("welch_psd expects a scalar series")
    if x.size < seg:
        raise ValueError(f"series length {x.size} shorter than segment length {seg}")
    _require_finite(x[:, None])

    starts = np.arange(0, x.size - seg + 1, seg - noverlap)
    segments = sliding_window_view(x, seg)[starts]
    segments -= segments.mean(axis=1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(seg) / seg)
    if seg == 1:
        window[0] = 1.0  # scipy's one-point Hann window, so the scale is not 0
    segments *= window
    spectra = np.fft.rfft(segments, axis=1)
    power = np.mean(spectra.real**2 + spectra.imag**2, axis=0)
    power /= fs * np.sum(window**2)
    power[1 : (seg + 1) // 2] *= 2
    return PsdEstimate(
        frequencies=np.fft.rfftfreq(seg, 1 / fs),
        power=power,
        segment_length=seg,
        overlap=overlap,
    )


def zoh_magnitude(f, f_clk: float):
    """Magnitude response |sin(pi f/f_clk) / (pi f/f_clk)| of a zero-order hold.

    Equals 1 at f = 0 (the sinc limit) and 0 at every integer multiple of
    the clock frequency. Raises ValueError on a non-finite or non-positive
    ``f_clk`` and on negative frequencies.
    """
    _require_clock(f_clk)
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("frequencies must be non-negative")
    out = np.abs(np.sinc(f / f_clk))
    return out if out.ndim else float(out)


def hold_upsample(series, factor: int) -> np.ndarray:
    """Zero-order-hold upsampling: repeat every sample ``factor`` times.

    Raises ValueError unless ``factor`` is an integer >= 1.
    """
    factor = _require_count(factor, "factor")
    return np.repeat(np.asarray(series, dtype=float), factor)


def compensate_zoh(psd: PsdEstimate, f_clk: float) -> PsdEstimate:
    """Divide a PSD by the squared hold response, away from its nulls.

    Bins whose frequency falls within ``ZOH_GUARD_FRACTION * f_clk`` of a
    hold null (any positive integer multiple of f_clk) are dropped rather
    than amplified. Raises ValueError on a non-finite or non-positive
    ``f_clk`` and when no bins survive.
    """
    _require_clock(f_clk)
    f = psd.frequencies
    nearest_null = np.round(f / f_clk) * f_clk
    null_distance = np.abs(f - nearest_null)
    # frequencies below f_clk/2 have "nearest null" zero, which is not a null
    null_distance[nearest_null == 0.0] = np.inf
    keep = null_distance > ZOH_GUARD_FRACTION * f_clk
    if not np.any(keep):
        raise ValueError("all frequency bins fall inside the null guard band")
    gain = zoh_magnitude(f[keep], f_clk) ** 2
    return PsdEstimate(
        frequencies=f[keep],
        power=psd.power[keep] / gain,
        segment_length=psd.segment_length,
        overlap=psd.overlap,
    )


def le_vs_settling(
    params: SystemParams,
    t_n_values,
    n: int = 100_000,
    seed: int = 0,
    transient: int = 2000,
):
    """QR spectra of the settling-limited dynamics over a hold-time grid.

    Returns a list of (t_n, LeSpectrum) sorted like the input grid. Each
    grid point simulates its own trajectory from the same seed.
    """
    results = []
    for t_n in t_n_values:
        if t_n <= 0:
            raise ValueError(f"t_n values must be positive, got {t_n}")
        traj = generate_trajectory(
            n,
            params=params,
            seed=seed,
            settling=SettlingConfig(t_n=float(t_n)),
            transient=transient,
        )
        results.append((float(t_n), le_qr(traj)))
    return results
