"""Chaotic-masking digital link: NRZ masking, unmasking, matched filter, BER.

The transmitter runs the free map, adds the NRZ information waveform to its
third state variable, and sends ``w* = (z + i) + gamma*x``. Because the data
rides inside the synchronization signal it perturbs the receiver like channel
noise; the integrate-and-dump filter averages each symbol's samples before
thresholding, which recovers most of the signal-to-noise cost.

scipy subpackages are imported inside the functions that call them, so
importing the package (and starting the CLI) loads none of them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .core_map import generate_trajectory, random_initial_state, spawn_seeds
from .params import SystemParams
from .sync import receiver_run, stability_check

# preamble: unmasked settle steps, then one known '1' symbol for polarity
SETTLE_STEPS = 200
PILOT_BITS = 1

# grid points of optimal_threshold's dense scan over [mu0, mu1]
THRESHOLD_SCAN_POINTS = 2001

# primitive feedback taps per register degree (x^d + x^t + ... + 1)
LFSR_TAPS = {
    3: (3, 2),
    7: (7, 6),
    11: (11, 9),
    15: (15, 14),
    23: (23, 18),
}


class UnstableCouplingError(ValueError):
    """The configured coupling cannot synchronize, so masking would not recover."""


@dataclass(frozen=True)
class ModulationConfig:
    """NRZ modulation parameters.

    ``amplitude`` is the dimensionless signal level (0.1 corresponds to the
    200 mV hardware drive), ``samples_per_bit`` the number of clock periods
    each symbol occupies; clock and bit rate are carried as metadata.
    """

    amplitude: float = 0.1
    samples_per_bit: int = 50
    f_clk: float = 0.5e6
    bit_rate: float = 1.0e4

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(
                f"amplitude must be finite and positive, got {self.amplitude}"
            )
        if self.samples_per_bit < 1:
            raise ValueError(
                f"samples_per_bit must be >= 1, got {self.samples_per_bit}"
            )


@dataclass(frozen=True)
class MaskedSeries:
    """Transmitted masked scalar plus the metadata needed to demodulate it.

    ``w_clean`` (when available) is the unmixed output of the same run, so
    ``w_star == w_clean + info`` holds bit-exactly; series read back from
    files carry only the transmitted ``w_star``.
    """

    w_star: np.ndarray
    config: ModulationConfig
    params: SystemParams
    seed: int
    true_bits: np.ndarray | None = None
    w_clean: np.ndarray | None = None
    settle_steps: int = SETTLE_STEPS
    pilot_bits: int = PILOT_BITS

    def __post_init__(self):
        w = np.asarray(self.w_star, dtype=float)
        object.__setattr__(self, "w_star", w)
        if self.true_bits is not None:
            bits = np.asarray(self.true_bits, dtype=np.uint8)
            expected = (
                self.settle_steps
                + (self.pilot_bits + bits.size) * self.config.samples_per_bit
            )
            if w.size != expected:
                raise ValueError(
                    f"series length {w.size} does not match "
                    f"{bits.size} bits plus preamble ({expected})"
                )
            object.__setattr__(self, "true_bits", bits)

    @property
    def preamble_samples(self) -> int:
        return self.settle_steps + self.pilot_bits * self.config.samples_per_bit

    @property
    def info(self) -> np.ndarray:
        """The injected NRZ waveform (zeros over the settle window)."""
        if self.true_bits is None:
            raise ValueError("information waveform unknown for received series")
        return _frame_info(
            self.true_bits, self.config, self.settle_steps, self.pilot_bits
        )


@dataclass(frozen=True)
class SymbolStats:
    """Per-symbol decision statistics with fitted two-class Gaussian model."""

    stats: np.ndarray
    labels: np.ndarray
    mu0: float
    sigma0: float
    mu1: float
    sigma1: float
    p0: float
    p1: float

    def __post_init__(self):
        if self.sigma0 <= 0 or self.sigma1 <= 0:
            raise ValueError("class standard deviations must be positive")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("class priors must sum to 1")


@dataclass(frozen=True)
class BerResult:
    """Measured (and optionally predicted) bit error rate with 95% CI."""

    measured_ber: float
    bits: int
    errors: int
    confidence_interval: tuple
    threshold: float | None = None
    predicted_ber: float | None = None
    amplitude: float | None = None

    def __post_init__(self):
        lo, hi = self.confidence_interval
        if not 0.0 <= lo <= self.measured_ber <= hi <= 1.0:
            raise ValueError("confidence interval must contain the point estimate")


def prbs(length: int, seed: int, degree: int = 23) -> np.ndarray:
    """Maximal-length LFSR bit sequence (uint8 array of 0/1).

    ``seed`` initializes the shift register and must be nonzero modulo
    2**degree (the all-zeros state locks up). Supported degrees carry a
    primitive feedback polynomial from LFSR_TAPS.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if degree not in LFSR_TAPS:
        raise ValueError(f"no primitive taps for degree {degree}")
    state = int(seed) % (1 << degree)
    if state == 0:
        raise ValueError("seed must be nonzero modulo 2**degree (LFSR lockup)")
    out = np.empty(length, dtype=np.uint8)
    _kernels.lfsr_bits(state, LFSR_TAPS[degree], degree, out)
    return out


def prbs_seed(seed: int) -> int:
    """Map any integer seed onto a nonzero degree-23 PRBS register state."""
    return (seed % ((1 << 23) - 1)) + 1


def nrz_waveform(bits, amplitude: float, samples_per_bit: int) -> np.ndarray:
    """NRZ encoding: bit 1 -> +amplitude, bit 0 -> -amplitude, held N samples."""
    bits = np.asarray(bits)
    levels = np.where(bits > 0, amplitude, -amplitude).astype(float)
    return np.repeat(levels, samples_per_bit)


def _frame_info(
    bits, cfg: ModulationConfig, settle_steps: int, pilot_bits: int
) -> np.ndarray:
    """Information waveform of one frame.

    ``settle_steps`` zeros, then the NRZ waveform of ``pilot_bits`` known
    '1' symbols followed by ``bits``.
    """
    pilot = np.ones(pilot_bits, dtype=np.uint8)
    return np.concatenate(
        [
            np.zeros(settle_steps),
            nrz_waveform(
                np.concatenate([pilot, bits]), cfg.amplitude, cfg.samples_per_bit
            ),
        ]
    )


def mask_transmit(
    params: SystemParams,
    bits,
    cfg: ModulationConfig,
    seed: int,
    settle_steps: int = SETTLE_STEPS,
) -> MaskedSeries:
    """Mask a bit stream onto the chaotic drive signal.

    The NRZ waveform is added to the transmitter's third state variable
    inside the loop: the mixed value ``z + i`` feeds the x and y updates and
    the scalar output. A matched receiver driven by the mixed output then
    reproduces the same dynamics regardless of the signal amplitude, which
    is what makes exact unmasking possible. The emitted series satisfies
    ``w_star == w_clean + info`` bit-exactly, where w_clean is this run's
    unmixed output.

    A preamble of ``settle_steps`` unmasked samples plus one known '1'
    pilot symbol precedes the data for receiver convergence and polarity
    resolution. Unstable coupling is rejected up front.
    """
    verdict = stability_check(params)
    if not verdict["stable"]:
        raise UnstableCouplingError(
            f"coupling cannot synchronize; margins {verdict['margins']}"
        )
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bits must be a non-empty 1-d sequence")
    info = _frame_info(bits, cfg, settle_steps, PILOT_BITS)
    x, y, z = generate_trajectory(1, params=params, seed=seed).states[0]
    # the kernel's pre-update x and z, chunk by chunk; they become the outputs
    w_clean = np.empty(info.size)
    w_star = np.empty(info.size)
    for lo in range(0, info.size, _kernels.CHUNK):
        hi = lo + _kernels.CHUNK
        xs, zs, x, y, z = _kernels.masked_transmit_chain(
            info[lo:hi].tolist(), x, y, z, params.a, params.b, params.c, params.beta
        )
        w_clean[lo:hi] = xs
        w_star[lo:hi] = zs
    # w_clean = gamma*x + z and w_star = w_clean + info, in place: per sample
    # the same two roundings, in the same order, as the scalar expressions
    w_clean *= params.gamma
    w_clean += w_star
    np.add(w_clean, info, out=w_star)
    return MaskedSeries(
        w_star=w_star,
        config=cfg,
        params=params,
        seed=seed,
        true_bits=bits,
        w_clean=w_clean,
        settle_steps=settle_steps,
        pilot_bits=PILOT_BITS,
    )


def channel_awgn(series, sigma: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise of standard deviation ``sigma`` per sample."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    series = np.asarray(series, dtype=float)
    if sigma == 0:
        return series.copy()
    rng = np.random.default_rng(seed)
    return series + rng.normal(0.0, sigma, size=series.shape)


def unmask_receive(
    masked: MaskedSeries,
    received=None,
    recv_params: SystemParams | None = None,
    seed: int = 1,
) -> np.ndarray:
    """Recover the information samples from a (possibly noisy) masked series.

    The receiver starts from ``random_initial_state(seed)``, is driven by
    the received scalar, regenerates its own unmasked output
    ``w_r = gamma*x_r + z_r``, and the per-sample recovery is
    ``received - w_r``, which equals +i under additive masking once
    synchronized. The mean over the known '1' pilot symbol fixes any
    residual polarity mismatch at run time (skipped when the pilot level is
    too small to trust, e.g. amplitude 0). Preamble samples are stripped;
    the returned array covers exactly the data symbols.
    """
    w_rx = np.asarray(
        masked.w_star if received is None else received, dtype=float
    )
    params = masked.params if recv_params is None else recv_params
    states = receiver_run(w_rx, random_initial_state(seed), params)
    w_r = params.gamma * states[:, 0] + states[:, 2]
    recovered = w_rx - w_r
    n = masked.config.samples_per_bit
    pilot_start = masked.settle_steps
    data_start = masked.preamble_samples
    sign = 1.0
    if masked.pilot_bits > 0:
        pilot_mean = recovered[pilot_start : pilot_start + n].mean()
        if abs(pilot_mean) > 0.25 * masked.config.amplitude:
            sign = float(np.sign(pilot_mean))
    return sign * recovered[data_start:]


def integrate_and_dump(samples, cfg: ModulationConfig) -> np.ndarray:
    """Mean of each N-sample symbol block (the matched filter for NRZ).

    A partial trailing block is dropped with a warning.
    """
    samples = np.asarray(samples, dtype=float)
    n = cfg.samples_per_bit
    n_symbols, rem = divmod(samples.size, n)
    if rem:
        warnings.warn(
            f"dropping {rem} trailing samples of a partial symbol", RuntimeWarning
        )
    if n_symbols == 0:
        raise ValueError("fewer samples than one symbol")
    return samples[: n_symbols * n].reshape(n_symbols, n).mean(axis=1)


def fit_symbol_gaussians(symbol_stats, labels) -> SymbolStats:
    """Per-class sample means/stds and empirical priors.

    Both symbol classes must be present; class '0' statistics come from
    labels == 0 and class '1' from labels == 1.
    """
    values = np.asarray(symbol_stats, dtype=float)
    labels = np.asarray(labels).astype(np.uint8)
    if values.shape != labels.shape:
        raise ValueError("statistics and labels must have equal length")
    zeros = values[labels == 0]
    ones = values[labels == 1]
    if zeros.size < 2 or ones.size < 2:
        raise ValueError("both symbol classes must be present (>= 2 samples each)")
    return SymbolStats(
        stats=values,
        labels=labels,
        mu0=float(zeros.mean()),
        sigma0=float(zeros.std(ddof=1)),
        mu1=float(ones.mean()),
        sigma1=float(ones.std(ddof=1)),
        p0=zeros.size / values.size,
        p1=ones.size / values.size,
    )


def ber_predict(s: SymbolStats, threshold) -> float:
    """Gaussian-model error probability at a decision threshold.

    p(1|0) and p(0|1) are complementary-error-function tails of the two
    fitted classes; the total is weighted by the empirical priors. Accepts a
    scalar or an array of thresholds.
    """
    from scipy import special

    lam = np.asarray(threshold, dtype=float)
    p10 = 0.5 * special.erfc((lam - s.mu0) / (s.sigma0 * np.sqrt(2.0)))
    p01 = 0.5 * special.erfc((s.mu1 - lam) / (s.sigma1 * np.sqrt(2.0)))
    out = p01 * s.p1 + p10 * s.p0
    return out if out.ndim else float(out)


def optimal_threshold(s: SymbolStats) -> tuple:
    """Threshold minimizing the predicted error rate, with its value.

    Dense scan over [mu0, mu1] followed by golden-section refinement around
    the best scan cell. Requires ordered classes (mu0 < mu1).
    """
    from scipy import optimize

    if not s.mu0 < s.mu1:
        raise ValueError(f"classes must be ordered: mu0={s.mu0} >= mu1={s.mu1}")
    grid = np.linspace(s.mu0, s.mu1, THRESHOLD_SCAN_POINTS)
    errors = ber_predict(s, grid)
    k = int(np.argmin(errors))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, THRESHOLD_SCAN_POINTS - 1)]
    result = optimize.minimize_scalar(
        lambda lam: ber_predict(s, lam),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": (s.mu1 - s.mu0) * 1e-9},
    )
    lam_opt = float(result.x)
    return lam_opt, float(ber_predict(s, lam_opt))


def ber_measure(sent, recovered) -> BerResult:
    """Error fraction with a Clopper-Pearson 95% confidence interval.

    Zero-error runs report interval (0, upper) where the upper bound is the
    exact one-sided 97.5% binomial limit (about 3.7/n).
    """
    from scipy import stats

    sent = np.asarray(sent).astype(np.uint8)
    recovered = np.asarray(recovered).astype(np.uint8)
    if sent.shape != recovered.shape:
        raise ValueError(
            f"length mismatch: sent {sent.shape} vs recovered {recovered.shape}"
        )
    n = sent.size
    errors = int(np.count_nonzero(sent != recovered))
    point = errors / n
    lo = 0.0 if errors == 0 else float(stats.beta.ppf(0.025, errors, n - errors + 1))
    hi = 1.0 if errors == n else float(stats.beta.ppf(0.975, errors + 1, n - errors))
    return BerResult(
        measured_ber=point,
        bits=n,
        errors=errors,
        confidence_interval=(lo, hi),
    )


def transmit_receive(
    params: SystemParams,
    bits,
    cfg: ModulationConfig,
    seed: int,
    noise_sigma: float = 0.0,
    mismatch: float = 0.0,
) -> np.ndarray:
    """Mask, send through AWGN, and unmask; return the recovered data samples.

    The master ``seed`` is split into transmitter, channel and receiver
    seeds. ``mismatch`` scales the receiver's a, b, c coefficients by
    (1 + mismatch) to emulate component tolerances.
    """
    tx_seed, ch_seed, rx_seed = spawn_seeds(seed, 3)
    masked = mask_transmit(params, bits, cfg, seed=tx_seed)
    received = channel_awgn(masked.w_star, noise_sigma, seed=ch_seed)
    recv_params = params
    if mismatch:
        scale = 1.0 + mismatch
        recv_params = params.replace(
            a=params.a * scale, b=params.b * scale, c=params.c * scale
        )
    return unmask_receive(
        masked, received=received, recv_params=recv_params, seed=rx_seed
    )


def decide_zero(recovered, cfg: ModulationConfig) -> np.ndarray:
    """Zero-threshold decisions on every whole symbol of recovered samples.

    The symmetric NRZ constellation puts the optimal threshold at 0 when the
    receiver has no labels to fit one.
    """
    recovered = np.asarray(recovered, dtype=float)
    whole = recovered.size // cfg.samples_per_bit * cfg.samples_per_bit
    return (integrate_and_dump(recovered[:whole], cfg) > 0.0).astype(np.uint8)


def run_link(
    params: SystemParams,
    bits,
    cfg: ModulationConfig,
    seed: int,
    noise_sigma: float = 0.0,
    mismatch: float = 0.0,
    filtered: bool = True,
):
    """Full transmit/channel/receive chain returning decisions and statistics.

    The chain and ``mismatch`` are those of ``transmit_receive``. With
    ``filtered`` False every recovered sample is its own statistic and the
    labels are repeated per sample; this models a receiver without the
    matched filter.

    Returns (symbol_stats, fitted SymbolStats, threshold, decisions).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    recovered = transmit_receive(params, bits, cfg, seed, noise_sigma, mismatch)
    if filtered:
        values = integrate_and_dump(recovered, cfg)
        labels = bits
    else:
        values = recovered
        labels = np.repeat(bits, cfg.samples_per_bit)
    fitted = fit_symbol_gaussians(values, labels)
    threshold, _ = optimal_threshold(fitted)
    decisions = (values > threshold).astype(np.uint8)
    return values, fitted, threshold, decisions


def ber_sweep(
    params: SystemParams,
    amplitudes,
    cfg: ModulationConfig,
    n_bits: int,
    seed: int,
    noise_sigma: float = 0.0,
    mismatch: float = 0.0,
    max_workers: int = 1,
):
    """Measure and predict BER across transmit amplitudes.

    Each amplitude runs an independent chain with its own spawned sub-seed
    and a fresh PRBS payload; results come back in amplitude order
    regardless of ``max_workers``. Amplitudes must be positive and
    ascending.
    """
    amplitudes = [float(a) for a in amplitudes]
    finite_positive = all(math.isfinite(a) and a > 0 for a in amplitudes)
    if not finite_positive or amplitudes != sorted(amplitudes):
        raise ValueError("amplitudes must be finite, positive and ascending")
    subs = spawn_seeds(seed, len(amplitudes))

    def evaluate(point):
        amp, sub = point
        bits = prbs(n_bits, seed=prbs_seed(sub))
        _, fitted, threshold, decisions = run_link(
            params,
            bits,
            replace(cfg, amplitude=amp),
            seed=sub,
            noise_sigma=noise_sigma,
            mismatch=mismatch,
        )
        return replace(
            ber_measure(bits, decisions),
            threshold=threshold,
            predicted_ber=float(ber_predict(fitted, threshold)),
            amplitude=amp,
        )

    points = list(zip(amplitudes, subs))
    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(evaluate, points))
    return [evaluate(p) for p in points]
