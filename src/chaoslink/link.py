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
from .sync import receiver_output, stability_check

# preamble: unmasked settle steps, then one known '1' symbol for polarity
SETTLE_STEPS = 200
PILOT_BITS = 1

# samples per stacked receive of a frame batch: the lockstep's fixed step
# count is shared by the batch, and per sample the receive of w_r cost
# 296-563 ns for one 20 201-sample frame, 151-189 ns for three and 97-108 ns
# for twelve (2.4e5 samples); 24 and 48 frames read 77-99 and 67-88 ns, a
# smaller step for two and four times the samples held
RECEIVE_BATCH_SAMPLES = 1 << 18

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

    ``amplitude`` is the dimensionless signal level. One state unit spans
    2 V on the reference hardware, so 0.1 is the 200 mV drive.
    ``samples_per_bit`` is the number of clock periods each symbol occupies
    and ``f_clk`` the clock in Hz, which the simulation carries as metadata;
    the bit rate follows from the two (0.5 MHz / 50 = 10 kbps).
    """

    amplitude: float = 0.1
    samples_per_bit: int = 50
    f_clk: float = 0.5e6

    def __post_init__(self):
        for name in ("amplitude", "f_clk"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.samples_per_bit < 1:
            raise ValueError(
                f"samples_per_bit must be >= 1, got {self.samples_per_bit}"
            )

    @property
    def bit_rate(self) -> float:
        """Symbols per second: one every ``samples_per_bit`` clock periods."""
        return self.f_clk / self.samples_per_bit


@dataclass(frozen=True)
class MaskedSeries:
    """Transmitted masked scalar plus the metadata needed to demodulate it.

    These are exactly the fields of a masked-series file: only w* leaves
    the transmitter, and the receiver rebuilds everything else from it and
    the link's settings.
    """

    w_star: np.ndarray
    config: ModulationConfig
    params: SystemParams
    seed: int
    settle_steps: int = SETTLE_STEPS
    pilot_bits: int = PILOT_BITS

    def __post_init__(self):
        object.__setattr__(self, "w_star", np.asarray(self.w_star, dtype=float))

    @property
    def preamble_samples(self) -> int:
        return self.settle_steps + self.pilot_bits * self.config.samples_per_bit


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
    is what makes exact unmasking possible. The emitted series is the
    run's unmixed output ``gamma*x + z`` plus the NRZ waveform, sample by
    sample.

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
    # settle_steps zeros, then the NRZ waveform of the known '1' pilot and the
    # data, in one expression so that no array but info outlives it
    symbols = np.concatenate([np.ones(PILOT_BITS, dtype=np.uint8), bits])
    info = np.concatenate(
        [np.zeros(settle_steps), nrz_waveform(symbols, cfg.amplitude, cfg.samples_per_bit)]
    )
    x, y, z = generate_trajectory(1, params=params, seed=seed).states[0]
    coefficients = (params.a, params.b, params.c, params.beta, params.gamma)
    w_star = np.empty(info.size)
    for lo in range(0, info.size, _kernels.CHUNK):
        hi = lo + _kernels.CHUNK
        w_star[lo:hi], x, y, z = _kernels.masked_transmit_chain(
            info[lo:hi].tolist(), x, y, z, *coefficients
        )
    w_star += info
    return MaskedSeries(
        w_star=w_star,
        config=cfg,
        params=params,
        seed=seed,
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
    seed: int,
    noise_sigma: float = 0.0,
    recv_params: SystemParams | None = None,
) -> np.ndarray:
    """Send a masked series through the AWGN channel and recover its data samples.

    ``seed`` is the link's master seed, split by ``spawn_seeds(seed, 3)``:
    sub-seed 0 is the transmitter's, sub-seed 1 draws the channel noise of
    standard deviation ``noise_sigma`` and sub-seed 2 the receiver's start
    state. The receiver (``recv_params``, by default the series' own) is
    driven by the received scalar, regenerates its own unmasked output
    ``w_r = gamma*x_r + z_r``, and the per-sample recovery is
    ``received - w_r``, which equals +i under additive masking once
    synchronized. The mean over the known '1' pilot symbols fixes any
    residual polarity mismatch at run time (skipped when the pilot level is
    too small to trust, e.g. amplitude 0). Preamble samples are stripped;
    the returned array covers exactly the data symbols.
    """
    (recovered,) = _receive_batch([(masked, seed)], noise_sigma, recv_params)
    return recovered


def _receive_batch(sent, noise_sigma: float, recv_params: SystemParams | None) -> list:
    """unmask_receive on each ``(masked series, master seed)`` of ``sent``.

    Each series goes through the channel on its own and is dropped there,
    so the batch holds only the received series and the receiver output.
    The received series, which must have equal lengths, then go through one
    stacked ``receiver_output`` call whose lockstep steps them together with
    the map ``recv_params`` (None: the series' own, which they share).
    Returns the recovered data samples of each series, in order.
    """

    def channel(masked, seed):
        _, ch_seed, rx_seed = spawn_seeds(seed, 3)
        received = channel_awgn(masked.w_star, noise_sigma, seed=ch_seed)
        layout = (masked.config.amplitude, masked.settle_steps, masked.preamble_samples)
        return received, random_initial_state(rx_seed), masked.params, layout

    received, inits, maps, layouts = zip(*(channel(*frame) for frame in sent))
    if recv_params is None:
        recv_params = maps[0]
    w_rx = np.stack(received)
    del received
    w_r = receiver_output(w_rx, np.stack(inits), recv_params)
    recovered = np.subtract(w_rx, w_r, out=w_rx)  # received - w_r
    del w_rx, w_r
    data = []
    for samples, (amplitude, settle_steps, preamble) in zip(recovered, layouts):
        sign = 1.0
        if preamble > settle_steps:
            pilot_mean = samples[settle_steps:preamble].mean()
            if abs(pilot_mean) > 0.25 * amplitude:
                sign = float(np.sign(pilot_mean))
        data.append(sign * samples[preamble:])
    return data


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

    The predicted error rate's stationary points solve
    ``p0*N(lam; mu0, sigma0) = p1*N(lam; mu1, sigma1)``. With
    ``t = lam - mu0`` and ``d = mu1 - mu0`` that is ``A*t**2 + B*t + C = 0``:

        A = 1/sigma1**2 - 1/sigma0**2
        B = -2*d/sigma1**2
        C = d**2/sigma1**2 + 2*ln(p0*sigma1 / (p1*sigma0))

    which is linear when the spreads are equal. The threshold is whichever
    of mu0, mu1 and the real roots inside (mu0, mu1) predicts the fewest
    errors: the exact minimum on [mu0, mu1]. A prior of 0 leaves only the
    two endpoints. Requires ordered classes (mu0 < mu1).
    """
    if not s.mu0 < s.mu1:
        raise ValueError(f"classes must be ordered: mu0={s.mu0} >= mu1={s.mu1}")
    d = s.mu1 - s.mu0
    candidates = [s.mu0, s.mu1]
    if s.p0 > 0 and s.p1 > 0:
        a = 1.0 / s.sigma1**2 - 1.0 / s.sigma0**2
        b = -2.0 * d / s.sigma1**2
        c = d * d / s.sigma1**2 + 2.0 * math.log(s.p0 * s.sigma1 / (s.p1 * s.sigma0))
        disc = b * b - 4.0 * a * c
        if disc >= 0:
            # b < 0, so q = -(b - sqrt(disc))/2 > 0 has no cancellation;
            # the roots are c/q and q/a (c/q alone, -c/b, when a = 0)
            q = 0.5 * (math.sqrt(disc) - b)
            roots = [c / q, q / a] if a else [c / q]
            candidates += [s.mu0 + t for t in roots if 0 < t < d]
    errors = ber_predict(s, candidates)
    k = int(np.argmin(errors))
    return float(candidates[k]), float(errors[k])


def ber_measure(sent, recovered) -> BerResult:
    """Error fraction with a Clopper-Pearson 95% confidence interval.

    The limits are the 2.5% and 97.5% quantiles of Beta(e, n - e + 1) and
    Beta(e + 1, n - e) for e errors in n bits, taken with the inverse
    regularized incomplete beta function. Zero-error runs report interval
    (0, upper) where the upper bound is the exact one-sided 97.5% binomial
    limit (about 3.7/n).
    """
    from scipy import special

    sent = np.asarray(sent).astype(np.uint8)
    recovered = np.asarray(recovered).astype(np.uint8)
    if sent.shape != recovered.shape:
        raise ValueError(
            f"length mismatch: sent {sent.shape} vs recovered {recovered.shape}"
        )
    n = sent.size
    errors = int(np.count_nonzero(sent != recovered))
    point = errors / n
    lo = 0.0 if errors == 0 else float(special.betaincinv(errors, n - errors + 1, 0.025))
    hi = 1.0 if errors == n else float(special.betaincinv(errors + 1, n - errors, 0.975))
    return BerResult(
        measured_ber=point,
        bits=n,
        errors=errors,
        confidence_interval=(lo, hi),
    )


def _transmit_receive_frames(
    params: SystemParams,
    frames,
    noise_sigma: float,
    recv_params: SystemParams | None = None,
    max_workers: int = 1,
):
    """Mask, send through AWGN and unmask each ``(bits, cfg, seed)`` frame.

    ``seed`` is the frame's master seed; its sub-seed 0 drives the
    transmitter and the receive splits it as unmask_receive does. The
    receiver runs the map ``recv_params``, by default ``params``; another
    map models component tolerances or a wrong key. Each frame is masked on
    its own, on up to ``max_workers`` threads. The frames, which must have
    equal lengths, are received in batches of at most
    RECEIVE_BATCH_SAMPLES samples (at least one frame), each by one
    _receive_batch call. Yields ``(frame, recovered data samples)`` in
    frame order, one batch at a time, so a caller that drops each as it
    comes holds one batch.
    """
    def send(frame):
        bits, cfg, seed = frame
        return mask_transmit(params, bits, cfg, seed=spawn_seeds(seed, 3)[0]), seed

    def link_pass(batch, run):
        return zip(batch, _receive_batch(run(send, batch), noise_sigma, recv_params))

    if not frames:
        return
    bits, cfg, _ = frames[0]
    samples = SETTLE_STEPS + (PILOT_BITS + len(bits)) * cfg.samples_per_bit
    per_batch = max(1, RECEIVE_BATCH_SAMPLES // samples)
    batches = [frames[lo : lo + per_batch] for lo in range(0, len(frames), per_batch)]
    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            for batch in batches:
                yield from link_pass(batch, pool.map)
    else:
        for batch in batches:
            yield from link_pass(batch, map)


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
    recv_params: SystemParams | None = None,
    filtered: bool = True,
):
    """Full transmit/channel/receive chain returning decisions and statistics.

    The chain, its split of ``seed`` and its receiver map ``recv_params``
    (None: the transmitter's ``params``) are those of
    _transmit_receive_frames, on one frame. With
    ``filtered`` False every recovered sample is its own statistic and the
    labels are repeated per sample; this models a receiver without the
    matched filter.

    Returns (symbol_stats, fitted SymbolStats, threshold, decisions).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    ((_, recovered),) = _transmit_receive_frames(
        params, [(bits, cfg, seed)], noise_sigma, recv_params
    )
    return _decide(bits, recovered, cfg, filtered)


def _decide(bits, recovered, cfg: ModulationConfig, filtered: bool = True):
    """run_link's decision step on one frame's recovered data samples.

    Integrate-and-dump (unless ``filtered`` is False), the labelled
    two-class fit, its optimal threshold and the decisions; returns
    (symbol_stats, fitted SymbolStats, threshold, decisions).
    """
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
    recv_params: SystemParams | None = None,
    max_workers: int = 1,
):
    """Measure and predict BER across transmit amplitudes.

    Each amplitude is one frame with its own spawned sub-seed and a fresh
    PRBS payload: point k equals ``run_link`` on sub-seed k with that
    payload. The frames go through one link pass whose receiver steps them
    together, in batches of up to RECEIVE_BATCH_SAMPLES samples (see
    _transmit_receive_frames), and ``recv_params`` is its receiver map.
    ``max_workers`` > 1 transmits them on that many threads. Results come
    back in amplitude order. Amplitudes must be positive and ascending.
    """
    amplitudes = [float(a) for a in amplitudes]
    finite_positive = all(math.isfinite(a) and a > 0 for a in amplitudes)
    if not finite_positive or amplitudes != sorted(amplitudes):
        raise ValueError("amplitudes must be finite, positive and ascending")
    frames = [
        (prbs(n_bits, seed=prbs_seed(sub)), replace(cfg, amplitude=amp), sub)
        for amp, sub in zip(amplitudes, spawn_seeds(seed, len(amplitudes)))
    ]
    results = []
    # each point is decided as it arrives and its samples dropped before
    # the next batch is received, so one batch is held at a time
    for (bits, point_cfg, _), samples in _transmit_receive_frames(
        params, frames, noise_sigma, recv_params, max_workers
    ):
        _, fitted, threshold, decisions = _decide(bits, samples, point_cfg)
        del samples
        results.append(
            replace(
                ber_measure(bits, decisions),
                threshold=threshold,
                predicted_ber=float(ber_predict(fitted, threshold)),
                amplitude=point_cfg.amplitude,
            )
        )
    return results
