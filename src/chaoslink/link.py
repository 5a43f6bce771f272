"""Chaotic-masking digital link: NRZ masking, unmasking, matched filter, BER.

The transmitter runs the free map, adds the NRZ information waveform to its
third state variable, and sends ``w* = (z + i) + gamma*x``. Because the data
rides inside the synchronization signal it perturbs the receiver like channel
noise; the integrate-and-dump filter averages each symbol's samples before
thresholding, which recovers most of the signal-to-noise cost.

One transmitter loop and one receive engine serve every caller. A masked
series is a ``SeriesHeader`` (its settings and length) plus its samples.
``transmit`` returns the header and the series one kernel chunk at a time:
``mask_transmit`` collects the chunks into a ``MaskedSeries``, and
send-file writes each as it comes. The receive (``_receive_slices``) works
on owned slices of at most ``RECEIVE_BATCH_SAMPLES`` samples, several
equal short frames stacked or consecutive runs of one long series, each
starting from the exact receiver state the last one ended in
(``sync.recover_slice``); ``unmask_receive``, ``run_link`` and
``ber_sweep`` run it, and ``receive_bits``, which recv-file runs, decides
each slice's symbols as they come. So neither file command holds an array
of the whole series, and every result equals a whole-series receive bit
for bit.

scipy subpackages are imported inside the functions that call them, so
importing the package (and starting the CLI) loads none of them.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .core_map import generate_trajectory, random_initial_state, spawn_seeds
from .params import SystemParams
from .sync import recover_slice, stability_check

# preamble: unmasked settle steps, then one known '1' symbol for polarity
SETTLE_STEPS = 200
PILOT_BITS = 1

# the receive's slice budget: a slice holds stacked frames or consecutive
# samples of one longer series, at most this many, in two float64 arrays
# (16 MB). The lockstep's fixed step count is shared by the slice: per
# sample the receive of w_r cost 296-563 ns for one 20 201-sample frame,
# 151-189 ns for three and 97-108 ns for twelve (2.4e5 samples), and a
# 2e6-sample series received in slices of 2**18, 2**19, 2**20 and 2**21
# samples read 88-130, 83-103, 78-84 and 81-103 ns against 79-81 whole.
# At 2**20 the lockstep's per-step temporaries (6944 lanes of the default
# map's 151-sample blocks, 56 KB) stay below glibc's 128 KB mmap threshold.
RECEIVE_BATCH_SAMPLES = 1 << 20

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


def require_finite(samples, first: int = 0) -> None:
    """Raise ValueError naming the first non-finite entry of ``samples``,
    which are samples ``first``, ``first + 1``, ... of a series: one NaN
    or inf sample would leave every later receiver state non-finite."""
    finite = np.isfinite(samples)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"sample {first + bad} is not finite ({samples[bad]})")


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
        spb = self.samples_per_bit
        integral = isinstance(spb, numbers.Integral) and not isinstance(spb, bool)
        if not integral or spb < 1:
            raise ValueError(f"samples_per_bit must be an integer >= 1, got {spb!r}")

    @property
    def bit_rate(self) -> float:
        """Symbols per second: one every ``samples_per_bit`` clock periods."""
        return self.f_clk / self.samples_per_bit


@dataclass(frozen=True)
class SeriesHeader:
    """Everything of a masked series but its samples: its settings and its
    length ``size``, as a masked-series file's header holds them.

    Building one checks every rule that needs no sample: the map passes
    stability_check, the condition under which the substituting receiver
    is sure to lock and the link's only gate on the map
    (UnstableCouplingError, with the margins, otherwise); the settle and
    pilot lengths are non-negative; and the preamble fits in ``size``
    samples. The streamed file link carries one beside its samples, whose
    finiteness the reader checks slice by slice.
    """

    config: ModulationConfig
    params: SystemParams
    seed: int
    settle_steps: int
    pilot_bits: int
    size: int

    def __post_init__(self):
        verdict = stability_check(self.params)
        if not verdict["stable"]:
            raise UnstableCouplingError(
                f"coupling cannot synchronize; margins {verdict['margins']}"
            )
        for name in ("settle_steps", "pilot_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.preamble_samples > self.size:
            raise ValueError(
                f"preamble of {self.preamble_samples} samples (settle {self.settle_steps} "
                f"+ pilot {self.pilot_bits} x {self.config.samples_per_bit}) exceeds "
                f"the {self.size} samples in the series"
            )

    @property
    def preamble_samples(self) -> int:
        """Settle window plus pilot symbols."""
        return self.settle_steps + self.pilot_bits * self.config.samples_per_bit


@dataclass(frozen=True)
class MaskedSeries:
    """Transmitted masked scalar w* and the header that demodulates it.

    These are exactly the contents of a masked-series file: only w* leaves
    the transmitter, and the receiver rebuilds everything else from it and
    the link's settings.

    Every instance can be received: its header holds the rules that need
    no sample (see SeriesHeader), and ``w_star`` is one row of
    ``header.size`` samples, every one finite; otherwise a ValueError.
    """

    header: SeriesHeader
    w_star: np.ndarray

    def __post_init__(self):
        w_star = np.asarray(self.w_star, dtype=float)
        object.__setattr__(self, "w_star", w_star)
        if w_star.shape != (self.header.size,):
            raise ValueError(
                f"w_star must be one row of {self.header.size} samples, got shape {w_star.shape}"
            )
        require_finite(w_star)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi), a view: the ``read`` of receive_bits."""
        return self.w_star[lo:hi]


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
    resolution. Unstable coupling is rejected up front. The series is the
    chunks of transmit, collected.
    """
    header, chunks = transmit(params, bits, cfg, seed, settle_steps)
    w_star = np.empty(header.size)
    lo = 0
    for chunk in chunks:
        w_star[lo : lo + chunk.size] = chunk
        lo += chunk.size
    return MaskedSeries(header, w_star)


def transmit(
    params: SystemParams,
    bits,
    cfg: ModulationConfig,
    seed: int,
    settle_steps: int = SETTLE_STEPS,
):
    """mask_transmit's series as its header, then its samples one kernel
    chunk at a time.

    Returns ``(header, chunks)``: the SeriesHeader of the series it will
    emit, built first so that its rules run before any sample, and an
    iterator over its samples, ``_kernels.CHUNK`` at a time, which
    send-file writes as they come. Each chunk's information signal
    (settle_steps zeros, then the NRZ waveform of the known '1' pilot and
    the data) is built from the symbols that cover it.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bits must be a non-empty 1-d sequence")
    spb = cfg.samples_per_bit
    symbols = np.concatenate([np.ones(PILOT_BITS, dtype=np.uint8), bits])
    n = settle_steps + symbols.size * spb
    header = SeriesHeader(cfg, params, seed, settle_steps, PILOT_BITS, n)
    start = generate_trajectory(1, params=params, seed=seed).states[0]
    coefficients = (params.a, params.b, params.c, params.beta, params.gamma)

    def chunks():
        x, y, z = start
        for lo in range(0, n, _kernels.CHUNK):
            hi = min(lo + _kernels.CHUNK, n)
            info = np.zeros(hi - lo)
            first = max(lo, settle_steps)  # the chunk's first sample after the settle window
            if first < hi:
                s0, skip = divmod(first - settle_steps, spb)
                s1 = -(-(hi - settle_steps) // spb)
                info[first - lo :] = nrz_waveform(symbols[s0:s1], cfg.amplitude, spb)[
                    skip : skip + hi - first
                ]
            ws, x, y, z = _kernels.masked_transmit_chain(info.tolist(), x, y, z, *coefficients)
            # fromiter converts the floats without np.array's type discovery
            w_star = np.fromiter(ws, float, hi - lo)
            del ws  # the kernel's list, before the next chunk's are built
            w_star += info
            yield w_star

    return header, chunks()


def channel_awgn(series, sigma: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise of standard deviation ``sigma`` per sample.

    At ``sigma`` 0 the channel is the identity and returns ``series`` itself
    when it is already a float64 array, not a copy: callers read the result
    and must not write it. ``seed`` may be a ``numpy.random.Generator``,
    which is drawn from as it stands, so a series sent slice by slice
    through one Generator gets the noise of one draw over the whole.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    series = np.asarray(series, dtype=float)
    if sigma == 0:
        return series
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
    the returned array covers exactly the data symbols. A series longer
    than RECEIVE_BATCH_SAMPLES is received in slices (see
    _receive_slices), with the same result.
    """
    ((_, recovered),) = _gather([(masked.header, masked.read, seed)], noise_sigma, recv_params)
    return recovered


def _slices(sizes):
    """Plan the receive of series of ``sizes`` samples, in order.

    Yields slices of at most RECEIVE_BATCH_SAMPLES samples, each a list of
    ``(k, lo, hi)``: samples [lo, hi) of series k. A series of at most the
    budget goes whole, stacked with the equal-length series after it while
    the stack fits (at least one); a longer one goes alone, in consecutive
    runs of the budget.
    """
    budget = RECEIVE_BATCH_SAMPLES
    k = 0
    while k < len(sizes):
        n = sizes[k]
        if n > budget:
            for lo in range(0, n, budget):
                yield [(k, lo, min(lo + budget, n))]
            k += 1
            continue
        end = k + 1
        while end < len(sizes) and sizes[end] == n and (end - k + 1) * n <= budget:
            end += 1
        yield [(j, 0, n) for j in range(k, end)]
        k = end


def _receive_slices(sources, noise_sigma: float, recv_params: SystemParams | None):
    """The link's receive engine: unmask_receive on each series, one slice at a time.

    ``sources`` yields ``(header, read, seed)`` per series: its SeriesHeader;
    ``read(lo, hi)``, which returns samples [lo, hi) as a view or as an
    array of its own; and the master seed, split as unmask_receive splits
    it. The series are received in the slices _slices plans, and each
    ``read`` is dropped after its series' last slice. Each series has one
    noise Generator, which channel_awgn draws from slice by slice, and each
    slice starts from the exact receiver state the one before it of the
    same series ended in, so the result equals a whole-series receive bit
    for bit. sync.recover_slice writes ``received - w_r`` over the slice's
    received buffer (stacked frames, or a lone run copied only if the
    channel passed a view), so a slice holds that buffer and the lockstep's
    step-major copy. The pilot's samples are gathered as they pass, and
    their mean, taken over the contiguous window, fixes the polarity
    before the first data sample is yielded.

    Yields ``(k, data, left)`` per slice of series k: its recovered data
    samples in that slice (preamble stripped, sign fixed; a view into the
    slice's buffer) and how many of its data samples later slices hold.
    The map is ``recv_params``, by default the first series'.
    """
    # lists the engine owns, so a reader it drops frees its series
    headers, readers, seeds = map(list, zip(*sources))
    states, noise = [], []
    for seed in seeds:
        _, ch_seed, rx_seed = spawn_seeds(seed, 3)
        states.append(random_initial_state(rx_seed))
        noise.append(np.random.default_rng(ch_seed))
    if recv_params is None:
        recv_params = headers[0].params
    pilots = [np.empty(h.preamble_samples - h.settle_steps) for h in headers]
    flips = [False] * len(headers)
    for piece in _slices([h.size for h in headers]):
        received = []
        for k, lo, hi in piece:
            received.append(channel_awgn(readers[k](lo, hi), noise_sigma, noise[k]))
            if hi == headers[k].size:
                readers[k] = None
        if len(received) > 1:
            w = np.stack(received)
        else:
            (w,) = received
            w = (w if w.base is None else w.copy())[None]  # a noiseless channel passes views
        del received
        ends = recover_slice(w, np.stack([states[k] for k, _, _ in piece]), recv_params)
        for samples, end, (k, lo, hi) in zip(w, ends, piece):
            states[k] = end
            h = headers[k]
            settle, preamble = h.settle_steps, h.preamble_samples
            first, last = max(lo, settle), min(hi, preamble)
            if first < last:
                pilots[k][first - settle : last - settle] = samples[first - lo : last - lo]
                if last == preamble:
                    flips[k] = pilots[k].mean() < -0.25 * h.config.amplitude
            data = samples[max(preamble - lo, 0) :]
            if flips[k]:
                np.negative(data, out=data)
            yield k, data, h.size - max(hi, preamble)


def _gather(sources, noise_sigma: float, recv_params: SystemParams | None):
    """_receive_slices on ``sources``, yielding ``(k, data)`` once per
    series: the data of a one-slice series is its piece itself, and a
    longer one's pieces are copied into one array as they come."""
    out = None
    for k, data, left in _receive_slices(sources, noise_sigma, recv_params):
        if out is None:
            if not left:
                yield k, data
                continue
            out, filled = np.empty(data.size + left), 0
        out[filled : filled + data.size] = data
        filled += data.size
        if not left:
            yield k, out
            out = None


def receive_bits(header: SeriesHeader, read, seed: int, noise_sigma: float) -> np.ndarray:
    """decide_zero(unmask_receive(...)) on the series ``header`` and
    ``read`` describe (see _receive_slices), received slice by slice.

    Each slice's whole symbols are integrated and dumped as it comes, and a
    symbol cut by a slice's end is carried into the next, so only the bits
    are kept: one byte per symbol. Raises ValueError, before any receive,
    when the data holds no whole symbol.
    """
    cfg = header.config
    spb = cfg.samples_per_bit
    bits = np.empty((header.size - header.preamble_samples) // spb, dtype=np.uint8)
    if bits.size == 0:
        raise ValueError("fewer samples than one symbol")
    carry, held, done = np.empty(spb), 0, 0
    for _, data, _ in _receive_slices([(header, read, seed)], noise_sigma, None):
        if held:
            take = min(spb - held, data.size)
            carry[held : held + take] = data[:take]
            held += take
            data = data[take:]
            if held < spb:
                continue
            bits[done] = decide_zero(carry, cfg)[0]
            done += 1
        whole = data.size // spb * spb
        if whole:
            bits[done : done + whole // spb] = decide_zero(data[:whole], cfg)
            done += whole // spb
        held = data.size - whole
        carry[:held] = data[whole:]
    return bits


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
    limit (about 3.7/n). Empty sequences raise ValueError.
    """
    from scipy import special

    sent = np.asarray(sent).astype(np.uint8)
    recovered = np.asarray(recovered).astype(np.uint8)
    if sent.shape != recovered.shape:
        raise ValueError(
            f"length mismatch: sent {sent.shape} vs recovered {recovered.shape}"
        )
    n = sent.size
    if n == 0:
        raise ValueError("no bits to measure: sent and recovered are empty")
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
    equal lengths, are transmitted in batches of one receive slice (see
    _slices), each then received by _receive_slices, which drops each
    frame's series once read. Yields ``(frame, recovered data samples)`` in
    frame order, one batch at a time, so a caller that drops each as it
    comes holds one batch.
    """
    def send(frame):
        bits, cfg, seed = frame
        masked = mask_transmit(params, bits, cfg, seed=spawn_seeds(seed, 3)[0])
        return masked.header, masked.read, seed

    def link_pass(batch, run):
        for k, data in _gather(run(send, batch), noise_sigma, recv_params):
            yield batch[k], data

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
