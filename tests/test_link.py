import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from scipy import optimize, special, stats

import chaoslink as cl
from chaoslink import analysis as an
from chaoslink import _kernels, link
from chaoslink.core_map import spawn_seeds
from chaoslink.link import (
    BerResult,
    ModulationConfig,
    SymbolStats,
    UnstableCouplingError,
    ber_measure,
    ber_predict,
    ber_sweep,
    channel_awgn,
    decide_zero,
    fit_symbol_gaussians,
    integrate_and_dump,
    mask_transmit,
    nrz_waveform,
    optimal_threshold,
    prbs,
    prbs_seed,
    run_link,
    unmask_receive,
)

PARAMS = cl.DEFAULT_PARAMS
CFG = ModulationConfig(amplitude=0.1, samples_per_bit=50)
# a receiver whose a, b and c sit 0.2 % off the transmitter's
MISMATCHED = PARAMS.replace(a=PARAMS.a * 1.002, b=PARAMS.b * 1.002, c=PARAMS.c * 1.002)


def normal_at_one_percent(z):
    """Anderson-Darling normality: is the statistic below its 1 % critical value?

    scipy >= 1.17 wants a p-value ``method``; "interpolate" reads the same
    critical-value table, clamped to [0.01, 0.15], so ``pvalue > 0.01`` holds
    exactly when the statistic is below the 1 % value. Older scipy has no
    ``method`` and returns the table itself.
    """
    if "method" in inspect.signature(stats.anderson).parameters:
        return stats.anderson(z, dist="norm", method="interpolate").pvalue > 0.01
    result = stats.anderson(z, dist="norm")
    return result.statistic < result.critical_values[-1]


class TestPrbs:
    def test_degree3_window_property(self):
        # one full period of a degree-3 m-sequence: every nonzero 3-bit
        # window appears exactly once cyclically
        bits = prbs(7, seed=5, degree=3)
        doubled = np.concatenate([bits, bits])
        windows = {tuple(doubled[k : k + 3]) for k in range(7)}
        assert len(windows) == 7
        assert (0, 0, 0) not in windows

    def test_balance(self):
        bits = prbs(100_000, seed=12345)
        assert abs(bits.mean() - 0.5) < 0.01

    def test_deterministic(self):
        assert np.array_equal(prbs(1000, seed=42), prbs(1000, seed=42))

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            prbs(10, seed=0)
        with pytest.raises(ValueError):
            prbs(10, seed=1 << 23)  # zero modulo the register size

    def test_unknown_degree_rejected(self):
        with pytest.raises(ValueError):
            prbs(10, seed=1, degree=5)

    @pytest.mark.parametrize("seed", [0, (1 << 23) - 2, (1 << 23) - 1, 1 << 23, 2**32 - 1])
    def test_prbs_seed_never_locks_up(self, seed):
        state = prbs_seed(seed)
        assert 1 <= state < (1 << 23)
        assert prbs(8, seed=state).size == 8


def whole_waveform_transmit(bits, cfg, seed, settle=link.SETTLE_STEPS):
    """The transmitter before chunked waveforms: the whole info series (settle
    zeros, the '1' pilot and the data as NRZ), one kernel pass, one add."""
    waveform = nrz_waveform(np.concatenate([[1], bits]), cfg.amplitude, cfg.samples_per_bit)
    info = np.concatenate([np.zeros(settle), waveform])
    x, y, z = cl.generate_trajectory(1, params=PARAMS, seed=seed).states[0]
    coefficients = (PARAMS.a, PARAMS.b, PARAMS.c, PARAMS.beta, PARAMS.gamma)
    w_clean, *_ = _kernels.masked_transmit_chain(info.tolist(), x, y, z, *coefficients)
    return np.array(w_clean) + info


class TestMaskTransmit:
    def test_additive_identity_bit_exact(self):
        """w* is the kernel's unmixed output plus the NRZ waveform, bit for bit."""
        bits = prbs(500, seed=77)
        masked = mask_transmit(PARAMS, bits, CFG, seed=3)
        assert masked.w_star.tobytes() == whole_waveform_transmit(bits, CFG, 3).tobytes()

    def test_vanishing_amplitude_equals_free_run(self):
        bits = prbs(100, seed=77)
        tiny = ModulationConfig(amplitude=1e-300, samples_per_bit=50)
        masked = mask_transmit(PARAMS, bits, tiny, seed=3)
        free = cl.generate_trajectory(masked.w_star.size, params=PARAMS, seed=3)
        assert np.array_equal(masked.w_star, free.w)

    def test_unstable_coupling_rejected_with_margins(self):
        bad = PARAMS.replace(gamma=-0.5)
        with pytest.raises(UnstableCouplingError, match="margins"):
            mask_transmit(bad, prbs(10, seed=1), CFG, seed=0)

    def test_length_accounting(self):
        bits = prbs(64, seed=9)
        masked = mask_transmit(PARAMS, bits, CFG, seed=1)
        assert masked.w_star.size == masked.preamble_samples + 64 * CFG.samples_per_bit

    @pytest.mark.parametrize("chunk", [None, 37])
    @pytest.mark.parametrize("settle", [0, 4, 200, 5000])
    @pytest.mark.parametrize("spb", [1, 3, 7, 50])
    def test_matches_whole_waveform_transmitter(self, monkeypatch, chunk, settle, spb):
        """Each chunk's waveform is built from the symbols that cover it; the
        series equals the whole-waveform transmitter's byte for byte.

        Symbols straddle chunk edges at N = 3, 7 and 50 (and at every N for
        the 37-sample chunk), and settle 5000 spans the first 4096-sample
        chunk.
        """
        if chunk is not None:
            monkeypatch.setattr(_kernels, "CHUNK", chunk)
        cfg = ModulationConfig(amplitude=0.07, samples_per_bit=spb)
        bits = prbs(3 * 4096 // spb + 5, seed=spb + settle)
        masked = mask_transmit(PARAMS, bits, cfg, seed=3, settle_steps=settle)
        expected = whole_waveform_transmit(bits, cfg, 3, settle)
        assert masked.w_star.tobytes() == expected.tobytes()

    def test_negative_settle_refused_before_any_work(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("transmitted with a negative settle window")

        monkeypatch.setattr(link, "generate_trajectory", unreachable)
        with pytest.raises(ValueError, match=r"^settle_steps must be >= 0, got -3$"):
            mask_transmit(PARAMS, prbs(20, seed=1), CFG, seed=1, settle_steps=-3)

    def test_peak_memory_per_sample(self):
        """The transmitter holds w_star plus one chunk's waveform and lists.

        4300 bits at N = 50 is the size of a 0.25 s speech payload. One
        float64 array makes 8 B/sample; a whole-series waveform beside it,
        as the transmitter once built, makes 16, and reads about 17.
        """
        bits = prbs(4300, seed=2)
        mask_transmit(PARAMS, bits[:10], CFG, seed=1)  # warm caches outside the trace
        tracemalloc.start()
        try:
            masked = mask_transmit(PARAMS, bits, CFG, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masked.w_star.size == 215_250
        assert peak / masked.w_star.size <= 10

    def test_masked_spectrum_stays_noise_like(self):
        # no spectral line near the bit rate: the data-band peak stays close
        # to the chaos floor
        bits = prbs(4000, seed=3)
        masked = mask_transmit(PARAMS, bits, CFG, seed=5)
        psd = an.welch_psd(masked.w_star, segment_length=2048)
        data_band = (psd.frequencies >= 0.01) & (psd.frequencies <= 0.03)
        chaos_band = (psd.frequencies >= 0.05) & (psd.frequencies <= 0.45)
        ratio = psd.power[data_band].max() / np.median(psd.power[chaos_band])
        assert ratio < 2.5


class TestChannel:
    def test_zero_sigma_identity(self):
        x = np.linspace(-1, 1, 100)
        assert np.array_equal(channel_awgn(x, 0.0, seed=1), x)
        # a float64 series passes through without a copy
        assert channel_awgn(x, 0.0, seed=1) is x

    def test_added_variance(self):
        x = np.zeros(100_000)
        noisy = channel_awgn(x, 0.3, seed=2)
        assert noisy.var() == pytest.approx(0.09, rel=0.05)

    def test_seeded_determinism(self):
        x = np.ones(1000)
        assert np.array_equal(
            channel_awgn(x, 0.1, seed=3), channel_awgn(x, 0.1, seed=3)
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            channel_awgn(np.zeros(10), -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            channel_awgn(np.zeros(10), sigma, seed=0)


BAD_LEVELS = [float("nan"), float("inf"), 0.0, -0.1]


@pytest.mark.parametrize(
    "field, value",
    [pytest.param("amplitude", v, id=str(v)) for v in BAD_LEVELS]
    + [pytest.param("f_clk", v, id=f"f_clk-{v}") for v in BAD_LEVELS],
)
def test_modulation_amplitude_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        ModulationConfig(**{field: value})


class TestUnmask:
    def test_noiseless_recovery_is_exact(self):
        bits = prbs(1000, seed=77)
        masked = mask_transmit(PARAMS, bits, CFG, seed=3)
        recovered = unmask_receive(masked, seed=11)
        reference = nrz_waveform(bits, CFG.amplitude, CFG.samples_per_bit)
        assert np.max(np.abs(recovered - reference)) < 1e-9

    def test_tiny_amplitude_leaves_sync_residual_only(self):
        tiny = ModulationConfig(amplitude=1e-12, samples_per_bit=50)
        masked = mask_transmit(PARAMS, prbs(200, seed=5), tiny, seed=3)
        recovered = unmask_receive(masked, seed=11)
        assert np.max(np.abs(recovered)) < 1e-9

    def test_receiver_mismatch_decorrelates(self):
        bits = prbs(2000, seed=31)
        masked = mask_transmit(PARAMS, bits, CFG, seed=8)
        reference = nrz_waveform(bits, CFG.amplitude, CFG.samples_per_bit)
        one_pct = PARAMS.replace(
            a=PARAMS.a * 1.01, b=PARAMS.b * 1.01, c=PARAMS.c * 1.01
        )
        rec1 = unmask_receive(masked, recv_params=one_pct, seed=12)
        corr1 = np.corrcoef(rec1, reference)[0, 1]
        assert corr1 < 0.7
        two_pct = PARAMS.replace(
            a=PARAMS.a * 1.02, b=PARAMS.b * 1.02, c=PARAMS.c * 1.02
        )
        rec2 = unmask_receive(masked, recv_params=two_pct, seed=12)
        assert np.corrcoef(rec2, reference)[0, 1] < 0.5

    def test_polarity_self_check_fixes_inverted_sign(self):
        bits = prbs(200, seed=5)
        masked = mask_transmit(PARAMS, bits, CFG, seed=3)
        inverted = dataclasses.replace(masked, w_star=-masked.w_star)
        flipped = unmask_receive(inverted, seed=11)
        # an inverted channel flips the pilot, and the self-check undoes it
        symbols = integrate_and_dump(flipped, CFG)
        decisions = (symbols > 0).astype(np.uint8)
        assert np.count_nonzero(decisions != bits) <= len(bits) // 4

    def test_two_symbol_pilot_is_stripped_and_read_whole(self):
        """A two-symbol pilot, as a hand-made file header may declare, is
        stripped with the settle window, and the polarity is the sign of the
        mean over both symbols. Here they carry +A and -3A, so the first
        alone would keep the sign and both together flip it."""
        settle, n, amp = 200, CFG.samples_per_bit, CFG.amplitude
        data = nrz_waveform(prbs(100, seed=5), amp, n)
        info = np.concatenate(
            [np.zeros(settle), np.full(n, amp), np.full(n, -3 * amp), data]
        )
        x, y, z = cl.generate_trajectory(1, params=PARAMS, seed=3).states[0]
        w_clean, *_ = _kernels.masked_transmit_chain(
            info.tolist(), x, y, z, PARAMS.a, PARAMS.b, PARAMS.c, PARAMS.beta, PARAMS.gamma
        )
        masked = link.MaskedSeries(
            np.array(w_clean) + info, CFG, PARAMS, seed=3, settle_steps=settle, pilot_bits=2
        )
        assert masked.preamble_samples == settle + 2 * n
        recovered = unmask_receive(masked, seed=11)
        assert recovered.size == data.size
        assert np.max(np.abs(recovered + data)) < 1e-9

    @staticmethod
    def receive_peak_per_sample(sigma):
        """Traced peak of unmask_receive per sample of the 215 250-sample series."""
        bits = prbs(4300, seed=2)
        masked = mask_transmit(PARAMS, bits, CFG, seed=1)
        small = mask_transmit(PARAMS, bits[:10], CFG, seed=1)
        unmask_receive(small, seed=3, noise_sigma=sigma)  # warm caches outside the trace
        tracemalloc.start()
        try:
            unmask_receive(masked, seed=3, noise_sigma=sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masked.w_star.size == 215_250
        return peak / masked.w_star.size

    def test_receive_peak_memory_per_sample(self):
        """The receive holds the received series, one step-major copy of it
        that the lockstep overwrites with w_r, and w_r in sample order, into
        which the recovered samples are written.

        The series is test_peak_memory_per_sample's 215 250 samples. Three
        float64 arrays make 24 B/sample. Holding the (n, 3) receiver
        states, as the receive once did, reads about 48.
        """
        assert self.receive_peak_per_sample(0.012) <= 40

    def test_noiseless_receive_peak_memory_per_sample(self):
        """A noiseless channel passes the series itself, which the caller
        already holds, and a lone frame is not stacked: two float64 arrays
        make 16 B/sample. A copy of the series, as the receive once made,
        reads about 25."""
        assert self.receive_peak_per_sample(0.0) <= 20

    def test_noiseless_receive_leaves_the_series_unchanged(self):
        masked = mask_transmit(PARAMS, prbs(300, seed=2), CFG, seed=1)
        before = masked.w_star.tobytes()
        recovered = unmask_receive(masked, seed=3)
        assert masked.w_star.tobytes() == before
        assert not np.shares_memory(recovered, masked.w_star)


class TestMaskedSeries:
    """A MaskedSeries that exists can be received: the three rules below are
    checked where the series is built, by the transmitter or a file reader,
    and so before any receive."""

    MASKED = mask_transmit(PARAMS, prbs(64, seed=3), CFG, seed=1)

    def test_unlockable_map_refused_with_margins(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("received a series the receiver cannot lock to")

        monkeypatch.setattr(link, "receiver_output", unreachable)
        unstable = PARAMS.replace(gamma=-0.5)
        margins = cl.sync.stability_check(unstable)["margins"]
        with pytest.raises(UnstableCouplingError) as exc:
            unmask_receive(dataclasses.replace(self.MASKED, params=unstable), seed=1)
        assert str(exc.value) == f"coupling cannot synchronize; margins {margins}"

    @pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named(self, sample):
        w_star = self.MASKED.w_star.copy()
        w_star[[500, 900]] = sample
        with pytest.raises(ValueError, match=rf"^sample 500 is not finite \({sample}\)$"):
            dataclasses.replace(self.MASKED, w_star=w_star)

    @pytest.mark.filterwarnings("error")
    def test_preamble_must_fit_the_series(self):
        with pytest.raises(ValueError, match="preamble of 300 samples .* exceeds the 150"):
            dataclasses.replace(self.MASKED, w_star=self.MASKED.w_star[:150], settle_steps=250)
        # a series that is all preamble is whole, and carries no data
        exact = dataclasses.replace(self.MASKED, w_star=self.MASKED.w_star[:300], settle_steps=250)
        assert exact.preamble_samples == exact.w_star.size

    @pytest.mark.parametrize("field, value", [("settle_steps", -3), ("pilot_bits", -1)])
    def test_negative_preamble_lengths_refused(self, field, value):
        """A negative length would shift the data window: settle -3 once
        received 1203 samples for 1000 data samples, pilot -1 1100."""
        masked = mask_transmit(PARAMS, prbs(20, seed=3), CFG, seed=1)
        with pytest.raises(ValueError, match=rf"^{field} must be >= 0, got {value}$"):
            dataclasses.replace(masked, **{field: value})


class TestDecideZero:
    def test_zero_mean_symbol_decides_zero(self):
        n = CFG.samples_per_bit
        recovered = np.concatenate([np.zeros(n), np.full(n, 1e-300), np.full(n, -0.1)])
        assert decide_zero(recovered, CFG).tolist() == [0, 1, 0]

    @pytest.mark.filterwarnings("error")
    def test_trailing_partial_symbol_dropped_without_warning(self):
        recovered = nrz_waveform([1, 0, 1], CFG.amplitude, CFG.samples_per_bit)
        assert decide_zero(recovered[:-1], CFG).tolist() == [1, 0]

    def test_result_is_uint8(self):
        decisions = decide_zero(np.full(2 * CFG.samples_per_bit, 0.1), CFG)
        assert decisions.dtype == np.uint8


class TestIntegrateAndDump:
    def test_constant_input(self):
        out = integrate_and_dump(np.full(500, 0.37), CFG)
        assert np.allclose(out, 0.37)

    def test_alternating_nrz_exact(self):
        bits = np.tile([1, 0], 20)
        wave = nrz_waveform(bits, 0.1, 50)
        out = integrate_and_dump(wave, CFG)
        assert np.allclose(out, np.where(bits > 0, 0.1, -0.1))

    def test_noise_variance_shrinks_by_n(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(0, 1.0, 50 * 4000)
        out = integrate_and_dump(noise, CFG)
        assert out.var() == pytest.approx(1.0 / 50, rel=0.1)

    def test_partial_block_dropped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="trailing"):
            out = integrate_and_dump(np.zeros(120), CFG)
        assert out.size == 2


class TestSymbolGaussians:
    def test_recovers_synthetic_parameters(self):
        rng = np.random.default_rng(1)
        n = 20_000
        labels = (rng.uniform(size=n) < 0.5).astype(np.uint8)
        stats_values = np.where(
            labels == 1, rng.normal(1.0, 0.25, n), rng.normal(0.0, 0.2, n)
        )
        fitted = fit_symbol_gaussians(stats_values, labels)
        se0 = 0.2 / np.sqrt((labels == 0).sum())
        se1 = 0.25 / np.sqrt((labels == 1).sum())
        assert fitted.mu0 == pytest.approx(0.0, abs=4 * se0)
        assert fitted.mu1 == pytest.approx(1.0, abs=4 * se1)
        assert fitted.sigma0 == pytest.approx(0.2, rel=0.05)
        assert fitted.sigma1 == pytest.approx(0.25, rel=0.05)
        assert fitted.p0 + fitted.p1 == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_symbol_gaussians(np.ones(10), np.ones(10))

    def test_filtered_classes_pass_normality(self):
        # with 50-sample averaging the decision statistics are near-Gaussian
        bits = prbs(3000, seed=10)
        _, fitted, _, _ = run_link(
            PARAMS, bits, CFG, seed=6, noise_sigma=0.006, filtered=True
        )
        for cls in (0, 1):
            x = fitted.stats[fitted.labels == cls]
            z = (x - x.mean()) / x.std(ddof=1)
            assert normal_at_one_percent(z)

    def test_unfiltered_classes_overlap_heavily(self):
        bits = prbs(1000, seed=10)
        _, filt, _, _ = run_link(
            PARAMS, bits, CFG, seed=6, noise_sigma=0.006, filtered=True
        )
        _, unfilt, _, _ = run_link(
            PARAMS, bits, CFG, seed=6, noise_sigma=0.006, filtered=False
        )

        def separation(s):
            return (s.mu1 - s.mu0) / np.sqrt(0.5 * (s.sigma0**2 + s.sigma1**2))

        # per-sample classes overlap heavily (tails cross within ~1 sigma);
        # averaging 50 samples multiplies the separation by about sqrt(50)
        assert separation(unfilt) < 3.0
        assert separation(filt) > 5 * separation(unfilt)


class TestBerPredict:
    def _stats(self, mu0, s0, mu1, s1, p0=0.5):
        values = np.array([mu0, mu0, mu1, mu1])
        labels = np.array([0, 0, 1, 1], dtype=np.uint8)
        return SymbolStats(
            stats=values, labels=labels, mu0=mu0, sigma0=s0, mu1=mu1, sigma1=s1,
            p0=p0, p1=1 - p0,
        )

    def test_closed_form_value(self):
        s = self._stats(0.0, 0.25, 1.0, 0.25)
        expected = 0.5 * special.erfc(2.0 / np.sqrt(2.0))
        assert ber_predict(s, 0.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.02275, abs=1e-5)

    def test_threshold_below_everything_decides_all_ones(self):
        s = self._stats(0.0, 0.25, 1.0, 0.25, p0=0.3)
        assert ber_predict(s, -1e9) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_minimum_at_midpoint(self):
        s = self._stats(0.0, 0.25, 1.0, 0.25)
        mid = ber_predict(s, 0.5)
        assert mid <= ber_predict(s, 0.45)
        assert mid <= ber_predict(s, 0.55)

    def test_monotone_in_separation_and_spread(self):
        base = self._stats(0.0, 0.25, 1.0, 0.25)
        wider = self._stats(0.0, 0.25, 2.0, 0.25)
        noisier = self._stats(0.0, 0.4, 1.0, 0.4)
        assert optimal_threshold(wider)[1] < optimal_threshold(base)[1]
        assert optimal_threshold(noisier)[1] > optimal_threshold(base)[1]


def scan_and_brent_threshold(s):
    """The scanning reference: a 2001-point grid over [mu0, mu1], then
    bounded Brent on the best grid cell. Returns (threshold, its cell)."""
    grid = np.linspace(s.mu0, s.mu1, 2001)
    k = int(np.argmin(ber_predict(s, grid)))
    cell = (grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])
    result = optimize.minimize_scalar(
        lambda lam: ber_predict(s, lam),
        bounds=cell,
        method="bounded",
        options={"xatol": (s.mu1 - s.mu0) * 1e-9},
    )
    return float(result.x), cell


def random_fits(count, seed):
    """Seeded two-class fits: every fourth with equal spreads, the others with
    spread ratios up to 10 either way; priors 0.05-0.95."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        mu0 = rng.normal()
        d = rng.uniform(0.01, 3.0)
        sigma0 = rng.uniform(0.1, 1.0) * d
        ratio = 1.0 if k % 4 == 0 else np.exp(rng.uniform(-np.log(10), np.log(10)))
        p0 = rng.uniform(0.05, 0.95)
        yield mu0, sigma0, mu0 + d, sigma0 * ratio, p0


class TestOptimalThreshold:
    def _stats(self, mu0, s0, mu1, s1, p0=0.5):
        values = np.array([mu0, mu0, mu1, mu1])
        labels = np.array([0, 0, 1, 1], dtype=np.uint8)
        return SymbolStats(
            stats=values, labels=labels, mu0=mu0, sigma0=s0, mu1=mu1, sigma1=s1,
            p0=p0, p1=1 - p0,
        )

    def test_symmetric_case_midpoint(self):
        lam, _ = optimal_threshold(self._stats(0.0, 0.25, 1.0, 0.25))
        assert lam == pytest.approx(0.5, abs=1e-6)

    def test_matches_stationarity_condition(self):
        s = self._stats(0.0, 0.2, 1.0, 0.35, p0=0.4)
        lam, _ = optimal_threshold(s)

        def weighted_pdf_gap(x):
            return s.p0 * stats.norm.pdf(x, s.mu0, s.sigma0) - s.p1 * stats.norm.pdf(
                x, s.mu1, s.sigma1
            )

        root = optimize.brentq(weighted_pdf_gap, s.mu0, s.mu1, xtol=1e-15)
        assert lam == pytest.approx(root, abs=1e-12)

    def check_against_scan_reference(self, s):
        lam, ber = optimal_threshold(s)
        assert s.mu0 <= lam <= s.mu1
        assert ber == ber_predict(s, lam)
        reference, cell = scan_and_brent_threshold(s)
        dense = np.linspace(s.mu0, s.mu1, 100_001)
        best = min(ber_predict(s, reference), ber_predict(s, dense).min())
        assert ber <= best + 1e-15
        if cell[0] > s.mu0 and cell[1] < s.mu1:
            # interior: bounded Brent only places a minimum to about
            # sqrt(eps), so the location reference is the stationary point
            # p0*N0 = p1*N1 inside the reference's scan cell
            def log_gap(x):
                return (
                    np.log(s.p1) + stats.norm.logpdf(x, s.mu1, s.sigma1)
                    - np.log(s.p0) - stats.norm.logpdf(x, s.mu0, s.sigma0)
                )

            root = optimize.brentq(log_gap, *cell, xtol=1e-15)
            assert abs(lam - root) <= 1e-9 * (s.mu1 - s.mu0)
            assert abs(lam - reference) <= 1e-5 * (s.mu1 - s.mu0)
        return lam

    def test_matches_scan_reference_on_random_fits(self):
        for fit in random_fits(300, seed=2101):
            self.check_against_scan_reference(self._stats(*fit))

    @pytest.mark.parametrize(
        "fit, expected",
        [
            ((0.0, 3.0, 1.0, 0.3, 0.95), 1.0),
            ((0.0, 0.3, 1.0, 3.0, 0.05), 0.0),
            ((0.0, 1.0, 1.0, 1.0, 0.9), 1.0),  # the linear case's root lies beyond mu1
            ((0.0, 0.2, 1.0, 0.5, 0.0), 0.0),  # a prior of 0 leaves the endpoints
            ((0.0, 0.2, 1.0, 0.5, 1.0), 1.0),
        ],
        ids=["mu1", "mu0", "equal-spreads", "p0=0", "p0=1"],
    )
    def test_optimum_at_an_endpoint(self, fit, expected):
        assert self.check_against_scan_reference(self._stats(*fit)) == expected

    def test_unordered_classes_rejected(self):
        with pytest.raises(ValueError):
            optimal_threshold(self._stats(1.0, 0.2, 0.0, 0.2))


class TestBerMeasure:
    def test_zero_errors_upper_bound(self):
        bits = prbs(100_000, seed=1)
        result = ber_measure(bits, bits)
        assert result.measured_ber == 0.0
        assert result.confidence_interval[0] == 0.0
        # exact one-sided 97.5% bound, about 3.7/n
        assert result.confidence_interval[1] == pytest.approx(3.689e-5, rel=1e-3)

    def test_complement_is_all_errors(self):
        bits = prbs(1000, seed=1)
        assert ber_measure(bits, 1 - bits).measured_ber == 1.0

    def test_counting(self):
        bits = np.zeros(100_000, dtype=np.uint8)
        recovered = bits.copy()
        recovered[:5] = 1
        result = ber_measure(bits, recovered)
        assert result.measured_ber == pytest.approx(5e-5)
        assert result.errors == 5
        lo, hi = result.confidence_interval
        assert lo < 5e-5 < hi

    @pytest.mark.parametrize("n", [1, 2, 10, 1000, 100_003, 10_000_000])
    def test_interval_matches_beta_quantiles(self, n):
        sent = np.zeros(n, dtype=np.uint8)
        for errors in sorted({e for e in (0, 1, 5, n // 3, n - 1, n) if e <= n}):
            recovered = np.zeros(n, dtype=np.uint8)
            recovered[:errors] = 1
            lo, hi = ber_measure(sent, recovered).confidence_interval
            expected_lo = stats.beta.ppf(0.025, errors, n - errors + 1) if errors else 0.0
            expected_hi = stats.beta.ppf(0.975, errors + 1, n - errors) if errors < n else 1.0
            assert lo == pytest.approx(expected_lo, rel=1e-12, abs=0.0)
            assert hi == pytest.approx(expected_hi, rel=1e-12, abs=0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ber_measure(np.zeros(10), np.zeros(11))

    def test_interval_contains_estimate_invariant(self):
        with pytest.raises(ValueError):
            BerResult(
                measured_ber=0.5, bits=10, errors=5, confidence_interval=(0.6, 0.7)
            )


class TestEndToEnd:
    def test_noiseless_link_error_free(self):
        bits = prbs(10_000, seed=77)
        _, _, _, decisions = run_link(PARAMS, bits, CFG, seed=3)
        assert ber_measure(bits, decisions).errors == 0

    def test_sweep_reproducible_across_seeds_within_ci(self):
        first = ber_sweep(PARAMS, [0.05], CFG, n_bits=20_000, seed=1, noise_sigma=0.012)[0]
        second = ber_sweep(PARAMS, [0.05], CFG, n_bits=20_000, seed=2, noise_sigma=0.012)[0]
        lo = max(first.confidence_interval[0], second.confidence_interval[0])
        hi = min(first.confidence_interval[1], second.confidence_interval[1])
        assert lo <= hi

    def test_sweep_validates_amplitudes(self):
        assert ber_sweep(PARAMS, [], CFG, n_bits=100, seed=1) == []
        with pytest.raises(ValueError):
            ber_sweep(PARAMS, [0.1, 0.05], CFG, n_bits=100, seed=1)
        with pytest.raises(ValueError):
            ber_sweep(PARAMS, [-0.1], CFG, n_bits=100, seed=1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ber_sweep(PARAMS, [0.05, bad], CFG, n_bits=100, seed=1)

    def test_threaded_sweep_matches_sequential(self):
        seq = ber_sweep(PARAMS, [0.05, 0.1], CFG, n_bits=2000, seed=4, noise_sigma=0.012)
        par = ber_sweep(
            PARAMS, [0.05, 0.1], CFG, n_bits=2000, seed=4, noise_sigma=0.012,
            max_workers=2,
        )
        assert seq == par
        assert [r.amplitude for r in par] == [0.05, 0.1]

    @pytest.mark.parametrize(
        "recv_params, batch_samples",
        [
            (None, link.RECEIVE_BATCH_SAMPLES),
            (MISMATCHED, link.RECEIVE_BATCH_SAMPLES),
            (None, 1),
        ],
        ids=["one-batch", "one-batch-mismatch", "frame-per-batch"],
    )
    def test_sweep_point_is_run_link_on_its_sub_seed(
        self, monkeypatch, recv_params, batch_samples
    ):
        """The frames of one sweep pass equal the single-frame chain, point by point."""
        monkeypatch.setattr(link, "RECEIVE_BATCH_SAMPLES", batch_samples)
        amplitudes = [0.05, 0.075, 0.1]
        sweep = ber_sweep(
            PARAMS, amplitudes, CFG, n_bits=1500, seed=9, noise_sigma=0.012,
            recv_params=recv_params,
        )
        for amp, sub, point in zip(amplitudes, spawn_seeds(9, 3), sweep):
            bits = prbs(1500, seed=prbs_seed(sub))
            _, fitted, threshold, decisions = run_link(
                PARAMS, bits, ModulationConfig(amplitude=amp, samples_per_bit=50),
                seed=sub, noise_sigma=0.012, recv_params=recv_params,
            )
            assert point.errors == ber_measure(bits, decisions).errors
            assert point.threshold == threshold
            assert point.predicted_ber == float(ber_predict(fitted, threshold))

    @pytest.mark.parametrize("recv_params", [None, MISMATCHED], ids=["matched", "mismatch"])
    def test_file_path_and_simulation_path_run_one_chain(self, monkeypatch, recv_params):
        """unmask_receive on a series masked from sub-seed 0 of the master seed
        gives, byte for byte, the samples run_link and ber_sweep decide on,
        with one receiver map handed to all three."""
        sigma, seed, amplitudes = 0.012, 9, [0.05, 0.1]
        decided = []
        decide = link._decide

        def record(bits, recovered, cfg, *args):
            decided.append(recovered.copy())
            return decide(bits, recovered, cfg, *args)

        monkeypatch.setattr(link, "_decide", record)
        ber_sweep(
            PARAMS, amplitudes, CFG, n_bits=600, seed=seed, noise_sigma=sigma,
            recv_params=recv_params,
        )
        swept = decided[:]
        assert len(swept) == len(amplitudes)
        for amp, sub, in_sweep in zip(amplitudes, spawn_seeds(seed, 2), swept):
            bits = prbs(600, seed=prbs_seed(sub))
            cfg = ModulationConfig(amplitude=amp, samples_per_bit=50)
            masked = mask_transmit(PARAMS, bits, cfg, seed=spawn_seeds(sub, 3)[0])
            received = unmask_receive(masked, sub, sigma, recv_params)
            values, *_ = run_link(
                PARAMS, bits, cfg, seed=sub, noise_sigma=sigma, recv_params=recv_params,
                filtered=False,
            )
            assert received.tobytes() == in_sweep.tobytes()
            assert received.tobytes() == values.tobytes()

    def test_sweep_holds_one_batch_of_frames(self, monkeypatch):
        """Frames are received a batch at a time, each transmitted series is
        dropped once it has gone through the channel, and each point's
        samples are dropped once decided. So peak memory per frame sample is
        that of run_link on one frame, about 26 B (see
        test_receive_peak_memory_per_sample). Holding the (F, n, 3)
        receiver states read about 48, and keeping each transmitted series
        through the receive as well about 56."""
        monkeypatch.setattr(link, "RECEIVE_BATCH_SAMPLES", 1)
        ber_sweep(PARAMS, [0.05], CFG, n_bits=20, seed=1, noise_sigma=0.012)
        tracemalloc.start()
        try:
            ber_sweep(PARAMS, [0.05, 0.1], CFG, n_bits=1000, seed=1, noise_sigma=0.012)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frame_samples = link.SETTLE_STEPS + (link.PILOT_BITS + 1000) * CFG.samples_per_bit
        assert peak / frame_samples <= 40
