import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.spatial import cKDTree

import chaoslink as cl
from chaoslink import _kernels
from chaoslink import analysis as an
from chaoslink.core_map import DegenerateTrajectoryError


@pytest.fixture(scope="module")
def beta0_traj():
    return cl.generate_trajectory(60_000, params=cl.SystemParams(beta=0.0), seed=5)


@pytest.fixture(scope="module")
def beta05_traj():
    return cl.generate_trajectory(60_000, params=cl.SystemParams(beta=0.5), seed=5)


class TestAnalytic:
    def test_reference_spectrum(self):
        spec = an.le_analytic(cl.SystemParams(beta=0.0))
        assert spec.exponents == pytest.approx((0.683, 0.302, -0.985), abs=1e-3)
        assert sum(spec.exponents) == pytest.approx(0.0, abs=1e-9)

    def test_beta_one_identical(self):
        a = an.le_analytic(cl.SystemParams(beta=0.0))
        b = an.le_analytic(cl.SystemParams(beta=1.0))
        assert a.exponents == b.exponents

    def test_rejects_intermediate_beta(self):
        with pytest.raises(ValueError):
            an.le_analytic(cl.SystemParams(beta=0.5))

    @given(
        st.floats(-2, -1.01),
        st.floats(0.5, 1.5),
        st.floats(-0.9, 0.9),
    )
    @settings(max_examples=50)
    def test_product_identity(self, a, b, c):
        # exp(2 sum(lambda)) equals det(A)^2 for any coefficients
        params = cl.SystemParams(a=a, b=b, c=c, beta=0.0)
        spec = an.le_analytic(params)
        det = np.linalg.det(params.matrix())
        assert np.exp(2 * sum(spec.exponents)) == pytest.approx(det**2, rel=1e-9)


class TestQr:
    def test_matches_analytic_at_constant_slope(self, beta0_traj):
        qr = an.le_qr(beta0_traj)
        ref = an.le_analytic(cl.SystemParams(beta=0.0))
        assert qr.exponents == pytest.approx(ref.exponents, abs=1e-3)
        assert qr.meta["breakpoint_fraction"] == 0.0

    def test_hyperchaos_at_symmetric_fold(self, beta05_traj):
        qr = an.le_qr(beta05_traj)
        assert qr.exponents[0] > 0 and qr.exponents[1] > 0
        # every fold slope has magnitude 2, so the sum is exactly 3 ln 2
        assert sum(qr.exponents) == pytest.approx(3 * np.log(2), abs=1e-9)

    def test_pinned_at_unstable_origin_rejected(self):
        traj = cl.generate_trajectory(100, init=[0, 0, 0], transient=0)
        with pytest.raises(DegenerateTrajectoryError):
            an.le_qr(traj)

    def test_sorted_descending(self, beta05_traj):
        exps = an.le_qr(beta05_traj).exponents
        assert list(exps) == sorted(exps, reverse=True)


class TestEckmannRuelle:
    def test_reproduces_data_driven_reference(self, beta0_traj):
        # local-linear fits on folded dynamics overestimate the positive
        # exponents relative to the exact-Jacobian value; the reference
        # data-driven estimate at this operating point is (0.925, 0.478, -0.879)
        er = an.le_eckmann_ruelle(beta0_traj.states)
        assert er.exponents[0] == pytest.approx(0.925, abs=0.1)
        assert er.exponents[1] == pytest.approx(0.478, abs=0.1)
        assert er.exponents[2] == pytest.approx(-0.879, abs=0.15)
        assert not er.meta["low_confidence"]

    def test_first_two_exponents_stable_across_asymmetry(self):
        values = []
        for beta in [0.0, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0]:
            traj = cl.generate_trajectory(
                30_000, params=cl.SystemParams(beta=beta), seed=9
            )
            er = an.le_eckmann_ruelle(traj.states, n_reference=1000)
            values.append(er.exponents)
        arr = np.array(values)
        assert np.ptp(arr[:, 0]) < 0.2
        assert np.ptp(arr[:, 1]) < 0.2

    def test_white_noise_flagged_low_confidence(self):
        rng = np.random.default_rng(3)
        noise = rng.uniform(-1, 1, size=(30_000, 3))
        er = an.le_eckmann_ruelle(noise)
        assert er.meta["low_confidence"]
        assert er.meta["fit_quality"] < 0.3

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            an.le_eckmann_ruelle(np.zeros((100, 3)))
        # three neighbors per row are too few for a local fit, so no row is used
        doubled = np.repeat(cl.generate_trajectory(1500, seed=1).states, 2, axis=0)
        with pytest.raises(DegenerateTrajectoryError, match="no usable reference points"):
            an.le_eckmann_ruelle(doubled, n_neighbors=3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_reference", [0, -5, 10.5])
    def test_refuses_bad_n_reference(self, n_reference, beta0_traj):
        message = f"n_reference must be an integer >= 1, got {n_reference!r}"
        with pytest.raises(ValueError, match=message):
            an.le_eckmann_ruelle(beta0_traj.states[:3000], n_reference=n_reference)

    @pytest.mark.parametrize(
        "n, n_neighbors, repeat",
        [(21, None, 1), (400, 398, 1), (400, 398, 2)],
        ids=["default_on_21_points", "398_on_400_points", "398_on_400_doubled_points"],
    )
    def test_neighborhood_clamped_to_the_tree(self, n, n_neighbors, repeat):
        # the tree holds n - 1 points and each query drops the point itself
        # and its successor, so at most n - 3 neighbors remain; in a doubled
        # series every point also has a neighbor at distance 0
        states = np.repeat(cl.generate_trajectory(n // repeat, seed=1).states, repeat, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            er = an.le_eckmann_ruelle(states, n_neighbors=n_neighbors, min_points=10)
        assert er.meta["n_neighbors"] == n - 3
        assert_same_spectrum(er, reference_le_eckmann_ruelle(states, n - 1, n - 3))


class TestWolf:
    def test_dominant_exponent_reference_value(self, beta0_traj):
        wolf = an.le_wolf(beta0_traj.states[:50_000])
        assert wolf.exponents[0] == pytest.approx(0.655, abs=0.05)
        assert len(wolf.exponents) == 1

    def test_cross_estimator_agreement(self, beta05_traj):
        wolf = an.le_wolf(beta05_traj.states)
        qr = an.le_qr(beta05_traj)
        assert abs(wolf.exponents[0] - qr.exponents[0]) < 0.15

    def test_contracting_dynamics_read_negative(self):
        # slowly contracting rotation (all eigenvalue magnitudes 0.98) with
        # tiny measurement noise; the decay stays above the noise floor
        theta = 0.7
        rot_z = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        phi = 0.35
        rot_x = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(phi), -np.sin(phi)],
                [0.0, np.sin(phi), np.cos(phi)],
            ]
        )
        m = 0.98 * rot_x @ rot_z
        rng = np.random.default_rng(2)
        state = np.array([1.0, -0.6, 0.8])
        points = []
        for _ in range(1500):
            state = m @ state
            points.append(state + rng.normal(0, 1e-12, 3))
        wolf = an.le_wolf(np.array(points), min_points=500)
        assert wolf.exponents[0] < -0.01

    BAD_ARGUMENTS = [
        ("n_candidates", 0, "n_candidates must be an integer >= 1, got 0"),
        ("n_candidates", -3, "n_candidates must be an integer >= 1, got -3"),
        ("n_candidates", 50.0, "n_candidates must be an integer >= 1, got 50.0"),
        ("theiler", -1, "theiler must be >= 0, got -1"),
        ("theiler", np.nan, "theiler must be >= 0, got nan"),
        ("max_separation", np.nan, "max_separation must be finite and positive, got nan"),
        ("max_separation", np.inf, "max_separation must be finite and positive, got inf"),
        ("max_separation", -1.0, "max_separation must be finite and positive, got -1.0"),
        ("max_separation", 0.0, "max_separation must be finite and positive, got 0.0"),
        ("min_separation", -1e-6, r"min_separation must lie in \[0, max_separation\), got -1e-06"),
        ("min_separation", 0.1, r"min_separation must lie in \[0, max_separation\), got 0.1"),
        ("min_separation", np.nan, r"min_separation must lie in \[0, max_separation\), got nan"),
    ]

    @pytest.mark.parametrize(
        "setting, value, message",
        BAD_ARGUMENTS,
        ids=[f"{setting}={value}" for setting, value, _ in BAD_ARGUMENTS],
    )
    def test_refuses_bad_arguments(self, setting, value, message, beta0_traj):
        with pytest.raises(ValueError, match=message):
            an.le_wolf(beta0_traj.states[:3000], **{setting: value})

    def test_peak_memory_does_not_grow(self, beta0_traj):
        """Neighbour tables are held one window of rows at a time.

        Whole-series candidate tables take about 1 KB per point, so 20 000
        more points would add some 20 MB. The only per-point array left is
        the tree's index array, 8 B per point; the bound allows twice that.
        """
        an.le_wolf(beta0_traj.states[:3000])  # warm caches outside the trace
        peaks = []
        for n in (10_000, 30_000):
            tracemalloc.start()
            try:
                an.le_wolf(beta0_traj.states[:n])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 20_000 * 16


class TestCorrelationDimension:
    def test_line_segment(self):
        t = np.linspace(0, 1, 5000)
        line = np.stack([t, 2 * t, -t], axis=1)
        fit = an.correlation_dimension(line)
        assert fit.dimension == pytest.approx(1.0, abs=0.1)

    def test_no_scaling_region_is_explicit(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(-1, 1, size=(2000, 3))
        with pytest.raises(an.NoScalingRegionError):
            an.correlation_dimension(points, radii=np.geomspace(50.0, 1000.0, 12))

    def test_error_bar_reported(self):
        t = np.linspace(0, 1, 3000)
        fit = an.correlation_dimension(np.stack([t, t, t], axis=1))
        assert fit.error >= 0.0
        assert fit.r_squared > 0.99

    def test_constant_series_named(self):
        with pytest.raises(ValueError, match="no spread"):
            an.correlation_dimension(np.ones((200, 3)))

    @pytest.mark.parametrize("max_points", [0, -1000, 8000.0])
    def test_refuses_bad_max_points(self, max_points):
        message = f"max_points must be an integer >= 1, got {max_points!r}"
        with pytest.raises(ValueError, match=message):
            an.correlation_dimension(line_segment(500), max_points=max_points)


class TestWelch:
    def test_sinusoid_peak(self):
        n = 16384
        f0 = 0.1
        x = np.sin(2 * np.pi * f0 * np.arange(n))
        psd = an.welch_psd(x)
        peak = psd.frequencies[np.argmax(psd.power)]
        assert peak == pytest.approx(f0, abs=2.0 / psd.segment_length)

    def test_zero_series(self):
        psd = an.welch_psd(np.zeros(4096))
        assert np.all(psd.power == 0.0)

    def test_parseval_consistency(self):
        traj = cl.generate_trajectory(65_536, seed=21)
        x = traj.states[:, 0]
        psd = an.welch_psd(x)
        df = psd.frequencies[1] - psd.frequencies[0]
        assert psd.power.sum() * df == pytest.approx(x.var(), rel=0.05)

    def test_map_output_nearly_white(self):
        traj = cl.generate_trajectory(65_536, seed=21)
        for column in range(3):
            psd = an.welch_psd(traj.states[:, column])
            band = (psd.frequencies >= 0.05) & (psd.frequencies <= 0.45)
            ratio_db = 10 * np.log10(psd.power[band].max() / psd.power[band].min())
            assert ratio_db < 6.0

    def test_requires_full_segment(self):
        with pytest.raises(ValueError):
            an.welch_psd(np.zeros(100), segment_length=1024)

    # (series, segment_length, overlap, fs) built from one map output
    ORACLE_CASES = {
        "map-1024-0.5": lambda w: (w, 1024, 0.5, 1.0),
        "odd-1023": lambda w: (w, 1023, 0.5, 1.0),
        "overlap-0": lambda w: (w, 1024, 0.0, 1.0),
        "overlap-0.3": lambda w: (w, 1024, 0.3, 1.0),
        "held-fs8": lambda w: (an.hold_upsample(w[:4000], 8), 8192, 0.5, 8.0),
        "ragged-tail": lambda w: (w[:5000], 1024, 0.5, 1.0),
        "one-point": lambda w: (w[:64], 1, 0.0, 2.0),
        "zero": lambda w: (np.zeros(4096), 1024, 0.5, 1.0),
    }

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_scipy_welch(self, case):
        w = cl.generate_trajectory(20_000, seed=21).w
        x, length, overlap, fs = self.ORACLE_CASES[case](w)
        psd = an.welch_psd(x, segment_length=length, overlap=overlap, fs=fs)
        freqs, power = signal.welch(
            x, fs=fs, window="hann", nperseg=length,
            noverlap=int(round(length * overlap)), scaling="density",
        )
        assert np.array_equal(psd.frequencies, freqs)
        # equal up to the order of the sums, not bit for bit
        assert np.max(np.abs(psd.power - power)) <= 1e-12 * np.max(power)
        assert psd.segment_length == length and type(psd.segment_length) is int

    BAD_ARGUMENTS = [
        ("segment_length", 1024.0, "segment_length must be an integer >= 1, got 1024.0"),
        ("segment_length", 1.5, "segment_length must be an integer >= 1, got 1.5"),
        ("segment_length", 0, "segment_length must be an integer >= 1, got 0"),
        ("overlap", np.nan, r"overlap nan gives nan overlapping samples, outside \[0, 1024\)"),
        ("overlap", 1.0, r"overlap 1.0 gives 1024 overlapping samples, outside \[0, 1024\)"),
        ("overlap", 0.9996, "overlap 0.9996 gives 1024 overlapping samples"),
        ("overlap", -0.25, "overlap -0.25 gives -256 overlapping samples"),
        ("fs", 0.0, "fs must be finite and positive, got 0.0"),
        ("fs", -8.0, "fs must be finite and positive, got -8.0"),
        ("fs", np.inf, "fs must be finite and positive, got inf"),
        ("fs", np.nan, "fs must be finite and positive, got nan"),
    ]

    @pytest.mark.parametrize(
        "setting, value, message",
        BAD_ARGUMENTS,
        ids=[f"{setting}={value}" for setting, value, _ in BAD_ARGUMENTS],
    )
    def test_refuses_bad_arguments(self, setting, value, message):
        with pytest.raises(ValueError, match=message):
            an.welch_psd(np.zeros(4096), **{setting: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_series(self, bad):
        x = np.zeros(4096)
        x[2049] = bad
        with pytest.raises(ValueError, match="series row 2049 is not finite"):
            an.welch_psd(x)


class TestZoh:
    def test_unity_at_dc(self):
        assert an.zoh_magnitude(0.0, 1.0) == 1.0

    def test_null_at_clock(self):
        assert an.zoh_magnitude(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_clock_value(self):
        assert an.zoh_magnitude(0.5, 1.0) == pytest.approx(2 / np.pi, abs=1e-12)

    def test_flat_round_trip(self):
        f = np.linspace(0.0, 0.5, 257)
        flat = np.ones_like(f)
        shaped = an.PsdEstimate(
            frequencies=f,
            power=flat * an.zoh_magnitude(f, 1.0) ** 2,
            segment_length=512,
            overlap=0.5,
        )
        comp = an.compensate_zoh(shaped, f_clk=1.0)
        assert np.allclose(comp.power, 1.0, atol=1e-12)

    def test_guard_band_rejects_near_null(self):
        f = np.array([0.2, 0.999, 1.3])
        psd = an.PsdEstimate(
            frequencies=f, power=np.ones(3), segment_length=8, overlap=0.5
        )
        comp = an.compensate_zoh(psd, f_clk=1.0)
        assert 0.999 not in comp.frequencies
        assert 0.2 in comp.frequencies

    def test_all_bins_in_guard_raises(self):
        psd = an.PsdEstimate(
            frequencies=np.array([1.0]), power=np.ones(1), segment_length=8, overlap=0.5
        )
        with pytest.raises(ValueError):
            an.compensate_zoh(psd, f_clk=1.0)

    @pytest.mark.parametrize("f_clk", [0.0, -1.0, np.nan, np.inf])
    def test_magnitude_refuses_bad_clock(self, f_clk):
        with pytest.raises(ValueError, match="f_clk must be finite and positive"):
            an.zoh_magnitude(0.1, f_clk)

    @pytest.mark.parametrize("f_clk", [0.0, -1.0, np.nan, np.inf])
    def test_compensate_refuses_bad_clock(self, f_clk):
        psd = an.PsdEstimate(
            frequencies=np.array([0.0, 0.2, 0.4]), power=np.ones(3),
            segment_length=8, overlap=0.5,
        )
        with pytest.raises(ValueError, match="f_clk must be finite and positive"):
            an.compensate_zoh(psd, f_clk)

    @pytest.mark.parametrize("factor", [2.5, 2.0, 0, -3])
    def test_hold_upsample_refuses_non_integer_factor(self, factor):
        with pytest.raises(ValueError, match=f"factor must be an integer >= 1, got {factor}"):
            an.hold_upsample(np.arange(4.0), factor)

    def test_held_output_flattened(self):
        traj = cl.generate_trajectory(30_000, seed=21)
        held = an.hold_upsample(traj.w, 8)
        psd = an.welch_psd(held, segment_length=8192, fs=8.0)
        band = (psd.frequencies >= 0.05) & (psd.frequencies <= 0.45)

        def ripple(estimate):
            mask = (estimate.frequencies >= 0.05) & (estimate.frequencies <= 0.45)
            return 10 * np.log10(
                estimate.power[mask].max() / estimate.power[mask].min()
            )

        compensated = an.compensate_zoh(psd, f_clk=1.0)
        assert ripple(compensated) < 6.0
        assert ripple(compensated) < 10 * np.log10(
            psd.power[band].max() / psd.power[band].min()
        )


class TestSettling:
    def test_strong_damping_kills_all_exponents(self):
        rows = an.le_vs_settling(cl.DEFAULT_PARAMS, [0.8], n=30_000, seed=3)
        assert all(v < 0 for v in rows[0][1].exponents)

    def test_long_hold_time_matches_ideal(self):
        ideal = an.le_qr(cl.generate_trajectory(50_000, seed=3))
        rows = an.le_vs_settling(cl.DEFAULT_PARAMS, [50.0], n=50_000, seed=3)
        assert rows[0][1].exponents == pytest.approx(ideal.exponents, abs=0.01)

    def test_monotone_on_chaotic_branch(self):
        grid = [1.5, 2.0, 3.0, 7.37]
        rows = an.le_vs_settling(cl.DEFAULT_PARAMS, grid, n=50_000, seed=3)
        for k in range(3):
            series = [spec.exponents[k] for _, spec in rows]
            assert all(b >= a - 0.02 for a, b in zip(series, series[1:]))

    def test_rejects_nonpositive_hold_times(self):
        with pytest.raises(ValueError):
            an.le_vs_settling(cl.DEFAULT_PARAMS, [0.0], n=1000, seed=0)


# ---------------------------------------------------------------------------
# Reference implementations: the straightforward loops the fast estimators
# replaced. Correlation dimension, Wolf and Eckmann-Ruelle must match them bit
# for bit; the float-boundary QR kernel to a fixed tolerance.


def reference_pair_counts(states, radii):
    """Chunked distance matrix -> histogram: ordered pairs with d < r (d <= r
    at the last radius, the histogram's closed last bin), self-pairs removed."""
    n = states.shape[0]
    counts = np.zeros(radii.size, dtype=np.int64)
    edges = np.concatenate(([0.0], radii))
    sq_norms = np.sum(states**2, axis=1)
    chunk = max(1, int(2e7 // n))
    for start in range(0, n, chunk):
        block = states[start : start + chunk]
        d = np.sqrt(
            np.maximum(
                0.0,
                sq_norms[start : start + chunk, None]
                + sq_norms[None, :]
                - 2.0 * block @ states.T,
            )
        )
        hist, _ = np.histogram(d, bins=edges)
        counts += np.cumsum(hist)
    return counts - n


def brute_force_pair_counts(states, radii):
    """Difference-based distances of every ordered pair of distinct points."""
    diff = states[:, None, :] - states[None, :, :]
    d = np.sqrt(np.sum(diff**2, axis=-1))
    d = np.sort(d[~np.eye(len(states), dtype=bool)])
    inner = np.searchsorted(d, radii[:-1], side="left")  # d < r
    last = np.searchsorted(d, radii[-1:], side="right")  # d <= r
    return np.concatenate((inner, last))


def reference_le_wolf(
    series, max_separation=0.1, min_separation=1e-6, theiler=10, n_candidates=50
):
    """One tree query and one Python scoring loop per replacement."""
    states = np.asarray(series, dtype=float)
    n = states.shape[0]
    tree = cKDTree(states)

    def replacement(i, direction):
        dists, idx = tree.query(states[i], k=n_candidates)
        best = -1
        best_score = np.inf
        norm_dir = np.linalg.norm(direction)
        for d, j in zip(dists, idx):
            if j >= n - 1 or abs(j - i) <= theiler or d < min_separation:
                continue
            if d > max_separation:
                break
            if norm_dir > 0:
                cosang = np.dot(states[j] - states[i], direction) / (d * norm_dir)
                cosang = min(1.0, max(-1.0, cosang))
                score = d * (1.0 + 2.0 * np.arccos(cosang))
            else:
                score = d
            if score < best_score:
                best_score = score
                best = j
        if best < 0:
            for d, j in zip(dists, idx):
                if j < n - 1 and abs(j - i) > theiler and d >= min_separation:
                    return j
        return best

    i = 0
    j = replacement(0, np.zeros(3))
    if j < 0:
        raise DegenerateTrajectoryError("no admissible neighbor found")
    log_sum = 0.0
    steps = 0
    replacements = 0
    dist = np.linalg.norm(states[j] - states[i])
    while i + 1 < n and j + 1 < n:
        i += 1
        j += 1
        steps += 1
        new_dist = np.linalg.norm(states[j] - states[i])
        if new_dist > max_separation or j + 1 >= n or new_dist == 0.0:
            if new_dist > 0.0 and dist > 0.0:
                log_sum += np.log(new_dist / dist)
            direction = states[j] - states[i]
            j = replacement(i, direction)
            replacements += 1
            if j < 0:
                break
            dist = np.linalg.norm(states[j] - states[i])
    if j >= 0 and dist > 0.0:
        tail = np.linalg.norm(states[j] - states[i])
        if tail > 0.0:
            log_sum += np.log(tail / dist)
    return an.LeSpectrum(
        (log_sum / steps,), method="wolf", sample_count=steps,
        meta={"replacements": replacements},
    )


def reference_le_eckmann_ruelle(series, n_reference, n_neighbors):
    """One tree query per reference point."""
    states = np.asarray(series, dtype=float)
    tree = cKDTree(states[:-1])
    q = np.eye(3)
    sums = np.zeros(3)
    used = 0
    resid_power = 0.0
    target_power = 0.0
    for i in range(n_reference):
        dists, idx = tree.query(states[i], k=n_neighbors + 2)
        keep = idx[(idx != i) & (idx != i + 1)][:n_neighbors]
        if keep.size < 4:
            continue
        dx = states[keep] - states[i]
        dy = states[keep + 1] - states[i + 1]
        jac, res, rank, _ = np.linalg.lstsq(dx, dy, rcond=None)
        if rank < 3:
            continue
        pred = dx @ jac
        resid_power += np.sum((dy - pred) ** 2)
        target_power += np.sum(dy**2)
        q, r = np.linalg.qr(jac.T @ q)
        diag = np.abs(np.diag(r))
        if np.any(diag == 0.0):
            continue
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs
        sums += np.log(diag)
        used += 1
    fit_quality = 1.0 - resid_power / target_power if target_power > 0 else 0.0
    return an.LeSpectrum(
        tuple(np.sort(sums / used)[::-1]),
        method="eckmann-ruelle",
        sample_count=used,
        meta={
            "n_neighbors": n_neighbors,
            "coverage": used / n_reference,
            "fit_quality": fit_quality,
            "low_confidence": bool(fit_quality < 0.3),
        },
    )


def reference_qr_log_sums(states, a, b, c, beta, weight):
    """Per-step 3x3 numpy arrays, J @ Q by matmul, Gram-Schmidt by loops."""
    n = states.shape[0]
    q = np.eye(3)
    sums = np.zeros(3)
    bp = 0
    for k in range(n):
        x, y, z = states[k]
        s0, h0 = _kernels.fold_slope_scalar(a * x + b * z, beta)
        s1, h1 = _kernels.fold_slope_scalar(c * y + z, beta)
        s2, h2 = _kernels.fold_slope_scalar(x + y, beta)
        if h0 or h1 or h2:
            bp += 1
        j = np.array(
            [
                [weight * s0 * a, 0.0, weight * s0 * b],
                [0.0, weight * s1 * c, weight * s1],
                [weight * s2, weight * s2, 0.0],
            ]
        )
        if weight != 1.0:
            j += (1.0 - weight) * np.eye(3)
        m = j @ q
        for col in range(3):
            for prev in range(col):
                m[:, col] -= (m[:, col] @ q[:, prev]) * q[:, prev]
            norm = np.sqrt(np.sum(m[:, col] ** 2))
            if norm <= 0.0:
                return sums, k, bp
            sums[col] += np.log(norm)
            q[:, col] = m[:, col] / norm
    return sums, n, bp


ORACLE_BETAS = [0.0, 0.3, 0.5, 1.0]


@pytest.fixture(scope="module")
def oracle_trajectories():
    return {
        beta: cl.generate_trajectory(6_000, params=cl.SystemParams(beta=beta), seed=17)
        for beta in ORACLE_BETAS
    }


def line_segment(n):
    t = np.linspace(0, 1, n)
    return np.stack([t, 2 * t, -t], axis=1)


def contracting_rotation():
    """The TestWolf contracting-rotation series (1500 noisy points)."""
    c, s = np.cos(0.7), np.sin(0.7)
    rot_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = np.cos(0.35), np.sin(0.35)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    m = 0.98 * rot_x @ rot_z
    rng = np.random.default_rng(2)
    state = np.array([1.0, -0.6, 0.8])
    points = []
    for _ in range(1500):
        state = m @ state
        points.append(state + rng.normal(0, 1e-12, 3))
    return np.array(points)


def assert_same_fit(fit, ref):
    assert np.array_equal(fit.radii, ref.radii)
    assert np.array_equal(fit.correlation_sums, ref.correlation_sums)
    assert fit.dimension == ref.dimension
    assert fit.error == ref.error
    assert fit.fit_window == ref.fit_window
    assert fit.r_squared == ref.r_squared


def assert_same_spectrum(spec, ref):
    assert spec.exponents == ref.exponents
    assert spec.sample_count == ref.sample_count
    assert spec.meta == ref.meta


class TestPairCountOracle:
    def fit_pair(self, monkeypatch, states, **kwargs):
        fit = an.correlation_dimension(states, **kwargs)
        monkeypatch.setattr(an, "_pair_counts", reference_pair_counts)
        return fit, an.correlation_dimension(states, **kwargs)

    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_fit_matches_histogram_reference(self, monkeypatch, oracle_trajectories, beta):
        states = oracle_trajectories[beta].states
        fit, ref = self.fit_pair(monkeypatch, states)
        assert_same_fit(fit, ref)

    def test_thinned_fit_matches_histogram_reference(self, monkeypatch, oracle_trajectories):
        fit, ref = self.fit_pair(monkeypatch, oracle_trajectories[0.5].states, max_points=2500)
        assert_same_fit(fit, ref)

    def test_line_segment_matches_histogram_reference(self, monkeypatch):
        fit, ref = self.fit_pair(monkeypatch, line_segment(5000))
        assert_same_fit(fit, ref)

    @pytest.mark.parametrize(
        "beta, repeat", [(0.0, 1), (0.5, 1), (0.5, 2)], ids=["0.0", "0.5", "0.5-doubled"]
    )
    def test_counts_match_brute_force(self, oracle_trajectories, beta, repeat):
        # a doubled set puts a pair of distinct points at distance 0
        states = np.repeat(oracle_trajectories[beta].states[: 1200 // repeat], repeat, axis=0)
        radii = np.geomspace(0.08, 0.55, 24) * np.std(states)
        counts = an._pair_counts(states, radii)
        assert np.array_equal(counts, brute_force_pair_counts(states, radii))
        assert np.array_equal(counts, reference_pair_counts(states, radii))

    def test_exact_ties_follow_the_histogram_edges(self):
        # integer lattice: many pairs lie exactly on a radius; inner radii
        # exclude them (d < r), the last radius includes them (d <= r)
        grid = np.arange(5.0)
        states = np.stack(np.meshgrid(grid, grid, grid), axis=-1).reshape(-1, 3)
        radii = np.sqrt([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
        counts = an._pair_counts(states, radii)
        assert np.array_equal(counts, brute_force_pair_counts(states, radii))
        assert np.array_equal(counts, reference_pair_counts(states, radii))
        assert counts[0] == 0  # no two lattice points are closer than 1


class TestWolfOracle:
    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_matches_loop_reference(self, oracle_trajectories, beta):
        states = oracle_trajectories[beta].states
        assert_same_spectrum(an.le_wolf(states), reference_le_wolf(states))

    def test_line_segment(self):
        states = line_segment(3000)
        assert_same_spectrum(an.le_wolf(states), reference_le_wolf(states))

    def test_contracting_rotation(self):
        states = contracting_rotation()
        assert_same_spectrum(
            an.le_wolf(states, min_points=500), reference_le_wolf(states)
        )

    def test_fewer_points_than_candidates(self, oracle_trajectories):
        # 40 points, 50 candidates: the query pads every row with index n
        states = oracle_trajectories[0.5].states[:40]
        wolf = an.le_wolf(states, max_separation=1.0, theiler=2, min_points=10)
        ref = reference_le_wolf(states, max_separation=1.0, theiler=2)
        assert_same_spectrum(wolf, ref)
        assert wolf.meta["replacements"] > 0

    @pytest.mark.parametrize("max_separation", [1.0, 2.0, 3.0])
    def test_tied_distances(self, max_separation):
        # a random walk on a 6x6x6 integer lattice: every row holds many
        # candidates at equal distances, some exactly at max_separation, and
        # repeated points; the order of equal distances must be the
        # unbounded query's
        rng = np.random.default_rng(0)
        steps = np.eye(3)[rng.integers(0, 3, 600)] * rng.choice([-1.0, 1.0], (600, 1))
        states = np.cumsum(steps, axis=0) % 6
        wolf = an.le_wolf(states, max_separation=max_separation, theiler=2, min_points=10)
        ref = reference_le_wolf(states, max_separation=max_separation, theiler=2)
        assert_same_spectrum(wolf, ref)

    def test_small_windows(self, monkeypatch, oracle_trajectories):
        # the table is queried again at many fiducial rows, none aligned
        states = oracle_trajectories[0.5].states
        monkeypatch.setattr(an, "WOLF_WINDOW_ROWS", 7)
        assert_same_spectrum(an.le_wolf(states), reference_le_wolf(states))

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_rows_past_the_bound_fall_back(self, monkeypatch, oracle_trajectories, beta):
        # at this max_separation most visited rows, but not all, hold no
        # admissible candidate inside the bounded query, so replacement() asks
        # the tree again for that one point, without a bound
        fallbacks = []

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                if np.ndim(x) == 1:
                    fallbacks.append(kwargs.get("distance_upper_bound", np.inf))
                return super().query(x, *args, **kwargs)

        # le_wolf imports the tree class from scipy.spatial when it is called
        monkeypatch.setattr("scipy.spatial.cKDTree", CountingTree)
        states = oracle_trajectories[beta].states
        wolf = an.le_wolf(states, max_separation=0.03)
        assert_same_spectrum(wolf, reference_le_wolf(states, max_separation=0.03))
        assert 0 < len(fallbacks) < wolf.meta["replacements"]
        assert all(bound == np.inf for bound in fallbacks)


class TestEckmannRuelleOracle:
    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_matches_loop_reference(self, oracle_trajectories, beta):
        states = oracle_trajectories[beta].states
        er = an.le_eckmann_ruelle(states, n_reference=800)
        ref = reference_le_eckmann_ruelle(states, 800, er.meta["n_neighbors"])
        assert_same_spectrum(er, ref)

    def test_small_windows(self, monkeypatch, oracle_trajectories):
        # 800 reference points in windows of 7: a short last window
        states = oracle_trajectories[0.5].states
        monkeypatch.setattr(an, "ER_WINDOW_ROWS", 7)
        er = an.le_eckmann_ruelle(states, n_reference=800)
        ref = reference_le_eckmann_ruelle(states, 800, er.meta["n_neighbors"])
        assert_same_spectrum(er, ref)

    def test_contracting_rotation(self):
        states = contracting_rotation()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            er = an.le_eckmann_ruelle(states, n_reference=600, min_points=500)
        ref = reference_le_eckmann_ruelle(states, 600, er.meta["n_neighbors"])
        assert_same_spectrum(er, ref)


class TestQrKernelOracle:
    """Float-boundary QR against the numpy-matmul kernel: J @ Q by BLAS may
    fuse or reorder the three products, so exponents agree to 1e-12."""

    def compare(self, monkeypatch, traj):
        spec = an.le_qr(traj)
        monkeypatch.setattr(_kernels, "qr_log_sums", reference_qr_log_sums)
        ref = an.le_qr(traj)
        assert spec.sample_count == ref.sample_count
        assert spec.meta == ref.meta
        assert spec.exponents == pytest.approx(ref.exponents, abs=1e-12, rel=0)

    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_matches_matmul_reference(self, monkeypatch, oracle_trajectories, beta):
        self.compare(monkeypatch, oracle_trajectories[beta])

    def test_settling_trajectory(self, monkeypatch):
        traj = cl.generate_trajectory(
            6_000, seed=17, settling=cl.SettlingConfig(t_n=2.0)
        )
        self.compare(monkeypatch, traj)

    def test_breakpoints_counted_like_reference(self, monkeypatch):
        # beta = 0 at the wrap boundary: x + y = -1 is a breakpoint
        states = np.tile([[-0.5, -0.5, 0.25], [0.1, -0.2, 0.3]], (20, 1))
        traj = cl.Trajectory(states=states, params=cl.SystemParams(beta=0.0))
        spec = an.le_qr(traj)
        assert spec.meta["breakpoint_fraction"] == 0.5
        self.compare(monkeypatch, traj)


class TestNonFiniteSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_correlation_dimension(self, bad):
        states = line_segment(500)
        states[123, 1] = bad
        with pytest.raises(ValueError, match="series row 123 is not finite"):
            an.correlation_dimension(states)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_le_wolf(self, bad, beta0_traj):
        states = beta0_traj.states[:3000].copy()
        states[2999, 2] = bad
        with pytest.raises(ValueError, match="series row 2999 is not finite"):
            an.le_wolf(states)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_le_eckmann_ruelle(self, bad, beta0_traj):
        states = beta0_traj.states[:3000].copy()
        states[0, 0] = bad
        with pytest.raises(ValueError, match="series row 0 is not finite"):
            an.le_eckmann_ruelle(states)

    # at radius 0 the inner count (d < 0) must be empty, and log(0) has no fit
    @pytest.mark.parametrize("radius", [np.nan, np.inf, -0.1, 0.0])
    def test_correlation_dimension_radii(self, radius):
        radii = np.append(np.geomspace(0.01, 0.1, 8), radius)
        with pytest.raises(ValueError, match="radii must be finite and positive"):
            an.correlation_dimension(line_segment(500), radii=radii)
