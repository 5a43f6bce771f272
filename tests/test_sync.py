import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslink as cl
from chaoslink.core_map import random_initial_state, spawn_seeds
from chaoslink.link import channel_awgn
from chaoslink.sync import (
    SYNC_DISCARD,
    coupled_matrix,
    fit_deviation_model,
    normalized_deviation,
    receiver_run,
    response_estimate,
    run_sync,
    stability_check,
    sync_sweep,
)

DEADBEAT = cl.DEFAULT_PARAMS.replace(gamma=-4.0 / 3.0)


class TestReceiverStep:
    def test_substitution_identity_from_equal_state(self):
        drive = cl.generate_trajectory(500, params=DEADBEAT, seed=1)
        response = receiver_run(drive.w, drive.states[0], DEADBEAT)
        assert np.allclose(response, drive.states, atol=1e-12)

    def test_deadbeat_convergence_from_distinct_state(self):
        # x-error dies in one step; the y channel contracts by 2c = 2/3 per
        # step, so reaching 1e-9 takes about fifty steps, not a handful
        drive = cl.generate_trajectory(300, params=DEADBEAT, seed=1)
        response = receiver_run(drive.w, random_initial_state(999), DEADBEAT)
        err = np.max(np.abs(response - drive.states), axis=1)
        assert err[:100].min() < 1e-9
        assert err[100:].max() < 1e-8

    def test_unstable_coupling_never_converges(self):
        params = cl.DEFAULT_PARAMS.replace(gamma=-0.5)
        drive = cl.generate_trajectory(2000, params=params, seed=1)
        response = receiver_run(drive.w, random_initial_state(999), params)
        err = np.max(np.abs(response - drive.states), axis=1)
        assert err[100:].min() > 0.01


class TestCoupledMatrix:
    def test_entries(self):
        m = coupled_matrix(DEADBEAT)
        expected = np.array(
            [[-4.0 / 3.0 - 1.0 * (-4.0 / 3.0), 0, 0], [4.0 / 3.0, 1.0 / 3.0, 0], [1, 1, 0]]
        )
        assert np.allclose(m, expected)
        assert m[0, 0] == pytest.approx(0.0)

    def test_gamma_zero_reduction(self):
        m = coupled_matrix(cl.DEFAULT_PARAMS.replace(gamma=0.0))
        assert m[0, 0] == pytest.approx(cl.DEFAULT_PARAMS.a)
        assert m[1, 0] == 0.0

    @given(
        st.floats(-3, 3),
        st.floats(-2, 2),
        st.floats(-1, 1),
        st.floats(-3, 3),
    )
    @settings(max_examples=100)
    def test_eigenvalues_closed_form(self, a, b, c, gamma):
        params = cl.SystemParams(a=a, b=b, c=c, beta=0.5, gamma=gamma)
        eig = np.sort_complex(np.linalg.eigvals(coupled_matrix(params)))
        expected = np.sort_complex(np.array([a - b * gamma, c, 0.0]))
        assert np.allclose(eig, expected, atol=1e-9)


class TestStability:
    def test_default_gamma_window(self):
        for gamma in (-1.7, -1.33, -1.0, -0.9):
            assert stability_check(cl.DEFAULT_PARAMS.replace(gamma=gamma))["stable"]
        for gamma in (-2.0, -1.9, -0.8, -0.5):
            assert not stability_check(cl.DEFAULT_PARAMS.replace(gamma=gamma))["stable"]

    def test_beta_window_with_deadbeat_coupling(self):
        # with gamma = a the coupling condition is free, so the verdict
        # tracks |c| < min(beta, 1-beta): stable only on (1/3, 2/3) or {0, 1}
        for beta in (0.0, 0.34, 0.5, 0.66, 1.0):
            params = cl.SystemParams(beta=beta, gamma=-4.0 / 3.0)
            assert stability_check(params)["stable"], beta
        # the exact boundary |c| = min(beta, 1-beta) is float-sensitive, so
        # probe strictly outside it
        for beta in (0.2, 0.33, 0.68, 0.8):
            params = cl.SystemParams(beta=beta, gamma=-4.0 / 3.0)
            assert not stability_check(params)["stable"], beta

    def test_constant_slope_case(self):
        params = cl.SystemParams(beta=0.0, gamma=-4.0 / 3.0)
        verdict = stability_check(params)
        assert verdict["stable"]
        assert verdict["margins"]["coupling"] == pytest.approx(1.0)
        assert verdict["margins"]["c"] == pytest.approx(2.0 / 3.0)

    def test_margins_signal_distance_to_bound(self):
        verdict = stability_check(cl.DEFAULT_PARAMS)
        assert verdict["margins"]["coupling"] == pytest.approx(0.5 - 1.0 / 3.0)
        assert verdict["margins"]["c"] == pytest.approx(0.5 - 1.0 / 3.0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_coupling_noise_sigma_must_be_finite(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        run_sync(cl.DEFAULT_PARAMS, sigma, n=1000, seed=0)


class TestRunSync:
    def test_noiseless_error_tiny(self):
        run = run_sync(cl.DEFAULT_PARAMS.replace(gamma=-1.0), n=5000, seed=4)
        assert max(run.rms_error) < 1e-6
        assert min(run.correlation) > 0.999999

    def test_rms_grows_linearly_with_noise(self):
        sigmas = np.linspace(0.005, 0.05, 6)
        rms = np.array(
            [
                run_sync(DEADBEAT, float(s), n=8000, seed=8).rms_error
                for s in sigmas
            ]
        )
        for k in range(3):
            slope, intercept = np.polyfit(sigmas, rms[:, k], 1)
            pred = slope * sigmas + intercept
            ss_res = np.sum((rms[:, k] - pred) ** 2)
            ss_tot = np.sum((rms[:, k] - rms[:, k].mean()) ** 2)
            assert 1 - ss_res / ss_tot > 0.98
            assert slope > 0

    def test_noise_sensitivity_ordering(self):
        run = run_sync(DEADBEAT, 0.02, n=10_000, seed=8)
        rms_x, rms_y, rms_z = run.rms_error
        assert rms_y > rms_z > rms_x

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_splits_its_seed_as_the_link_does(self, sigma):
        """Drive from sub-seed 0, channel from 1, receiver from 2: the
        layout of the link's transmitter, channel and receiver."""
        seed, n = 5, 2000
        drive_seed, ch_seed, rx_seed = spawn_seeds(seed, 3)
        drive = cl.generate_trajectory(n + SYNC_DISCARD, params=DEADBEAT, seed=drive_seed)
        w = channel_awgn(drive.w, sigma, seed=ch_seed)
        states = receiver_run(w, random_initial_state(rx_seed), DEADBEAT)
        d = drive.states[SYNC_DISCARD:]
        r = response_estimate(w, states, DEADBEAT.gamma)[SYNC_DISCARD:]
        run = run_sync(DEADBEAT, sigma, n=n, seed=seed)
        assert run.rms_error == tuple(np.sqrt(np.mean((r - d) ** 2, axis=0)))
        assert run.correlation == tuple(
            float(np.corrcoef(d[:, k], r[:, k])[0, 1]) for k in range(3)
        )
        assert run.delta_n == normalized_deviation(d[:, 2], r[:, 2])
        assert run.samples == n

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            run_sync(cl.DEFAULT_PARAMS, n=100, seed=0)


class TestNormalizedDeviation:
    def test_scaling_halves_under_doubling(self):
        rng = np.random.default_rng(0)
        z1 = rng.normal(0, 1, 4000)
        z2 = z1 + rng.normal(0, 0.1, 4000)
        base = normalized_deviation(z1, z2)
        assert normalized_deviation(2 * z1, 2 * z2) == pytest.approx(base / 2, rel=1e-12)

    def test_rejects_degenerate_series(self):
        with pytest.raises(ValueError):
            normalized_deviation(np.ones(100), np.ones(100))


class TestDeviationModel:
    def test_exact_recovery(self):
        a, b = 0.1, 2.0
        sigmas = np.linspace(0.0, 0.1, 9)
        deltas = np.sqrt(a**2 + (sigmas * b) ** 2)
        fit = fit_deviation_model(list(zip(sigmas, deltas)))
        assert fit.a == pytest.approx(a, abs=1e-6)
        assert fit.b == pytest.approx(b, abs=1e-6)
        assert fit.residual < 1e-12

    def test_simulated_sweep_fits_well(self):
        points = []
        for k, sigma in enumerate(np.linspace(0.0, 0.05, 8)):
            run = run_sync(DEADBEAT, float(sigma), n=8000, seed=15 + k)
            points.append((sigma, run.delta_n))
        fit = fit_deviation_model(points)
        mean_sq = np.mean([d**2 for _, d in points])
        assert fit.residual < 0.1 * mean_sq
        assert fit.r_squared > 0.95

    def test_underdetermined_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_deviation_model([(0.1, 0.2), (0.1, 0.21), (0.1, 0.19)])
        with pytest.raises(ValueError):
            fit_deviation_model([(0.1, 0.2), (0.2, 0.3)])


class TestSyncSweep:
    def test_stable_vs_unstable_points(self):
        points = sync_sweep(
            cl.DEFAULT_PARAMS, gammas=[-1.3, -0.5], sigmas=[0.0], n=5000, seed=6
        )
        by_gamma = {p["gamma"]: p["run"] for p in points}
        assert by_gamma[-1.3].rms_error[0] < 1e-3
        assert by_gamma[-0.5].rms_error[0] > 0.1

    def test_boundary_sharpening(self):
        delta = 0.05
        points = sync_sweep(
            cl.DEFAULT_PARAMS,
            gammas=[-5.0 / 6.0 - delta, -5.0 / 6.0 + delta],
            sigmas=[0.0],
            n=8000,
            seed=2,
        )
        inside, outside = points[0]["run"], points[1]["run"]
        assert outside.rms_error[0] > 10 * inside.rms_error[0]

    def test_verdict_matches_empirics_on_grid(self):
        agree = 0
        total = 0
        for beta in (0.4, 0.45, 0.5, 0.55, 0.6):
            for gamma in (-2.2, -1.9, -1.6, -1.3, -1.0, -0.7, -0.4):
                params = cl.SystemParams(beta=beta, gamma=gamma)
                verdict = stability_check(params)["stable"]
                run = run_sync(params, n=3000, seed=6)
                worst = max(run.rms_error)
                empirical = worst < 1e-6 if verdict else worst > 1e-2
                total += 1
                agree += bool(empirical)
        assert agree / total >= 0.95

    def test_deterministic_in_grid_order(self):
        kwargs = dict(
            gammas=[-1.5, -1.0], sigmas=[0.0, 0.02], n=3000, seed=11
        )
        first = sync_sweep(cl.DEFAULT_PARAMS, **kwargs)
        again = sync_sweep(cl.DEFAULT_PARAMS, **kwargs)
        grid = [(-1.5, 0.0), (-1.5, 0.02), (-1.0, 0.0), (-1.0, 0.02)]
        assert [(p["gamma"], p["sigma"]) for p in first] == grid
        assert [(p["gamma"], p["sigma"]) for p in again] == grid
        for a, b in zip(first, again):
            assert a["run"] == b["run"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sync_sweep(cl.DEFAULT_PARAMS, gammas=[], sigmas=[0.0])


class TestResponseEstimate:
    def test_substituted_third_component(self):
        drive = cl.generate_trajectory(200, params=DEADBEAT, seed=1)
        states = receiver_run(drive.w, drive.states[0], DEADBEAT)
        est = response_estimate(drive.w, states, DEADBEAT.gamma)
        assert np.allclose(est[:, 2], drive.states[:, 2], atol=1e-12)
        assert np.array_equal(est[:, :2], states[:, :2])
