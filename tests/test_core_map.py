import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslink as cl
from chaoslink.core_map import spawn_seeds
from test_kernels import reference_trajectory


def one_step(state, params=cl.DEFAULT_PARAMS, settling=None):
    """The state after one map step from ``state``, no transient."""
    traj = cl.generate_trajectory(
        2, params=params, init=state, settling=settling, transient=0
    )
    return traj.states[1]


class TestWrapUnit:
    """The floored wrap into [-1, 1), which is the whole fold at beta = 0."""

    def test_identity_region(self):
        assert cl.fold(0.0, 0.0) == 0.0

    def test_wraps_above(self):
        assert cl.fold(1.75, 0.0) == pytest.approx(-0.25, abs=1e-15)

    def test_floored_convention_at_minus_one(self):
        # mod(-1 + 1, 2) - 1 = -1 under floored modulo
        assert cl.fold(-1.0, 0.0) == -1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cl.fold(float("nan"), 0.0)
        with pytest.raises(ValueError):
            cl.fold(np.array([0.0, np.inf]), 0.0)

    @given(st.floats(-1e6, 1e6))
    def test_range(self, x):
        g = cl.fold(x, 0.0)
        assert -1.0 <= g < 1.0


class TestFold:
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_origin_fixed_point(self, beta):
        assert cl.fold(0.0, beta) == 0.0

    def test_central_branch(self):
        assert cl.fold(0.25, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_upper_branch(self):
        assert cl.fold(0.75, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_wrap_then_lower_branch(self):
        # wrap(1) = -1, then (-1 - (-1)) / beta = 0
        assert cl.fold(1.0, 0.5) == 0.0

    @given(st.floats(-100, 100), st.floats(0, 1))
    def test_range(self, x, beta):
        assert -1.0 <= cl.fold(x, beta) <= 1.0

    @given(
        st.floats(-3, 3),
        st.floats(-1e-4, 1e-4),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=300)
    def test_piecewise_lipschitz(self, x, eps, beta):
        bound = max(1.0 / (1.0 - beta), 1.0 / beta)
        diff = abs(cl.fold(x + eps, beta) - cl.fold(x, beta))
        assert diff <= bound * abs(eps) + 1e-12

    def test_symmetric_slopes_are_two(self):
        # finite differences on segment interiors, away from breakpoints
        interior = np.concatenate(
            [np.linspace(-0.45, 0.45, 40), np.linspace(0.55, 0.95, 20),
             np.linspace(-0.95, -0.55, 20)]
        )
        h = 1e-7
        slopes = (cl.fold(interior + h, 0.5) - cl.fold(interior - h, 0.5)) / (2 * h)
        assert np.allclose(np.abs(slopes), 2.0, atol=1e-5)

    def test_constant_slope_limits(self):
        xs = np.linspace(-0.99, 0.99, 101)
        assert np.allclose(cl.fold(xs, 0.0), xs)
        up = cl.fold(xs[xs > 0], 1.0)
        assert np.allclose(up, 1.0 - xs[xs > 0])


class TestStepIdeal:
    def test_origin_fixed(self):
        assert np.array_equal(one_step([0, 0, 0]), np.zeros(3))

    def test_hand_evaluated_example(self):
        # A @ (0.3, 0, 0) = (-0.4, 0, 0.3) -> fold -> (-0.8, 0, 0.6)
        out = one_step([0.3, 0.0, 0.0])
        assert out == pytest.approx([-0.8, 0.0, 0.6], abs=1e-15)

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    def test_stays_in_unit_cube(self, state):
        out = one_step(np.array(state))
        assert np.all(np.abs(out) <= 1.0)

    def test_default_matrix_is_volume_preserving(self):
        assert np.linalg.det(cl.DEFAULT_PARAMS.matrix()) == pytest.approx(1.0, abs=1e-12)


class TestStepNonideal:
    def test_large_hold_time_matches_ideal(self):
        s = np.array([0.3, -0.2, 0.5])
        out = one_step(s, settling=cl.SettlingConfig(t_n=50.0))
        ideal = reference_trajectory(2, cl.DEFAULT_PARAMS, s, None, 0)[1]
        assert np.allclose(out, ideal, atol=1e-12)

    def test_small_hold_time_freezes_state(self):
        s = np.array([0.3, -0.2, 0.5])
        out = one_step(s, settling=cl.SettlingConfig(t_n=1e-9))
        assert np.allclose(out, s, atol=1e-12)

    def test_exact_interpolation(self):
        s = np.array([0.3, 0.0, 0.0])
        settling = cl.SettlingConfig(t_n=1.0)
        ideal = reference_trajectory(2, cl.DEFAULT_PARAMS, s, None, 0)[1]
        expected = s + (ideal - s) * (1.0 - math.exp(-1.0)) ** 2
        assert np.array_equal(one_step(s, settling=settling), expected)

    def test_weight_in_unit_interval(self):
        assert 0.0 < cl.SettlingConfig(t_n=0.01).weight < 1.0
        assert 0.0 < cl.SettlingConfig(t_n=20.0).weight < 1.0

    def test_rejects_nonpositive_hold_time(self):
        with pytest.raises(ValueError):
            cl.SettlingConfig(t_n=0.0)


class TestJacobian:
    def test_beta_zero_gives_plus_a(self):
        p = cl.SystemParams(beta=0.0)
        s = np.array([0.3, -0.4, 0.2])
        assert np.array_equal(cl.jacobian_at(s, p), p.matrix())

    def test_beta_one_gives_minus_a(self):
        p = cl.SystemParams(beta=1.0)
        s = np.array([0.3, -0.4, 0.2])
        assert np.array_equal(cl.jacobian_at(s, p), -p.matrix())

    def test_branch_classification(self):
        # components of A @ s at (0.25, 0.1, -0.8): central, central, outer
        p = cl.DEFAULT_PARAMS
        s = np.linalg.solve(p.matrix(), np.array([0.25, 0.1, -0.8]))
        jac = cl.jacobian_at(s, p)
        expected = np.diag([2.0, 2.0, -2.0]) @ p.matrix()
        assert np.allclose(jac, expected, atol=1e-12)

    def test_exact_breakpoint_is_flagged(self):
        # s0 + s1 = 0.5 exactly puts the third fold argument on the boundary,
        # which keeps the central-branch slope
        s = np.array([0.25, 0.25, 0.0])
        jac = cl.jacobian_at(s, cl.DEFAULT_PARAMS)
        assert jac[2, 0] == pytest.approx(2.0)

    def test_fold_slopes_flag(self):
        slopes, hits = cl.fold_slopes([0.5, 0.2, 0.7], 0.5)
        assert list(hits) == [True, False, False]
        assert slopes == pytest.approx([2.0, 2.0, -2.0])


class TestDriveOutput:
    def test_zero_state(self):
        assert cl.drive_output([0.0, 0.0, 0.0], -1.0) == 0.0

    def test_arithmetic(self):
        assert cl.drive_output([1.0, 0.0, 0.5], -1.0) == pytest.approx(-0.5)

    def test_long_run_mean_near_zero(self):
        traj = cl.generate_trajectory(100_000, seed=42)
        assert abs(traj.w.mean()) < 0.05


class TestGenerateTrajectory:
    def test_origin_stays_pinned(self):
        traj = cl.generate_trajectory(100, init=[0, 0, 0], transient=0)
        assert np.all(traj.states == 0.0)

    def test_bounded(self):
        traj = cl.generate_trajectory(10_000, seed=3)
        assert np.all(np.abs(traj.states) <= 1.0)

    def test_bit_reproducible(self):
        a = cl.generate_trajectory(5_000, seed=11)
        b = cl.generate_trajectory(5_000, seed=11)
        assert np.array_equal(a.states, b.states)

    def test_replayable_stepwise(self):
        traj = cl.generate_trajectory(200, seed=7, transient=10)
        for k in range(0, 199, 13):
            expected = reference_trajectory(2, traj.params, traj.states[k], None, 0)[1]
            assert np.array_equal(expected, traj.states[k + 1])

    def test_nonideal_mode_recorded_and_replayable(self):
        settling = cl.SettlingConfig(t_n=2.0)
        traj = cl.generate_trajectory(100, seed=5, settling=settling, transient=50)
        assert traj.mode == "non-ideal(t_n=2.0)"
        for k in (0, 50, 98):
            expected = reference_trajectory(2, traj.params, traj.states[k], settling, 0)[1]
            assert np.array_equal(expected, traj.states[k + 1])

    def test_requires_init_or_seed(self):
        with pytest.raises(ValueError):
            cl.generate_trajectory(10)

    def test_seed_recorded(self):
        assert cl.generate_trajectory(10, seed=9).seed == 9


class TestSpawnSeeds:
    def test_distinct_32_bit_integers(self):
        seeds = spawn_seeds(7, 5)
        assert len(set(seeds)) == 5
        assert all(type(s) is int and 0 <= s < 2**32 for s in seeds)

    def test_prefix_stable(self):
        # sub-seed k does not depend on how many are split off
        assert spawn_seeds(7, 5)[:3] == spawn_seeds(7, 3)


class TestParams:
    def test_beta_validated(self):
        with pytest.raises(ValueError):
            cl.SystemParams(beta=1.5)
        with pytest.raises(ValueError):
            cl.SystemParams(beta=-0.1)

    def test_defaults_match_operating_point(self):
        p = cl.DEFAULT_PARAMS
        assert (p.a, p.b, p.c, p.beta, p.gamma) == (-4.0 / 3.0, 1.0, 1.0 / 3.0, 0.5, -1.0)
