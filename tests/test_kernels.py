"""Oracle tests: the fast PRBS, transmitter and receiver paths against plain references."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chaoslink as cl
from chaoslink import _kernels, sync
from chaoslink.core_map import _fold_unchecked, fold, generate_trajectory, random_initial_state
from chaoslink.link import (
    LFSR_TAPS,
    ModulationConfig,
    channel_awgn,
    mask_transmit,
    prbs,
)
from chaoslink.params import SettlingConfig

P = cl.DEFAULT_PARAMS


def register_bits(length, seed, degree):
    """Bit-by-bit Fibonacci register: output the MSB, shift in the tap XOR."""
    taps = LFSR_TAPS[degree]
    mask = (1 << degree) - 1
    state = seed & mask
    out = []
    for _ in range(length):
        feedback = 0
        for t in taps:
            feedback ^= state >> (t - 1)
        out.append((state >> (degree - 1)) & 1)
        state = ((state << 1) | (feedback & 1)) & mask
    return np.array(out, dtype=np.uint8)


class TestPrbsOracle:
    @pytest.mark.parametrize("degree", sorted(LFSR_TAPS))
    def test_matches_register(self, degree):
        step = min(LFSR_TAPS[degree])
        ragged = degree + 3 * step + 1  # not a whole number of recurrence slices
        assert (ragged - degree) % step != 0
        # the stride doubles where the written prefix reaches degree * 2**j
        doublings = [degree * 2**j + d for j in range(1, 5) for d in (-1, 0, 1)]
        lengths = [1, degree - 1, degree, ragged, 100_000, *doublings]
        for length in (n for n in lengths if n >= 1):
            for seed in (1, 0b101, (1 << degree) - 1):
                got = prbs(length, seed=seed, degree=degree)
                assert got.dtype == np.uint8
                assert np.array_equal(got, register_bits(length, seed, degree)), (
                    degree,
                    length,
                    seed,
                )


BETAS = [0.0, 0.25, 0.5, 0.8, 1.0]
EDGES = [
    0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.25, -0.25, 0.75, -0.75, 0.2, -0.2,
    1.0 - 2.0**-53, -1.0 + 2.0**-53, 1.0 + 2.0**-52, -1.0 - 2.0**-52, -3.0 - 2.0**-51,
    2.0**-1074, -(2.0**-1074), 2.0**53, -(2.0**53) - 2.0, 1e300, -1.7976931348623157e308,
]


def scalar_fold(values, beta):
    return np.array([_kernels.fold_scalar(float(v), beta) for v in values])


class TestFoldOracle:
    """The vector fold used by the lockstep receiver equals the kernels' scalar fold."""

    @pytest.mark.parametrize("beta", BETAS)
    def test_edge_values(self, beta):
        u = np.array(EDGES)
        assert _fold_unchecked(u, beta).tobytes() == scalar_fold(u, beta).tobytes()

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        st.sampled_from(BETAS),
    )
    def test_any_finite_input(self, values, beta):
        u = np.array(values)
        assert _fold_unchecked(u, beta).tobytes() == scalar_fold(u, beta).tobytes()

    @given(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=40), st.sampled_from(BETAS))
    def test_operating_range(self, values, beta):
        u = np.array(values)
        assert _fold_unchecked(u, beta).tobytes() == scalar_fold(u, beta).tobytes()


def reference_transmit(params, info, start):
    """mask_transmit's loop, one sample at a time on core_map.fold."""
    x, y, z = start
    w_clean = np.empty(info.size)
    w_star = np.empty(info.size)
    for k, i in enumerate(info):
        zs = z + i
        w_clean[k] = params.gamma * x + z
        w_star[k] = w_clean[k] + i
        x, y, z = (
            fold(params.a * x + params.b * zs, params.beta),
            fold(params.c * y + zs, params.beta),
            fold(x + y, params.beta),
        )
    return w_clean, w_star


CHUNK = _kernels.CHUNK


class TestMaskTransmitOracle:
    @pytest.mark.parametrize(
        "params",
        [P, P.replace(beta=0.0), P.replace(beta=1.0), P.replace(beta=0.3, c=0.25, gamma=-4 / 3)],
        ids=["beta0.5", "beta0", "beta1", "beta0.3"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_stepwise_fold(self, params, seed):
        start = generate_trajectory(1, params=params, seed=seed).states[0]
        for samples_per_bit in (1, 5, 50):
            cfg = ModulationConfig(amplitude=0.07, samples_per_bit=samples_per_bit)
            bits = prbs(1500 // samples_per_bit, seed=seed + 1)
            masked = mask_transmit(params, bits, cfg, seed=seed, settle_steps=50)
            w_clean, w_star = reference_transmit(params, masked.info, start)
            assert masked.w_clean.tobytes() == w_clean.tobytes(), samples_per_bit
            assert masked.w_star.tobytes() == w_star.tobytes(), samples_per_bit

    @pytest.mark.parametrize(
        "length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7], ids=["c-1", "c", "c+1", "2c+7"]
    )
    def test_chunk_seams(self, length):
        """The series is cut into kernel calls of CHUNK samples; seams must not show."""
        cfg = ModulationConfig(amplitude=0.1, samples_per_bit=1)
        bits = prbs(50, seed=5)
        masked = mask_transmit(P, bits, cfg, seed=4, settle_steps=length - 51)
        assert masked.w_star.size == length
        start = generate_trajectory(1, params=P, seed=4).states[0]
        w_clean, w_star = reference_transmit(P, masked.info, start)
        assert masked.w_clean.tobytes() == w_clean.tobytes()
        assert masked.w_star.tobytes() == w_star.tobytes()


# fold arguments the first transmitter step is steered onto; the larger EDGES
# overflow a*x on later steps and end the reference in a non-finite fold
FIRST_STEP_EDGES = [e for e in EDGES if abs(e) <= 2.0**53] + [-1e-20]


def branch_edges(beta):
    """Arguments at and one ulp either side of the fold's branch points +-(1 - beta)."""
    hi = 1.0 - beta
    return [
        edge
        for point in (hi, -hi)
        for edge in (point, math.nextafter(point, math.inf), math.nextafter(point, -math.inf))
    ]


def negated_zero(coefficient):
    """A signed zero whose product with ``coefficient`` is -0.0."""
    return -0.0 if math.copysign(1.0, coefficient) > 0 else 0.0


def steer_first_step(params, which, target, x, y, z, i0):
    """Start state and info[0] whose fold argument ``which`` equals ``target`` exactly.

    The transmitter's fold arguments are ``a*x + b*(z + i0)``, ``c*y + (z + i0)``
    and ``x + y``. Adding -0.0 leaves every float unchanged, so a zero term
    with the right sign passes ``target`` through bit for bit. ``i0`` is kept
    when ``z = target - i0`` gives ``z + i0 == target`` exactly.
    """
    if which == 2:
        return target, -0.0, z, i0
    if ((target - i0) + i0).hex() == target.hex():
        z = target - i0
    else:
        z, i0 = target, -0.0
    if which == 0:
        assert params.b == 1.0  # b*(z + i0) must be exact
        return negated_zero(params.a), y, z, i0
    return x, negated_zero(params.c), z, i0


def fold_arguments(params, x, y, z, i0):
    s = z + i0
    return params.a * x + params.b * s, params.c * y + s, x + y


class TestMaskTransmitKernel:
    """The kernel's inlined folds against the stepwise core_map.fold reference."""

    @given(
        beta=st.one_of(st.sampled_from(BETAS), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        which=st.sampled_from([0, 1, 2]),
        pick=st.integers(0, 10**6),
        state=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        amplitude=st.floats(1e-3, 3.0),
        levels=st.lists(st.booleans(), min_size=1, max_size=60),
        seam=st.integers(0, 60),
    )
    def test_first_step_on_fold_edges(self, beta, which, pick, state, amplitude, levels, seam):
        params = P.replace(beta=beta)
        targets = FIRST_STEP_EDGES + branch_edges(beta)
        target = targets[pick % len(targets)]
        x, y, z, i0 = steer_first_step(params, which, target, *state, amplitude)
        assert fold_arguments(params, x, y, z, i0)[which].hex() == target.hex()
        info = np.array([i0] + [amplitude if up else -amplitude for up in levels])

        # two kernel calls, the second continuing from the first's end state;
        # neither chunk is empty, as in mask_transmit (numba cannot type an empty list)
        seam = 1 + seam % (info.size - 1)
        coefficients = (params.a, params.b, params.c, params.beta)
        xs, zs, *end = _kernels.masked_transmit_chain(info[:seam].tolist(), x, y, z, *coefficients)
        xs2, zs2, *_ = _kernels.masked_transmit_chain(info[seam:].tolist(), *end, *coefficients)
        w_clean = params.gamma * np.array(xs + xs2) + np.array(zs + zs2)
        w_star = w_clean + info

        ref_clean, ref_star = reference_transmit(params, info, (x, y, z))
        assert w_clean.tobytes() == ref_clean.tobytes()
        assert w_star.tobytes() == ref_star.tobytes()


def reference_iterate(x, y, z, a, b, c, beta, weight, transient, out):
    """The map loop before its folds were written out: fold_scalar per component."""
    for _ in range(transient):
        fx = _kernels.fold_scalar(a * x + b * z, beta)
        fy = _kernels.fold_scalar(c * y + z, beta)
        fz = _kernels.fold_scalar(x + y, beta)
        if weight == 1.0:
            x, y, z = fx, fy, fz
        else:
            x = x + (fx - x) * weight
            y = y + (fy - y) * weight
            z = z + (fz - z) * weight
    out[0] = x, y, z
    for k in range(1, out.shape[0]):
        fx = _kernels.fold_scalar(a * x + b * z, beta)
        fy = _kernels.fold_scalar(c * y + z, beta)
        fz = _kernels.fold_scalar(x + y, beta)
        if weight == 1.0:
            x, y, z = fx, fy, fz
        else:
            x = x + (fx - x) * weight
            y = y + (fy - y) * weight
            z = z + (fz - z) * weight
        out[k] = x, y, z
    return out


def reference_trajectory(n, params, start, settling, transient):
    weight = 1.0 if settling is None else settling.weight
    x, y, z = (float(v) for v in start)
    coefficients = (params.a, params.b, params.c, params.beta, weight)
    return reference_iterate(x, y, z, *coefficients, transient, np.empty((n, 3)))


SETTLING = {"ideal": None, "settling": SettlingConfig(t_n=1.5)}


class TestTrajectoryOracle:
    """generate_trajectory's chunked inlined-fold kernel against the fold_scalar loop."""

    @pytest.mark.parametrize("mode", sorted(SETTLING))
    @pytest.mark.parametrize("beta", BETAS)
    def test_chunk_seams(self, beta, mode):
        params = P.replace(beta=beta)
        settling = SETTLING[mode]
        start = random_initial_state(3)
        for transient in (0, 1000, 2 * CHUNK + 3):
            for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7):
                got = generate_trajectory(
                    n, params=params, seed=3, settling=settling, transient=transient
                ).states
                ref = reference_trajectory(n, params, start, settling, transient)
                assert got.tobytes() == ref.tobytes(), (transient, n)

    @pytest.mark.parametrize("mode", sorted(SETTLING))
    @pytest.mark.parametrize("beta", BETAS)
    def test_origin_stays_fixed(self, beta, mode):
        # every fold argument is 0 on every step, transient and recorded: at
        # beta = 1 that is the undefined point, which maps to 0
        for transient in (0, 3):
            got = generate_trajectory(
                5, params=P.replace(beta=beta), init=(0.0, 0.0, 0.0),
                settling=SETTLING[mode], transient=transient,
            ).states
            ref = reference_trajectory(5, P.replace(beta=beta), (0.0, 0.0, 0.0), SETTLING[mode], transient)
            assert got.tobytes() == ref.tobytes() == np.zeros((5, 3)).tobytes()

    @given(
        beta=st.one_of(st.sampled_from(BETAS), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        which=st.sampled_from([0, 1, 2]),
        pick=st.integers(0, 10**6),
        state=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        mode=st.sampled_from(sorted(SETTLING)),
        transient=st.integers(0, 3),
        n=st.integers(1, 40),
    )
    def test_first_step_on_fold_edges(self, beta, which, pick, state, mode, transient, n):
        params = P.replace(beta=beta)
        targets = FIRST_STEP_EDGES + branch_edges(beta)
        target = targets[pick % len(targets)]
        # info[0] = -0.0 leaves z + info[0] == z, so the transmitter's
        # steering also places the map's fold argument ``which`` on target
        x, y, z, _ = steer_first_step(params, which, target, *state, -0.0)
        assert fold_arguments(params, x, y, z, -0.0)[which].hex() == target.hex()
        settling = SETTLING[mode]
        got = generate_trajectory(
            n, params=params, init=(x, y, z), settling=settling, transient=transient
        ).states
        ref = reference_trajectory(n, params, (x, y, z), settling, transient)
        assert got.tobytes() == ref.tobytes()


def chain(w, init, params):
    """The sequential receiver kernel: the oracle for receiver_run."""
    out = np.empty((w.size, 3))
    _kernels.receiver_chain(
        w, *init, params.a, params.b, params.c, params.beta, params.gamma, out
    )
    return out


def drive(n, params=P, sigma=0.0, seed=3):
    bits = prbs(n, seed=seed + 1)
    cfg = ModulationConfig(amplitude=0.07, samples_per_bit=1)
    masked = mask_transmit(params, bits, cfg, seed=seed)
    return channel_awgn(masked.w_star, sigma, seed=seed + 1)


class TestReceiverRunOracle:
    """receiver_run must equal the sequential kernel byte for byte."""

    @pytest.fixture(autouse=True)
    def interpreted(self, monkeypatch):
        """Count block-path calls; take the block path under numba too."""
        monkeypatch.setattr(sync._kernels, "HAVE_NUMBA", False)
        self.calls = {"blocks": 0, "chain": 0}
        blocks, chain_fn = sync._receiver_blocks, sync._receiver_chain

        def count_blocks(*args):
            self.calls["blocks"] += 1
            return blocks(*args)

        def count_chain(*args):
            self.calls["chain"] += 1
            return chain_fn(*args)

        monkeypatch.setattr(sync, "_receiver_blocks", count_blocks)
        monkeypatch.setattr(sync, "_receiver_chain", count_chain)

    def check(self, w, params=P, seed=11):
        init = random_initial_state(seed)
        got = sync.receiver_run(w, init, params)
        assert got.tobytes() == chain(w, init, params).tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.012])
    @pytest.mark.parametrize("n", [5000, 5003])
    def test_clean_and_noisy(self, sigma, n):
        self.check(drive(n, sigma=sigma))
        assert self.calls["blocks"] == 1

    def test_receiver_mismatch(self):
        scale = 1.002
        params = P.replace(a=P.a * scale, b=P.b * scale, c=P.c * scale)
        self.check(drive(6000, sigma=0.003), params)
        assert self.calls["blocks"] == 1

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_constant_slope_folds(self, beta):
        params = P.replace(beta=beta)
        assert sync.stability_check(params)["stable"]
        self.check(drive(6000, params, sigma=0.005), params)
        assert self.calls["blocks"] == 1

    def test_non_finite_samples(self):
        w = drive(6000)
        w[[10, 700, 3000]] = [np.nan, np.inf, -np.inf]
        self.check(w)
        self.check(w, P.replace(beta=1.0))

    def test_huge_samples(self):
        w = drive(6000)
        w[2000] = 1e308
        self.check(w)

    def test_shorter_than_two_blocks(self):
        block = sync._block_length(sync._warmup_steps(P))
        w = drive(2 * block)
        self.check(w[: 2 * block - 1])
        assert self.calls["blocks"] == 0
        self.check(w[: 2 * block])
        assert self.calls["blocks"] == 1

    def test_unstable_params(self):
        params = P.replace(gamma=-0.5)
        assert sync._warmup_steps(params) is None
        self.check(drive(6000), params)
        assert self.calls["blocks"] == 0

    def test_seams_fall_back_when_warmup_too_short(self, monkeypatch):
        monkeypatch.setattr(sync, "_warmup_steps", lambda params: 2)
        w = drive(3000, sigma=0.012)
        self.check(w)
        lanes = w.size // sync._block_length(2)
        assert self.calls["blocks"] == 1
        assert self.calls["chain"] > lanes // 2
