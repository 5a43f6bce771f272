"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria use fixed seeds so results are reproducible; the stated
runtime budgets are asserted as upper bounds.
"""

import time

import numpy as np
import pytest

import chaoslink as cl
from chaoslink import _kernels, cli
from chaoslink import analysis as an
from chaoslink.codecs import (
    bits_to_packet,
    compress_audio,
    compress_image,
    dct_forward,
    dct_inverse,
    decompress_audio,
    decompress_image,
    packet_to_bits,
    read_pgm,
    relative_rms_error,
    write_pgm,
)
from chaoslink.link import (
    ModulationConfig,
    ber_measure,
    ber_sweep,
    mask_transmit,
    nrz_waveform,
    optimal_threshold,
    prbs,
    run_link,
    unmask_receive,
)
from chaoslink.signals import synth_image, synth_speech
from chaoslink.sync import fit_deviation_model, run_sync

CFG = ModulationConfig(amplitude=0.1, samples_per_bit=50)


def report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"exceeded runtime budget: {elapsed:.1f}s > {budget}s"


def test_criterion_01_analytic_spectrum():
    start = time.perf_counter()
    spec = an.le_analytic(cl.SystemParams(beta=0.0))
    values = np.array(spec.exponents)
    ok = np.allclose(values, [0.683, 0.302, -0.985], atol=1e-3) and abs(
        values.sum()
    ) < 1e-9
    report(
        "criterion 1 analytic spectrum",
        ok,
        f"exponents={np.round(values, 4)} sum={values.sum():.1e}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_02_qr_matches_analytic():
    start = time.perf_counter()
    worst = 0.0
    for beta in (0.0, 1.0):
        params = cl.SystemParams(beta=beta)
        traj = cl.generate_trajectory(100_000, params=params, seed=7)
        qr = np.array(an.le_qr(traj).exponents)
        ref = np.array(an.le_analytic(params).exponents)
        worst = max(worst, np.max(np.abs(qr - ref)))
    report(
        "criterion 2 qr-oracle agreement",
        worst < 1e-3,
        f"max |qr - analytic| = {worst:.2e}",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_03_hyperchaos_across_asymmetry():
    start = time.perf_counter()
    betas = [0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65]
    spectra = []
    for beta in betas:
        traj = cl.generate_trajectory(
            100_000, params=cl.SystemParams(beta=beta), seed=11
        )
        spectra.append(an.le_qr(traj).exponents)
    arr = np.array(spectra)
    ok = bool(np.all(arr[:, 1] > 0)) and np.ptp(arr[:, 0]) < 0.2 and np.ptp(arr[:, 1]) < 0.2
    report(
        "criterion 3 hyperchaos robustness",
        ok,
        f"lambda2 min={arr[:, 1].min():.3f}, spans=({np.ptp(arr[:, 0]):.3f}, {np.ptp(arr[:, 1]):.3f})",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_04_wolf_estimator():
    start = time.perf_counter()
    traj = cl.generate_trajectory(100_000, params=cl.SystemParams(beta=0.0), seed=5)
    wolf = an.le_wolf(traj.states)
    value = wolf.exponents[0]
    report(
        "criterion 4 wolf estimator",
        abs(value - 0.655) <= 0.05,
        f"dominant exponent = {value:.4f} (target 0.655 +- 0.05)",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_05_correlation_dimension():
    start = time.perf_counter()
    results = {}
    for beta, target in ((0.5, 2.85), (0.0, 2.72)):
        traj = cl.generate_trajectory(
            20_000, params=cl.SystemParams(beta=beta), seed=13
        )
        fit = an.correlation_dimension(traj.states)
        results[beta] = (fit.dimension, target)
    ok = all(abs(dim - target) <= 0.1 for dim, target in results.values())
    detail = ", ".join(
        f"beta={b}: {dim:.3f} (target {t})" for b, (dim, t) in results.items()
    )
    report(
        "criterion 5 correlation dimension", ok, detail, time.perf_counter() - start, 120.0
    )


def test_criterion_06_settling_damping():
    start = time.perf_counter()
    ideal = np.array(an.le_qr(cl.generate_trajectory(100_000, seed=3)).exponents)
    rows = dict(an.le_vs_settling(cl.DEFAULT_PARAMS, [0.8, 7.37], n=100_000, seed=3))
    damped = np.array(rows[0.8].exponents)
    nominal = np.array(rows[7.37].exponents)
    ok = bool(np.all(damped < 0)) and np.max(np.abs(nominal - ideal)) < 0.02
    report(
        "criterion 6 settling damping",
        ok,
        f"t_n=0.8 -> {np.round(damped, 3)}; t_n=7.37 drift={np.max(np.abs(nominal - ideal)):.4f}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_07_stability_region():
    start = time.perf_counter()
    errors = {}
    for gamma in (-1.7, -1.33, -0.9, -2.0, -0.5):
        run = run_sync(cl.DEFAULT_PARAMS.replace(gamma=gamma), n=10_000, seed=4)
        errors[gamma] = run.rms_error[0]
    ok = all(errors[g] < 1e-3 for g in (-1.7, -1.33, -0.9)) and all(
        errors[g] > 0.1 for g in (-2.0, -0.5)
    )
    detail = ", ".join(f"{g}: {e:.1e}" for g, e in errors.items())
    report("criterion 7 stability region", ok, detail, time.perf_counter() - start, 30.0)


def test_criterion_08_noise_linearity_and_ordering():
    start = time.perf_counter()
    sigmas = np.linspace(0.005, 0.05, 10)
    rms = np.array(
        [
            run_sync(
                cl.DEFAULT_PARAMS.replace(gamma=-4.0 / 3.0), float(s), n=20_000, seed=8
            ).rms_error
            for s in sigmas
        ]
    )
    r_squared = []
    for k in range(3):
        slope, intercept = np.polyfit(sigmas, rms[:, k], 1)
        pred = slope * sigmas + intercept
        r_squared.append(
            1 - np.sum((rms[:, k] - pred) ** 2) / np.sum((rms[:, k] - rms[:, k].mean()) ** 2)
        )
    ordering = bool(np.all(rms[:, 1] > rms[:, 2]) and np.all(rms[:, 2] > rms[:, 0]))
    ok = min(r_squared) > 0.98 and ordering
    report(
        "criterion 8 noise linearity",
        ok,
        f"R2={np.round(r_squared, 4)} ordering y>z>x={ordering}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_09_deviation_model():
    start = time.perf_counter()
    points = []
    for k, sigma in enumerate(np.linspace(0.0, 0.06, 13)):
        run = run_sync(
            cl.DEFAULT_PARAMS.replace(gamma=-1.0), float(sigma), n=20_000, seed=15 + k
        )
        points.append((sigma, run.delta_n))
    fit = fit_deviation_model(points)
    report(
        "criterion 9 deviation model",
        fit.r_squared > 0.95,
        f"delta_n^2 vs sigma^2 fit R2={fit.r_squared:.4f} (A={fit.a:.3f}, B={fit.b:.2f})",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_10_matched_filter_gain():
    start = time.perf_counter()
    bits = prbs(4000, seed=555)
    noise = 0.0026  # tuned so the unfiltered receiver sits near 1e-2
    _, unfiltered, _, _ = run_link(
        cl.DEFAULT_PARAMS, bits, CFG, seed=5, noise_sigma=noise, filtered=False
    )
    _, filtered, _, _ = run_link(
        cl.DEFAULT_PARAMS, bits, CFG, seed=5, noise_sigma=noise, filtered=True
    )
    ber_unfiltered = optimal_threshold(unfiltered)[1]
    ber_filtered = optimal_threshold(filtered)[1]

    def separation(s):
        return (s.mu1 - s.mu0) / np.sqrt(0.5 * (s.sigma0**2 + s.sigma1**2))

    gain = separation(filtered) / separation(unfiltered)
    root_n = np.sqrt(CFG.samples_per_bit)
    ok = (
        2e-3 < ber_unfiltered < 5e-2
        and ber_filtered <= ber_unfiltered / 20
        and abs(gain - root_n) / root_n <= 0.2
    )
    report(
        "criterion 10 matched-filter gain",
        ok,
        f"unfiltered={ber_unfiltered:.2e}, filtered={ber_filtered:.2e}, "
        f"separation gain={gain:.2f} vs sqrt(N)={root_n:.2f}",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_11_end_to_end_ber():
    start = time.perf_counter()
    bits = prbs(100_000, seed=9001)
    _, _, _, decisions = run_link(cl.DEFAULT_PARAMS, bits, CFG, seed=41)
    result = ber_measure(bits, decisions)
    report(
        "criterion 11 end-to-end noiseless BER",
        result.measured_ber <= 1e-4,
        f"errors={result.errors}/{result.bits}, ber={result.measured_ber:.1e}, "
        f"ci_hi={result.confidence_interval[1]:.1e}",
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_12_ber_vs_amplitude_shape():
    start = time.perf_counter()
    amplitudes = [0.025, 0.05, 0.075, 0.1]
    results = ber_sweep(
        cl.DEFAULT_PARAMS,
        amplitudes,
        CFG,
        n_bits=150_000,
        seed=2024,
        noise_sigma=0.012,
    )
    bers = np.array([r.measured_ber for r in results])
    countable = all(r.errors >= 10 for r in results)
    monotone = bool(np.all(np.diff(bers) < 0))
    log_ber = np.log10(bers)
    slope, intercept = np.polyfit(amplitudes, log_ber, 1)
    pred = slope * np.array(amplitudes) + intercept
    r_squared = 1 - np.sum((log_ber - pred) ** 2) / np.sum((log_ber - log_ber.mean()) ** 2)
    ok = countable and monotone and r_squared > 0.9 and slope < 0
    report(
        "criterion 12 BER vs amplitude",
        ok,
        f"bers={[f'{b:.1e}' for b in bers]} R2={r_squared:.3f}",
        time.perf_counter() - start,
        600.0,
    )


def test_criterion_13_codec_fidelity(tmp_path):
    start = time.perf_counter()
    clip = synth_speech(duration=2.0, seed=4)
    audio_packet = compress_audio(clip, 0.22)
    audio_error = relative_rms_error(
        clip.samples, decompress_audio(audio_packet).samples
    )

    img = synth_image(256, 256, seed=7)
    image_packet = compress_image(img, 0.165)
    ratio = image_packet.compression_ratio
    pgm = tmp_path / "image.pgm"
    masked = tmp_path / "image.masked"
    recovered = tmp_path / "recovered.pgm"
    write_pgm(pgm, img)
    out_dir = ["--out-dir", str(tmp_path)]
    sent = cli.main(
        ["send-file", "--input", str(pgm), "--output", str(masked),
         "--seed", "6", "--codec-keep-fraction", "0.165", *out_dir]
    )
    received = cli.main(
        ["recv-file", "--input", str(masked), "--output", str(recovered),
         "--seed", "6", *out_dir]
    )
    local = decompress_image(compress_image(img, 0.165))
    bit_exact = (sent, received) == (0, 0) and bool(
        np.array_equal(read_pgm(recovered).pixels, local.pixels)
    )

    ok = audio_error < 0.03 and abs(ratio - 6.1) / 6.1 <= 0.15 and bit_exact
    report(
        "criterion 13 codec fidelity",
        ok,
        f"audio rel_rms={audio_error:.3f}, image CR={ratio:.2f}, "
        f"link bit-exact={bit_exact}",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_14_property_suites():
    start = time.perf_counter()
    checks = {}

    # fold range and branch values
    xs = np.linspace(-5, 5, 20_001)
    in_range = all(
        np.all(np.abs(cl.fold(xs, beta)) <= 1.0) for beta in (0.0, 0.3, 0.5, 0.8, 1.0)
    )
    checks["fold range"] = in_range and cl.fold(0.75, 0.5) == pytest.approx(0.5)

    # additive masking exactness on the emitted series
    bits = prbs(500, seed=77)
    masked = mask_transmit(cl.DEFAULT_PARAMS, bits, CFG, seed=3)
    pilot_and_data = nrz_waveform(
        np.concatenate([[1], bits]), CFG.amplitude, CFG.samples_per_bit
    )
    info = np.concatenate([np.zeros(masked.header.settle_steps), pilot_and_data])
    p = cl.DEFAULT_PARAMS
    x, y, z = cl.generate_trajectory(1, params=p, seed=3).states[0]
    w_clean, *_ = _kernels.masked_transmit_chain(
        info.tolist(), x, y, z, p.a, p.b, p.c, p.beta, p.gamma
    )
    checks["masking additivity"] = (
        masked.w_star.tobytes() == (np.array(w_clean) + info).tobytes()
    )
    recovered = unmask_receive(masked, seed=11)
    reference = nrz_waveform(bits, CFG.amplitude, CFG.samples_per_bit)
    checks["unmasking exactness"] = np.max(np.abs(recovered - reference)) < 1e-9

    # serialization bijection
    packet = compress_audio(synth_speech(duration=0.5, seed=1), 0.22)
    stream = packet_to_bits(packet)
    checks["serialization bijection"] = np.array_equal(
        packet_to_bits(bits_to_packet(stream)), stream
    )

    # DCT Parseval plus the brute-force oracle
    rng = np.random.default_rng(0)
    x = rng.normal(size=64)
    coeffs = dct_forward(x)
    oracle = np.array(
        [
            np.sqrt((1.0 if k == 0 else 2.0) / 64)
            * np.sum(x * np.cos(np.pi * (2 * np.arange(64) + 1) * k / 128))
            for k in range(64)
        ]
    )
    checks["dct oracle"] = np.allclose(coeffs, oracle, atol=1e-12)
    checks["dct parseval"] = np.isclose(
        np.sum(coeffs**2), np.sum(x**2), rtol=1e-9
    ) and np.allclose(dct_inverse(coeffs), x, atol=1e-12)

    # PRBS balance at one million bits
    million = prbs(1_000_000, seed=123_457)
    checks["prbs balance"] = abs(million.mean() - 0.5) < 0.01

    ok = all(checks.values())
    failing = [name for name, passed in checks.items() if not passed]
    report(
        "criterion 14 property suites",
        ok,
        "all properties hold" if ok else f"failing: {failing}",
        time.perf_counter() - start,
        60.0,
    )
