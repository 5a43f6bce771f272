"""The benchmark workloads: inputs from a seed, timed steps, output checks.

Constructing a workload is its set-up (input generation). One pass of the
closed loop runs the workload's ``steps()`` in order; each step is a short
call into the library followed by its output check, and is timed on its
own, so a pass time can be taken as the sum of per-step medians over many
passes. Steps record into an ``Outcome`` how many operations they attempted
and which failed. An operation fails if it raises, exits non-zero, fails a
CRC or fails its output check; an operation lost to an earlier failed step
of the same pass is not counted twice.

Library calls go through module attributes looked up at call time
(``link.ber_sweep``, ``cli.main``), so the layer tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import chaoslink
from chaoslink import analysis, cli, codecs, core_map, link, signals, sync


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    problems: list = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def check(self, ok: bool, what: str):
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.problems.append(what)

    def raised(self, what: str, n_ops: int = 1):
        """Count ``n_ops`` operations lost to the exception being handled."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += n_ops
        self.problems.extend([f"{what} raised {sys.exc_info()[1]!r}"] * n_ops)


def warm_kernels():
    """One tiny call into each iteration kernel (JIT compilation under numba)."""
    traj = core_map.generate_trajectory(16, seed=1)
    analysis.le_qr(traj)
    masked = link.mask_transmit(
        chaoslink.DEFAULT_PARAMS,
        link.prbs(8, seed=1),
        link.ModulationConfig(samples_per_bit=2),
        seed=1,
        settle_steps=4,
    )
    sync.receiver_run(masked.w_star, core_map.random_initial_state(1))


class Workload:
    """Base: a scratch directory and the work counts used for rates."""

    name = ""
    link_samples = 0  # masked samples through transmit and receive per pass
    payload_bits = 0  # serialized payload bits that must round-trip per pass

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def sizes(self) -> dict:
        raise NotImplementedError

    def steps(self) -> list:
        """One pass: ``(name, step)`` pairs; ``step(outcome)`` runs and checks."""
        raise NotImplementedError

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class BerSweep(Workload):
    """Link and sync layers without a codec: ``link.ber_sweep`` with fitted thresholds.

    One pass is eight sweeps, each over all amplitudes at its own sub-seed
    of ``--seed``, so each timed step is short. The per-point checks
    (at least 10 errors, BER falling with amplitude) apply to the error
    counts summed over the eight sweeps.

    One sample per bit and sigma = 0.0012 give the same symbol SNR as
    N = 50 at sigma = 0.0085, at a fiftieth of the samples, so every point
    still counts at least 10 errors. The lowest amplitude keeps the
    receiver's one-symbol polarity pilot reliable: below about 0.06 the
    pilot decides the wrong sign for some seeds and ``run_link`` raises.
    """

    name = "ber_sweep"
    AMPLITUDES = (0.065, 0.0725, 0.08)
    NOISE_SIGMA = 0.0012
    SAMPLES_PER_BIT = 1
    SWEEPS = 8
    MIN_ERRORS = 10
    # About 3x the error rate of the lowest amplitude here; a receiver
    # that loses synchronization reads 20 % or more.
    MAX_BER = 0.005

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        self.n_bits = 250 if smoke else 20_000
        self.cfg = link.ModulationConfig(samples_per_bit=self.SAMPLES_PER_BIT)
        children = np.random.SeedSequence(seed).spawn(self.SWEEPS)
        self.sub_seeds = [int(c.generate_state(1)[0]) for c in children]
        per_point = link.SETTLE_STEPS + (link.PILOT_BITS + self.n_bits) * self.SAMPLES_PER_BIT
        self.link_samples = per_point * len(self.AMPLITUDES) * self.SWEEPS
        self.first_errors = {}  # sweep index -> error counts of its first pass
        self.results = {}  # sweep index -> results of the current pass

    def sizes(self):
        return {
            "amplitudes": list(self.AMPLITUDES),
            "sweeps_per_pass": self.SWEEPS,
            "bits_per_point_per_sweep": self.n_bits,
            "samples_per_bit": self.SAMPLES_PER_BIT,
            "noise_sigma": self.NOISE_SIGMA,
            "link_samples": self.link_samples,
        }

    def steps(self):
        sweeps = [(f"sweep{k}", functools.partial(self._sweep, k)) for k in range(self.SWEEPS)]
        return sweeps + [("totals", self._totals)]

    def _sweep(self, k, out):
        self.results.pop(k, None)
        try:
            results = link.ber_sweep(
                chaoslink.DEFAULT_PARAMS,
                self.AMPLITUDES,
                self.cfg,
                n_bits=self.n_bits,
                seed=self.sub_seeds[k],
                noise_sigma=self.NOISE_SIGMA,
                max_workers=1,
            )
        except Exception:
            out.raised(f"ber_sweep {k}", len(self.AMPLITUDES))
            return
        first = self.first_errors.setdefault(k, [r.errors for r in results])
        for r, first_errors in zip(results, first):
            out.check(
                r.measured_ber < self.MAX_BER and r.errors == first_errors,
                f"sweep {k} amplitude {r.amplitude}: {r.errors} errors "
                f"(first pass {first_errors}), BER {r.measured_ber:.3e}",
            )
        self.results[k] = results

    def _totals(self, out):
        """Per-point checks on the counts summed over this pass's sweeps."""
        if len(self.results) < self.SWEEPS:
            return  # a sweep raised; its operations are already counted as failed
        previous = 1.0  # BER must fall strictly with amplitude
        for i, amplitude in enumerate(self.AMPLITUDES):
            errors = sum(r[i].errors for r in self.results.values())
            bits = sum(r[i].bits for r in self.results.values())
            ber = errors / bits
            out.check(
                errors >= self.MIN_ERRORS and ber < previous,
                f"amplitude {amplitude}: {errors} errors in {bits} bits, "
                f"BER {ber:.3e} after {previous:.3e}",
            )
            previous = ber
        self.results = {}


class FileLink(Workload):
    """The product path: ``send-file`` then ``recv-file`` through ``cli.main``.

    Recovered files must be byte-identical to the local
    ``decompress(compress(x))`` of the same payload.
    """

    name = "file_link"
    # (file name, keep fraction, coefficient selection)
    PAYLOADS = (("speech.wav", 0.22, "lowfreq"), ("image.pgm", 0.165, "magnitude"))

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.speech_s = 0.05 if smoke else 0.25
        self.image_side = 8 if smoke else 32
        clip = signals.synth_speech(duration=self.speech_s, seed=seed)
        img = signals.synth_image(self.image_side, self.image_side, seed=seed)
        codecs.write_wav(workdir / "speech.wav", clip)
        codecs.write_pgm(workdir / "image.pgm", img)
        wav_packet = codecs.compress_audio(clip, 0.22, selection="lowfreq")
        pgm_packet = codecs.compress_image(img, 0.165, selection="magnitude")
        codecs.write_wav(workdir / "expected.wav", codecs.decompress_audio(wav_packet))
        codecs.write_pgm(workdir / "expected.pgm", codecs.decompress_image(pgm_packet))
        self.expected = {
            "speech.wav": (workdir / "expected.wav").read_bytes(),
            "image.pgm": (workdir / "expected.pgm").read_bytes(),
        }
        bits = wav_packet.serialized_bits + pgm_packet.serialized_bits
        spb = int(cli.DEFAULTS["link.samples_per_bit"])
        self.payload_bits = bits
        self.sent = set()  # payloads whose send-file succeeded in this pass
        self.link_samples = 2 * (link.SETTLE_STEPS + link.PILOT_BITS * spb) + bits * spb

    def sizes(self):
        return {
            "speech_seconds": self.speech_s,
            "image_side": self.image_side,
            "payload_bits": self.payload_bits,
            "link_samples": self.link_samples,
        }

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            code = cli.main(argv + ["--out-dir", str(self.workdir), "--threads", "1"])
        return code, err.getvalue().strip()

    def steps(self):
        steps = []
        for name, keep, selection in self.PAYLOADS:
            steps.append((f"send {name}", functools.partial(self._send, name, keep, selection)))
            steps.append((f"recv {name}", functools.partial(self._recv, name)))
        return steps

    def _send(self, name, keep, selection, out):
        masked = self.workdir / f"{name}.masked"
        self.sent.discard(name)
        try:
            code, err = self._cli(
                [
                    "send-file", "--input", str(self.workdir / name), "--output", str(masked),
                    "--seed", str(self.seed),
                    "--codec-keep-fraction", str(keep),
                    "--codec-selection", selection,
                ]
            )
            out.check(code == 0, f"send-file {name}: exit {code} {err}")
            if code == 0:
                self.sent.add(name)
        except Exception:
            out.raised(f"send-file {name}")

    def _recv(self, name, out):
        masked = self.workdir / f"{name}.masked"
        recovered = self.workdir / f"recovered-{name}"
        if name not in self.sent:
            return  # send-file failed; already counted
        recovered.unlink(missing_ok=True)
        try:
            code, err = self._cli(
                [
                    "recv-file", "--input", str(masked), "--output", str(recovered),
                    "--seed", str(self.seed + 1),
                ]
            )
            same = code == 0 and recovered.read_bytes() == self.expected[name]
            out.check(same, f"recv-file {name}: exit {code} {err}, byte-identical={same}")
        except Exception:
            out.raised(f"recv-file {name}")


def packets_equal(a, b) -> bool:
    """Field-by-field equality of two CoefficientPackets."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, tuple) or isinstance(y, tuple):
            if x is None or y is None or len(x) != len(y):
                return False
            if not all(np.array_equal(u, v) for u, v in zip(x, y)):
                return False
        elif x != y:
            return False
    return True


class CodecBulk(Workload):
    """Packet layer at sizes the link cannot carry: compress, serialize, parse, decompress."""

    name = "codec_bulk"
    MAX_AUDIO_RMS_ERROR = 0.03

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        self.image_side = 64 if smoke else 640
        self.speech_s = 0.5 if smoke else 12.0
        self.img = signals.synth_image(self.image_side, self.image_side, seed=seed)
        self.clip = signals.synth_speech(duration=self.speech_s, seed=seed)
        self.stage = {}  # payload -> intermediate results of the current pass
        self.round_trip_bits = {}  # payload -> serialized bits of a checked round trip
        self.payload_bits = None  # set once both payloads have round-tripped

    def sizes(self):
        return {
            "image_side": self.image_side,
            "image_selection": "lowfreq 0.165",
            "speech_seconds": self.speech_s,
            "speech_selection": "magnitude 0.22",
            "payload_bits": self.payload_bits,
        }

    def steps(self):
        steps = []
        for name in ("image", "speech"):
            for stage in (self._compress, self._serialize, self._parse, self._decompress):
                steps.append((f"{stage.__name__[1:]} {name}", functools.partial(stage, name)))
        return steps

    def _compress(self, name, out):
        self.stage[name] = None
        try:
            if name == "image":
                packet = codecs.compress_image(self.img, 0.165, selection="lowfreq")
            else:
                packet = codecs.compress_audio(self.clip, 0.22, selection="magnitude")
        except Exception:
            out.raised(f"compress {name}")
            return
        self.stage[name] = {"packet": packet}

    def _serialize(self, name, out):
        self._advance(name, out, "serialize", "bits", lambda s: codecs.packet_to_bits(s["packet"]))

    def _parse(self, name, out):
        self._advance(name, out, "parse", "parsed", lambda s: codecs.bits_to_packet(s["bits"]))

    def _decompress(self, name, out):
        """Decompress the parsed packet, then check the whole round trip."""
        state = self.stage[name]
        if state is None:
            return
        try:
            packet, bits, parsed = state["packet"], state["bits"], state["parsed"]
            ok = bits.size == packet.serialized_bits and packets_equal(packet, parsed)
            detail = f"{name}: {bits.size} bits vs {packet.serialized_bits} serialized"
            if name == "image":
                codecs.decompress_image(parsed)
            else:
                rebuilt = codecs.decompress_audio(parsed)
                error = codecs.relative_rms_error(self.clip.samples, rebuilt.samples)
                ok = ok and error < self.MAX_AUDIO_RMS_ERROR
                detail += f", relative RMS error {error:.4f}"
            out.check(ok, detail)
            if ok:
                self.round_trip_bits[name] = bits.size
        except Exception:
            out.raised(f"decompress {name}")
        if self.payload_bits is None and len(self.round_trip_bits) == 2:
            self.payload_bits = sum(self.round_trip_bits.values())

    def _advance(self, name, out, what, key, compute):
        """One stage of a payload's round trip; an earlier failure skips it."""
        state = self.stage[name]
        if state is None:
            return  # an earlier stage failed; already counted
        try:
            state[key] = compute(state)
        except Exception:
            out.raised(f"{what} {name}")
            self.stage[name] = None


class Dynamics(Workload):
    """Analysis and core_map layers with the link idle.

    Each check is the paper's acceptance criterion for that estimator. The
    beta = 0.5 correlation dimension (target 2.85 +- 0.1) reads about
    2.92 +- 0.012 on 20k steps; 64k steps thinned to the same 8000 points
    read 2.917 +- 0.008, which keeps the check four standard deviations
    inside its upper edge.
    """

    name = "dynamics"
    ANALYTIC_TOLERANCE = 1e-2
    WOLF_TARGET = (0.655, 0.05)
    DIMENSION_TARGETS = {0.0: (2.72, 0.1), 0.5: (2.85, 0.1)}
    PSD_TOLERANCE = 0.05

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        if smoke:
            self.n = dict(trajectory=3_000, qr=1_000, wolf=2_000, cd0=2_000, cd5=3_000, er=2_000)
        else:
            self.n = dict(trajectory=64_000, qr=10_000, wolf=20_000, cd0=20_000, cd5=64_000, er=20_000)
        self.params0 = chaoslink.SystemParams(beta=0.0)
        self.params5 = chaoslink.SystemParams(beta=0.5)
        self.tr = {}  # beta -> trajectory of the current pass

    def sizes(self):
        return {f"{k}_steps": v for k, v in self.n.items()}

    def steps(self):
        """Two trajectories, then one step per estimator with its criterion."""
        n = self.n
        reference = np.array(analysis.le_analytic(self.params0).exponents)

        def qr_vs_analytic(s):
            gap = float(np.max(np.abs(np.array(s.exponents) - reference)))
            return gap < self.ANALYTIC_TOLERANCE, f"max |qr - analytic| = {gap:.2e}"

        def hyperchaotic(s):
            return s.exponents[1] > 0, f"exponents {np.round(s.exponents, 4).tolist()}"

        def near(target, tolerance):
            return lambda v: (abs(v - target) <= tolerance, f"{v:.4f} vs {target} +- {tolerance}")

        def parseval(psd):
            # density scaling: the integral over [0, fs/2] is the series variance
            df = psd.frequencies[1] - psd.frequencies[0]
            ratio = float(np.sum(psd.power) * df / np.var(self.tr[0.5].w))
            return abs(ratio - 1.0) < self.PSD_TOLERANCE, f"integral/variance = {ratio:.4f}"

        # (name, beta of the trajectory used, f(trajectory), judge(result) -> (ok, detail))
        estimators = [
            ("le_qr beta=0", 0.0,
             lambda t: analysis.le_qr(dataclasses.replace(t, states=t.states[: n["qr"]])),
             qr_vs_analytic),
            ("le_qr beta=0.5", 0.5,
             lambda t: analysis.le_qr(dataclasses.replace(t, states=t.states[: n["qr"]])),
             hyperchaotic),
            ("le_wolf beta=0", 0.0,
             lambda t: analysis.le_wolf(t.states[: n["wolf"]]).exponents[0],
             near(*self.WOLF_TARGET)),
            ("correlation_dimension beta=0.5", 0.5,
             lambda t: analysis.correlation_dimension(t.states[: n["cd5"]]).dimension,
             near(*self.DIMENSION_TARGETS[0.5])),
            ("correlation_dimension beta=0", 0.0,
             lambda t: analysis.correlation_dimension(t.states[: n["cd0"]]).dimension,
             near(*self.DIMENSION_TARGETS[0.0])),
            ("le_eckmann_ruelle beta=0.5", 0.5,
             lambda t: analysis.le_eckmann_ruelle(t.states[: n["er"]]),
             hyperchaotic),
            ("welch_psd beta=0.5", 0.5, lambda t: analysis.welch_psd(t.w), parseval),
        ]
        trajectories = [
            (f"trajectory beta={beta:g}", functools.partial(self._trajectory, beta, params))
            for beta, params in ((0.0, self.params0), (0.5, self.params5))
        ]
        return trajectories + [
            (what, functools.partial(self._estimate, what, beta, compute, judge))
            for what, beta, compute, judge in estimators
        ]

    def _trajectory(self, beta, params, out):
        self.tr[beta] = None
        try:
            t = core_map.generate_trajectory(self.n["trajectory"], params=params, seed=self.seed)
            ok = bool(np.all(np.isfinite(t.states)))
            out.check(ok, f"trajectory beta={beta}: finite states")
        except Exception:
            out.raised(f"trajectory beta={beta}")
            return
        self.tr[beta] = t

    def _estimate(self, what, beta, compute, judge, out):
        """Run one estimator on this pass's trajectory at ``beta`` and check it."""
        t = self.tr.get(beta)
        if t is None:
            return  # its trajectory failed; already counted
        try:
            ok, detail = judge(compute(t))
            out.check(ok, f"{what}: {detail}")
        except Exception:
            out.raised(what)


WORKLOADS = {w.name: w for w in (BerSweep, FileLink, CodecBulk, Dynamics)}
