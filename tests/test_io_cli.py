import dataclasses
import io
import json
import os
import shlex
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chaoslink as cl
from chaoslink import _kernels, cli, codecs, io_formats, link
from chaoslink.cli import main
from chaoslink.codecs import (
    compress_audio,
    compress_image,
    decompress_audio,
    decompress_image,
    packet_to_bits,
    read_pgm,
    read_wav,
    relative_rms_error,
    write_pgm,
    write_wav,
)
from chaoslink.io_formats import (
    read_masked_series,
    read_trajectory_dump,
    write_masked_series,
    write_trajectory_csv,
    write_trajectory_dump,
)
from chaoslink.link import MaskedSeries, ModulationConfig, mask_transmit, prbs
from chaoslink.signals import synth_image, synth_speech
from chaoslink.sync import stability_check
from test_codecs import hand_packet


class TestTrajectoryFiles:
    def test_binary_dump_round_trip(self, tmp_path):
        traj = cl.generate_trajectory(
            500, seed=7, settling=cl.SettlingConfig(t_n=2.5), transient=100
        )
        path = tmp_path / "traj.bin"
        write_trajectory_dump(path, traj)
        back = read_trajectory_dump(path)
        assert np.array_equal(back.states, traj.states)
        assert back.params == traj.params
        assert back.settling.t_n == 2.5
        assert back.seed == 7
        assert back.transient == 100

    def test_ideal_mode_round_trip(self, tmp_path):
        traj = cl.generate_trajectory(100, seed=1)
        path = tmp_path / "traj.bin"
        write_trajectory_dump(path, traj)
        assert read_trajectory_dump(path).settling is None

    def test_csv_contents(self, tmp_path):
        traj = cl.generate_trajectory(50, seed=3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0].lstrip("# "))
        assert meta["seed"] == 3
        assert meta["params"]["beta"] == 0.5
        assert lines[1] == "n,x,y,z,w"
        # repr round-trips doubles exactly
        expected = [
            ",".join([str(k), *(repr(float(v)) for v in (*state, w))])
            for k, (state, w) in enumerate(zip(traj.states, traj.w))
        ]
        assert lines[2:] == expected

    def test_csv_matches_whole_table_writer(self, tmp_path):
        # 2.5 chunks: full chunks and a short last one, numbered across chunks
        traj = cl.generate_trajectory(
            io_formats.CSV_CHUNK_ROWS * 5 // 2, seed=4, settling=cl.SettlingConfig(t_n=2.5)
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        meta = {"params": dataclasses.asdict(traj.params), "mode": traj.mode,
                "seed": traj.seed, "transient": traj.transient}
        rows = np.column_stack([traj.states, traj.w]).tolist()
        whole = tmp_path / "whole.csv"
        io_formats.write_csv(
            whole, ["n", "x", "y", "z", "w"], ([k, *row] for k, row in enumerate(rows)), meta
        )
        assert path.read_bytes() == whole.read_bytes()

    def test_csv_peak_memory_does_not_grow(self, tmp_path):
        """The writer holds one chunk of rows as Python floats.

        A whole-trajectory ``tolist()`` takes about 214 B per row, so 20 000
        more rows would add some 4.3 MB; the chunked writer's peak is the
        same at both lengths, within 64 KB of allocator slack.
        """
        peaks = []
        for n in (10_000, 30_000):
            traj = cl.generate_trajectory(n, seed=2)
            tracemalloc.start()
            try:
                write_trajectory_csv(tmp_path / f"traj{n}.csv", traj)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 64 * 1024

    @pytest.mark.parametrize("cut", [50, -8], ids=["short_header", "truncated_body"])
    def test_dump_length_checked(self, tmp_path, cut):
        path = tmp_path / "traj.bin"
        write_trajectory_dump(path, cl.generate_trajectory(10, seed=1))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=r"expected \d+ bytes.*got \d+"):
            read_trajectory_dump(path)

    def test_dump_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError):
            read_trajectory_dump(path)


class TestMaskedSeriesFile:
    def test_round_trip(self, tmp_path):
        cfg = ModulationConfig(amplitude=0.05, samples_per_bit=20)
        masked = mask_transmit(cl.DEFAULT_PARAMS, prbs(100, seed=3), cfg, seed=9)
        path = tmp_path / "series.bin"
        write_masked_series(path, masked)
        back = read_masked_series(path)
        # the file holds every field of the series, so all of them come back
        for field in dataclasses.fields(MaskedSeries):
            sent, got = getattr(masked, field.name), getattr(back, field.name)
            if field.name == "w_star":
                assert got.tobytes() == sent.tobytes()
            else:
                assert got == sent, field.name
        assert back.config == cfg
        assert back.seed == 9
        assert back.preamble_samples == masked.preamble_samples

    def test_bit_rate_slot_holds_the_derived_rate(self, tmp_path):
        cfg = ModulationConfig(samples_per_bit=20)
        masked = mask_transmit(cl.DEFAULT_PARAMS, prbs(10, seed=3), cfg, seed=9)
        path = tmp_path / "series.bin"
        write_masked_series(path, masked)
        raw = bytearray(path.read_bytes())
        # bytes 66-74 of the header: 0.5 MHz / 20
        assert struct.unpack("<d", raw[66:74]) == (25_000.0,)
        # files written while the rate was a setting of its own hold 10 kbps
        # at any N; the reader ignores the slot, so they still read
        raw[66:74] = struct.pack("<d", 1.0e4)
        path.write_bytes(raw)
        back = read_masked_series(path)
        assert back.config == cfg
        assert back.config.bit_rate == 25_000.0
        assert back.w_star.tobytes() == masked.w_star.tobytes()


def short_series(n):
    """A default-map MaskedSeries of ``n`` samples with no preamble."""
    w_star = np.random.default_rng(1).standard_normal(n)
    return MaskedSeries(
        w_star=w_star, config=ModulationConfig(), params=cl.DEFAULT_PARAMS, seed=1,
        settle_steps=0, pilot_bits=0,
    )


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while ``fn(*args)`` runs; what it raised, if anything."""
    tracemalloc.start()
    try:
        fn(*args)
        raised = None
    except ValueError as exc:
        raised = exc
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak, raised


class TestBinaryLayout:
    """Both binary formats: magic, u16 version, the map's a, b, c, beta and
    gamma, the format's fields (the last is the row count), then the rows."""

    def test_masked_series_layout(self, tmp_path):
        cfg = ModulationConfig(amplitude=0.05, samples_per_bit=20)
        masked = mask_transmit(cl.DEFAULT_PARAMS, prbs(10, seed=3), cfg, seed=9)
        path = tmp_path / "series.bin"
        write_masked_series(path, masked)
        raw = path.read_bytes()
        p = masked.params
        assert raw[:4] == b"CLMS"
        assert struct.unpack("<H", raw[4:6]) == (1,)
        assert struct.unpack("<5d", raw[6:46]) == (p.a, p.b, p.c, p.beta, p.gamma)
        assert struct.unpack("<dIddqIIQ", raw[46:98]) == (
            0.05, 20, 0.5e6, 25_000.0, 9, masked.settle_steps, masked.pilot_bits,
            masked.w_star.size,
        )
        assert raw[98:] == masked.w_star.tobytes()

    @pytest.mark.parametrize("settled", [True, False], ids=["non_ideal", "ideal"])
    def test_trajectory_dump_layout(self, tmp_path, settled):
        traj = cl.generate_trajectory(
            50, seed=7, transient=100, settling=cl.SettlingConfig(t_n=2.5) if settled else None
        )
        if not settled:
            traj = dataclasses.replace(traj, seed=None)
        path = tmp_path / "traj.bin"
        write_trajectory_dump(path, traj)
        raw = path.read_bytes()
        p = traj.params
        assert raw[:4] == b"CLTR"
        assert struct.unpack("<H", raw[4:6]) == (1,)
        assert struct.unpack("<5d", raw[6:46]) == (p.a, p.b, p.c, p.beta, p.gamma)
        t_n, seed, transient, n = struct.unpack("<dqqQ", raw[46:78])
        assert (t_n == 2.5) if settled else np.isnan(t_n)
        assert (seed, transient, n) == (7 if settled else -1, 100, 50)
        assert raw[78:] == np.column_stack([traj.states, traj.w]).tobytes()

    @pytest.mark.parametrize(
        "kind, offset, value, message",
        [
            ("masked", 38, float("nan"), "gamma must be finite, got nan"),
            ("dump", 30, float("nan"), "beta must be finite, got nan"),
            ("dump", 46, float("inf"), "t_n must be positive and finite, got inf"),
            ("dump", 46, -1.0, "t_n must be positive and finite, got -1.0"),
        ],
        ids=["masked_gamma_nan", "dump_beta_nan", "dump_t_n_inf", "dump_t_n_negative"],
    )
    def test_header_value_refused_naming_the_file_once(
        self, tmp_path, kind, offset, value, message
    ):
        path = tmp_path / f"{kind}.bin"
        if kind == "masked":
            write_masked_series(path, short_series(10))
            read = read_masked_series
        else:
            traj = cl.generate_trajectory(10, seed=1, settling=cl.SettlingConfig(t_n=2.5))
            write_trajectory_dump(path, traj)
            read = read_trajectory_dump
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "kind, seed", [("masked", 2**63), ("masked", -(2**63) - 1), ("dump", 2**63)]
    )
    def test_value_the_header_cannot_hold_refused_naming_the_file(self, tmp_path, kind, seed):
        """The seed field is an i64; a wider seed is a ValueError naming the
        file and the value, and no file is left."""
        path = tmp_path / f"{kind}.bin"
        if kind == "masked":
            write, item = write_masked_series, dataclasses.replace(short_series(10), seed=seed)
        else:
            write, item = write_trajectory_dump, cl.generate_trajectory(10, seed=seed)
        with pytest.raises(ValueError) as info:
            write(path, item)
        assert str(info.value) == f"{path}: header value {seed} does not fit its i64 field"
        assert not path.exists()

    def test_body_not_read_before_its_size_checks_out(self, tmp_path):
        """A 64 MiB file whose valid header declares 10 samples is refused
        from its header and its size alone, without reading the body."""
        path = tmp_path / "big.bin"
        write_masked_series(path, short_series(10))
        with open(path, "r+b") as fh:
            fh.truncate(64 * 2**20)  # sparse past the header and its 10 samples
        peak, raised = traced_peak(read_masked_series, path)
        assert str(raised) == f"{path}: expected 178 bytes for 10 rows, got {64 * 2**20}"
        assert peak < 2**20

    def test_peak_memory_per_sample(self, tmp_path):
        """The writer streams the samples' own buffer; the reader holds one
        array of them (8 B) and the finite check's mask (1 B)."""
        n = 10**6
        masked = short_series(n)
        path = tmp_path / "series.bin"
        write_peak, raised = traced_peak(write_masked_series, path, masked)
        assert raised is None and write_peak <= n
        read_peak, raised = traced_peak(read_masked_series, path)
        assert raised is None and read_peak <= 10 * n
        assert read_masked_series(path).w_star.tobytes() == masked.w_star.tobytes()


# the refusal of a map whose receiver cannot lock, as every command prints it
UNLOCKABLE = (
    "coupling cannot synchronize; margins "
    f"{stability_check(cl.DEFAULT_PARAMS.replace(gamma=-0.5))['margins']}"
)


class TestFileLinkPeakMemory:
    """send-file holds w_star and one transmit chunk (8 B/sample). recv-file
    at sigma 0 holds the file's series, the lockstep's step-major copy and
    w_r, into which the recovered samples are written (24 B/sample). The
    payload is a 0.25 s speech clip, about 209 000 samples."""

    @pytest.fixture
    def link_files(self, tmp_path):
        def send(name):
            return main(
                ["send-file", "--input", str(tmp_path / f"{name}.wav"),
                 "--output", str(tmp_path / f"{name}.masked"), "--seed", "1",
                 "--out-dir", str(tmp_path)]
            )

        def recv(name):
            return main(
                ["recv-file", "--input", str(tmp_path / f"{name}.masked"),
                 "--output", str(tmp_path / f"{name}.out.wav"), "--seed", "2",
                 "--out-dir", str(tmp_path)]
            )

        write_wav(tmp_path / "warm.wav", synth_speech(duration=0.05, seed=1))
        write_wav(tmp_path / "speech.wav", synth_speech(duration=0.25, seed=1))
        assert send("warm") == 0 and recv("warm") == 0  # warm caches outside the trace
        return send, recv, tmp_path / "speech.masked"

    @staticmethod
    def traced(run):
        tracemalloc.start()
        try:
            assert run("speech") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_send_and_noiseless_receive_per_sample(self, link_files):
        send, recv, masked = link_files
        send_peak = self.traced(send)
        n = read_masked_series(masked).w_star.size
        assert 200_000 < n < 230_000
        recv_peak = self.traced(recv)
        assert send_peak / n <= 10
        assert recv_peak / n <= 26


def masked_file(tmp_path, bits):
    """Write a short-symbol masked series carrying ``bits``."""
    cfg = ModulationConfig(samples_per_bit=4)
    path = tmp_path / "masked.bin"
    write_masked_series(path, mask_transmit(cl.DEFAULT_PARAMS, bits, cfg, seed=1))
    return path


def output_directory_cases(tmp_path, name):
    """(--output, --out-dir) pairs that must exit 4 before any input is read:
    --output's directory is missing, or --out-dir lies under a regular file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    return [
        (tmp_path / "absent" / name, tmp_path / "reports"),
        (tmp_path / name, blocker / "reports"),
    ]


def recv(tmp_path, path, capsys):
    code = main(
        ["recv-file", "--input", str(path), "--output", str(tmp_path / "x.wav"),
         "--seed", "2", "--out-dir", str(tmp_path)]
    )
    return code, capsys.readouterr().err


class TestUntrustedReceive:
    """recv-file on malformed input: a documented exit code, never a traceback."""

    @pytest.mark.parametrize("cut", [60, -8], ids=["short_header", "truncated_body"])
    def test_masked_file_length_checked(self, tmp_path, capsys, cut):
        path = masked_file(tmp_path, prbs(20, seed=3))
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        code, err = recv(tmp_path, path, capsys)
        assert code == 2
        assert str(path) in err
        assert f"got {len(raw[:cut])}" in err
        expected = 98 if cut == 60 else len(raw)
        assert f"expected {expected} bytes" in err

    @pytest.mark.parametrize(
        "packet",
        [
            hand_packet("audio", dim0=16, frame_len=16, keep=0),
            hand_packet("audio", dim0=16, frame_len=16, keep=20),
            hand_packet("image", dim0=8, frame_len=0, keep=2, positions=[5, 64]),
        ],
        ids=["keep_count_zero", "audio_keep_above_frame", "position_out_of_range"],
    )
    def test_inconsistent_packet_is_runtime_failure(self, tmp_path, capsys, packet):
        path = masked_file(tmp_path, packet_to_bits(packet))
        code, err = recv(tmp_path, path, capsys)
        assert code == 3
        assert "packet corrupt" in err

    def test_packet_over_the_size_cap_is_runtime_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(codecs, "MAX_PAYLOAD_SAMPLES", 32)
        packet = hand_packet("image", dim0=8, frame_len=0, keep=1)
        code, err = recv(tmp_path, masked_file(tmp_path, packet_to_bits(packet)), capsys)
        assert code == 3
        assert "64 decoded samples exceed 32" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("past_end", [1, -1], ids=["settle_past_end", "pilot_past_end"])
    def test_preamble_must_fit_the_series(self, tmp_path, capsys, past_end):
        path = masked_file(tmp_path, prbs(20, seed=3))
        raw = bytearray(path.read_bytes())
        (n,) = struct.unpack("<Q", raw[90:98])  # sample count, last header field
        settle = n + past_end
        raw[82:86] = struct.pack("<I", settle)  # settle_steps; one 4-sample pilot bit follows
        path.write_bytes(bytes(raw))
        code, err = recv(tmp_path, path, capsys)
        assert code == 2
        assert f"{path}: preamble of {settle + 4} samples" in err
        assert f"exceeds the {n} samples in the series" in err

    def test_header_map_that_cannot_synchronize(self, tmp_path, capsys, monkeypatch):
        """A header map failing stability_check exits 2 before any receive."""

        def unreachable(*args, **kwargs):
            raise AssertionError("received a series the receiver cannot lock to")

        monkeypatch.setattr(link, "receiver_output", unreachable)
        path = masked_file(tmp_path, prbs(20, seed=3))
        raw = bytearray(path.read_bytes())
        raw[38:46] = struct.pack("<d", -0.5)  # the header's gamma, last of a, b, c, beta, gamma
        path.write_bytes(bytes(raw))
        verdict = stability_check(cl.DEFAULT_PARAMS.replace(gamma=-0.5))
        assert not verdict["stable"]
        code, err = recv(tmp_path, path, capsys)
        assert code == 2
        assert f"{path}: coupling cannot synchronize; margins {verdict['margins']}" in err
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["scale", "mean"])
    def test_non_finite_packet_float_is_runtime_failure(self, tmp_path, capsys, field, value):
        """A CRC-valid packet with a NaN or inf scale or mean decodes nothing."""
        packet = hand_packet("image", dim0=8, frame_len=0, keep=1)
        if field == "scale":
            packet = dataclasses.replace(packet, scales=(value,))
        else:
            packet = dataclasses.replace(packet, mean=value)
        code, err = recv(tmp_path, masked_file(tmp_path, packet_to_bits(packet)), capsys)
        assert code == 3
        assert f"{field} {value} is not finite" in err
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize("rate", [0, 2**32 - 1])
    def test_sample_rate_out_of_range_is_runtime_failure(self, tmp_path, capsys, rate):
        """A CRC-valid audio packet whose sample rate no WAV holds writes nothing."""
        packet = hand_packet("audio", dim0=16, frame_len=16, keep=1)
        packet = dataclasses.replace(packet, dim1=rate)
        code, err = recv(tmp_path, masked_file(tmp_path, packet_to_bits(packet)), capsys)
        assert code == 3
        assert f"sample rate {rate} outside [1, {codecs.MAX_SAMPLE_RATE}]" in err
        assert not (tmp_path / "x.wav").exists()
        assert not (tmp_path / "recv_report.json").exists()

    @pytest.mark.parametrize("sample", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sample_named(self, tmp_path, capsys, sample):
        path = masked_file(tmp_path, prbs(20, seed=3))
        raw = bytearray(path.read_bytes())
        raw[98 + 8 * 50 : 98 + 8 * 51] = struct.pack("<d", sample)  # header is 98 bytes
        path.write_bytes(bytes(raw))
        code, err = recv(tmp_path, path, capsys)
        assert code == 2
        assert f"{path}: sample 50 is not finite ({sample})" in err


@st.composite
def masked_file_bytes(draw):
    """Arbitrary bytes, bytes after a valid magic and version, or a valid
    masked-series file with some bytes overwritten and the end cut anywhere."""
    with tempfile.TemporaryDirectory() as d:
        valid = bytearray(masked_file(Path(d), prbs(8, seed=3)).read_bytes())
    edits = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255))
    for i, b in draw(st.lists(edits, max_size=8)):
        valid[i] = b
    return draw(
        st.one_of(
            st.binary(max_size=400),
            st.binary(max_size=400).map(lambda tail: b"CLMS\x01\x00" + tail),
            st.integers(0, len(valid)).map(lambda cut: bytes(valid[:cut])),
        )
    )


class TestUntrustedMaskedFile:
    @given(masked_file_bytes())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_bytes_read_or_raise_value_error(self, tmp_path, raw):
        path = tmp_path / "masked.bin"
        path.write_bytes(raw)
        try:
            series = read_masked_series(path)
        except ValueError:
            return
        assert np.all(np.isfinite(series.w_star))


    @given(masked_file_bytes())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_refusal_names_the_file_once(self, tmp_path, raw):
        path = tmp_path / "masked.bin"
        path.write_bytes(raw)
        try:
            read_masked_series(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            assert str(exc).count(str(path)) == 1


def wav_bytes(channels=1, width=2):
    """A short WAV file of silence at 8 kHz, with the given layout."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(8000)
        fh.writeframes(bytes(channels * width * 64))
    return buf.getvalue()


class TestUntrustedSend:
    """send-file on a malformed payload file: exit 2 naming the file, no traceback."""

    def send(self, tmp_path, payload, capsys):
        code = main(
            ["send-file", "--input", str(payload), "--output", str(tmp_path / "x.masked"),
             "--seed", "2", "--out-dir", str(tmp_path)]
        )
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw", [b"hello", b"RIFF\x04\x00\x00\x00WAVEjunk"], ids=["not_riff", "no_chunks"]
    )
    def test_wav_that_is_not_a_wav(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        code, err = self.send(tmp_path, path, capsys)
        assert code == 2
        assert f"{path}: not a WAV file" in err
        assert "Traceback" not in err

    def test_payload_over_the_size_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(codecs, "MAX_PAYLOAD_SAMPLES", 32)
        path = tmp_path / "image.pgm"
        write_pgm(path, synth_image(8, 8, seed=1))
        code, err = self.send(tmp_path, path, capsys)
        assert code == 2
        assert "8x8 image exceeds the 32-sample payload limit" in err

    def test_pgm_without_pixels(self, tmp_path):
        # a fresh process, so numpy's warnings would reach its stderr
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"P5\n0 0\n255\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "chaoslink.cli", "send-file", "--input", str(path),
             "--output", str(tmp_path / "x.masked"), "--seed", "2", "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr == "error: empty image\n"

    @pytest.mark.filterwarnings("error")
    def test_value_bits_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "speech.wav"
        write_wav(path, synth_speech(duration=0.05, seed=3))
        code = main(
            ["send-file", "--input", str(path), "--output", str(tmp_path / "x.masked"),
             "--seed", "2", "--codec-value-bits", "40", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: value_bits must lie in [2, 16]\n"
        assert not (tmp_path / "x.masked").exists()

    def test_selection_checked_before_transform(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("transformed before the selection was checked")

        monkeypatch.setattr(codecs, "dct_forward", unreachable)
        path = tmp_path / "image.pgm"
        write_pgm(path, synth_image(8, 8, seed=1))
        code = main(
            ["send-file", "--input", str(path), "--output", str(tmp_path / "x.masked"),
             "--seed", "2", "--codec-selection", "foo", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: unknown selection rule 'foo'\n"
        assert not (tmp_path / "x.masked").exists()

    def test_wav_sample_rate_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "fast.wav"
        write_wav(path, synth_speech(duration=0.05, seed=3))
        raw = bytearray(path.read_bytes())
        raw[24:28] = struct.pack("<I", 2**31)  # the fmt chunk's sample rate
        path.write_bytes(bytes(raw))
        code, err = self.send(tmp_path, path, capsys)
        assert code == 2
        assert f"sample_rate must lie in [1, {2**31 - 1}], got {2**31}" in err
        assert not (tmp_path / "x.masked").exists()
        assert not (tmp_path / "send_report.json").exists()

    @pytest.mark.parametrize(
        "name, raw, message",
        [
            ("stereo.wav", wav_bytes(channels=2), "only mono WAV input is supported"),
            ("8bit.wav", wav_bytes(width=1), "only 16-bit PCM WAV input is supported"),
            # the fmt chunk's sample rate, which wave cannot write as 0
            ("rate0.wav", wav_bytes()[:24] + bytes(4) + wav_bytes()[28:],
             "sample_rate must lie in [1, 2147483647], got 0"),
            ("ascii.pgm", b"P2\n2 2\n255\n0 0 0 0\n", "only binary (P5) PGM files are supported"),
            ("deep.pgm", b"P5\n2 2\n65535\n" + bytes(8), "only maxval 255 PGM files are supported"),
        ],
        ids=["stereo_wav", "8bit_wav", "rate0_wav", "p2_pgm", "maxval_65535_pgm"],
    )
    def test_unsupported_payload_names_the_file(self, tmp_path, capsys, name, raw, message):
        path = tmp_path / name
        path.write_bytes(raw)
        code, err = self.send(tmp_path, path, capsys)
        assert code == 2
        assert err == f"error: {path}: {message}\n"
        assert not (tmp_path / "x.masked").exists()

    def test_pgm_with_short_pixel_data(self, tmp_path, capsys):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(2))
        code, err = self.send(tmp_path, path, capsys)
        assert code == 2
        assert f"{path}: expected 16 pixel bytes for 4x4, got 2" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
class TestNonFiniteLinkFlags:
    """A NaN or inf link parameter is a validation error (exit 2), not a
    NaN-filled masked file or a packet failure further down the chain."""

    def send(self, tmp_path, capsys, flag, value):
        payload = tmp_path / "image.pgm"
        write_pgm(payload, synth_image(8, 8, seed=1))
        out = tmp_path / "masked.bin"
        code = main(
            ["send-file", "--input", str(payload), "--output", str(out),
             "--seed", "2", "--out-dir", str(tmp_path), flag, value]
        )
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_send_file_amplitude(self, tmp_path, capsys, value):
        code, err = self.send(tmp_path, capsys, "--link-amplitude", value)
        assert code == 2
        assert f"amplitude must be finite and positive, got {float(value)}" in err

    def test_send_file_f_clk(self, tmp_path, capsys, value):
        code, err = self.send(tmp_path, capsys, "--link-f-clk", value)
        assert code == 2
        assert f"f_clk must be finite and positive, got {float(value)}" in err

    def test_recv_file_f_clk_header(self, tmp_path, capsys, value):
        path = masked_file(tmp_path, prbs(20, seed=3))
        raw = bytearray(path.read_bytes())
        raw[58:66] = struct.pack("<d", float(value))  # the header's f_clk
        path.write_bytes(raw)
        code, err = recv(tmp_path, path, capsys)
        assert code == 2
        assert f"f_clk must be finite and positive, got {float(value)}" in err
        assert not (tmp_path / "x.wav").exists()

    def test_recv_file_noise_sigma(self, tmp_path, capsys, value):
        path = masked_file(tmp_path, prbs(20, seed=3))
        out = tmp_path / "x.wav"
        code = main(
            ["recv-file", "--input", str(path), "--output", str(out),
             "--seed", "2", "--out-dir", str(tmp_path), "--link-noise-sigma", value]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"sigma must be finite and >= 0, got {float(value)}" in err
        assert not out.exists()


MAP = {"map.a", "map.b", "map.c", "map.beta", "map.gamma"}
MODULATION = {"link.amplitude", "link.samples_per_bit", "link.f_clk"}
# the dotted settings each subcommand reads, accepts and echoes
COMMAND_SETTINGS = {
    "map": MAP | {"run.n", "run.transient"},
    "lyapunov": MAP | {"run.n"},
    "sync": MAP | {"run.n"},
    "ber": MAP | MODULATION | {"link.noise_sigma", "link.mismatch"},
    "send-file": MAP | MODULATION | {"codec.keep_fraction", "codec.selection", "codec.value_bits"},
    "recv-file": {"link.noise_sigma"},
    "selftest": set(),
}


def command_argv(command, tmp_path):
    """``command`` with its required arguments, none of which need exist."""
    if command in ("send-file", "recv-file"):
        return [command, "--input", str(tmp_path / "in"), "--output", str(tmp_path / "o")]
    return [command]


class TestCli:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out

    def test_map_outputs_are_deterministic(self, tmp_path):
        argv = ["map", "--seed", "5", "--run-n", "1500"]
        assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "trajectory.bin").read_bytes()
        b = (tmp_path / "b" / "trajectory.bin").read_bytes()
        assert a == b

    def test_validation_exit_code(self, tmp_path):
        code = main(
            ["map", "--seed", "1", "--map-beta", "1.5", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_missing_seed_is_validation_error(self, tmp_path):
        assert main(["map", "--out-dir", str(tmp_path)]) == 2

    def test_analytic_csv(self, tmp_path, capsys):
        argv = ["lyapunov", "--method", "analytic"]
        code = main(argv + ["--map-beta", "0", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "0.682909" in capsys.readouterr().out
        assert (tmp_path / "lyapunov_analytic.csv").exists()
        # the closed form holds only for beta in {0, 1}, so the default 0.5
        # is refused rather than evaluated at another beta
        out = tmp_path / "default_beta"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert "analytic spectrum requires beta in {0, 1}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_and_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("map.beta = 0.4\nrun.n = 1200\n")
        out = tmp_path / "out"
        code = main(
            ["map", "--seed", "2", "--config", str(config), "--out-dir", str(out)]
        )
        assert code == 0
        meta = json.loads(
            (out / "trajectory.csv").read_text().splitlines()[0].lstrip("# ")
        )
        assert meta["params"]["beta"] == 0.4
        # flag wins over the config file
        code = main(
            ["map", "--seed", "2", "--config", str(config), "--map-beta", "0.6",
             "--out-dir", str(out)]
        )
        assert code == 0
        meta = json.loads(
            (out / "trajectory.csv").read_text().splitlines()[0].lstrip("# ")
        )
        assert meta["params"]["beta"] == 0.6

    def test_sync_and_ber_tables(self, tmp_path):
        assert main(
            ["sync", "--seed", "3", "--run-n", "2000",
             "--sigmas", "0,0.01,0.02,0.03", "--out-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "sync_sigma.csv").exists()
        assert main(
            ["ber", "--mode", "histogram", "--seed", "4", "--bits", "600",
             "--link-noise-sigma", "0.006", "--out-dir", str(tmp_path)]
        ) == 0
        stats = json.loads((tmp_path / "symbol_stats.json").read_text())
        assert stats["mu0"] < 0 < stats["mu1"]

    def test_link_mismatch_scales_the_receiver_map(self, tmp_path):
        """--link-mismatch runs ber's receiver on the map with a, b and c
        scaled by 1 + mismatch; the transmitter keeps the map."""
        assert main(
            ["ber", "--mode", "histogram", "--seed", "4", "--bits", "600",
             "--link-noise-sigma", "0.006", "--link-mismatch", "0.002",
             "--out-dir", str(tmp_path)]
        ) == 0
        stats = json.loads((tmp_path / "symbol_stats.json").read_text())
        p = cl.DEFAULT_PARAMS
        bits = prbs(600, seed=link.prbs_seed(4))

        def fit(recv_params):
            _, fitted, threshold, _ = link.run_link(
                p, bits, ModulationConfig(), seed=4, noise_sigma=0.006,
                recv_params=recv_params,
            )
            return {**dataclasses.asdict(fitted), "optimal_threshold": threshold}

        scaled = fit(p.replace(a=p.a * 1.002, b=p.b * 1.002, c=p.c * 1.002))
        matched = fit(None)
        for key in ("mu0", "sigma0", "mu1", "sigma1", "p0", "p1", "optimal_threshold"):
            assert stats[key] == scaled[key], key
        assert stats["sigma1"] != matched["sigma1"]

    def test_metadata_echoes_the_command_arguments(self, tmp_path):
        """Runs that differ only in a subcommand argument write different
        metadata; the output directory and the thread count are not echoed."""

        def metadata(out, *extra):
            argv = ["ber", "--mode", "sweep", "--seed", "1", "--amplitudes", "0.1",
                    "--out-dir", str(tmp_path / out), *extra]
            assert main(argv) == 0
            return (tmp_path / out / "ber_amplitude.csv").read_text().splitlines()[0]

        first = metadata("a", "--bits", "300")
        assert metadata("b", "--bits", "300", "--threads", "2") == first
        assert metadata("c", "--bits", "400") != first
        assert json.loads(first.lstrip("# "))["args"] == {
            "command": "ber", "mode": "sweep", "amplitudes": "0.1", "bits": 300,
            "bins": 81, "unfiltered": False,
        }

    def test_sync_sigma_seeds_do_not_overlap(self, tmp_path):
        """Each sigma gets a spawned sub-seed, so shifting the master seed shares no run."""

        def row_at(sigmas, seed, sigma):
            out = tmp_path / f"seed{seed}"
            argv = ["sync", "--seed", str(seed), "--run-n", "1500", "--sigmas", sigmas]
            assert main(argv + ["--out-dir", str(out)]) == 0
            lines = (out / "sync_sigma.csv").read_text().splitlines()[2:]
            (row,) = [line for line in lines if float(line.split(",")[0]) == sigma]
            return row

        # seeds 1 + 1 and 2 + 0 under a master-seed-plus-index rule
        assert row_at("0.02,0.01,0.03", 1, 0.01) != row_at("0.01,0.02,0.03", 2, 0.01)

    @pytest.mark.parametrize("sigmas", ["0.02,0.01", "0.01,0.01,0.01"])
    def test_sync_sigma_too_few_levels_writes_nothing(self, tmp_path, sigmas):
        out = tmp_path / "out"
        argv = ["sync", "--seed", "1", "--run-n", "1500", "--sigmas", sigmas]
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_settings_typed_from_flag_and_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("run.n = 1200\nmap.b = 1\n")
        parse = cli.build_parser().parse_args
        from_flags = cli.Settings(parse(["map", "--run-n", "1200", "--map-b", "1"])).echo()
        from_config = cli.Settings(parse(["map", "--config", str(config)])).echo()
        assert from_flags["config"] == from_config["config"]
        echo = from_flags["config"]
        assert echo["run.n"] == 1200 and echo["map.b"] == 1.0
        assert set(echo) == COMMAND_SETTINGS["map"]
        assert all(type(value) is type(cli.DEFAULTS[key]) for key, value in echo.items())

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--run-n", "12.5"], None),
            (["--run-n", "many"], None),
            (["--map-beta", "half"], None),
            ([], "run.n = 1200.5"),
            ([], "map.beta = true"),
            ([], "link.samples_per_bit = [50]"),
        ],
    )
    def test_uncoercible_setting_exits_validation(self, tmp_path, capsys, flags, config):
        # each setting goes to a command that reads it: ber the link's, map the rest
        command = "ber" if config and config.startswith("link.") else "map"
        argv = [command, "--seed", "1", "--out-dir", str(tmp_path / "out"), *flags]
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config + "\n")
            argv += ["--config", str(path)]
        assert main(argv) == 2
        assert ": expected " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_exits_validation(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("run.n = 50\nmap.bta = 0.9\n")
        out = tmp_path / "out"
        argv = ["map", "--seed", "1", "--run-n", "50", "--config", str(config)]
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert "map.bta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, table, header, report",
        [
            (["lyapunov", "--method", "qr"], "lyapunov_qr.csv",
             "method,lambda1,lambda2,lambda3", None),
            (["lyapunov", "--method", "er"], "lyapunov_er.csv",
             "method,lambda1,lambda2,lambda3", None),
            (["lyapunov", "--method", "wolf"], "lyapunov_wolf.csv",
             "method,lambda1", None),
            (["lyapunov", "--method", "beta-sweep", "--points", "2"],
             "lyapunov_beta_sweep.csv", "beta,method,lambda1,lambda2,lambda3", None),
            (["lyapunov", "--method", "settling-sweep"], "lyapunov_settling.csv",
             "t_n,lambda1,lambda2,lambda3", None),
            (["sync", "--mode", "grid", "--gammas=-1.3,-1.0", "--sigmas", "0,0.02"],
             "sync_grid.csv", "gamma,sigma,rms_x,rms_y,rms_z", None),
            (["ber", "--mode", "sweep", "--amplitudes", "0.05,0.1"],
             "ber_amplitude.csv",
             "amplitude,ber,ci_low,ci_high,predicted_ber,errors,bits", None),
            (["ber", "--mode", "threshold-scan"], "threshold_scan.csv",
             "threshold,predicted_ber", "threshold_optimum.json"),
            (["ber", "--mode", "histogram", "--unfiltered"], "symbol_histogram.csv",
             "bit,bin_low,bin_high,count", "symbol_stats.json"),
        ],
        ids=["qr", "er", "wolf", "beta-sweep", "settling-sweep", "sync-grid",
             "ber-sweep", "threshold-scan", "histogram-unfiltered"],
    )
    def test_table_modes(self, tmp_path, argv, table, header, report):
        common = ["--seed", "6", "--out-dir", str(tmp_path)]
        if argv[0] == "ber":
            common += ["--bits", "600", "--link-noise-sigma", "0.006"]
        else:
            common += ["--run-n", "2000"]
        assert main(argv + common) == 0
        lines = (tmp_path / table).read_text().splitlines()
        metas = [json.loads(lines[0].lstrip("# "))]
        assert lines[1] == header
        assert len(lines) > 2
        if report is not None:
            metas.append(json.loads((tmp_path / report).read_text()))
        for meta in metas:
            assert meta["seed"] == 6
            assert set(meta["config"]) == COMMAND_SETTINGS[argv[0]]
            if argv[0] == "ber":
                assert meta["config"]["link.noise_sigma"] == 0.006
            else:
                assert type(meta["config"]["run.n"]) is int
                assert meta["config"]["run.n"] == 2000

    def test_wav_round_trip_via_files(self, tmp_path):
        payload = tmp_path / "speech.wav"
        write_wav(payload, synth_speech(duration=0.5, seed=3))
        masked = tmp_path / "masked.bin"
        recovered = tmp_path / "recovered.wav"
        assert main(
            ["send-file", "--input", str(payload), "--output", str(masked),
             "--seed", "9", "--out-dir", str(tmp_path)]
        ) == 0
        assert main(
            ["recv-file", "--input", str(masked), "--output", str(recovered),
             "--seed", "10", "--out-dir", str(tmp_path)]
        ) == 0
        original = read_wav(payload)
        rebuilt = read_wav(recovered)
        assert relative_rms_error(original.samples, rebuilt.samples) < 0.03
        local = decompress_audio(compress_audio(original, 0.22))
        assert np.array_equal(rebuilt.samples, local.samples)

    def test_pgm_round_trip_via_files(self, tmp_path):
        payload = tmp_path / "image.pgm"
        write_pgm(payload, synth_image(64, 64, seed=3))
        masked = tmp_path / "masked.bin"
        recovered = tmp_path / "recovered.pgm"
        assert main(
            ["send-file", "--input", str(payload), "--output", str(masked),
             "--codec-keep-fraction", "0.165", "--seed", "9",
             "--out-dir", str(tmp_path)]
        ) == 0
        assert main(
            ["recv-file", "--input", str(masked), "--output", str(recovered),
             "--seed", "10", "--out-dir", str(tmp_path)]
        ) == 0
        local = decompress_image(compress_image(read_pgm(payload), 0.165))
        assert np.array_equal(read_pgm(recovered).pixels, local.pixels)

    def test_crc_failure_under_noise_exits_runtime(self, tmp_path):
        payload = tmp_path / "speech.wav"
        write_wav(payload, synth_speech(duration=0.3, seed=3))
        masked = tmp_path / "masked.bin"
        assert main(
            ["send-file", "--input", str(payload), "--output", str(masked),
             "--seed", "9", "--out-dir", str(tmp_path)]
        ) == 0
        code = main(
            ["recv-file", "--input", str(masked), "--output",
             str(tmp_path / "x.wav"), "--seed", "10",
             "--link-noise-sigma", "0.5", "--out-dir", str(tmp_path)]
        )
        assert code == 3

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            ["recv-file", "--input", str(tmp_path / "absent.bin"),
             "--output", str(tmp_path / "x.wav"), "--seed", "1",
             "--out-dir", str(tmp_path)]
        )
        assert code == 4

    def test_send_file_checks_output_directory_first(self, tmp_path, monkeypatch):
        payload = tmp_path / "speech.wav"
        write_wav(payload, synth_speech(duration=0.05, seed=3))

        def unreachable(*args, **kwargs):
            raise AssertionError("reached after the output check")

        monkeypatch.setattr(cli, "file_to_packet", unreachable)
        monkeypatch.setattr(cli, "mask_transmit", unreachable)
        for out, out_dir in output_directory_cases(tmp_path, "masked.bin"):
            code = main(
                ["send-file", "--input", str(payload), "--output", str(out),
                 "--seed", "1", "--out-dir", str(out_dir)]
            )
            assert code == 4
            assert not out.exists()
        assert not (tmp_path / "absent").exists()
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["map"], "generate_trajectory"),
            (["lyapunov", "--method", "qr"], "generate_trajectory"),
            (["sync"], "sync_sweep"),
            (["ber"], "ber_sweep"),
            (["ber", "--mode", "histogram"], "run_link"),
        ],
        ids=["map", "lyapunov", "sync", "ber", "ber_histogram"],
    )
    def test_command_checks_output_directory_first(self, tmp_path, monkeypatch, argv, stage):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached after the output check")

        monkeypatch.setattr(cli, stage, unreachable)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        for out_dir in (blocker / "out", blocker):
            assert main(argv + ["--seed", "1", "--out-dir", str(out_dir)]) == 4

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write to any directory")
    def test_out_dir_under_a_read_only_directory(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached after the output check")

        monkeypatch.setattr(cli, "generate_trajectory", unreachable)
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o555)
        try:
            code = main(["map", "--seed", "1", "--out-dir", str(locked / "a" / "out")])
        finally:
            locked.chmod(0o755)
        assert code == 4
        assert not any(locked.iterdir())

    def test_defaults_are_the_library_defaults(self):
        settings = cli.Settings(cli.build_parser().parse_args(["ber"]))
        assert settings.params() == cl.SystemParams()
        assert settings.modulation() == ModulationConfig()
        assert list(cli.DEFAULTS) == [
            "map.a", "map.b", "map.c", "map.beta", "map.gamma", "run.n",
            "run.transient", "link.amplitude", "link.samples_per_bit", "link.f_clk",
            "link.noise_sigma", "link.mismatch", "codec.keep_fraction",
            "codec.selection", "codec.value_bits",
        ]

    def test_recv_file_checks_output_directory_first(self, tmp_path, monkeypatch):
        masked = masked_file(tmp_path, prbs(64, seed=2))

        def unreachable(*args, **kwargs):
            raise AssertionError("reached after the output check")

        monkeypatch.setattr(cli, "read_masked_series", unreachable)
        monkeypatch.setattr(link, "receiver_output", unreachable)
        for out, out_dir in output_directory_cases(tmp_path, "out.wav"):
            code = main(
                ["recv-file", "--input", str(masked), "--output", str(out),
                 "--seed", "1", "--out-dir", str(out_dir)]
            )
            assert code == 4
            assert not out.exists()
        assert not (tmp_path / "absent").exists()
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("seed", [2**63, -1], ids=["above_i64", "negative"])
    @pytest.mark.parametrize("command", ["map", "send-file"])
    def test_seed_outside_the_header_range_exits_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, seed
    ):
        """Both binary headers store the seed as an i64, so a seed outside
        [0, 2**63 - 1] is refused before anything is computed or written."""

        def unreachable(*args, **kwargs):
            raise AssertionError("reached after the seed check")

        for stage in ("generate_trajectory", "file_to_packet", "mask_transmit"):
            monkeypatch.setattr(cli, stage, unreachable)
        argv = [command]
        if command == "send-file":
            payload = tmp_path / "speech.wav"
            write_wav(payload, synth_speech(duration=0.05, seed=3))
            argv += ["--input", str(payload), "--output", str(tmp_path / "x.masked")]
        out = tmp_path / "out"
        code = main(argv + ["--run-n", "10"] * (command == "map")
                    + ["--seed", str(seed), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --seed must lie in [0, {2**63 - 1}], got {seed}\n"
        )
        assert not out.exists()
        assert not (tmp_path / "x.masked").exists()

    @pytest.mark.parametrize("command", ["send-file", "recv-file"])
    def test_output_that_is_a_directory_exits_before_any_work(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached after the output check")

        if command == "send-file":
            source = tmp_path / "speech.wav"
            write_wav(source, synth_speech(duration=0.05, seed=3))
            stages = [(cli, "file_to_packet"), (cli, "mask_transmit")]
        else:
            source = masked_file(tmp_path, prbs(20, seed=3))
            stages = [(cli, "read_masked_series"), (link, "receiver_output")]
        for module, stage in stages:
            monkeypatch.setattr(module, stage, unreachable)
        out = tmp_path / "taken"
        out.mkdir()
        code = main(
            [command, "--input", str(source), "--output", str(out),
             "--seed", "1", "--out-dir", str(tmp_path / "reports")]
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1
        assert err[0].startswith("i/o error: ") and str(out) in err[0]
        assert not any(out.iterdir())
        assert not (tmp_path / "reports").exists()

    def test_recv_report_names_the_header_settings(self, tmp_path):
        """recv-file runs with the masked file's map and modulation, which
        it takes no flags for, and its report says so."""
        payload = tmp_path / "speech.wav"
        write_wav(payload, synth_speech(duration=0.05, seed=3))
        masked = tmp_path / "masked.bin"
        assert main(
            ["send-file", "--input", str(payload), "--output", str(masked),
             "--seed", "9", "--map-gamma", "-1.2", "--link-samples-per-bit", "20",
             "--out-dir", str(tmp_path / "sent")]
        ) == 0
        assert main(
            ["recv-file", "--input", str(masked), "--output", str(tmp_path / "x.wav"),
             "--seed", "10", "--out-dir", str(tmp_path / "received")]
        ) == 0
        report = json.loads((tmp_path / "received" / "recv_report.json").read_text())
        assert report["params"] == dataclasses.asdict(cl.DEFAULT_PARAMS.replace(gamma=-1.2))
        assert report["modulation"] == {
            "amplitude": 0.1, "samples_per_bit": 20, "f_clk": 5.0e5, "bit_rate": 2.5e4
        }
        verdict = stability_check(cl.DEFAULT_PARAMS.replace(gamma=-1.2))
        assert report["stability"] == {"bound": verdict["bound"], "margins": verdict["margins"]}
        assert report["backend"] == ("numba" if _kernels.HAVE_NUMBA else "interpreted")
        # the echo holds only the setting the receiver reads: the channel
        assert report["config"] == {"link.noise_sigma": 0.0}

    def test_recv_file_seeds_share_no_stream(self, tmp_path, monkeypatch):
        """Channel and receiver seeds come from one split of --seed, so no
        --seed draws its noise or start state from another --seed's stream.
        The seeds are recorded where the link draws them."""
        payload = tmp_path / "speech.wav"
        write_wav(payload, synth_speech(duration=0.05, seed=3))
        masked = tmp_path / "masked.bin"
        assert main(
            ["send-file", "--input", str(payload), "--output", str(masked),
             "--seed", "9", "--out-dir", str(tmp_path)]
        ) == 0
        used = {}
        channel, start = link.channel_awgn, link.random_initial_state

        def record_channel(series, sigma, seed):
            used[current]["channel"] = seed
            return channel(series, sigma, seed)

        def record_start(seed):
            used[current]["receiver"] = seed
            return start(seed)

        monkeypatch.setattr(link, "channel_awgn", record_channel)
        monkeypatch.setattr(link, "random_initial_state", record_start)
        for current in range(21):
            used[current] = {}
            assert main(
                ["recv-file", "--input", str(masked),
                 "--output", str(tmp_path / "recovered.wav"),
                 "--seed", str(current), "--link-noise-sigma", "0.001",
                 "--out-dir", str(tmp_path)]
            ) == 0
        seeds = [s for run in used.values() for s in (run["channel"], run["receiver"])]
        assert len(seeds) == 42
        assert len(set(seeds)) == 42

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("map", ["--link-amplitude", "0.2"]),
            ("lyapunov", ["--run-transient", "5"]),
            ("sync", ["--link-noise-sigma", "0.1"]),
            ("ber", ["--run-n", "2000"]),
            ("send-file", ["--link-noise-sigma", "0.1"]),
            ("recv-file", ["--map-a", "1"]),
            ("selftest", ["--link-amplitude", "0.2"]),
        ],
    )
    def test_flag_the_command_does_not_read_exits_validation(
        self, tmp_path, capsys, command, flag
    ):
        argv = command_argv(command, tmp_path) + flag
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_config_key_the_command_does_not_read_exits_validation(self, tmp_path, capsys):
        masked = masked_file(tmp_path, prbs(64, seed=2))
        config = tmp_path / "run.cfg"
        config.write_text("link.noise_sigma = 0.001\nmap.beta = 0.4\n")
        out, out_dir = tmp_path / "x.wav", tmp_path / "out"
        code = main(
            ["recv-file", "--input", str(masked), "--output", str(out), "--seed", "1",
             "--config", str(config), "--out-dir", str(out_dir)]
        )
        assert code == 2
        assert "recv-file has no setting 'map.beta'" in capsys.readouterr().err
        assert not out.exists() and not out_dir.exists()

    @pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
    def test_config_echo_holds_the_command_settings(self, tmp_path, command):
        args = cli.build_parser().parse_args(command_argv(command, tmp_path))
        echo = cli.Settings(args).echo()["config"]
        assert set(echo) == COMMAND_SETTINGS[command]
        assert echo == {key: cli.DEFAULTS[key] for key in echo}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ber", "--mode", "sweep", "--amplitudes", ","], "grid ',' holds no values"),
            (["lyapunov", "--method", "settling-sweep", "--t-n-grid", ","],
             "grid ',' holds no values"),
            (["sync", "--sigmas", ","], "grid ',' holds no values"),
            (["sync", "--mode", "grid", "--sigmas", ","], "grid ',' holds no values"),
            (["sync", "--mode", "grid", "--gammas", ","], "grid ',' holds no values"),
            (["lyapunov", "--method", "beta-sweep", "--points", "0"],
             "argument --points: must be an integer of at least 1, got '0'"),
            (["lyapunov", "--method", "beta-sweep", "--points", "-2"],
             "argument --points: must be an integer of at least 1, got '-2'"),
            (["ber", "--mode", "threshold-scan", "--bins", "0"],
             "argument --bins: must be an integer of at least 1, got '0'"),
            (["ber", "--mode", "histogram", "--bins", "0"],
             "argument --bins: must be an integer of at least 1, got '0'"),
            (["ber", "--mode", "sweep", "--bits", "0"],
             "argument --bits: must be an integer of at least 1, got '0'"),
        ],
        ids=["amplitudes", "t-n-grid", "sigmas", "grid-sigmas", "grid-gammas",
             "points-0", "points-negative", "scan-bins", "histogram-bins", "bits"],
    )
    def test_empty_grid_or_count_exits_validation(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        try:
            code = main(argv + ["--seed", "1", "--out-dir", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, library",
        [
            (["map", "--run-n", "0"], lambda: cl.generate_trajectory(0, seed=1)),
            (["map", "--run-transient", "-1"],
             lambda: cl.generate_trajectory(1, seed=1, transient=-1)),
            (["lyapunov", "--method", "qr", "--run-n", "1"],
             lambda: cl.analysis.le_qr(cl.generate_trajectory(1, seed=1))),
            (["lyapunov", "--method", "er", "--run-n", "1999"],
             lambda: cl.analysis.le_eckmann_ruelle(cl.generate_trajectory(1999, seed=1).states)),
            (["lyapunov", "--method", "wolf", "--run-n", "500"],
             lambda: cl.analysis.le_wolf(cl.generate_trajectory(500, seed=1).states)),
            (["lyapunov", "--method", "beta-sweep", "--run-n", "500"],
             lambda: cl.analysis.le_wolf(cl.generate_trajectory(500, seed=1).states)),
            (["lyapunov", "--method", "settling-sweep", "--run-n", "5"],
             lambda: cl.analysis.le_vs_settling(cl.SystemParams(), [7.37], n=5)),
            (["sync", "--run-n", "0"], lambda: cl.sync.run_sync(n=0)),
        ],
        ids=["map-n", "map-transient", "qr", "er", "wolf", "beta-sweep",
             "settling-sweep", "sync"],
    )
    def test_run_too_short_exits_before_output(self, tmp_path, capsys, argv, library):
        """A ``run.n`` below what the method needs exits 2 with the library's
        own message, before ``--out-dir`` is created."""
        with pytest.raises(ValueError) as exc:
            library()
        out = tmp_path / "out"
        assert main(argv + ["--seed", "1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ber", "--mode", "sweep", "--amplitudes", "0.1,0.05"],
             "amplitudes must be finite, positive and ascending"),
            (["ber", "--mode", "sweep", "--link-noise-sigma=-1"],
             "sigma must be finite and >= 0, got -1.0"),
            (["ber", "--mode", "histogram", "--bits", "1"],
             "both symbol classes must be present"),
            (["sync", "--sigmas=-0.1,0,0.01"], "sigma must be finite and >= 0, got -0.1"),
            (["lyapunov", "--method", "settling-sweep", "--t-n-grid=-1,2"],
             "t_n values must be positive, got -1.0"),
            (["recv-file", "--link-noise-sigma=-1"], "sigma must be finite and >= 0, got -1.0"),
            (["ber", "--mode", "sweep", "--map-gamma", "-0.5"], UNLOCKABLE),
            (["send-file", "--map-gamma", "-0.5"], UNLOCKABLE),
        ],
        ids=["descending-amplitudes", "ber-noise", "one-bit-histogram", "sync-sigma",
             "t-n-grid", "recv-noise", "ber-unlockable-map", "send-unlockable-map"],
    )
    def test_library_refusal_leaves_no_out_dir(self, tmp_path, capsys, argv, message):
        """A setting only the library checks exits 2 with the library's
        message; ``--out-dir`` appears with the first output file, so a run
        refused before that leaves none behind."""
        if argv[0] == "recv-file":
            masked = masked_file(tmp_path, prbs(20, seed=3))
            argv = argv + ["--input", str(masked), "--output", str(tmp_path / "x.wav")]
        if argv[0] == "send-file":
            payload = tmp_path / "speech.wav"
            write_wav(payload, synth_speech(duration=0.05, seed=3))
            argv = argv + ["--input", str(payload), "--output", str(tmp_path / "x.masked")]
        out = tmp_path / "out"
        assert main(argv + ["--seed", "1", "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.wav").exists()
        assert not (tmp_path / "x.masked").exists()

    def test_readme_commands_parse(self):
        """Every ``chaoslink`` line in README's code blocks names only
        arguments its command takes."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```")[1::2]
        lines = [
            line
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("chaoslink ")
        ]
        assert len(lines) >= 20
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")


COLD_START_LOADED = """
import contextlib, io, json, sys
from pathlib import Path

def loaded():
    names = ("fft", "special", "stats", "optimize", "signal", "spatial")
    return [m for m in names if "scipy." + m in sys.modules]
"""

COLD_START = COLD_START_LOADED + """
import chaoslink, chaoslink.cli
print(json.dumps(loaded()))
from chaoslink import codecs, signals
d = Path(sys.argv[1])
codecs.write_pgm(d / "image.pgm", signals.synth_image(16, 16, seed=1))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["send-file", "--input", str(d / "image.pgm"), "--output", str(d / "masked.bin")],
        ["recv-file", "--input", str(d / "masked.bin"), "--output", str(d / "out.pgm")],
    ):
        assert chaoslink.cli.main(argv + ["--seed", "1", "--out-dir", str(d)]) == 0
print(json.dumps(loaded()))
"""

COLD_START_BER = COLD_START_LOADED + """
import chaoslink.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["ber", "--mode", "sweep", "--amplitudes", "0.05,0.1"],
        ["ber", "--mode", "histogram"],
    ):
        assert chaoslink.cli.main(argv + ["--bits", "2000", "--seed", "1", "--out-dir", sys.argv[1]]) == 0
print(json.dumps(loaded()))
"""

COLD_START_PSD = COLD_START_LOADED + """
import numpy as np
from chaoslink import analysis
held = analysis.hold_upsample(np.random.default_rng(1).standard_normal(512), 8)
analysis.compensate_zoh(analysis.welch_psd(held, segment_length=1024, fs=8.0), f_clk=1.0)
print(json.dumps(loaded()))
"""


class TestColdStart:
    """A fresh process imports each scipy subpackage only where it is called."""

    def run_fresh(self, script, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return [json.loads(line) for line in done.stdout.splitlines()]

    def test_import_and_file_link_leave_unused_subpackages_unloaded(self, tmp_path):
        after_import, after_link = self.run_fresh(COLD_START, tmp_path)
        assert after_import == []
        # the DCT codecs call scipy.fft, which loads scipy.special
        assert set(after_link) <= {"fft", "special"}

    def test_ber_sweep_and_histogram_load_only_special(self, tmp_path):
        # the threshold and the confidence interval are closed forms in
        # scipy.special: neither scipy.stats nor scipy.optimize is loaded
        (after_ber,) = self.run_fresh(COLD_START_BER, tmp_path)
        assert after_ber == ["special"]

    def test_welch_and_hold_helpers_load_no_subpackage(self, tmp_path):
        # the Welch estimate runs on numpy.fft: scipy.signal is not loaded
        (after_psd,) = self.run_fresh(COLD_START_PSD, tmp_path)
        assert after_psd == []
