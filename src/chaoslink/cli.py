"""Command-line interface: simulation, analysis, and file-link commands.

Configuration comes from an optional flat dotted-key file (``key = value``
per line, ``#`` comments) overridden by command-line flags. All stochastic
commands require a seed so every output is reproducible; outputs embed their
full configuration.

Exit codes: 0 success, 2 validation error, 3 runtime/convergence failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, _kernels, analysis
from .codecs import (
    PacketCorruptionError,
    bits_to_packet,
    compress_audio,
    file_to_packet,
    packet_to_bits,
    packet_to_file,
)
from .core_map import DegenerateTrajectoryError, Trajectory, generate_trajectory
from .io_formats import (
    open_masked,
    write_csv,
    write_json_report,
    write_masked,
    write_trajectory_csv,
    write_trajectory_dump,
)
from .link import (
    ModulationConfig,
    ber_measure,
    ber_predict,
    ber_sweep,
    prbs,
    prbs_seed,
    receive_bits,
    run_link,
    transmit,
)
from .params import SettlingConfig, SystemParams
from .sync import fit_deviation_model, stability_check, sync_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# both binary headers store the seed as an i64
SEED_MAX = 2**63 - 1

# the map and modulation entries are the library's own field defaults
DEFAULTS = {
    **{f"map.{f.name}": f.default for f in fields(SystemParams)},
    "run.n": 10000,
    "run.transient": 1000,
    **{f"link.{f.name}": f.default for f in fields(ModulationConfig)},
    "link.noise_sigma": 0.0,
    "link.mismatch": 0.0,
    "codec.keep_fraction": 0.22,
    "codec.selection": "lowfreq",
    "codec.value_bits": 8,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def load_config(path, keys, command: str) -> dict:
    """Parse a flat dotted-key config file into a dict.

    Every key must be one of ``keys``, the settings ``command`` reads; a
    misspelt key, or one the command does not read, would otherwise be
    ignored silently and the run would use the default.
    """
    config = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(
                f"{path}:{lineno}: expected 'key = value'", EXIT_VALIDATION
            )
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliError(
                f"{path}:{lineno}: {command} has no setting {key!r}", EXIT_VALIDATION
            )
        raw = raw.strip()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        config[key] = value
    return config


def _coerce(key: str, value):
    """``value`` as the type of ``DEFAULTS[key]``; every key has a default.

    Flags arrive as strings and config values as JSON, so coercing both makes
    the settings, and their echo in every output, independent of the source.
    An int setting rejects a float, even a whole one, rather than truncate it.
    """
    kind = type(DEFAULTS[key])
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        raise CliError(f"{key}: expected {kind.__name__}, got {value!r}", EXIT_VALIDATION)


class Settings:
    """Layered configuration: defaults, then config file, then CLI flags.

    The settings are the dotted flags the subcommand registered, each with
    the type of its ``DEFAULTS`` entry.
    """

    def __init__(self, args):
        flags = {k.replace("__", "."): v for k, v in vars(args).items() if "__" in k}
        self.values = {key: value for key, value in DEFAULTS.items() if key in flags}
        if args.config:
            try:
                self.values.update(load_config(args.config, flags, args.command))
            except OSError as exc:
                raise CliError(f"cannot read config: {exc}", EXIT_IO)
        self.values.update((key, value) for key, value in flags.items() if value is not None)
        self.values = {key: _coerce(key, value) for key, value in self.values.items()}
        self.args = args

    def __getitem__(self, key):
        return self.values[key]

    def _build(self, prefix: str, cls):
        return cls(**{f.name: self[f"{prefix}.{f.name}"] for f in fields(cls)})

    def params(self) -> SystemParams:
        return self._build("map", SystemParams)

    def modulation(self) -> ModulationConfig:
        return self._build("link", ModulationConfig)

    def recv_params(self) -> SystemParams:
        """The receiver's map: the map's a, b and c scaled by 1 + link.mismatch."""
        params = self.params()
        scale = 1.0 + self["link.mismatch"]
        return params.replace(
            a=params.a * scale, b=params.b * scale, c=params.c * scale
        )

    def seed(self) -> int:
        seed = self.args.seed
        if seed is None:
            raise CliError("--seed is required for stochastic commands", EXIT_VALIDATION)
        if not 0 <= seed <= SEED_MAX:
            raise CliError(f"--seed must lie in [0, {SEED_MAX}], got {seed}", EXIT_VALIDATION)
        return seed

    def echo(self) -> dict:
        """Dotted settings, seed, and the subcommand with its other
        arguments; the report writers stamp the version. ``config`` holds
        the command's own settings, exactly the ones it reads. ``--config``
        is echoed through the settings it set; ``--threads`` changes no
        result and ``--out-dir`` only where the files go, so neither is
        echoed."""
        skip = {"config", "seed", "out_dir", "threads", "handler"}
        args = {
            k: v for k, v in vars(self.args).items() if "__" not in k and k not in skip
        }
        return {
            "config": {k: self.values[k] for k in sorted(self.values)},
            "seed": self.args.seed,
            "args": args,
        }


def _parse_grid(text: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"cannot parse grid {text!r}", EXIT_VALIDATION)
    if not values:
        raise CliError(f"grid {text!r} holds no values", EXIT_VALIDATION)
    return values


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _write(settings, name: str, content) -> Path:
    """Write one output file under ``--out-dir`` and return its path.

    A trajectory goes to its CSV or binary dump by the name's suffix. A
    ``(header, rows)`` table goes to a CSV and a dict to a JSON report; both
    carry ``settings.echo()``, the CSV as its comment line. The first write
    of a run creates ``--out-dir``, so a run that fails before it leaves none.
    """
    out_dir = Path(settings.args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory: {exc}", EXIT_IO)
    path = out_dir / name
    if isinstance(content, Trajectory):
        if path.suffix == ".csv":
            write_trajectory_csv(path, content)
        else:
            write_trajectory_dump(path, content)
    elif isinstance(content, dict):
        write_json_report(path, {**settings.echo(), **content})
    else:
        header, rows = content
        write_csv(path, header, rows, settings.echo())
    return path


def _check_out_dir(settings) -> None:
    """Exit 4 unless ``--out-dir``, or its nearest existing ancestor, is a
    directory this process can write to; ``_write`` creates it."""
    ancestor = out_dir = Path(settings.args.out_dir)
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise CliError(
            f"cannot create output directory {out_dir}: {ancestor} is not a writable directory",
            EXIT_IO,
        )


def _output_path(settings) -> Path:
    """``--output``, checked before any work: its directory must exist, and
    it must not be a directory itself."""
    out = Path(settings.args.output)
    if not out.parent.is_dir():
        raise CliError(f"output directory {out.parent} does not exist", EXIT_IO)
    if out.is_dir():
        # the error writing it would raise at the end of the run
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    return out


def cmd_map(settings: Settings) -> int:
    params = settings.params()
    seed = settings.seed()
    settling = None
    if settings.args.t_n is not None:
        settling = SettlingConfig(t_n=settings.args.t_n)
    _check_out_dir(settings)
    traj = generate_trajectory(
        settings["run.n"], params=params, seed=seed, settling=settling,
        transient=settings["run.transient"],
    )
    csv_path = _write(settings, "trajectory.csv", traj)
    dump_path = _write(settings, "trajectory.bin", traj)
    print(f"wrote {csv_path} and {dump_path} ({len(traj)} states)")
    return EXIT_OK


def cmd_lyapunov(settings: Settings) -> int:
    params = settings.params()
    method = settings.args.method
    lambdas = ["lambda1", "lambda2", "lambda3"]
    if method == "analytic":
        spectrum = analysis.le_analytic(params)
    else:
        seed = settings.seed()
        n = settings["run.n"]
    if method == "settling-sweep":
        grid = _parse_grid(settings.args.t_n_grid)
    _check_out_dir(settings)

    if method in ("qr", "er", "wolf"):
        traj = generate_trajectory(n, params=params, seed=seed)
        if method == "qr":
            spectrum = analysis.le_qr(traj)
        elif method == "er":
            spectrum = analysis.le_eckmann_ruelle(traj.states)
        else:
            spectrum = analysis.le_wolf(traj.states)

    if method == "beta-sweep":
        betas = np.linspace(0.0, 1.0, int(settings.args.points))
        rows = []
        for beta in betas:
            traj = generate_trajectory(
                n, params=params.replace(beta=float(beta)), seed=seed
            )
            qr = analysis.le_qr(traj)
            er = analysis.le_eckmann_ruelle(traj.states)
            wolf = analysis.le_wolf(traj.states)
            rows.append([beta, "qr", *qr.exponents])
            rows.append([beta, "eckmann-ruelle", *er.exponents])
            rows.append([beta, "wolf", wolf.exponents[0], "", ""])
        path = _write(
            settings, "lyapunov_beta_sweep.csv", (["beta", "method", *lambdas], rows)
        )
    elif method == "settling-sweep":
        rows = [
            [t_n, *spectrum.exponents]
            for t_n, spectrum in analysis.le_vs_settling(params, grid, n=n, seed=seed)
        ]
        path = _write(settings, "lyapunov_settling.csv", (["t_n", *lambdas], rows))
    else:
        exponents = spectrum.exponents
        print(f"{method} exponents: " + ", ".join(f"{v:.6f}" for v in exponents))
        header = ["method", *lambdas[: len(exponents)]]
        path = _write(
            settings, f"lyapunov_{method}.csv", (header, [[method, *exponents]])
        )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sync(settings: Settings) -> int:
    params = settings.params()
    seed = settings.seed()
    sigmas = _parse_grid(settings.args.sigmas)
    gammas = [params.gamma]
    if settings.args.mode == "grid":
        gammas = _parse_grid(settings.args.gammas)
    # the deviation fit needs 3 points at 2 or more noise levels; check before any run
    elif len(sigmas) < 3 or len(set(sigmas)) < 2:
        raise CliError(
            "sigma mode needs at least 3 --sigmas with at least 2 distinct values",
            EXIT_VALIDATION,
        )
    _check_out_dir(settings)
    points = sync_sweep(params, gammas, sigmas, n=settings["run.n"], seed=seed)
    if settings.args.mode == "grid":
        rows = [[p["gamma"], p["sigma"], *p["run"].rms_error] for p in points]
        header = ["gamma", "sigma", "rms_x", "rms_y", "rms_z"]
        path = _write(settings, "sync_grid.csv", (header, rows))
        print(f"wrote {path}")
        return EXIT_OK

    rows = [
        [p["sigma"], *p["run"].rms_error, *p["run"].correlation, p["run"].delta_n]
        for p in points
    ]
    header = ["sigma", "rms_x", "rms_y", "rms_z", "corr_x", "corr_y", "corr_z", "delta_n"]
    path = _write(settings, "sync_sigma.csv", (header, rows))
    fit = fit_deviation_model([(p["sigma"], p["run"].delta_n) for p in points])
    report = _write(settings, "sync_deviation_fit.json", {"fit": asdict(fit)})
    print(f"wrote {path} and {report}")
    return EXIT_OK


def cmd_ber(settings: Settings) -> int:
    params = settings.params()
    seed = settings.seed()
    cfg = settings.modulation()
    mode = settings.args.mode
    n_bits = int(settings.args.bits)
    noise = settings["link.noise_sigma"]
    recv_params = settings.recv_params()
    if mode == "sweep":
        amplitudes = _parse_grid(settings.args.amplitudes)
    _check_out_dir(settings)

    if mode == "sweep":
        results = ber_sweep(
            params,
            amplitudes,
            cfg,
            n_bits=n_bits,
            seed=seed,
            noise_sigma=noise,
            recv_params=recv_params,
            max_workers=settings.args.threads,
        )
        rows = [
            [
                r.amplitude,
                r.measured_ber,
                *r.confidence_interval,
                r.predicted_ber,
                r.errors,
                r.bits,
            ]
            for r in results
        ]
        header = ["amplitude", "ber", "ci_low", "ci_high", "predicted_ber", "errors", "bits"]
        path = _write(settings, "ber_amplitude.csv", (header, rows))
        print(f"wrote {path}")
        return EXIT_OK

    bits = prbs(n_bits, seed=prbs_seed(seed))
    values, fitted, threshold, decisions = run_link(
        params, bits, cfg, seed=seed, noise_sigma=noise, recv_params=recv_params,
        filtered=not settings.args.unfiltered,
    )
    if mode == "histogram":
        edges = np.histogram_bin_edges(values, bins=settings.args.bins)
        rows = []
        for cls in (0, 1):
            counts, _ = np.histogram(values[fitted.labels == cls], bins=edges)
            for lo, hi, count in zip(edges[:-1], edges[1:], counts):
                rows.append([cls, lo, hi, int(count)])
        header = ["bit", "bin_low", "bin_high", "count"]
        path = _write(settings, "symbol_histogram.csv", (header, rows))
        report = _write(
            settings,
            "symbol_stats.json",
            {
                "mu0": fitted.mu0,
                "sigma0": fitted.sigma0,
                "mu1": fitted.mu1,
                "sigma1": fitted.sigma1,
                "p0": fitted.p0,
                "p1": fitted.p1,
                "optimal_threshold": threshold,
                # per-sample labels when unfiltered, so score against those
                "measured_ber": ber_measure(fitted.labels, decisions).measured_ber,
            },
        )
    else:
        grid = np.linspace(fitted.mu0, fitted.mu1, settings.args.bins)
        rows = [[lam, float(ber_predict(fitted, lam))] for lam in grid]
        path = _write(settings, "threshold_scan.csv", (["threshold", "predicted_ber"], rows))
        optimum = {"lambda_opt": threshold, "ber_opt": float(ber_predict(fitted, threshold))}
        report = _write(settings, "threshold_optimum.json", optimum)
    print(f"wrote {path} and {report}")
    return EXIT_OK


def cmd_send_file(settings: Settings) -> int:
    params = settings.params()
    seed = settings.seed()
    cfg = settings.modulation()
    out = _output_path(settings)
    _check_out_dir(settings)
    payload = Path(settings.args.input)
    packet = file_to_packet(
        payload,
        settings["codec.keep_fraction"],
        selection=settings["codec.selection"],
        value_bits=settings["codec.value_bits"],
    )
    bits = packet_to_bits(packet)
    # the file header records this seed, so the transmitter uses it as given;
    # each chunk is written as the transmitter emits it
    header, chunks = transmit(params, bits, cfg, seed)
    write_masked(out, header, chunks)
    report = _write(
        settings,
        "send_report.json",
        {
            "payload": str(payload),
            "masked_series": str(out),
            "payload_bits": int(bits.size),
            "samples": header.size,
            "compression_ratio": packet.compression_ratio,
        },
    )
    print(f"wrote {out} ({header.size} samples) and {report}")
    return EXIT_OK


def cmd_recv_file(settings: Settings) -> int:
    seed = settings.seed()
    out = _output_path(settings)
    _check_out_dir(settings)
    # the file is received slice by slice, and only the decided bits are kept
    with open_masked(settings.args.input) as (header, read):
        bits = receive_bits(header, read, seed, settings["link.noise_sigma"])
    packet = bits_to_packet(bits)  # raises PacketCorruptionError on CRC failure
    packet_to_file(packet, out)
    verdict = stability_check(header.params)
    report = _write(
        settings,
        "recv_report.json",
        {
            "masked_series": str(settings.args.input),
            "recovered": str(out),
            "payload_kind": packet.kind,
            "payload_bits": int(bits.size),
            "compression_ratio": packet.compression_ratio,
            # the receiver runs with the file header's map and modulation
            "params": asdict(header.params),
            "stability": {key: verdict[key] for key in ("bound", "margins")},
            "modulation": {**asdict(header.config), "bit_rate": header.config.bit_rate},
            "backend": "numba" if _kernels.HAVE_NUMBA else "interpreted",
        },
    )
    print(f"wrote {out} and {report}")
    return EXIT_OK


def cmd_selftest(settings: Settings) -> int:
    """Fast internal checks of the main numerical claims."""
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1

    params = SystemParams()
    spectrum = analysis.le_analytic(params.replace(beta=0.0))
    expected = (0.683, 0.302, -0.985)
    check(
        "analytic spectrum",
        all(abs(a - b) < 1e-3 for a, b in zip(spectrum.exponents, expected)),
        ", ".join(f"{v:.3f}" for v in spectrum.exponents),
    )
    check("default coupling stable", stability_check(params)["stable"])
    bits = prbs(2000, seed=7)
    _, fitted, threshold, decisions = run_link(params, bits, ModulationConfig(), seed=11)
    result = ber_measure(bits, decisions)
    check("noiseless link", result.errors == 0, f"ber={result.measured_ber:.1e}")
    from .signals import synth_speech

    clip = synth_speech(duration=0.5, seed=1)
    packet = compress_audio(clip, 0.22)
    rebuilt = bits_to_packet(packet_to_bits(packet))
    check(
        "packet round trip",
        all(np.array_equal(a, b) for a, b in zip(rebuilt.values, packet.values)),
    )
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def _settings(*prefixes: str) -> argparse.ArgumentParser:
    """A parent parser with a flag for each ``DEFAULTS`` key that is one of
    ``prefixes`` or lies under one (``"map"`` holds ``map.a``, ...)."""
    parent = argparse.ArgumentParser(add_help=False)
    for key in DEFAULTS:
        if any(key == p or key.startswith(p + ".") for p in prefixes):
            flag = "--" + key.replace(".", "-").replace("_", "-")
            parent.add_argument(flag, dest=key.replace(".", "__"), default=None)
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat dotted-key config file")
    common.add_argument("--seed", type=int, help="master seed (required for stochastic commands)")
    common.add_argument("--out-dir", default=".", help="directory for output artifacts")
    common.add_argument("--threads", type=int, default=1, help="worker cap for ber --mode sweep")
    # send-file's modulation settings; the channel and mismatch act only at a receiver
    modulation = [f"link.{f.name}" for f in fields(ModulationConfig)]

    parser = argparse.ArgumentParser(
        prog="chaoslink",
        description="Synchronized hyperchaotic maps and chaotic-masking communication",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser(
        "map",
        parents=[common, _settings("map", "run")],
        help="simulate a trajectory, write CSV + binary dump",
    )
    p_map.add_argument("--t-n", type=float, default=None, help="settling hold time (non-ideal mode)")
    p_map.set_defaults(handler=cmd_map)

    p_le = sub.add_parser(
        "lyapunov", parents=[common, _settings("map", "run.n")], help="Lyapunov spectra and sweeps"
    )
    p_le.add_argument(
        "--method",
        choices=["analytic", "qr", "er", "wolf", "beta-sweep", "settling-sweep"],
        default="qr",
    )
    p_le.add_argument("--points", type=_count, default=21, help="beta sweep resolution")
    p_le.add_argument(
        "--t-n-grid", default="0.8,1.5,2,3,5,7.37", help="settling sweep grid"
    )
    p_le.set_defaults(handler=cmd_lyapunov)

    p_sync = sub.add_parser(
        "sync", parents=[common, _settings("map", "run.n")], help="synchronization metrics"
    )
    p_sync.add_argument("--mode", choices=["sigma", "grid"], default="sigma")
    p_sync.add_argument("--sigmas", default="0,0.01,0.02,0.03,0.04,0.05")
    p_sync.add_argument("--gammas", default="-1.9,-1.6,-1.3,-1.0,-0.7")
    p_sync.set_defaults(handler=cmd_sync)

    p_ber = sub.add_parser(
        "ber", parents=[common, _settings("map", "link")], help="link BER tables and histograms"
    )
    p_ber.add_argument("--mode", choices=["sweep", "histogram", "threshold-scan"], default="sweep")
    p_ber.add_argument("--amplitudes", default="0.025,0.05,0.075,0.1")
    p_ber.add_argument("--bits", type=_count, default=20000)
    p_ber.add_argument("--bins", type=_count, default=81)
    p_ber.add_argument("--unfiltered", action="store_true", help="skip the matched filter")
    p_ber.set_defaults(handler=cmd_ber)

    p_send = sub.add_parser(
        "send-file",
        parents=[common, _settings("map", *modulation, "codec")],
        help="compress and mask a WAV/PGM payload",
    )
    p_send.add_argument("--input", required=True)
    p_send.add_argument("--output", required=True, help="masked-series binary path")
    p_send.set_defaults(handler=cmd_send_file)

    # the map and modulation come from the masked file's header
    p_recv = sub.add_parser(
        "recv-file",
        parents=[common, _settings("link.noise_sigma")],
        help="demodulate a masked series into a payload file",
    )
    p_recv.add_argument("--input", required=True, help="masked-series binary path")
    p_recv.add_argument("--output", required=True, help="recovered payload path")
    p_recv.set_defaults(handler=cmd_recv_file)

    # runs at the library defaults, so it takes no dotted settings
    p_self = sub.add_parser("selftest", parents=[common], help="fast internal checks")
    p_self.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args)
        return args.handler(settings)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DegenerateTrajectoryError, PacketCorruptionError, analysis.NoScalingRegionError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
