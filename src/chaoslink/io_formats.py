"""File formats: trajectory dumps, masked-series files, CSV/JSON reports.

Binary layouts are little-endian throughout. Every artifact embeds the map
parameters, the seed, and the package version so any output can be
regenerated from its own header.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core_map import Trajectory, drive_output
from .link import MaskedSeries, ModulationConfig
from .params import SettlingConfig, SystemParams
from .sync import stability_check

TRAJECTORY_MAGIC = b"CLTR"
MASKED_MAGIC = b"CLMS"
FORMAT_VERSION = 1

# write_trajectory_csv converts this many rows to Python floats at a time
CSV_CHUNK_ROWS = 4096

_PARAMS_FIELDS = ("a", "b", "c", "beta", "gamma")


def _params_bytes(params: SystemParams) -> bytes:
    return struct.pack("<5d", *(getattr(params, f) for f in _PARAMS_FIELDS))


def _params_from(raw: bytes) -> SystemParams:
    return SystemParams(**dict(zip(_PARAMS_FIELDS, struct.unpack("<5d", raw))))


def _read_binary(path, magic: bytes, kind: str, fields: str, row_width: int):
    """Validate and split a magic/version/params/fields + float64-rows file.

    The last header field is the row count ``n``; the body must hold exactly
    ``n`` rows of ``row_width`` little-endian doubles. Returns (params,
    header fields, rows as an (n, row_width) array).
    """
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise ValueError(f"{path}: not a {kind} file")
    header = 46 + struct.calcsize(fields)
    if len(raw) < header:
        raise ValueError(
            f"{path}: truncated header: expected {header} bytes, got {len(raw)}"
        )
    (version,) = struct.unpack("<H", raw[4:6])
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    values = struct.unpack(fields, raw[46:header])
    n = values[-1]
    expected = header + 8 * row_width * n
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for {n} rows, got {len(raw)}"
        )
    rows = np.frombuffer(raw, dtype="<f8", offset=header).reshape(n, row_width)
    return _params_from(raw[6:46]), values, rows


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """CSV with columns n, x, y, z, w and a JSON metadata comment line."""
    meta = {
        "params": asdict(traj.params),
        "mode": traj.mode,
        "seed": traj.seed,
        "transient": traj.transient,
    }
    states, gamma = traj.states, traj.params.gamma

    def numbered():
        # one chunk of rows as Python floats at a time, however long the run;
        # csv writes each float as its repr, which round-trips the double
        for lo in range(0, states.shape[0], CSV_CHUNK_ROWS):
            block = states[lo : lo + CSV_CHUNK_ROWS]
            rows = np.column_stack([block, drive_output(block, gamma)]).tolist()
            yield from ([k, *row] for k, row in enumerate(rows, lo))

    write_csv(path, ["n", "x", "y", "z", "w"], numbered(), meta)


def write_trajectory_dump(path, traj: Trajectory) -> None:
    """Compact binary dump: header (params, mode, seed) + (x, y, z, w) rows."""
    t_n = traj.settling.t_n if traj.settling is not None else float("nan")
    seed = -1 if traj.seed is None else int(traj.seed)
    header = (
        TRAJECTORY_MAGIC
        + struct.pack("<H", FORMAT_VERSION)
        + _params_bytes(traj.params)
        + struct.pack("<dqqQ", t_n, seed, traj.transient, len(traj))
    )
    rows = np.column_stack([traj.states, traj.w]).astype("<f8")
    Path(path).write_bytes(header + rows.tobytes())


def read_trajectory_dump(path) -> Trajectory:
    params, (t_n, seed, transient, _), rows = _read_binary(
        path, TRAJECTORY_MAGIC, "trajectory dump", "<dqqQ", 4
    )
    return Trajectory(
        states=rows[:, :3].copy(),
        params=params,
        settling=None if np.isnan(t_n) else SettlingConfig(t_n=t_n),
        seed=None if seed < 0 else int(seed),
        transient=int(transient),
    )


def write_masked_series(path, masked: MaskedSeries) -> None:
    """Binary masked-series file: header (params, modulation, seed) + samples.

    The file holds every field of ``MaskedSeries``: the transmitted w* and
    the settings that demodulate it, which is all that leaves the
    transmitter. So a separately invoked receiver process gets exactly what
    the channel would deliver.
    """
    cfg = masked.config
    header = (
        MASKED_MAGIC
        + struct.pack("<H", FORMAT_VERSION)
        + _params_bytes(masked.params)
        + struct.pack(
            "<dIddqIIQ",
            cfg.amplitude,
            cfg.samples_per_bit,
            cfg.f_clk,
            cfg.bit_rate,
            int(masked.seed),
            masked.settle_steps,
            masked.pilot_bits,
            masked.w_star.size,
        )
    )
    Path(path).write_bytes(header + masked.w_star.astype("<f8").tobytes())


def read_masked_series(path) -> MaskedSeries:
    params, fields, rows = _read_binary(
        path, MASKED_MAGIC, "masked-series", "<dIddqIIQ", 1
    )
    # a receiver on this map would never lock, so the payload cannot come back
    verdict = stability_check(params)
    if not verdict["stable"]:
        raise ValueError(
            f"{path}: header map cannot synchronize; margins {verdict['margins']}"
        )
    # the bit-rate slot is ignored: the rate follows from f_clk and spb
    amplitude, spb, f_clk, _, seed, settle, pilot, _ = fields
    # one NaN or inf sample would leave every later receiver state non-finite
    bad = np.flatnonzero(~np.isfinite(rows[:, 0]))
    if bad.size:
        raise ValueError(f"{path}: sample {bad[0]} is not finite ({rows[bad[0], 0]})")
    masked = MaskedSeries(
        w_star=rows[:, 0].copy(),
        config=ModulationConfig(amplitude=amplitude, samples_per_bit=spb, f_clk=f_clk),
        params=params,
        seed=int(seed),
        settle_steps=int(settle),
        pilot_bits=int(pilot),
    )
    if masked.preamble_samples > rows.shape[0]:
        raise ValueError(
            f"{path}: preamble of {masked.preamble_samples} samples (settle {settle} "
            f"+ pilot {pilot} x {spb}) exceeds the {rows.shape[0]} samples in the file"
        )
    return masked


def write_csv(path, header, rows, metadata: dict) -> None:
    """CSV table after a JSON metadata comment line stamped with the version."""
    meta = {"version": __version__, **metadata}
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True, default=str) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json_report(path, payload: dict) -> None:
    report = dict(payload)
    report.setdefault("version", __version__)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
