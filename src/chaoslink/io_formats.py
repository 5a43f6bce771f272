"""File formats: trajectory dumps, masked-series files, CSV/JSON reports.

Both binary formats are one layout, written by ``_write_binary`` and read by
``_read_binary``: magic, u16 version, the map's five doubles, the format's
fields (the last is the row count), then little-endian double rows. Writes
stream the rows' own buffer; reads check the size before reading the body.
Every artifact embeds the map, the seed and the package version, so any
output can be regenerated from its own header.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core_map import Trajectory, drive_output
from .link import MaskedSeries, ModulationConfig
from .params import SettlingConfig, SystemParams

TRAJECTORY_MAGIC = b"CLTR"
MASKED_MAGIC = b"CLMS"
FORMAT_VERSION = 1
# t_n (NaN when ideal), seed (-1 when none), transient, rows
TRAJECTORY_FIELDS = "dqqQ"
# amplitude, samples_per_bit, f_clk, bit rate, seed, settle_steps, pilot_bits, samples
MASKED_FIELDS = "dIddqIIQ"

# write_trajectory_csv converts this many rows to Python floats at a time
CSV_CHUNK_ROWS = 4096

_PARAMS_FIELDS = ("a", "b", "c", "beta", "gamma")
_PREFIX = "<4sH5d"  # magic, version, params
_FIELD_TYPES = {"d": "f64", "I": "u32", "q": "i64", "Q": "u64"}


def _write_binary(path, magic: bytes, fields: str, params: SystemParams, values, rows) -> None:
    """Header (``values``, then the row count) and (n, width) ``rows``. The
    header is packed first, one field at a time (a little-endian layout has
    no padding), so a value its field cannot hold raises a ValueError naming
    ``path`` and the value, and leaves no file."""
    rows = np.ascontiguousarray(rows, dtype="<f8")  # copies only non-contiguous or big-endian rows
    header = struct.pack(
        _PREFIX, magic, FORMAT_VERSION, *(getattr(params, f) for f in _PARAMS_FIELDS)
    )
    for code, value in zip(fields, (*values, rows.shape[0])):
        try:
            header += struct.pack("<" + code, value)
        except struct.error as exc:
            raise ValueError(
                f"{path}: header value {value!r} does not fit its {_FIELD_TYPES[code]} field"
            ) from exc
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rows)


def _read_binary(path, magic: bytes, kind: str, fields: str, width: int, build):
    """``build(params, fields, rows)`` from a ``_write_binary`` file, whose
    body is read once its size fits ``width`` doubles per header row. Any
    ValueError, here or in ``build``, is re-raised with its type, naming
    ``path``."""
    layout = struct.Struct(_PREFIX + fields)
    try:
        with open(path, "rb") as fh:
            head = fh.read(layout.size)
            if head[:4] != magic:
                raise ValueError(f"not a {kind} file")
            if len(head) < layout.size:
                raise ValueError(f"truncated header: expected {layout.size} bytes, got {len(head)}")
            _, version, *values = layout.unpack(head)
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported format version {version}")
            n = values[-1]
            expected = layout.size + 8 * width * n
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise ValueError(f"expected {expected} bytes for {n} rows, got {size}")
            rows = np.fromfile(fh, dtype="<f8", count=width * n).reshape(n, width)
        params = SystemParams(**dict(zip(_PARAMS_FIELDS, values[:5])))
        return build(params, values[5:], rows)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


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
    rows = np.column_stack([traj.states, traj.w])
    _write_binary(
        path, TRAJECTORY_MAGIC, TRAJECTORY_FIELDS, traj.params, (t_n, seed, traj.transient), rows
    )


def read_trajectory_dump(path) -> Trajectory:
    def trajectory(params, fields, rows):
        t_n, seed, transient, _ = fields
        return Trajectory(
            states=rows[:, :3].copy(),
            params=params,
            settling=None if np.isnan(t_n) else SettlingConfig(t_n=t_n),
            seed=None if seed < 0 else seed,
            transient=transient,
        )

    return _read_binary(
        path, TRAJECTORY_MAGIC, "trajectory dump", TRAJECTORY_FIELDS, 4, trajectory
    )


def write_masked_series(path, masked: MaskedSeries) -> None:
    """Binary masked-series file: header (params, modulation, seed) + samples.

    The file holds every field of ``MaskedSeries``: the transmitted w* and
    the settings that demodulate it, which is all that leaves the
    transmitter. So a separately invoked receiver process gets exactly what
    the channel would deliver.
    """
    cfg = masked.config
    values = (
        cfg.amplitude, cfg.samples_per_bit, cfg.f_clk, cfg.bit_rate,
        int(masked.seed), masked.settle_steps, masked.pilot_bits,
    )
    _write_binary(path, MASKED_MAGIC, MASKED_FIELDS, masked.params, values, masked.w_star[:, None])


def read_masked_series(path) -> MaskedSeries:
    """The MaskedSeries a masked-series file holds."""

    def series(params, fields, rows):
        # the bit-rate slot is ignored: the rate follows from f_clk and spb
        amplitude, spb, f_clk, _, seed, settle, pilot, _ = fields
        return MaskedSeries(
            w_star=rows[:, 0],
            config=ModulationConfig(amplitude=amplitude, samples_per_bit=spb, f_clk=f_clk),
            params=params,
            seed=seed,
            settle_steps=settle,
            pilot_bits=pilot,
        )

    return _read_binary(path, MASKED_MAGIC, "masked-series", MASKED_FIELDS, 1, series)


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
