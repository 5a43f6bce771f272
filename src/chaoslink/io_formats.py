"""File formats: trajectory dumps, masked-series files, CSV/JSON reports.

Both binary formats are one layout, written by ``_write_binary`` and read
through ``_open_binary``: magic, u16 version, the map's five doubles, the
format's fields (the last is the row count), then little-endian double
rows. Writes take the rows as chunks and stream each one's own buffer, so
send-file writes the transmitter's chunks as they come; a write that fails
part way removes its file. Reads check the size before reading the body.
A masked-series file is a ``SeriesHeader`` and its samples: ``write_masked``
writes them as they come, and ``open_masked`` reads them slice by slice,
checking each slice's samples are finite, so a receive holds no
whole-series array. Every artifact embeds the map, the seed and the package
version, so any output can be regenerated from its own header.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core_map import Trajectory, drive_output
from .link import ModulationConfig, SeriesHeader, require_finite
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


def _write_binary(path, magic: bytes, fields: str, params: SystemParams, values, n: int, chunks):
    """Header (``values``, then the row count ``n``) and the rows, each
    (rows, width) or (rows,) array of ``chunks`` written as it comes. The
    header is packed first, one field at a time (a little-endian layout has
    no padding), so a value its field cannot hold raises a ValueError naming
    ``path`` and the value, and leaves no file. So does anything raised
    while the rows are written, from ``chunks`` or the disk, and a row
    total other than ``n``: the file is removed."""
    header = struct.pack(
        _PREFIX, magic, FORMAT_VERSION, *(getattr(params, f) for f in _PARAMS_FIELDS)
    )
    for code, value in zip(fields, (*values, n)):
        try:
            header += struct.pack("<" + code, value)
        except struct.error as exc:
            raise ValueError(
                f"{path}: header value {value!r} does not fit its {_FIELD_TYPES[code]} field"
            ) from exc
    with open(path, "wb") as fh:
        try:
            fh.write(header)
            rows = 0
            for chunk in chunks:
                # copies only non-contiguous or big-endian rows
                chunk = np.ascontiguousarray(chunk, dtype="<f8")
                fh.write(chunk)
                rows += chunk.shape[0]
            if rows != n:
                raise ValueError(f"{path}: {rows} rows written, the header declares {n}")
        except BaseException:
            os.unlink(path)
            raise


@contextmanager
def _naming(path):
    """Re-raise any ValueError with its type, naming ``path``."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


@contextmanager
def _open_binary(path, magic: bytes, kind: str, fields: str, width: int):
    """Open a ``_write_binary`` file and check its header: yields ``(params,
    fields, fh)``, ``fh`` at the body, once the file's size fits ``width``
    doubles per header row. A header fault raises a ValueError, with its
    type, naming ``path``."""
    layout = struct.Struct(_PREFIX + fields)
    with open(path, "rb") as fh:
        with _naming(path):
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
            params = SystemParams(**dict(zip(_PARAMS_FIELDS, values[:5])))
        yield params, values[5:], fh


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
        path, TRAJECTORY_MAGIC, TRAJECTORY_FIELDS, traj.params, (t_n, seed, traj.transient),
        len(rows), [rows],
    )


def read_trajectory_dump(path) -> Trajectory:
    kind = "trajectory dump"
    with _open_binary(path, TRAJECTORY_MAGIC, kind, TRAJECTORY_FIELDS, 4) as (params, fields, fh):
        t_n, seed, transient, n = fields
        rows = np.fromfile(fh, dtype="<f8", count=4 * n).reshape(n, 4)
    with _naming(path):
        return Trajectory(
            states=rows[:, :3].copy(),
            params=params,
            settling=None if np.isnan(t_n) else SettlingConfig(t_n=t_n),
            seed=None if seed < 0 else seed,
            transient=transient,
        )


def write_masked(path, header: SeriesHeader, chunks) -> None:
    """Binary masked-series file: ``header`` (params, modulation, seed,
    length), then the samples ``chunks`` yields, written as they come (see
    _write_binary): ``write_masked(path, *transmit(...))`` or, for a
    MaskedSeries, ``write_masked(path, masked.header, [masked.w_star])``.

    That is all that leaves the transmitter: the transmitted w* and the
    settings that demodulate it. So a separately invoked receiver process
    gets exactly what the channel would deliver.
    """
    cfg = header.config
    values = (
        cfg.amplitude, cfg.samples_per_bit, cfg.f_clk, cfg.bit_rate,
        int(header.seed), header.settle_steps, header.pilot_bits,
    )
    _write_binary(path, MASKED_MAGIC, MASKED_FIELDS, header.params, values, header.size, chunks)


@contextmanager
def open_masked(path):
    """A masked-series file, open for a slice-by-slice receive.

    Yields ``(header, read)``: the file's SeriesHeader, built once the header
    and the file's size check out (so its lock, length and preamble rules
    hold), and ``read(lo, hi)``, which returns samples [lo, hi) as a new
    array after checking they are finite. Every fault raises a ValueError
    naming ``path``; a non-finite sample is named by its index in the
    series. The bit-rate slot is ignored: the rate follows from f_clk and
    samples_per_bit.
    """
    with _open_binary(path, MASKED_MAGIC, "masked-series", MASKED_FIELDS, 1) as opened:
        params, (amplitude, spb, f_clk, _, seed, settle, pilot, n), fh = opened
        body = fh.tell()
        with _naming(path):
            config = ModulationConfig(amplitude=amplitude, samples_per_bit=spb, f_clk=f_clk)
            header = SeriesHeader(config, params, seed, settle, pilot, n)

        def read(lo, hi):
            fh.seek(body + 8 * lo)
            samples = np.fromfile(fh, dtype="<f8", count=hi - lo)
            with _naming(path):
                if samples.size != hi - lo:
                    raise ValueError(f"file ended at sample {lo + samples.size} of {n}")
                require_finite(samples, lo)
            return samples

        yield header, read


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
