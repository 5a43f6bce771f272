#!/usr/bin/env python3
"""The link path's bit-identity promises as SHA-256 digests.

Each case below runs one public entry point of the link on fixed inputs
and hashes the exact bytes it returns or writes. ``tests/golden.json``
holds the digests, and ``tests/test_golden.py`` recomputes every case and
compares. A change that alters an output on purpose rewrites the table
with this script, the table's only writer, and names each digest that
moved and why:

    PYTHONPATH=src python scripts/golden.py --write

Without ``--write`` it prints each case's digest and whether the table
holds it. The digests depend on numpy's Generator streams and reduction
order and on scipy's special functions, so the table records the numpy
and scipy versions it was written with.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from chaoslink import DEFAULT_PARAMS, cli
from chaoslink.codecs import write_pgm, write_wav
from chaoslink.link import ModulationConfig, ber_sweep, mask_transmit, prbs, run_link, unmask_receive
from chaoslink.signals import synth_image, synth_speech

TABLE = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

CFG = ModulationConfig()
SIGMA = 0.011
# the receiver's map with a off by 0.2 %: a wrong key, still stable
MISMATCHED = DEFAULT_PARAMS.replace(a=DEFAULT_PARAMS.a * 1.002)


def _digest(*parts) -> str:
    """SHA-256 over each part's bytes: float64 or uint8 arrays as they sit
    in memory (little-endian here), ``bytes`` as given."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _masked():
    return mask_transmit(DEFAULT_PARAMS, prbs(3000, seed=5), CFG, seed=7)


def mask_transmit_w_star():
    return _digest(_masked().w_star)


def unmask_receive_matched():
    return _digest(unmask_receive(_masked(), seed=11, noise_sigma=SIGMA))


def unmask_receive_mismatched():
    return _digest(unmask_receive(_masked(), seed=11, noise_sigma=SIGMA, recv_params=MISMATCHED))


def run_link_two_slices():
    stats, fitted, threshold, decisions = run_link(
        DEFAULT_PARAMS, prbs(25_000, seed=3), CFG, seed=4, noise_sigma=SIGMA
    )
    moments = [fitted.mu0, fitted.sigma0, fitted.mu1, fitted.sigma1, fitted.p0, threshold]
    return _digest(stats, np.array(moments), decisions)


def ber_sweep_rows():
    rows = ber_sweep(DEFAULT_PARAMS, [0.03, 0.06, 0.1], CFG, n_bits=2000, seed=6, noise_sigma=SIGMA)
    return _digest(np.array([[r.errors, r.threshold, r.predicted_ber] for r in rows]))


def _file_link(name: str, write, sigma: float) -> str:
    """send-file then recv-file through cli.main in a temporary directory;
    the digest covers the masked file, recv-file's exit code and, when it
    decoded, the payload it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        payload, masked, out = tmp / name, tmp / "series.masked", tmp / f"recovered-{name}"
        write(payload)
        common = ["--seed", "9", "--out-dir", str(tmp)]
        quiet = contextlib.redirect_stdout(io.StringIO())
        with quiet:
            sent = cli.main(["send-file", "--input", str(payload), "--output", str(masked), *common])
            if sent != 0:
                raise RuntimeError(f"send-file exited {sent}")
            code = cli.main(
                ["recv-file", "--input", str(masked), "--output", str(out),
                 "--link-noise-sigma", str(sigma), *common]
            )
        received = out.read_bytes() if code == 0 else b""
        return _digest(masked.read_bytes(), bytes([code]), received)


def file_link_wav(sigma):
    return _file_link("speech.wav", lambda p: write_wav(p, synth_speech(0.05, seed=3)), sigma)


def file_link_pgm(sigma):
    return _file_link("image.pgm", lambda p: write_pgm(p, synth_image(8, 8, seed=3)), sigma)


# name -> (promise it holds, function computing its digest)
CASES = {
    "mask_transmit_w_star": (
        "mask_transmit's series, 3000 PRBS bits, seed 7", mask_transmit_w_star,
    ),
    "unmask_receive_sigma_0.011": (
        "unmask_receive of that series at sigma 0.011 with its own map, seed 11",
        unmask_receive_matched,
    ),
    "unmask_receive_sigma_0.011_a_off_0.2pct": (
        "the same receive with the receiver's a off by 0.2 %", unmask_receive_mismatched,
    ),
    "run_link_25000_bits_two_slices": (
        "run_link's statistics, fit, threshold and decisions on 25 000 bits "
        "(two receive slices) at sigma 0.011",
        run_link_two_slices,
    ),
    "ber_sweep_rows": (
        "ber_sweep's errors, thresholds and predictions at amplitudes 0.03, "
        "0.06, 0.1, 2000 bits, sigma 0.011",
        ber_sweep_rows,
    ),
    "file_link_wav_sigma_0": (
        "send-file's masked file and recv-file's output of a 0.05 s WAV, noiseless",
        lambda: file_link_wav(0.0),
    ),
    "file_link_wav_sigma_0.01": (
        "the same WAV received at sigma 0.01", lambda: file_link_wav(0.01),
    ),
    "file_link_pgm_sigma_0": (
        "send-file's masked file and recv-file's output of an 8x8 PGM, noiseless",
        lambda: file_link_pgm(0.0),
    ),
    "file_link_pgm_sigma_0.01": (
        "the same PGM received at sigma 0.01", lambda: file_link_pgm(0.01),
    ),
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true", help=f"rewrite {TABLE.name}")
    args = ap.parse_args(argv)
    held = json.loads(TABLE.read_text())["digests"] if TABLE.exists() else {}
    digests = {}
    for name, (promise, compute) in CASES.items():
        digest = compute()
        digests[name] = {"promise": promise, "sha256": digest}
        same = held.get(name, {}).get("sha256") == digest
        print(f"{'same' if same else 'MOVED':5}  {name}  {digest}")
    if args.write:
        TABLE.write_text(json.dumps({**versions(), "digests": digests}, indent=2) + "\n")
        print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
