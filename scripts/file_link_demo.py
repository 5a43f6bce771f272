#!/usr/bin/env python3
"""End-to-end payload demo: synthesize speech and an image, send both with the CLI.

Reproduces the two case studies: a speech clip compressed to 22% of its DCT
coefficients and a grayscale image compressed to 16.5%. Each goes through
``chaoslink send-file`` and ``recv-file`` over the noiseless masked link and
is scored from the written files. Exits 1 when a round trip fails or misses
its fidelity bound: speech below 3% relative RMS error, and the image
identical to its local decode.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from chaoslink import cli
from chaoslink.codecs import (
    compress_image,
    decompress_image,
    psnr,
    read_pgm,
    read_wav,
    relative_rms_error,
    write_pgm,
    write_wav,
)
from chaoslink.io_formats import write_json_report
from chaoslink.signals import synth_image, synth_speech

SPEECH_MAX_RMS = 0.03


def round_trip(out: Path, payload: Path, seed: int, keep_fraction: float):
    """send-file then recv-file; returns (recovered path, send report), or None."""
    name = payload.stem
    masked = out / f"{name}.masked"
    recovered = out / f"{name}_recovered{payload.suffix}"
    # each payload keeps its own send_report.json / recv_report.json
    common = ["--seed", str(seed), "--out-dir", str(out / name)]
    sent = cli.main(
        ["send-file", "--input", str(payload), "--output", str(masked),
         "--codec-keep-fraction", str(keep_fraction), *common]
    )
    if sent != 0:
        return None
    received = cli.main(
        ["recv-file", "--input", str(masked), "--output", str(recovered), *common]
    )
    if received != 0:
        return None
    return recovered, json.loads((out / name / "send_report.json").read_text())


def summarize(out: Path, name: str, ok: bool, fidelity: dict, send_report, seed: int):
    """Print and write ``<name>_report.json``; returns ``ok``."""
    sent = send_report or {}
    record = {
        "ok": ok,
        "compression_ratio": sent.get("compression_ratio"),
        "payload_bits": sent.get("payload_bits"),
        "fidelity": fidelity,
        "seed": seed,
    }
    print(f"{name}: {record}")
    write_json_report(out / f"{name}_report.json", record)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    wav = out / "speech.wav"
    write_wav(wav, synth_speech(duration=2.0, seed=args.seed))
    result = round_trip(out, wav, args.seed, 0.22)
    fidelity, send_report = {}, None
    if result is not None:
        recovered, send_report = result
        fidelity["relative_rms_error"] = relative_rms_error(
            read_wav(wav).samples, read_wav(recovered).samples
        )
    speech_ok = summarize(
        out, "speech",
        fidelity.get("relative_rms_error", np.inf) < SPEECH_MAX_RMS,
        fidelity, send_report, args.seed,
    )

    pgm = out / "image.pgm"
    write_pgm(pgm, synth_image(256, 256, seed=args.seed))
    original = read_pgm(pgm)
    result = round_trip(out, pgm, args.seed + 1, 0.165)
    fidelity, send_report, identical = {}, None, False
    if result is not None:
        recovered, send_report = result
        rebuilt = read_pgm(recovered).pixels
        local = decompress_image(compress_image(original, 0.165)).pixels
        identical = bool(np.array_equal(rebuilt, local))
        fidelity["psnr_db"] = psnr(original.pixels, rebuilt)
    image_ok = summarize(out, "image", identical, fidelity, send_report, args.seed + 1)

    return 0 if speech_ok and image_ok else 1


if __name__ == "__main__":
    sys.exit(main())
