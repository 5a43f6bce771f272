"""Deterministic synthetic payloads for demos and tests.

No recorded media ships with the package; these generators produce a
speech-like harmonic clip and a low-detail grayscale test image that exercise
the codecs the same way real captures would.
"""

from __future__ import annotations

import numpy as np

from .codecs import AudioClip, GrayImage


def synth_speech(
    duration: float = 2.0, sample_rate: int = 8000, seed: int = 0
) -> AudioClip:
    """Voiced-speech stand-in: pitch drift, decaying harmonics, syllable gating.

    The energy sits almost entirely below 1 kHz, as in voiced speech, with a
    small wideband noise floor.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    pitch = 135.0 + 18.0 * np.sin(2 * np.pi * 0.9 * t) + 6.0 * np.sin(2 * np.pi * 2.3 * t)
    phase = 2 * np.pi * np.cumsum(pitch) / sample_rate
    x = np.zeros(n)
    for k in range(1, 6):
        x += np.cos(k * phase + rng.uniform(0, 2 * np.pi)) / k**1.8
    # syllable-like amplitude gating at a few Hz
    envelope = 0.25 + 0.75 * np.clip(np.sin(2 * np.pi * 2.1 * t + 0.7), 0.0, 1.0)
    x *= envelope
    x += 1e-3 * rng.standard_normal(n)
    x *= 0.6 * 32767 / np.max(np.abs(x))
    return AudioClip(samples=np.round(x).astype(np.int16), sample_rate=sample_rate)


def synth_image(height: int = 256, width: int = 256, seed: int = 0) -> GrayImage:
    """Low-detail test image: smooth gradient plus a few soft blobs."""
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(
        np.linspace(0, 1, height), np.linspace(0, 1, width), indexing="ij"
    )
    img = 90.0 + 70.0 * xx + 40.0 * yy
    for _ in range(6):
        cy, cx = rng.uniform(0.15, 0.85, 2)
        radius = rng.uniform(0.06, 0.2)
        amp = rng.uniform(-60.0, 60.0)
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius**2))
    img += rng.normal(0.0, 1.0, size=img.shape)
    return GrayImage(pixels=np.clip(np.round(img), 0, 255))
