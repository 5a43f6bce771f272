"""DCT payload codecs, packet framing, and WAV/PGM payload files.

Every payload is a (frames x coefficients) array, and one encoder and one
decoder serve both kinds. Speech is ceil(n / 1024) frames of 1024 DCT
coefficients (the last frame zero-padded); an image is one frame of its h*w
global 2-D DCT coefficients in zigzag order. Each frame keeps ``keep_count``
coefficients: the low-frequency prefix (implicit positions, the default) or
the largest magnitudes (explicit delta-coded positions). A frame's kept
coefficients are quantized to ``value_bits`` uniform steps in chunks of 64
values (its last chunk possibly shorter), each chunk with its own float32
scale, so the step size follows the spectral decay; scales are stored (and
held in memory) at float32 precision, which makes local and transmitted
reconstructions identical.

Serialized packet layout, all little-endian, sizes in bits:

    header  = magic u32 | version u8 | kind u8 | selection u8 | value_bits u8
            | dim0 u32 | dim1 u32 | frame_len u32 | keep_count u32
            | n_chunks u32 | mean f32 | header_crc u32          (36 bytes)
    payload = per chunk: scale f32, [delta-coded indices, 16 bits each,]
              values (value_bits each, two's complement)
    footer  = zero padding to a byte boundary | payload_crc u32

    total_bits = 36*8 + 8*ceil(sum_c(32 + k_c*(value_bits + 16*is_magnitude))/8) + 32

scipy subpackages are imported inside the functions that call them, so
importing the package (and starting the CLI) loads none of them.
"""

from __future__ import annotations

import struct
import wave
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

PACKET_MAGIC = 0x43504B31  # "CPK1"
PACKET_VERSION = 1
FRAME_LEN = 1024
QUANT_CHUNK = 64
INDEX_BITS = 16
# decoded samples a packet may declare (audio frames x frame_len, image
# height x width): 128 MiB per float64 buffer of the decoder
MAX_PAYLOAD_SAMPLES = 1 << 24
# a 16-bit mono WAV stores its byte rate, 2 x sample rate, as a u32
MAX_SAMPLE_RATE = 2**31 - 1


class PacketCorruptionError(ValueError):
    """A packet failed validation; carries the failing section and offset."""

    def __init__(self, section: str, offset: int, detail: str = ""):
        self.section = section
        self.offset = offset
        super().__init__(
            f"packet corrupt in {section} (byte offset {offset})"
            + (f": {detail}" if detail else "")
        )


@dataclass(frozen=True)
class AudioClip:
    """Mono 16-bit PCM audio."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 1:
            raise ValueError("samples must be 1-d (mono)")
        if not 1 <= self.sample_rate <= MAX_SAMPLE_RATE:
            raise ValueError(
                f"sample_rate must lie in [1, {MAX_SAMPLE_RATE}], got {self.sample_rate}"
            )
        if not np.all(np.isfinite(np.asarray(s, dtype=float))):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 2:
            raise ValueError("pixels must be a 2-d array")
        object.__setattr__(self, "pixels", p.astype(np.uint8))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class CoefficientPacket:
    """Quantized DCT coefficient selection plus everything needed to rebuild."""

    kind: str  # "audio" | "image"
    dim0: int  # audio: n_samples; image: height
    dim1: int  # audio: sample_rate; image: width
    frame_len: int  # audio DCT frame; 0 for images
    keep_count: int  # per audio frame, or total for images
    selection: str  # "lowfreq" | "magnitude"
    value_bits: int
    mean: float  # image pixel mean removed before the DCT; 0 for audio
    scales: tuple  # per chunk, frame by frame: one float
    indices: tuple | None  # per chunk, frame by frame: ascending positions (magnitude mode)
    values: tuple  # per chunk, frame by frame: quantized ints

    def __post_init__(self):
        if self.kind not in ("audio", "image"):
            raise ValueError(f"unknown payload kind {self.kind!r}")
        if self.selection not in ("lowfreq", "magnitude"):
            raise ValueError(f"unknown selection rule {self.selection!r}")
        if not 2 <= self.value_bits <= 16:
            raise ValueError("value_bits must lie in [2, 16]")

    @property
    def original_bits(self) -> int:
        """Payload size before compression at the internal 8-bit depth."""
        if self.kind == "audio":
            return 8 * self.dim0
        return 8 * self.dim0 * self.dim1

    @property
    def serialized_bits(self) -> int:
        """Exact serialized size from the documented layout formula."""
        per_index = INDEX_BITS if self.selection == "magnitude" else 0
        payload = sum(
            32 + len(v) * (self.value_bits + per_index) for v in self.values
        )
        return 36 * 8 + 8 * ((payload + 7) // 8) + 32

    @property
    def compression_ratio(self) -> float:
        return self.original_bits / self.serialized_bits


# ---------------------------------------------------------------------------
# transforms


def dct_forward(x, axes=None) -> np.ndarray:
    """Orthonormal type-II DCT over ``axes`` (default: every axis)."""
    return _dct(x, axes, inverse=False)


def dct_inverse(c, axes=None) -> np.ndarray:
    """Inverse of dct_forward (orthonormal type-III)."""
    return _dct(c, axes, inverse=True)


def _dct(x, axes, inverse: bool, overwrite: bool = False) -> np.ndarray:
    """dct_forward, or dct_inverse when ``inverse``. With ``overwrite`` the
    transform may write into ``x`` and returns a view of its buffer, which
    the image codec uses on the float64 buffer it owns; values are the same
    either way."""
    from scipy import fft as sfft

    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty input")
    transform = sfft.idctn if inverse else sfft.dctn
    return transform(x, type=2, norm="ortho", axes=axes, overwrite_x=overwrite)


@lru_cache(maxsize=16)
def zigzag_order(height: int, width: int) -> np.ndarray:
    """Anti-diagonal traversal order (flattened indices) for an h x w grid.

    Anti-diagonal s holds the cells (i, s - i); even diagonals run up (i
    falling), odd ones down. Each is written as one numpy slice. Every
    caller for one size shares the cached array, so it is read-only.
    """
    order = np.empty(height * width, dtype=np.int64)
    pos = 0
    for s in range(height + width - 1):
        rows = np.arange(max(0, s - width + 1), min(s, height - 1) + 1)
        if s % 2 == 0:
            rows = rows[::-1]
        # flat index i * width + (s - i)
        order[pos : pos + rows.size] = rows * (width - 1) + s
        pos += rows.size
    order.flags.writeable = False
    return order


# ---------------------------------------------------------------------------
# coefficient frames


def _concat(arrays) -> np.ndarray:
    """The per-chunk arrays end to end as int64."""
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays]).astype(np.int64)


def _chunk_sizes(count: int) -> list:
    return [min(QUANT_CHUNK, count - s) for s in range(0, count, QUANT_CHUNK)]


def _frame_shape(kind: str, dim0: int, dim1: int, frame_len: int):
    """(frames, coefficients per frame) of a payload, from its header fields.

    Speech is ceil(n_samples / frame_len) frames of frame_len DCT
    coefficients; an image is one frame of its h*w coefficients in zigzag
    order. Frames of no coefficients number none, so nothing divides by a
    zero frame_len before keep_count is checked against it.
    """
    if kind == "image":
        return 1, dim0 * dim1
    return (-(-dim0 // frame_len) if frame_len else 0), frame_len


def _check_encoding(keep_fraction, selection, value_bits) -> None:
    """Reject a compressor's keep fraction, value width or selection rule
    before any transform."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    if not 2 <= value_bits <= 16:
        raise ValueError("value_bits must lie in [2, 16]")
    if selection not in ("lowfreq", "magnitude"):
        raise ValueError(f"unknown selection rule {selection!r}")


def _encode(coeffs, keep_fraction, selection, value_bits, **header) -> CoefficientPacket:
    """Select, quantize and chunk every row of a (frames, size) coefficient array.

    Each frame keeps ``round(keep_fraction * size)`` coefficients, either the
    low-frequency prefix or the largest magnitudes, and quantizes them in
    64-wide chunks (the frame's last chunk possibly shorter). Each chunk scale
    is the chunk's max magnitude rounded to float32 (the precision it will
    travel at), so reconstruction from the in-memory packet matches
    reconstruction after serialization exactly. ``header`` holds the
    packet's kind, dim0, dim1, frame_len and mean.
    """
    frames, size = coeffs.shape
    keep = max(1, round(keep_fraction * size))
    pos = np.tile(np.arange(keep), (frames, 1))
    if selection != "lowfreq":
        order = np.argsort(-np.abs(coeffs), axis=1, kind="stable")[:, :keep]
        pos = np.sort(order, axis=1)
    width = -(-keep // QUANT_CHUNK) * QUANT_CHUNK
    kept = np.zeros((frames, width))
    kept[:, :keep] = np.take_along_axis(coeffs, pos, axis=1)
    chunks = kept.reshape(-1, QUANT_CHUNK)
    scales = np.max(np.abs(chunks), axis=1).astype(np.float32).astype(float)
    qmax = (1 << (value_bits - 1)) - 1
    # a zero scale means an all-zero chunk, which quantizes to zeros
    q = np.round(chunks / np.where(scales == 0.0, 1.0, scales)[:, None] * qmax)
    q = np.clip(q, -qmax, qmax).astype(np.int32).reshape(frames, width)[:, :keep]
    ends = np.cumsum(np.tile(_chunk_sizes(keep), frames))[:-1]
    return CoefficientPacket(
        keep_count=keep,
        selection=selection,
        value_bits=value_bits,
        scales=tuple(scales.tolist()),
        indices=tuple(np.split(pos.ravel(), ends)) if selection == "magnitude" else None,
        values=tuple(np.split(q.ravel(), ends)),
        **header,
    )


def _decode(packet: CoefficientPacket, order=None) -> np.ndarray:
    """Dequantize and scatter every chunk into the (frames, size) coefficient array.

    ``order`` maps each frame position to the slot it fills, as the image's
    zigzag order maps onto its raster grid; by default position k fills
    slot k.
    """
    frames, size = _frame_shape(packet.kind, packet.dim0, packet.dim1, packet.frame_len)
    keep = packet.keep_count
    qmax = (1 << (packet.value_bits - 1)) - 1
    steps = np.asarray(packet.scales, dtype=float) / qmax
    kept = _concat(packet.values) * np.repeat(steps, [len(v) for v in packet.values])
    if packet.indices is None:
        pos = np.tile(np.arange(keep), (frames, 1))
    else:
        pos = _concat(packet.indices).reshape(frames, keep)
    if order is not None:
        pos = order[pos]
    coeffs = np.zeros((frames, size))
    np.put_along_axis(coeffs, pos, kept.reshape(frames, keep), axis=1)
    return coeffs


# ---------------------------------------------------------------------------
# audio


def compress_audio(
    clip: AudioClip,
    keep_fraction: float,
    selection: str = "lowfreq",
    value_bits: int = 8,
    frame_len: int = FRAME_LEN,
) -> CoefficientPacket:
    """Frame-wise DCT compression of 16-bit audio at an internal 8 bits.

    Keeps ``round(keep_fraction * frame_len)`` coefficients per time frame,
    either the low-frequency prefix (default, positions implicit) or the
    largest magnitudes (positions stored). The trailing frame is
    zero-padded.
    """
    _check_encoding(keep_fraction, selection, value_bits)
    if frame_len < 1:
        raise ValueError(f"frame_len must be >= 1, got {frame_len}")
    x = np.round(np.asarray(clip.samples, dtype=float) / 256)
    n = x.size
    if n == 0:
        raise ValueError("empty clip")
    frames, size = _frame_shape("audio", n, clip.sample_rate, frame_len)
    if frames * size > MAX_PAYLOAD_SAMPLES:
        raise ValueError(
            f"{frames} frames of {frame_len} samples exceed the "
            f"{MAX_PAYLOAD_SAMPLES}-sample payload limit"
        )
    padded = np.zeros(frames * size)
    padded[:n] = x
    coeffs = dct_forward(padded.reshape(frames, size), axes=(1,))
    return _encode(
        coeffs, keep_fraction, selection, value_bits,
        kind="audio", dim0=n, dim1=clip.sample_rate, frame_len=frame_len, mean=0.0,
    )


def decompress_audio(packet: CoefficientPacket) -> AudioClip:
    """Rebuild a 16-bit AudioClip from a compressed packet."""
    if packet.kind != "audio":
        raise ValueError("not an audio packet")
    out = dct_inverse(_decode(packet), axes=(1,)).ravel()
    samples = np.clip(np.round(out[: packet.dim0]) * 256, -32768, 32767)
    return AudioClip(samples=samples.astype(np.int16), sample_rate=packet.dim1)


# ---------------------------------------------------------------------------
# images


def compress_image(
    img: GrayImage,
    keep_fraction: float,
    selection: str = "lowfreq",
    value_bits: int = 8,
) -> CoefficientPacket:
    """Global 2-D DCT compression of a grayscale image.

    The pixel mean is removed first (and carried in the header) so the DC
    does not dominate the quantizer scale. Coefficients are read in zigzag
    order and kept as one frame.
    """
    _check_encoding(keep_fraction, selection, value_bits)
    if img.pixels.size == 0:
        raise ValueError("empty image")
    frames, size = _frame_shape("image", img.height, img.width, 0)
    if frames * size > MAX_PAYLOAD_SAMPLES:
        raise ValueError(
            f"{img.height}x{img.width} image exceeds the "
            f"{MAX_PAYLOAD_SAMPLES}-sample payload limit"
        )
    # one float buffer: centred, then transformed, in place, and dropped
    # once reordered, before the encoder allocates
    pixels = img.pixels.astype(float)
    mean = float(np.float32(pixels.mean()))
    pixels -= mean
    spectrum = _dct(pixels, None, inverse=False, overwrite=True)
    coeffs = spectrum.reshape(frames, size)[:, zigzag_order(img.height, img.width)]
    del pixels, spectrum
    return _encode(
        coeffs, keep_fraction, selection, value_bits,
        kind="image", dim0=img.height, dim1=img.width, frame_len=0, mean=mean,
    )


def decompress_image(packet: CoefficientPacket) -> GrayImage:
    """Rebuild a GrayImage from a compressed packet."""
    if packet.kind != "image":
        raise ValueError("not an image packet")
    h, w = packet.dim0, packet.dim1
    # one float buffer: coefficients scattered to raster order, transformed,
    # shifted, rounded and clipped in place
    grid = _decode(packet, zigzag_order(h, w)).reshape(h, w)
    pixels = _dct(grid, None, inverse=True, overwrite=True)
    pixels += packet.mean
    np.round(pixels, out=pixels)
    np.clip(pixels, 0, 255, out=pixels)
    return GrayImage(pixels=pixels)


# ---------------------------------------------------------------------------
# bit packing
#
# Every payload field has a width the header fixes before any bit is read:
# per chunk a 32-bit float32 scale, then (magnitude mode) one 16-bit position
# delta per kept value, then the kept values at value_bits each, all MSB
# first. The layout labels each payload bit with the class of its field, so
# the packer scatters, and the parser gathers, one class at a time.

_SCALE, _INDEX, _VALUE = 0, 1, 2


def _payload_layout(index_counts, value_counts, value_bits: int) -> np.ndarray:
    """Field class (_SCALE, _INDEX or _VALUE) of every payload bit, in order."""
    lengths = np.column_stack(
        [
            np.full(len(value_counts), 32),
            INDEX_BITS * np.asarray(index_counts, dtype=np.int64),
            value_bits * np.asarray(value_counts, dtype=np.int64),
        ]
    )
    classes = np.array([_SCALE, _INDEX, _VALUE], dtype=np.uint8)
    return np.repeat(np.tile(classes, len(value_counts)), lengths.ravel())


def _uint_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Low ``width`` bits of each value, MSB first, as one flat 0/1 array."""
    words = (values & ((1 << width) - 1)).astype(">u4")
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 4), axis=1)
    return bits[:, 32 - width :].ravel()


def _bits_to_uint(bits: np.ndarray, width: int) -> np.ndarray:
    """Consecutive ``width``-bit MSB-first fields of ``bits`` as int64."""
    padded = np.zeros((bits.size // width, 32), dtype=np.uint8)
    padded[:, 32 - width :] = bits.reshape(-1, width)
    return np.packbits(padded, axis=1).view(">u4").ravel().astype(np.int64)


def _bits_to_bytes(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8)).tobytes()


def _bytes_to_bits(raw: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))


def packet_to_bits(packet: CoefficientPacket) -> np.ndarray:
    """Serialize a packet to a self-delimiting bit stream (uint8 0/1 array)."""
    kind = 0 if packet.kind == "audio" else 1
    sel = 0 if packet.selection == "lowfreq" else 1
    header = struct.pack(
        "<IBBBBIIIIIf",
        PACKET_MAGIC,
        PACKET_VERSION,
        kind,
        sel,
        packet.value_bits,
        packet.dim0,
        packet.dim1,
        packet.frame_len,
        packet.keep_count,
        len(packet.values),
        packet.mean,
    )
    header += struct.pack("<I", zlib.crc32(header))

    n = len(packet.values)
    value_counts = [len(v) for v in packet.values]
    index_counts, deltas = [0] * n, _concat([])
    if packet.selection == "magnitude":
        index_counts = [len(p) for p in packet.indices]
        positions = _concat(packet.indices)
        # each chunk's deltas count from position -1
        previous = np.roll(positions, 1)
        ends = np.cumsum(index_counts)
        starts = ends - index_counts
        previous[starts[starts < positions.size]] = -1
        deltas = positions - previous - 1
        too_far = np.flatnonzero(deltas >= 1 << INDEX_BITS)
        if too_far.size:
            # fields go out in order, so a bad scale up to this chunk wins
            chunk = np.searchsorted(ends, too_far[0], "right")
            struct.pack(f">{chunk + 1}f", *packet.scales[: chunk + 1])
            raise ValueError(
                "coefficient positions too sparse for 16-bit deltas; "
                "use lowfreq selection for payloads this large"
            )
    # struct's float32 conversion raises on overflow, as a field-by-field pack would
    scale_bits = _bytes_to_bits(struct.pack(f">{n}f", *packet.scales[:n]))
    layout = _payload_layout(index_counts, value_counts, packet.value_bits)
    payload = np.empty(layout.size, dtype=np.uint8)
    payload[layout == _SCALE] = scale_bits
    payload[layout == _INDEX] = _uint_to_bits(deltas, INDEX_BITS)
    payload[layout == _VALUE] = _uint_to_bits(_concat(packet.values), packet.value_bits)
    payload_bytes = _bits_to_bytes(payload)
    footer = struct.pack("<I", zlib.crc32(payload_bytes))
    return _bytes_to_bits(header + payload_bytes + footer)


def bits_to_packet(bits) -> CoefficientPacket:
    """Parse a serialized packet, validating both CRCs.

    Raises PacketCorruptionError with the failing section ("header" or
    "payload") and byte offset of the failed check.
    """
    bits = np.asarray(bits).astype(np.uint8)
    if bits.size < 36 * 8 + 32:
        raise PacketCorruptionError("header", 0, "too short for a packet")
    raw = _bits_to_bytes(bits[: (bits.size // 8) * 8])
    magic, version, kind, sel, value_bits, dim0, dim1, frame_len, keep, n_chunks, mean = struct.unpack(
        "<IBBBBIIIIIf", raw[:32]
    )
    (header_crc,) = struct.unpack("<I", raw[32:36])
    if magic != PACKET_MAGIC:
        raise PacketCorruptionError("header", 0, f"bad magic 0x{magic:08x}")
    if zlib.crc32(raw[:32]) != header_crc:
        raise PacketCorruptionError("header", 32, "header CRC mismatch")
    if version != PACKET_VERSION:
        raise PacketCorruptionError("header", 4, f"unsupported version {version}")

    if kind > 1 or sel > 1 or not 2 <= value_bits <= 16:
        raise PacketCorruptionError(
            "header", 5, f"kind {kind}, selection {sel}, value_bits {value_bits}"
        )
    kind = "audio" if kind == 0 else "image"
    if kind == "audio" and dim0 == 0:
        raise PacketCorruptionError("header", 8, "audio packet declares no samples")
    if kind == "audio" and not 1 <= dim1 <= MAX_SAMPLE_RATE:
        raise PacketCorruptionError(
            "header", 12, f"sample rate {dim1} outside [1, {MAX_SAMPLE_RATE}]"
        )
    # magnitude positions index one frame: an audio frame or the whole image
    frames, limit = _frame_shape(kind, dim0, dim1, frame_len)
    if not 1 <= keep <= limit:
        raise PacketCorruptionError(
            "header", 20, f"keep_count {keep} outside [1, {limit}]"
        )
    selection = "lowfreq" if sel == 0 else "magnitude"
    per_coeff = value_bits + (INDEX_BITS if selection == "magnitude" else 0)
    # sizes from the header are checked as numbers before anything is allocated
    needed = -(-keep // QUANT_CHUNK) * frames
    if needed != n_chunks:
        raise PacketCorruptionError(
            "header", 24, f"{n_chunks} chunks, layout needs {needed}"
        )
    # a NaN or inf float decodes to NaN casts; a finite float32 cannot
    # overflow the float64 decode, so finiteness is the whole check
    if not np.isfinite(mean):
        raise PacketCorruptionError("header", 28, f"mean {mean} is not finite")
    payload_bits = 32 * n_chunks + per_coeff * keep * frames
    payload_bytes_len = (payload_bits + 7) // 8
    total_bytes = 36 + payload_bytes_len + 4
    if bits.size < total_bytes * 8:
        raise PacketCorruptionError("payload", 36, "truncated payload")
    samples = frames * limit
    if samples > MAX_PAYLOAD_SAMPLES:
        raise PacketCorruptionError(
            "header", 8, f"{samples} decoded samples exceed {MAX_PAYLOAD_SAMPLES}"
        )
    payload_raw = raw[36 : 36 + payload_bytes_len]
    (payload_crc,) = struct.unpack(
        "<I", raw[36 + payload_bytes_len : 36 + payload_bytes_len + 4]
    )
    if zlib.crc32(payload_raw) != payload_crc:
        raise PacketCorruptionError("payload", 36, "payload CRC mismatch")

    counts = np.tile(_chunk_sizes(keep), frames)
    index_counts = counts if selection == "magnitude" else np.zeros_like(counts)
    layout = _payload_layout(index_counts, counts, value_bits)
    payload = _bytes_to_bits(payload_raw)[:payload_bits]
    ends = np.cumsum(counts)
    scales = struct.unpack(f">{n_chunks}f", _bits_to_bytes(payload[layout == _SCALE]))
    bad = np.flatnonzero(~np.isfinite(scales))
    if bad.size:
        # the first bad chunk, at the byte where its scale starts
        c = int(bad[0])
        start = 32 * c + per_coeff * int(ends[c] - counts[c])
        raise PacketCorruptionError(
            "payload", 36 + start // 8, f"chunk {c} scale {scales[c]} is not finite"
        )
    indices = None
    if selection == "magnitude":
        # positions restart from -1 in every chunk
        steps = np.cumsum(_bits_to_uint(payload[layout == _INDEX], INDEX_BITS) + 1)
        before = np.concatenate(([0], steps))[ends - counts]
        positions = steps - np.repeat(before, counts) - 1
        bad = np.flatnonzero(positions[ends - 1] >= limit)
        if bad.size:
            # the first bad chunk, at the bit where its last delta ends
            c = int(bad[0])
            start = 32 * c + per_coeff * int(ends[c] - counts[c])
            index_end = start + 32 + INDEX_BITS * int(counts[c])
            raise PacketCorruptionError(
                "payload",
                36 + index_end // 8,
                f"position {positions[ends[c] - 1]} >= {limit}",
            )
        indices = tuple(np.split(positions, ends)[:-1])
    q = _bits_to_uint(payload[layout == _VALUE], value_bits)
    q -= (q >> (value_bits - 1)) << value_bits  # two's complement sign
    values = tuple(np.split(q.astype(np.int32), ends)[:-1])
    return CoefficientPacket(
        kind=kind,
        dim0=dim0,
        dim1=dim1,
        frame_len=frame_len,
        keep_count=keep,
        selection=selection,
        value_bits=value_bits,
        mean=float(mean),
        scales=scales,
        indices=indices,
        values=values,
    )


# ---------------------------------------------------------------------------
# fidelity metrics


def relative_rms_error(original, reconstructed) -> float:
    """||a - b|| / ||a|| over float views of the two signals."""
    a = np.asarray(original, dtype=float)
    b = np.asarray(reconstructed, dtype=float)
    denom = np.linalg.norm(a)
    if denom == 0:
        raise ValueError("original signal has zero energy")
    return float(np.linalg.norm(a - b) / denom)


def psnr(original, reconstructed, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB."""
    a = np.asarray(original, dtype=float)
    b = np.asarray(reconstructed, dtype=float)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / mse))


# ---------------------------------------------------------------------------
# WAV / PGM file handling


def read_wav(path) -> AudioClip:
    """Read a mono 16-bit PCM WAV file."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError(f"{path}: only mono WAV input is supported")
            if fh.getsampwidth() != 2:
                raise ValueError(f"{path}: only 16-bit PCM WAV input is supported")
            rate = fh.getframerate()
            expected = 2 * fh.getnframes()
            raw = fh.readframes(fh.getnframes())
    except EOFError as exc:
        raise ValueError(f"{path}: not a WAV file: ends inside its header") from exc
    except wave.Error as exc:
        raise ValueError(f"{path}: not a WAV file: {exc}") from exc
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} sample bytes, got {len(raw)}")
    try:
        return AudioClip(samples=np.frombuffer(raw, dtype="<i2"), sample_rate=rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_wav(path, clip: AudioClip) -> None:
    """Write a mono 16-bit PCM WAV file."""
    data = np.clip(clip.samples, -32768, 32767).astype("<i2").tobytes()
    # opened here, so a path that cannot be written leaves no half-built writer
    with open(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(data)


def read_pgm(path) -> GrayImage:
    """Read a binary (P5) PGM file with maxval 255."""
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        if pos == len(raw):
            raise ValueError(f"{path}: PGM header ends after {len(fields)} of 4 fields")
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path}: only binary (P5) PGM files are supported")
    if not all(field.isdigit() for field in fields[1:]):
        raise ValueError(f"{path}: PGM width, height and maxval must be decimal integers")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 PGM files are supported")
    pos += 1  # the single whitespace after maxval
    expected = width * height
    if len(raw) - pos < expected:
        raise ValueError(
            f"{path}: expected {expected} pixel bytes for {width}x{height}, "
            f"got {max(len(raw) - pos, 0)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=expected, offset=pos)
    return GrayImage(pixels=pixels.reshape(height, width))


def write_pgm(path, img: GrayImage) -> None:
    """Write a binary (P5) PGM file."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode()
    Path(path).write_bytes(header + img.pixels.tobytes())


# ---------------------------------------------------------------------------
# payload files


def file_to_packet(
    path,
    keep_fraction: float,
    selection: str = "lowfreq",
    value_bits: int = 8,
) -> CoefficientPacket:
    """Read a .wav or .pgm payload and compress it."""
    suffix = Path(path).suffix.lower()
    if suffix == ".wav":
        payload = read_wav(path)
        compress = compress_audio
    elif suffix == ".pgm":
        payload = read_pgm(path)
        compress = compress_image
    else:
        raise ValueError(f"unsupported payload type {suffix!r} (use .wav or .pgm)")
    return compress(payload, keep_fraction, selection=selection, value_bits=value_bits)


def packet_to_file(packet: CoefficientPacket, path) -> None:
    """Decompress a packet by its kind and write it as WAV or PGM."""
    if packet.kind == "audio":
        write_wav(path, decompress_audio(packet))
    else:
        write_pgm(path, decompress_image(packet))
