import dataclasses
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaoslink import codecs
from chaoslink.codecs import (
    INDEX_BITS,
    QUANT_CHUNK,
    AudioClip,
    CoefficientPacket,
    GrayImage,
    PacketCorruptionError,
    bits_to_packet,
    compress_audio,
    compress_image,
    dct_forward,
    dct_inverse,
    decompress_audio,
    decompress_image,
    file_to_packet,
    packet_to_bits,
    psnr,
    read_pgm,
    read_wav,
    relative_rms_error,
    write_pgm,
    write_wav,
    zigzag_order,
)
from chaoslink.signals import synth_image, synth_speech

HEADER_LAYOUT = "<IBBBBIIIIIf"
HEADER_FIELDS = (
    "magic", "version", "kind", "selection", "value_bits", "dim0", "dim1",
    "frame_len", "keep_count", "n_chunks", "mean",
)


def with_header(bits, **changes):
    """Rewrite header fields of serialized packet bits and refresh the header CRC."""
    raw = bytearray(np.packbits(bits).tobytes())
    fields = dict(zip(HEADER_FIELDS, struct.unpack(HEADER_LAYOUT, raw[:32])))
    fields.update(changes)
    raw[:32] = struct.pack(HEADER_LAYOUT, *fields.values())
    raw[32:36] = struct.pack("<I", zlib.crc32(bytes(raw[:32])))
    return np.unpackbits(np.frombuffer(bytes(raw), dtype=np.uint8))


def hand_packet(kind, dim0, frame_len, keep, positions=None, n_values=None):
    """A CoefficientPacket built field by field; one chunk of zero values."""
    n_values = keep if n_values is None else n_values
    return CoefficientPacket(
        kind=kind,
        dim0=dim0,
        dim1=8000 if kind == "audio" else 8,
        frame_len=frame_len,
        keep_count=keep,
        selection="lowfreq" if positions is None else "magnitude",
        value_bits=8,
        mean=0.0,
        scales=(1.0,) if n_values else (),
        indices=None if positions is None else (np.asarray(positions),),
        values=(np.zeros(n_values, dtype=np.int32),) if n_values else (),
    )


# ---------------------------------------------------------------------------
# bit-by-bit reference packer and parser: the writer grows one Python integer
# field by field, the reader builds each field from a loop over its bits


class RefBitWriter:
    def __init__(self):
        self.acc = 0
        self.nbits = 0

    def write(self, value, bits):
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits

    def to_bytes(self):
        pad = (-self.nbits) % 8
        return (self.acc << pad).to_bytes((self.nbits + pad) // 8, "big")


class RefBitReader:
    def __init__(self, raw):
        self.bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        self.pos = 0

    def read(self, nbits):
        value = 0
        for b in self.bits[self.pos : self.pos + nbits]:
            value = (value << 1) | int(b)
        self.pos += nbits
        return value


def reference_packet_to_bits(packet):
    header = struct.pack(
        HEADER_LAYOUT, 0x43504B31, 1, ("audio", "image").index(packet.kind),
        ("lowfreq", "magnitude").index(packet.selection), packet.value_bits,
        packet.dim0, packet.dim1, packet.frame_len, packet.keep_count,
        len(packet.values), packet.mean,
    )
    header += struct.pack("<I", zlib.crc32(header))
    writer = RefBitWriter()
    for f, q in enumerate(packet.values):
        writer.write(int.from_bytes(struct.pack("<f", packet.scales[f]), "little"), 32)
        if packet.selection == "magnitude":
            prev = -1
            for idx in packet.indices[f]:
                delta = int(idx) - prev - 1
                if delta >= 1 << INDEX_BITS:
                    raise ValueError("coefficient positions too sparse for 16-bit deltas")
                writer.write(delta, INDEX_BITS)
                prev = int(idx)
        for v in q:
            writer.write(int(v), packet.value_bits)
    payload = writer.to_bytes()
    raw = header + payload + struct.pack("<I", zlib.crc32(payload))
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))


def reference_bits_to_packet(bits):
    """Field-by-field parse of a packet whose header and CRCs are valid."""
    raw = np.packbits(bits).tobytes()
    h = dict(zip(HEADER_FIELDS, struct.unpack(HEADER_LAYOUT, raw[:32])))
    kind, keep, width = h["kind"], h["keep_count"], h["value_bits"]
    magnitude = h["selection"] == 1
    limit = h["frame_len"] if kind == 0 else h["dim0"] * h["dim1"]
    sizes = [min(QUANT_CHUNK, keep - s) for s in range(0, keep, QUANT_CHUNK)]
    if kind == 0:
        sizes *= -(-h["dim0"] // h["frame_len"])
    reader = RefBitReader(raw[36:])
    scales, indices, values = [], [], []
    for k in sizes:
        (scale,) = struct.unpack("<f", reader.read(32).to_bytes(4, "little"))
        if not math.isfinite(scale):
            raise PacketCorruptionError(
                "payload", 36 + (reader.pos - 32) // 8, f"scale {scale} is not finite"
            )
        scales.append(scale)
        if magnitude:
            pos = np.empty(k, dtype=np.int64)
            prev = -1
            for i in range(k):
                prev = prev + 1 + reader.read(INDEX_BITS)
                pos[i] = prev
            if prev >= limit:
                raise PacketCorruptionError(
                    "payload", 36 + reader.pos // 8, f"position {prev} >= {limit}"
                )
            indices.append(pos)
        q = np.empty(k, dtype=np.int32)
        for i in range(k):
            v = reader.read(width)
            q[i] = v - (1 << width) if v >> (width - 1) else v
        values.append(q)
    return CoefficientPacket(
        kind=("audio", "image")[kind], dim0=h["dim0"], dim1=h["dim1"],
        frame_len=h["frame_len"], keep_count=keep,
        selection="magnitude" if magnitude else "lowfreq", value_bits=width,
        mean=h["mean"], scales=tuple(scales),
        indices=tuple(indices) if magnitude else None, values=tuple(values),
    )


def assert_packets_equal(got, expected):
    """Equal field by field, with the same dtypes and scale types; floats by bits."""
    for name in ("kind", "dim0", "dim1", "frame_len", "keep_count", "selection", "value_bits"):
        assert getattr(got, name) == getattr(expected, name), name
    as_bits = lambda xs: [(type(x), struct.pack("<d", x)) for x in xs]
    assert as_bits([got.mean]) == as_bits([expected.mean])
    assert as_bits(got.scales) == as_bits(expected.scales)
    assert (got.indices is None) == (expected.indices is None)
    for field in ("indices", "values") if got.indices is not None else ("values",):
        a, b = getattr(got, field), getattr(expected, field)
        assert len(a) == len(b), field
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y), field


def reference_decode(packet):
    """Chunk-by-chunk decoder: each frame's run of chunks is dequantized one
    chunk at a time and scattered, then inverted by one dct_inverse per audio
    frame, or over the image grid read back from zigzag order."""
    qmax = (1 << (packet.value_bits - 1)) - 1
    keep = packet.keep_count
    size = packet.frame_len if packet.kind == "audio" else packet.dim0 * packet.dim1
    frames, k = [], 0
    while k < len(packet.values):
        kept, pos, used = [], [], 0
        while used < keep:
            kept.append(packet.values[k].astype(float) * (packet.scales[k] / qmax))
            if packet.indices is not None:
                pos.append(packet.indices[k])
            used += len(packet.values[k])
            k += 1
        coeffs = np.zeros(size)
        coeffs[np.concatenate(pos) if pos else np.arange(keep)] = np.concatenate(kept)
        frames.append(coeffs)
    if packet.kind == "audio":
        out = np.concatenate([dct_inverse(c) for c in frames])[: packet.dim0]
        return np.clip(np.round(out) * 256, -32768, 32767).astype(np.int16)
    h, w = packet.dim0, packet.dim1
    grid = np.zeros(h * w)
    grid[zigzag_order(h, w)] = frames[0]
    pixels = dct_inverse(grid.reshape(h, w)) + packet.mean
    return np.clip(np.round(pixels), 0, 255).astype(np.uint8)


@st.composite
def packets(draw, value_bits=None, max_delta=(1 << INDEX_BITS) - 1):
    """Well-formed packets: every kind, selection and value width, ragged last
    chunks, zero and extreme finite scales and means, values up to +-qmax,
    deltas 0..max_delta."""
    kind = draw(st.sampled_from(["audio", "image"]))
    selection = draw(st.sampled_from(["lowfreq", "magnitude"]))
    if value_bits is None:
        value_bits = draw(st.integers(2, 16))
    qmax = (1 << (value_bits - 1)) - 1
    keep = draw(st.integers(1, 3 * QUANT_CHUNK + 1))
    frames = draw(st.integers(1, 3)) if kind == "audio" else 1
    sizes = [min(QUANT_CHUNK, keep - s) for s in range(0, keep, QUANT_CHUNK)] * frames
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    scales = [draw(st.one_of(st.just(0.0), finite)) for _ in sizes]
    values = [
        draw(hnp.arrays(np.int32, k, elements=st.integers(-qmax, qmax))) for k in sizes
    ]
    indices, top = None, keep - 1
    if selection == "magnitude":
        deltas = st.integers(0, max_delta)
        indices = tuple(
            np.cumsum(draw(hnp.arrays(np.int64, k, elements=deltas)) + 1) - 1
            for k in sizes
        )
        top = max(top, max(int(p[-1]) for p in indices))
    # positions lie below frame_len (audio) or dim0 * dim1 (image)
    limit = top + 1 + draw(st.integers(0, 100))
    if kind == "audio":
        frame_len, dim1 = limit, 8000
        dim0 = (frames - 1) * frame_len + draw(st.integers(1, frame_len))
    else:
        frame_len, dim1 = 0, draw(st.integers(1, 64))
        dim0 = -(-limit // dim1)
    return CoefficientPacket(
        kind=kind, dim0=dim0, dim1=dim1, frame_len=frame_len, keep_count=keep,
        selection=selection, value_bits=value_bits,
        mean=draw(finite) if kind == "image" else 0.0,
        scales=tuple(scales), indices=indices, values=tuple(values),
    )


def brute_force_dct(x):
    """Direct O(n^2) orthonormal type-II DCT used as the transform oracle."""
    n = len(x)
    out = np.empty(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += x[i] * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
        out[k] = acc * np.sqrt((1.0 if k == 0 else 2.0) / n)
    return out


class TestDct:
    def test_against_brute_force_oracle(self):
        x = np.array([1.0, -0.5, 0.25, 2.0, 0.0, -1.25, 0.75, 0.5])
        assert np.allclose(dct_forward(x), brute_force_dct(x), atol=1e-12)

    def test_2d_against_separable_oracle(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(4, 4))
        rows = np.stack([brute_force_dct(r) for r in block])
        expected = np.stack([brute_force_dct(c) for c in rows.T]).T
        assert np.allclose(dct_forward(block), expected, atol=1e-12)

    def test_constant_signal_all_energy_in_dc(self):
        coeffs = dct_forward(np.full(64, 3.0))
        assert coeffs[0] == pytest.approx(3.0 * 8.0)
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 128),
            elements=st.floats(-1e3, 1e3),
        )
    )
    @settings(max_examples=100)
    def test_round_trip_and_parseval(self, x):
        coeffs = dct_forward(x)
        assert np.allclose(dct_inverse(coeffs), x, atol=1e-9 * max(1.0, np.abs(x).max()))
        assert np.sum(coeffs**2) == pytest.approx(np.sum(x**2), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("rows, n", [(1, 1), (3, 16), (5, 100), (9, 1024), (13, 17)])
    def test_row_axis_equals_per_row_calls(self, rows, n):
        # the codec transforms all speech frames in one call over axis 1
        x = np.random.default_rng(rows * n).normal(scale=100.0, size=(rows, n))
        for transform in (dct_forward, dct_inverse):
            per_row = np.stack([transform(row) for row in x])
            assert transform(x, axes=(1,)).tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000, 4097])
    def test_1d_is_scipy_dct(self, n):
        from scipy import fft as sfft

        x = np.random.default_rng(n).normal(scale=100.0, size=n)
        assert dct_forward(x).tobytes() == sfft.dct(x, norm="ortho").tobytes()
        assert dct_inverse(x).tobytes() == sfft.idct(x, norm="ortho").tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dct_forward(np.array([]))

    @pytest.mark.parametrize("shape, axes", [((64,), None), ((31, 17), None), ((5, 24), (1,))])
    def test_input_left_unchanged(self, shape, axes):
        # the image codec transforms its own buffer in place; callers' arrays are never written
        x = np.random.default_rng(2).normal(size=shape)
        before = x.tobytes()
        for transform in (dct_forward, dct_inverse):
            transform(x, axes=axes)
            assert x.tobytes() == before


def reference_zigzag_order(height, width):
    """The cell-by-cell loop zigzag_order replaced: one Python int per cell."""
    order = []
    for s in range(height + width - 1):
        rows = range(max(0, s - width + 1), min(s, height - 1) + 1)
        if s % 2 == 0:
            rows = reversed(rows)
        for i in rows:
            order.append(i * width + (s - i))
    return np.asarray(order, dtype=np.int64)


class TestZigzag:
    @pytest.mark.parametrize(
        "height, width",
        [(1, 1), (1, 9), (9, 1), (2, 7), (7, 2), (5, 3), (3, 5), (8, 8), (31, 64), (640, 640)],
    )
    def test_matches_loop_reference(self, height, width):
        order = zigzag_order(height, width)
        assert order.dtype == np.int64
        assert np.array_equal(order, reference_zigzag_order(height, width))

    def test_square_prefix(self):
        order = zigzag_order(3, 3)
        # first entries walk the top-left anti-diagonals
        assert list(order[:4]) == [0, 1, 3, 6]
        assert sorted(order) == list(range(9))

    def test_rectangular_is_permutation(self):
        order = zigzag_order(5, 3)
        assert sorted(order) == list(range(15))

    def test_cached_order_is_read_only(self):
        # every codec call for one size shares this array
        order = zigzag_order(8, 8)
        with pytest.raises(ValueError, match="read-only"):
            order[0] = 1
        assert zigzag_order(8, 8)[0] == 0


class TestAudioCodec:
    def test_framed_sample_count_capped(self, monkeypatch):
        # 64 samples fill four 16-sample frames; one more needs a fifth
        monkeypatch.setattr(codecs, "MAX_PAYLOAD_SAMPLES", 64)
        clip = synth_speech(duration=0.25, seed=1)
        compress_audio(AudioClip(clip.samples[:64], 8000), 0.5, frame_len=16)
        with pytest.raises(ValueError, match="5 frames of 16 samples exceed"):
            compress_audio(AudioClip(clip.samples[:65], 8000), 0.5, frame_len=16)

    def test_speech_fidelity_at_reference_fraction(self):
        clip = synth_speech(duration=2.0, seed=4)
        packet = compress_audio(clip, 0.22)
        rebuilt = decompress_audio(packet)
        assert relative_rms_error(clip.samples, rebuilt.samples) < 0.03

    def test_compression_ratio_tracks_keep_fraction(self):
        clip = synth_speech(duration=2.0, seed=4)
        packet = compress_audio(clip, 0.22)
        assert packet.compression_ratio == pytest.approx(1 / 0.22, rel=0.15)

    def test_keep_all_is_lossless_up_to_quantization(self):
        clip = synth_speech(duration=0.5, seed=1)
        rebuilt = decompress_audio(compress_audio(clip, 1.0))
        assert relative_rms_error(clip.samples, rebuilt.samples) < 0.03

    def test_magnitude_selection_not_worse(self):
        clip = synth_speech(duration=1.0, seed=2)
        low = decompress_audio(compress_audio(clip, 0.22, selection="lowfreq"))
        mag = decompress_audio(compress_audio(clip, 0.22, selection="magnitude"))
        err_low = relative_rms_error(clip.samples, low.samples)
        err_mag = relative_rms_error(clip.samples, mag.samples)
        assert err_mag <= err_low + 0.005

    def test_keep_fraction_validated(self):
        clip = synth_speech(duration=0.2, seed=1)
        with pytest.raises(ValueError):
            compress_audio(clip, 0.0)
        with pytest.raises(ValueError):
            compress_audio(clip, 1.2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("frame_len", [0, -4])
    def test_frame_len_validated(self, frame_len):
        clip = synth_speech(duration=0.05, seed=1)
        with pytest.raises(ValueError, match=f"^frame_len must be >= 1, got {frame_len}$"):
            compress_audio(clip, 0.5, frame_len=frame_len)


each_compressor = pytest.mark.parametrize(
    "compress, payload",
    [
        (compress_audio, synth_speech(duration=0.05, seed=1)),
        (compress_image, synth_image(8, 8, seed=1)),
    ],
    ids=["audio", "image"],
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value_bits", [0, 1, 17, 40])
@each_compressor
def test_value_bits_checked_before_quantizing(compress, payload, value_bits):
    """An out-of-range width is named before any cast or shift could warn or fail."""
    with pytest.raises(ValueError, match=r"^value_bits must lie in \[2, 16\]$"):
        compress(payload, 0.5, value_bits=value_bits)


@each_compressor
def test_selection_checked_before_transform(compress, payload, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("transformed before the selection was checked")

    monkeypatch.setattr(codecs, "dct_forward", unreachable)
    with pytest.raises(ValueError, match=r"^unknown selection rule 'foo'$"):
        compress(payload, 0.5, selection="foo")


def reference_compress_image(img, keep_fraction, selection):
    """The copy-based compress_image the in-place one replaced."""
    pixels = img.pixels.astype(float)
    mean = float(np.float32(pixels.mean()))
    zz = zigzag_order(img.height, img.width)
    coeffs = dct_forward(pixels - mean).reshape(1, -1)[:, zz]
    return codecs._encode(
        coeffs, keep_fraction, selection, 8,
        kind="image", dim0=img.height, dim1=img.width, frame_len=0, mean=mean,
    )


def reference_decompress_image(packet):
    """The copy-based decompress_image the in-place one replaced."""
    h, w = packet.dim0, packet.dim1
    grid = np.zeros(h * w)
    grid[zigzag_order(h, w)] = codecs._decode(packet)[0]
    pixels = dct_inverse(grid.reshape(h, w)) + packet.mean
    return GrayImage(pixels=np.clip(np.round(pixels), 0, 255))


def packet_bytes(packet):
    """Every field of a packet, its arrays as bytes."""
    arrays = dict(scales=packet.scales, values=packet.values, indices=packet.indices or ())
    fields = {k: v for k, v in dataclasses.asdict(packet).items() if k not in arrays}
    return fields, {k: [np.asarray(a).tobytes() for a in v] for k, v in arrays.items()}


class TestImageCodec:
    @pytest.mark.parametrize("selection", ["lowfreq", "magnitude"])
    @pytest.mark.parametrize("shape", [(640, 640), (511, 257), (64, 63), (32, 32), (1, 9)])
    def test_in_place_codec_matches_copying_reference(self, shape, selection):
        img = synth_image(*shape, seed=4) if min(shape) > 1 else GrayImage(
            np.random.default_rng(4).integers(0, 256, shape)
        )
        packet = compress_image(img, 0.165, selection=selection)
        assert packet_bytes(packet) == packet_bytes(
            reference_compress_image(img, 0.165, selection)
        )
        rebuilt = decompress_image(packet).pixels
        assert rebuilt.tobytes() == reference_decompress_image(packet).pixels.tobytes()

    def test_peak_memory_per_pixel(self):
        """Compress holds one float buffer, transformed in place, and its
        zigzag reordering: 16 B/pixel (the copying codec, 24). Decompress
        scatters into one raster buffer and transforms, shifts, rounds and
        clips it in place: 8 B/pixel plus the 1-byte image (the copying
        codec, 32)."""
        img = synth_image(640, 640, seed=1)
        packet = compress_image(img, 0.165)
        decompress_image(packet)  # warm caches outside the trace
        runs = {
            "compress": (lambda: compress_image(img, 0.165), 17),
            "decompress": (lambda: decompress_image(packet), 20),
        }
        for name, (run, bound) in runs.items():
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / img.pixels.size <= bound, name

    def test_pixel_count_capped(self, monkeypatch):
        monkeypatch.setattr(codecs, "MAX_PAYLOAD_SAMPLES", 64)
        compress_image(synth_image(8, 8, seed=1), 0.5)
        with pytest.raises(ValueError, match="8x9 image exceeds the 64-sample"):
            compress_image(synth_image(8, 9, seed=1), 0.5)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_image_rejected(self, shape):
        with pytest.raises(ValueError, match="^empty image$"):
            compress_image(GrayImage(np.zeros(shape)), 0.5)

    def test_reference_fraction_metrics(self):
        img = synth_image(256, 256, seed=7)
        packet = compress_image(img, 0.165)
        rebuilt = decompress_image(packet)
        assert psnr(img.pixels, rebuilt.pixels) > 30.0
        assert packet.compression_ratio == pytest.approx(6.1, rel=0.15)

    def test_keep_all_round_trip_within_quantizer_step(self):
        img = synth_image(64, 64, seed=3)
        rebuilt = decompress_image(compress_image(img, 1.0))
        err = np.abs(rebuilt.pixels.astype(int) - img.pixels.astype(int))
        assert err.max() <= 4

    def test_magnitude_selection_is_l2_optimal(self):
        # dropping the smallest-magnitude coefficients beats any random
        # selection of the same size (checked pre-quantization)
        rng = np.random.default_rng(5)
        img = synth_image(64, 64, seed=5)
        coeffs = dct_forward(img.pixels.astype(float))
        flat = coeffs.reshape(-1)
        keep = 400
        top = np.argsort(-np.abs(flat))[:keep]
        best = np.sum(np.delete(flat, top) ** 2)
        for _ in range(20):
            random_sel = rng.choice(flat.size, size=keep, replace=False)
            assert best <= np.sum(np.delete(flat, random_sel) ** 2) + 1e-9


class TestSerialization:
    def test_bit_level_bijection(self):
        clip = synth_speech(duration=0.5, seed=1)
        for selection in ("lowfreq", "magnitude"):
            bits = packet_to_bits(compress_audio(clip, 0.3, selection=selection))
            assert np.array_equal(packet_to_bits(bits_to_packet(bits)), bits)

    def test_image_bijection(self):
        img = synth_image(64, 64, seed=2)
        bits = packet_to_bits(compress_image(img, 0.2, selection="magnitude"))
        assert np.array_equal(packet_to_bits(bits_to_packet(bits)), bits)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_any_single_payload_flip_detected(self, position):
        clip = synth_speech(duration=0.25, seed=6)
        bits = packet_to_bits(compress_audio(clip, 0.25))
        corrupted = bits.copy()
        corrupted[position % corrupted.size] ^= 1
        with pytest.raises(PacketCorruptionError):
            bits_to_packet(corrupted)

    def test_corruption_reports_section(self):
        clip = synth_speech(duration=0.25, seed=6)
        bits = packet_to_bits(compress_audio(clip, 0.25))
        header_hit = bits.copy()
        header_hit[50] ^= 1
        with pytest.raises(PacketCorruptionError) as info:
            bits_to_packet(header_hit)
        assert info.value.section == "header"
        payload_hit = bits.copy()
        payload_hit[40 * 8] ^= 1
        with pytest.raises(PacketCorruptionError) as info:
            bits_to_packet(payload_hit)
        assert info.value.section == "payload"
        assert info.value.offset == 36

    def test_serialized_size_matches_layout_formula(self):
        # 100 kept coefficients of a 256 x 256 image: header 36 bytes, two
        # quantizer chunks (64 + 36 values), byte padding, 32-bit CRC
        img = synth_image(256, 256, seed=1)
        packet = compress_image(img, 100 / 65536)
        assert packet.keep_count == 100
        payload_bits = (32 + 64 * 8) + (32 + 36 * 8)
        expected = 36 * 8 + 8 * ((payload_bits + 7) // 8) + 32
        bits = packet_to_bits(packet)
        assert bits.size == expected
        assert packet.serialized_bits == expected

    def test_magnitude_size_includes_indices(self):
        img = synth_image(256, 256, seed=1)
        packet = compress_image(img, 100 / 65536, selection="magnitude")
        payload_bits = (32 + 64 * (8 + 16)) + (32 + 36 * (8 + 16))
        expected = 36 * 8 + 8 * ((payload_bits + 7) // 8) + 32
        assert packet_to_bits(packet).size == expected

    def test_compression_ratio_above_one_for_partial_keep(self):
        clip = synth_speech(duration=1.0, seed=4)
        for keep in (0.1, 0.22, 0.5, 0.9):
            assert compress_audio(clip, keep).compression_ratio > 1.0


class TestPacketHeaderChecks:
    """Packets with valid CRCs whose header fields do not make sense."""

    def audio_bits(self):
        return packet_to_bits(compress_audio(synth_speech(duration=0.25, seed=6), 0.25))

    def test_valid_crc_rewrite_still_parses(self):
        bits = self.audio_bits()
        assert np.array_equal(with_header(bits), bits)

    @pytest.mark.parametrize(
        "packet",
        [
            hand_packet("audio", dim0=16, frame_len=16, keep=0),
            hand_packet("image", dim0=8, frame_len=0, keep=0),
        ],
        ids=["audio", "image"],
    )
    def test_zero_keep_count(self, packet):
        with pytest.raises(PacketCorruptionError) as info:
            bits_to_packet(packet_to_bits(packet))
        assert info.value.section == "header" and info.value.offset == 20

    def test_audio_without_samples(self):
        # compress_audio refuses an empty clip, so no sender makes this packet
        packet = hand_packet("audio", dim0=0, frame_len=16, keep=1, n_values=0)
        with pytest.raises(PacketCorruptionError, match="no samples") as info:
            bits_to_packet(packet_to_bits(packet))
        assert (info.value.section, info.value.offset) == ("header", 8)

    @pytest.mark.parametrize("rate", [0, 2**32 - 1])
    def test_audio_sample_rate_out_of_range(self, rate):
        # AudioClip refuses such a rate, so no sender makes this packet
        bits = packet_to_bits(hand_packet("audio", dim0=16, frame_len=16, keep=1))
        with pytest.raises(PacketCorruptionError, match=f"sample rate {rate} outside") as info:
            bits_to_packet(with_header(bits, dim1=rate))
        assert (info.value.section, info.value.offset) == ("header", 12)

    def test_audio_sample_rate_at_the_cap_parses(self):
        bits = packet_to_bits(hand_packet("audio", dim0=16, frame_len=16, keep=1))
        rate = codecs.MAX_SAMPLE_RATE
        assert bits_to_packet(with_header(bits, dim1=rate)).dim1 == rate

    def test_audio_frame_len_zero(self):
        # no frame length: the keep_count check refuses it, before any frame count is used
        packet = hand_packet("audio", dim0=16, frame_len=0, keep=1)
        with pytest.raises(PacketCorruptionError, match=r"keep_count 1 outside \[1, 0\]") as info:
            bits_to_packet(packet_to_bits(packet))
        assert (info.value.section, info.value.offset) == ("header", 20)

    def test_audio_keep_count_above_frame_len(self):
        packet = hand_packet("audio", dim0=16, frame_len=16, keep=20)
        with pytest.raises(PacketCorruptionError, match="keep_count 20"):
            bits_to_packet(packet_to_bits(packet))

    def test_image_keep_count_above_pixel_count(self):
        bits = packet_to_bits(compress_image(synth_image(8, 8, seed=1), 0.5))
        with pytest.raises(PacketCorruptionError, match="keep_count 65"):
            bits_to_packet(with_header(bits, keep_count=65))

    def test_audio_chunk_count_must_cover_every_frame(self):
        # 40 samples in 16-sample frames need 3 chunks of 2 kept values
        packet = hand_packet("audio", dim0=40, frame_len=16, keep=2)
        with pytest.raises(PacketCorruptionError) as info:
            bits_to_packet(packet_to_bits(packet))
        assert info.value.offset == 24

    def test_audio_frame_count_from_samples(self):
        bits = self.audio_bits()
        with pytest.raises(PacketCorruptionError, match="chunks"):
            bits_to_packet(with_header(bits, dim0=10 * 1024))

    @pytest.mark.parametrize(
        "packet",
        [
            hand_packet("audio", dim0=16, frame_len=16, keep=2, positions=[3, 16]),
            hand_packet("image", dim0=8, frame_len=0, keep=2, positions=[0, 64]),
        ],
        ids=["audio", "image"],
    )
    def test_magnitude_position_out_of_range(self, packet):
        with pytest.raises(PacketCorruptionError) as info:
            bits_to_packet(packet_to_bits(packet))
        assert info.value.section == "payload"

    def test_in_range_positions_parse(self):
        packet = hand_packet("image", dim0=8, frame_len=0, keep=2, positions=[0, 63])
        parsed = bits_to_packet(packet_to_bits(packet))
        assert list(parsed.indices[0]) == [0, 63]

    @pytest.mark.parametrize(
        "changes", [{"kind": 2}, {"selection": 2}, {"value_bits": 1}, {"value_bits": 17}]
    )
    def test_unknown_codes(self, changes):
        with pytest.raises(PacketCorruptionError) as info:
            bits_to_packet(with_header(self.audio_bits(), **changes))
        assert info.value.offset == 5

    @pytest.mark.parametrize("mean", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["audio", "image"])
    def test_non_finite_mean(self, kind, mean):
        if kind == "audio":
            bits = self.audio_bits()
        else:
            bits = packet_to_bits(compress_image(synth_image(8, 8, seed=1), 0.5))
        with pytest.raises(PacketCorruptionError, match="mean .* is not finite") as info:
            bits_to_packet(with_header(bits, mean=mean))
        assert (info.value.section, info.value.offset) == ("header", 28)

    @pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "selection, chunk, offset",
        # 70 values at 5 bits in chunks of 64 and 6: chunk 1's scale starts at
        # bit 32 + 64*5, or 32 + 64*(16 + 5) with 16-bit position deltas
        [
            ("lowfreq", 0, 36),
            ("lowfreq", 1, 36 + (32 + 64 * 5) // 8),
            ("magnitude", 1, 36 + (32 + 64 * 21) // 8),
        ],
        ids=["first_chunk", "second_chunk", "second_chunk_magnitude"],
    )
    def test_non_finite_scale(self, selection, chunk, offset, scale):
        scales = [1.0, 1.0]
        scales[chunk] = scale
        packet = CoefficientPacket(
            kind="image", dim0=16, dim1=8, frame_len=0, keep_count=70,
            selection=selection, value_bits=5, mean=0.0, scales=tuple(scales),
            indices=(np.arange(64), np.arange(6)) if selection == "magnitude" else None,
            values=(np.zeros(64, dtype=np.int32), np.zeros(6, dtype=np.int32)),
        )
        bits = packet_to_bits(packet)
        for parse in (bits_to_packet, reference_bits_to_packet):
            with pytest.raises(PacketCorruptionError, match="is not finite") as info:
                parse(bits)
            assert (info.value.section, info.value.offset) == ("payload", offset)


u32_values = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)
)
header_changes = st.fixed_dictionaries(
    {},
    optional={
        **{f: st.integers(0, 255) for f in ("version", "kind", "selection", "value_bits")},
        **{f: u32_values for f in ("dim0", "dim1", "frame_len", "keep_count", "n_chunks")},
        "mean": st.floats(width=32),
    },
)


class TestPacketLayer:
    """The vectorized packer and parser against the bit-by-bit reference."""

    @pytest.mark.parametrize("value_bits", range(2, 17))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_matches_reference(self, value_bits, data):
        packet = data.draw(packets(value_bits))
        bits = packet_to_bits(packet)
        assert bits.dtype == np.uint8 and bits.size == packet.serialized_bits
        assert bits.tobytes() == reference_packet_to_bits(packet).tobytes()
        assert_packets_equal(bits_to_packet(bits), reference_bits_to_packet(bits))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_decoders_match_chunk_by_chunk_reference(self, data):
        packet = data.draw(packets(max_delta=64))
        # finite scales and means: an infinite one makes 0 * inf warn
        finite = st.floats(-1e3, 1e3, width=32)
        scales = data.draw(st.lists(finite, min_size=len(packet.values), max_size=len(packet.values)))
        mean = data.draw(finite) if packet.kind == "image" else 0.0
        packet = dataclasses.replace(packet, scales=tuple(scales), mean=mean)
        if packet.kind == "audio":
            got = decompress_audio(packet).samples
        else:
            got = decompress_image(packet).pixels
        expected = reference_decode(packet)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("selection", ["lowfreq", "magnitude"])
    def test_codec_packets_match_reference(self, selection):
        for packet in (
            compress_audio(synth_speech(duration=0.5, seed=1), 0.3, selection=selection),
            compress_image(synth_image(64, 64, seed=2), 0.2, selection=selection),
        ):
            bits = packet_to_bits(packet)
            assert bits.tobytes() == reference_packet_to_bits(packet).tobytes()
            parsed = bits_to_packet(bits)
            assert_packets_equal(parsed, reference_bits_to_packet(bits))
            assert_packets_equal(parsed, packet)

    def test_extreme_deltas(self):
        # deltas 0, 0, 65535, 0
        positions = [0, 1, 65537, 65538]
        packet = hand_packet("image", dim0=9000, frame_len=0, keep=4, positions=positions)
        bits = packet_to_bits(packet)
        assert bits.tobytes() == reference_packet_to_bits(packet).tobytes()
        assert list(bits_to_packet(bits).indices[0]) == positions

    def test_delta_beyond_index_bits_rejected(self):
        packet = hand_packet("image", dim0=9000, frame_len=0, keep=2, positions=[0, 65537])
        with pytest.raises(ValueError, match="too sparse for 16-bit deltas"):
            packet_to_bits(packet)
        with pytest.raises(ValueError, match="too sparse for 16-bit deltas"):
            reference_packet_to_bits(packet)

    @pytest.mark.parametrize(
        "bad_chunks, offset",
        # chunk 0 ends its 64 deltas at bit 32 + 64*16; chunk 1 starts at bit
        # 32 + 64*(16 + 8) and ends its 6 deltas 32 + 6*16 bits later
        [((1,), 36 + (32 + 64 * 24 + 32 + 6 * 16) // 8), ((0, 1), 36 + (32 + 64 * 16) // 8)],
        ids=["second_chunk", "first_of_two"],
    )
    def test_position_error_offset(self, bad_chunks, offset):
        positions = [np.arange(64), np.array([0, 1, 2, 3, 4, 5])]
        for c in bad_chunks:
            positions[c][-1] = 128  # 16 x 8 image: positions below 128
        packet = CoefficientPacket(
            kind="image", dim0=16, dim1=8, frame_len=0, keep_count=70,
            selection="magnitude", value_bits=8, mean=0.0, scales=(1.0, 1.0),
            indices=tuple(positions),
            values=(np.zeros(64, dtype=np.int32), np.zeros(6, dtype=np.int32)),
        )
        bits = packet_to_bits(packet)
        for parse in (bits_to_packet, reference_bits_to_packet):
            with pytest.raises(PacketCorruptionError, match="position 128 >= 128") as info:
                parse(bits)
            assert (info.value.section, info.value.offset) == ("payload", offset)


class TestUntrustedPacket:
    """Any input either parses or raises PacketCorruptionError."""

    @staticmethod
    def parse_or_corrupt(bits):
        try:
            bits_to_packet(bits)
        except PacketCorruptionError:
            pass

    @given(hnp.arrays(np.uint8, st.integers(0, 3000), elements=st.integers(0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bits(self, bits):
        self.parse_or_corrupt(bits)

    @given(packets(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_truncated(self, packet, data):
        bits = packet_to_bits(packet)
        cut = data.draw(st.integers(0, bits.size - 1))
        with pytest.raises(PacketCorruptionError):
            bits_to_packet(bits[:cut])

    @given(
        packets(),
        header_changes,
        st.sampled_from([None, "same size", "any size"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_header_rewrites(self, packet, changes, refill, seed):
        """Valid header CRC; the payload kept, or refilled at random with a valid CRC."""
        raw = np.packbits(with_header(packet_to_bits(packet), **changes)).tobytes()
        if refill is not None:
            rng = np.random.default_rng(seed)
            size = len(raw) - 40 if refill == "same size" else rng.integers(0, 2000)
            body = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            raw = raw[:36] + body + struct.pack("<I", zlib.crc32(body))
        self.parse_or_corrupt(np.unpackbits(np.frombuffer(raw, dtype=np.uint8)))

    @pytest.mark.parametrize("n_chunks, offset", [(1, 24), (2**32 - 1, 36)])
    def test_header_sizes_checked_before_allocation(self, n_chunks, offset):
        # 2**32 - 1 one-sample frames of one coefficient each: the layout alone
        # would be billions of chunks
        bits = with_header(
            packet_to_bits(hand_packet("audio", dim0=1, frame_len=1, keep=1)),
            dim0=2**32 - 1, n_chunks=n_chunks,
        )
        tracemalloc.start()
        try:
            with pytest.raises(PacketCorruptionError) as info:
                bits_to_packet(bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.offset == offset
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "packet, changes",
        [
            (hand_packet("image", dim0=8, frame_len=0, keep=1), {"dim0": 100_000, "dim1": 100_000}),
            (hand_packet("image", dim0=8, frame_len=0, keep=1), {"dim0": 4096, "dim1": 4097}),
            (hand_packet("audio", dim0=16, frame_len=16, keep=1), {"frame_len": 2**32 - 1}),
        ],
        ids=["image_1e10_pixels", "image_one_row_over", "audio_frame_len_2e32"],
    )
    def test_decoded_size_capped_before_allocation(self, packet, changes):
        # a 360-bit packet with valid CRCs; decompressing it would allocate
        # 74.5 GiB (image) or 32 GiB (audio) per float64 buffer
        bits = with_header(packet_to_bits(packet), **changes)
        assert bits.size == 360
        tracemalloc.start()
        try:
            with pytest.raises(PacketCorruptionError, match="decoded samples exceed") as info:
                bits_to_packet(bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (info.value.section, info.value.offset) == ("header", 8)
        assert peak < 4 * 2**20

    def test_decoded_size_at_the_cap_parses(self):
        bits = with_header(
            packet_to_bits(hand_packet("image", dim0=8, frame_len=0, keep=1)),
            dim0=4096, dim1=4096,
        )
        assert 4096 * 4096 == codecs.MAX_PAYLOAD_SAMPLES
        assert bits_to_packet(bits).dim0 == 4096


class TestFileFormats:
    def test_wav_round_trip(self, tmp_path):
        clip = synth_speech(duration=0.3, seed=2)
        path = tmp_path / "clip.wav"
        write_wav(path, clip)
        back = read_wav(path)
        assert back.sample_rate == clip.sample_rate
        assert np.array_equal(back.samples, clip.samples)

    def test_pgm_round_trip(self, tmp_path):
        img = synth_image(48, 32, seed=2)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_pgm_comments_tolerated(self, tmp_path):
        img = synth_image(8, 8, seed=1)
        path = tmp_path / "img.pgm"
        raw = f"P5\n# a comment\n8 8\n255\n".encode() + img.pixels.tobytes()
        path.write_bytes(raw)
        assert np.array_equal(read_pgm(path).pixels, img.pixels)

    @pytest.mark.parametrize("pixels", [0, 2, 15])
    def test_pgm_short_pixel_data_rejected(self, tmp_path, pixels):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(pixels))
        with pytest.raises(ValueError, match=f"expected 16 pixel bytes for 4x4, got {pixels}$"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"P5\n4", "header ends after 2 of 4 fields"),
            (b"P5\n4 # 4 255\n", "header ends after 2 of 4 fields"),
            (b"P5\n4 x 255\n", "must be decimal integers"),
        ],
        ids=["cut", "comment_to_end", "not_a_number"],
    )
    def test_pgm_bad_header_rejected_with_path(self, tmp_path, raw, message):
        path = tmp_path / "img.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=message) as info:
            read_pgm(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("cut", [100, 1], ids=["even", "odd"])
    def test_wav_truncated_data_rejected(self, tmp_path, cut):
        path = tmp_path / "clip.wav"
        write_wav(path, AudioClip(samples=np.arange(160, dtype=np.int16), sample_rate=8000))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"expected 320 sample bytes, got {320 - cut}$") as info:
            read_wav(path)
        assert str(path) in str(info.value)

    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_wav_to_a_directory_leaves_no_half_built_writer(self, tmp_path):
        clip = AudioClip(samples=np.zeros(16, dtype=np.int16), sample_rate=8000)
        with pytest.raises(IsADirectoryError):
            write_wav(tmp_path, clip)

    def test_non_wav_rejected_with_path(self, tmp_path):
        path = tmp_path / "clip.wav"
        path.write_bytes(b"hello")
        with pytest.raises(ValueError, match="not a WAV file"):
            read_wav(path)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "payload.txt"
        path.write_text("hello")
        with pytest.raises(ValueError, match="unsupported payload type '.txt'"):
            file_to_packet(path, 0.22)


class TestPayloadTypes:
    def test_audio_clip_validation(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros((2, 2)), sample_rate=8000)
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros(4), sample_rate=0)
        # a 16-bit mono WAV stores 2 x rate as a u32 byte rate
        with pytest.raises(ValueError, match=rf"must lie in \[1, {2**31 - 1}\], got {2**31}$"):
            AudioClip(samples=np.zeros(4), sample_rate=2**31)
        assert AudioClip(samples=np.zeros(4), sample_rate=2**31 - 1).sample_rate == 2**31 - 1

    def test_gray_image_validation(self):
        with pytest.raises(ValueError):
            GrayImage(pixels=np.zeros(4))
        img = GrayImage(pixels=np.arange(6).reshape(2, 3))
        assert (img.height, img.width) == (2, 3)
