"""Layer tracing from outside the library.

While a ``Tracer`` is entered, every public function of chaoslink's layer
modules is replaced by a wrapper that records a span (name, start, end,
parent, failed) plus the work counts listed in ``COUNTERS``. A function is
replaced at every binding site: modules that import it by name
(``cli.mask_transmit``, ``codecs.unmask_receive``, ``link.receiver_run``, the
package's re-exports) hold their own reference, so wrapping only the defining
module would lose those spans. Leaving the ``with`` block restores the
original functions, so untraced passes run the library untouched.

``params`` is not traced (no runtime cost) and ``signals`` only generates
benchmark inputs, which is set-up. No layer queues work in this
single-process batch simulator, so waiting time is not reported.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core_map", "sync", "link", "codecs", "io_formats", "analysis", "cli")

# Work counted at a span boundary: f(bound arguments, result) -> {key: count}.
COUNTERS = {
    "core_map.generate_trajectory": lambda a, r: {"steps": len(r) + r.transient},
    "sync.receiver_run": lambda a, r: {"samples": len(r)},
    "link.mask_transmit": lambda a, r: {"samples": r.w_star.size},
    "link.channel_awgn": lambda a, r: {"samples": r.size},
    "link.prbs": lambda a, r: {"bits": r.size},
    "link.ber_measure": lambda a, r: {"bits": r.bits, "errors": r.errors},
    "codecs.packet_to_bits": lambda a, r: {"bits": r.size},
    "codecs.bits_to_packet": lambda a, r: {"bits": len(a["bits"])},
    "io_formats.write_masked_series": lambda a, r: {
        "bytes": os.path.getsize(a["path"])
    },
    "analysis.le_qr": lambda a, r: {"steps": len(a["traj"])},
    "analysis.le_wolf": lambda a, r: {"replacements": r.meta["replacements"]},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "failed", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False
        self.counts = {}


class Totals:
    """Per-function sums over the spans of one pass."""

    __slots__ = ("self_s", "calls", "failed", "counts")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.failed = 0
        self.counts = defaultdict(int)


class Tracer:
    """Context manager that wraps chaoslink's layer functions while entered."""

    def __init__(self):
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "chaoslink" or name.startswith("chaoslink."))
        ]
        self._targets = []
        for layer in LAYERS:
            module = sys.modules[f"chaoslink.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                sites = [
                    (m, a) for m in modules for a, v in vars(m).items() if v is fn
                ]
                self._targets.append((f"{layer}.{attr}", fn, sites))
        self.spans = []
        self._stack = []

    def __enter__(self):
        self.spans = []
        self._stack = []
        for name, fn, sites in self._targets:
            wrapped = self._wrap(name, fn)
            for module, attr in sites:
                setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for _, fn, sites in self._targets:
            for module, attr in sites:
                setattr(module, attr, fn)
        return False

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def totals(self):
        """Self time, calls, failures and counts per function for the spans so far.

        A span's self time is its duration minus the durations of its direct
        children; calls nest strictly in this single-threaded process.
        """
        child_s = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_s[id(span.parent)] += span.end - span.start
        by_name = defaultdict(Totals)
        for span in self.spans:
            entry = by_name[span.name]
            entry.self_s += span.end - span.start - child_s[id(span)]
            entry.calls += 1
            entry.failed += span.failed
            for key, value in span.counts.items():
                entry.counts[key] += value
        return by_name

    def covered_s(self):
        """Time inside top-level spans (everything else in a pass is benchmark glue)."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def dump(self):
        """Spans as plain records, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0].start
        index = {id(s): k for k, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": None if s.parent is None else index[id(s.parent)],
                "failed": s.failed,
                "counts": dict(s.counts),
            }
            for s in self.spans
        ]


def _self_s(*names):
    return lambda t: sum(t[n].self_s for n in names), "s"


def _ns_per(name, key, unit):
    def value(t):
        count = t[name].counts[key]
        return t[name].self_s * 1e9 / count if count else 0.0

    return value, unit


def _count(name, key, unit="count"):
    return lambda t: t[name].counts[key], unit


def _layer_self_s(layer):
    return lambda t: sum(v.self_s for k, v in t.items() if k.startswith(layer + ".")), "s"


def _layer_failed(layer):
    return lambda t: sum(v.failed for k, v in t.items() if k.startswith(layer + ".")), "count"


def _bits_correct(t):
    entry = t["link.ber_measure"]
    bits = entry.counts["bits"]
    return (bits - entry.counts["errors"]) / bits if bits else 0.0


def _crc_pass(t):
    entry = t["codecs.bits_to_packet"]
    return (entry.calls - entry.failed) / entry.calls if entry.calls else 0.0


# Per-layer metrics of one traced pass: name -> (f(totals), unit). Work
# counts and ratios read 0 on a workload that does not exercise the layer.
LAYER_METRICS = {
    "sync.receiver_run.ns_per_sample": _ns_per("sync.receiver_run", "samples", "ns/sample"),
    "sync.receiver_run.self_s": _self_s("sync.receiver_run"),
    "link.mask_transmit.ns_per_sample": _ns_per("link.mask_transmit", "samples", "ns/sample"),
    "link.mask_transmit.self_s": _self_s("link.mask_transmit"),
    "link.unmask_receive.self_s": _self_s("link.unmask_receive"),
    "link.channel_awgn.ns_per_sample": _ns_per("link.channel_awgn", "samples", "ns/sample"),
    "link.integrate_and_dump.self_s": _self_s("link.integrate_and_dump"),
    "link.decide.self_s": _self_s(
        "link.fit_symbol_gaussians",
        "link.optimal_threshold",
        "link.ber_predict",
        "link.ber_measure",
    ),
    "link.prbs.ns_per_bit": _ns_per("link.prbs", "bits", "ns/bit"),
    "link.samples": _count("link.mask_transmit", "samples"),
    "link.bits_correct_ratio": (_bits_correct, "ratio"),
    "codecs.packet_to_bits.ns_per_bit": _ns_per("codecs.packet_to_bits", "bits", "ns/bit"),
    "codecs.bits_to_packet.ns_per_bit": _ns_per("codecs.bits_to_packet", "bits", "ns/bit"),
    "codecs.compress.self_s": _self_s("codecs.compress_audio", "codecs.compress_image"),
    "codecs.decompress.self_s": _self_s("codecs.decompress_audio", "codecs.decompress_image"),
    "codecs.payload_bits": _count("codecs.packet_to_bits", "bits"),
    "codecs.crc_pass_ratio": (_crc_pass, "ratio"),
    "io_formats.write_masked_series.self_s": _self_s("io_formats.write_masked_series"),
    "io_formats.read_masked_series.self_s": _self_s("io_formats.read_masked_series"),
    "io_formats.masked_bytes": _count("io_formats.write_masked_series", "bytes", "bytes"),
    "cli.send_file.self_s": _self_s("cli.cmd_send_file"),
    "cli.recv_file.self_s": _self_s("cli.cmd_recv_file"),
    "analysis.le_qr.ns_per_step": _ns_per("analysis.le_qr", "steps", "ns/step"),
    "analysis.le_wolf.self_s": _self_s("analysis.le_wolf"),
    "analysis.le_wolf.replacements": _count("analysis.le_wolf", "replacements"),
    "analysis.correlation_dimension.self_s": _self_s("analysis.correlation_dimension"),
    "analysis.le_eckmann_ruelle.self_s": _self_s("analysis.le_eckmann_ruelle"),
    "analysis.welch_psd.self_s": _self_s("analysis.welch_psd"),
    "core_map.generate_trajectory.ns_per_step": _ns_per(
        "core_map.generate_trajectory", "steps", "ns/step"
    ),
    "core_map.generate_trajectory.self_s": _self_s("core_map.generate_trajectory"),
    **{f"{layer}.self_s": _layer_self_s(layer) for layer in LAYERS},
    **{f"{layer}.failed": _layer_failed(layer) for layer in LAYERS},
}


def layer_metrics(tracer):
    """Evaluate LAYER_METRICS on the spans of the pass just traced."""
    totals = tracer.totals()
    return {name: float(fn(totals)) for name, (fn, _) in LAYER_METRICS.items()}


def unit_of(name):
    return LAYER_METRICS[name][1]
