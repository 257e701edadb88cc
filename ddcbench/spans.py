"""Spans for the traced run, recorded from outside ddckit.

``Tracer.install`` replaces each traced public function by a timing wrapper
under every module attribute that refers to it (``ddckit.pipeline.filter_stream``,
``ddckit.simulate.run``, ...), so calls between ddckit's own modules are
traced too.  A span is a name, a start, an end, the span that caused it and
the benchmark op it belongs to, plus a work count.  Spans are kept in
compact arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import array
import sys
import time

import numpy as np


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_first(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["x"])


def _stream_work(args, kwargs, result) -> tuple[int, int]:
    filt = args[0] if args else kwargs["filt"]
    return len(result), len(filt.taps)


def _impulse_sum(args, kwargs, result) -> tuple[int, int]:
    return 0, int(result.method == "impulse-sum")


_MAKERS = (
    "make_ma",
    "make_2sr",
    "make_dcr",
    "make_iq",
    "make_lp",
    "make_dc_reject_passband",
    "to_baseband",
)

# (module, attribute, span name, work counter)
TARGETS = [
    ("ddckit.core", "filter_stream", "core.filter_stream", _stream_work),
    ("ddckit.core", "decimate", "core.decimate", _len_first),
    ("ddckit.simulate", "synthesize", "simulate.synthesize", _len_result),
    ("ddckit.simulate", "noise_gain_study", "simulate.noise_gain_study", None),
    ("ddckit.simulate", "analytic_noise_gain", "simulate.analytic_noise_gain", None),
    ("ddckit.pipeline", "run", "pipeline.run", None),
    ("ddckit.pipeline", "mix_down", "pipeline.mix_down", _len_result),
    ("ddckit.pipeline", "transient_length", "pipeline.transient_length", None),
    ("ddckit.pipeline", "group_delay_seconds", "pipeline.group_delay_seconds", None),
    ("ddckit.analysis", "h2_norm_sq", "analysis.h2_norm_sq", _impulse_sum),
    ("ddckit.analysis", "multirate_norm_sq", "analysis.multirate_norm_sq", None),
    ("ddckit.analysis", "tune_lp_bandwidth", "analysis.tune_lp_bandwidth", None),
    ("ddckit.analysis", "phase_metrics", "analysis.phase_metrics", None),
    ("ddckit.analysis", "freq_response", "analysis.freq_response", None),
    ("ddckit.presets", "parse_filter_spec", "presets.parse_filter_spec", None),
] + [("ddckit.filters", name, "filters.make", None) for name in _MAKERS]

# Sequence construction validates (and copies) its samples in __post_init__.
CLASS_TARGETS = [
    ("ddckit.core", "RealSeq", "__post_init__", "core.seq_validate"),
    ("ddckit.core", "ComplexSeq", "__post_init__", "core.seq_validate"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("q")
        self.aux = array.array("q")
        self._stack = [-1]
        self.current_op = -1
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.work.append(0)
        self.aux.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        name_id = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                work = counter(args, kwargs, result)
                if isinstance(work, tuple):
                    tracer.work[index], tracer.aux[index] = work
                else:
                    tracer.work[index] = work
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ddckit"]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        for module_name, cls_name, attr, name in CLASS_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, name))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so that the arrays stay appendable afterwards.
        return {
            key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
            for key, dtype in (
                ("name", np.int32),
                ("parent", np.int64),
                ("op", np.int64),
                ("start", np.float64),
                ("end", np.float64),
                ("work", np.int64),
                ("aux", np.int64),
            )
        }

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover (calls are
        nested and single-threaded, so children never overlap)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - covered

    def save(self, path) -> None:
        a = self.arrays()
        t0 = a["start"].min() if len(a["start"]) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=a["name"],
            parent=a["parent"],
            op=a["op"],
            start=a["start"] - t0,
            end=a["end"] - t0,
            work=a["work"],
            aux=a["aux"],
        )
