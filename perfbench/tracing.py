"""Spans around mvthresh's public functions, recorded from outside the package.

Each hook replaces a function in the namespace its caller looks it up in
(``mvthresh.quality.mse`` is the name ``psnr`` calls, ``mvthresh.cli.mse``
the one ``cmd_segment`` calls), so no code inside ``src/`` changes. A hook
whose attribute no longer exists is skipped and listed in ``missing``; its
layer then reads zero calls.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module the caller looks the name up in, attribute, span name)
HOOKS = (
    ("mvthresh.cli", "cmd_segment", "cli.segment"),
    ("mvthresh.cli", "cmd_sweep", "cli.sweep"),
    ("mvthresh.cli", "cmd_otsu", "cli.otsu"),
    ("mvthresh.cli", "read_pgm", "image.read_pgm"),
    ("mvthresh.cli", "write_pgm", "image.write_pgm"),
    ("mvthresh.cli", "compute_histogram", "image.compute_histogram"),
    ("mvthresh.segmentation", "compute_histogram", "image.compute_histogram"),
    ("mvthresh.segmentation", "range_stats", "stats.range_stats"),
    ("mvthresh.segmentation", "weighted_mean", "stats.weighted_mean"),
    ("mvthresh.segmentation", "segment", "segmentation.segment"),
    ("mvthresh.segmentation", "apply_mapping", "segmentation.apply_mapping"),
    ("mvthresh.cli", "segment_image", "segmentation.segment_image"),
    ("mvthresh.segmentation", "segment_image", "segmentation.segment_image"),
    ("mvthresh.cli", "auto_select_n", "segmentation.auto_select_n"),
    ("mvthresh.cli", "mse", "quality.mse"),
    ("mvthresh.quality", "mse", "quality.mse"),
    ("mvthresh.cli", "psnr", "quality.psnr"),
    ("mvthresh.segmentation", "psnr", "quality.psnr"),
    ("mvthresh.cli", "otsu_multilevel_exhaustive", "otsu.k"),  # suffixed with k
)
PIXEL_PASSES = ("image.compute_histogram", "segmentation.apply_mapping", "quality.mse")
MODULES = ("image", "stats", "segmentation", "quality", "otsu", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0


@dataclass
class OpTrace:
    """What one traced call did: self time and calls per span name."""

    self_ms: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    early_stop: bool = False  # some segment() returned fewer thresholds than asked
    read_bytes: int = 0

    def module_ms(self, module: str) -> float:
        return sum(v for k, v in self.self_ms.items() if k.split(".")[0] == module)


class Tracer:
    """Records spans in memory while installed; ``collect`` folds them per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.last_image = None  # the raster the last read_pgm returned
        self._early_stop = False
        self._read_bytes = 0

    def call(self, name: str, fn, *args, **kwargs):
        if name == "otsu.k":
            name = f"otsu.k{args[1] if len(args) > 1 else kwargs['k']}"
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, self.stack[-1] if self.stack else None))
        self.stack.append(index)
        span = self.spans[index]
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        if name == "image.read_pgm":
            self.last_image = out
            self._read_bytes += len(args[0])
        elif name == "segmentation.segment":
            self._early_stop |= out.effective_n < args[1].n
        return out

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Hook every function in HOOKS for the duration of the block."""
        saved = []
        self.missing = []
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(saved[-1][2], name))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def collect(self) -> OpTrace:
        """Fold and clear the spans recorded since the last collect."""
        op = OpTrace(early_stop=self._early_stop, read_bytes=self._read_bytes)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        for span, inner in zip(self.spans, child):
            op.self_ms[span.name] += (span.end - span.start - inner) * 1000.0
            op.calls[span.name] += 1
        self.spans.clear()
        self._early_stop = False
        self._read_bytes = 0
        return op
