"""Spans around the repro package's public functions, installed from outside.

Traced runs only.  :class:`Tracer` replaces each listed public function or
method with a wrapper that records a span ``[name, start_ns, end_ns,
parent]`` on ``perf_counter_ns``.  Spans stay in memory and are written
once, when the run ends.  ``src/`` is never edited: the wrappers are
installed on the live objects and removed again by :meth:`Tracer.uninstall`.

Parents come from a stack, so spans must nest within one thread.  The
serving load generator runs two asyncio connections at once, so the only
functions wrapped on that path (the client's wire encode/decode) are
synchronous and never suspend while a span is open.

A span's self time is its duration minus the time its child spans cover.
Children of one span run one after another in the same thread, so the
time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name): plain functions, replaced in every loaded
# repro module that imported them by name.
FUNCTIONS = (
    ("repro.datasets.registry", "load_dataset", "datasets.load"),
    ("repro.evaluation.cross_validation", "run_fold", "evaluation.run_fold"),
    ("repro.serving.wire", "encode_request", "serving.wire.encode"),
    ("repro.serving.wire", "decode_response", "serving.wire.decode"),
)

# (module, class, method, span name): methods, replaced on the class.
METHODS = (
    ("repro.core.rdgbg", "RDGBG", "generate", "rdgbg.generate"),
    ("repro.core.gbabs", "GBABS", "fit_resample", "gbabs.fit_resample"),
    ("repro.sampling.gbs", "GGBS", "fit_resample", "sampling.ggbs.fit_resample"),
    ("repro.sampling.srs", "SimpleRandomSampler", "fit_resample",
     "sampling.srs.fit_resample"),
    ("repro.sampling.smote", "SMOTE", "fit_resample", "sampling.sm.fit_resample"),
    ("repro.sampling.smote", "BorderlineSMOTE", "fit_resample",
     "sampling.bsm.fit_resample"),
    ("repro.sampling.tomek", "TomekLinks", "fit_resample",
     "sampling.tomek.fit_resample"),
    ("repro.classifiers.tree", "DecisionTreeClassifier", "fit",
     "classifiers.dt.fit"),
    ("repro.classifiers.tree", "DecisionTreeClassifier", "predict",
     "classifiers.dt.predict"),
    ("repro.classifiers.gb_classifier", "GranularBallClassifier", "fit",
     "classifiers.gb.fit"),
)


def _count_rdgbg(counts, args, result) -> None:
    counts["rdgbg.balls"] += len(result.ball_set)
    counts["rdgbg.noise_removed"] += int(result.noise_indices.size)


def _count_gbabs(counts, args, result) -> None:
    report = args[0].report_
    counts["gbabs.het_pairs"] += int(report.borderline_pairs_per_dim.sum())
    counts["gbabs.selected"] += report.n_selected
    counts["gbabs.samples"] += report.n_samples


# Span name -> counter hook run on the wrapped call's result.
COUNTERS = {"rdgbg.generate": _count_rdgbg, "gbabs.fit_resample": _count_gbabs}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        hook = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method (imports their modules)."""
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Put every original object back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        covered = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), child in zip(self.spans, covered):
            totals[name] += (end - start - child) / 1e9
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            counts[name] += 1
        return dict(counts)

    def write(self, path: Path, extra: dict) -> None:
        """Write every span plus the summaries, once, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            **extra,
            "self_seconds": self.self_seconds(),
            "calls": self.calls(),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        path.write_text(json.dumps(record) + "\n")
