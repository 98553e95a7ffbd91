"""Spans around trendlet's module attributes, recorded from outside the program.

``Tracer.install`` replaces the module attributes that callers look up
(``pipeline.features_for``, ``kmeans.lloyd``, ``dwt.decompose``, ...) with
wrappers that record a span per call: name, start, end, parent span and a
few facts about the call. ``uninstall`` puts the originals back.
``layer_metrics`` turns the spans of a run into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

SETUP = "bench.setup"
ROUND = "bench.round"

PER_LAYER = {  # name -> (unit, better)
    "trendlet.import_s": ("s", "lower"),
    "preprocess.ingest_s": ("s", "lower"),
    "preprocess.ingest_mb_per_s": ("MB/s", "higher"),
    "preprocess.normalize_s": ("s", "lower"),
    "preprocess.emit_s": ("s", "lower"),
    "pipeline.generate_s": ("s", "lower"),
    "pipeline.features_s": ("s", "lower"),
    "pipeline.features_rows_per_s": ("1/s", "higher"),
    "pipeline.features_calls": ("count", "lower"),
    "pipeline.distinct_bank_ratio": ("ratio", "higher"),
    "pipeline.cooccurrence_self_s": ("s", "lower"),
    "dwt.decompose_s": ("s", "lower"),
    "dwt.decompose_calls": ("count", "lower"),
    "dwt.reconstruct_single_s": ("s", "lower"),
    "dwt.reconstruct_single_calls": ("count", "lower"),
    "dwt.reconstruct_s": ("s", "lower"),
    "kmeans.fit_s": ("s", "lower"),
    "kmeans.seed_s": ("s", "lower"),
    "kmeans.lloyd_s": ("s", "lower"),
    "kmeans.lloyd_iters": ("count", "lower"),
    "kmeans.s_per_iter": ("s", "lower"),
    "kmeans.restarts_at_max_iter": ("count", "lower"),
    "pca.fit_s": ("s", "lower"),
    "svgplot.render_s": ("s", "lower"),
    "svgplot.write_s": ("s", "lower"),
    "svgplot.mb": ("MB", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.written_mb": ("MB", "lower"),
    "filterbank.lookups": ("count", "lower"),
}


def _path_bytes(args, kwargs, result):
    source = args[0]
    return {"bytes": os.path.getsize(source)} if isinstance(source, (str, os.PathLike)) else None


def _features_info(args, kwargs, result):
    return {"rows": args[0].n_entities, "wavelet": str(args[1])}


def _lloyd_info(args, kwargs, result):
    return {"n_iter": result[3], "max_iter": kwargs.get("max_iter", 300)}


def _targets():
    """(module, attribute, span name, info function) for every traced call."""
    from trendlet import cli, dwt, kmeans, pca, pipeline, preprocess, svgplot

    return [
        (cli, "main", "cli.main", None),
        (preprocess, "ingest_csv", "preprocess.ingest_csv", _path_bytes),
        (preprocess, "normalize", "preprocess.normalize", None),
        (preprocess, "emit_csv", "preprocess.emit_csv", None),
        (pipeline, "generate_synthetic", "pipeline.generate_synthetic", None),
        (pipeline, "run_single", "pipeline.run_single", None),
        (pipeline, "features_for", "pipeline.features_for", _features_info),
        (pipeline, "co_occurrence", "pipeline.co_occurrence", None),
        (pipeline, "kmeans_fit", "kmeans.kmeans_fit", None),
        (kmeans, "kmeanspp_seed", "kmeans.kmeanspp_seed", None),
        (kmeans, "lloyd", "kmeans.lloyd", _lloyd_info),
        (dwt, "decompose", "dwt.decompose", None),
        (dwt, "reconstruct", "dwt.reconstruct", None),
        (dwt, "reconstruct_single", "dwt.reconstruct_single", None),
        (pca, "pca_fit", "pca.pca_fit", None),
        (svgplot, "heatmap", "svgplot.heatmap", None),
        (svgplot, "line_chart", "svgplot.line_chart", None),
        (svgplot, "biplot", "svgplot.biplot", None),
        (svgplot, "write_svg", "svgplot.write_svg", _path_bytes),
    ]


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.lookups = 0  # filterbank.get_filter calls while installed
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from trendlet import filterbank

        for module, attr, name, info in _targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, info))
        get_filter = filterbank.get_filter

        def counted(*args, **kwargs):
            self.lookups += 1
            return get_filter(*args, **kwargs)

        self._saved.append((filterbank, "get_filter", get_filter))
        filterbank.get_filter = counted

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "info": info}))
                fh.write("\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots(spans) -> list[str]:
    """Name of the top-level span each span runs under."""
    out: list[str] = []
    for name, _, _, parent, _ in spans:
        out.append(name if parent < 0 else out[parent])
    return out


def layer_self_times(spans, phase: str = ROUND) -> dict[str, float]:
    """Self time per layer (span name prefix) under the top-level spans named ``phase``."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), own, root in zip(spans, self_times(spans), roots(spans)):
        if root == phase:
            out[name.split(".", 1)[0]] += own
    return dict(out)


def layer_metrics(spans, rounds: int, import_s: float, lookups: int, written_bytes: int, bank_of) -> dict:
    """Per-layer metrics: set-up figures per set-up, everything else per traced round.

    ``bank_of`` maps a wavelet name to a key that is equal for identical
    filter banks.
    """
    own = self_times(spans)
    root = roots(spans)
    total = defaultdict(float)  # (phase, name) -> seconds
    calls = defaultdict(int)
    self_total = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        key = (root[i], name)
        total[key] += end - start
        calls[key] += 1
        self_total[key] += own[i]

    def per_round(name, table=total):
        return table[(ROUND, name)] / rounds

    in_rounds = [i for i, r in enumerate(root) if r == ROUND]

    def infos(name):  # facts of the calls that returned (a call that raised has none)
        return [spans[i][4] for i in in_rounds if spans[i][0] == name and spans[i][4] is not None]

    ingest_bytes = sum(info["bytes"] for info in infos("preprocess.ingest_csv"))
    feature_rows = sum(info["rows"] for info in infos("pipeline.features_for"))
    lloyd = infos("kmeans.lloyd")
    svg_bytes = sum(info["bytes"] for info in infos("svgplot.write_svg"))
    direct_reconstruct = sum(
        spans[i][2] - spans[i][1]
        for i in in_rounds
        if spans[i][0] == "dwt.reconstruct" and spans[spans[i][3]][0] != "dwt.reconstruct_single"
    )
    ratios = []
    for i in in_rounds:
        if spans[i][0] == "pipeline.co_occurrence":
            banks = [bank_of(s[4]["wavelet"]) for s in spans if s[0] == "pipeline.features_for" and _under(spans, s, i)]
            ratios.append(len(set(banks)) / len(banks))
    iters = sum(info["n_iter"] for info in lloyd)
    ingest_s = per_round("preprocess.ingest_csv")
    features_s = per_round("pipeline.features_for")
    lloyd_s = per_round("kmeans.lloyd")
    return {
        "trendlet.import_s": import_s,
        "preprocess.ingest_s": ingest_s,
        "preprocess.ingest_mb_per_s": ingest_bytes / rounds / 1e6 / ingest_s,
        "preprocess.normalize_s": per_round("preprocess.normalize"),
        "preprocess.emit_s": total[(SETUP, "preprocess.emit_csv")],
        "pipeline.generate_s": total[(SETUP, "pipeline.generate_synthetic")],
        "pipeline.features_s": features_s,
        "pipeline.features_rows_per_s": feature_rows / rounds / features_s,
        "pipeline.features_calls": calls[(ROUND, "pipeline.features_for")] / rounds,
        "pipeline.distinct_bank_ratio": sum(ratios) / len(ratios),
        "pipeline.cooccurrence_self_s": per_round("pipeline.co_occurrence", self_total),
        "dwt.decompose_s": per_round("dwt.decompose"),
        "dwt.decompose_calls": calls[(ROUND, "dwt.decompose")] / rounds,
        "dwt.reconstruct_single_s": per_round("dwt.reconstruct_single"),
        "dwt.reconstruct_single_calls": calls[(ROUND, "dwt.reconstruct_single")] / rounds,
        "dwt.reconstruct_s": direct_reconstruct / rounds,
        "kmeans.fit_s": per_round("kmeans.kmeans_fit"),
        "kmeans.seed_s": per_round("kmeans.kmeanspp_seed"),
        "kmeans.lloyd_s": lloyd_s,
        "kmeans.lloyd_iters": iters / rounds,
        "kmeans.s_per_iter": lloyd_s * rounds / iters,
        "kmeans.restarts_at_max_iter": sum(info["n_iter"] >= info["max_iter"] for info in lloyd) / rounds,
        "pca.fit_s": per_round("pca.pca_fit"),
        "svgplot.render_s": sum(per_round(f"svgplot.{n}") for n in ("heatmap", "line_chart", "biplot")),
        "svgplot.write_s": per_round("svgplot.write_svg"),
        "svgplot.mb": svg_bytes / rounds / 1e6,
        "cli.self_s": per_round("cli.main", self_total),
        "cli.written_mb": written_bytes / rounds / 1e6,
        "filterbank.lookups": lookups / rounds,
    }


def _under(spans, span, ancestor: int) -> bool:
    parent = span[3]
    while parent >= 0:
        if parent == ancestor:
            return True
        parent = spans[parent][3]
    return False
