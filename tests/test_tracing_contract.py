"""What the benchmark's tracer relies on: the module attributes it wraps exist,
and callers reach them through the module, so a wrapper sees every call."""

import runpy
from pathlib import Path

import pytest

from trendlet import cli, kmeans, pipeline, preprocess, svgplot

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def counted(monkeypatch, module, attr):
    """Replace ``module.attr`` by a wrapper; returns the list of results it saw."""
    results = []
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(module, attr, wrapper)
    return results


def test_every_traced_attribute_exists_and_is_callable():
    # run_path compiles the source without writing bytecode next to it
    targets = runpy.run_path(str(TRACING))["_targets"]()
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("restarts", [1, 4])
def test_kmeans_fit_reaches_seeding_and_lloyd_once_per_restart(monkeypatch, rng, restarts):
    seeds = counted(monkeypatch, kmeans, "kmeanspp_seed")
    lloyds = counted(monkeypatch, kmeans, "lloyd")
    points = rng.standard_normal((30, 3))
    model = kmeans.kmeans_fit(points, 3, seed=1, n_restarts=restarts)
    assert len(seeds) == len(lloyds) == restarts
    # the tracer reads n_iter at index 3 of lloyd's result
    assert model.n_iter in [result[3] for result in lloyds]
    # each restart runs lloyd from the centroids its seeding returned
    assert [result[3] for result in lloyds] == [len(kmeans.inertia_history(points, init)) for init in seeds]


def test_run_single_reaches_features_and_fit(monkeypatch, small_normalized):
    features = counted(monkeypatch, pipeline, "features_for")
    fits = counted(monkeypatch, pipeline, "kmeans_fit")
    panel, _ = small_normalized
    model, coarse = pipeline.run_single(panel, "db3", pipeline.TrendRunConfig())
    assert len(features) == len(fits) == 1
    assert fits[0] is model and features[0] is coarse


def test_co_occurrence_reaches_run_single_once_per_wavelet(monkeypatch, small_normalized):
    # the benchmark's distinct_bank_ratio and cooccurrence_self_s read these calls
    singles = counted(monkeypatch, pipeline, "run_single")
    panel, _ = small_normalized
    config = pipeline.TrendRunConfig(wavelet_names=("haar", "db1", "sym3", "db3"))
    _, runs = pipeline.co_occurrence(panel, config)
    assert len(singles) == len(config.wavelet_names) == len(runs)
    assert [model for model, _ in singles] == [run.model for run in runs]


def test_stability_reaches_co_occurrence_and_heatmap_once(monkeypatch, tmp_path, small_panel):
    # the benchmark's pipeline.cooccurrence_self_s and svgplot.render_s read these calls
    preprocess.emit_csv(small_panel[0], tmp_path / "panel.csv")
    matrices = counted(monkeypatch, pipeline, "co_occurrence")
    heatmaps = counted(monkeypatch, svgplot, "heatmap")
    argv = ["stability", "--input", str(tmp_path / "panel.csv"), "--wavelets", "haar,db3",
            "--plot-format", "svg", "--outdir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(matrices) == len(heatmaps) == 1
    assert (tmp_path / "out" / "cooccurrence.svg").read_text(encoding="utf-8") == heatmaps[0]
