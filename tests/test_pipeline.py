import datetime as dt
import io

import numpy as np
import pytest

from trendlet import filterbank, pipeline, preprocess
from trendlet.errors import AnchorCollision, Degenerate, InvalidInput
from trendlet.kmeans import ClusterModel, adjusted_rand_index


def planted_indices(planted):
    return [pipeline.ARCHETYPES.index(p) for p in planted]


def fake_model(labels, k=3):
    labels = np.asarray(labels)
    return ClusterModel(
        k=k,
        centroids=np.zeros((k, 2)),
        labels=labels,
        inertia=0.0,
        seed=0,
        n_iter=1,
        n_restarts=1,
    )


# ---------------------------------------------------------------- synthetic

def test_generate_synthetic_deterministic(small_spec):
    a, planted_a = pipeline.generate_synthetic(small_spec)
    b, planted_b = pipeline.generate_synthetic(small_spec)
    assert planted_a == planted_b
    assert a.entity_ids == b.entity_ids
    assert a.dates == b.dates
    np.testing.assert_array_equal(a.values, b.values)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    preprocess.emit_csv(a, buf_a)
    preprocess.emit_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_generate_synthetic_shapes_and_labels(small_spec):
    panel, planted = pipeline.generate_synthetic(small_spec)
    assert panel.values.shape == (9, 384)
    assert planted == ["increasing"] * 3 + ["stagnating"] * 3 + ["seasonal"] * 3
    assert panel.dates[0] == dt.date(2017, 1, 1)


def test_noiseless_increasing_has_increasing_weekly_average():
    spec = pipeline.SyntheticSpec(
        n_days=128, n_increasing=2, n_stagnating=1, n_seasonal=1, noise_sigma=0.0, seed=11
    )
    panel, planted = pipeline.generate_synthetic(spec)
    for row, label in zip(panel.values, planted):
        if label != "increasing":
            continue
        moving = np.convolve(row, np.ones(7) / 7.0, mode="valid")
        assert np.all(np.diff(moving) > 0)


def test_synthetic_spec_validation():
    with pytest.raises(InvalidInput):
        pipeline.SyntheticSpec(n_days=10)
    with pytest.raises(InvalidInput):
        pipeline.SyntheticSpec(n_increasing=0)
    with pytest.raises(InvalidInput):
        pipeline.SyntheticSpec(slope_range=(-1.0, 5.0))
    with pytest.raises(InvalidInput):
        pipeline.SyntheticSpec(stagnating_slope_range=(0.0, 5.0))
    with pytest.raises(InvalidInput):
        pipeline.SyntheticSpec(noise_sigma=-1.0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_synthetic_spec_rejects_non_finite_noise(sigma):
    with pytest.raises(InvalidInput, match="noise_sigma"):
        pipeline.SyntheticSpec(noise_sigma=sigma)


# ---------------------------------------------------------------- run_single

def test_run_single_recovers_planted_clusters(small_normalized):
    panel, planted = small_normalized
    model, features = pipeline.run_single(panel, "sym2", pipeline.TrendRunConfig(seed=42))
    assert adjusted_rand_index(model.labels, planted_indices(planted)) >= 0.9
    assert features.shape == (panel.n_entities, 18)  # selected length for n=384, M=4


def test_run_single_feature_dimensionality_reduction(default_panel):
    panel, planted, _ = default_panel
    model, features = pipeline.run_single(panel, "sym2", pipeline.TrendRunConfig(seed=42))
    assert features.shape[1] == 21
    assert features.shape[1] * 20 <= panel.n_days  # at least 95% smaller
    assert adjusted_rand_index(model.labels, planted_indices(planted)) >= 0.9


def test_run_single_requires_normalized(small_panel):
    panel, _ = small_panel
    with pytest.raises(InvalidInput):
        pipeline.run_single(panel, "sym2", pipeline.TrendRunConfig())


def test_run_single_identical_rows_degenerate(small_normalized):
    panel, _ = small_normalized
    same = preprocess.TimeSeriesPanel(
        entity_ids=("a", "b", "c", "d"),
        dates=panel.dates,
        values=np.tile(panel.values[0], (4, 1)),
        normalized=True,
    )
    with pytest.raises(Degenerate):
        pipeline.run_single(same, "sym2", pipeline.TrendRunConfig(seed=1))


def test_run_single_deterministic(small_normalized):
    panel, _ = small_normalized
    cfg = pipeline.TrendRunConfig(seed=7)
    a, _ = pipeline.run_single(panel, "db3", cfg)
    b, _ = pipeline.run_single(panel, "db3", cfg)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_wavelet_seed_independent_of_selection():
    # the sub-seed depends only on (seed, registry index), not on which
    # other wavelets run alongside
    assert pipeline.wavelet_seed(42, "sym2") == pipeline.wavelet_seed(42, "SYM2")
    seeds = {pipeline.wavelet_seed(42, name) for name in filterbank.WAVELET_ORDER}
    assert len(seeds) == 15


# ---------------------------------------------------------------- align_labels

def test_align_labels_bijective():
    model = fake_model([0, 0, 1, 2, 1])
    ids = ["e0", "e1", "e2", "e3", "e4"]
    named = pipeline.align_labels(model, ids, {"up": "e0", "flat": "e2", "odd": "e3"})
    assert named == ["up", "up", "flat", "odd", "flat"]


def test_align_labels_collision_names_entities():
    model = fake_model([0, 0, 1, 2])
    ids = ["e0", "e1", "e2", "e3"]
    with pytest.raises(AnchorCollision, match="e0.*e1|e1.*e0"):
        pipeline.align_labels(model, ids, {"up": "e0", "flat": "e1"})


def test_align_labels_invariant_to_cluster_renumbering():
    ids = ["e0", "e1", "e2", "e3", "e4"]
    anchors = {"up": "e0", "flat": "e2", "odd": "e3"}
    base = pipeline.align_labels(fake_model([0, 0, 1, 2, 1]), ids, anchors)
    renumbered = pipeline.align_labels(fake_model([2, 2, 0, 1, 0]), ids, anchors)
    assert base == renumbered


def test_align_labels_unknown_anchor_entity():
    model = fake_model([0, 1, 2])
    with pytest.raises(InvalidInput):
        pipeline.align_labels(model, ["a", "b", "c"], {"up": "zz"})


def test_align_labels_partial_anchors_leave_neutral_names():
    model = fake_model([0, 1, 2])
    named = pipeline.align_labels(model, ["a", "b", "c"], {"up": "a"})
    assert named[0] == "up"
    assert set(named[1:]) == {"cluster1", "cluster2"}


# ---------------------------------------------------------------- co_occurrence

def test_co_occurrence_identical_filters_binary(small_normalized):
    panel, _ = small_normalized
    cfg = pipeline.TrendRunConfig(wavelet_names=("haar", "db1"), seed=42)
    matrix, runs = pipeline.co_occurrence(panel, cfg)
    assert matrix.n_wavelets == 2
    assert set(np.unique(matrix.values)) <= {0.0, 1.0}
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.all(np.diag(matrix.values) == 1.0)


def test_co_occurrence_counts_are_exact_fractions(small_normalized):
    panel, _ = small_normalized
    names = ("haar", "sym2", "db3", "bior3.1", "rbio2.2")
    matrix, runs = pipeline.co_occurrence(panel, pipeline.TrendRunConfig(wavelet_names=names, seed=3))
    assert matrix.pair_counts.dtype.kind == "i"
    np.testing.assert_array_equal(matrix.values, matrix.pair_counts / 5)
    # independent recount from the per-run labels
    recount = np.zeros_like(matrix.pair_counts)
    for run in runs:
        recount += run.model.labels[:, None] == run.model.labels[None, :]
    np.testing.assert_array_equal(matrix.pair_counts, recount)


def test_co_occurrence_requires_two_wavelets(small_normalized):
    panel, _ = small_normalized
    with pytest.raises(InvalidInput):
        pipeline.co_occurrence(panel, pipeline.TrendRunConfig(wavelet_names=("haar",)))


def test_co_occurrence_collision_marks_unnamed(small_normalized):
    panel, planted = small_normalized
    # both anchors in the same planted cluster: every wavelet collides
    first_two_increasing = [e for e, p in zip(panel.entity_ids, planted) if p == "increasing"][:2]
    cfg = pipeline.TrendRunConfig(
        wavelet_names=("haar", "sym2"),
        anchors={"a": first_two_increasing[0], "b": first_two_increasing[1]},
        seed=42,
    )
    matrix, runs = pipeline.co_occurrence(panel, cfg)
    assert all(run.anchor_collision and run.named_labels is None for run in runs)
    assert np.all(np.diag(matrix.values) == 1.0)  # counted regardless


def test_co_occurrence_named_labels_present(small_normalized):
    panel, planted = small_normalized
    anchors = {
        "increasing": panel.entity_ids[planted.index("increasing")],
        "stagnating": panel.entity_ids[planted.index("stagnating")],
        "special": panel.entity_ids[planted.index("seasonal")],
    }
    cfg = pipeline.TrendRunConfig(wavelet_names=("haar", "sym2", "db3"), anchors=anchors, seed=42)
    _, runs = pipeline.co_occurrence(panel, cfg)
    for run in runs:
        assert run.named_labels is not None
        assert set(run.named_labels) == {"increasing", "stagnating", "special"}


# ---------------------------------------------------------------- invariance

def test_pipeline_labels_invariant_to_row_affine_rescale(small_panel):
    panel, _ = small_panel
    rng = np.random.default_rng(99)
    scale = rng.uniform(0.5, 20.0, size=(panel.n_entities, 1))
    shift = rng.uniform(-100.0, 100.0, size=(panel.n_entities, 1))
    rescaled = preprocess.TimeSeriesPanel(
        entity_ids=panel.entity_ids,
        dates=panel.dates,
        values=panel.values * scale + shift,
    )
    cfg = pipeline.TrendRunConfig(seed=42)
    base, _ = pipeline.run_single(preprocess.normalize(panel), "sym2", cfg)
    moved, _ = pipeline.run_single(preprocess.normalize(rescaled), "sym2", cfg)
    np.testing.assert_array_equal(base.labels, moved.labels)


def test_config_validation():
    with pytest.raises(InvalidInput):
        pipeline.TrendRunConfig(k=1)
    with pytest.raises(InvalidInput):
        pipeline.TrendRunConfig(anchors={"a": "e1", "b": "e1"})
    from trendlet.errors import UnknownWavelet

    with pytest.raises(UnknownWavelet):
        pipeline.TrendRunConfig(wavelet_names=("nope",))


def test_config_rejects_negative_seed():
    with pytest.raises(InvalidInput, match="seed"):
        pipeline.TrendRunConfig(seed=-1)
