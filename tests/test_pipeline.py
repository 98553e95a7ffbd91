import datetime as dt
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlet import dwt, filterbank, pipeline, preprocess
from trendlet.errors import AnchorCollision, InvalidInput, ParseError, TrendletError
from trendlet.kmeans import ClusterModel, adjusted_rand_index
from conftest import traced_peak


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


# ---------------------------------------------------------------- features

def normalized_panel(n_entities, n_days, seed=0):
    values = np.random.default_rng(seed).standard_normal((n_entities, n_days))
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(n_days))
    ids = tuple(f"e{i}" for i in range(n_entities))
    return preprocess.normalize(preprocess.TimeSeriesPanel(ids, dates, values))


def convolve_pyramid(x, wf):
    """c0 || d0 || d1 from np.convolve, one row and one level at a time."""
    approx, details = x, []
    for _ in range(dwt.max_level(len(x), wf.filter_length)):
        details.append(np.convolve(approx, wf.dec_hi)[1::2])
        approx = np.convolve(approx, wf.dec_lo)[1::2]
    return np.concatenate([approx, details[-1], details[-2]])


def per_row_outcome(panel, name):
    try:
        return np.asarray([dwt.select_coarse(dwt.decompose(row, name)) for row in panel.values])
    except TrendletError as exc:
        return type(exc), str(exc)


def panel_outcome(panel, name):
    try:
        return pipeline.features_for(panel, name)
    except TrendletError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n_days", [64, 65, 127, 846])
def test_features_for_matches_per_row_path(n_days):
    panel = normalized_panel(5, n_days, seed=n_days)
    for name in filterbank.WAVELET_ORDER:
        wf = filterbank.get_filter(name)
        got = pipeline.features_for(panel, name)
        want = per_row_outcome(panel, name)
        assert got.shape == want.shape == (5, dwt.selected_length(n_days, wf.filter_length))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
        oracle = np.array([convolve_pyramid(row, wf) for row in panel.values])
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("n_days", range(2, 21))
def test_features_for_short_panel_fails_like_per_row_path(n_days):
    panel = normalized_panel(3, n_days)
    for name in filterbank.WAVELET_ORDER:
        got, want = panel_outcome(panel, name), per_row_outcome(panel, name)
        if isinstance(want, tuple):
            assert got == want, name
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def test_features_for_short_panel_examples():
    with pytest.raises(InvalidInput, match=r"^series of length 5 supports no decomposition level of a length-6 filter$"):
        pipeline.features_for(normalized_panel(3, 5), "db3")
    for n_days in range(10, 20):
        message = (rf"^series of length {n_days} supports 1 decomposition level of a length-6 filter; "
                   r"selecting \(c0, d0, d1\) needs 2$")
        with pytest.raises(InvalidInput, match=message):
            pipeline.features_for(normalized_panel(3, n_days), "db3")
    assert pipeline.features_for(normalized_panel(3, 5), "haar").shape == (3, 7)


def test_features_for_panel_without_rows():
    # a panel holds at least one entity; an array of no rows still gives no rows
    # of features (test_coarse_features_of_no_rows in test_dwt.py)
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(64))
    with pytest.raises(ParseError, match=r"^panel has no entities$"):
        preprocess.TimeSeriesPanel((), dates, np.empty((0, 64)), normalized=True)


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


# sha256 of the values, their normalize output and the emit_csv text, as a
# generator that stacked a list of rows and a whole-panel normalize made them
PINNED = [
    (pipeline.SyntheticSpec(), {
        "values": "9aa218e279d50670bb7784ebd8733ef90d147b70f08e624eb52fb00c1719b42f",
        "normalized": "e198463e1c30a05916e8bff4dd10d9a1f12df3241c39f8e3e2f377cbeeeb6f61",
        "csv": "f4951d0a8297ba7e1120a78b6d4d8b74e8c16dd5f7192d40ba74a3a72b2c4e7f",
    }),
    (pipeline.SyntheticSpec(n_increasing=667, n_stagnating=667, n_seasonal=666, seed=7), {
        "values": "1079593aea47ee6941cc181ef01c8313061403a2d4ffa420abeb502c82cc7911",
        "normalized": "2f9b359873b8aca65eff21e210072870d069b1f90a8c72a625cb6560438b6d13",
        "csv": "1bd5751e6973711435024484c4b6008f6dcbbd45d412b0056d991e723c86fd15",
    }),
]


@pytest.mark.parametrize("spec, digests", PINNED, ids=["default", "2000-entities"])
def test_synthetic_panel_its_normalization_and_csv_keep_their_bytes(spec, digests):
    panel, _ = pipeline.generate_synthetic(spec)
    text = io.StringIO(newline="")
    preprocess.emit_csv(panel, text)
    got = {
        "values": panel.values.tobytes(),
        "normalized": preprocess.normalize(panel).values.tobytes(),
        "csv": text.getvalue().encode(),
    }
    assert {what: hashlib.sha256(data).hexdigest() for what, data in got.items()} == digests


def test_generate_synthetic_holds_the_panel_once():
    spec = pipeline.SyntheticSpec(n_increasing=667, n_stagnating=667, n_seasonal=666, seed=7)
    (panel, _), peak = traced_peak(pipeline.generate_synthetic, spec)
    assert peak <= 1.25 * panel.values.nbytes + 2**21


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
        pipeline.SyntheticSpec(noise_sigma=-1.0)


@pytest.mark.parametrize("sigma, dtype", [("8", "<U1"), (None, "object")], ids=["8-'8'", "None-None"])
def test_synthetic_spec_noise_sigma_must_be_a_number(sigma, dtype):
    with pytest.raises(InvalidInput, match=rf"^noise_sigma must hold bools, integers or floats, got dtype {dtype}$"):
        pipeline.SyntheticSpec(noise_sigma=sigma)


def test_synthetic_spec_days_end_by_the_last_date():
    span = (dt.date.max - pipeline.START_DATE).days + 1
    last = pipeline.SyntheticSpec(n_days=span)  # ends on 9999-12-31
    assert pipeline.START_DATE + dt.timedelta(days=last.n_days - 1) == dt.date.max
    with pytest.raises(InvalidInput, match=rf"^n_days must be <= {span} .* got {span + 1}$"):
        pipeline.SyntheticSpec(n_days=span + 1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
        ({"seed": "7"}, r"^seed must be an integer, got '7'$"),
        ({"seed": -1}, r"^seed must be non-negative, got -1$"),
        ({"n_increasing": 2.5}, r"^n_increasing must be an integer, got 2\.5$"),
        ({"n_stagnating": 2.0}, r"^n_stagnating must be an integer, got 2\.0$"),
        ({"n_seasonal": "3"}, r"^n_seasonal must be an integer, got '3'$"),
        ({"n_days": 100.5}, r"^n_days must be an integer, got 100\.5$"),
        ({"n_days": 63}, r"^n_days must be >= 64, got 63$"),
        ({"n_stagnating": 0}, r"^n_stagnating must be >= 1, got 0$"),
    ],
)
def test_synthetic_spec_checks_its_integers(kwargs, match):
    with pytest.raises(InvalidInput, match=match):
        pipeline.SyntheticSpec(**kwargs)


def test_synthetic_spec_stores_numpy_integers_as_ints():
    fields = ("n_days", "n_increasing", "n_stagnating", "n_seasonal", "seed")
    plain = pipeline.SyntheticSpec(n_days=100, n_increasing=2, n_stagnating=3, n_seasonal=1, seed=7)
    spec = pipeline.SyntheticSpec(
        n_days=np.int64(100), n_increasing=np.int32(2), n_stagnating=np.uint8(3),
        n_seasonal=np.int16(1), seed=np.int64(7),
    )
    assert spec == plain
    assert {type(getattr(spec, name)) for name in fields} == {int}
    (a, planted_a), (b, planted_b) = pipeline.generate_synthetic(spec), pipeline.generate_synthetic(plain)
    assert a.values.tobytes() == b.values.tobytes() and a.dates == b.dates and planted_a == planted_b


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
    with pytest.raises(InvalidInput, match=r"^fewer than 3 distinct points$"):
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


def test_align_labels_needs_one_entity_id_per_label():
    with pytest.raises(InvalidInput, match=r"^2 entity ids for 3 labels$"):
        pipeline.align_labels(fake_model([0, 1, 2]), ["a", "b"], {})


def test_align_labels_partial_anchors_leave_neutral_names():
    model = fake_model([0, 1, 2])
    named = pipeline.align_labels(model, ["a", "b", "c"], {"up": "a"})
    assert named[0] == "up"
    assert set(named[1:]) == {"cluster1", "cluster2"}


def test_align_labels_refuses_an_anchor_named_like_an_unanchored_cluster():
    model = fake_model([0, 1, 2])
    with pytest.raises(InvalidInput, match=r"^anchor name 'cluster1' is reserved for an unanchored cluster at k=3$"):
        pipeline.align_labels(model, ["a", "b", "c"], {"cluster1": "a"})
    # refused before anchors are matched to clusters, so a collision cannot hide it
    with pytest.raises(InvalidInput, match="'cluster0'"):
        pipeline.align_labels(model, ["a", "b", "c"], {"up": "a", "cluster0": "a"})
    assert pipeline.align_labels(model, ["a", "b", "c"], {"cluster7": "a"}) == ["cluster7", "cluster1", "cluster2"]


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


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 6), st.integers(1, 4))
def test_signature_table_expands_to_the_pairwise_recount(data, n, w, k):
    labels = np.array(
        data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=w, max_size=w), min_size=n, max_size=n))
    )
    table, signature_of = pipeline._signatures(labels)
    recount = np.zeros((n, n), dtype=np.int64)
    for column in labels.T:
        recount += column[:, None] == column[None, :]
    distinct = {tuple(row) for row in labels.tolist()}
    assert table.dtype == np.int64 and table.shape == (len(distinct), len(distinct))
    assert signature_of.shape == (n,)
    assert np.array_equal(table[np.ix_(signature_of, signature_of)], recount)
    # one signature per distinct row, and every signature used
    assert np.array_equal(signature_of[:, None] == signature_of[None, :], recount == w)
    assert set(signature_of.tolist()) == set(range(len(distinct)))


def test_co_occurrence_stores_one_row_per_signature(default_panel):
    panel = default_panel[0]
    matrix, runs = pipeline.co_occurrence(panel, pipeline.TrendRunConfig(seed=42))
    labels = np.stack([run.model.labels for run in runs], axis=1)
    s = len({tuple(row) for row in labels.tolist()})
    assert s < 10
    assert matrix.table.shape == (s, s) and matrix.signature_of.shape == (panel.n_entities,)
    for array in (matrix.table, matrix.signature_of):
        assert not array.flags.writeable
    # pair_counts is expanded on each access, to a new int64 array
    first = matrix.pair_counts
    assert first.dtype == np.int64 and first.shape == (panel.n_entities,) * 2
    assert first is not matrix.pair_counts
    first[:] = 0
    assert np.all(np.diag(matrix.pair_counts) == 15)
    with pytest.raises(AttributeError):
        matrix.pair_counts = first


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
    for run in runs:
        assert run.anchor_collision
        assert run.named_labels == tuple(pipeline.align_labels(run.model, panel.entity_ids, {}))
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
        assert not run.anchor_collision
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
    assert pipeline.TrendRunConfig(anchors=None).anchors == {}
    anchors = {"a": "e1"}
    stored = pipeline.TrendRunConfig(anchors=anchors).anchors
    assert stored == anchors and stored is not anchors
    with pytest.raises(InvalidInput):
        pipeline.TrendRunConfig(k=1)
    with pytest.raises(InvalidInput):
        pipeline.TrendRunConfig(anchors={"a": "e1", "b": "e1"})
    from trendlet.errors import UnknownWavelet

    with pytest.raises(UnknownWavelet):
        pipeline.TrendRunConfig(wavelet_names=("nope",))


def test_config_refuses_an_anchor_named_like_an_unanchored_cluster():
    with pytest.raises(InvalidInput, match=r"^anchor name 'cluster1' is reserved for an unanchored cluster at k=3$"):
        pipeline.TrendRunConfig(anchors={"cluster1": "e1"})
    assert pipeline.TrendRunConfig(anchors={"cluster7": "e1"}).anchors == {"cluster7": "e1"}
    with pytest.raises(InvalidInput, match=r"'cluster7' .* at k=8$"):
        pipeline.TrendRunConfig(k=8, anchors={"cluster7": "e1"})


def test_reserved_names_are_checked_without_building_them():
    k = 10**18
    config, peak = traced_peak(lambda: pipeline.TrendRunConfig(k=k, anchors={"up": "e1"}))
    assert config.k == k and peak < 100_000
    with pytest.raises(InvalidInput, match=r"^anchor name 'cluster999999999999' is reserved .* at k=10{18}$"):
        pipeline.TrendRunConfig(k=k, anchors={"cluster999999999999": "e1"})
    with pytest.raises(InvalidInput, match=r"'cluster9{18}'"):
        pipeline.TrendRunConfig(k=k, anchors={f"cluster{k - 1}": "e1"})
    # not the name of a cluster below k: i = k, a leading zero, non-ASCII digits, thousands of digits
    for name in (f"cluster{k}", "cluster01", "cluster\u0661", "cluster\uff11", "cluster" + "7" * 5000, "cluster"):
        assert pipeline.TrendRunConfig(k=k, anchors={name: "e1"}).anchors == {name: "e1"}


def test_config_rejects_negative_seed():
    with pytest.raises(InvalidInput, match="seed"):
        pipeline.TrendRunConfig(seed=-1)


def test_config_stores_registry_names_once():
    cfg = pipeline.TrendRunConfig(wavelet_names=("HAAR", "Sym2", "db1"))
    assert cfg.wavelet_names == ("haar", "sym2", "db1")  # db1 equals haar but is its own entry
    with pytest.raises(InvalidInput, match="'sym2' listed more than once"):
        pipeline.TrendRunConfig(wavelet_names=("sym2", "haar", "SYM2"))


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"k": "3"}, r"^k must be an integer, got '3'$"),
        ({"k": 2.5}, r"^k must be an integer, got 2\.5$"),
        ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
        ({"n_restarts": 2.5}, r"^n_restarts must be an integer, got 2\.5$"),
        ({"n_restarts": 0}, r"^n_restarts must be >= 1, got 0$"),
        ({"k": 1}, r"^k must be >= 2, got 1$"),
        ({"seed": -1}, r"^seed must be non-negative, got -1$"),
    ],
)
def test_config_checks_its_integers_up_front(kwargs, match):
    with pytest.raises(InvalidInput, match=match):
        pipeline.TrendRunConfig(**kwargs)


def test_config_stores_numpy_integers_as_ints():
    cfg = pipeline.TrendRunConfig(k=np.int64(4), seed=np.uint32(7), n_restarts=np.int16(2))
    assert (cfg.k, cfg.seed, cfg.n_restarts) == (4, 7, 2)
    assert {type(cfg.k), type(cfg.seed), type(cfg.n_restarts)} == {int}


def test_wavelet_seed_rejects_a_float_seed():
    with pytest.raises(InvalidInput, match=r"^seed must be an integer, got 1\.5$"):
        pipeline.wavelet_seed(1.5, "db3")
    with pytest.raises(InvalidInput, match=r"^seed must be non-negative, got -1$"):
        pipeline.wavelet_seed(-1, "haar")
    assert pipeline.wavelet_seed(np.int64(1), "db3") == pipeline.wavelet_seed(1, "db3")
