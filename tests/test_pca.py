import math

import numpy as np
import pytest

from trendlet import dwt
from trendlet.errors import InvalidInput
from trendlet.pca import biplot_data, pca_fit


def test_collinear_points_rank_one():
    data = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    model = pca_fit(data, 2)
    np.testing.assert_allclose(model.explained_variance_ratio, [1.0, 0.0], atol=1e-10)
    direction = np.array([1.0, 2.0]) / math.sqrt(5.0)
    np.testing.assert_allclose(model.components[0], direction, atol=1e-10)


def test_axis_aligned_variances():
    s6, s15 = math.sqrt(6.0), math.sqrt(1.5)
    data = np.array([[s6, 0.0], [-s6, 0.0], [0.0, s15], [0.0, -s15]])
    model = pca_fit(data, 2)
    np.testing.assert_allclose(model.explained_variance, [4.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(np.abs(model.components), np.eye(2), atol=1e-10)
    # sign convention: dominant entry positive
    assert model.components[0, 0] > 0 and model.components[1, 1] > 0


def test_full_rank_completeness(rng):
    data = rng.standard_normal((12, 5))
    model = pca_fit(data, 5)
    assert abs(model.explained_variance_ratio.sum() - 1.0) <= 1e-10
    rebuilt = model.mean + model.scores @ model.components
    np.testing.assert_allclose(rebuilt, data, atol=1e-8)


def test_orthonormality_and_ordering(rng):
    data = rng.standard_normal((30, 8)) * rng.uniform(0.5, 3.0, size=8)
    model = pca_fit(data, 6)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
    ev = model.explained_variance
    assert np.all(ev[:-1] >= ev[1:] - 1e-12)
    assert np.all((model.explained_variance_ratio >= -1e-12)
                  & (model.explained_variance_ratio <= 1 + 1e-12))


def test_scores_match_projection(rng):
    data = rng.standard_normal((20, 6))
    model = pca_fit(data, 3)
    np.testing.assert_allclose(model.scores, (data - model.mean) @ model.components.T, atol=1e-10)


def test_rotation_equivariance(rng):
    data = rng.standard_normal((40, 2)) @ np.diag([3.0, 1.0])
    theta = math.radians(35.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    base = pca_fit(data, 2)
    rotated = pca_fit(data @ rot.T, 2)
    for col in range(2):
        delta = min(
            np.abs(rotated.scores[:, col] - base.scores[:, col]).max(),
            np.abs(rotated.scores[:, col] + base.scores[:, col]).max(),
        )
        assert delta <= 1e-8
    np.testing.assert_allclose(rotated.explained_variance, base.explained_variance, atol=1e-8)


def test_pca_fit_validation(rng):
    data = rng.standard_normal((5, 3))
    with pytest.raises(InvalidInput):
        pca_fit(data, 0)
    with pytest.raises(InvalidInput):
        pca_fit(data, 4)
    with pytest.raises(InvalidInput):
        pca_fit(data[:1], 1)
    bad = data.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInput):
        pca_fit(bad, 2)


@pytest.mark.parametrize("r, shown", [(2.7, r"2\.7"), ("3", "'3'")])
def test_pca_fit_takes_an_integer_r(rng, r, shown):
    data = rng.standard_normal((5, 3))
    with pytest.raises(InvalidInput, match=rf"^r must be an integer, got {shown}$"):
        pca_fit(data, r)
    assert pca_fit(data, np.int64(2)).n_components == 2


def test_biplot_names_sym2(rng):
    features = rng.standard_normal((10, 21))
    model = pca_fit(features, 2)
    names = dwt.coefficient_names(846, 4)
    ids = [f"shop{i:02d}" for i in range(10)]
    scores, loadings = biplot_data(model, names, ["g"] * 10, ids)
    assert len(loadings) == 21
    assert [name for name, _, _ in loadings] == names
    assert [entity for entity, *_ in scores] == ids


def test_biplot_requires_two_components(rng):
    model = pca_fit(rng.standard_normal((8, 4)), 1)
    with pytest.raises(InvalidInput, match=r"^have 1 component\(s\), need 2$"):
        biplot_data(model, ["a", "b", "c", "d"], ["x"] * 8, list("pqrstuvw"))


def test_biplot_length_mismatches(rng):
    model = pca_fit(rng.standard_normal((8, 4)), 2)
    ids = list("pqrstuvw")
    with pytest.raises(InvalidInput, match="^2 feature names for 4 features$"):
        biplot_data(model, ["a", "b"], ["x"] * 8, ids)
    with pytest.raises(InvalidInput, match="^3 labels for 8 observations$"):
        biplot_data(model, ["a", "b", "c", "d"], ["x"] * 3, ids)
    with pytest.raises(InvalidInput, match="^7 entity ids for 8 observations$"):
        biplot_data(model, ["a", "b", "c", "d"], ["x"] * 8, ids[:7])


def test_zero_variance_feature_has_zero_arrow(rng):
    data = rng.standard_normal((15, 3))
    data[:, 1] = 7.0  # constant column
    model = pca_fit(data, 2)
    _, loadings = biplot_data(model, ["f0", "f1", "f2"], ["g"] * 15, [str(i) for i in range(15)])
    assert abs(loadings[1][1]) <= 1e-12 and abs(loadings[1][2]) <= 1e-12
