import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlet import kmeans, pipeline, preprocess
from trendlet.errors import InvalidInput
from trendlet.kmeans import (
    adjusted_rand_index,
    inertia_history,
    kmeans_fit,
    kmeanspp_seed,
    lloyd,
)

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def exhaustive_best_inertia(points, k):
    """Optimal k-means objective by enumerating every assignment."""
    points = np.asarray(points, dtype=float)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=len(points)):
        if len(set(assignment)) < k:
            continue
        total = 0.0
        for c in range(k):
            members = points[[i for i, a in enumerate(assignment) if a == c]]
            total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def pair_counting_ari(a, b):
    """ARI from brute-force enumeration of all point pairs."""
    n11 = n00 = n10 = n01 = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            n11 += 1
        elif same_a:
            n10 += 1
        elif same_b:
            n01 += 1
        else:
            n00 += 1
    numer = 2.0 * (n11 * n00 - n10 * n01)
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    return numer / denom if denom else 1.0


# ---------------------------------------------------------------- kmeans_fit

def test_four_point_example_matches_exhaustive_optimum():
    model = kmeans_fit(FOUR_POINTS, 2, seed=0)
    assert model.inertia == exhaustive_best_inertia(FOUR_POINTS, 2) == 1.0
    centroids = sorted(map(tuple, model.centroids))
    assert centroids == [(0.0, 0.5), (10.0, 0.5)]


def test_k_equals_n_zero_inertia(rng):
    points = rng.standard_normal((6, 3))
    model = kmeans_fit(points, 6, seed=1)
    assert model.inertia == 0.0
    assert sorted(map(tuple, model.centroids)) == sorted(map(tuple, points))


def test_recovers_three_planted_blobs(rng):
    centers = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
    truth = np.repeat([0, 1, 2], 20)
    points = centers[truth] + rng.normal(0, 0.7, size=(60, 3))
    model = kmeans_fit(points, 3, seed=5)
    assert adjusted_rand_index(model.labels, truth) >= 0.9


def test_fit_validation():
    with pytest.raises(InvalidInput):
        kmeans_fit(FOUR_POINTS, 1, seed=0)
    with pytest.raises(InvalidInput):
        kmeans_fit(FOUR_POINTS, 5, seed=0)
    with pytest.raises(InvalidInput):
        kmeans_fit(np.array([[np.inf, 0.0], [0.0, 1.0]]), 2, seed=0)
    with pytest.raises(InvalidInput):
        kmeans_fit(FOUR_POINTS, 2, seed=-3)
    with pytest.raises(InvalidInput, match=r"^fewer than 2 distinct points$"):
        kmeans_fit(np.zeros((5, 2)), 2, seed=0)
    with pytest.raises(InvalidInput, match=r"^points must be a non-empty 2-D matrix, got shape \(0, 2\)$"):
        kmeans_fit(np.empty((0, 2)), 2)


def test_fit_deterministic():
    a = kmeans_fit(FOUR_POINTS, 2, seed=9, n_restarts=4)
    b = kmeans_fit(FOUR_POINTS, 2, seed=9, n_restarts=4)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_model_invariants(rng):
    points = rng.standard_normal((40, 4))
    model = kmeans_fit(points, 5, seed=11)
    # labels point to the nearest centroid
    distances = ((points[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    own = distances[np.arange(40), model.labels]
    assert np.all(own <= distances.min(axis=1) + 1e-9)
    # each centroid is the mean of its members, no cluster empty
    for c in range(model.k):
        members = points[model.labels == c]
        assert len(members) > 0
        np.testing.assert_allclose(model.centroids[c], members.mean(axis=0), atol=1e-9)
    # stored inertia matches a recomputation from labels
    recomputed = ((points - model.centroids[model.labels]) ** 2).sum()
    assert abs(model.inertia - recomputed) <= 1e-9


def test_inertia_history_non_increasing(rng):
    for _ in range(50):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 5))
        k = int(rng.integers(2, min(n, 6)))
        points = rng.standard_normal((n, p))
        init = kmeanspp_seed(points, k, rng)
        _, _, inertia, _ = lloyd(points, init)
        history = inertia_history(points, init)
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier * (1 + 1e-12) + 1e-12
        # final inertia no worse than the seeding assignment
        seed_labels = ((points[:, None, :] - init[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        seed_inertia = ((points - init[seed_labels]) ** 2).sum()
        assert inertia <= seed_inertia + 1e-9


def test_lloyd_permutation_equivariance(rng):
    points = rng.standard_normal((30, 3))
    init = kmeanspp_seed(points, 4, np.random.default_rng(2))
    perm = rng.permutation(30)
    _, labels, inertia, _ = lloyd(points, init)
    _, labels_perm, inertia_perm, _ = lloyd(points[perm], init)
    np.testing.assert_array_equal(labels_perm, labels[perm])
    assert abs(inertia - inertia_perm) <= 1e-9


def test_fit_row_permutation_same_partition(rng):
    centers = np.array([[0.0, 0.0], [9.0, 0.0], [0.0, 9.0]])
    truth = np.repeat([0, 1, 2], 15)
    points = centers[truth] + rng.normal(0, 0.5, size=(45, 2))
    perm = rng.permutation(45)
    a = kmeans_fit(points, 3, seed=4)
    b = kmeans_fit(points[perm], 3, seed=4)
    assert abs(a.inertia - b.inertia) <= 1e-9
    assert adjusted_rand_index(a.labels[perm], b.labels) == 1.0


def test_empty_cluster_relocation():
    points = np.array([[0.0], [0.1], [0.2], [10.0]])
    # both initial centroids far away: one cluster starts empty
    centroids, labels, inertia, _ = lloyd(points, np.array([[100.0], [200.0]]))
    assert set(labels.tolist()) == {0, 1}
    for c in range(2):
        members = points[labels == c]
        np.testing.assert_allclose(centroids[c], members.mean(axis=0), atol=1e-12)
    assert inertia <= 0.02 + 1e-9  # the {0, .1, .2} vs {10} split


def test_empty_cluster_relocation_never_steals_a_singleton():
    # the farthest point is a singleton cluster's only member; taking it
    # would empty that cluster and poison the means with NaN
    points = np.array([[0.0, 100.0], [0.0, 0.0], [1.0, 0.0]])
    init = np.array([[0.0, 200.0], [0.5, -50.0], [900.0, 0.0]])
    centroids, labels, _, _ = lloyd(points, init)
    assert np.all(np.isfinite(centroids))
    assert set(labels.tolist()) == {0, 1, 2}
    for c in range(3):
        members = points[labels == c]
        assert len(members) == 1
        np.testing.assert_allclose(centroids[c], members.mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------- seeding

def test_seeding_d_squared_frequencies():
    # one point at distance 1 and one at distance 3 from the first centroid:
    # conditional selection probabilities 1/10 and 9/10
    points = np.array([[0.0], [1.0], [3.0]])
    rng = np.random.default_rng(123)
    picks = {1.0: 0, 3.0: 0}
    conditioned = 0
    for _ in range(20_000):
        centroids = kmeanspp_seed(points, 2, rng)
        if centroids[0, 0] == 0.0:
            conditioned += 1
            picks[centroids[1, 0]] += 1
    assert conditioned > 5000
    assert abs(picks[3.0] / conditioned - 0.9) <= 0.02
    assert abs(picks[1.0] / conditioned - 0.1) <= 0.02


def test_seeding_uniform_when_equidistant():
    # equilateral triangle: after any first pick the rest are equidistant
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    rng = np.random.default_rng(7)
    counts = np.zeros(3)
    trials = 30_000
    for _ in range(trials):
        centroids = kmeanspp_seed(points, 2, rng)
        second = centroids[1]
        counts[np.argmin(((points - second) ** 2).sum(axis=1))] += 1
    np.testing.assert_allclose(counts / trials, [1 / 3] * 3, atol=0.02)


def test_seeding_k_equals_n_every_point_once(rng):
    points = rng.standard_normal((7, 2))
    centroids = kmeanspp_seed(points, 7, rng)
    assert sorted(map(tuple, centroids)) == sorted(map(tuple, points))


def test_seeding_degenerate():
    points = np.array([[1.0, 1.0]] * 4)
    with pytest.raises(InvalidInput, match=r"^fewer than 2 distinct points$"):
        kmeanspp_seed(points, 2, np.random.default_rng(0))


def test_seeding_k_outside_one_to_n():
    with pytest.raises(InvalidInput, match=r"^k=0 outside 1\.\.4$"):
        kmeanspp_seed(FOUR_POINTS, 0, np.random.default_rng(0))
    with pytest.raises(InvalidInput, match=r"^k=5 outside 1\.\.4$"):
        kmeanspp_seed(FOUR_POINTS, 5, np.random.default_rng(0))


def test_seeding_returns_distinct_data_points(rng):
    points = rng.integers(0, 3, size=(20, 2)).astype(float)  # many duplicates
    distinct = np.unique(points, axis=0)
    k = len(distinct)
    centroids = kmeanspp_seed(points, k, rng)
    assert len(np.unique(centroids, axis=0)) == k


# ---------------------------------------------------------------- ARI

def test_ari_identical_and_permuted():
    labels = [0, 0, 1, 1, 2, 2]
    assert adjusted_rand_index(labels, labels) == 1.0
    renamed = [2, 2, 0, 0, 1, 1]
    assert adjusted_rand_index(labels, renamed) == 1.0
    # both labelings one block: the chance correction is 0 / 0, taken as full agreement
    assert adjusted_rand_index([0, 0, 0], ["a", "a", "a"]) == 1.0


def test_ari_hand_example():
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
    assert pair_counting_ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_matches_pair_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(3, 12))
        a = rng.integers(0, 3, n).tolist()
        b = rng.integers(0, 3, n).tolist()
        assert adjusted_rand_index(a, b) == pytest.approx(pair_counting_ari(a, b), abs=1e-12)


def test_ari_length_mismatch():
    with pytest.raises(InvalidInput):
        adjusted_rand_index([0, 1], [0, 1, 2])
    with pytest.raises(InvalidInput, match=r"^empty labelings$"):
        adjusted_rand_index([], [])
    with pytest.raises(InvalidInput, match="^a labeling is not an array: "):
        adjusted_rand_index([[0, 1], [2]], [0, 1, 2])
    with pytest.raises(InvalidInput, match=r"^labelings must be 1-D, got shapes \(2, 3\) and \(6,\)$"):
        adjusted_rand_index([[0, 0, 1], [1, 2, 2]], [0, 0, 1, 1, 2, 2])


# ---------------------------------------------------------------- assignment

def broadcast_nearest(pts, centroids):
    """The exact assignment: argmin over broadcast squared differences."""
    d = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


def reference_update(pts, labels, centroids):
    """Every centroid as the mean of its members, after the relocation rule."""
    k = len(centroids)
    counts = np.bincount(labels, minlength=k)
    labels = labels.copy()
    dist = ((pts - centroids[labels]) ** 2).sum(axis=1)
    for c in np.flatnonzero(counts == 0):
        # the farthest point whose cluster keeps a member moves to the empty one
        far = int(np.where(counts[labels] > 1, dist, -1.0).argmax())
        counts[labels[far]] -= 1
        labels[far] = c
        counts[c] += 1
    return np.array([pts[labels == c].mean(axis=0) for c in range(k)])


def reference_lloyd(points, init):
    """Lloyd's loop from the plain formulas: broadcast argmin, masked means, summed squares."""
    pts = np.asarray(points, dtype=float)
    centroids = np.array(init, dtype=float)
    labels = broadcast_nearest(pts, centroids)
    history = []
    for n_iter in range(1, kmeans.MAX_ITER + 1):
        new_centroids = reference_update(pts, labels, centroids)
        new_labels = broadcast_nearest(pts, new_centroids)
        displacement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        history.append(float(((pts - centroids[new_labels]) ** 2).sum()))
        converged = np.array_equal(new_labels, labels) and displacement <= kmeans.TOL
        labels = new_labels
        if converged:
            break
    return centroids, labels, history[-1], n_iter, history


def assert_lloyd_matches_reference(points, init):
    before = np.array(init).tobytes()
    got = lloyd(points, init)
    assert np.asarray(init).tobytes() == before  # lloyd never writes into the caller's centroids
    want = reference_lloyd(points, init)
    np.testing.assert_array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[2:] == want[2:4]
    assert np.array(inertia_history(points, init)).tobytes() == np.array(want[4]).tobytes()


def assert_assign_exact(pts, centroids):
    pts = np.asarray(pts, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    got = kmeans._assign(pts, centroids, np.einsum("ij,ij->i", pts, pts))[0]
    want = broadcast_nearest(pts, centroids)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(1, 7),
    st.sampled_from([1e-150, 1e-3, 1.0, 1e6, 1e100]),
    st.sampled_from([0.0, 1.0, -1e8, 1e8]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_assign_is_broadcast_argmin(n, p, k, scale, offset, grid, seed):
    rng = np.random.default_rng(seed)
    if grid:  # few distinct values: exact ties, duplicate points and centroids
        pts = rng.integers(-2, 3, size=(n, p)).astype(float)
        centroids = rng.integers(-2, 3, size=(k, p)).astype(float)
    else:
        pts = rng.standard_normal((n, p))
        centroids = np.concatenate([pts[rng.integers(n, size=k // 2)], rng.standard_normal((k - k // 2, p))])
    assert_assign_exact(offset + scale * pts, offset + scale * centroids)


@pytest.mark.parametrize(
    "pts, centroids",
    [
        # exact ties: the point sits midway between two or more centroids
        ([[0.0, 0.0], [0.5, 0.5], [3.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        ([[0.1, 0.2], [7.0, 7.0]], [[5.0, 5.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]),  # duplicates
        ([[1.0, 2.0], [-3.0, 4.0]], [[9.0, 9.0]]),  # a single centroid
        (1e8 + np.arange(12.0).reshape(6, 2) / 3, 1e8 + np.array([[0.5, 1.0], [2.0, 2.5], [3.0, 3.25]])),
        (1e154 * (1.3 + np.arange(8.0).reshape(4, 2) / 1e4), 1e154 * np.array([[1.3, 1.3002], [1.3005, 1.3]])),
        # |x|^2 and |c|^2 are finite but 2 x.c overflows
        (8e153 * (1.0 + np.arange(8.0).reshape(4, 2) / 1e4), 8e153 * np.array([[1.0, 1.0002], [1.0005, 1.0]])),
        # squares in the subnormal range, where rounding is absolute
        ([[-3.528050725183953e-162]], [[-7.296574470409369e-162], [0.0], [-1.4237106346792383e-161]]),
    ],
    ids=["ties", "duplicate-centroids", "single-centroid", "offset-1e8", "near-1e154", "product-overflow", "subnormal"],
)
def test_assign_fixed_cases(pts, centroids):
    assert_assign_exact(pts, centroids)


@pytest.mark.parametrize(
    "pts, centroids",
    [
        ([[1e300, -1e300], [-1e300, 1e300]], [[-1e300, 1e300], [1e300, -1e300], [1e300, 1e300]]),
        # every score is finite and far apart, yet every exact distance is inf
        ([[1e154]], [[-5e153], [-4e153]]),
    ],
    ids=["everything", "distances-only"],
)
def test_assign_where_every_distance_overflows(pts, centroids):
    with np.errstate(over="ignore"):  # the exact form leaves inf ties, won by index 0
        assert_assign_exact(pts, centroids)


def fit_fields(model):
    return (model.labels, model.centroids, model.inertia, model.n_iter)


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert np.asarray(a).dtype == np.asarray(b).dtype
        np.testing.assert_array_equal(np.atleast_1d(a).view(np.uint8), np.atleast_1d(b).view(np.uint8))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_fit_bits_match_broadcast_assignment(small_normalized, default_panel, k):
    cases = [FOUR_POINTS[:, ::-1]] if k == 2 else []
    cases += [pipeline.features_for(small_normalized[0], name) for name in ("haar", "db3")]
    cases += [pipeline.features_for(default_panel[0], name) for name in ("sym2", "coif1")]
    for points in cases:
        fast = kmeans.kmeans_fit(points, k, seed=11, n_restarts=4)
        best = None
        for restart in range(4):
            init = kmeanspp_seed(points, k, kmeans._rng_for_restart(11, restart))
            centroids, labels, inertia, n_iter, _ = reference_lloyd(points, init)
            if best is None or inertia < best[2]:
                best = (labels, centroids, inertia, n_iter)
        assert_same_bits(fit_fields(fast), best)


# ---------------------------------------------------------------- distinct points and Lloyd's bits

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_distinct_rows_counts_like_unique(n, p, seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-1, 2, size=(n, p)) * rng.choice([-0.0, 0.5, 1.0], size=(n, p))
    assert kmeans._distinct_rows(pts) == len(np.unique(pts, axis=0))
    assert kmeans._distinct_rows(pts[:, ::-1]) == len(np.unique(pts, axis=0))


def test_signed_zeros_count_as_one_point():
    points = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])
    assert kmeans._distinct_rows(points) == 2
    with pytest.raises(InvalidInput, match=r"^fewer than 3 distinct points$"):
        kmeans_fit(points, 3, seed=0)
    assert kmeans_fit(points, 2, seed=0).inertia == 0.0


def test_squared_distances_that_overflow_are_named():
    points = np.random.default_rng(0).normal(size=(50, 4)) * 1e160
    with pytest.raises(InvalidInput, match="squared distances between points overflow float64"):
        kmeans_fit(points, 3, seed=1)
    with pytest.raises(InvalidInput, match="overflow"):
        kmeanspp_seed(points, 2, np.random.default_rng(0))


def test_squared_distances_that_underflow_are_named():
    points = np.random.default_rng(0).normal(size=(50, 4)) * 1e-170
    assert kmeans._distinct_rows(points) == 50
    with pytest.raises(InvalidInput, match=r"^squared distances between distinct points underflow to 0$"):
        kmeans_fit(points, 3, seed=1)
    # duplicates are still fewer distinct points, as seeding names them
    with pytest.raises(InvalidInput, match=r"^fewer than 3 distinct points$"):
        kmeanspp_seed(np.array([[1.0], [1.0], [2.0]]), 3, np.random.default_rng(0))


def test_scaled_points_that_stay_in_range_fit_as_before():
    points = np.random.default_rng(0).normal(size=(50, 4))
    base = kmeans_fit(points, 3, seed=1)
    for scale in (1e150, 1e-150):
        model = kmeans_fit(points * scale, 3, seed=1)
        assert np.array_equal(model.labels, base.labels)
        assert np.isfinite(model.inertia) and model.inertia > 0


@pytest.mark.parametrize(
    "kwargs, name",
    [({"k": 2.9}, "k"), ({"k": np.float64(3.0)}, "k"), ({"k": 3, "n_restarts": 1.9}, "n_restarts")],
)
def test_non_integer_counts_are_rejected(rng, kwargs, name):
    with pytest.raises(InvalidInput, match=rf"^{name} must be an integer, got "):
        kmeans_fit(rng.standard_normal((20, 3)), seed=0, **kwargs)
    if "n_restarts" not in kwargs:
        with pytest.raises(InvalidInput, match=rf"^{name} must be an integer, got "):
            kmeanspp_seed(rng.standard_normal((20, 3)), kwargs["k"], rng)


def test_numpy_integer_counts_pass(rng):
    points = rng.standard_normal((20, 3))
    model = kmeans_fit(points, np.int64(3), seed=0, n_restarts=np.int32(2))
    assert model.k == 3 and model.n_restarts == 2
    assert type(model.n_restarts) is int
    assert np.array_equal(model.labels, kmeans_fit(points, 3, seed=0, n_restarts=2).labels)


def test_cluster_process_does_not_import_numpy_ma(tmp_path, small_panel):
    """No clustering command imports numpy.ma; one process runs them in turn."""
    preprocess.emit_csv(small_panel[0], tmp_path / "panel.csv")
    code = (
        "import sys\n"
        "from trendlet import cli\n"
        "for command in ('cluster', 'stability', 'pca'):\n"
        f"    assert cli.main([command, '--input', {str(tmp_path / 'panel.csv')!r}, "
        f"'--outdir', {str(tmp_path / 'out')!r}]) == 0, command\n"
        "    assert 'numpy.ma' not in sys.modules, f'{command} imported numpy.ma'\n"
    )
    src = str(Path(kmeans.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("k", [3, 10])
def test_lloyd_bits_match_reference_formulas(k, default_panel):
    cases = [pipeline.features_for(default_panel[0], name) for name in ("db3", "bior3.1")]
    cases.append(np.random.default_rng(k).standard_normal((500, 40)))
    for points in cases:
        for restart in range(3):
            assert_lloyd_matches_reference(points, kmeanspp_seed(points, k, kmeans._rng_for_restart(7, restart)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(1, 7),
    st.sampled_from([1e-150, 1e-3, 1.0, 1e6, 1e100]),
    st.sampled_from([0.0, 1.0, -1e8, 1e8]),
    st.sampled_from(["grid", "normal", "far"]),
    st.integers(0, 2**32 - 1),
)
def test_lloyd_bits_match_reference_on_hard_inputs(n, p, k, scale, offset, kind, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    if kind == "grid":  # few distinct values: exact ties, duplicate points and centroids
        pts = rng.integers(-2, 3, size=(n, p)).astype(float)
        init = rng.integers(-2, 3, size=(k, p)).astype(float)
    elif kind == "normal":
        pts = rng.standard_normal((n, p))
        init = np.concatenate([pts[rng.integers(n, size=k // 2)], rng.standard_normal((k - k // 2, p))])
    else:  # every centroid far from the points: clusters start empty and are relocated
        pts = rng.standard_normal((n, p))
        init = 10.0 + rng.standard_normal((k, p))
    assert_lloyd_matches_reference(offset + scale * pts, offset + scale * init)


@pytest.mark.parametrize(
    "pts, init",
    [
        # After the second update the point 2 lies midway between the
        # centroids 0.5 and 3.5, so its bounds fail by nothing and it must
        # move from cluster 1 to cluster 0, the lower index of the tie.  At
        # 1e7 the scores carry rounding errors as large as the squared
        # distances, so bounds without their margin let it stay.
        (1e7 + np.array([[0.0], [5.0], [2.0], [1.0]]), 1e7 + np.array([[0.0], [1.0]])),
        # |x|^2 overflows, so every bound is nan and every point is
        # screened again in every iteration; labels change after the first
        (1e155 + 1e150 * np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]), 1e155 + 1e150 * np.array([[0.0], [1.0]])),
    ],
    ids=["tie-after-update", "norms-overflow"],
)
def test_lloyd_fixed_cases(pts, init):
    assert_lloyd_matches_reference(pts, init)


@pytest.mark.parametrize(
    "init, match",
    [
        (np.empty((0, 3)), r"k=0 centroids, outside 1\.\.20"),
        (np.zeros((25, 3)), r"k=25 centroids, outside 1\.\.20"),
        (np.zeros((2, 4)), r"have 4 columns, points have 3"),
        (np.zeros(3), r"^init_centroids must be 2-D, got shape \(3,\)$"),
        (np.array([[0.0, 0.0, 0.0], [np.nan, 1.0, 1.0]]), "non-finite"),
        (np.array([[0.0, 0.0, 0.0], [np.inf, 1.0, 1.0]]), "non-finite"),
    ],
    ids=["no-centroids", "more-centroids-than-points", "wrong-width", "one-dimensional", "nan", "inf"],
)
def test_lloyd_rejects_bad_init(init, match):
    points = np.random.default_rng(0).standard_normal((20, 3))
    with pytest.raises(InvalidInput, match=match):
        lloyd(points, init)


# ---------------------------------------------------------------- the inertia once per run

def eager_lloyd(points, init_centroids):
    """Lloyd's loop written out with the inertia summed after every iteration."""
    pts = kmeans._as_points(points)
    centroids = kmeans._as_centroids(init_centroids, pts)
    p = pts.shape[1]
    k = centroids.shape[0]
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    grow = 1.0 + 4 * (p + 2) * kmeans._EPS
    floor = 2.0 * np.sqrt((p + 2) * kmeans._TINY)
    labels, upper, lower = kmeans._assign(pts, centroids, sq_norms)
    members = None
    buf = np.empty(pts.shape)
    history = []
    for n_iter in range(1, kmeans.MAX_ITER + 1):
        new_centroids, members = kmeans._update(pts, labels, centroids, members)
        drift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1))
        displacement = float(drift.max())
        centroids = new_centroids
        reach = drift * grow + floor
        first = int(reach.argmax())
        others = np.full(k, reach[first])
        others[first] = np.max(reach[np.arange(k) != first], initial=0.0)
        upper += reach[labels]
        upper *= 1.0 + 2 * kmeans._EPS
        lower -= others[labels]
        lower *= 1.0 - 2 * kmeans._EPS
        new_labels = labels.copy()
        check = np.flatnonzero(~(upper * grow + floor < lower))
        if check.size:
            new_labels[check], upper[check], lower[check] = kmeans._assign(pts[check], centroids, sq_norms[check])
        history.append(kmeans._inertia(pts, centroids, new_labels, buf))
        converged = np.array_equal(new_labels, labels) and displacement <= kmeans.TOL
        labels = new_labels
        if converged:
            break
    return centroids, labels, history[-1], n_iter, history


def eager_fit(points, k, seed, n_restarts):
    """kmeans_fit's restarts over ``eager_lloyd``."""
    pts = kmeans._as_points(points)
    best = None
    for restart in range(n_restarts):
        init = kmeanspp_seed(pts, k, kmeans._rng_for_restart(seed, restart))
        centroids, labels, inertia, n_iter, _ = eager_lloyd(pts, init)
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia, n_iter)
    return best


def counted(monkeypatch, name):
    calls = []
    original = getattr(kmeans, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kmeans, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def db3_features_600():
    spec = pipeline.SyntheticSpec(n_increasing=200, n_stagnating=200, n_seasonal=200, seed=3)
    features = pipeline.features_for(preprocess.normalize(pipeline.generate_synthetic(spec)[0]), "db3")
    assert features.shape == (600, 40)
    return features


@pytest.mark.parametrize("k", [3, 10])
def test_fit_bits_match_eager_history_loop(db3_features_600, k):
    assert_same_bits(fit_fields(kmeans_fit(db3_features_600, k, seed=4)), eager_fit(db3_features_600, k, 4, 10))
    init = kmeanspp_seed(db3_features_600, k, kmeans._rng_for_restart(4, 0))
    want = eager_lloyd(db3_features_600, init)
    assert_same_bits(lloyd(db3_features_600, init), want[:4])
    assert np.array(inertia_history(db3_features_600, init)).tobytes() == np.array(want[4]).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(1, 5),
    st.integers(2, 6),
    st.sampled_from(["grid", "normal"]),
    st.integers(0, 2**32 - 1),
)
def test_fit_bits_match_eager_history_loop_on_small_inputs(n, p, k, kind, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    pts = rng.integers(-2, 3, size=(n, p)).astype(float) if kind == "grid" else rng.standard_normal((n, p))
    try:
        want = eager_fit(pts, k, seed % 1000, 3)
    except InvalidInput as error:
        with pytest.raises(InvalidInput, match=f"^{error}$"):
            kmeans_fit(pts, k, seed=seed % 1000, n_restarts=3)
        return
    assert_same_bits(fit_fields(kmeans_fit(pts, k, seed=seed % 1000, n_restarts=3)), want)


def test_fit_sums_inertia_once_per_restart(monkeypatch, db3_features_600):
    inertias = counted(monkeypatch, "_inertia")
    kmeans_fit(db3_features_600, 10, seed=1, n_restarts=4)
    assert len(inertias) == 4


@pytest.mark.parametrize("k", [3, 10])
def test_inertia_history_has_one_value_per_iteration(db3_features_600, k):
    init = kmeanspp_seed(db3_features_600, k, kmeans._rng_for_restart(2, 0))
    _, _, inertia, n_iter = lloyd(db3_features_600, init)
    history = inertia_history(db3_features_600, init)
    assert len(history) == n_iter
    assert history[-1] == inertia


def test_constant_first_column_with_distinct_rows_fits(monkeypatch):
    points = np.column_stack([np.full(6, 2.0), np.arange(6.0)])
    rows = counted(monkeypatch, "_distinct_rows")
    model = kmeans_fit(points, 3, seed=0)
    assert len(set(model.labels.tolist())) == 3
    kmeans_fit(points[:, ::-1], 3, seed=0)
    assert rows == []  # only seeding counts distinct rows, and only when its weights run out


def test_fewer_distinct_rows_than_k_is_degenerate():
    points = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0], [1.0, 2.0]])
    with pytest.raises(InvalidInput, match=r"^fewer than 3 distinct points$"):
        kmeans_fit(points, 3, seed=0)


def test_signed_zeros_in_first_column_count_as_one_value():
    # three distinct bit patterns in column 0, but two values and two rows
    points = np.array([[-0.0, 1.0], [0.0, 1.0], [5.0, 1.0]])
    with pytest.raises(InvalidInput, match=r"^fewer than 3 distinct points$"):
        kmeans_fit(points, 3, seed=0)


def test_float_seed_is_rejected(rng):
    points = rng.standard_normal((20, 3))
    with pytest.raises(InvalidInput, match=r"^seed must be an integer, got 1\.5$"):
        kmeans_fit(points, 3, seed=1.5)
    model = kmeans_fit(points, 3, seed=np.int64(1))
    assert type(model.seed) is int and model.seed == 1
    assert np.array_equal(model.labels, kmeans_fit(points, 3, seed=1).labels)

