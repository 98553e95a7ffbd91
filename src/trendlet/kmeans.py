"""Lloyd's k-means with k-means++ seeding, built for reproducibility.

Randomness comes from numpy's PCG64 generator.  A fit with ``n_restarts``
restarts derives the generator for restart r from
``SeedSequence(entropy=seed, spawn_key=(r,))``, so results are identical
across platforms and independent of the order restarts are evaluated in;
the best restart is the one with the lowest inertia, ties broken by the
lowest restart index.

Lloyd's assignment screens points with one matrix product, scoring
centroid c by ||c||^2 - 2 x.c (its squared distance minus the ||x||^2 all
centroids share).  A point whose best and second-best scores lie within
the product's rounding error of each other is re-checked with the exact
difference form, so labels are exactly those of an argmin over
``((x - c) ** 2).sum()``: nearest-centroid ties still go to the lowest
index.  Seeding, the centroid update and the inertia use the exact form.

Only points whose label can change go through that screen (Hamerly 2010).
Each point keeps an upper bound u on its true distance to its own centroid
and a lower bound l on its true distance to every other centroid.  The
screen sets both from the scores with the margin its gap test already
allows; a point it re-checks is left with l <= u or a nan bound.  When
centroid j moves by d_j, the triangle inequality keeps the bounds with
u + d_own and l - max(d_j over the other centroids).  A point is skipped
when g u + f < l; nan compares false, so a point with a nan bound or an
infinite upper bound is always screened again.

Why a skipped label is still the exact argmin: with p features, eps the
machine epsilon and tiny the smallest normal number, the exact form's sum
for a true squared distance D lies within (p + 2) (eps D + tiny) of D.
g = 1 + 4 (p + 2) eps and f = 2 sqrt((p + 2) tiny) make g u + f < l imply
that (1 + (p + 2) eps) u^2 + (p + 2) tiny, an upper bound on the own
centroid's sum, is below (1 - (p + 2) eps) l^2 - (p + 2) tiny, a lower
bound on every other sum, with room left for the two roundings of g u + f.
The drifts d_j are such sums too and are widened to d_j g + f, and each
bound update is rounded outward by a factor 1 +- 2 eps, which covers its
half-ulp rounding.  l is at most the square root of the largest float
unless k = 1 (l = inf, and label 0 is the only one), so the own sum of a
skipped point cannot overflow.

Each update averages again only the clusters whose member set changed; an
unchanged member set gives the same bits.

A fit computes the inertia once per restart, for the final centroids;
``inertia_history`` runs the same iterations and sums it after each one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, as_array, as_integer

__all__ = ["ClusterModel", "kmeanspp_seed", "lloyd", "inertia_history", "kmeans_fit", "adjusted_rand_index"]

# Lloyd stops after MAX_ITER iterations, or earlier once the assignment is
# unchanged and no centroid moved farther than TOL.
MAX_ITER = 300
TOL = 1e-4


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Result of one k-means fit: centroids, labels and the winning inertia."""

    k: int
    centroids: np.ndarray  # (k, p)
    labels: np.ndarray  # (n,), values in [0, k)
    inertia: float
    seed: int
    n_iter: int
    n_restarts: int


def _as_points(points) -> np.ndarray:
    """``points`` through ``as_array`` (2-D), not empty."""
    pts = as_array(points, "points", 2)
    if not pts.size:
        raise InvalidInput(f"points must be a non-empty 2-D matrix, got shape {pts.shape}")
    return pts


def _rng_for_restart(seed: int, restart: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(restart,)))
    )


def kmeanspp_seed(points, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k distinct data points as initial centroids (k-means++).

    The first centroid is uniform over the points; each further one is
    sampled with probability proportional to the squared distance to its
    nearest already-chosen centroid, which gives zero mass to duplicates.
    Returned rows are in selection order.  Squared distances that overflow
    float64 raise InvalidInput.  When the weights run out, the rows are
    counted once: fewer than k distinct points raise InvalidInput naming
    k, and distinct points whose squared distances all underflow to 0
    raise InvalidInput saying so.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    k = as_integer(k, "k")
    if not 1 <= k <= n:
        raise InvalidInput(f"k={k} outside 1..{n}")
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.integers(n)
    # an overflow shows as an infinite total below, which names it
    with np.errstate(over="ignore"):
        dist_sq = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
        for j in range(1, k):
            total = dist_sq.sum()
            if total == np.inf:
                raise InvalidInput("squared distances between points overflow float64")
            if total <= 0.0:
                if _distinct_rows(pts) < k:
                    raise InvalidInput(f"fewer than {k} distinct points")
                raise InvalidInput("squared distances between distinct points underflow to 0")
            # inverse-CDF draw over the D^2 weights
            cumulative = np.cumsum(dist_sq)
            idx = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
            idx = min(idx, n - 1)
            chosen[j] = idx
            dist_sq = np.minimum(dist_sq, ((pts - pts[idx]) ** 2).sum(axis=1))
    return pts[chosen].copy()


_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _nearest(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # squared distances; argmin takes the lowest centroid index on ties
    d = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


def _assign(pts: np.ndarray, centroids: np.ndarray, sq_norms: np.ndarray):
    """Nearest centroid of every point, exactly as ``_nearest`` picks it.

    ``sq_norms`` holds ``einsum("ij,ij->i", pts, pts)``.  Scores every
    centroid with one matrix product and re-checks with ``_nearest`` each
    point whose two best scores are within rounding of each other.  Returns
    (labels, upper, lower): for each point that is not re-checked, an upper
    bound on its distance to its own centroid and a lower bound on its
    distance to every other one.  A re-checked point has lower <= upper or a
    nan bound, so ``_iterate`` screens it again.
    """
    n, p = pts.shape
    # An overflow here leaves inf or nan in a point's scale and bounds, and
    # the tests below re-check every such point, so it needs no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", centroids, centroids)
        scores = centroids @ pts.T  # (k, n)
        scores *= -2.0
        scores += norms[:, None]
        best = scores.min(axis=0)
        # the lowest index of the best score, as argmin picks it (faster
        # along this axis); a point with a nan score is re-checked below
        labels = (scores == best).argmax(axis=0)
        # A score plus |x|^2 is within (2p + 4) (eps scale + tiny), a
        # quarter of the bound below, of both the true squared distance and
        # the exact form's sum.  So a gap wider than the bound fixes the
        # argmin, and best + |x|^2 + bound and second + |x|^2 - bound bound
        # the true squared distances with room for their own roundings.
        # The largest |score| bounds every distance less |x|^2: with it the
        # scale is inf or nan whenever a distance overflows or a score is
        # not finite.  tiny covers rounding in the subnormal range.
        scale = sq_norms + norms.max() + np.abs(scores).max(axis=0)
        bound = 8 * (p + 2) * (_EPS * scale + _TINY)
        scores[labels, np.arange(n)] = np.inf
        second = scores.min(axis=0)
        upper = np.sqrt(best + sq_norms + bound)
        lower = np.sqrt(np.maximum(second + sq_norms - bound, 0.0))
        near = np.flatnonzero(~(second - best > bound))
    if near.size:
        labels[near] = _nearest(pts[near], centroids)
    return labels, upper, lower


def _inertia(pts: np.ndarray, centroids: np.ndarray, labels: np.ndarray, buf: np.ndarray) -> float:
    # ((pts - centroids[labels]) ** 2).sum() in a C-ordered (n, p) buffer, with the same bits
    np.take(centroids, labels, axis=0, out=buf, mode="clip")  # "raise" would copy through a temporary
    np.subtract(pts, buf, out=buf)
    np.square(buf, out=buf)
    return float(buf.sum())


def _update(pts: np.ndarray, labels: np.ndarray, centroids: np.ndarray, members: np.ndarray | None):
    """Means of the clusters of ``labels``, and the labels they are means of.

    ``members`` holds the labels that ``centroids`` are the means of, or
    None when they are not means.  Only clusters whose member set differs
    from it are averaged again.
    """
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # deterministic relocation: each empty cluster takes the point
        # currently farthest from its own centroid; points whose cluster
        # would be emptied by the move are not eligible (when an empty
        # cluster exists, some cluster must hold at least two points)
        labels = labels.copy()
        dist = ((pts - centroids[labels]) ** 2).sum(axis=1)
        for c in empty:
            eligible = np.where(counts[labels] > 1, dist, -1.0)
            far = int(eligible.argmax())
            counts[labels[far]] -= 1
            labels[far] = c
            counts[c] += 1
    if members is None:
        changed = range(k)
    else:
        moved = labels != members
        changed = np.flatnonzero(np.bincount(labels[moved], minlength=k) + np.bincount(members[moved], minlength=k))
    new = centroids.copy()
    for c in changed:
        rows = pts[np.flatnonzero(labels == c)]
        new[c] = rows.sum(axis=0) / len(rows)  # the bits of rows.mean(axis=0)
    return new, labels


def _as_centroids(init_centroids, pts: np.ndarray) -> np.ndarray:
    """``init_centroids`` through ``as_array`` (2-D): 1..n rows as wide as ``pts``, not copied."""
    centroids = as_array(init_centroids, "init_centroids", 2)
    n, p = pts.shape
    if centroids.shape[1] != p:
        raise InvalidInput(f"init_centroids have {centroids.shape[1]} columns, points have {p}")
    if not 1 <= centroids.shape[0] <= n:
        raise InvalidInput(f"init_centroids hold k={centroids.shape[0]} centroids, outside 1..{n}")
    return centroids


def _iterate(pts: np.ndarray, init: np.ndarray):
    """Lloyd's iterations from validated points and initial centroids.

    Yields (centroids, labels) after every iteration; neither array is
    changed after it is yielded.
    """
    centroids = init
    p = pts.shape[1]
    k = centroids.shape[0]
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    # bound margins, derived in the module docstring
    grow = 1.0 + 4 * (p + 2) * _EPS
    floor = 2.0 * np.sqrt((p + 2) * _TINY)
    labels, upper, lower = _assign(pts, centroids, sq_norms)
    members = None
    for _ in range(MAX_ITER):
        new_centroids, members = _update(pts, labels, centroids, members)
        drift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1))
        displacement = float(drift.max())
        centroids = new_centroids
        reach = drift * grow + floor  # at least each centroid's true drift
        first = int(reach.argmax())
        others = np.full(k, reach[first])  # the largest reach of any other centroid
        others[first] = np.max(reach[np.arange(k) != first], initial=0.0)
        upper += reach[labels]
        upper *= 1.0 + 2 * _EPS
        lower -= others[labels]
        lower *= 1.0 - 2 * _EPS
        new_labels = labels.copy()
        check = np.flatnonzero(~(upper * grow + floor < lower))
        if check.size:
            new_labels[check], upper[check], lower[check] = _assign(pts[check], centroids, sq_norms[check])
        yield centroids, new_labels
        converged = np.array_equal(new_labels, labels) and displacement <= TOL
        labels = new_labels
        if converged:
            return


def lloyd(points, init_centroids):
    """Lloyd iterations from explicit initial centroids.

    Runs until the assignment is a fixed point (which also means every
    centroid equals the mean of its members) or until the centroid
    displacement drops to ``TOL`` with an unchanged assignment, capped at
    ``MAX_ITER``.  Returns (centroids, labels, inertia, n_iter); the
    inertia is summed once, for the final centroids.
    """
    pts = _as_points(points)
    n_iter = 0
    for centroids, labels in _iterate(pts, _as_centroids(init_centroids, pts)):
        n_iter += 1
    return centroids, labels, _inertia(pts, centroids, labels, np.empty(pts.shape)), n_iter


def inertia_history(points, init_centroids) -> list[float]:
    """The inertia after every iteration of ``lloyd(points, init_centroids)``.

    Runs the same iterations, so the list has ``n_iter`` values and the
    last one is ``lloyd``'s inertia, with the same bits.
    """
    pts = _as_points(points)
    buf = np.empty(pts.shape)
    return [_inertia(pts, c, labels, buf) for c, labels in _iterate(pts, _as_centroids(init_centroids, pts))]


def _distinct_rows(pts: np.ndarray) -> int:
    """Number of distinct rows of a finite matrix; -0.0 equals 0.0.

    Only seeding's failure path counts, so ``np.unique`` (which imports
    ``numpy.ma``) costs nothing on a successful fit.
    """
    return len(np.unique(pts, axis=0))


def kmeans_fit(points, k: int, seed: int = 0, n_restarts: int = 10) -> ClusterModel:
    """Best of ``n_restarts`` k-means++-seeded Lloyd runs.

    Fewer than k distinct points fail in the first restart's seeding, which
    raises InvalidInput("fewer than k distinct points").
    """
    pts = _as_points(points)
    n = pts.shape[0]
    k = as_integer(k, "k")
    if not 2 <= k <= n:
        raise InvalidInput(f"k={k} outside 2..{n}")
    n_restarts = as_integer(n_restarts, "n_restarts", 1)
    seed = as_integer(seed, "seed", 0)
    best = None
    for restart in range(n_restarts):
        init = kmeanspp_seed(pts, k, _rng_for_restart(seed, restart))
        centroids, labels, inertia, n_iter = lloyd(pts, init)
        if best is None or inertia < best[0]:
            best = (inertia, restart, centroids, labels, n_iter)
    inertia, _, centroids, labels, n_iter = best
    return ClusterModel(
        k=k,
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        seed=seed,
        n_iter=n_iter,
        n_restarts=n_restarts,
    )


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected pair-counting agreement between two 1-D labelings
    of numbers or strings (so they do not go through ``as_array``)."""
    try:
        a, b = np.asarray(labels_a), np.asarray(labels_b)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"a labeling is not an array: {exc}") from None
    if a.ndim != 1 or b.ndim != 1:
        raise InvalidInput(f"labelings must be 1-D, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise InvalidInput(f"label lengths differ: {a.shape} vs {b.shape}")
    n = a.size
    if n == 0:
        raise InvalidInput("empty labelings")
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)

    def pairs(x):
        return (x * (x - 1) // 2).sum()

    sum_cells = pairs(table)
    sum_rows = pairs(table.sum(axis=1))
    sum_cols = pairs(table.sum(axis=0))
    total = n * (n - 1) // 2
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0  # both labelings trivial (all singletons or one block)
    return float((sum_cells - expected) / (max_index - expected))
