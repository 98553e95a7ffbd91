"""Lloyd's k-means with k-means++ seeding, built for reproducibility.

Randomness comes from numpy's PCG64 generator.  A fit with ``n_restarts``
restarts derives the generator for restart r from
``SeedSequence(entropy=seed, spawn_key=(r,))``, so results are identical
across platforms and independent of the order restarts are evaluated in;
the best restart is the one with the lowest inertia, ties broken by the
lowest restart index.

Lloyd's assignment step screens every point with one matrix product,
scoring centroid c by ||c||^2 - 2 x.c (its squared distance minus the
||x||^2 all centroids share).  A point whose best and second-best scores
lie within the product's rounding error of each other is re-checked with
the exact difference form, so labels are exactly those of an argmin over
``((x - c) ** 2).sum()``: nearest-centroid ties still go to the lowest
index.  Seeding, the centroid update and the inertia use the exact form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, InvalidInput

__all__ = ["ClusterModel", "kmeanspp_seed", "lloyd", "kmeans_fit", "adjusted_rand_index"]

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
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise InvalidInput(f"points must be a non-empty 2-D matrix, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("points contain non-finite values")
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
    Returned rows are in selection order.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise InvalidInput(f"k={k} outside 1..{n}")
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.integers(n)
    dist_sq = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = dist_sq.sum()
        if total <= 0.0:
            raise Degenerate(f"fewer than {k} distinct points")
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


def _assign(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid of every point, exactly as ``_nearest`` picks it.

    Scores every centroid with one matrix product and re-checks with
    ``_nearest`` each point whose two best scores are within rounding of
    each other.
    """
    n, p = pts.shape
    k = centroids.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.intp)
    # An overflow here leaves inf or nan in a point's gap or bound, and the
    # test below re-checks every such point, so it needs no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", centroids, centroids)
        scores = norms[:, None] - 2.0 * (centroids @ pts.T)  # (k, n)
        labels = scores.argmin(axis=0)
        best = scores.min(axis=0)
        gap = np.where(np.arange(k)[:, None] == labels, np.inf, scores).min(axis=0) - best
        # A score is within about (4p + 6) eps (|x|^2 + |c|^2) of the exact
        # form's distance less |x|^2, so a wider gap fixes the argmin.  The
        # largest |score| bounds every distance less |x|^2: with it the
        # scale is inf or nan whenever a distance overflows or a score is
        # not finite.  tiny covers rounding in the subnormal range.
        scale = np.einsum("ij,ij->i", pts, pts) + norms.max() + np.abs(scores).max(axis=0)
        bound = 8 * (p + 2) * (_EPS * scale + _TINY)
    near = np.flatnonzero(~(gap > bound))
    if near.size:
        labels[near] = _nearest(pts[near], centroids)
    return labels


def _inertia(pts: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((pts - centroids[labels]) ** 2).sum())


def _update(pts: np.ndarray, labels: np.ndarray, centroids: np.ndarray, k: int) -> np.ndarray:
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
    new = np.empty_like(centroids)
    for c in range(k):
        new[c] = pts[labels == c].mean(axis=0)
    return new


def lloyd(points, init_centroids):
    """Lloyd iterations from explicit initial centroids.

    Runs until the assignment is a fixed point (which also means every
    centroid equals the mean of its members) or until the centroid
    displacement drops to ``TOL`` with an unchanged assignment, capped at
    ``MAX_ITER``.  Returns (centroids, labels, inertia, n_iter, history)
    where history holds the inertia after every iteration.
    """
    pts = _as_points(points)
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    k = centroids.shape[0]
    labels = _assign(pts, centroids)
    history: list[float] = []
    for n_iter in range(1, MAX_ITER + 1):
        new_centroids = _update(pts, labels, centroids, k)
        new_labels = _assign(pts, new_centroids)
        displacement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        history.append(_inertia(pts, centroids, new_labels))
        converged = np.array_equal(new_labels, labels) and displacement <= TOL
        labels = new_labels
        if converged:
            break
    return centroids, labels, history[-1], n_iter, history


def kmeans_fit(points, k: int, seed: int = 0, n_restarts: int = 10) -> ClusterModel:
    """Best of ``n_restarts`` k-means++-seeded Lloyd runs."""
    pts = _as_points(points)
    n = pts.shape[0]
    k = int(k)
    if not 2 <= k <= n:
        raise InvalidInput(f"k={k} outside 2..{n}")
    if int(n_restarts) < 1:
        raise InvalidInput(f"n_restarts must be >= 1, got {n_restarts}")
    seed = int(seed)
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    if np.unique(pts, axis=0).shape[0] < k:
        raise Degenerate(f"fewer than k={k} distinct points")
    best = None
    for restart in range(int(n_restarts)):
        init = kmeanspp_seed(pts, k, _rng_for_restart(seed, restart))
        centroids, labels, inertia, n_iter, _ = lloyd(pts, init)
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
        n_restarts=int(n_restarts),
    )


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected pair-counting agreement between two labelings."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
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
