"""Output checks made apart from the program.

Every check reads the program's output files (or, for the API, its return
values) and compares them with a computation written here from the method's
definition, using only numpy and the csv module. Each returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

MIN_ARI = 0.9


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index from the contingency table of two labelings."""
    _, a = np.unique(np.asarray(labels_a), return_inverse=True)
    _, b = np.unique(np.asarray(labels_b), return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    n_pairs = pairs(np.array([float(a.size)]))
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / n_pairs
    top = (rows + cols) / 2
    return 1.0 if top == expected else (pairs(table) - expected) / (top - expected)


def zscore(x: np.ndarray) -> np.ndarray:
    return (x - x.mean()) / x.std()


def panel_column(panel_csv: Path, entity: str) -> np.ndarray:
    rows = read_rows(panel_csv)
    j = rows[0].index(entity)
    return np.array([float(r[j]) for r in rows[1:]])


def pyramid_features(x: np.ndarray, dec_lo, dec_hi) -> np.ndarray:
    """c0 || d0 || d1 of a zero-padded pyramid: full convolution, keep odd samples,
    down to the largest J with (M - 1) * 2**J <= n (2**J <= n for M = 2)."""
    m = len(dec_lo)
    reach, depth = (m - 1 if m > 2 else 1), 0
    while reach * 2 <= len(x):
        reach, depth = reach * 2, depth + 1
    approx, details = x, []
    for _ in range(depth):
        details.append(np.convolve(approx, dec_hi)[1::2])
        approx = np.convolve(approx, dec_lo)[1::2]
    return np.concatenate([approx, details[-1], details[-2]])


def check_ari(labels, planted, what: str) -> list[str]:
    score = ari(labels, planted)
    return [] if score >= MIN_ARI else [f"{what}: ARI {score:.3f} < {MIN_ARI} against the planted archetypes"]


def check_cluster(outdir: Path, entities, planted) -> list[str]:
    rows = read_rows(outdir / "cluster_labels.csv")
    got = {r[0]: int(r[1]) for r in rows[1:]}
    if sorted(got) != sorted(entities):
        return [f"{outdir.name}: cluster_labels.csv does not list the panel's entities"]
    return check_ari([got[e] for e in entities], planted, f"{outdir.name} labels")


def _coefficients(pca_dir: Path):
    rows = read_rows(pca_dir / "pca_coefficients.csv")
    return rows[0][1:], [r[0] for r in rows[1:]], np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def check_lloyd_fixed_point(pca_dir: Path, cluster_dir: Path) -> list[str]:
    """Centroids recomputed from the coefficients and the labels keep every row."""
    _, entities, x = _coefficients(pca_dir)
    label_of = {r[0]: int(r[1]) for r in read_rows(cluster_dir / "cluster_labels.csv")[1:]}
    labels = np.array([label_of[e] for e in entities])
    clusters = np.unique(labels)
    centroids = np.array([x[labels == c].mean(axis=0) for c in clusters])
    dist = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    own = dist[np.arange(len(x)), np.searchsorted(clusters, labels)]
    best = dist.min(axis=1)
    moved = int((own > best + 1e-9 * (1.0 + best)).sum())
    return [f"{moved} rows are nearer another centroid than their own"] if moved else []


def check_pca(pca_dir: Path) -> list[str]:
    names, entities, x = _coefficients(pca_dir)
    loading_rows = read_rows(pca_dir / "pca_loadings.csv")[1:]
    if [r[0] for r in loading_rows] != names:
        return ["pca_loadings.csv does not list the coefficients in order"]
    loadings = np.array([[float(r[1]), float(r[2])] for r in loading_rows])
    score_of = {r[0]: (float(r[1]), float(r[2])) for r in read_rows(pca_dir / "pca_scores.csv")[1:]}
    scores = np.array([score_of[e] for e in entities])
    centered = x - x.mean(axis=0)
    errors = []
    err = np.abs(centered @ loadings - scores).max()
    if err > 1e-9 * max(1.0, np.abs(scores).max()):
        errors.append(f"pca scores differ from centered coefficients x loadings by {err:.3g}")
    axes = np.linalg.svd(centered, full_matrices=False)[2][:2].T
    axes *= np.sign((axes * loadings).sum(axis=0))
    err = np.abs(axes - loadings).max()
    if err > 1e-8:
        errors.append(f"pca loadings differ from an SVD of the coefficients by {err:.3g}")
    return errors


def check_cooccurrence(stab_dir: Path) -> list[str]:
    """cooccurrence.csv against a recount of label agreement in wavelet_labels.csv."""
    rows = read_rows(stab_dir / "cooccurrence.csv")
    ids = rows[0][1:]
    if [r[0] for r in rows[1:]] != ids:
        return ["cooccurrence.csv rows and columns name different entities"]
    matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    table = read_rows(stab_dir / "wavelet_labels.csv")
    n_wavelets = len(table[0]) - 1
    label_rows = {r[0]: r[1:] for r in table[1:]}
    counts = np.zeros(matrix.shape, dtype=np.int64)
    for w in range(n_wavelets):
        _, codes = np.unique([label_rows[e][w] for e in ids], return_inverse=True)
        counts += codes[:, None] == codes[None, :]
    errors = []
    if not np.array_equal(matrix, counts / n_wavelets):
        errors.append("co-occurrence differs from a recount of wavelet_labels.csv")
    if not np.array_equal(matrix, matrix.T):
        errors.append("co-occurrence is not symmetric")
    if not np.all(np.diag(matrix) == 1.0):
        errors.append("co-occurrence diagonal is not 1")
    scaled = matrix * n_wavelets
    if np.abs(scaled - np.round(scaled)).max() > 1e-9:
        errors.append(f"co-occurrence entries are not multiples of 1/{n_wavelets}")
    return errors


def check_reconstruction(rec_dir: Path, z: np.ndarray, full: bool) -> list[str]:
    rows = read_rows(rec_dir / "reconstruction.csv")[1:]
    normalized = np.array([float(r[1]) for r in rows])
    rec = np.array([float(r[2]) for r in rows])
    if normalized.shape != z.shape or not np.all(np.isfinite(rec)):
        return [f"{rec_dir.name}: wrong length or non-finite reconstruction"]
    errors = []
    err = np.abs(normalized - z).max()
    if err > 1e-12:
        errors.append(f"{rec_dir.name}: normalized column differs from the z-score by {err:.3g}")
    if full:
        err = np.abs(rec - normalized).max()
        if err > 1e-8:
            errors.append(f"{rec_dir.name}: levels:max misses the series by {err:.3g}")
    return errors


def check_features(features, values, sample, dec_lo, dec_hi) -> list[str]:
    err = max(
        float(np.abs(features[i] - pyramid_features(values[i], np.asarray(dec_lo), np.asarray(dec_hi))).max())
        for i in sample
    )
    return [f"feature rows differ from a np.convolve pyramid by {err:.3g}"] if err > 1e-10 else []


def check_assignment(features, centroids, labels, inertia) -> list[str]:
    dist = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    nearest = dist.argmin(axis=1)  # ties go to the lowest index
    errors = []
    if not np.array_equal(nearest, labels):
        errors.append(f"{int((nearest != labels).sum())} labels are not the nearest centroid")
    recount = float(dist[np.arange(len(labels)), labels].sum())
    if abs(recount - inertia) > 1e-9 * recount:
        errors.append(f"inertia {inertia!r} differs from a recomputation {recount!r}")
    return errors
