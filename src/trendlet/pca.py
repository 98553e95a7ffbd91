"""Principal component analysis of the entity x coefficient matrix.

Centered (not variance-scaled) SVD-based PCA with a deterministic sign
convention: within each component the entry of largest magnitude is made
positive.  Explained-variance ratios are taken against the total variance
of the data, so they sum to 1 at full rank and to less below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, as_array, as_integer

__all__ = ["PcaModel", "pca_fit", "biplot_data"]


@dataclass(frozen=True, eq=False)
class PcaModel:
    mean: np.ndarray  # (p,)
    components: np.ndarray  # (r, p), orthonormal rows in descending variance
    explained_variance: np.ndarray  # (r,), sample (n-1) denominator
    explained_variance_ratio: np.ndarray  # (r,)
    scores: np.ndarray  # (n, r)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca_fit(data, r: int) -> PcaModel:
    """Fit the first ``r`` principal axes of a finite n x p matrix."""
    x = as_array(data, "data", 2)
    n, p = x.shape
    if n < 2:
        raise InvalidInput("need at least 2 rows")
    r = as_integer(r, "r")
    if not 1 <= r <= min(n, p):
        raise InvalidInput(f"r={r} outside 1..{min(n, p)}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variances = singular**2 / (n - 1)
    total = variances.sum()
    components = vt[:r]
    # sign convention: largest-magnitude entry of each component is positive
    flip = np.sign(components[np.arange(r), np.abs(components).argmax(axis=1)])
    flip[flip == 0] = 1.0
    components = components * flip[:, None]
    scores = centered @ components.T
    ratio = variances[:r] / total if total > 0 else np.zeros(r)
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=variances[:r],
        explained_variance_ratio=ratio,
        scores=scores,
    )


def biplot_data(model: PcaModel, feature_names, labels, entity_ids):
    """Tables behind a PC1/PC2 biplot.

    Returns (score_rows, loading_rows): score rows are
    (entity_id, pc1, pc2, label) per observation, loading rows are
    (feature_name, pc1_loading, pc2_loading) per feature axis.
    """
    if model.n_components < 2:
        raise InvalidInput(f"have {model.n_components} component(s), need 2")
    p = model.components.shape[1]
    n = model.scores.shape[0]
    feature_names = list(feature_names)
    labels = list(labels)
    if len(feature_names) != p:
        raise InvalidInput(f"{len(feature_names)} feature names for {p} features")
    if len(labels) != n:
        raise InvalidInput(f"{len(labels)} labels for {n} observations")
    entity_ids = list(entity_ids)
    if len(entity_ids) != n:
        raise InvalidInput(f"{len(entity_ids)} entity ids for {n} observations")
    score_rows = [
        (entity_ids[i], float(model.scores[i, 0]), float(model.scores[i, 1]), labels[i])
        for i in range(n)
    ]
    loading_rows = [
        (feature_names[j], float(model.components[0, j]), float(model.components[1, j]))
        for j in range(p)
    ]
    return score_rows, loading_rows
