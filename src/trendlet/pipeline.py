"""End-to-end trend clustering runs and the synthetic panel generator.

A run takes a normalized panel, computes each row's coarse wavelet
coefficients (c0, d0, d1), clusters them with k-means, and optionally names
the clusters through anchor entities.  Running several wavelets yields a
co-occurrence matrix: the fraction of wavelets that place two entities in
the same cluster.  It is stored per label signature, the tuple of one
entity's labels under every wavelet: entities with one signature have one
row, and there are few signatures.

Per-wavelet k-means sub-seeds derive from (seed, registry index of the
wavelet), so adding or removing wavelets from a run never changes the
result of the others.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass

import numpy as np

from . import dwt, filterbank
from .errors import AnchorCollision, InvalidInput, as_array, as_integer
from .kmeans import ClusterModel, kmeans_fit
from .preprocess import TimeSeriesPanel

__all__ = [
    "TrendRunConfig",
    "SyntheticSpec",
    "CoOccurrenceMatrix",
    "WaveletRun",
    "ARCHETYPES",
    "wavelet_seed",
    "run_single",
    "check_anchor_names",
    "check_wavelet_count",
    "align_labels",
    "co_occurrence",
    "generate_synthetic",
]

ARCHETYPES = ("increasing", "stagnating", "seasonal")


@dataclass(frozen=True)
class TrendRunConfig:
    """Parameters shared by every wavelet run in one experiment.

    ``wavelet_names`` are stored as registry names, each at most once.
    ``anchors`` (cluster name -> entity id) is stored as a dict of its
    own, ``{}`` when there are none; ``None`` is taken for ``{}``.
    """

    wavelet_names: tuple[str, ...] = filterbank.WAVELET_ORDER
    k: int = 3
    anchors: dict[str, str] | None = None
    seed: int = 42
    n_restarts: int = 10

    def __post_init__(self):
        names = tuple(filterbank.get_filter(name).name for name in self.wavelet_names)
        for i, name in enumerate(names):
            if name in names[:i]:
                raise InvalidInput(f"wavelet {name!r} listed more than once")
        object.__setattr__(self, "wavelet_names", names)
        for name, minimum in (("k", 2), ("seed", 0), ("n_restarts", 1)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, minimum))
        object.__setattr__(self, "anchors", dict(self.anchors or {}))
        check_anchor_names(self.anchors, self.k)
        entities = list(self.anchors.values())
        if len(set(entities)) != len(entities):
            raise InvalidInput(f"anchor entities not distinct: {entities}")


@dataclass(frozen=True, eq=False)
class CoOccurrenceMatrix:
    """Entity x entity count of wavelets agreeing on co-membership.

    The counts are stored once per label signature: ``table[a, b]`` counts
    the wavelets on which signatures a and b share a cluster, and entity i
    has signature ``signature_of[i]``.  ``pair_counts`` expands the table to
    a new (n, n) int64 array on each access; ``values`` derives the
    fractions ``pair_counts / n_wavelets``, so every value is an exact
    multiple of 1/W and the diagonal is exactly 1.
    """

    entity_ids: tuple[str, ...]
    signature_of: np.ndarray  # (n,) row of each entity in ``table``
    table: np.ndarray  # (s, s) int64 counts, s distinct signatures
    n_wavelets: int

    @property
    def pair_counts(self) -> np.ndarray:
        return self.table[np.ix_(self.signature_of, self.signature_of)]

    @property
    def values(self) -> np.ndarray:
        return self.pair_counts / self.n_wavelets


@dataclass(frozen=True, eq=False)
class WaveletRun:
    """One wavelet's clustering inside a multi-wavelet experiment.

    ``named_labels`` holds the anchor names, or ``cluster<i>`` when there
    are no anchors or they collide (``anchor_collision``).
    """

    wavelet_name: str
    model: ClusterModel
    named_labels: tuple[str, ...]
    anchor_collision: bool


def wavelet_seed(seed: int, wavelet_name: str) -> int:
    """Stable per-wavelet sub-seed from the base seed and registry index."""
    index = filterbank.WAVELET_ORDER.index(filterbank.get_filter(wavelet_name).name)
    seq = np.random.SeedSequence(entropy=as_integer(seed, "seed", 0), spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def features_for(panel: TimeSeriesPanel, wavelet_name: str) -> np.ndarray:
    """Coarse coefficient matrix, one row of (c0, d0, d1) per entity.

    One product of the whole panel with the analysis operator that
    ``dwt._operator_t`` assembles from cached shapes on each call; row i
    agrees with ``select_coarse(decompose(panel.values[i]))`` to rounding.
    """
    if not panel.normalized:
        raise InvalidInput("panel must be normalized before feature extraction")
    return dwt.coarse_features(panel.values, wavelet_name)


def run_single(
    panel: TimeSeriesPanel, wavelet_name: str, config: TrendRunConfig
) -> tuple[ClusterModel, np.ndarray]:
    """Cluster one wavelet's coarse coefficients; returns (model, features)."""
    features = features_for(panel, wavelet_name)
    model = kmeans_fit(
        features,
        config.k,
        seed=wavelet_seed(config.seed, wavelet_name),
        n_restarts=config.n_restarts,
    )
    return model, features


def check_anchor_names(anchors, k: int) -> None:
    """Refuse an anchor named 'cluster<i>' for some i in 0..k-1, the name of an unanchored cluster.

    i is ASCII digits without a leading zero, compared with k as a decimal
    string (by length, then by digit), so no name set or int is built.
    """
    for cluster_name in anchors:
        match = re.fullmatch("cluster(0|[1-9][0-9]*)", str(cluster_name))
        if match and (len(match[1]), match[1]) < (len(str(k)), str(k)):
            raise InvalidInput(f"anchor name {cluster_name!r} is reserved for an unanchored cluster at k={k}")


def check_wavelet_count(wavelet_names) -> None:
    """Refuse fewer than 2 wavelets, which give no co-occurrence to count."""
    if len(wavelet_names) < 2:
        raise InvalidInput("co-occurrence needs at least 2 wavelets")


def align_labels(model: ClusterModel, entity_ids, anchors: dict[str, str]) -> list[str]:
    """Name raw cluster indices through anchor entities.

    Every anchor entity must sit in its own cluster; two anchors sharing one
    raise AnchorCollision (such runs are reported, not repaired).  Clusters
    left without an anchor keep a neutral 'cluster<i>' name, so an anchor
    named 'cluster<i>' for some i in 0..k-1 is InvalidInput.
    """
    entity_ids = list(entity_ids)
    if len(entity_ids) != len(model.labels):
        raise InvalidInput(f"{len(entity_ids)} entity ids for {len(model.labels)} labels")
    check_anchor_names(anchors, model.k)
    index = {e: i for i, e in enumerate(entity_ids)}
    cluster_of: dict[str, int] = {}
    for cluster_name, entity in anchors.items():
        if entity not in index:
            raise InvalidInput(f"anchor entity {entity!r} not in panel")
        cluster_of[cluster_name] = int(model.labels[index[entity]])
    seen: dict[int, str] = {}
    for cluster_name, cluster in cluster_of.items():
        if cluster in seen:
            raise AnchorCollision(
                f"anchors {anchors[seen[cluster]]!r} and {anchors[cluster_name]!r} "
                f"share cluster {cluster}"
            )
        seen[cluster] = cluster_name
    naming = {cluster: name for name, cluster in cluster_of.items()}
    return [naming.get(int(lbl), f"cluster{int(lbl)}") for lbl in model.labels]


def _signatures(labels) -> tuple[np.ndarray, np.ndarray]:
    """Co-occurrence counts of an (n, W) label matrix, per distinct row.

    Returns (table, signature_of): the (s, s) int64 count of columns on
    which distinct rows a and b agree, and the (n,) index of each row's
    signature in the table.  Rows are sorted as opaque byte strings, which
    is cheaper than ``np.unique(axis=0)`` and keeps its ``numpy.ma`` import
    out of every ``stability`` run.
    """
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    n, w = labels.shape
    keys = labels.view(np.dtype((np.void, labels.itemsize * w))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    rows = labels[order[starts]]  # one row per signature, in byte order
    signature_of = np.empty(n, dtype=np.intp)
    signature_of[order] = np.cumsum(starts) - 1
    table = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for column in rows.T:
        table += column[:, None] == column[None, :]
    return table, signature_of


def co_occurrence(
    panel: TimeSeriesPanel, config: TrendRunConfig
) -> tuple[CoOccurrenceMatrix, list[WaveletRun]]:
    """Run every configured wavelet and count pairwise cluster agreement.

    A run whose anchors collide is marked and keeps ``cluster<i>`` names.
    """
    check_wavelet_count(config.wavelet_names)
    runs: list[WaveletRun] = []
    for name in config.wavelet_names:
        model, _ = run_single(panel, name, config)
        try:
            named, collision = align_labels(model, panel.entity_ids, config.anchors), False
        except AnchorCollision:
            named, collision = align_labels(model, panel.entity_ids, {}), True
        runs.append(WaveletRun(name, model, tuple(named), collision))
    table, signature_of = _signatures(np.stack([run.model.labels for run in runs], axis=1))
    table.flags.writeable = signature_of.flags.writeable = False
    matrix = CoOccurrenceMatrix(
        entity_ids=panel.entity_ids,
        signature_of=signature_of,
        table=table,
        n_wavelets=len(config.wavelet_names),
    )
    return matrix, runs


# The synthetic archetypes: the range of the total rise of 'increasing'
# and of 'stagnating' rows, the amplitude and day-of-year peak (mid July) of
# the annual sinusoid of 'seasonal' rows, the amplitude of the weekly
# pattern, the level every row starts from, and the panel's first date.
SLOPE_RANGE = (25.0, 60.0)
STAGNATING_SLOPE_RANGE = (-10.0, 0.0)
SEASONAL_AMPLITUDE = 30.0
SEASONAL_PEAK_DOY = 196
WEEKLY_AMPLITUDE = 5.0
BASE_LEVEL = 100.0
START_DATE = dt.date(2017, 1, 1)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic daily-sales panel with planted trends.

    Three archetypes: 'increasing' rows drift up by a total rise drawn from
    ``SLOPE_RANGE``; 'stagnating' rows drift by a zero-or-negative total
    drawn from ``STAGNATING_SLOPE_RANGE``; 'seasonal' rows follow an annual
    sinusoid peaking around day-of-year ``SEASONAL_PEAK_DOY``.  The two
    drifting archetypes carry a 7-day sales pattern of amplitude
    ``WEEKLY_AMPLITUDE``; all rows get i.i.d. Gaussian noise.  The panel
    starts on ``START_DATE``.
    """

    n_days: int = 846
    n_increasing: int = 20
    n_stagnating: int = 20
    n_seasonal: int = 20
    noise_sigma: float = 8.0
    seed: int = 42

    def __post_init__(self):
        for name, minimum in (
            ("n_days", 64), ("n_increasing", 1), ("n_stagnating", 1), ("n_seasonal", 1), ("seed", 0)
        ):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, minimum))
        span = (dt.date.max - START_DATE).days + 1
        if self.n_days > span:
            raise InvalidInput(
                f"n_days must be <= {span} to end by {dt.date.max} from {START_DATE}, got {self.n_days}"
            )
        if as_array(self.noise_sigma, "noise_sigma", 0) < 0:
            raise InvalidInput(f"noise_sigma must be non-negative, got {self.noise_sigma}")


def generate_synthetic(spec: SyntheticSpec) -> tuple[TimeSeriesPanel, list[str]]:
    """Build the panel and its planted archetype labels, deterministically.

    Each row is drawn and written straight into the one (entities x days)
    matrix the panel keeps, so besides the panel it holds a row's
    temporaries and the finiteness mask of the panel's check.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed))
    n = spec.n_days
    t = np.arange(n, dtype=np.float64)
    ramp = t / (n - 1)
    weekly = WEEKLY_AMPLITUDE * np.sin(2.0 * np.pi * (t % 7) / 7.0)
    dates = [START_DATE + dt.timedelta(days=int(i)) for i in range(n)]
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    annual = np.cos(2.0 * np.pi * (doy - SEASONAL_PEAK_DOY) / 365.25)

    counts = (spec.n_increasing, spec.n_stagnating, spec.n_seasonal)
    planted = [archetype for archetype, count in zip(ARCHETYPES, counts) for _ in range(count)]
    values = np.empty((len(planted), n))
    for row, archetype in zip(values, planted):
        noise = rng.normal(0.0, spec.noise_sigma, n)
        if archetype == "increasing":
            rise = rng.uniform(*SLOPE_RANGE)
            row[:] = BASE_LEVEL + rise * ramp + weekly + noise
        elif archetype == "stagnating":
            rise = rng.uniform(*STAGNATING_SLOPE_RANGE)
            row[:] = BASE_LEVEL + rise * ramp + weekly + noise
        else:
            row[:] = BASE_LEVEL + SEASONAL_AMPLITUDE * annual + noise
    if not np.all(np.isfinite(values)):
        raise InvalidInput(f"noise_sigma={spec.noise_sigma} draws a panel with non-finite values")
    total = len(planted)
    width = max(2, len(str(total)))
    ids = tuple(f"shop{i + 1:0{width}d}" for i in range(total))
    panel = TimeSeriesPanel(
        entity_ids=ids, dates=tuple(dates), values=values, normalized=False
    )
    return panel, planted
