"""Workload definitions shared by run.py and the benchmark's child processes.

A workload is one input scale. Each round of a workload runs the CLI
walkthrough (one process per command) on the workload's panel CSV, then one
fresh process that calls the public Python API on an in-memory panel: a
k-means fit at k = 10 and at k = 3, and a coefficient map that reconstructs
every (c0, d0, d1) coefficient of every wavelet on a set of entities.

Nothing here imports trendlet at module level, so a child process can time
the package import itself.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

PROGRAM_SEED = 42  # the program's own --seed; input seeds come from the benchmark's --seed
BOM_SEED = 0  # the BOM panel does not depend on --seed, so its failure is the same every run
FIT_WAVELET = "db3"  # 6 taps: 40 coarse coefficients at 846 days
COEF_POOL = 60  # entities of the coefficient map; every paper entity is one
FEATURE_SAMPLE = 5
BOM_MESSAGE = "header must be 'date,<entity>,...'"


@dataclass(frozen=True)
class Workload:
    name: str
    cli_per_archetype: int  # entities per planted archetype in the CLI panel
    api_per_archetype: int  # same for each in-memory API panel
    api_panels: int  # API panels per round, each drawn afresh; k-means time depends on the data
    fit_reps: int  # run_single calls per k per panel per round
    bom_case: bool  # add the known-failing `cluster` on a BOM-prefixed panel


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", cli_per_archetype=20, api_per_archetype=20, api_panels=1, fit_reps=5, bom_case=True),
        Workload("large", cli_per_archetype=200, api_per_archetype=1000, api_panels=2, fit_reps=1, bom_case=False),
    )
}


@dataclass(frozen=True)
class CliOp:
    tag: str  # output directory name, unique within a round
    metric: str  # end-to-end metric its wall time feeds; "" keeps the op out of every figure
    argv: tuple[str, ...]
    known_failure: str = ""  # stderr text of the expected failure


def _spec(per_archetype: int, seed: int):
    from trendlet import pipeline

    return pipeline.SyntheticSpec(
        n_increasing=per_archetype,
        n_stagnating=per_archetype,
        n_seasonal=per_archetype,
        seed=seed,
    )


def build_inputs(wl: Workload, seed: int, rundir: Path):
    """Write the CLI inputs under ``rundir`` and return the in-memory API inputs."""
    from trendlet import pipeline, preprocess

    panel, planted = pipeline.generate_synthetic(_spec(wl.cli_per_archetype, seed))
    preprocess.emit_csv(panel, rundir / "panel.csv")
    meta = {"entities": list(panel.entity_ids), "planted": planted}
    if wl.bom_case:
        bom, bom_planted = pipeline.generate_synthetic(_spec(20, BOM_SEED))
        buf = io.StringIO()
        preprocess.emit_csv(bom, buf)
        with open(rundir / "panel_bom.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("\ufeff" + buf.getvalue())
        meta["bom_entities"] = list(bom.entity_ids)
        meta["bom_planted"] = bom_planted
    (rundir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return build_api_inputs(wl, seed, 0)


def build_api_inputs(wl: Workload, seed: int, round_no: int):
    """([(normalized panel, planted labels)] per API panel, coefficient map pool) of one round.

    Every round draws new panels from (``seed``, ``round_no``), so a run's
    timings average over several inputs; the pool holds row indices of panel 0.
    """
    from trendlet import pipeline, preprocess

    problems = []
    for i in range(wl.api_panels):
        sub_seed = int(np.random.SeedSequence(seed, spawn_key=(round_no, i)).generate_state(1)[0])
        panel, planted = pipeline.generate_synthetic(_spec(wl.api_per_archetype, sub_seed))
        problems.append((preprocess.normalize(panel), planted))
    pool = np.random.default_rng([seed, round_no]).permutation(problems[0][0].n_entities)[:COEF_POOL]
    return problems, pool


def reconstruct_entity(wl: Workload, meta: dict) -> str:
    return meta["entities"][2 * wl.cli_per_archetype]  # the first seasonal entity


def cli_ops(wl: Workload, rundir: Path, meta: dict) -> list[CliOp]:
    """The CLI walkthrough of one round, in order."""
    panel = str(rundir / "panel.csv")
    seed = ("--seed", str(PROGRAM_SEED))
    entity = reconstruct_entity(wl, meta)

    def out(tag):
        return ("--outdir", str(rundir / tag))

    ops = [
        CliOp("cluster", "cluster_s", ("cluster", "--input", panel, *seed, *out("cluster"))),
        CliOp(
            "stability",
            "stability_s",
            ("stability", "--input", panel, "--wavelets", "all", *seed, *out("stability")),
        ),
        CliOp("pca", "pca_s", ("pca", "--input", panel, *seed, *out("pca"))),
    ]
    for tag, mode in (
        ("rec_levels2", "levels:2"),
        ("rec_levelsmax", "levels:max"),
        ("rec_single", "single:detail,1,3"),
    ):
        ops.append(
            CliOp(
                tag,
                "reconstruct_s",
                ("reconstruct", "--input", panel, "--entity", entity, "--mode", mode, *out(tag)),
            )
        )
    if wl.bom_case:
        bom = str(rundir / "panel_bom.csv")
        ops.append(
            CliOp("cluster_bom", "", ("cluster", "--input", bom, *seed, *out("cluster_bom")), BOM_MESSAGE)
        )
    return ops


def check_cli_outputs(rundir: Path, ops: list[CliOp], ok_tags: set[str], meta: dict, z: np.ndarray) -> list[str]:
    """Check every output of the ops that exited 0; ``z`` is the benchmark's own z-score
    of the reconstructed entity's panel column."""
    errors: list[str] = []
    if "cluster" in ok_tags:
        errors += checks.check_cluster(rundir / "cluster", meta["entities"], meta["planted"])
    if "cluster_bom" in ok_tags:
        errors += checks.check_cluster(rundir / "cluster_bom", meta["bom_entities"], meta["bom_planted"])
    if {"cluster", "pca"} <= ok_tags:
        errors += checks.check_lloyd_fixed_point(rundir / "pca", rundir / "cluster")
    if "pca" in ok_tags:
        errors += checks.check_pca(rundir / "pca")
    if "stability" in ok_tags:
        errors += checks.check_cooccurrence(rundir / "stability")
    for op in ops:
        if op.tag.startswith("rec_") and op.tag in ok_tags:
            errors += checks.check_reconstruction(rundir / op.tag, z, full=op.tag == "rec_levelsmax")
    return errors


def api_round(problems, pool, fit_reps: int, sample_seed: int) -> dict:
    """One round of the API operations, each timed; outputs are checked after timing."""
    from trendlet import dwt, filterbank, pipeline

    result = {"attempted": 0, "failed": 0, "errors": [], "failures": [], "run_single_s": [],
              "reconstructions_per_s": None}
    wf = filterbank.get_filter(FIT_WAVELET)
    for p, (normalized, planted) in enumerate(problems):
        fits = {}
        for k in (10, 3):
            config = pipeline.TrendRunConfig(wavelet_names=(FIT_WAVELET,), k=k, seed=PROGRAM_SEED)
            for _ in range(fit_reps):
                result["attempted"] += 1
                try:
                    start = time.perf_counter()
                    fits[k] = pipeline.run_single(normalized, FIT_WAVELET, config)
                    if k == 10:
                        result["run_single_s"].append(time.perf_counter() - start)
                except Exception as exc:  # an operation that fails is counted, not fatal
                    result["failed"] += 1
                    result["failures"].append(f"panel {p} run_single k={k}: {exc!r}")
        sample = np.random.default_rng(sample_seed).choice(normalized.n_entities, size=FEATURE_SAMPLE, replace=False)
        for k, (model, features) in fits.items():
            errors = checks.check_features(features, normalized.values, sample, wf.dec_lo, wf.dec_hi)
            errors += checks.check_assignment(features, model.centroids, model.labels, model.inertia)
            if k == 3:
                errors += checks.check_ari(model.labels, planted, f"run_single k=3 {FIT_WAVELET}")
            result["errors"] += [f"panel {p} k={k}: {e}" for e in errors]

    result["attempted"] += 1
    try:
        calls, seconds, errors = coefficient_map(dwt, problems[0][0].values[pool], filterbank.WAVELET_ORDER)
        result["reconstructions_per_s"] = calls / seconds
        result["reconstructions"] = calls
        result["errors"] += errors
    except Exception as exc:
        result["failed"] += 1
        result["failures"].append(f"coefficient map: {exc!r}")
    return result


def coefficient_map(dwt, series_rows, wavelets):
    """Reconstruct every (c0, d0, d1) coefficient on its own, for every row and wavelet.

    Returns (number of single reconstructions, seconds spent in the program's
    calls, errors). Each (row, wavelet) is checked as soon as its timed part
    ends, so no result is held and the checks stay out of the time.
    """
    calls, seconds, errors = 0, 0.0, []
    for series in series_rows:
        for name in wavelets:
            start = time.perf_counter()
            coeffs = dwt.decompose(series, name)
            total = np.zeros_like(series)
            for band, level, length in (
                ("approx", 0, len(coeffs.approx)),
                ("detail", 0, len(coeffs.details[0])),
                ("detail", 1, len(coeffs.details[1])),
            ):
                for pos in range(length):
                    total += dwt.reconstruct_single(coeffs, dwt.CoefficientIndex(band, level, pos))
                    calls += 1
            smooth = dwt.reconstruct(dwt.truncate_to_level(coeffs, 2))
            seconds += time.perf_counter() - start
            sum_err = float(np.abs(total - smooth).max())
            if sum_err > 1e-8:
                errors.append(f"{name}: single reconstructions miss the levels:2 smooth by {sum_err:.3g}")
            full_err = float(np.abs(dwt.reconstruct(coeffs) - series).max())
            if full_err > 1e-8:
                errors.append(f"{name}: levels:max misses the input by {full_err:.3g}")
    return calls, seconds, errors
