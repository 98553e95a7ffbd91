"""Command-line interface.

Subcommands: synth, cluster, stability, reconstruct, pca, filters dump.
Every run is deterministic given its flags; the seed (a non-negative
integer) defaults to the TRENDLET_SEED environment variable, then 42.
Numeric CSV cells carry 17 significant digits so files round-trip
bit-exactly, and SVG output embeds no timestamps.  Each per-entity fact
(labels, co-occurrence) is written once, to a CSV; stability_report.json
holds the run's config, n_entities and each wavelet's inertia, iteration
count and anchor collision, so no JSON report grows with the panel.

Exit codes: 0 success, 2 usage error (bad flags or seed from argparse,
``UnknownWavelet``), 3 data error (``ParseError``: a malformed or gappy
CSV; an unreadable file), 4 numeric or degenerate error
(``InvalidInput``: degenerate series, out-of-range arguments or
coefficients, a series too short for its wavelet, ...).  Each error class
in ``errors`` carries its code as ``exit_code``, and an ``OSError`` exits
with ``ParseError``'s, so each code is written once, in ``errors``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import dwt, filterbank, pca, pipeline, preprocess, svgplot
from .errors import ParseError, TrendletError

__all__ = ["main", "build_parser"]


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer (--seed or $TRENDLET_SEED), got {text!r}"
        )
    return seed


def _parse_anchors(text: str) -> dict[str, str]:
    anchors: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"bad anchor {part!r}, expected <cluster>=<entity>"
            )
        name, entity = part.split("=", 1)
        name, entity = name.strip(), entity.strip()
        if not name or not entity:
            raise argparse.ArgumentTypeError(f"bad anchor {part!r}")
        if name in anchors:
            raise argparse.ArgumentTypeError(f"duplicate anchor name {name!r}")
        anchors[name] = entity
    if not anchors:
        raise argparse.ArgumentTypeError("empty anchor list")
    return anchors


def _parse_wavelets(text: str) -> tuple[str, ...]:
    if text.strip().lower() == "all":
        return filterbank.WAVELET_ORDER
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise argparse.ArgumentTypeError("empty wavelet list")
    return names


def _outdir(args) -> Path:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = preprocess.csv_writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def _write_keyed_csv(path: Path, header, rows) -> None:
    """CSV of (key, text) rows, each the line ``key,text``.

    ``text`` holds the fields after the key, already joined by commas, none
    of them needing quotes; the key is quoted by the ``csv_writer`` rules of
    ``_write_csv``, so the bytes are those of writing ``[key, *fields]``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        preprocess.csv_writer(fh).writerow(header)
        write_key = preprocess.csv_writer(fh, end="").writerow  # the key, then a comma
        for key, text in rows:
            write_key((key, ""))
            fh.write(text)
            fh.write("\n")
    print(f"wrote {path}")


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _write_svg(path: Path, svg: str) -> None:
    svgplot.write_svg(path, svg)
    print(f"wrote {path}")


def _load_run(args) -> tuple[preprocess.TimeSeriesPanel, pipeline.TrendRunConfig]:
    """Normalized panel and run config of a cluster, stability or pca command.

    The config, and stability's count of wavelets, are checked first, so a
    bad config is reported before the panel is read.
    """
    config = pipeline.TrendRunConfig(
        wavelet_names=getattr(args, "wavelets", None) or (args.wavelet,),
        k=args.k,
        anchors=args.anchors,
        seed=args.seed,
        n_restarts=args.restarts,
    )
    if hasattr(args, "wavelets"):
        pipeline.check_wavelet_count(config.wavelet_names)
    panel = preprocess.normalize(
        preprocess.ingest_csv(args.input), drop_degenerate=args.drop_degenerate
    )
    return panel, config


def _entity_order(entity_ids, labels):
    return sorted(range(len(entity_ids)), key=lambda i: (labels[i], entity_ids[i]))


def _signature_order(entity_ids, labels, signature_of):
    """Entity positions by cluster name, then signature rank, then entity id.

    Within a cluster, larger signatures come first and signatures of equal
    size follow their row of the co-occurrence table, which is byte order,
    so the order never depends on hash order.  A signature holds one label
    per wavelet, so all its entities share a cluster and sit next to each
    other.
    """
    sigs = signature_of.tolist()
    sizes = Counter(sigs)
    return sorted(
        range(len(entity_ids)),
        key=lambda i: (labels[i], -sizes[sigs[i]], sigs[i], entity_ids[i]),
    )


# ---------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    spec = pipeline.SyntheticSpec(
        n_days=args.days,
        n_increasing=args.increasing,
        n_stagnating=args.stagnating,
        n_seasonal=args.seasonal,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    panel, planted = pipeline.generate_synthetic(spec)
    outdir = _outdir(args)
    panel_path = outdir / "panel.csv"
    labels_path = outdir / "planted_labels.csv"
    preprocess.emit_csv(panel, panel_path)
    print(f"wrote {panel_path} ({panel.n_entities} entities x {panel.n_days} days)")
    _write_csv(labels_path, ["entity", "archetype"], zip(panel.entity_ids, planted))
    return 0


# ---------------------------------------------------------------- cluster

def _cmd_cluster(args) -> int:
    panel, config = _load_run(args)
    model, features = pipeline.run_single(panel, args.wavelet, config)
    named = pipeline.align_labels(model, panel.entity_ids, config.anchors)
    outdir = _outdir(args)
    _write_csv(
        outdir / "cluster_labels.csv",
        ["entity", "cluster", "name"],
        zip(panel.entity_ids, model.labels.tolist(), named),
    )
    wf = filterbank.get_filter(args.wavelet)
    lengths = dwt.band_lengths(panel.n_days, wf.filter_length)
    report = {
        "wavelet": wf.name,
        "filter_length": wf.filter_length,
        "k": config.k,
        "seed": config.seed,
        "n_restarts": model.n_restarts,
        "n_iter": model.n_iter,
        "inertia": model.inertia,
        "n_entities": panel.n_entities,
        "n_days": panel.n_days,
        "levels": len(lengths) - 1,
        # bands c0, d0, d1, ..., d_{J-1}; c0 and d0 share the coarsest length
        "band_lengths_coarse_to_fine": [lengths[0], *lengths[:-1]],
        "feature_length": int(features.shape[1]),
        "anchors": config.anchors,
    }
    _write_json(outdir / "cluster_report.json", report)
    return 0


# ---------------------------------------------------------------- stability

def _cmd_stability(args) -> int:
    panel, config = _load_run(args)
    matrix, runs = pipeline.co_occurrence(panel, config)
    reference = next((run for run in runs if not run.anchor_collision), runs[0])
    order = _signature_order(panel.entity_ids, reference.named_labels, matrix.signature_of)
    ordered_ids = [panel.entity_ids[i] for i in order]

    # An entity's row is its signature's row of the table, so each distinct
    # row is built and formatted once, and the rows of one signature are one
    # list object side by side: the heatmap draws one block per signature.
    # Every cell is c / W for a count c in 0..W, formatted once each.
    w = matrix.n_wavelets
    sigs = matrix.signature_of[order].tolist()
    sig_rows = matrix.table[:, sigs].tolist()
    cell = [f"{c / w:.17g}" for c in range(w + 1)]
    sig_texts = [",".join(map(cell.__getitem__, row)) for row in sig_rows]
    outdir = _outdir(args)
    _write_keyed_csv(
        outdir / "cooccurrence.csv",
        ["entity", *ordered_ids],
        zip(ordered_ids, map(sig_texts.__getitem__, sigs)),
    )
    _write_csv(
        outdir / "wavelet_labels.csv",
        ["entity", *(run.wavelet_name for run in runs)],
        [[panel.entity_ids[i], *(run.named_labels[i] for run in runs)] for i in order],
    )
    if args.plot_format == "svg":
        _write_svg(
            outdir / "cooccurrence.svg",
            # (c - 0.0) / (W - 0.0) is the same division as c / W, so counts
            # on a 0..W scale take the colours of the fractions on 0..1
            svgplot.heatmap(
                [sig_rows[a] for a in sigs],
                ordered_ids,
                ordered_ids,
                title="cluster co-occurrence across wavelets",
                vmin=0.0,
                vmax=float(w),
            ),
        )
    report = {
        "k": config.k,
        "seed": config.seed,
        "n_restarts": config.n_restarts,
        "anchors": config.anchors,
        "n_wavelets": matrix.n_wavelets,
        "n_entities": panel.n_entities,
        "wavelets": [
            {
                "name": run.wavelet_name,
                "inertia": run.model.inertia,
                "n_iter": run.model.n_iter,
                "anchor_collision": run.anchor_collision,
            }
            for run in runs
        ],
    }
    _write_json(outdir / "stability_report.json", report)
    collisions = [r.wavelet_name for r in runs if r.anchor_collision]
    if collisions:
        print(f"anchor collisions (left unnamed): {', '.join(collisions)}")
    return 0


# ---------------------------------------------------------------- reconstruct

def _parse_mode(text: str):
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "levels":
        if rest.strip().lower() in ("max", "full"):
            return ("levels", None)
        try:
            return ("levels", int(rest))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad levels mode {text!r}") from None
    if head == "single":
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) != 3 or parts[0] not in ("approx", "detail"):
            raise argparse.ArgumentTypeError(
                f"bad single mode {text!r}, expected single:<approx|detail>,<level>,<pos>"
            )
        try:
            return ("single", (parts[0], int(parts[1]), int(parts[2])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad single mode {text!r}") from None
    raise argparse.ArgumentTypeError("mode must be levels:<m> or single:<band>,<level>,<pos>")


def _cmd_reconstruct(args) -> int:
    # only the entity's column is parsed as numbers; the rest of the panel is still checked
    one = preprocess.normalize(preprocess.ingest_csv(args.input, entity=args.entity))
    series = one.values[0]
    coeffs = dwt.decompose(series, args.wavelet)
    kind, detail = args.mode
    if kind == "levels":
        keep = coeffs.levels if detail is None else detail
        rec = dwt.reconstruct(dwt.truncate_to_level(coeffs, keep))
        label = f"levels:{keep}"
    else:
        band, level, pos = detail
        rec = dwt.reconstruct_single(coeffs, dwt.CoefficientIndex(band, level, pos))
        label = f"single:{band},{level},{pos}"
    outdir = _outdir(args)
    _write_csv(
        outdir / "reconstruction.csv",
        ["date", "normalized", "reconstruction"],
        [(day.isoformat(), _fmt(v), _fmt(r)) for day, v, r in zip(one.dates, series, rec)],
    )
    if args.plot_format == "svg":
        _write_svg(
            outdir / "reconstruction.svg",
            svgplot.line_chart(
                [
                    ("normalized", series.tolist(), "#bbbbbb"),
                    (label, rec.tolist(), "#d62728"),
                ],
                title=f"{args.entity} under {coeffs.wavelet_name} ({label})",
            ),
        )
    return 0


# ---------------------------------------------------------------- pca

def _cmd_pca(args) -> int:
    panel, config = _load_run(args)
    model, features = pipeline.run_single(panel, args.wavelet, config)
    named = pipeline.align_labels(model, panel.entity_ids, config.anchors)
    pca_model = pca.pca_fit(features, 2)
    wf = filterbank.get_filter(args.wavelet)
    names = dwt.coefficient_names(panel.n_days, wf.filter_length)
    score_rows, loading_rows = pca.biplot_data(pca_model, names, named, panel.entity_ids)

    outdir = _outdir(args)
    _write_csv(
        outdir / "pca_scores.csv",
        ["entity", "pc1", "pc2", "cluster"],
        [(e, _fmt(x), _fmt(y), lbl) for e, x, y, lbl in score_rows],
    )
    _write_csv(
        outdir / "pca_loadings.csv",
        ["coefficient", "pc1", "pc2"],
        [(name, _fmt(x), _fmt(y)) for name, x, y in loading_rows],
    )
    _write_csv(
        outdir / "pca_coefficients.csv",
        ["entity", *names],
        [(entity, *map(_fmt, row)) for entity, row in zip(panel.entity_ids, features)],
    )
    if args.plot_format == "svg":
        _write_svg(
            outdir / "pca_biplot.svg",
            svgplot.biplot(score_rows, loading_rows, title=f"{wf.name} coefficient biplot"),
        )
        # per-coefficient z-scores across entities make rows comparable
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0] = 1.0
        zscores = (features - mean) / std
        order = _entity_order(panel.entity_ids, named)
        _write_svg(
            outdir / "pca_coefficients.svg",
            svgplot.heatmap(
                zscores[order].tolist(),
                [panel.entity_ids[i] for i in order],
                names,
                title=f"{wf.name} coefficients (z-scored per coefficient)",
            ),
        )
    return 0


# ---------------------------------------------------------------- filters

def _cmd_filters_dump(args) -> int:
    rows = filterbank.list_filters(args.days)
    writer = preprocess.csv_writer(sys.stdout)
    writer.writerow(["wavelet", "filter_length", f"selected_coefficients_n{args.days}"])
    writer.writerows(rows)
    return 0


# ---------------------------------------------------------------- parser

def _add_common(sub, *, wavelet=True, seed=True, plot=True):
    sub.add_argument("--outdir", default=".", help="output directory (default: .)")
    if wavelet:
        sub.add_argument("--wavelet", default="sym2", help="wavelet name (default: sym2)")
    if seed:
        # argparse passes a string default through `type` too, so a bad
        # $TRENDLET_SEED is a usage error like a bad --seed
        sub.add_argument(
            "--seed",
            type=_seed,
            default=os.environ.get("TRENDLET_SEED", "42"),
            help="RNG seed (default: $TRENDLET_SEED, then 42)",
        )
    if plot:
        sub.add_argument("--plot-format", choices=("svg", "csv"), default="svg")


def _add_run_options(sub):
    """Options of the clustering commands: cluster, stability and pca."""
    sub.add_argument("--input", required=True, help="panel CSV (date,<entity>,...)")
    sub.add_argument("--k", type=int, default=3, help="number of clusters (default: 3)")
    sub.add_argument("--restarts", type=int, default=10, help="k-means restarts")
    sub.add_argument(
        "--anchors",
        type=_parse_anchors,
        default=None,
        help="cluster naming, e.g. increasing=shop51,stagnating=shop01,special=shop02",
    )
    sub.add_argument(
        "--drop-degenerate",
        action="store_true",
        help="drop degenerate (e.g. constant) series instead of aborting",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendlet",
        description="Cluster daily time series by long-horizon trend via coarse "
        "wavelet coefficients.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_synth = subs.add_parser("synth", help="generate a synthetic panel with planted trends")
    p_synth.add_argument("--days", type=int, default=846, help="number of days (>= 64)")
    p_synth.add_argument("--increasing", type=int, default=20, help="entities drifting up")
    p_synth.add_argument("--stagnating", type=int, default=20, help="entities drifting flat/down")
    p_synth.add_argument("--seasonal", type=int, default=20, help="entities with summer peaks")
    p_synth.add_argument("--noise-sigma", type=float, default=8.0, help="daily noise sigma")
    _add_common(p_synth, wavelet=False, plot=False)
    p_synth.set_defaults(func=_cmd_synth)

    p_cluster = subs.add_parser("cluster", help="cluster one wavelet's coarse coefficients")
    _add_run_options(p_cluster)
    _add_common(p_cluster, plot=False)
    p_cluster.set_defaults(func=_cmd_cluster)

    p_stab = subs.add_parser("stability", help="co-occurrence of clusters across wavelets")
    _add_run_options(p_stab)
    p_stab.add_argument(
        "--wavelets",
        type=_parse_wavelets,
        default=filterbank.WAVELET_ORDER,
        help="comma list of wavelets or 'all' (default: all 15)",
    )
    _add_common(p_stab, wavelet=False)
    p_stab.set_defaults(func=_cmd_stability)

    p_rec = subs.add_parser("reconstruct", help="reconstruct a series from selected coefficients")
    p_rec.add_argument("--input", required=True, help="panel CSV")
    p_rec.add_argument("--entity", required=True, help="entity id to reconstruct")
    p_rec.add_argument(
        "--mode",
        type=_parse_mode,
        default=("levels", 2),
        help="levels:<m> (or levels:max) or single:<approx|detail>,<level>,<pos> "
        "(default: levels:2)",
    )
    _add_common(p_rec, seed=False)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_pca = subs.add_parser("pca", help="biplot of entities and coefficient axes")
    _add_run_options(p_pca)
    _add_common(p_pca)
    p_pca.set_defaults(func=_cmd_pca)

    p_filters = subs.add_parser("filters", help="filter registry utilities")
    f_subs = p_filters.add_subparsers(dest="filters_command", required=True)
    p_dump = f_subs.add_parser("dump", help="emit the wavelet table as CSV on stdout")
    p_dump.add_argument("--days", type=int, default=846, help="series length for the count column")
    p_dump.set_defaults(func=_cmd_filters_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrendletError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ParseError.exit_code


if __name__ == "__main__":
    sys.exit(main())
