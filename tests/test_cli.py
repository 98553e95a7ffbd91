import csv
import dataclasses
import io
import json
import os
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from trendlet import cli, errors, pipeline, preprocess, svgplot

from conftest import HEATMAP_PATH, expand, subpaths


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli(["synth", "--outdir", out, "--seed", 42]) == 0
    return out


# ---------------------------------------------------------------- synth

def test_synth_default_shape(synth_dir):
    panel = preprocess.ingest_csv(synth_dir / "panel.csv")
    assert panel.values.shape == (60, 846)
    labels = read_rows(synth_dir / "planted_labels.csv")
    assert labels[0] == ["entity", "archetype"]
    assert len(labels) == 61


def test_synth_seed_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["synth", "--outdir", a, "--seed", 7, "--days", 256,
                    "--increasing", 2, "--stagnating", 2, "--seasonal", 2]) == 0
    assert run_cli(["synth", "--outdir", b, "--seed", 7, "--days", 256,
                    "--increasing", 2, "--stagnating", 2, "--seasonal", 2]) == 0
    assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()
    assert (a / "planted_labels.csv").read_bytes() == (b / "planted_labels.csv").read_bytes()


def test_synth_too_few_days(tmp_path, capsys):
    assert run_cli(["synth", "--outdir", tmp_path, "--days", 10]) == 4
    assert "64" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_synth_bad_noise_sigma(tmp_path, capsys, sigma):
    assert run_cli(["synth", "--outdir", tmp_path, "--noise-sigma", sigma]) == 4
    assert "noise_sigma" in capsys.readouterr().err
    assert not (tmp_path / "panel.csv").exists()


def test_synth_noise_sigma_that_overflows(tmp_path, capsys):
    assert run_cli(["synth", "--outdir", tmp_path, "--days", 64, "--increasing", 1,
                    "--stagnating", 1, "--seasonal", 1, "--noise-sigma", "1e308"]) == 4
    assert "noise_sigma=1e+308" in capsys.readouterr().err
    assert not (tmp_path / "panel.csv").exists()


def test_synth_days_past_the_calendar(tmp_path, capsys):
    assert run_cli(["synth", "--outdir", tmp_path, "--days", 10**20]) == 4
    err = capsys.readouterr().err
    assert "n_days must be <= 2915730 to end by 9999-12-31 from 2017-01-01" in err
    assert "Traceback" not in err
    assert not (tmp_path / "panel.csv").exists()


def test_over_long_csv_field_exits_3(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    days = [f"2020-01-{d:02d}" for d in range(1, 31)]
    path.write_text("date,a,b\n" + "".join(f"{day},{j},{j % 7}\n" for j, day in enumerate(days))
                    + f"2020-01-31,{'1' + '0' * 200_000},5\n")
    assert run_cli(["cluster", "--input", path, "--outdir", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert "row 32: field larger than field limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cluster", "reconstruct"])
def test_repeated_last_calendar_day_exits_3(tmp_path, capsys, command):
    path = tmp_path / "panel.csv"
    path.write_text("date,a\n9999-12-31,1\n9999-12-31,2\n")
    extra = ["--entity", "a"] if command == "reconstruct" else []
    assert run_cli([command, "--input", path, *extra, "--outdir", tmp_path / "out"]) == 3
    assert capsys.readouterr().err == "error: row 3: date 9999-12-31 not after 9999-12-31\n"


@pytest.mark.parametrize("command", ["cluster", "reconstruct"])
def test_non_utf8_input_exits_3(tmp_path, capsys, command):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"date,a\n2020-01-01,\xff\n")
    extra = ["--entity", "a"] if command == "reconstruct" else []
    assert run_cli([command, "--input", path, *extra, "--outdir", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert err == "error: input is not utf-8 text: byte 0xff at offset 18 (invalid start byte)\n"


def test_seed_env_var_default(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("TRENDLET_SEED", "7")
    assert run_cli(["synth", "--outdir", a, "--days", 256,
                    "--increasing", 2, "--stagnating", 2, "--seasonal", 2]) == 0
    monkeypatch.delenv("TRENDLET_SEED")
    assert run_cli(["synth", "--outdir", b, "--seed", 7, "--days", 256,
                    "--increasing", 2, "--stagnating", 2, "--seasonal", 2]) == 0
    assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()


@pytest.mark.parametrize(
    "env_seed, argv",
    [
        ("abc", ["synth"]),
        (None, ["synth", "--seed", "-1"]),
        (None, ["cluster", "--input", "panel.csv", "--seed", "-3"]),
    ],
    ids=["env-not-a-number", "synth-negative", "cluster-negative"],
)
def test_bad_seed_is_usage_error(tmp_path, monkeypatch, capsys, env_seed, argv):
    if env_seed is None:
        monkeypatch.delenv("TRENDLET_SEED", raising=False)
    else:
        monkeypatch.setenv("TRENDLET_SEED", env_seed)
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--outdir", tmp_path])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------- cluster

def test_cluster_report_and_labels(synth_dir, tmp_path):
    out = tmp_path / "cluster"
    code = run_cli([
        "cluster", "--input", synth_dir / "panel.csv", "--wavelet", "sym2",
        "--k", 3, "--seed", 42, "--outdir", out,
        "--anchors", "increasing=shop01,stagnating=shop21,special=shop41",
    ])
    assert code == 0
    report = json.loads((out / "cluster_report.json").read_text())
    assert report["feature_length"] == 21
    assert report["levels"] == 8
    assert report["band_lengths_coarse_to_fine"][:3] == [6, 6, 9]
    assert report["n_days"] == 846
    rows = read_rows(out / "cluster_labels.csv")
    assert rows[0] == ["entity", "cluster", "name"]
    assert len(rows) == 61
    names = {row[2] for row in rows[1:]}
    assert names == {"increasing", "stagnating", "special"}


def test_cluster_without_anchors_uses_neutral_names(synth_dir, tmp_path):
    out = tmp_path / "plain"
    assert run_cli(["cluster", "--input", synth_dir / "panel.csv", "--seed", 42,
                    "--outdir", out]) == 0
    rows = read_rows(out / "cluster_labels.csv")
    names = {row[2] for row in rows[1:]}
    assert names == {"cluster0", "cluster1", "cluster2"}


def test_cluster_unknown_wavelet(synth_dir, tmp_path, capsys):
    code = run_cli(["cluster", "--input", synth_dir / "panel.csv",
                    "--wavelet", "nope", "--outdir", tmp_path])
    assert code == 2
    assert "unknown wavelet" in capsys.readouterr().err


def test_cluster_anchor_collision(synth_dir, tmp_path, capsys):
    code = run_cli([
        "cluster", "--input", synth_dir / "panel.csv", "--outdir", tmp_path,
        "--anchors", "a=shop01,b=shop02",  # same planted cluster
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "shop01" in err and "shop02" in err


@pytest.mark.parametrize("command, anchors", [
    ("cluster", "cluster1=shop01"),
    ("stability", "cluster1=shop01"),
    ("stability", "cluster1=shop01,b=shop02"),  # a run whose anchors collide refuses it too
])
def test_anchor_named_like_an_unanchored_cluster_is_refused(synth_dir, tmp_path, capsys, command, anchors):
    # left unchecked, shop01's cluster and raw cluster 1 would both be named cluster1
    argv = [command, "--input", synth_dir / "panel.csv", "--outdir", tmp_path / "out", "--anchors", anchors]
    assert run_cli(argv + (["--wavelets", "haar,db2,db3"] if command == "stability" else [])) == 4
    assert capsys.readouterr().err == "error: anchor name 'cluster1' is reserved for an unanchored cluster at k=3\n"


def test_reserved_anchor_name_is_refused_before_the_panel_is_read(tmp_path, capsys):
    # the rule needs only k and the anchor names, so a bad config wins over a missing panel
    argv = ["cluster", "--input", tmp_path / "missing.csv", "--outdir", tmp_path / "out",
            "--anchors", "cluster1=shop01"]
    assert run_cli(argv) == 4
    assert capsys.readouterr().err == "error: anchor name 'cluster1' is reserved for an unanchored cluster at k=3\n"


def test_cluster_missing_input(tmp_path, capsys):
    code = run_cli(["cluster", "--input", tmp_path / "missing.csv", "--outdir", tmp_path])
    assert code == 3


def test_cluster_degenerate_series(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    rows = ["date,a,b"] + [f"2020-01-{d:02d},5,{d}" for d in range(1, 31)]
    path.write_text("\n".join(rows) + "\n")
    run_dir = tmp_path / "out"
    assert run_cli(["cluster", "--input", path, "--wavelet", "haar", "--k", 2,
                    "--outdir", run_dir]) == 4
    assert "a" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cluster", "stability", "pca"])
def test_drop_degenerate_leaving_no_series(tmp_path, capsys, command):
    path = tmp_path / "flat.csv"
    rows = ["date,a,b,c"] + [f"2020-01-{d:02d},5,7,9" for d in range(1, 31)]
    path.write_text("\n".join(rows) + "\n")
    assert run_cli([command, "--input", path, "--drop-degenerate", "--outdir", tmp_path / "out"]) == 4
    err = capsys.readouterr().err
    assert "every series is degenerate" in err and err.rstrip().endswith(": a, b, c")
    assert "points must be" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- stability

def test_stability_outputs(synth_dir, tmp_path):
    out = tmp_path / "stab"
    code = run_cli([
        "stability", "--input", synth_dir / "panel.csv", "--outdir", out,
        "--wavelets", "haar,sym2,db3", "--seed", 42,
        "--anchors", "increasing=shop01,stagnating=shop21,special=shop41",
    ])
    assert code == 0
    matrix_rows = read_rows(out / "cooccurrence.csv")
    assert len(matrix_rows) == 61
    values = np.array([[float(v) for v in row[1:]] for row in matrix_rows[1:]])
    assert np.array_equal(values, values.T)
    assert np.all(np.diag(values) == 1.0)
    assert np.all((values * 3) % 1 == 0)  # multiples of 1/3
    table = read_rows(out / "wavelet_labels.csv")
    assert table[0] == ["entity", "haar", "sym2", "db3"]
    report = json.loads((out / "stability_report.json").read_text())
    assert report["n_wavelets"] == 3
    assert len(report["wavelets"]) == 3
    assert (out / "cooccurrence.svg").exists()


def test_stability_determinism(synth_dir, tmp_path):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert run_cli([
            "stability", "--input", synth_dir / "panel.csv", "--outdir", out,
            "--wavelets", "haar,sym2", "--seed", 11,
        ]) == 0
        outs.append(out)
    for name in ("cooccurrence.csv", "wavelet_labels.csv", "stability_report.json",
                 "cooccurrence.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_stability_matrix_files_match_fraction_reference(synth_dir, tmp_path):
    """cooccurrence.csv and .svg against the fractions, formatted and drawn cell by cell."""
    anchors = {"increasing": "shop01", "stagnating": "shop21", "special": "shop41"}
    out = tmp_path / "stab"
    assert run_cli([
        "stability", "--input", synth_dir / "panel.csv", "--outdir", out, "--wavelets", "all",
        "--seed", 42, "--anchors", ",".join(f"{k}={v}" for k, v in anchors.items()),
    ]) == 0
    panel = preprocess.normalize(preprocess.ingest_csv(synth_dir / "panel.csv"))
    matrix, runs = pipeline.co_occurrence(panel, pipeline.TrendRunConfig(anchors=anchors, seed=42))
    ids = panel.entity_ids
    names = next(run for run in runs if not run.anchor_collision).named_labels
    # the documented order: cluster name, then signature by descending size and
    # then table row, then entity id
    sig = matrix.signature_of
    sizes = np.bincount(sig)
    order = sorted(range(len(ids)), key=lambda i: (names[i], -sizes[sig[i]], sig[i], ids[i]))
    ordered_ids = [ids[i] for i in order]
    values = matrix.values[np.ix_(order, order)]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["entity", *ordered_ids])
    writer.writerows([entity, *(f"{v:.17g}" for v in row)]
                     for entity, row in zip(ordered_ids, values.tolist()))
    assert (out / "cooccurrence.csv").read_bytes() == text.getvalue().encode()
    svg = svgplot.heatmap(values.tolist(), ordered_ids, ordered_ids,
                          title="cluster co-occurrence across wavelets", vmin=0.0, vmax=1.0)
    assert (out / "cooccurrence.svg").read_bytes() == svg.encode()


def test_signature_order_by_cluster_then_size_then_table_row():
    ids = ("a", "b", "c", "d", "e", "f", "g", "h")
    # column 0 is the reference: cluster "x" holds a..g, "w" holds h
    labels = np.array([[0, 1], [0, 0], [0, 1], [0, 0], [0, 2], [0, 2], [0, 2], [1, 0]])
    names = ["w" if row[0] else "x" for row in labels]
    _, signature_of = pipeline._signatures(labels)
    # (0, 0) and (0, 1) hold two entities each, and (0, 0) has the earlier table row
    assert signature_of[1] == signature_of[3] < signature_of[0] == signature_of[2]
    order = cli._signature_order(ids, names, signature_of)
    assert [ids[i] for i in order] == ["h", "e", "f", "g", "b", "d", "a", "c"]


@pytest.mark.parametrize("anchors", [None, "increasing=shop01,stagnating=shop21,special=shop41"])
def test_stability_heatmap_draws_one_block_per_signature(synth_dir, tmp_path, anchors):
    out = tmp_path / "stab"
    argv = ["stability", "--input", synth_dir / "panel.csv", "--outdir", out, "--wavelets", "all",
            "--seed", 42]
    assert run_cli(argv + (["--anchors", anchors] if anchors else [])) == 0
    panel = preprocess.normalize(preprocess.ingest_csv(synth_dir / "panel.csv"))
    config = pipeline.TrendRunConfig(anchors=cli._parse_anchors(anchors) if anchors else None, seed=42)
    matrix, _ = pipeline.co_occurrence(panel, config)
    s = len(matrix.table)
    svg = (out / "cooccurrence.svg").read_text()
    rects = subpaths(svg)
    blocks = {(row, height) for _, row, _, height, _ in rects}
    assert len(blocks) == s
    # each block is as many cells tall as its signature has entities
    assert sorted(h for _, h in blocks) == sorted(np.bincount(matrix.signature_of))
    assert len(rects) <= s * s
    assert len(HEATMAP_PATH.findall(svg)) <= matrix.n_wavelets + 1  # one path per count 0..W


def test_stability_csv_cells_are_the_matrix_by_id(synth_dir, tmp_path):
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "all", "--seed", 42, "--plot-format", "csv"]) == 0
    rows = read_rows(out / "cooccurrence.csv")
    cells = {(row[0], col): float(v) for row in rows[1:] for col, v in zip(rows[0][1:], row[1:])}
    panel = preprocess.normalize(preprocess.ingest_csv(synth_dir / "panel.csv"))
    matrix, _ = pipeline.co_occurrence(panel, pipeline.TrendRunConfig(seed=42))
    ids = panel.entity_ids
    assert cells == {(a, b): v for a, row in zip(ids, matrix.values.tolist()) for b, v in zip(ids, row)}


def test_stability_report_leaves_matrix_to_csv(synth_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("TRENDLET_SEED", raising=False)
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "haar,sym2", "--plot-format", "csv"]) == 0
    report = json.loads((out / "stability_report.json").read_text())
    assert set(report) == {"k", "seed", "n_restarts", "anchors", "n_wavelets", "n_entities",
                           "wavelets"}
    assert report["seed"] == 42
    assert report["n_entities"] == 60
    assert [w["name"] for w in report["wavelets"]] == ["haar", "sym2"]
    assert not (out / "cooccurrence.svg").exists()


def test_stability_report_wavelet_keys(synth_dir, tmp_path):
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "haar,sym2", "--plot-format", "csv",
                    "--anchors", "increasing=shop01,stagnating=shop21,special=shop41"]) == 0
    report = json.loads((out / "stability_report.json").read_text())
    for wavelet in report["wavelets"]:
        # the labels, raw or named, live only in wavelet_labels.csv
        assert set(wavelet) == {"name", "inertia", "n_iter", "anchor_collision"}


@pytest.mark.parametrize("anchors", [None, "increasing=shop01,stagnating=shop21,special=shop41",
                                     "a=shop01,b=shop02"], ids=["plain", "anchored", "colliding"])
def test_wavelet_labels_csv_holds_each_raw_partition(synth_dir, tmp_path, anchors):
    """Each column of wavelet_labels.csv partitions the entities as its raw labels do,
    so the report need not repeat them: distinct clusters get distinct names."""
    out = tmp_path / "stab"
    argv = ["stability", "--input", synth_dir / "panel.csv", "--outdir", out, "--plot-format", "csv"]
    assert run_cli(argv + (["--anchors", anchors] if anchors else [])) == 0
    panel = preprocess.normalize(preprocess.ingest_csv(synth_dir / "panel.csv"))
    config = pipeline.TrendRunConfig(anchors=cli._parse_anchors(anchors) if anchors else None)
    _, runs = pipeline.co_occurrence(panel, config)
    assert [run.anchor_collision for run in runs] == [anchors == "a=shop01,b=shop02"] * len(runs)
    rows = read_rows(out / "wavelet_labels.csv")
    assert rows[0] == ["entity", *(run.wavelet_name for run in runs)]
    column_of = {row[0]: row[1:] for row in rows[1:]}
    for w, run in enumerate(runs):
        names = [column_of[entity][w] for entity in panel.entity_ids]
        raw = run.model.labels.tolist()
        assert len(set(zip(raw, names))) == len(set(raw)) == len(set(names))
        if run.anchor_collision or not anchors:  # unnamed clusters keep their raw index
            assert names == [f"cluster{i}" for i in raw]


def test_cluster_report_leaves_labels_to_csv(synth_dir, tmp_path):
    anchors = {"increasing": "shop01", "stagnating": "shop21", "special": "shop41"}
    out = tmp_path / "cluster"
    assert run_cli(["cluster", "--input", synth_dir / "panel.csv", "--wavelet", "db3", "--outdir", out,
                    "--anchors", ",".join(f"{k}={v}" for k, v in anchors.items())]) == 0
    report = json.loads((out / "cluster_report.json").read_text())
    assert not {"entities", "labels", "named_labels"} & set(report)
    assert report["n_entities"] == 60
    panel = preprocess.normalize(preprocess.ingest_csv(synth_dir / "panel.csv"))
    config = pipeline.TrendRunConfig(wavelet_names=("db3",), anchors=anchors)
    model, _ = pipeline.run_single(panel, "db3", config)
    named = pipeline.align_labels(model, panel.entity_ids, anchors)
    assert read_rows(out / "cluster_labels.csv") == [
        ["entity", "cluster", "name"],
        *([e, str(c), n] for e, c, n in zip(panel.entity_ids, model.labels.tolist(), named)),
    ]


def test_a_huge_k_is_refused_without_building_names(synth_dir, tmp_path, capsys):
    k = "99999999999999999999999"
    assert run_cli(["cluster", "--input", synth_dir / "panel.csv", "--outdir", tmp_path / "out", "--k", k]) == 4
    assert capsys.readouterr().err == f"error: k={k} outside 2..60\n"
    assert not (tmp_path / "out").exists()


def test_one_wavelet_is_refused_before_the_panel_is_read(tmp_path, capsys):
    path = _write_rows(tmp_path / "panel.csv", [["date", "a"], ["2020-01-01", "x"]])
    argv = ["stability", "--input", path, "--outdir", tmp_path / "out", "--wavelets", "haar"]
    assert run_cli(argv) == 4
    assert capsys.readouterr().err == "error: co-occurrence needs at least 2 wavelets\n"
    assert not (tmp_path / "out").exists()


def test_stability_wavelet_listed_twice(synth_dir, tmp_path, capsys):
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "haar,sym2,HAAR"]) == 4
    assert "'haar' listed more than once" in capsys.readouterr().err
    assert not (out / "stability_report.json").exists()


# names that csv must quote, and names with characters XML 1.0 cannot hold (inside the
# name: ingest strips \x1c-\x1f at its ends as whitespace, so a panel cannot carry them there)
ODD_NAMES = {
    "shop01": 'a,b "q"', "shop02": "x\ty", "shop05": "bell\x07", "shop06": "ctl\x1fx",
    "shop09": "s<&>'", "shop10": "nc\ufffe",
}
ODD_ANCHORS = "increasing=x\ty,stagnating=bell\x07,special=s<&>'"


def emit_odd_names_panel(directory, noise_sigma):
    spec = pipeline.SyntheticSpec(n_days=384, n_increasing=4, n_stagnating=4, n_seasonal=4,
                                  noise_sigma=noise_sigma, seed=5)
    panel, _ = pipeline.generate_synthetic(spec)
    panel = dataclasses.replace(panel, entity_ids=tuple(ODD_NAMES.get(e, e) for e in panel.entity_ids))
    path = directory / "panel.csv"
    preprocess.emit_csv(panel, path)
    return path


@pytest.fixture(scope="module")
def odd_names_panel(tmp_path_factory):
    return emit_odd_names_panel(tmp_path_factory.mktemp("odd"), 8.0)


@pytest.fixture(scope="module")
def noisy_odd_names_panel(tmp_path_factory):
    """The odd-names panel at sigma 24, where the wavelets disagree: 6 label signatures."""
    return emit_odd_names_panel(tmp_path_factory.mktemp("odd24"), 24.0)


@pytest.mark.parametrize("anchors", [None, ODD_ANCHORS])
@pytest.mark.parametrize("plot_format", ["svg", "csv"])
def test_stability_matrix_of_quoted_names_matches_csv_writer(
    odd_names_panel, noisy_odd_names_panel, tmp_path, anchors, plot_format
):
    for i, path in enumerate((odd_names_panel, noisy_odd_names_panel)):
        out = tmp_path / f"stab{i}"
        argv = ["stability", "--input", path, "--outdir", out, "--seed", 3, "--plot-format", plot_format]
        assert run_cli(argv + (["--anchors", anchors] if anchors else [])) == 0
        panel = preprocess.normalize(preprocess.ingest_csv(path))
        config = pipeline.TrendRunConfig(anchors=cli._parse_anchors(anchors) if anchors else None, seed=3)
        matrix, runs = pipeline.co_occurrence(panel, config)
        ids = panel.entity_ids
        names = next((run for run in runs if not run.anchor_collision), runs[0]).named_labels
        # the documented order: cluster name, then signature by descending size and
        # then table row, then entity id
        sig = matrix.signature_of
        sizes = np.bincount(sig)
        order = sorted(range(len(ids)), key=lambda i: (names[i], -sizes[sig[i]], sig[i], ids[i]))
        if path is noisy_odd_names_panel:  # a panel on which (name, id) is the wrong order
            assert order != sorted(range(len(ids)), key=lambda i: (names[i], ids[i]))
        ordered_ids = [ids[i] for i in order]
        values = matrix.values[np.ix_(order, order)]
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["entity", *ordered_ids])
        writer.writerows([entity, *(f"{v:.17g}" for v in row)]
                         for entity, row in zip(ordered_ids, values.tolist()))
        assert (out / "cooccurrence.csv").read_bytes() == text.getvalue().encode()
        assert [row[0] for row in read_rows(out / "cooccurrence.csv")][1:] == ordered_ids
        if plot_format == "svg":
            svg = svgplot.heatmap(values.tolist(), ordered_ids, ordered_ids,
                                  title="cluster co-occurrence across wavelets", vmin=0.0, vmax=1.0)
            assert (out / "cooccurrence.svg").read_bytes() == svg.encode()
        else:
            assert not (out / "cooccurrence.svg").exists()


def test_every_svg_is_well_formed_for_names_outside_xml(odd_names_panel, tmp_path):
    commands = [
        ("stability", "--wavelets", "haar,db3", "--anchors", ODD_ANCHORS),
        ("pca", "--anchors", ODD_ANCHORS),
        ("reconstruct", "--entity", "bell\x07"),
        ("reconstruct", "--entity", "nc\ufffe", "--mode", "single:detail,1,3"),
    ]
    svgs = []
    for i, (command, *rest) in enumerate(commands):
        out = tmp_path / str(i)
        assert run_cli([command, "--input", odd_names_panel, "--outdir", out, *rest]) == 0
        svgs += sorted(out.glob("*.svg"))
    assert {p.name for p in svgs} == {"cooccurrence.svg", "pca_biplot.svg", "pca_coefficients.svg",
                                      "reconstruction.svg"}
    for path in svgs:
        text = " ".join(ET.parse(path).getroot().itertext())
        assert "\ufffd" in text and not {"\x07", "\x1f", "\ufffe"} & set(text), path.name


def test_ids_holding_cr_or_lf_read_back_whole_from_every_csv(tmp_path):
    """csv.writer with an LF terminator leaves a lone CR bare, which csv.reader
    and ingest then read as the end of a row."""
    spec = pipeline.SyntheticSpec(n_days=384, n_increasing=4, n_stagnating=4, n_seasonal=4, seed=5)
    panel, _ = pipeline.generate_synthetic(spec)
    names = {"shop01": "a\rb", "shop05": "c\nd", "shop09": "0\r0"}
    panel = dataclasses.replace(panel, entity_ids=tuple(names.get(e, e) for e in panel.entity_ids))
    path = tmp_path / "panel.csv"
    preprocess.emit_csv(panel, path)
    assert preprocess.ingest_csv(path).entity_ids == panel.entity_ids
    out = tmp_path / "run"
    assert run_cli(["cluster", "--input", path, "--outdir", out, "--anchors", "increasing=a\rb"]) == 0
    rows = read_rows(out / "cluster_labels.csv")
    assert [row[0] for row in rows[1:]] == list(panel.entity_ids)
    assert {len(row) for row in rows} == {3}
    assert rows[1][2] == "increasing"
    assert run_cli(["stability", "--input", path, "--outdir", out, "--wavelets", "haar,db2",
                    "--plot-format", "csv"]) == 0
    cooccurrence = read_rows(out / "cooccurrence.csv")
    for rows in (cooccurrence, read_rows(out / "wavelet_labels.csv")):
        assert sorted(row[0] for row in rows[1:]) == sorted(panel.entity_ids)
        assert {len(row) for row in rows} == {len(rows[0])}
    assert cooccurrence[0][1:] == [row[0] for row in cooccurrence[1:]]


# ---------------------------------------------------------------- reconstruct

def test_reconstruct_full_depth_matches_normalized(synth_dir, tmp_path):
    out = tmp_path / "rec"
    code = run_cli([
        "reconstruct", "--input", synth_dir / "panel.csv", "--entity", "shop01",
        "--wavelet", "sym2", "--mode", "levels:max", "--outdir", out,
    ])
    assert code == 0
    rows = read_rows(out / "reconstruction.csv")
    assert rows[0] == ["date", "normalized", "reconstruction"]
    data = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert data.shape[0] == 846
    assert np.max(np.abs(data[:, 0] - data[:, 1])) <= 1e-8
    assert (out / "reconstruction.svg").exists()


def test_reconstruct_coarse_smooth_differs(synth_dir, tmp_path):
    out = tmp_path / "rec2"
    assert run_cli([
        "reconstruct", "--input", synth_dir / "panel.csv", "--entity", "shop01",
        "--wavelet", "sym2", "--mode", "levels:2", "--outdir", out,
        "--plot-format", "csv",
    ]) == 0
    rows = read_rows(out / "reconstruction.csv")
    data = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    # a real smooth: not equal to the signal, but strongly correlated
    assert np.max(np.abs(data[:, 0] - data[:, 1])) > 1e-3
    assert np.corrcoef(data[:, 0], data[:, 1])[0, 1] > 0.8
    assert not (out / "reconstruction.svg").exists()


def test_reconstruct_single_zero_coefficient(tmp_path):
    # haar finest detail of a locally-constant pair is exactly zero
    days = 128
    values = [float(3 + (i % 5)) for i in range(days)]
    values[120] = values[121] = 9.0
    rows = ["date,a"] + [
        f"{d.isoformat()},{v}"
        for d, v in zip(
            (np.datetime64("2020-01-01") + np.arange(days)).astype("datetime64[D]").tolist(),
            values,
        )
    ]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "rec3"
    assert run_cli([
        "reconstruct", "--input", path, "--entity", "a", "--wavelet", "haar",
        "--mode", "single:detail,6,60", "--outdir", out, "--plot-format", "csv",
    ]) == 0
    data = read_rows(out / "reconstruction.csv")
    recon = np.array([float(r[2]) for r in data[1:]])
    assert np.all(recon == 0.0)


@pytest.mark.parametrize("mode", ["single:detail,6,60", "single:detail,3,2", "single:detail,5,7"])
def test_reconstruction_csv_has_no_negative_zero(tmp_path, mode):
    # detail 6,60 is a zero coefficient; the others are zero outside their support
    days = 128
    values = [float(3 + (i % 5)) for i in range(days)]
    values[120] = values[121] = 9.0
    dates = (np.datetime64("2020-01-01") + np.arange(days)).astype("datetime64[D]").tolist()
    path = tmp_path / "panel.csv"
    path.write_text("date,a\n" + "".join(f"{d.isoformat()},{v}\n" for d, v in zip(dates, values)))
    out = tmp_path / "rec"
    assert run_cli([
        "reconstruct", "--input", path, "--entity", "a", "--wavelet", "haar",
        "--mode", mode, "--outdir", out, "--plot-format", "csv",
    ]) == 0
    cells = [r[2] for r in read_rows(out / "reconstruction.csv")[1:]]
    assert "0" in cells
    assert not any(cell.startswith("-0") and float(cell) == 0.0 for cell in cells)


def test_reconstruct_index_out_of_range(synth_dir, tmp_path, capsys):
    code = run_cli([
        "reconstruct", "--input", synth_dir / "panel.csv", "--entity", "shop01",
        "--wavelet", "sym2", "--mode", "single:detail,1,999", "--outdir", tmp_path,
    ])
    assert code == 4
    assert "0.." in capsys.readouterr().err


def test_reconstruct_bad_mode_usage_error(synth_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["reconstruct", "--input", synth_dir / "panel.csv",
                 "--entity", "shop01", "--mode", "bogus", "--outdir", tmp_path])
    assert exc.value.code == 2


# reconstruct parses only its entity's column; every other check still holds

def _three_column_rows(days=128):
    dates = (np.datetime64("2020-01-01") + np.arange(days)).astype("datetime64[D]").tolist()
    t = np.arange(days)
    a, b, c = np.sin(t / 7.0) * 3.25 + t / 50.0, np.cos(t / 5.0), t % 9 + 0.5
    return [["date", "a", "b", "c"]] + [
        [d.isoformat(), repr(x), repr(y), repr(z)]
        for d, x, y, z in zip(dates, a.tolist(), b.tolist(), c.tolist())
    ]


def _write_rows(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


def _reconstruct(path, out, entity="a"):
    return run_cli(["reconstruct", "--input", path, "--entity", entity, "--wavelet", "db2",
                    "--mode", "levels:2", "--outdir", out, "--plot-format", "csv"])


@pytest.mark.parametrize("cell", ["x", "nan", "-inf", ""])
@pytest.mark.parametrize("quoted", [False, True], ids=["fast-path", "cell-scan"])
def test_reconstruct_ignores_bad_cells_of_other_entities(tmp_path, capsys, cell, quoted):
    rows = _three_column_rows()
    if quoted:  # a quoted cell sends the whole panel through the cell scan
        rows[3][3] = f'"{rows[3][3]}"'
    clean = _write_rows(tmp_path / "clean.csv", rows)
    rows[5][2] = cell
    rows[9][3] = cell
    dirty = _write_rows(tmp_path / "dirty.csv", rows)
    assert _reconstruct(clean, tmp_path / "clean") == 0
    assert _reconstruct(dirty, tmp_path / "dirty") == 0
    want = (tmp_path / "clean" / "reconstruction.csv").read_bytes()
    assert (tmp_path / "dirty" / "reconstruction.csv").read_bytes() == want
    # the commands that read every column still reject the panel
    capsys.readouterr()
    assert run_cli(["cluster", "--input", dirty, "--outdir", tmp_path / "cluster"]) == 3
    assert "row 6, column 3" in capsys.readouterr().err


def _ragged(rows):
    rows[4].append("9")


def _short(rows):
    del rows[4][3]


def _gap(rows):
    del rows[6]


def _bad_date(rows):
    rows[3][0] = "2020-01-3x"


def _out_of_order(rows):
    rows[3][0] = rows[1][0]


def _duplicate_name(rows):
    rows[0][3] = "b"


def _bad_header(rows):
    rows[0][0] = "day"


def _no_data(rows):
    del rows[1:]


@pytest.mark.parametrize(
    "mutate, entity, error, message",
    [
        (_ragged, "a", errors.ParseError, "row 5: expected 4 cells, got 5"),
        (_short, "a", errors.ParseError, "row 5: expected 4 cells, got 3"),
        (_gap, "a", errors.ParseError, "missing date 2020-01-06 (row 7)"),
        (_bad_date, "a", errors.ParseError, "row 4: bad date '2020-01-3x'"),
        (_out_of_order, "a", errors.ParseError, "row 4: date 2020-01-01 not after 2020-01-02"),
        (_duplicate_name, "a", errors.ParseError, "duplicate entity name in header"),
        (_bad_header, "a", errors.ParseError, "header must be 'date,<entity>,...'"),
        (_no_data, "a", errors.ParseError, "no data rows"),
        (None, "zz", errors.InvalidInput, "entity 'zz' not in panel"),
        (_gap, "zz", errors.ParseError, "missing date 2020-01-06 (row 7)"),
    ],
    ids=["ragged", "short", "gap", "bad-date", "out-of-order", "duplicate-name", "bad-header",
         "no-data", "unknown-entity", "gap-before-unknown-entity"],
)
def test_reconstruct_still_rejects_a_malformed_panel(tmp_path, capsys, mutate, entity, error, message):
    rows = _three_column_rows()
    if mutate is not None:
        mutate(rows)
    path = _write_rows(tmp_path / "panel.csv", rows)
    assert _reconstruct(path, tmp_path / "out", entity) == error.exit_code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    # the whole-panel ingest fails the same way
    with pytest.raises(error) as exc:
        panel = preprocess.ingest_csv(path)
        if entity not in panel.entity_ids:
            raise errors.InvalidInput(f"entity {entity!r} not in panel")
    assert str(exc.value) == message


# ---------------------------------------------------------------- pca

def test_pca_outputs(synth_dir, tmp_path):
    out = tmp_path / "pca"
    code = run_cli([
        "pca", "--input", synth_dir / "panel.csv", "--wavelet", "sym2",
        "--seed", 42, "--outdir", out,
    ])
    assert code == 0
    loadings = read_rows(out / "pca_loadings.csv")
    assert len(loadings) == 22
    assert [row[0] for row in loadings[1:7]] == [f"c0,{i}" for i in range(6)]
    assert loadings[13][0] == "d1,0"
    scores = read_rows(out / "pca_scores.csv")
    assert len(scores) == 61
    assert (out / "pca_biplot.svg").exists()
    assert (out / "pca_coefficients.svg").exists()
    coef = read_rows(out / "pca_coefficients.csv")
    assert len(coef[0]) == 22


def test_pca_heatmap_cells_are_the_csv_zscores_in_cluster_order(synth_dir, tmp_path):
    out = tmp_path / "pca"
    assert run_cli(["pca", "--input", synth_dir / "panel.csv", "--wavelet", "db3",
                    "--seed", 42, "--outdir", out]) == 0
    coef = read_rows(out / "pca_coefficients.csv")
    features = np.array([[float(v) for v in row[1:]] for row in coef[1:]])
    row_of = {row[0]: i for i, row in enumerate(coef[1:])}
    clusters = {row[0]: row[3] for row in read_rows(out / "pca_scores.csv")[1:]}
    order = [row_of[e] for e in sorted(row_of, key=lambda e: (clusters[e], e))]
    std = features.std(axis=0)
    std[std == 0] = 1.0
    zscores = ((features - features.mean(axis=0)) / std)[order]
    lo, hi = zscores.min(), zscores.max()
    grid, _ = expand((out / "pca_coefficients.svg").read_text())
    assert grid == {
        (i, j): svgplot._heat_color((v - lo) / (hi - lo))
        for i, row in enumerate(zscores.tolist())
        for j, v in enumerate(row)
    }


def test_pca_and_reconstruct_determinism(synth_dir, tmp_path):
    for sub in ("one", "two"):
        assert run_cli(["pca", "--input", synth_dir / "panel.csv", "--wavelet", "db3",
                        "--seed", 5, "--outdir", tmp_path / f"p_{sub}"]) == 0
        assert run_cli(["reconstruct", "--input", synth_dir / "panel.csv",
                        "--entity", "shop41", "--wavelet", "db3", "--mode", "levels:1",
                        "--outdir", tmp_path / f"r_{sub}"]) == 0
    for name in ("pca_scores.csv", "pca_loadings.csv", "pca_coefficients.csv",
                 "pca_biplot.svg", "pca_coefficients.svg"):
        assert (tmp_path / "p_one" / name).read_bytes() == (tmp_path / "p_two" / name).read_bytes()
    for name in ("reconstruction.csv", "reconstruction.svg"):
        assert (tmp_path / "r_one" / name).read_bytes() == (tmp_path / "r_two" / name).read_bytes()


# ---------------------------------------------------------------- filters

def test_filters_dump(capsys):
    assert run_cli(["filters", "dump"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16
    header = lines[0].split(",")
    assert header == ["wavelet", "filter_length", "selected_coefficients_n846"]
    counts = {line.split(",")[0]: int(line.split(",")[2]) for line in lines[1:]}
    assert counts["sym2"] == 21
    assert counts["db3"] == 40
    assert counts["haar"] == 8


# ---------------------------------------------------------------- exit codes

def test_readme_exit_codes_match_error_classes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for code, raised_as in re.findall(r"^\| (\d) \| [^|]* \| (.*) \|$", readme, re.M):
        for name in re.findall(r"`(\w+)`", raised_as):
            if isinstance(getattr(errors, name, None), type):
                documented[name] = int(code)
    classes = {
        name: cls.exit_code
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.TrendletError)
    }
    assert documented == classes


# ---------------------------------------------------------------- argument parsing

def _usage_error(capsys, argv):
    """The last stderr line of an argv that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "anchors, message",
    [
        ("increasing", "bad anchor 'increasing', expected <cluster>=<entity>"),
        ("=shop01", "bad anchor '=shop01'"),
        ("increasing= ", "bad anchor 'increasing='"),
        ("a=shop01,a=shop02", "duplicate anchor name 'a'"),
        (",", "empty anchor list"),
    ],
    ids=["no-equals", "empty-name", "empty-entity", "repeated-name", "empty-list"],
)
def test_bad_anchors_are_usage_errors(tmp_path, capsys, anchors, message):
    argv = ["cluster", "--input", tmp_path / "panel.csv", "--outdir", tmp_path, "--anchors", anchors]
    assert _usage_error(capsys, argv) == f"trendlet cluster: error: argument --anchors: {message}"


def test_blank_anchor_parts_are_skipped():
    args = cli.build_parser().parse_args(["cluster", "--input", "panel.csv", "--anchors", " a = x ,, b=y ,"])
    assert args.anchors == {"a": "x", "b": "y"}


def test_empty_wavelet_list_is_a_usage_error(tmp_path, capsys):
    argv = ["stability", "--input", tmp_path / "panel.csv", "--outdir", tmp_path, "--wavelets", " , "]
    assert _usage_error(capsys, argv) == "trendlet stability: error: argument --wavelets: empty wavelet list"


@pytest.mark.parametrize(
    "mode, message",
    [
        ("levels:x", "bad levels mode 'levels:x'"),
        ("single:detail,1", "bad single mode 'single:detail,1', expected single:<approx|detail>,<level>,<pos>"),
        ("single:foo,1,2", "bad single mode 'single:foo,1,2', expected single:<approx|detail>,<level>,<pos>"),
        ("single:detail,a,2", "bad single mode 'single:detail,a,2'"),
    ],
)
def test_bad_reconstruct_modes_are_usage_errors(tmp_path, capsys, mode, message):
    argv = ["reconstruct", "--input", tmp_path / "panel.csv", "--entity", "a", "--outdir", tmp_path,
            "--mode", mode]
    assert _usage_error(capsys, argv) == f"trendlet reconstruct: error: argument --mode: {message}"


def test_stability_reports_anchor_collisions(synth_dir, tmp_path, capsys):
    # shop01 and shop02 are both planted 'increasing', so every wavelet puts them together
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "haar,db2", "--anchors", "a=shop01,b=shop02", "--plot-format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "anchor collisions (left unnamed): haar, db2"
    report = json.loads((out / "stability_report.json").read_text())
    assert [run["anchor_collision"] for run in report["wavelets"]] == [True, True]


# ---------------------------------------------------------------- too shallow for (c0, d0, d1)

def test_filters_dump_on_too_few_days(capsys):
    assert run_cli(["filters", "dump", "--days", 10]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: series of length 10 supports 1 decomposition level of a length-4 filter; "
        "selecting (c0, d0, d1) needs 2\n"
    )


@pytest.mark.parametrize("command", [["cluster", "--wavelet", "db3"], ["stability"]], ids=["cluster", "stability"])
def test_a_panel_too_short_for_d1_names_its_length_and_filter(tmp_path, capsys, command):
    path = _write_rows(tmp_path / "panel.csv", _three_column_rows(days=16))
    assert run_cli([*command, "--input", path, "--outdir", tmp_path / "out", "--k", 2]) == 4
    assert capsys.readouterr().err == (
        "error: series of length 16 supports 1 decomposition level of a length-6 filter; "
        "selecting (c0, d0, d1) needs 2\n"
    )
    assert not (tmp_path / "out").exists()
