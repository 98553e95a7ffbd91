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
    names = next(run.named_labels for run in runs if run.named_labels)
    order = sorted(range(len(ids)), key=lambda i: (names[i], ids[i]))
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


def test_stability_report_leaves_matrix_to_csv(synth_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("TRENDLET_SEED", raising=False)
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "haar,sym2", "--plot-format", "csv"]) == 0
    report = json.loads((out / "stability_report.json").read_text())
    assert set(report) == {"k", "seed", "n_restarts", "anchors", "n_wavelets", "entities",
                           "wavelets"}
    assert report["seed"] == 42
    assert [w["name"] for w in report["wavelets"]] == ["haar", "sym2"]
    assert not (out / "cooccurrence.svg").exists()


def test_stability_report_wavelet_keys(synth_dir, tmp_path):
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "haar,sym2", "--plot-format", "csv",
                    "--anchors", "increasing=shop01,stagnating=shop21,special=shop41"]) == 0
    report = json.loads((out / "stability_report.json").read_text())
    for wavelet in report["wavelets"]:
        # named labels live only in wavelet_labels.csv
        assert set(wavelet) == {"name", "inertia", "n_iter", "anchor_collision", "labels"}


def test_stability_wavelet_listed_twice(synth_dir, tmp_path, capsys):
    out = tmp_path / "stab"
    assert run_cli(["stability", "--input", synth_dir / "panel.csv", "--outdir", out,
                    "--wavelets", "haar,sym2,HAAR"]) == 4
    assert "'haar' listed more than once" in capsys.readouterr().err
    assert not (out / "stability_report.json").exists()


# names that csv must quote, and names with characters XML 1.0 cannot hold
ODD_NAMES = {
    "shop01": 'a,b "q"', "shop02": "x\ty", "shop05": "bell\x07", "shop06": "ctl\x1f",
    "shop09": "s<&>'", "shop10": "nc\ufffe",
}
ODD_ANCHORS = "increasing=x\ty,stagnating=bell\x07,special=s<&>'"


@pytest.fixture(scope="module")
def odd_names_panel(tmp_path_factory):
    spec = pipeline.SyntheticSpec(n_days=384, n_increasing=4, n_stagnating=4, n_seasonal=4, seed=5)
    panel, _ = pipeline.generate_synthetic(spec)
    panel = dataclasses.replace(panel, entity_ids=tuple(ODD_NAMES.get(e, e) for e in panel.entity_ids))
    path = tmp_path_factory.mktemp("odd") / "panel.csv"
    preprocess.emit_csv(panel, path)
    return path


@pytest.mark.parametrize("anchors", [None, ODD_ANCHORS])
@pytest.mark.parametrize("plot_format", ["svg", "csv"])
def test_stability_matrix_of_quoted_names_matches_csv_writer(odd_names_panel, tmp_path, anchors, plot_format):
    out = tmp_path / "stab"
    argv = ["stability", "--input", odd_names_panel, "--outdir", out, "--seed", 3,
            "--plot-format", plot_format]
    assert run_cli(argv + (["--anchors", anchors] if anchors else [])) == 0
    panel = preprocess.normalize(preprocess.ingest_csv(odd_names_panel))
    config = pipeline.TrendRunConfig(anchors=cli._parse_anchors(anchors) if anchors else None, seed=3)
    matrix, runs = pipeline.co_occurrence(panel, config)
    ids = panel.entity_ids
    names = next((run.named_labels for run in runs if run.named_labels), None)
    if names is None:
        names = pipeline.align_labels(runs[0].model, ids, {})
    order = sorted(range(len(ids)), key=lambda i: (names[i], ids[i]))
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
        (_gap, "a", errors.GapError, "missing date 2020-01-06 (row 7)"),
        (_bad_date, "a", errors.ParseError, "row 4: bad date '2020-01-3x'"),
        (_out_of_order, "a", errors.ParseError, "row 4: date 2020-01-01 not after 2020-01-02"),
        (_duplicate_name, "a", errors.ParseError, "duplicate entity name in header"),
        (_bad_header, "a", errors.ParseError, "header must be 'date,<entity>,...'"),
        (_no_data, "a", errors.EmptyInput, "no data rows"),
        (None, "zz", errors.InvalidInput, "entity 'zz' not in panel"),
        (_gap, "zz", errors.GapError, "missing date 2020-01-06 (row 7)"),
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
