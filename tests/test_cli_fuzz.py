"""Fuzz ``cli.main`` in process: whatever the panel and flags, a run ends in a
documented exit code (or argparse's usage exit) and never in a traceback."""

import contextlib
import datetime as dt
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlet import cli

SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**70).map(str),
    st.sampled_from(["-1", "-3", "abc", "", "1.5"]),
)
WAVELETS = st.sampled_from(["haar", "sym2", "db3", "bior1.3", "nope"])


@st.composite
def panels(draw):
    """CSV text of a small panel, sometimes with a BOM, a constant or a huge column,
    sometimes ending on the last calendar day, sometimes repeating its last row."""
    n_days = draw(st.integers(min_value=64, max_value=128))
    n_entities = draw(st.integers(min_value=3, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.normal(100.0, 10.0, size=(n_days, n_entities))
    if draw(st.booleans()):
        values[:, 0] = 5.0
    if draw(st.booleans()):
        values[:, -1] = np.resize([1e308, -1e308], n_days)
    start = dt.date.max - dt.timedelta(days=n_days - 1) if draw(st.booleans()) else dt.date(2020, 1, 1)
    lines = ["date," + ",".join(f"e{i}" for i in range(n_entities))]
    for day, row in enumerate(values):
        cells = ",".join(f"{v:.17g}" for v in row)
        lines.append(f"{(start + dt.timedelta(days=day)).isoformat()},{cells}")
    if draw(st.booleans()):
        lines.append(lines[-1])  # the date repeats: not after the one before
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    """(argv without --input/--outdir, $TRENDLET_SEED or None)."""
    command = draw(st.sampled_from(["cluster", "stability", "pca", "reconstruct"]))
    argv = [command]
    if command == "stability":
        names = draw(st.lists(WAVELETS, min_size=1, max_size=3))
        argv += ["--wavelets", ",".join(names), "--plot-format", "csv"]
    else:
        argv += ["--wavelet", draw(WAVELETS)]
    if command == "reconstruct":
        argv += ["--entity", draw(st.sampled_from(["e0", "e1", "missing"]))]
        argv += ["--plot-format", "csv"]
    else:
        argv += ["--k", str(draw(st.sampled_from([-1, 0, 1, 2, 3, 10])))]
        argv += ["--restarts", str(draw(st.sampled_from([0, 1, 3])))]
        if draw(st.booleans()):
            argv += ["--seed", draw(SEEDS)]
        if draw(st.booleans()):
            argv.append("--drop-degenerate")
    env_seed = draw(st.one_of(st.none(), SEEDS))
    return argv, env_seed


@settings(max_examples=25, deadline=None)
@given(text=panels(), invocation=invocations())
def test_main_ends_in_documented_exit_code(text, invocation):
    argv, env_seed = invocation
    env = {} if env_seed is None else {"TRENDLET_SEED": env_seed}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if env_seed is None:
            os.environ.pop("TRENDLET_SEED", None)
        panel = Path(tmp) / "panel.csv"
        panel.write_text(text, encoding="utf-8")
        argv = [*argv, "--input", str(panel), "--outdir", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("usage", exc.code)
    assert code in (0, 2, 3, 4, ("usage", 2)), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().strip(), "a failing run must say why"
