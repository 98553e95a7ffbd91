import csv
import datetime as dt
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendlet import preprocess
from trendlet.errors import DegenerateSeries, EmptyInput, GapError, ParseError, TrendletError
from conftest import panel_from_csv

WELL_FORMED = """date,a,b,c
2020-01-01,1.0,4.0,5.5
2020-01-02,2.0,5.0,5.5
2020-01-03,3.0,6.0,5.5
2020-01-04,4.0,7.0,5.5
"""


def test_ingest_shape():
    panel = panel_from_csv(WELL_FORMED)
    assert panel.entity_ids == ("a", "b", "c")
    assert panel.values.shape == (3, 4)
    assert panel.dates[0] == dt.date(2020, 1, 1)
    np.testing.assert_array_equal(panel.values[0], [1.0, 2.0, 3.0, 4.0])
    assert not panel.normalized


def test_ingest_missing_day_names_the_date():
    text = "date,a\n2020-01-01,1\n2020-01-03,2\n"
    with pytest.raises(GapError, match="2020-01-02"):
        panel_from_csv(text)


def test_ingest_non_numeric_cell_names_row_and_column():
    text = "date,a,b\n2020-01-01,1,2\n2020-01-02,1,oops\n"
    with pytest.raises(ParseError, match=r"row 3, column 3"):
        panel_from_csv(text)


def test_ingest_misc_errors():
    with pytest.raises(EmptyInput):
        panel_from_csv("")
    with pytest.raises(EmptyInput):
        panel_from_csv("date,a\n")
    with pytest.raises(ParseError):
        panel_from_csv("day,a\n2020-01-01,1\n")
    with pytest.raises(ParseError):
        panel_from_csv("date,a\n2020-01-01,1\n2020-01-02,1,9\n")
    with pytest.raises(ParseError):
        panel_from_csv("date,a\nnot-a-date,1\n")
    with pytest.raises(ParseError):
        panel_from_csv("date,a\n2020-01-02,1\n2020-01-01,2\n")
    with pytest.raises(ParseError):
        panel_from_csv("date,a\n2020-01-01,nan\n")
    with pytest.raises(ParseError):
        panel_from_csv("date,a,a\n2020-01-01,1,2\n")


def test_ingest_accepts_crlf():
    text = WELL_FORMED.replace("\n", "\r\n")
    panel = panel_from_csv(text)
    assert panel.values.shape == (3, 4)


def test_normalize_hand_example():
    panel = panel_from_csv("date,a\n2020-01-01,1\n2020-01-02,2\n2020-01-03,3\n")
    normed = preprocess.normalize(panel)
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(normed.values[0], expected, atol=1e-12)
    assert normed.normalized


def test_normalize_rows_zero_mean_unit_population_std(rng):
    values = rng.normal(50, 12, size=(6, 90))
    panel = preprocess.TimeSeriesPanel(
        entity_ids=tuple(f"e{i}" for i in range(6)),
        dates=tuple(dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(90)),
        values=values,
    )
    normed = preprocess.normalize(panel)
    np.testing.assert_allclose(normed.values.mean(axis=1), 0.0, atol=1e-9)
    np.testing.assert_allclose(normed.values.std(axis=1), 1.0, atol=1e-9)


def test_normalize_degenerate_row_aborts():
    panel = panel_from_csv("date,a,b\n2020-01-01,5,1\n2020-01-02,5,2\n2020-01-03,5,4\n")
    with pytest.raises(DegenerateSeries, match="a"):
        preprocess.normalize(panel)


def test_normalize_drop_degenerate_removes_row():
    panel = panel_from_csv("date,a,b\n2020-01-01,5,1\n2020-01-02,5,2\n2020-01-03,5,4\n")
    normed = preprocess.normalize(panel, drop_degenerate=True)
    assert normed.entity_ids == ("b",)
    assert normed.values.shape == (1, 3)


def test_drop_degenerate_with_every_series_degenerate_names_them():
    panel = panel_from_csv("date,a,b,c\n2020-01-01,5,7,9\n2020-01-02,5,7,9\n2020-01-03,5,7,9\n")
    with pytest.raises(DegenerateSeries, match="every series is degenerate.*: a, b, c$"):
        preprocess.normalize(panel, drop_degenerate=True)


def test_normalize_idempotent(rng):
    values = rng.normal(0, 3, size=(2, 50))
    panel = preprocess.TimeSeriesPanel(
        entity_ids=("x", "y"),
        dates=tuple(dt.date(2021, 1, 1) + dt.timedelta(days=j) for j in range(50)),
        values=values,
    )
    once = preprocess.normalize(panel)
    twice = preprocess.normalize(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=-50, max_value=50, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
    b=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_normalize_scale_shift_invariance(a, b):
    rng = np.random.default_rng(8)
    base = rng.normal(10, 4, size=(1, 40))
    dates = tuple(dt.date(2021, 1, 1) + dt.timedelta(days=j) for j in range(40))
    panel = preprocess.TimeSeriesPanel(("e",), dates, base)
    scaled = preprocess.TimeSeriesPanel(("e",), dates, a * base + b)
    sign = 1.0 if a > 0 else -1.0
    np.testing.assert_allclose(
        preprocess.normalize(scaled).values,
        sign * preprocess.normalize(panel).values,
        atol=1e-9,
    )


def test_emit_ingest_roundtrip_bit_exact(rng):
    values = rng.standard_normal((4, 30)) * 1e3
    panel = preprocess.TimeSeriesPanel(
        entity_ids=("p", "q", "r", "s"),
        dates=tuple(dt.date(2019, 6, 1) + dt.timedelta(days=j) for j in range(30)),
        values=values,
    )
    buffer = io.StringIO()
    preprocess.emit_csv(panel, buffer)
    again = preprocess.ingest_csv(io.StringIO(buffer.getvalue()))
    assert again.entity_ids == panel.entity_ids
    assert again.dates == panel.dates
    np.testing.assert_array_equal(again.values, panel.values)


def csv_writer_emit(panel, stream):
    """The per-cell emitter: csv.writer with one f-string per value."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["date", *panel.entity_ids])
    for j, day in enumerate(panel.dates):
        writer.writerow([day.isoformat(), *(f"{v:.17g}" for v in panel.values[:, j])])


@pytest.mark.parametrize("n_entities", [0, 1, 5])
def test_emit_csv_bytes_match_csv_writer(rng, tmp_path, n_entities):
    special = [-1.5, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, -0.0, 0.1, 123456789.125]
    values = np.concatenate([rng.standard_normal((n_entities, 12)) * 1e3, np.tile(special, (n_entities, 1))], axis=1)
    names = ("plain", "with,comma", 'quo"te', " padded ", "12")[:n_entities]
    panel = preprocess.TimeSeriesPanel(
        entity_ids=names,
        dates=tuple(dt.date(2019, 12, 25) + dt.timedelta(days=j) for j in range(values.shape[1])),
        values=values,
    )
    expected = io.StringIO(newline="")
    csv_writer_emit(panel, expected)
    got = io.StringIO(newline="")
    preprocess.emit_csv(panel, got)
    assert got.getvalue() == expected.getvalue()
    preprocess.emit_csv(panel, tmp_path / "panel.csv")
    assert (tmp_path / "panel.csv").read_bytes() == expected.getvalue().encode("utf-8")


LONG = 200_000  # over csv's default field_size_limit of 131,072


@pytest.mark.parametrize(
    "text, row",
    [
        (f"date,a,b\n2020-01-01,1,2\n2020-01-02,{'0' * LONG}1,4\n", 3),  # a long number
        (f'date,"{"x" * LONG}",b\n2020-01-01,1,2\n2020-01-02,3,4\n', 1),  # a long quoted name
        (f"date,{'x' * LONG},b\n2020-01-01,1,2\n2020-01-02,3,4\n", 1),  # the same name unquoted
    ],
    ids=["cell", "quoted-name", "unquoted-name"],
)
def test_over_long_field_is_parse_error(text, row):
    limit = csv.field_size_limit()
    assert preprocess._ingest_fast(text) is None
    with pytest.raises(ParseError, match=rf"^row {row}: field larger than field limit \({limit}\)$"):
        panel_from_csv(text)
    assert csv.field_size_limit() == limit


def test_field_at_the_limit_is_accepted():
    name = "x" * csv.field_size_limit()
    text = f"date,{name}\n2020-01-01,1\n2020-01-02,2\n"
    assert panel_from_csv(text).entity_ids == (name,)
    assert preprocess._ingest_cells(text).entity_ids == (name,)


def test_normalized_flag_enforces_invariant():
    from trendlet.errors import InvalidInput

    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(4))
    with pytest.raises(InvalidInput):
        preprocess.TimeSeriesPanel(("e",), dates, np.array([[1.0, 2.0, 3.0, 4.0]]),
                                   normalized=True)


def test_subset_order_and_unknown():
    panel = panel_from_csv(WELL_FORMED)
    sub = preprocess.subset(panel, ["c", "a"])
    assert sub.entity_ids == ("c", "a")
    np.testing.assert_array_equal(sub.values[1], panel.values[0])
    with pytest.raises(ParseError):
        preprocess.subset(panel, ["zz"])


def test_ingest_skips_utf8_bom(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text(WELL_FORMED, encoding="utf-8")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = preprocess.ingest_csv(plain), preprocess.ingest_csv(bom)
    assert b.entity_ids == a.entity_ids
    assert b.dates == a.dates
    assert b.values.tobytes() == a.values.tobytes()


def _edge_panel(row):
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(len(row)))
    ok = np.sin(np.arange(len(row), dtype=np.float64))
    return preprocess.TimeSeriesPanel(("ok", "edge"), dates, np.vstack([ok, row]))


@pytest.mark.parametrize(
    "row",
    [
        np.resize([1e308, -1e308, 5e307], 64),  # mean and std overflow
        np.resize([5e-320, 1e-320, 3e-320], 64),  # subnormal: the variance underflows
    ],
    ids=["overflow", "subnormal"],
)
def test_normalize_unscalable_row_is_degenerate(row):
    panel = _edge_panel(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning leaks out
        with pytest.raises(DegenerateSeries, match="edge"):
            preprocess.normalize(panel)
        dropped = preprocess.normalize(panel, drop_degenerate=True)
    assert dropped.entity_ids == ("ok",)
    alone = preprocess.normalize(preprocess.subset(panel, ["ok"]))
    np.testing.assert_array_equal(dropped.values, alone.values)


def test_ingest_skips_utf8_bom_in_stream():
    plain = panel_from_csv(WELL_FORMED)
    bom = panel_from_csv("\ufeff" + WELL_FORMED)
    assert bom.entity_ids == plain.entity_ids
    assert bom.dates == plain.dates
    assert bom.values.tobytes() == plain.values.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_well_formed_panel_takes_fast_path(rng, newline):
    panel = preprocess.TimeSeriesPanel(
        entity_ids=("p", "q", "r"),
        dates=tuple(dt.date(2020, 2, 27) + dt.timedelta(days=j) for j in range(9)),
        values=rng.standard_normal((3, 9)) * 1e5,
    )
    buffer = io.StringIO()
    preprocess.emit_csv(panel, buffer)
    fast = preprocess._ingest_fast(buffer.getvalue().replace("\n", newline))
    assert fast is not None
    assert fast.values.tobytes() == panel.values.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        'date,a,b\n2020-01-01,"1000",2\n2020-01-02,3,"4"\n',  # quoted cells
        "date,a,b\n2020-01-01,1_000,2\n2020-01-02,3,4\n",  # float() reads digit groups
        "date,a,b\n2020-01-01,\u0661\u0660\u0660\u0660,2\n2020-01-02,3,4\n",  # Arabic-Indic digits
        "date,a,b\r2020-01-01,1000,2\r2020-01-02,3,4\r",  # lone CR line ends
        "date,a,b\n\n2020-01-01,1000,2\n\n2020-01-02,3,4\n",  # blank lines
    ],
    ids=["quoted", "underscore", "non-ascii-digits", "lone-cr", "blank-lines"],
)
def test_cell_scan_takes_what_fast_path_leaves(text):
    assert preprocess._ingest_fast(text) is None
    panel = panel_from_csv(text)
    np.testing.assert_array_equal(panel.values, [[1000.0, 3.0], [2.0, 4.0]])


# Cells that one parser or the other may read differently: csv quoting,
# comment marks, digit groups, non-ASCII digits and separators, blanks and
# whitespace, non-finite and out-of-range numbers.
_ODD_CELLS = [
    '"1.5"', '"1,5"', "1_000", "\u0661\u0662", "#1", "1#2", "", "  ", " 2.5 ", "\t-3\t",
    "nan", "-inf", "Infinity", "1e309", "5e-324", "0x10", "\x1c1", "1\x1f", "x", "+.5", "1.",
]


_MUTATIONS = [
    "cell", "quote", "blank line", "trailing comma", "drop row", "repeat row",
    "header name", "crlf", "line end", "stray cr",
]


@st.composite
def _panel_text(draw):
    """A small well-formed panel text, then 0-4 mutations of it."""
    n_entities = draw(st.integers(1, 3))
    n_days = draw(st.integers(1, 5))
    number = st.floats(allow_nan=False, allow_infinity=False)
    fmt = draw(st.sampled_from([repr, "{:.17g}".format, "{:.3f}".format]))
    start = dt.date(2020, 2, 27)
    rows = [["date", *(f"e{i}" for i in range(n_entities))]]
    for j in range(n_days):
        day = (start + dt.timedelta(days=j)).isoformat()
        rows.append([day, *(fmt(draw(number)) for _ in range(n_entities))])
    newlines = ["\n"] * len(rows)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(_MUTATIONS))
        r = draw(st.integers(0, len(rows) - 1))
        if kind == "cell" and r > 0 and len(rows[r]) > 1:
            rows[r][draw(st.integers(1, len(rows[r]) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == "quote" and rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = f'"{rows[r][c]}"'
        elif kind == "blank line":
            rows.insert(r, [])
            newlines.insert(r, "\n")
        elif kind == "trailing comma":
            rows[r].append("")
        elif kind == "drop row" and r > 0:
            del rows[r], newlines[r]  # a missing date, or no data rows
        elif kind == "repeat row" and r > 0:
            rows.insert(r, list(rows[r]))
            newlines.insert(r, "\n")
        elif kind == "header name" and len(rows[0]) > 1:
            c = draw(st.integers(1, len(rows[0]) - 1))
            rows[0][c] = draw(st.sampled_from(["", " ", "e0", " e0 ", "date"]))
        elif kind == "crlf":
            newlines = ["\r\n"] * len(rows)
        elif kind == "line end":
            newlines[r] = draw(st.sampled_from(["\r\n", "\r"]))
        elif kind == "stray cr" and rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(st.sampled_from(["\r{}", "{}\r"])).format(rows[r][c])
    text = "".join(",".join(row) + end for row, end in zip(rows, newlines))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _key(panel):
    return panel.entity_ids, panel.dates, panel.values.view(np.uint64).tobytes(), panel.values.strides


def _outcome(parse, arg):
    """The panel's key, or the error's class and message."""
    try:
        return _key(parse(arg))
    except TrendletError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(text=_panel_text())
@example(text="date,a,b\n2020-01-01,1,1#2\n")  # loadtxt's default comments="#"
@example(text="date,a\n2020-01-01,\x1c1\n")
@example(text="date,a\n2020-01-01,2\n2020-01-02,nan\n")
@example(text="date,a\n2020-01-01,\n")  # np.loadtxt warns on input without data
@example(text="date,a\n2020-01-01\r,1\n")  # csv ends the row at the lone CR
def test_fast_path_agrees_with_cell_scan(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _outcome(preprocess._ingest_cells, text)
        assert _outcome(preprocess.ingest_csv, io.StringIO(text, newline="")) == expected
        fast = preprocess._ingest_fast(text)
    if fast is not None:
        assert _key(fast) == expected
