import csv
import datetime as dt
import io
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendlet import preprocess
from trendlet.errors import InvalidInput, ParseError, TrendletError
from conftest import panel_from_csv, traced_peak

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


@pytest.mark.parametrize("first", ["20200101", "2020-W01-3"], ids=["basic", "week-date"])
def test_iso_dates_beyond_the_extended_form_ingest_on_both_paths(first):
    # date.fromisoformat reads the basic and the week-date forms from Python 3.11 on
    text = f"date,a\n{first},1\n2020-01-02,2\n"
    fast = preprocess._ingest_fast(text)
    assert fast is not None
    for panel in (fast, preprocess._ingest_cells(text)):
        assert panel.dates == (dt.date(2020, 1, 1), dt.date(2020, 1, 2))


def test_ingest_missing_day_names_the_date():
    text = "date,a\n2020-01-01,1\n2020-01-03,2\n"
    with pytest.raises(ParseError, match="2020-01-02"):
        panel_from_csv(text)


@pytest.mark.parametrize("entity", [None, "a"], ids=["all", "filtered"])
def test_repeated_last_calendar_day_is_out_of_order_not_overflow(entity):
    text = "date,a\n9999-12-31,1\n9999-12-31,2\n"
    with pytest.raises(ParseError, match=r"^row 3: date 9999-12-31 not after 9999-12-31$"):
        preprocess.ingest_csv(io.StringIO(text), entity)
    with pytest.raises(ParseError, match=r"^missing date 9999-12-30 \(row 3\)$"):
        preprocess.ingest_csv(io.StringIO("date,a\n9999-12-29,1\n9999-12-31,2\n"), entity)


def test_ingest_non_numeric_cell_names_row_and_column():
    text = "date,a,b\n2020-01-01,1,2\n2020-01-02,1,oops\n"
    with pytest.raises(ParseError, match=r"row 3, column 3"):
        panel_from_csv(text)


def test_ingest_misc_errors():
    with pytest.raises(ParseError, match=r"^no header row$"):
        panel_from_csv("")
    with pytest.raises(ParseError, match=r"^no data rows$"):
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
    with pytest.raises(InvalidInput, match="a"):
        preprocess.normalize(panel)


def test_normalize_drop_degenerate_removes_row():
    panel = panel_from_csv("date,a,b\n2020-01-01,5,1\n2020-01-02,5,2\n2020-01-03,5,4\n")
    normed = preprocess.normalize(panel, drop_degenerate=True)
    assert normed.entity_ids == ("b",)
    assert normed.values.shape == (1, 3)


def test_drop_degenerate_with_every_series_degenerate_names_them():
    panel = panel_from_csv("date,a,b,c\n2020-01-01,5,7,9\n2020-01-02,5,7,9\n2020-01-03,5,7,9\n")
    with pytest.raises(InvalidInput, match="every series is degenerate.*: a, b, c$"):
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


def _dated_panel(values):
    n, d = values.shape
    return preprocess.TimeSeriesPanel(
        entity_ids=tuple(f"e{i}" for i in range(n)),
        dates=tuple(dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(d)),
        values=values,
    )


def whole_panel_normalize(vals):
    """normalize's z-scores computed over the whole panel at once, from its
    C-ordered copy: the reference that the row-blocked computation must
    match bit for bit, whatever the layout of ``vals``."""
    rows = np.ascontiguousarray(vals)
    with np.errstate(all="ignore"):
        return (rows - rows.mean(axis=1, keepdims=True)) / rows.std(axis=1, keepdims=True)


def row_by_row_unit_rows(vals):
    """_unit_rows' mask computed one contiguous row at a time."""
    mask = []
    with np.errstate(all="ignore"):
        for row in np.ascontiguousarray(vals):
            mask.append(np.isfinite(row).all() and abs(row.mean()) <= 1e-9 and abs(row.std() - 1.0) <= 1e-9)
    return np.array(mask, dtype=bool)


# rows per block at the paper's 846 days
STEP = preprocess._BLOCK_BYTES // (8 * 846)


def _in_layout(values, layout):
    """``values`` in C order, in F order (as ingest gives a panel), or as every
    other row of an F-ordered array (a strided view)."""
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    spread = np.zeros((2 * len(values), values.shape[1]), order="F")
    spread[::2] = values
    return spread[::2]


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n_rows", [1, 2, 3, STEP - 1, STEP, STEP + 1, 2 * STEP + 1, 5 * STEP + 1])
def test_row_blocks_keep_the_whole_panel_bits(layout, n_rows):
    """Every layout of the same values, cut into blocks anywhere (STEP + 1 rows
    leave a one-row block), gives the C-ordered bytes of the whole panel's
    z-scores, which are ``(r - r.mean()) / r.std()`` of each contiguous row r;
    _unit_rows gives every layout the mask of each contiguous row."""
    values = np.random.default_rng(n_rows).normal(100.0, 7.0, size=(n_rows, 846))
    vals = _in_layout(values, layout)
    if n_rows > 1:
        assert vals.flags.c_contiguous == (layout == "C") and vals.flags.forc == (layout != "strided")
    normed = preprocess.normalize(_dated_panel(vals)).values
    reference = whole_panel_normalize(values)
    assert normed.flags.c_contiguous
    assert normed.tobytes() == reference.tobytes()
    assert normed.tobytes() == np.array([(r - r.mean()) / r.std() for r in values]).tobytes()
    # every third row off unit scale, so the mask holds both answers
    probe = reference.copy()
    probe[1::3] *= 1.0 + 4e-9
    mask = preprocess._unit_rows(_in_layout(probe, layout))
    assert mask.tobytes() == row_by_row_unit_rows(probe).tobytes()
    assert mask[0] and (n_rows == 1 or not mask.all())


@pytest.mark.parametrize("n_rows", [1, 2, 3, STEP - 1, STEP, STEP + 1, STEP + 2, 2 * STEP + 1, 5 * STEP + 1])
@pytest.mark.parametrize("n_days", [846, preprocess._BLOCK_BYTES // 8 + 1])
def test_row_blocks_are_block_bytes_slices_in_order(n_rows, n_days):
    """Blocks of _BLOCK_BYTES // (8 * n_days) rows (one row when a row is
    longer) from the first row on; only the last block may be shorter."""
    blocks = list(preprocess._row_blocks(n_rows, n_days))
    assert [rows.start for rows in blocks] == [0, *(rows.stop for rows in blocks[:-1])]
    assert blocks[-1].stop == n_rows
    sizes = [rows.stop - rows.start for rows in blocks]
    step = max(1, preprocess._BLOCK_BYTES // (8 * n_days))
    assert sizes[:-1] == [step] * (len(sizes) - 1)
    assert 1 <= sizes[-1] <= step
    assert step == 1 or step * 8 * n_days <= preprocess._BLOCK_BYTES < (step + 1) * 8 * n_days


def test_normalize_checks_unit_rows_once_on_a_clean_panel(monkeypatch, rng):
    calls = []
    unit_rows = preprocess._unit_rows

    def counted(vals):
        calls.append(vals.shape)
        return unit_rows(vals)

    monkeypatch.setattr(preprocess, "_unit_rows", counted)
    normed = preprocess.normalize(_dated_panel(rng.normal(5.0, 2.0, size=(7, 64))))
    assert normed.normalized
    assert calls == [(7, 64)]


def test_normalize_holds_the_panel_once(rng):
    panel = _dated_panel(rng.normal(100.0, 7.0, size=(2000, 846)))
    normed, peak = traced_peak(preprocess.normalize, panel)
    assert normed.values.tobytes() == whole_panel_normalize(panel.values).tobytes()
    assert peak <= 1.25 * panel.values.nbytes + 2**21


def test_emit_csv_to_a_file_holds_one_day(rng, tmp_path):
    panel = _dated_panel(rng.normal(100.0, 7.0, size=(2000, 846)))
    path = tmp_path / "panel.csv"
    _, peak = traced_peak(preprocess.emit_csv, panel, path)
    assert peak < 0.1 * panel.values.nbytes
    assert preprocess.ingest_csv(path).values.tobytes() == panel.values.tobytes()


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


D0 = dt.date(2020, 1, 1)


@pytest.mark.parametrize(
    "ids, dates, message",
    [
        (("a", "b"), (D0, D0 + dt.timedelta(1), D0 + dt.timedelta(2)),
         r"panel shape \(2, 4\) does not match 2 entities x 3 days"),
        (("a", ""), None, "entity id '' is not a non-empty string without surrounding whitespace"),
        (("a", " b"), None, "entity id ' b' is not a non-empty string without surrounding whitespace"),
        (("a", "b\x1f"), None, r"entity id 'b\\x1f' is not a non-empty string without surrounding whitespace"),
        (("a", 7), None, "entity id 7 is not a non-empty string without surrounding whitespace"),
        (("a", "a"), None, "entity id 'a' repeated"),
        (None, (D0, D0 + dt.timedelta(1), "2020-01-03", D0 + dt.timedelta(3)),
         "date '2020-01-03' is not a datetime.date"),
        (None, (dt.datetime(2020, 1, 1), D0 + dt.timedelta(1), D0 + dt.timedelta(2), D0 + dt.timedelta(3)),
         r"date datetime.datetime\(2020, 1, 1, 0, 0\) is not a datetime.date"),
        (None, (D0, D0 + dt.timedelta(2), D0 + dt.timedelta(3), D0 + dt.timedelta(4)),
         "date 2020-01-03 does not follow 2020-01-01 by one day"),
        (None, (D0, D0 + dt.timedelta(1), D0 + dt.timedelta(1), D0 + dt.timedelta(2)),
         "date 2020-01-02 does not follow 2020-01-02 by one day"),
        # emit_csv would write "date\n2020-01-01\n..." and "date,a,b\n", which ingest refuses
        ((), None, "panel has no entities"),
        (None, (), "panel has no dates"),
    ],
    ids=["shape", "empty-id", "padded-id", "control-padded-id", "int-id", "repeated-id", "str-date",
         "datetime", "gap", "repeated-date", "no-entities", "no-dates"],
)
def test_panel_rejects_what_its_csv_cannot_carry(ids, dates, message):
    ids = ("a", "b") if ids is None else ids
    dates = tuple(D0 + dt.timedelta(j) for j in range(4)) if dates is None else dates
    with pytest.raises(ParseError, match=f"^{message}$"):
        preprocess.TimeSeriesPanel(ids, dates, np.ones((2, 4)))


# ids built from the characters the CSV format treats specially, and any others
ENTITY_IDS = st.lists(
    st.text(alphabet=st.sampled_from(' ,"\r\n\t\x1f\ufeffa#'), max_size=3) | st.text(max_size=3),
    min_size=1, max_size=4,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(ids=ENTITY_IDS, start=st.dates(min_value=dt.date(2, 1, 1), max_value=dt.date(9999, 12, 27)),
       steps=st.lists(st.sampled_from([1, 1, 1, 2, 0, -1]), max_size=3))
@example(ids=("a", "a", ""), start=dt.date(2020, 1, 1), steps=[2, 2])
@example(ids=("0\r0",), start=dt.date(2000, 1, 1), steps=[])  # a lone CR must be quoted
def test_a_panel_round_trips_through_csv_or_is_refused(ids, start, steps):
    """A panel the constructor accepts is emitted and ingested back bit for bit,
    and the constructor refuses exactly the panels that break the format's rules."""
    dates = [start]
    for step in steps:
        dates.append(dates[-1] + dt.timedelta(days=step))
    values = np.arange(len(ids) * len(dates), dtype=np.float64).reshape(len(ids), len(dates)) / 7.0
    carried = (
        all(isinstance(e, str) and e and e == e.strip() for e in ids)
        and len(set(ids)) == len(ids)
        and all(step == 1 for step in steps)
    )
    try:
        panel = preprocess.TimeSeriesPanel(ids, tuple(dates), values)
    except ParseError:
        assert not carried
        return
    assert carried
    buffer = io.StringIO(newline="")
    preprocess.emit_csv(panel, buffer)
    again = preprocess.ingest_csv(io.StringIO(buffer.getvalue(), newline=""))
    assert again.entity_ids == panel.entity_ids
    assert again.dates == panel.dates
    assert again.values.tobytes() == panel.values.tobytes()


def csv_writer_emit(panel, stream):
    """The per-cell emitter: csv.writer with one f-string per value."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["date", *panel.entity_ids])
    for j, day in enumerate(panel.dates):
        writer.writerow([day.isoformat(), *(f"{v:.17g}" for v in panel.values[:, j])])


@pytest.mark.parametrize("n_entities", [1, 5])
def test_emit_csv_bytes_match_csv_writer(rng, tmp_path, n_entities):
    special = [-1.5, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, -0.0, 0.1, 123456789.125]
    values = np.concatenate([rng.standard_normal((n_entities, 12)) * 1e3, np.tile(special, (n_entities, 1))], axis=1)
    # a panel id has no surrounding whitespace: ingest would strip it
    names = ("plain", "with,comma", 'quo"te', "in side", "12")[:n_entities]
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


@pytest.mark.parametrize("limit", [21, 22, 41])  # over 20, so a probe block holds the date's comma
def test_field_limit_probe_is_exact(limit):
    """A cell of ``limit`` characters stays on the fast path, one of ``limit + 1`` reaches the
    cell scan, wherever the cell starts in a probe block."""
    saved = csv.field_size_limit(limit)
    try:
        for shift in range(limit):
            short = ["1"] * (shift // 2) + ["1" * (1 + shift % 2)]  # the long cell starts at 13 + shift
            header = ",".join(["date", *(f"e{i}" for i in range(len(short) + 1))])
            first = ",".join(["2"] * (len(short) + 1))
            for length in (limit, limit + 1):
                text = f"{header}\n2020-01-01,{first}\n2020-01-02,{','.join(short)},{'0' * (length - 1)}1\n"
                fast = preprocess._ingest_fast(text)
                if length == limit:
                    assert fast is not None
                    np.testing.assert_array_equal(fast.values[-1], [2.0, 1.0])
                else:
                    assert fast is None
                    with pytest.raises(ParseError, match=rf"^row 3: field larger than field limit \({limit}\)$"):
                        panel_from_csv(text)
    finally:
        csv.field_size_limit(saved)
    assert csv.field_size_limit() == saved


def test_normalized_flag_enforces_invariant():
    from trendlet.errors import InvalidInput

    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(4))
    with pytest.raises(InvalidInput):
        preprocess.TimeSeriesPanel(("e",), dates, np.array([[1.0, 2.0, 3.0, 4.0]]),
                                   normalized=True)


def test_subset_order_and_unknown():
    panel = panel_from_csv(WELL_FORMED)
    one = preprocess.ingest_csv(io.StringIO(WELL_FORMED), entity="c")
    assert one.entity_ids == ("c",)
    np.testing.assert_array_equal(one.values, panel.values[2:])
    with pytest.raises(InvalidInput, match="'zz' not in panel"):
        preprocess.ingest_csv(io.StringIO(WELL_FORMED), entity="zz")


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
        with pytest.raises(InvalidInput, match="edge"):
            preprocess.normalize(panel)
        dropped = preprocess.normalize(panel, drop_degenerate=True)
    assert dropped.entity_ids == ("ok",)
    alone = preprocess.normalize(preprocess.TimeSeriesPanel(("ok",), panel.dates, panel.values[:1]))
    np.testing.assert_array_equal(dropped.values, alone.values)


def test_ingest_skips_utf8_bom_in_stream():
    plain = panel_from_csv(WELL_FORMED)
    bom = panel_from_csv("\ufeff" + WELL_FORMED)
    assert bom.entity_ids == plain.entity_ids
    assert bom.dates == plain.dates
    assert bom.values.tobytes() == plain.values.tobytes()


def test_ingest_and_emit_take_str_bytes_and_pathlike_paths_and_text_streams(tmp_path):
    panel = panel_from_csv(WELL_FORMED)
    path = tmp_path / "panel.csv"
    text = io.StringIO(newline="")
    preprocess.emit_csv(panel, text)
    for target in (str(path), bytes(path), path):
        path.unlink(missing_ok=True)
        preprocess.emit_csv(panel, target)
        assert path.read_bytes() == text.getvalue().encode()
        assert preprocess.ingest_csv(target).values.tobytes() == panel.values.tobytes()
    with open(path, encoding="utf-8", newline="") as fh:
        assert preprocess.ingest_csv(fh).values.tobytes() == panel.values.tobytes()


@pytest.mark.parametrize("source", [io.BytesIO(WELL_FORMED.encode()), None, 3, 2.5, bytearray(b"panel.csv")],
                         ids=["BytesIO", "None", "int", "float", "bytearray"])
def test_ingest_refuses_what_is_not_a_path_or_a_text_stream(source):
    message = f"^panel source must be a path or a text stream, got {type(source).__name__}$"
    with pytest.raises(InvalidInput, match=message):
        preprocess.ingest_csv(source)


@pytest.mark.parametrize("target", [io.BytesIO(), None, 3], ids=["BytesIO", "None", "int"])
def test_emit_refuses_what_is_not_a_path_or_a_text_stream(target):
    message = f"^panel target must be a path or a text stream, got {type(target).__name__}$"
    with pytest.raises(InvalidInput, match=message):
        preprocess.emit_csv(panel_from_csv(WELL_FORMED), target)
    if isinstance(target, io.BytesIO):
        assert target.getvalue() == b""


def test_an_open_file_descriptor_is_neither_read_nor_written_nor_closed():
    read_fd, write_fd = os.pipe()
    try:
        with pytest.raises(InvalidInput, match="got int$"):
            preprocess.emit_csv(panel_from_csv(WELL_FORMED), write_fd)
        os.write(write_fd, WELL_FORMED.encode())
        with pytest.raises(InvalidInput, match="got int$"):
            preprocess.ingest_csv(read_fd)
        assert os.read(read_fd, 1 << 16) == WELL_FORMED.encode()
    finally:
        os.close(read_fd)
        os.close(write_fd)


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
@example(text="date,a\n2020-01-01,1\n2020-01-03,2\n")  # a missing day
@example(text="date,a\n2020-01-01,1\n2020-01-01,2\n")  # a repeated date
@example(text="date,a,b\n2020-01-01,1\n2020-01-02,2\n")  # every data row one cell short
def test_fast_path_agrees_with_cell_scan(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _outcome(preprocess._ingest_cells, text)
        assert _outcome(preprocess.ingest_csv, io.StringIO(text, newline="")) == expected
        fast = preprocess._ingest_fast(text)
    if fast is not None:
        assert _key(fast) == expected


@st.composite
def _panel_text_and_entity(draw):
    """A panel text from ``_panel_text`` and one of its header names,
    now and then a name the header lacks."""
    text = draw(_panel_text())
    header = next(csv.reader(io.StringIO(text, newline="")), [])
    names = sorted({name.strip() for name in header[1:]} | {"zz"})
    return text, draw(st.sampled_from(names))


_BAD_CELL = re.compile(r"^row \d+, column (\d+): (bad number|non-finite value) ")


@settings(max_examples=150, deadline=None)
@given(case=_panel_text_and_entity())
@example(case=("date,a,b\n2020-01-01,1,x\n2020-01-02,2,nan\n", "a"))
@example(case=("date,a,b\n2020-01-01,1,2\n2020-01-02,3\n", "a"))  # a short row
@example(case=("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4,5\n", "a"))  # a long row
@example(case=("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n", "b"))
@example(case=("date,a,b\n2020-01-01,1,2\n2020-01-03,3,x\n", "zz"))
@example(case=("date,a,b\n2020-01-01,x,y\n", "b"))  # only the entity's own bad cell
def test_filtered_ingest_agrees_with_cell_scan_and_full_panel(case):
    text, entity = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _outcome(lambda t: preprocess._ingest_cells(t, entity), text)
        got = _outcome(lambda t: preprocess.ingest_csv(io.StringIO(t, newline=""), entity), text)
        fast = preprocess._ingest_fast(text, entity)
        full = _outcome(preprocess._ingest_cells, text)
    # (a) the fast path, the cell scan and ingest_csv agree
    assert got == expected
    if fast is not None:
        assert _key(fast) == expected
    filtered_ok = not isinstance(expected[0], type)
    if not isinstance(full[0], type):
        # (b) a panel that parses whole gives exactly the requested row
        ids, dates, values = full[0], full[1], panel_from_csv(text).values
        if entity not in ids:
            assert expected == (InvalidInput, f"entity {entity!r} not in panel")
        else:
            assert expected[:2] == ((entity,), dates)
            assert expected[2] == values[ids.index(entity)].view(np.uint64).tobytes()
    else:
        match = _BAD_CELL.match(full[1]) if full[0] is ParseError else None
        if match:
            header = preprocess._entity_ids(next(csv.reader(io.StringIO(text, newline=""))))
        outside = match is not None and header[int(match.group(1)) - 2] != entity
        if filtered_ok:
            # (c) only a bad cell outside the requested column can fail the whole panel
            assert outside, full
        elif not outside:
            # every other error of the whole panel, the first in reading order, is the filtered one's
            assert expected == full


NOT_UTF8 = b"date,a\n2020-01-01,1\n2020-01-02,\xff\n"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("entity", [None, "a"], ids=["all", "filtered"])
def test_non_utf8_path_is_parse_error_naming_the_offset(tmp_path, bom, entity):
    path = tmp_path / "bad.csv"
    path.write_bytes(bom + NOT_UTF8)
    offset = len(bom) + NOT_UTF8.index(b"\xff")
    message = rf"^input is not utf-8 text: byte 0xff at offset {offset} \(invalid start byte\)$"
    with pytest.raises(ParseError, match=message):
        preprocess.ingest_csv(path, entity)


@pytest.mark.parametrize("encoding, reason", [("utf-8", "invalid start byte"), ("ascii", "ordinal not in range")])
def test_undecodable_stream_is_parse_error_naming_the_offset(encoding, reason):
    stream = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding=encoding, newline="")
    with pytest.raises(ParseError, match=rf"^input is not {encoding} text: byte 0xff at offset 31 \({reason}"):
        preprocess.ingest_csv(stream)


def test_filtered_ingest_from_a_path(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(WELL_FORMED.replace("2020-01-02,2.0,5.0", "2020-01-02,2.0,oops"))
    panel = preprocess.ingest_csv(path, entity="c")
    assert panel.entity_ids == ("c",)
    np.testing.assert_array_equal(panel.values, [[5.5] * 4])
    with pytest.raises(ParseError, match=r"^row 3, column 3: bad number 'oops'$"):
        preprocess.ingest_csv(path, entity="b")
