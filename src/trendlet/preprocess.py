"""Panel ingestion from CSV and per-series normalization.

The on-disk format is one header row ``date,<entity1>,<entity2>,...``
followed by one row per day; a leading UTF-8 byte-order mark is skipped,
from a path or a text stream.  Dates must be ISO-8601, strictly
increasing and gap-free at daily frequency.  In memory the panel is
transposed: one row per entity.

A well-formed panel is parsed in one vectorised ``np.loadtxt`` pass.
Anything else (quoted cells, lone CR line ends, blank lines, the few
numbers that ``float()`` reads but ``np.loadtxt`` does not, such as
``1_000`` or non-ASCII digits, and every malformed panel) goes through
a slower cell-by-cell scan, which accepts it to the same bits or raises
the error that names the bad row and column.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSeries, EmptyInput, GapError, InvalidInput, ParseError

__all__ = ["TimeSeriesPanel", "ingest_csv", "normalize", "emit_csv"]

log = logging.getLogger(__name__)

_ONE_DAY = dt.timedelta(days=1)


def _unit_rows(vals: np.ndarray) -> np.ndarray:
    """Mask of the rows that are finite with zero mean and unit population std (1e-9)."""
    with np.errstate(all="ignore"):
        return (
            np.isfinite(vals).all(axis=1)
            & (np.abs(vals.mean(axis=1)) <= 1e-9)
            & (np.abs(vals.std(axis=1) - 1.0) <= 1e-9)
        )


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Rectangular set of equal-length daily series, one row per entity."""

    entity_ids: tuple[str, ...]
    dates: tuple[dt.date, ...]
    values: np.ndarray  # shape (n_entities, n_days)
    normalized: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ParseError(f"panel values must be 2-D, got shape {vals.shape}")
        if vals.shape != (len(self.entity_ids), len(self.dates)):
            raise ParseError(
                f"panel shape {vals.shape} does not match "
                f"{len(self.entity_ids)} entities x {len(self.dates)} days"
            )
        if not np.all(np.isfinite(vals)):
            raise ParseError("panel contains non-finite values")
        if self.normalized and vals.size and not _unit_rows(vals).all():
            raise InvalidInput("normalized panel must have zero-mean, unit-std rows")
        object.__setattr__(self, "values", vals)

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_days(self) -> int:
        return len(self.dates)


def ingest_csv(source) -> TimeSeriesPanel:
    """Read a panel from a file path or text stream.

    Raises ParseError for malformed cells or ragged rows, GapError when a
    day is missing, EmptyInput for a file without data rows.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    text = text.removeprefix("\ufeff")
    panel = _ingest_fast(text)
    return _ingest_cells(text) if panel is None else panel


def _entity_ids(header: list[str]) -> tuple[str, ...]:
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise ParseError("header must be 'date,<entity>,...'")
    entity_ids = tuple(name.strip() for name in header[1:])
    if any(not name for name in entity_ids):
        raise ParseError("empty entity name in header")
    if len(set(entity_ids)) != len(entity_ids):
        raise ParseError("duplicate entity name in header")
    return entity_ids


# A text holding any of these goes to the cell scan: '"' starts a csv quoted
# cell, and np.loadtxt strips \x1c-\x1f around a number as whitespace where
# float() rejects the cell.
_CELL_SCAN_ONLY = '"\x1c\x1d\x1e\x1f'


def _ingest_fast(text: str) -> TimeSeriesPanel | None:
    """Parse a well-formed panel with one np.loadtxt call, or return None.

    Covers unquoted cells, LF or CRLF line ends without blank lines, and
    finite numbers that np.loadtxt parses.  On any other text it returns
    None and never raises, so every error comes from ``_ingest_cells``.
    Where both accept a text they return the same panel, bit for bit.
    """
    if any(c in text for c in _CELL_SCAN_ONLY):
        return None
    newline = "\n"
    if "\r" in text:
        if not text.count("\r") == text.count("\r\n") == text.count("\n"):
            return None  # a lone "\r" or mixed line ends
        newline = "\r\n"
    lines = text.split(newline)
    if lines[-1] == "":
        del lines[-1]
    if len(lines) < 2:
        return None
    limit = csv.field_size_limit()
    if any(len(line) > limit and max(map(len, line.split(","))) > limit for line in lines):
        return None  # a cell csv refuses as too long
    try:
        entity_ids = _entity_ids(lines[0].split(","))
        dates = []
        for i in range(1, len(lines)):
            day, _, rest = lines[i].partition(",")
            if not rest:
                return None  # a blank line, or a row of one cell
            dates.append(dt.date.fromisoformat(day.strip()))
            lines[i] = rest  # replace in place: no second copy of the text
        # comments=None: the default "#" would silently cut a cell short
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except (ParseError, ValueError):
        return None
    if any(b - a != _ONE_DAY for a, b in zip(dates, dates[1:])):
        return None
    if values.shape != (len(dates), len(entity_ids)) or not np.isfinite(values).all():
        return None
    # days x entities -> entities x days, the same layout as the cell scan's
    return TimeSeriesPanel(entity_ids=entity_ids, dates=tuple(dates), values=values.T)


def _records(text: str):
    """(row number, cells) of each csv record; csv's own errors become ParseError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    row_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise ParseError(f"row {row_no}: {exc}") from None
        yield row_no, row
        row_no += 1


def _ingest_cells(text: str) -> TimeSeriesPanel:
    """Parse a panel cell by cell with csv and float().

    Slower than ``_ingest_fast``, but it takes everything the format allows
    (quoted cells, lone CR line ends, blank lines, every number float() reads)
    and names the row and column of the first bad cell.
    """
    records = _records(text)
    try:
        _, header = next(records)
    except StopIteration:
        raise EmptyInput("no header row") from None
    entity_ids = _entity_ids(header)

    dates: list[dt.date] = []
    columns: list[list[float]] = []
    for row_no, row in records:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"row {row_no}: bad date {row[0]!r}") from None
        if dates:
            expected = dates[-1] + _ONE_DAY
            if day == expected:
                pass
            elif day > expected:
                raise GapError(f"missing date {expected.isoformat()} (row {row_no})")
            else:
                raise ParseError(
                    f"row {row_no}: date {day.isoformat()} not after {dates[-1].isoformat()}"
                )
        dates.append(day)
        cells = []
        for col_no, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"row {row_no}, column {col_no}: bad number {cell!r}") from None
            if not np.isfinite(value):
                raise ParseError(f"row {row_no}, column {col_no}: non-finite value {cell!r}")
            cells.append(value)
        columns.append(cells)
    if not dates:
        raise EmptyInput("no data rows")
    values = np.asarray(columns, dtype=np.float64).T  # days x entities -> entities x days
    return TimeSeriesPanel(entity_ids=entity_ids, dates=tuple(dates), values=values)


def normalize(panel: TimeSeriesPanel, drop_degenerate: bool = False) -> TimeSeriesPanel:
    """Z-score each row with its population standard deviation.

    A row that cannot be scaled (constant, or so large or so small that its
    mean or standard deviation over- or underflows) is degenerate: by
    default it aborts the run with DegenerateSeries naming the entity, with
    ``drop_degenerate`` it is removed and logged instead, unless every row
    is degenerate and nothing would be left.
    """
    vals = panel.values
    with np.errstate(all="ignore"):
        mean = vals.mean(axis=1, keepdims=True)
        std = vals.std(axis=1, keepdims=True)  # population (1/N) std
        normed = (vals - mean) / std
    degenerate = ~_unit_rows(normed)
    ids = panel.entity_ids
    if degenerate.any():
        bad = [ids[i] for i in np.flatnonzero(degenerate)]
        if not drop_degenerate:
            raise DegenerateSeries(
                f"degenerate series (constant, or its scale over- or underflows): {', '.join(bad)}"
            )
        if degenerate.all():
            raise DegenerateSeries(
                "every series is degenerate (constant, or its scale over- or underflows), "
                f"so dropping them leaves none: {', '.join(bad)}"
            )
        log.warning("dropping %d degenerate series: %s", len(bad), ", ".join(bad))
        normed = normed[~degenerate]
        ids = tuple(e for e, bad_row in zip(ids, degenerate) if not bad_row)
    return TimeSeriesPanel(entity_ids=ids, dates=panel.dates, values=normed, normalized=True)


def emit_csv(panel: TimeSeriesPanel, target) -> None:
    """Write a panel in the ingestion format (17 significant digits)."""
    if hasattr(target, "write"):
        _emit(panel, target)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _emit(panel, fh)


def _emit(panel: TimeSeriesPanel, stream) -> None:
    # csv quotes entity names that need it; a number never does, so each
    # day is one %-format (%.17g formats a float as f"{v:.17g}" does)
    csv.writer(stream, lineterminator="\n").writerow(["date", *panel.entity_ids])
    row = "%s" + ",%.17g" * panel.n_entities + "\n"
    for day, values in zip(panel.dates, panel.values.T.tolist()):
        stream.write(row % (day.isoformat(), *values))


def subset(panel: TimeSeriesPanel, entity_ids) -> TimeSeriesPanel:
    """Panel restricted to the given entities, in the given order."""
    index = {e: i for i, e in enumerate(panel.entity_ids)}
    missing = [e for e in entity_ids if e not in index]
    if missing:
        raise ParseError(f"unknown entities: {', '.join(missing)}")
    rows = [index[e] for e in entity_ids]
    return replace(panel, entity_ids=tuple(entity_ids), values=panel.values[rows])
