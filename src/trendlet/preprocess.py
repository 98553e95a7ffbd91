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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ParseError, as_array

__all__ = ["TimeSeriesPanel", "ingest_csv", "normalize", "emit_csv", "csv_writer"]

log = logging.getLogger(__name__)

_ONE_DAY = dt.timedelta(days=1)


# normalize and _unit_rows reduce the panel in row blocks of about this many
# bytes, so their temporaries are a block's, not the panel's
_BLOCK_BYTES = 1 << 20


def _row_blocks(n_rows: int, n_days: int):
    """Slices of about ``_BLOCK_BYTES`` of float64 rows that cover ``n_rows`` in order.

    Every block holds at least two rows unless the panel has only one: numpy
    reduces a lone row of an F-ordered panel or a strided view pairwise, but
    several rows one day at a time, so a one-row block would change that row's
    mean and std bits.  A last block of one row joins the block before it.
    """
    step = max(2, _BLOCK_BYTES // (8 * n_days))
    start = 0
    while start < n_rows:
        stop = start + step
        if stop > n_rows - 2:
            stop = n_rows
        yield slice(start, stop)
        start = stop


def _unit_rows(vals: np.ndarray) -> np.ndarray:
    """Mask of the rows that are finite with zero mean and unit population std (1e-9).

    Computed over row blocks (``_row_blocks``): besides the mask it holds one
    block's temporaries, and every row's mean and std keep the bits of a
    whole-panel reduction.
    """
    mask = np.empty(len(vals), dtype=bool)
    with np.errstate(all="ignore"):
        for rows in _row_blocks(*vals.shape):
            block = vals[rows]
            mask[rows] = (
                np.isfinite(block).all(axis=1)
                & (np.abs(block.mean(axis=1)) <= 1e-9)
                & (np.abs(block.std(axis=1) - 1.0) <= 1e-9)
            )
    return mask


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Rectangular set of equal-length daily series, one row per entity.

    ``values`` goes through ``as_array`` (2-D).  The panel must be one that
    ``emit_csv`` can write and ``ingest_csv`` read back: no entities, no
    dates, a shape that disagrees with the ids and dates, an id that is not
    a non-empty ``str`` without surrounding whitespace, a repeated id, and a
    date that is not a ``datetime.date`` one day after the one before are
    ParseError.
    """

    entity_ids: tuple[str, ...]
    dates: tuple[dt.date, ...]
    values: np.ndarray  # shape (n_entities, n_days)
    normalized: bool = False

    def __post_init__(self):
        vals = as_array(self.values, "panel values", 2)
        if not self.entity_ids:
            raise ParseError("panel has no entities")
        if not self.dates:
            raise ParseError("panel has no dates")
        if vals.shape != (len(self.entity_ids), len(self.dates)):
            raise ParseError(
                f"panel shape {vals.shape} does not match "
                f"{len(self.entity_ids)} entities x {len(self.dates)} days"
            )
        seen = set()
        for entity in self.entity_ids:
            if not isinstance(entity, str) or not entity or entity != entity.strip():
                raise ParseError(
                    f"entity id {entity!r} is not a non-empty string without surrounding whitespace"
                )
            if entity in seen:
                raise ParseError(f"entity id {entity!r} repeated")
            seen.add(entity)
        for i, day in enumerate(self.dates):
            if not isinstance(day, dt.date) or isinstance(day, dt.datetime):
                raise ParseError(f"date {day!r} is not a datetime.date")
            if i and day - self.dates[i - 1] != _ONE_DAY:
                raise ParseError(f"date {day} does not follow {self.dates[i - 1]} by one day")
        if self.normalized and not _unit_rows(vals).all():
            raise InvalidInput("normalized panel must have zero-mean, unit-std rows")
        object.__setattr__(self, "values", vals)

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_days(self) -> int:
        return len(self.dates)


def ingest_csv(source, entity=None) -> TimeSeriesPanel:
    """Read a panel from a file path or text stream.

    With ``entity``, one entity name, numbers are parsed only in its column
    and the panel holds just that entity; the header, every date and every
    row's field count are checked as without it, and a name the header
    lacks raises InvalidInput.

    Raises ParseError for malformed cells or ragged rows, a missing or
    repeated day, a file without data rows and input that is not UTF-8.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"input is not {exc.encoding} text: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start} ({exc.reason})"
        ) from None
    text = text.removeprefix("\ufeff")
    panel = _ingest_fast(text, entity)
    return _ingest_cells(text, entity) if panel is None else panel


def _entity_ids(header: list[str]) -> tuple[str, ...]:
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise ParseError("header must be 'date,<entity>,...'")
    entity_ids = tuple(name.strip() for name in header[1:])
    if any(not name for name in entity_ids):
        raise ParseError("empty entity name in header")
    if len(set(entity_ids)) != len(entity_ids):
        raise ParseError("duplicate entity name in header")
    return entity_ids


def _columns(entity_ids: tuple[str, ...], entity) -> list[int]:
    """Row positions of the cells read as numbers (0 is the date), none for a missing ``entity``."""
    if entity is None:
        return list(range(1, len(entity_ids) + 1))
    return [i for i, e in enumerate(entity_ids, start=1) if e == entity]


# A text holding any of these goes to the cell scan: '"' starts a csv quoted
# cell, and np.loadtxt strips \x1c-\x1f around a number as whitespace where
# float() rejects the cell.
_CELL_SCAN_ONLY = '"\x1c\x1d\x1e\x1f'


def _holds_long_cell(line: str) -> bool:
    """Whether a line holds a cell longer than ``csv.field_size_limit()``.

    Such a cell is a comma-free run of at least ``limit + 1`` characters, so
    it covers one whole aligned block of ``(limit + 1) // 2`` characters:
    only a line with a comma-free block is split to measure its cells.
    """
    limit = csv.field_size_limit()
    if len(line) <= limit:
        return False
    width = max(1, (limit + 1) // 2)
    if all(line.find(",", p, p + width) >= 0 for p in range(0, len(line) - width + 1, width)):
        return False
    return max(map(len, line.split(","))) > limit


def _ingest_fast(text: str, entity=None) -> TimeSeriesPanel | None:
    """Parse a well-formed panel with one np.loadtxt call, or return None.

    Covers unquoted cells, LF or CRLF line ends without blank lines, and
    finite numbers that np.loadtxt parses, in the column of ``entity``
    (every column when None).  On any other text, or an ``entity`` the
    header lacks, it returns None and never raises, so every error comes from
    ``_ingest_cells``.  Where both accept a text they return the same
    panel, bit for bit.
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
    if any(map(_holds_long_cell, lines)):
        return None  # a cell csv refuses as too long
    try:
        entity_ids = _entity_ids(lines[0].split(","))
        columns = _columns(entity_ids, entity)
        if not columns:
            return None  # the cell scan names the missing entity
        commas = len(entity_ids) - 1
        dates = []
        for i in range(1, len(lines)):
            day, _, rest = lines[i].partition(",")
            if not rest:
                return None  # a blank line, or a row of one cell
            if entity is not None and rest.count(",") != commas:
                return None  # a ragged row, which np.loadtxt with usecols lets pass
            dates.append(dt.date.fromisoformat(day.strip()))
            lines[i] = rest  # replace in place: no second copy of the text
        # comments=None: the default "#" would silently cut a cell short
        values = np.loadtxt(
            lines[1:],
            delimiter=",",
            comments=None,
            dtype=np.float64,
            usecols=None if entity is None else [c - 1 for c in columns],
            ndmin=2,
        )
        # days x entities -> entities x days, the same layout as the cell scan's;
        # the panel refuses a missing or repeated day, a short row and a non-finite value
        ids = entity_ids if entity is None else (entity,)
        return TimeSeriesPanel(entity_ids=ids, dates=tuple(dates), values=values.T)
    except (ParseError, InvalidInput, ValueError):
        return None


def _records(text: str):
    """(row number, cells) of each csv record; csv's own errors become ParseError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    row_no = 0
    try:
        for row_no, row in enumerate(reader, start=1):
            yield row_no, row
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit(), in the row after row_no
        raise ParseError(f"row {row_no + 1}: {exc}") from None


def _ingest_cells(text: str, entity=None) -> TimeSeriesPanel:
    """Parse a panel cell by cell with csv and float().

    Slower than ``_ingest_fast``, but it takes everything the format allows
    (quoted cells, lone CR line ends, blank lines, every number float() reads)
    and names the row and column of the first bad cell.  With ``entity``
    only its cells are read as numbers; an ``entity`` the header lacks
    raises InvalidInput once the rest of the panel has passed.
    """
    records = _records(text)
    try:
        _, header = next(records)
    except StopIteration:
        raise ParseError("no header row") from None
    entity_ids = _entity_ids(header)
    columns = _columns(entity_ids, entity)

    dates: list[dt.date] = []
    rows: list[list[float]] = []
    for row_no, row in records:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"row {row_no}: bad date {row[0]!r}") from None
        # compare steps: dates[-1] + one day overflows when dates[-1] is 9999-12-31
        if dates and (step := day - dates[-1]) != _ONE_DAY:
            if step > _ONE_DAY:
                raise ParseError(f"missing date {(dates[-1] + _ONE_DAY).isoformat()} (row {row_no})")
            raise ParseError(
                f"row {row_no}: date {day.isoformat()} not after {dates[-1].isoformat()}"
            )
        dates.append(day)
        cells = []
        for col in columns:
            cell = row[col]
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"row {row_no}, column {col + 1}: bad number {cell!r}") from None
            if not np.isfinite(value):
                raise ParseError(f"row {row_no}, column {col + 1}: non-finite value {cell!r}")
            cells.append(value)
        rows.append(cells)
    if not dates:
        raise ParseError("no data rows")
    if not columns:
        raise InvalidInput(f"entity {entity!r} not in panel")
    values = np.asarray(rows, dtype=np.float64)
    # days x entities -> entities x days
    ids = entity_ids if entity is None else (entity,)
    return TimeSeriesPanel(entity_ids=ids, dates=tuple(dates), values=values.T)


def normalize(panel: TimeSeriesPanel, drop_degenerate: bool = False) -> TimeSeriesPanel:
    """Z-score each row with its population standard deviation.

    A row that cannot be scaled (constant, or so large or so small that its
    mean or standard deviation over- or underflows) is degenerate: by
    default it aborts the run with InvalidInput naming the entity, with
    ``drop_degenerate`` it is removed and logged instead, unless every row
    is degenerate and nothing would be left.

    The z-scores are written into one array of the panel's layout, a row
    block (``_row_blocks``) at a time, so besides its result a clean panel's
    normalize holds one block's temporaries and the finiteness mask of the
    result's check; every value keeps the bits of the whole-panel
    ``(values - mean) / std``.
    """
    vals = panel.values
    normed = np.empty_like(vals)
    with np.errstate(all="ignore"):
        for rows in _row_blocks(*vals.shape):
            block, out = vals[rows], normed[rows]
            mean = block.mean(axis=1, keepdims=True)
            std = block.std(axis=1, keepdims=True)  # population (1/N) std
            np.subtract(block, mean, out=out)
            np.divide(out, std, out=out)
    ids = panel.entity_ids
    try:
        return TimeSeriesPanel(entity_ids=ids, dates=panel.dates, values=normed, normalized=True)
    except InvalidInput:
        degenerate = ~_unit_rows(normed)
        if not degenerate.any():
            raise
    bad = [ids[i] for i in np.flatnonzero(degenerate)]
    if not drop_degenerate:
        raise InvalidInput(
            f"degenerate series (constant, or its scale over- or underflows): {', '.join(bad)}"
        )
    if degenerate.all():
        raise InvalidInput(
            "every series is degenerate (constant, or its scale over- or underflows), "
            f"so dropping them leaves none: {', '.join(bad)}"
        )
    log.warning("dropping %d degenerate series: %s", len(bad), ", ".join(bad))
    ids = tuple(e for e, bad_row in zip(ids, degenerate) if not bad_row)
    return TimeSeriesPanel(entity_ids=ids, dates=panel.dates, values=normed[~degenerate], normalized=True)


def emit_csv(panel: TimeSeriesPanel, target) -> None:
    """Write a panel in the ingestion format (17 significant digits).

    One day's row at a time: besides the panel it holds one day's values as
    Python floats and that day's line of text.
    """
    if hasattr(target, "write"):
        _emit(panel, target)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _emit(panel, fh)


def _emit(panel: TimeSeriesPanel, stream) -> None:
    # csv quotes entity names that need it; a number never does, so each
    # day is one %-format (%.17g formats a float as f"{v:.17g}" does)
    csv_writer(stream).writerow(["date", *panel.entity_ids])
    row = "%s" + ",%.17g" * panel.n_entities + "\n"
    for day, values in zip(panel.dates, panel.values.T):
        stream.write(row % (day.isoformat(), *values.tolist()))


class _Rows:
    """Sink for a ``csv.writer`` whose rows end in CR LF, the terminator that
    makes csv quote every cell holding a CR or an LF (an LF terminator leaves
    a lone CR bare); each row reaches ``stream`` with ``end`` in its place."""

    def __init__(self, stream, end: str):
        self._stream, self._end = stream, end

    def write(self, row: str):
        return self._stream.write(row[:-2] + self._end)


def csv_writer(stream, end: str = "\n"):
    """A ``csv.writer`` onto ``stream`` whose rows end in ``end``; it quotes
    every cell that holds a comma, a quote, CR or LF, so ``csv.reader`` and
    ``ingest_csv`` read each cell back whole."""
    return csv.writer(_Rows(stream, end), lineterminator="\r\n")
