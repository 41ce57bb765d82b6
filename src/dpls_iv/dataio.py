"""The command-line tools' files: each public function is the one writer or
reader of one file (data.csv, config.txt, truth.json, fit.json,
predictions.csv, metrics.csv, bias_cdf.csv, summary.txt).

All numeric text is written with Python's shortest round-trip float repr,
so write-then-read reproduces arrays bit for bit. Errors carry 1-based
line numbers because the files are meant to be hand-editable. CSV tables are
formatted in row blocks of at most _CSV_BLOCK_CELLS cells and parsed by
np.loadtxt over streamed lines, so no whole-file text, line list or cell
list is built either way.

Float formatting and parsing hold the interpreter lock, so large CSV tables
are cut into contiguous parts, one per usable CPU (data.part_bounds), that
forked children format or parse into spill files (data._Children.parts)
while this process does part 0. Every part still streams in row blocks or
lines. A part is worth a fork from _CSV_PART_CELLS cells (write) or
_CSV_PART_BYTES bytes (read); below that, and off Linux, one part runs
in-process. The output bytes and the parsed tables do not depend on the
number of parts.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import shutil
import warnings
from dataclasses import fields

import numpy as np

from .bench import MetricsReport
from .data import Dataset, _Children, _receive_cells, _send_cells, part_bounds
from .errors import DataError
from .ivreg import (
    ControlFunctionFit,
    DplsIvFit,
    TobitConstants,
    TobitGmmFit,
)
from .linear import LinearFit
from .network import DplsModel
from .pls import PlsFit
from .synthetic import SyntheticTruth

__all__ = [
    "csv_read",
    "csv_write",
    "read_config",
    "write_config",
    "write_truth",
    "write_fit",
    "read_fit",
    "write_predictions_csv",
    "write_metrics_csv",
    "write_bias_cdf_csv",
    "write_summary",
]

_TRUTH_FORMAT = "dpls-iv-truth"
_TRUTH_VERSION = 1
_FIT_FORMAT = "dpls-iv-fit"
# 3: each fact stored once: no top-level mode (the outcome block present
# names it), no network activation, no PLS coef, q or method
_FIT_VERSION = 3


# Cells one CSV row block holds while it is formatted: 53 rows of
# the 77-column experiment table. Larger blocks were no faster, and 2**16
# left a 10k-row fit about 1.5 MB higher in resident memory.
_CSV_BLOCK_CELLS = 2**12
# Least cells a forked CSV write part formats, and least bytes a forked read
# part parses. A fork, its spill file and the reaping cost 5-10 ms in a
# 140 MB process; two parts broke even at about 16k cells written (about
# 1 us each) and 0.5 MB read, and halved the time of 10k x 77 tables.
_CSV_PART_CELLS = 2**13
_CSV_PART_BYTES = 2**19


def _fmt(value: float) -> str:
    return repr(float(value))


def _width(columns) -> int:
    return sum(1 if c.ndim == 1 else c.shape[1] for c in columns)


def _write_part(fh, columns, start: int, stop: int, numbered: bool) -> None:
    """Write rows start..stop-1 of aligned float columns (1-D or 2-D) as CSV
    lines, one row block at a time, numbered from 1 if asked.

    Each cell is the repr of a Python float, the same text as _fmt.
    """
    rows = max(1, _CSV_BLOCK_CELLS // max(_width(columns), 1))
    for first in range(start, stop, rows):
        block = np.column_stack([c[first:min(first + rows, stop)] for c in columns])
        lines = [",".join(map(repr, row)) for row in block.tolist()]
        if numbered:
            lines = [f"{i},{line}" for i, line in enumerate(lines, start=first + 1)]
        fh.write("\n".join(lines) + "\n")


def _write_spill(columns, numbered: bool, start: int, stop: int, spill) -> None:
    """Child side of _write_rows: stream one part into its spill file."""
    with open(spill.fileno(), "w", encoding="utf-8", closefd=False) as out:
        _write_part(out, columns, start, stop, numbered)


def _write_rows(fh, columns, n: int, numbered: bool) -> None:
    """Write the n rows of aligned columns to fh, a text file opened by path.

    Each part but the first is formatted by a forked child into its spill
    file while this process writes part 0 to fh; the parts are then appended
    in order. A part with no result (no spill file or child could be made,
    or the child failed, or warned) is formatted here instead, so such a
    failure costs time, not output.
    """
    bounds = part_bounds(n, n * _width(columns), _CSV_PART_CELLS)
    with _Children() as children:
        work = functools.partial(_write_spill, columns, numbered)
        for start, stop, spill in children.parts(bounds, work):
            if spill is None:
                _write_part(fh, columns, start, stop, numbered)
            else:
                fh.flush()
                shutil.copyfileobj(spill, fh.buffer)


# ---------------------------------------------------------------- dataset CSV


def csv_write(path, ds: Dataset) -> None:
    """Write a dataset as CSV with role-prefixed headers y, p, z_*, x_*.

    Rows are formatted and written one block at a time, in parts on every
    usable CPU when the table is large (_write_rows).
    """
    m, k = ds.z.shape[1], ds.x.shape[1]
    header = ["y", "p"]
    header += [f"z_{j + 1}" for j in range(m)]
    header += [f"x_{j + 1}" for j in range(k)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, (ds.y, ds.p, ds.z, ds.x), len(ds.y), numbered=False)


def _header_columns(header: list[str], number: int) -> tuple[np.ndarray, int]:
    """File column of each table column, the table in role order y, p,
    z_1..z_m, x_1..x_k, and m.

    Rejects unknown, duplicate or missing names, and z_*/x_* suffixes that
    do not cover 1..count, naming the header's 1-based line number.
    """
    seen = set()
    roles = []
    for name in header:
        if name in seen:
            raise DataError(f"line {number}: duplicate column '{name}'")
        seen.add(name)
        if name in ("y", "p"):
            roles.append((name, 0))
            continue
        for prefix in ("z_", "x_"):
            if name.startswith(prefix):
                suffix = name[len(prefix):]
                if not (suffix.isascii() and suffix.isdigit()) or int(suffix) < 1:
                    raise DataError(
                        f"line {number}: column '{name}' needs a positive integer suffix"
                    )
                roles.append((prefix[0], int(suffix)))
                break
        else:
            raise DataError(
                f"line {number}: unrecognized column '{name}' (expected y, p, z_*, x_*)"
            )
    for required in ("y", "p"):
        if required not in seen:
            raise DataError(f"line {number}: missing required column '{required}'")
    z_orders = sorted(order for role, order in roles if role == "z")
    x_orders = sorted(order for role, order in roles if role == "x")
    for name, orders in (("z", z_orders), ("x", x_orders)):
        if orders and orders != list(range(1, len(orders) + 1)):
            raise DataError(
                f"line {number}: {name}_* suffixes must cover 1..{len(orders)}"
            )
    m = len(z_orders)
    base = {"y": 0, "p": 1, "z": 1, "x": 1 + m}
    return np.argsort([base[role] + order for role, order in roles]), m


def _os_reason(exc: OSError) -> str:
    """Why an OSError was raised; some, like io.UnsupportedOperation, carry
    no strerror."""
    return exc.strerror or str(exc) or type(exc).__name__


def _read_text(path) -> str:
    """Contents of an input file less a leading byte-order mark (stripped
    after decoding, so offsets count it); an unreadable file is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {_os_reason(exc)}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None


def _nonblank_lines(fh):
    """(1-based line number, text) of each non-blank line of an open text file.

    A line ends at \\n, \\r\\n or \\r: the universal-newline mode of open()
    turns the last two into \\n, and both this iteration and np.loadtxt split
    at \\n only.
    """
    for number, line in enumerate(fh, start=1):
        if line.strip() != "":
            yield number, line


class _ByteRange(io.RawIOBase):
    """Raw reader of bytes start..stop-1 of a file."""

    def __init__(self, path, start: int, stop: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        got = self._fh.readinto(memoryview(buf)[:self._left])
        self._left -= got
        return got

    def close(self) -> None:
        self._fh.close()
        super().close()


def _text_range(path, start: int, stop: int):
    """Bytes start..stop-1 of a file as text: UTF-8, universal newlines, and
    from byte 0 without a byte-order mark, like csv_read's whole-file opens."""
    encoding = "utf-8-sig" if start == 0 else "utf-8"
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)), encoding=encoding)


def _line_cuts(path, bounds: list[int]) -> list[int]:
    """Byte offsets 0 = c_0 < c_1 < ... < c_j = size, j < len(bounds), that
    cut a file of size = bounds[-1] bytes into ranges of whole lines, each
    inner cut at the first line start from an inner byte bound on.

    Each inner cut follows a \\n. A \\n is never inside a UTF-8 character or
    a \\r\\n line end, so every range decodes, and splits into lines, as it
    does inside the whole file. One part opens nothing, so a pipe or FIFO,
    whose size reads 0, is read once.
    """
    if len(bounds) == 2:
        return bounds
    cuts = [0]
    with open(path, "rb") as fh:
        for bound in bounds[1:-1]:
            fh.seek(max(bound, cuts[-1]))
            while (chunk := fh.readline(2**16)) and not chunk.endswith(b"\n"):
                pass
            if fh.tell() >= bounds[-1]:
                break
            cuts.append(fh.tell())
    return cuts + bounds[-1:]


def _header(number, line) -> tuple[list[str], np.ndarray, int]:
    """Header cells, their columns in role order, and m, from the first
    non-blank line and its number; line is None when the file has none."""
    if line is None:
        raise DataError("line 1: empty file, header row required")
    header = [cell.strip() for cell in line.split(",")]
    columns, m = _header_columns(header, number)
    return header, columns, m


def _load(lines, width: int) -> np.ndarray | None:
    """One np.loadtxt call over (line number, text) pairs; None if it fails,
    or yields the wrong width or a non-finite value."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                (line for _, line in lines), delimiter=",", comments=None, ndmin=2
            )
    except ValueError:  # UnicodeDecodeError included
        return None
    if len(table) == 0:  # a part of blank lines, or a header-only file for Dataset to reject
        return np.empty((0, width))
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _send_part(path, columns, start: int, stop: int, spill) -> None:
    """Child side of _parse_parts: parse one byte range and send its row
    count, then its cells in role order; nothing if _load fails."""
    with _text_range(path, start, stop) as fh:
        table = _load(_nonblank_lines(fh), len(columns))
    if table is not None:
        _send_cells(spill, len(table))
        _send_cells(spill, np.take(table, columns, axis=1))


def _parse_parts(path, cuts: list[int], lines, columns) -> np.ndarray | None:
    """The data lines of the byte ranges cuts[i]..cuts[i + 1] - 1 as one
    table in role order, or None if _load rejects a part here.

    lines is the rest of part 0 after its header. Children parse the other
    ranges into spill files; part 0, and any part with no child's result,
    is parsed here. This process holds at most one line of text, and beyond
    the result only the tables of the parts it parsed.
    """
    with _Children() as children, contextlib.ExitStack() as ranges:
        parts = []  # (spill, or the table parsed here; its row count)
        for start, stop, spill in children.parts(
                cuts, functools.partial(_send_part, path, columns)):
            count = np.empty(1)
            if spill is not None and _receive_cells(spill, count):
                parts.append((spill, int(count[0])))
                continue
            if start:  # part 0's lines are given
                lines = _nonblank_lines(ranges.enter_context(_text_range(path, start, stop)))
            if (part := _load(lines, len(columns))) is None:
                return None
            parts.append((part, len(part)))
        rows = np.cumsum([count for _, count in parts])
        table = np.empty((rows[-1], len(columns)))
        for (part, _), out in zip(parts, np.split(table, rows[:-1])):
            if isinstance(part, np.ndarray):
                np.take(part, columns, axis=1, out=out, mode="clip")
            elif not _receive_cells(part, out):
                return None
        return table


def _parse_lines(lines, header: list[str]) -> np.ndarray:
    """Cell-by-cell parse of (line number, text) pairs into a (rows, width) table.

    Raises at the first bad line or cell in file order, naming its 1-based
    line number and column.
    """
    rows = []
    for number, line in lines:
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"line {number}: expected {len(header)} cells, found {len(cells)}"
            )
        row = []
        for cell, name in zip(cells, header):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise DataError(
                    f"line {number}, column {name}: non-numeric cell '{text}'"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"line {number}, column {name}: non-finite value '{text}'"
                )
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def csv_read(path) -> Dataset:
    """Read a role-prefixed CSV back into a Dataset.

    Cells must parse as finite decimal reals; the offending 1-based line
    and column name are reported otherwise. Blank lines are skipped but
    counted; a leading byte-order mark is skipped. The file is cut at line
    boundaries into parts, one per usable CPU when it is large (_line_cuts,
    _parse_parts), and one np.loadtxt call parses the non-blank data lines of
    each part, so a whitespace-only line, which loadtxt alone would reject
    as a one-cell row, is skipped there too. Only when _load rejects a part
    in this process (a bad cell, the wrong width, a non-finite value, a
    byte that is not UTF-8) does _parse_lines rescan the whole file here:
    it names the first bad line, or accepts the cells that float() reads
    and loadtxt does not (digit separators, non-ASCII digits). A pipe or
    FIFO cannot be read twice, so there a failed parse, or a byte that is
    not UTF-8, is reported without the line or offset.
    """
    try:
        size = os.path.getsize(path)
        cuts = _line_cuts(path, part_bounds(size, size, _CSV_PART_BYTES))
        whole = len(cuts) == 2  # one part: the file is opened once, as a plain file
        with contextlib.ExitStack() as stack:
            fh = stack.enter_context(
                open(path, "r", encoding="utf-8-sig") if whole else _text_range(path, 0, cuts[1])
            )
            lines = _nonblank_lines(fh)
            first = next(lines, None)
            table = None
            if first is not None:  # else an empty file, or blank lines up to cuts[1]
                header, columns, m = _header(*first)
                table = _parse_parts(path, cuts, lines, columns)
            if table is None:
                if not whole:
                    fh = stack.enter_context(open(path, "r", encoding="utf-8-sig"))
                if not fh.seekable():
                    raise DataError(
                        f"cannot read {path}: a data line needs the line-by-line "
                        "parse, and a pipe cannot be read a second time"
                    )
                fh.seek(0)
                lines = _nonblank_lines(fh)
                header, columns, m = _header(*next(lines, (None, None)))
                table = _parse_lines(lines, header)[:, columns]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {_os_reason(exc)}") from None
    except UnicodeDecodeError:
        if not os.path.isfile(path):  # a pipe: opening it again would wait for a new writer
            raise DataError(f"cannot read {path}: not UTF-8 text") from None
        _read_text(path)  # raises, naming the bad byte's offset in the file
        raise
    return Dataset(y=table[:, 0], p=table[:, 1], z=table[:, 2:2 + m], x=table[:, 2 + m:])


# -------------------------------------------------------------- config files


def read_config(path) -> dict[str, str]:
    """Parse a flat dotted-key config file: 'section.key = value' lines.

    Blank lines and '#' comments are skipped; duplicates are rejected with
    the offending line number. Values stay strings; typing is the caller's.
    """
    out: dict[str, str] = {}
    for i, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if stripped == "" or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"line {i}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "" or not all(c.isalnum() or c in "._" for c in key):
            raise DataError(f"line {i}: bad key '{key}'")
        if key in out:
            raise DataError(f"line {i}: duplicate key '{key}'")
        out[key] = value
    return out


def write_config(path, mapping: dict) -> None:
    """One 'key = value' line per key, in sorted key order."""
    lines = [f"{key} = {mapping[key]}" for key in sorted(mapping)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------- record blocks


def _record(obj, *skip) -> dict:
    """A record block: the dataclass's fields but skip, arrays as nested lists."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def _number(value, where: str = "a fit record array") -> float:
    """A JSON number as a float; true, false, a string or null is refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DataError(f"{where} holds {json.dumps(value)}, not a number")
    return float(value)


def _array(value) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as float64."""
    cells = np.asarray(value, dtype=object)
    return np.array([_number(v) for v in cells.flat], dtype=np.float64).reshape(cells.shape)


def _from_record(cls, doc: dict, **given):
    """cls from the block _record wrote, plus the given fields: array fields
    as float64 arrays, every other field as a float."""
    values = {f.name: _array(doc[f.name]) if "ndarray" in str(f.type)
              else _number(doc[f.name], f.name)
              for f in fields(cls) if f.name not in given}
    return cls(**given, **values)


def _finite(text: str, kind=float):
    """A JSON number or NaN/Infinity token, refused unless finite in float64."""
    if not math.isfinite(float(text)):
        raise ValueError(f"non-finite number {text}")
    return kind(text)


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _read_json(path) -> dict:
    """JSON whose numbers are all finite in float64: NaN, Infinity and
    overflowing literals (1e999, or 1 and 400 zeros) are refused here."""
    return json.loads(_read_text(path), parse_float=_finite, parse_constant=_finite,
                      parse_int=functools.partial(_finite, kind=int))


# ------------------------------------------------------------- truth sidecar


def write_truth(path, truth: SyntheticTruth) -> None:
    """Truth sidecar; sigma_z and the graph are derivable from the config."""
    _write_json(path, {"format": _TRUTH_FORMAT, "version": _TRUTH_VERSION,
                       **_record(truth, "sigma_z", "graph")})


# ----------------------------------------------------------------- fit bundle


def _first_stage_to_dict(first) -> dict:
    """First stage tagged with the method name that fit it; a network as its
    weights and SGD history."""
    if isinstance(first, DplsModel):
        return {"method": "dpls_iv", "network": {
            "first_layer": _record(first.first_layer),
            "hidden": [{"w": w.tolist(), "b": b.tolist()} for w, b in first.hidden],
            "history": list(first.history),
            "best_epoch": first.best_epoch,
        }}
    if isinstance(first, PlsFit):
        return {"method": "pls", "pls": _record(first)}
    return _record(first)  # a LinearFit, whose method is a field


def _first_stage_from_dict(doc: dict):
    """The first stage its method tag names."""
    method = doc.get("method")
    if method == "pls":
        return _from_record(PlsFit, doc["pls"])
    if method in ("ols", "ridge", "lasso"):
        return _from_record(LinearFit, doc, method=method)
    if method != "dpls_iv":
        raise DataError(f"unknown first-stage method {method!r}")
    net = doc["network"]
    return DplsModel(first_layer=_from_record(PlsFit, net["first_layer"]),
                     hidden=tuple((_array(h["w"]), _array(h["b"])) for h in net["hidden"]),
                     history=net["history"], best_epoch=net["best_epoch"])


def write_fit(path, fit: DplsIvFit) -> None:
    """Self-contained fit record: every field of the fit, one block each.

    The outcome block present, gmm or cf, names the mode. A fit keeps no
    training-data-sized array, so the record supports prediction and
    posterior sampling, not refitting.
    """
    doc = {
        "format": _FIT_FORMAT,
        "version": _FIT_VERSION,
        "censored": fit.censored,
        "n_train": fit.n_train,
        "constants": _record(fit.constants),
        "first_stage": _first_stage_to_dict(fit.first_stage),
    }
    if fit.gmm is not None:
        doc["gmm"] = _record(fit.gmm)
    if fit.cf is not None:
        doc["cf"] = _record(fit.cf)
    _write_json(path, doc)


def read_fit(path) -> DplsIvFit:
    """Load a fit record; a file that is not one is a data error.

    This reader checks the format, the version, the method tag and that
    every number is a JSON number; each fitted type checks its own shapes.
    """
    try:
        doc = _read_json(path)
        if doc.get("format") != _FIT_FORMAT:
            raise DataError(f"not a fit record: format={doc.get('format')!r}")
        if doc.get("version") != _FIT_VERSION:
            raise DataError(f"unsupported fit version {doc.get('version')!r}: this build "
                            f"reads version {_FIT_VERSION} only; refit to write one")
        return DplsIvFit(
            constants=_from_record(TobitConstants, doc["constants"]),
            gmm=_from_record(TobitGmmFit, doc["gmm"]) if "gmm" in doc else None,
            cf=_from_record(ControlFunctionFit, doc["cf"]) if "cf" in doc else None,
            censored=doc["censored"],
            first_stage=_first_stage_from_dict(doc["first_stage"]),
            n_train=doc["n_train"],
        )
    except DataError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise DataError(
            f"{path} is not a valid fit record ({type(exc).__name__}: {exc})"
        ) from None


# -------------------------------------------------------------- report files


def write_predictions_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Aligned prediction columns, each a vector, one row per observation."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=np.float64) for name in names]
    for name, arr in zip(names, arrays):
        if arr.ndim != 1:
            raise DataError(f"column {name} must be a vector, got shape {arr.shape}")
        if len(arr) != len(arrays[0]):
            raise DataError(f"column {name} has {len(arr)} rows, expected {len(arrays[0])}")
    n = len(arrays[0]) if arrays else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["row"] + names) + "\n")
        _write_rows(fh, arrays, n, numbered=True)


def write_metrics_csv(path, report: MetricsReport) -> None:
    """Fixed column order: method, replication, metric, value."""
    lines = ["method,replication,metric,value"]
    for method, rep, metric, value in report.rows:
        lines.append(f"{method},{rep},{metric},{_fmt(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bias_cdf_csv(path, report: MetricsReport) -> None:
    """Plot-ready empirical CDF curves: one x,y column pair per method."""
    methods = [m for m in report.methods if m in report.bias_samples]
    curves = {}
    for method in methods:
        xs = np.asarray(report.bias_samples[method], dtype=np.float64)
        ys = (
            np.arange(1, len(xs) + 1) / len(xs)
            if len(xs)
            else np.zeros(0)
        )
        curves[method] = (xs, ys)
    depth = max((len(x) for x, _ in curves.values()), default=0)
    header = []
    for method in methods:
        header += [f"{method}_x", f"{method}_y"]
    lines = [",".join(header)]
    for i in range(depth):
        cells = []
        for method in methods:
            xs, ys = curves[method]
            if i < len(xs):
                cells += [_fmt(xs[i]), _fmt(ys[i])]
            else:
                cells += ["", ""]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, report: MetricsReport, title: str) -> None:
    """Human-readable digest: medians with IQRs, failures, seed ledger."""
    metrics = sorted({metric for _, _, metric, _ in report.rows})
    lines = [title, "=" * len(title), ""]
    lines.append(f"replications: {report.replications}")
    lines.append(f"methods: {', '.join(report.methods)}")
    lines.append("")
    for metric in metrics:
        lines.append(f"{metric} (median [IQR])")
        for method in report.methods:
            agg = report.aggregates.get((method, metric))
            if agg is None or agg["count"] == 0:
                lines.append(f"  {method:10s} no successful replications")
            else:
                lines.append(
                    f"  {method:10s} {agg['median']:.6g} [{agg['iqr']:.6g}]"
                    f" over {agg['count']}"
                )
        lines.append("")
    n_cells = report.replications * len(report.methods)
    lines.append(
        f"failures: {len(report.failures)} of {n_cells} method-replication cells"
    )
    for rep, method, msg in report.failures:
        lines.append(f"  replication {rep}, {method}: {msg}")
    lines.append("")
    lines.append("seeds (replication: seed)")
    for rep, seed in report.seed_ledger:
        lines.append(f"  {rep}: {seed}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
