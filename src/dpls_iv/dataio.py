"""CSV, config, fit-record and report serialization for the command-line tools.

All numeric text is written with Python's shortest round-trip float repr,
so write-then-read reproduces arrays bit for bit. Errors carry 1-based
line numbers because the files are meant to be hand-editable. CSV tables are
formatted in row blocks of at most _CSV_BLOCK_CELLS cells and parsed by
np.loadtxt over streamed lines, so no whole-file text, line list or cell
list is built either way.

Float formatting and parsing hold the interpreter lock, so large CSV tables
are cut into contiguous parts, one per usable CPU (data.part_count), that
forked children format or parse while this process does part 0. Every part
still streams in row blocks or lines. A part is worth a fork from
_CSV_PART_CELLS cells (write) or _CSV_PART_BYTES bytes (read); below that,
and off Linux, the same code runs one part in-process. The output bytes and
the parsed tables do not depend on the number of parts.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import asdict

import numpy as np

from .bench import MetricsReport
from .data import Dataset, part_count
from .errors import DataError
from .ivreg import (
    ControlFunctionFit,
    DplsIvFit,
    TobitConstants,
    TobitGmmFit,
)
from .linear import LinearFit
from .network import ActivationKind, DplsModel
from .pls import PlsFit
from .synthetic import SyntheticTruth

__all__ = [
    "csv_read",
    "csv_write",
    "parse_config_text",
    "read_config",
    "render_config",
    "write_config",
    "truth_to_dict",
    "truth_from_dict",
    "write_truth",
    "read_truth",
    "model_to_dict",
    "model_from_dict",
    "fit_to_dict",
    "fit_from_dict",
    "write_fit",
    "read_fit",
    "write_predictions_csv",
    "write_metrics_csv",
    "write_bias_cdf_csv",
    "render_summary",
    "write_summary",
]

_TRUTH_FORMAT = "dpls-iv-truth"
_TRUTH_VERSION = 1
_FIT_FORMAT = "dpls-iv-fit"
# 2: one record for every method, first stage tagged by method name
_FIT_VERSION = 2


# Cells one CSV row block holds while it is formatted: 53 rows of
# the 77-column experiment table. Larger blocks were no faster, and 2**16
# left a 10k-row fit about 1.5 MB higher in resident memory.
_CSV_BLOCK_CELLS = 2**12
# Least cells a forked CSV write part formats, and least bytes a forked read
# part parses. A fork, its pipe or spill file and the reaping cost 5-10 ms in
# a 140 MB process; two parts broke even at about 16k cells written (about
# 1 us each) and 0.5 MB read, and halved the time of 10k x 77 tables.
_CSV_PART_CELLS = 2**13
_CSV_PART_BYTES = 2**19


def _fmt(value: float) -> str:
    return repr(float(value))


class _Children:
    """Forked children that each run one function and leave through os._exit.

    A child exits 0 if its function returned and 1 if it raised; os._exit
    skips the inherited buffers and exit handlers. fork returns None when
    the system refuses a process, and the caller does that part itself.
    Leaving the with block kills and reaps every child not yet waited for,
    so none outlives the call, whether it succeeded or failed. A child runs
    only numpy formatting or parsing and file I/O, never BLAS.
    """

    def __init__(self):
        self._pids: list[int] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        import signal

        for pid in self._pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._pids.clear()

    def fork(self, work) -> int | None:
        try:
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:
            code = 1
            try:
                work()
                code = 0
            finally:
                os._exit(code)
        self._pids.append(pid)
        return pid

    def wait(self, pid: int) -> bool:
        """Reap one child; True if it exited 0."""
        self._pids.remove(pid)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


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


def _write_spill(spill, columns, start: int, stop: int, numbered: bool) -> None:
    """Child side of _write_rows: stream one part into its spill file."""
    with open(spill.fileno(), "w", encoding="utf-8", closefd=False) as out:
        _write_part(out, columns, start, stop, numbered)


def _write_rows(fh, columns, n: int, numbered: bool) -> None:
    """Write the n rows of aligned columns to fh, a text file opened by path.

    Each part but the first is formatted by a forked child into an unnamed
    temporary file beside fh while this process writes part 0 to fh; the
    parts are then appended in order. A part whose spill file or child could
    not be made, or whose child failed, is formatted here instead, so such a
    failure costs time, not output.
    """
    parts = part_count(n * _width(columns), _CSV_PART_CELLS)
    bounds = [n * i // parts for i in range(parts + 1)]
    with contextlib.ExitStack() as stack:
        children = stack.enter_context(_Children())
        spills = []
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            pid = spill = None
            try:
                spill = stack.enter_context(
                    tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(fh.name)))
                )
            except OSError:  # no room or no write access beside fh (a device, say)
                pass
            else:
                work = functools.partial(_write_spill, spill, columns, start, stop, numbered)
                pid = children.fork(work)
            spills.append((pid, spill, start, stop))
        _write_part(fh, columns, 0, bounds[1], numbered)
        for pid, spill, start, stop in spills:
            if pid is not None and children.wait(pid):
                fh.flush()
                spill.seek(0)
                shutil.copyfileobj(spill, fh.buffer)
            else:
                _write_part(fh, columns, start, stop, numbered)


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
                if not suffix.isdigit() or int(suffix) < 1:
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


def _read_text(path) -> str:
    """Contents of an input file; an unreadable file is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
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
    """Bytes start..stop-1 of a file as the text stream open(path, "r",
    encoding="utf-8") would give: UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)), encoding="utf-8")


def _line_cuts(path, size: int, parts: int) -> list[int]:
    """Byte offsets 0 = c_0 < c_1 < ... < c_j = size, j <= parts, that cut a
    file into ranges of whole lines near multiples of size / parts.

    Each inner cut follows a \\n. A \\n is never inside a UTF-8 character or
    a \\r\\n line end, so every range decodes, and splits into lines, as it
    does inside the whole file. One part opens nothing, so a pipe or FIFO,
    whose size reads 0, is read once.
    """
    if parts == 1:
        return [0, size]
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            fh.seek(max(size * i // parts, cuts[-1]))
            while (chunk := fh.readline(2**16)) and not chunk.endswith(b"\n"):
                pass
            if fh.tell() >= size:
                break
            cuts.append(fh.tell())
    return cuts + [size]


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


def _send_part(path, start: int, stop: int, columns, sink, sources) -> None:
    """Child side of _parse_parts: parse one byte range and write to sink
    its row count as an int64, then its float64 cells in role order; nothing
    if _load fails.

    The child first closes its copies of the pipes' read ends, so a child
    left behind by a killed parent meets a broken pipe, not a full one.
    """
    for source in sources:
        source.close()
    with sink:
        with _text_range(path, start, stop) as fh:
            table = _load(_nonblank_lines(fh), len(columns))
        if table is not None:
            sink.write(np.int64(len(table)).tobytes())
            sink.write(np.take(table, columns, axis=1).reshape(-1).view(np.uint8))


def _parse_parts(path, cuts: list[int], lines, columns) -> np.ndarray | None:
    """The data lines of the byte ranges cuts[i]..cuts[i + 1] - 1 as one
    table in role order, or None if any part fails.

    lines is the rest of this process's own range, part 0, after its header.
    Forked children parse the other ranges and send their tables back
    through pipes, which are read only after part 0 is parsed, straight into
    the result. This process never holds more than one line of text, and
    beyond the result only part 0's table.
    """
    width = len(columns)
    with contextlib.ExitStack() as stack:
        children = stack.enter_context(_Children())
        sources, pids = [], []
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            sources.append(stack.enter_context(open(read_fd, "rb")))
            with open(write_fd, "wb") as sink:
                work = functools.partial(_send_part, path, start, stop, columns, sink, sources)
                pids.append(children.fork(work))
            if pids[-1] is None:
                return None
        first = _load(lines, width)
        if first is None:
            return None
        counts = [len(first)]
        for source in sources:
            head = source.read(8)
            if len(head) != 8:
                return None
            counts.append(int(np.frombuffer(head, dtype=np.int64)[0]))
        table = np.empty((sum(counts), width))
        np.take(first, columns, axis=1, out=table[:counts[0]], mode="clip")
        del first
        row = counts[0]
        for pid, source, count in zip(pids, sources, counts[1:]):
            cells = table[row:row + count].reshape(-1).view(np.uint8)
            if source.readinto(cells) != cells.nbytes or not children.wait(pid):
                return None
            row += count
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
    counted. The file is cut at line boundaries into parts, one per usable
    CPU when it is large (_line_cuts, _parse_parts), and one np.loadtxt call
    parses the non-blank data lines of each part, so a whitespace-only line,
    which loadtxt alone would reject as a one-cell row, is skipped there too.
    When any part fails (a bad cell, the wrong width, a non-finite value, a
    byte that is not UTF-8, a dead child), _parse_lines rescans the whole
    file in this process: it names the first bad line, or accepts the cells
    that float() reads and loadtxt does not (digit separators, non-ASCII
    digits).
    """
    try:
        size = os.path.getsize(path)
        cuts = _line_cuts(path, size, part_count(size, _CSV_PART_BYTES))
        whole = len(cuts) == 2  # one part: the file is opened once, as a plain file
        with contextlib.ExitStack() as stack:
            fh = stack.enter_context(
                open(path, "r", encoding="utf-8") if whole else _text_range(path, 0, cuts[1])
            )
            lines = _nonblank_lines(fh)
            first = next(lines, None)
            table = None
            if first is not None:  # else an empty file, or blank lines up to cuts[1]
                header, columns, m = _header(*first)
                table = _parse_parts(path, cuts, lines, columns)
            if table is None:
                if not whole:
                    fh = stack.enter_context(open(path, "r", encoding="utf-8"))
                fh.seek(0)
                lines = _nonblank_lines(fh)
                header, columns, m = _header(*next(lines, (None, None)))
                table = _parse_lines(lines, header)[:, columns]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        _read_text(path)  # raises, naming the bad byte's offset in the file
        raise
    return Dataset(y=table[:, 0], p=table[:, 1], z=table[:, 2:2 + m], x=table[:, 2 + m:])


# -------------------------------------------------------------- config files


def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat dotted-key config: 'section.key = value' lines.

    Blank lines and '#' comments are skipped; duplicates are rejected with
    the offending line number. Values stay strings; typing is the caller's.
    """
    out: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
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


def read_config(path) -> dict[str, str]:
    return parse_config_text(_read_text(path))


def render_config(mapping: dict) -> str:
    lines = [f"{key} = {mapping[key]}" for key in sorted(mapping)]
    return "\n".join(lines) + "\n"


def write_config(path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_config(mapping))


# ------------------------------------------------------------- truth sidecar


def _vec(a) -> list:
    return [float(v) for v in np.asarray(a).ravel()]


def truth_to_dict(truth: SyntheticTruth) -> dict:
    doc = {
        "format": _TRUTH_FORMAT,
        "version": _TRUTH_VERSION,
        "alpha": _vec(truth.alpha),
        "gamma": _vec(truth.gamma),
        "alpha_x": _vec(truth.alpha_x),
        "beta": float(truth.beta),
        "beta_x": _vec(truth.beta_x),
        "w": _vec(truth.w),
        "xi": _vec(truth.xi),
        "eps": _vec(truth.eps),
        "treat_index": _vec(truth.treat_index),
        "out_index": _vec(truth.out_index),
        "cov_repair": float(truth.cov_repair),
    }
    return doc


def truth_from_dict(doc: dict) -> SyntheticTruth:
    if doc.get("format") != _TRUTH_FORMAT:
        raise DataError(f"not a truth record: format={doc.get('format')!r}")
    if doc.get("version") != _TRUTH_VERSION:
        raise DataError(f"unsupported truth version {doc.get('version')!r}")
    arr = lambda key: np.asarray(doc[key], dtype=np.float64)
    return SyntheticTruth(
        alpha=arr("alpha"),
        gamma=arr("gamma"),
        alpha_x=arr("alpha_x"),
        beta=float(doc["beta"]),
        beta_x=arr("beta_x"),
        w=arr("w"),
        xi=arr("xi"),
        eps=arr("eps"),
        treat_index=arr("treat_index"),
        out_index=arr("out_index"),
        sigma_z=np.zeros((0, 0)),
        cov_repair=float(doc["cov_repair"]),
    )


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path) -> dict:
    return json.loads(_read_text(path))


def write_truth(path, truth: SyntheticTruth) -> None:
    """Truth sidecar; sigma_z and the graph are derivable from the config."""
    _write_json(path, truth_to_dict(truth))


def read_truth(path) -> SyntheticTruth:
    return truth_from_dict(_read_json(path))


# ----------------------------------------------------------------- fit bundle


def _pls_to_dict(fl: PlsFit) -> dict:
    return {
        "method": fl.method,
        "q": int(fl.q),
        "coef": fl.coef.tolist(),
        "weights": fl.weights.tolist(),
        "y_loadings": fl.y_loadings.tolist(),
        "means": fl.means.tolist(),
        "p_mean": float(fl.p_mean),
    }


def _pls_from_dict(fl: dict) -> PlsFit:
    return PlsFit(
        coef=np.asarray(fl["coef"], dtype=np.float64),
        q=int(fl["q"]),
        y_loadings=np.asarray(fl["y_loadings"], dtype=np.float64),
        weights=np.asarray(fl["weights"], dtype=np.float64),
        means=np.asarray(fl["means"], dtype=np.float64),
        p_mean=float(fl["p_mean"]),
        method=str(fl["method"]),
    )


def model_to_dict(model: DplsModel) -> dict:
    """Network weights, activation, and SGD history as plain JSON values."""
    return {
        "activation": {"tag": model.activation.tag, "slope": model.activation.slope},
        "first_layer": _pls_to_dict(model.first_layer),
        "hidden": [
            {"w": w.tolist(), "b": b.tolist()} for w, b in model.hidden
        ],
        "history": list(model.history),
        "best_epoch": model.best_epoch,
    }


def model_from_dict(doc: dict) -> DplsModel:
    act = ActivationKind(doc["activation"]["tag"], float(doc["activation"]["slope"]))
    hidden = tuple(
        (np.asarray(h["w"], dtype=np.float64), np.asarray(h["b"], dtype=np.float64))
        for h in doc["hidden"]
    )
    return DplsModel(
        first_layer=_pls_from_dict(doc["first_layer"]),
        hidden=hidden,
        activation=act,
        history=tuple(float(v) for v in doc["history"]),
        best_epoch=doc["best_epoch"],
    )


def _first_stage_to_dict(first) -> dict:
    """First stage tagged with the method name that fit it."""
    if isinstance(first, DplsModel):
        return {"method": "dpls_iv", "network": model_to_dict(first)}
    if isinstance(first, PlsFit):
        return {"method": "pls", "pls": _pls_to_dict(first)}
    return {
        "method": first.method,
        "coef": _vec(first.coef),
        "intercept": float(first.intercept),
        "lam": float(first.lam),
    }


def _first_stage_from_dict(doc: dict):
    method = doc.get("method")
    if method == "dpls_iv":
        return model_from_dict(doc["network"])
    if method == "pls":
        return _pls_from_dict(doc["pls"])
    if method in ("ols", "ridge", "lasso"):
        return LinearFit(
            coef=np.asarray(doc["coef"], dtype=np.float64),
            intercept=float(doc["intercept"]),
            method=method,
            lam=float(doc["lam"]),
        )
    raise DataError(f"unknown first-stage method {method!r}")


def fit_to_dict(fit: DplsIvFit, n_train: int) -> dict:
    """Self-contained fit record: first stage plus outcome coefficients.

    Training-data-sized arrays (designs, residuals) are not kept; the
    record supports prediction and posterior sampling, not refitting.
    """
    doc = {
        "format": _FIT_FORMAT,
        "version": _FIT_VERSION,
        "mode": fit.mode,
        "censored": fit.censored,
        "n_train": int(n_train),
        "constants": asdict(fit.constants),
        "first_stage": _first_stage_to_dict(fit.first_stage),
    }
    if fit.gmm is not None:
        doc["gmm"] = {
            "beta": _vec(fit.gmm.beta),
            "sigma_star_matrix": [_vec(row) for row in fit.gmm.sigma_star_matrix],
            "corrected_matrix": [_vec(row) for row in fit.gmm.corrected_matrix],
        }
    if fit.cf is not None:
        doc["cf"] = {
            "beta": float(fit.cf.beta),
            "beta_eta": float(fit.cf.beta_eta),
            "beta_x": _vec(fit.cf.beta_x),
        }
    return doc


def fit_from_dict(doc: dict) -> tuple[DplsIvFit, int]:
    if doc.get("format") != _FIT_FORMAT:
        raise DataError(f"not a fit record: format={doc.get('format')!r}")
    if doc.get("version") != _FIT_VERSION:
        raise DataError(f"unsupported fit version {doc.get('version')!r}")
    constants = TobitConstants(**{k: float(v) for k, v in doc["constants"].items()})
    gmm = cf = None
    if "gmm" in doc:
        g = doc["gmm"]
        beta = np.asarray(g["beta"], dtype=np.float64)
        dim = len(beta)
        mat = lambda key: np.asarray(g[key], dtype=np.float64).reshape(dim, dim)
        gmm = TobitGmmFit(
            beta=beta,
            constants=constants,
            design=np.zeros((0, dim)),
            residuals=np.zeros(0),
            sigma_star_matrix=mat("sigma_star_matrix"),
            corrected_matrix=mat("corrected_matrix"),
        )
    if "cf" in doc:
        f = doc["cf"]
        cf = ControlFunctionFit(
            beta=float(f["beta"]),
            beta_eta=float(f["beta_eta"]),
            beta_x=np.asarray(f["beta_x"], dtype=np.float64),
        )
    fit = DplsIvFit(
        mode=doc["mode"],
        censored=bool(doc["censored"]),
        first_stage=_first_stage_from_dict(doc["first_stage"]),
        constants=constants,
        gmm=gmm,
        cf=cf,
    )
    return fit, int(doc["n_train"])


def write_fit(path, fit: DplsIvFit, n_train: int) -> None:
    _write_json(path, fit_to_dict(fit, n_train))


def read_fit(path) -> tuple[DplsIvFit, int]:
    """Load a fit record; a file that is not one is a data error."""
    try:
        return fit_from_dict(_read_json(path))
    except DataError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(
            f"{path} is not a valid fit record ({type(exc).__name__}: {exc})"
        ) from None


# -------------------------------------------------------------- report files


def write_predictions_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Aligned prediction columns, one row per observation."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=np.float64) for name in names]
    n = len(arrays[0]) if arrays else 0
    for name, arr in zip(names, arrays):
        if len(arr) != n:
            raise DataError(f"column {name} has {len(arr)} rows, expected {n}")
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


def render_summary(report: MetricsReport, title: str) -> str:
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
    return "\n".join(lines) + "\n"


def write_summary(path, report: MetricsReport, title: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_summary(report, title))
