"""Work split across CPUs gives the one-part bytes, tables and fits.

CSV writes and reads and the lasso's CV paths run in forked parts, and the
posterior band in threads, once the input passes private size thresholds.
These tests lower the thresholds and fake the number of usable CPUs, so
small inputs take the parallel path, and compare every result with the
one-part run of the same code, or with a serial reference.
"""
import os
import re
import signal
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest

from dpls_iv import (
    Dataset, PosteriorDraws, SeededRng, augment_instruments, data, dataio, experiment1_spec,
    experiment2_spec, fit_lasso, gen_experiment1, gen_experiment2, ivreg, linear,
)
from dpls_iv.data import part_bounds
from dpls_iv.errors import DataError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="parts are forked")


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _byte_bounds(monkeypatch, path, parts):
    """part_bounds over the bytes of the file at path, in `parts` parts."""
    size = os.path.getsize(path)
    with monkeypatch.context() as m:
        _use_cpus(m, parts)
        return part_bounds(size, size, 1)


def _counting_forks(monkeypatch):
    """A list of the pids (None for a refused fork) of every child forked
    from now on."""
    pids = []
    original = data._Children.fork

    def counting(self, work, *args):
        pids.append(pid := original(self, work, *args))
        return pid

    monkeypatch.setattr(data._Children, "fork", counting)
    return pids


@pytest.fixture
def forked(monkeypatch):
    """Force CSV parts on tiny inputs; returns a list of the children forked."""
    monkeypatch.setattr(dataio, "_CSV_PART_CELLS", 1)
    monkeypatch.setattr(dataio, "_CSV_PART_BYTES", 1)
    return _counting_forks(monkeypatch)


def _one_part(monkeypatch, call):
    """call() with every threshold out of reach: one part, in this process."""
    with monkeypatch.context() as m:
        m.setattr(dataio, "_CSV_PART_CELLS", 2**62)
        m.setattr(dataio, "_CSV_PART_BYTES", 2**62)
        return call()


def _dataset(n, m=1, k=1, seed=5):
    rng = np.random.default_rng(seed)
    cells = rng.normal(size=(n, 2 + m + k)) * 10.0 ** rng.integers(-300, 300, size=(n, 2 + m + k))
    return Dataset(y=cells[:, 0], p=cells[:, 1], z=cells[:, 2:2 + m], x=cells[:, 2 + m:])


def _outcome(path):
    try:
        ds = dataio.csv_read(path)
    except DataError as exc:
        return str(exc)
    return np.column_stack([ds.y, ds.p, ds.z, ds.x]).tobytes()


def _forbid_rescan(monkeypatch):
    def no_rescan(lines, header):
        raise AssertionError("a part failed and sent the file to the line rescan")

    monkeypatch.setattr(dataio, "_parse_lines", no_rescan)


def _open_fds():
    return set(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------------------------------ csv_write


@pytest.mark.parametrize("n, cpus", [(4, 2), (5, 3), (4, 7), (3, 3)],
                         ids=["halves", "thirds", "more_parts_than_rows", "one_row_parts"])
def test_csv_write_parts_give_the_one_part_bytes(tmp_path, monkeypatch, forked, n, cpus):
    ds = _dataset(n)
    expected = tmp_path / "one.csv"
    _one_part(monkeypatch, lambda: dataio.csv_write(expected, ds))
    assert forked == []
    _use_cpus(monkeypatch, cpus)
    fds = _open_fds()
    dataio.csv_write(tmp_path / "parts.csv", ds)
    assert len(forked) == min(cpus, n) - 1  # never more parts than rows
    assert (tmp_path / "parts.csv").read_bytes() == expected.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["one.csv", "parts.csv"]  # no spill file left
    assert _open_fds() == fds
    _assert_no_child_left()


@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_write_predictions_csv_parts_give_the_one_part_bytes(tmp_path, monkeypatch, forked, n):
    rng = np.random.default_rng(n)
    columns = {"p_hat": rng.normal(size=n), "y_hat": rng.normal(size=n) * 1e-300}
    expected = tmp_path / "one.csv"
    _one_part(monkeypatch, lambda: dataio.write_predictions_csv(expected, columns))
    _use_cpus(monkeypatch, 4)
    dataio.write_predictions_csv(tmp_path / "parts.csv", columns)
    assert len(forked) == max(1, min(4, n)) - 1  # parts of at least one row
    assert (tmp_path / "parts.csv").read_bytes() == expected.read_bytes()
    _assert_no_child_left()


def test_csv_write_formats_a_dead_childs_part_itself(tmp_path, monkeypatch, forked):
    ds = _dataset(6)
    expected = tmp_path / "one.csv"
    _one_part(monkeypatch, lambda: dataio.csv_write(expected, ds))
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(dataio, "_write_spill",
                        lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    fds = _open_fds()
    dataio.csv_write(tmp_path / "parts.csv", ds)
    assert len(forked) == 2
    assert (tmp_path / "parts.csv").read_bytes() == expected.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["one.csv", "parts.csv"]
    assert _open_fds() == fds
    _assert_no_child_left()


def test_csv_write_formats_a_warning_childs_part_itself_and_warns_once(
        tmp_path, monkeypatch, forked):
    ds = _dataset(6)
    expected = tmp_path / "one.csv"
    _one_part(monkeypatch, lambda: dataio.csv_write(expected, ds))
    write_part = dataio._write_part

    def warning_part(fh, columns, start, stop, numbered):
        if start > 0:
            warnings.warn(f"rows {start}..{stop - 1}", UserWarning)
        write_part(fh, columns, start, stop, numbered)

    monkeypatch.setattr(dataio, "_write_part", warning_part)
    _use_cpus(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataio.csv_write(tmp_path / "parts.csv", ds)
    assert len(forked) == 1
    assert [str(w.message) for w in caught] == ["rows 3..5"]  # from this process, once
    assert (tmp_path / "parts.csv").read_bytes() == expected.read_bytes()
    _assert_no_child_left()


def _refuse(*args, **kwargs):
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("refused", ["fork", "spill"])
def test_csv_write_formats_a_part_itself_when_it_cannot_fork(tmp_path, monkeypatch, forked, refused):
    ds = _dataset(6)
    expected = tmp_path / "one.csv"
    _one_part(monkeypatch, lambda: dataio.csv_write(expected, ds))
    _use_cpus(monkeypatch, 3)
    if refused == "fork":
        monkeypatch.setattr(os, "fork", _refuse)
    else:
        monkeypatch.setattr(tempfile, "TemporaryFile", _refuse)
    dataio.csv_write(tmp_path / "parts.csv", ds)
    assert (tmp_path / "parts.csv").read_bytes() == expected.read_bytes()
    _assert_no_child_left()


# ------------------------------------------------------------------- csv_read


def _gapped_text(ds, newline):
    """The dataset's CSV with a blank or whitespace-only line after every
    line, so every cut lands next to one."""
    lines = []
    for i, line in enumerate(_csv_text(ds).splitlines()):
        lines += [line, ["", "   ", "\t\xa0", "\u3000 "][i % 4]]
    return newline.join(lines) + newline


def _csv_text(ds):
    header = ["y", "p"] + [f"z_{j + 1}" for j in range(ds.z.shape[1])]
    header += [f"x_{j + 1}" for j in range(ds.x.shape[1])]
    rows = np.column_stack([ds.y, ds.p, ds.z, ds.x]).tolist()
    return "\n".join([",".join(header)] + [",".join(map(repr, row)) for row in rows]) + "\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("cpus", [2, 3, 40])
def test_csv_read_parts_give_the_one_part_table(tmp_path, monkeypatch, forked, newline, cpus):
    ds = _dataset(12)
    path = tmp_path / "gapped.csv"
    path.write_bytes(_gapped_text(ds, newline).encode("utf-8"))
    expected = _one_part(monkeypatch, lambda: _outcome(path))
    assert expected == np.column_stack([ds.y, ds.p, ds.z, ds.x]).tobytes()
    _forbid_rescan(monkeypatch)
    _use_cpus(monkeypatch, cpus)
    fds = _open_fds()
    assert _outcome(path) == expected
    if newline != "\r":  # a file without \n is one part
        assert len(forked) >= min(cpus - 1, 2)
    assert _open_fds() == fds
    _assert_no_child_left()


def test_csv_read_line_cuts_follow_newlines(tmp_path, monkeypatch):
    text = b"y,p\r\n1,2\r\n\r\n3,4\n\xc3\xa9\n"
    path = tmp_path / "cuts.csv"
    path.write_bytes(text)
    for parts in range(1, 8):
        cuts = dataio._line_cuts(path, _byte_bounds(monkeypatch, path, parts))
        assert cuts[0] == 0 and cuts[-1] == len(text) and len(cuts) <= parts + 1
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert all(text[c - 1:c] == b"\n" for c in cuts[1:-1])


_bad_cells = pytest.mark.parametrize("edit, message", [
    (lambda cells: cells[:-1], "line 15: expected 5 cells, found 4"),
    (lambda cells: cells[:2] + [" abc "] + cells[3:], "line 15, column z_1: non-numeric cell 'abc'"),
    (lambda cells: cells[:4] + ["nan"] + cells[5:], "line 15, column x_1: non-finite value 'nan'"),
], ids=["cell_count", "non_numeric", "nan"])


def _bad_cell_file(tmp_path, monkeypatch, edit, message):
    """A CSV whose line 15, in the second of two parts, is edited to be bad;
    read in one part, it gives message."""
    lines = _csv_text(_dataset(20, m=2)).splitlines()
    lines[14] = ",".join(edit(lines[14].split(",")))
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cut = dataio._line_cuts(path, _byte_bounds(monkeypatch, path, 2))[1]
    assert len("\n".join(lines[:14]).encode()) > cut  # line 15 is in the child's part
    assert _one_part(monkeypatch, lambda: _outcome(path)) == message
    return path


@_bad_cells
def test_csv_read_bad_cell_in_a_later_part_gives_the_one_part_message(
        tmp_path, monkeypatch, forked, edit, message):
    path = _bad_cell_file(tmp_path, monkeypatch, edit, message)
    _use_cpus(monkeypatch, 2)
    fds = _open_fds()
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        dataio.csv_read(path)
    assert len(forked) == 1
    assert _open_fds() == fds
    _assert_no_child_left()


@_bad_cells
def test_csv_read_bad_cell_in_a_dead_childs_part_gives_the_one_part_message(
        tmp_path, monkeypatch, forked, edit, message):
    path = _bad_cell_file(tmp_path, monkeypatch, edit, message)
    monkeypatch.setattr(dataio, "_send_part", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    _use_cpus(monkeypatch, 2)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        dataio.csv_read(path)
    assert len(forked) == 1
    _assert_no_child_left()


def test_csv_read_non_utf8_byte_in_a_later_part_names_its_offset(tmp_path, monkeypatch, forked):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,p\n" + b"1,2\n" * 50 + b"3,\xff\n" + b"4,5\n" * 10)
    _use_cpus(monkeypatch, 2)
    with pytest.raises(DataError, match="not UTF-8 text at byte 206$"):
        dataio.csv_read(path)
    assert len(forked) == 1
    _assert_no_child_left()


_BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8, as "CSV UTF-8" files start


def _read_both_ways(monkeypatch, path):
    """_outcome(path) in one part, which two forked parts must repeat."""
    one = _one_part(monkeypatch, lambda: _outcome(path))
    with monkeypatch.context() as m:
        _use_cpus(m, 2)
        assert _outcome(path) == one
    return one


@pytest.mark.parametrize("blank", [False, True], ids=["header", "blank_line"])
def test_csv_read_skips_a_leading_byte_order_mark(tmp_path, monkeypatch, forked, blank):
    ds = _dataset(20, m=2)
    path = tmp_path / "marked.csv"
    path.write_bytes(_BOM + b"\n" * blank + _csv_text(ds).encode("utf-8"))
    assert _read_both_ways(monkeypatch, path) == np.column_stack(
        [ds.y, ds.p, ds.z, ds.x]).tobytes()
    assert len(forked) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("mark", [b"", _BOM], ids=["plain", "marked"])
@pytest.mark.parametrize("case", ["cell_count", "mark_inside_the_file"])
def test_csv_read_byte_order_mark_keeps_line_numbers(tmp_path, monkeypatch, forked, mark,
                                                     case):
    text = _csv_text(_dataset(20, m=2))
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="utf-8")
    cut = dataio._line_cuts(plain, _byte_bounds(monkeypatch, plain, 2))[1]
    number = 1 + text.encode("utf-8")[:cut].count(b"\n")  # the second part's first line
    lines = text.splitlines()
    if case == "cell_count":
        lines[number - 1] = lines[number - 1].rsplit(",", 1)[0]
        message = f"line {number}: expected 5 cells, found 4"
    else:  # a U+FEFF that does not start the file is a cell's text
        lines[number - 1] = "\ufeff" + lines[number - 1]
        cell = lines[number - 1].split(",")[0]
        message = f"line {number}, column y: non-numeric cell '{cell}'"
    path = tmp_path / "bad.csv"
    path.write_bytes(mark + ("\n".join(lines) + "\n").encode("utf-8"))
    assert dataio._line_cuts(path, _byte_bounds(monkeypatch, path, 2))[1] == cut + len(mark)
    assert _read_both_ways(monkeypatch, path) == message
    _assert_no_child_left()


@pytest.mark.parametrize("mark", [b"", _BOM], ids=["plain", "marked"])
def test_csv_read_byte_order_mark_keeps_the_offset_of_a_non_utf8_byte(
        tmp_path, monkeypatch, forked, mark):
    path = tmp_path / "latin1.csv"
    path.write_bytes(mark + b"y,p\n" + b"1,2\n" * 50 + b"3,\xff\n" + b"4,5\n" * 10)
    assert _read_both_ways(monkeypatch, path) == (
        f"cannot read {path}: not UTF-8 text at byte {206 + len(mark)}")
    _assert_no_child_left()


@pytest.mark.parametrize("child", ["killed", "silent", "exited"])
def test_csv_read_parses_a_dead_childs_part_itself(tmp_path, monkeypatch, forked, child):
    ds = _dataset(30)
    path = tmp_path / "data.csv"
    path.write_text(_csv_text(ds), encoding="utf-8")
    expected = _one_part(monkeypatch, lambda: _outcome(path))
    _forbid_rescan(monkeypatch)
    send_part = dataio._send_part

    def exits_before_the_end_mark(*args):
        send_part(*args)
        args[-1].flush()  # the spill holds the whole part
        os._exit(0)

    die = {"killed": lambda *args: os.kill(os.getpid(), signal.SIGKILL),
           "silent": lambda *args: None, "exited": exits_before_the_end_mark}[child]
    monkeypatch.setattr(dataio, "_send_part", die)
    _use_cpus(monkeypatch, 3)
    fds = _open_fds()
    assert _outcome(path) == expected
    assert len(forked) == 2
    assert _open_fds() == fds
    _assert_no_child_left()


@pytest.mark.parametrize("refused", ["fork", "pipe", "spill"])
def test_csv_read_parses_a_part_itself_when_it_cannot_fork(tmp_path, monkeypatch, forked, refused):
    path = tmp_path / "data.csv"
    path.write_text(_csv_text(_dataset(30)), encoding="utf-8")
    expected = _one_part(monkeypatch, lambda: _outcome(path))
    _forbid_rescan(monkeypatch)
    if refused == "spill":
        monkeypatch.setattr(tempfile, "TemporaryFile", _refuse)
    else:
        monkeypatch.setattr(os, refused, _refuse)
    _use_cpus(monkeypatch, 3)
    fds = _open_fds()
    assert _outcome(path) == expected
    assert _open_fds() == fds
    _assert_no_child_left()


def test_csv_read_header_error_leaves_no_child(tmp_path, monkeypatch, forked):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,q\n" + "1,2,3\n" * 40, encoding="utf-8")
    _use_cpus(monkeypatch, 3)
    with pytest.raises(DataError, match="^line 1: unrecognized column 'q'"):
        dataio.csv_read(path)
    assert forked == []  # the header is checked before any fork
    _assert_no_child_left()


# ------------------------------------------------------------ ignored SIGCHLD


@pytest.fixture
def sigchld_ignored():
    """SIGCHLD ignored, as a host program may set it: the kernel reaps every
    child, so no child's status can be read."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


def _calls_here(monkeypatch, module, name, arg):
    """A list of the given argument of each call of module.name that this
    process makes from now on; a forked child's calls land in its own copy."""
    calls, original = [], getattr(module, name)

    def recording(*args):
        calls.append(args[arg])
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_csv_write_and_read_survive_an_ignored_sigchld(tmp_path, monkeypatch, forked,
                                                         sigchld_ignored):
    ds = _dataset(12)
    expected = tmp_path / "one.csv"
    _one_part(monkeypatch, lambda: dataio.csv_write(expected, ds))
    _use_cpus(monkeypatch, 3)
    written = _calls_here(monkeypatch, dataio, "_write_part", 2)
    loaded = _calls_here(monkeypatch, dataio, "_load", 1)
    _forbid_rescan(monkeypatch)
    fds = _open_fds()
    dataio.csv_write(tmp_path / "parts.csv", ds)
    assert len(forked) == 2 and written == [0]  # the caller redid no part
    assert (tmp_path / "parts.csv").read_bytes() == expected.read_bytes()
    assert _outcome(expected) == np.column_stack([ds.y, ds.p, ds.z, ds.x]).tobytes()
    assert len(forked) == 4 and len(loaded) == 1  # part 0 only
    assert _open_fds() == fds
    _assert_no_child_left()


# ---------------------------------------------------------------------- band


def _band_case(nan_rows):
    rng = np.random.default_rng(7)
    beta_draws = rng.normal(size=(50, 3))
    design = rng.normal(size=(23, 3))
    if nan_rows:
        design[[0, 5, 22], 0] = np.nan
        design[9] = [np.inf, 1.0, 1.0]
        beta_draws[4, 0] = 0.0  # inf * 0: one NaN in row 9
    return PosteriorDraws(beta_draws=beta_draws), design


@pytest.mark.parametrize("block_rows", [None, 22, 4], ids=["one_block", "n_minus_1", "blocks_of_4"])
@pytest.mark.parametrize("nan_rows", [False, True], ids=["finite", "nan_rows"])
@pytest.mark.parametrize("cpus", [2, 8])
def test_band_threads_are_bit_identical_and_predictive_stays_on_the_caller(
        monkeypatch, block_rows, nan_rows, cpus):
    draws, design = _band_case(nan_rows)
    if block_rows is not None:
        monkeypatch.setattr(ivreg, "_BAND_CELLS", block_rows * len(draws.beta_draws))
    tail = (1.0 - 0.95) / 2.0
    with np.errstate(invalid="ignore"):
        latent = design @ draws.beta_draws.T
        reference = np.quantile(latent, [tail, 1.0 - tail], axis=1)
    callers, workers = [], set()
    predictive, band_rows = PosteriorDraws.predictive, ivreg._band_rows

    def recording_predictive(self, rows):
        callers.append(threading.get_ident())
        return predictive(self, rows)

    def recording_band_rows(*args):
        workers.add(threading.get_ident())
        band_rows(*args)

    monkeypatch.setattr(PosteriorDraws, "predictive", recording_predictive)
    monkeypatch.setattr(ivreg, "_band_rows", recording_band_rows)
    monkeypatch.setattr(ivreg, "_BAND_PART_CELLS", 1)
    _use_cpus(monkeypatch, cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with np.errstate(invalid="ignore"):
            lo, hi = draws.band(design, 0.95)
    finally:
        sys.setswitchinterval(interval)
    assert lo.tobytes() == reference[0].tobytes()
    assert hi.tobytes() == reference[1].tobytes()
    assert set(callers) == {threading.get_ident()}
    assert len(workers) > 1


def test_band_worker_threads_run_under_the_callers_errstate(monkeypatch):
    rng = np.random.default_rng(8)
    draws = PosteriorDraws(beta_draws=rng.normal(size=(40, 2)))
    design = rng.normal(size=(16, 2))
    # Only the last part's rows hold infinities of both signs: interpolating
    # between two -inf order statistics is an invalid operation, and only a
    # worker thread meets it.
    design[12:, 0] = np.inf
    monkeypatch.setattr(ivreg, "_BAND_PART_CELLS", 1)
    _use_cpus(monkeypatch, 4)
    with np.errstate(invalid="ignore"):
        lo, _ = draws.band(design, 0.9)
    assert np.isnan(lo[12:]).all() and np.isfinite(lo[:12]).all()
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            draws.band(design, 0.9)


# ------------------------------------------------------------ lasso CV paths


def _serial_lasso(design, target):
    """(lam, coef) of fit_lasso(lam="auto") computed in one process, one
    step after another: the five fold paths over the grid in fold order,
    then the full-data path to the chosen lam only, then the CD check."""
    n = len(target)
    lam_max = float(np.max(np.abs(design.T @ target))) / n
    grid = np.geomspace(lam_max * 10.0, lam_max * 1e-4, 50)
    errors = np.zeros(len(grid))
    for fold in range(5):
        mask = np.zeros(n, dtype=bool)
        mask[fold::5] = True
        pred = design[mask] @ linear._lasso_path(design[~mask], target[~mask], grid)
        errors += np.sum((target[mask][:, None] - pred) ** 2, axis=0)
    lam = float(grid[int(np.argmin(errors))])
    moments = linear._lasso_moments(design, target)
    start = linear._lasso_path(design, target, [lam], moments)[:, 0]
    return lam, linear._lasso_cd(design, target, lam, start, moments)


def _design(dgp):
    """A small training design of each benchmark DGP: (zbar, p)."""
    gen, spec = {"experiment1": (gen_experiment1, experiment1_spec),
                 "experiment2": (gen_experiment2, experiment2_spec)}[dgp]
    ds, _ = gen(spec(n=120, m=12, m_redundant=3, k=8, k_null=4), SeededRng(3).child(0))
    return augment_instruments(ds.z, ds.x), ds.p


@pytest.fixture
def lasso_parts(monkeypatch):
    """Lasso CV parts on tiny designs; returns a list of the children forked."""
    monkeypatch.setattr(linear, "_LASSO_PART_CELLS", 1)
    return _counting_forks(monkeypatch)


def _bits(fit):
    return fit.lam, fit.coef.tobytes()


@pytest.mark.parametrize("dgp", ["experiment1", "experiment2"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_lasso_cv_parts_give_the_serial_fit(monkeypatch, lasso_parts, dgp, cpus):
    zbar, p = _design(dgp)
    lam, coef = _serial_lasso(zbar, p)
    _use_cpus(monkeypatch, cpus)
    fds = _open_fds()
    assert _bits(fit_lasso(zbar, p, "auto")) == (lam, coef.tobytes())
    assert len(lasso_parts) == cpus - 1
    assert _open_fds() == fds  # no spill file left open
    _assert_no_child_left()


@pytest.mark.parametrize("failure", ["killed", "raised", "fork", "spill"])
def test_lasso_cv_runs_a_failed_part_itself(monkeypatch, lasso_parts, failure):
    zbar, p = _design("experiment1")
    lam, coef = _serial_lasso(zbar, p)
    _use_cpus(monkeypatch, 3)
    if failure == "killed":
        monkeypatch.setattr(linear, "_spill_results",
                            lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    elif failure == "raised":
        monkeypatch.setattr(linear, "_spill_results", _refuse)
    elif failure == "fork":
        monkeypatch.setattr(os, "fork", _refuse)
    else:
        monkeypatch.setattr(tempfile, "TemporaryFile", _refuse)
    fds = _open_fds()
    assert _bits(fit_lasso(zbar, p, "auto")) == (lam, coef.tobytes())
    assert _open_fds() == fds
    _assert_no_child_left()


def test_lasso_cv_survives_an_ignored_sigchld(monkeypatch, lasso_parts, sigchld_ignored):
    zbar, p = _design("experiment1")
    lam, coef = _serial_lasso(zbar, p)
    _use_cpus(monkeypatch, 3)
    folds = _calls_here(monkeypatch, linear, "_fold_errors", 3)
    fds = _open_fds()
    assert _bits(fit_lasso(zbar, p, "auto")) == (lam, coef.tobytes())
    assert len(lasso_parts) == 2 and folds == [0, 1]  # part 0's folds only
    assert _open_fds() == fds
    _assert_no_child_left()


def test_lasso_cv_parts_call_soft_threshold_as_the_serial_fit(monkeypatch, lasso_parts):
    zbar, p = _design("experiment2")
    calls = []
    original = linear.soft_threshold

    def counting(v, t):
        calls.append(threading.get_ident())
        return original(v, t)

    monkeypatch.setattr(linear, "soft_threshold", counting)
    _serial_lasso(zbar, p)
    serial = len(calls)
    _use_cpus(monkeypatch, 2)
    calls.clear()
    fit_lasso(zbar, p, "auto")
    assert len(lasso_parts) == 1 and len(calls) == serial > 0


def _warning_paths(kind):
    """A _lasso_path that emits one warning of the given kind, naming the
    rows and grid points of its call."""
    path = linear._lasso_path

    def warning_path(xc, yc, lams, moments=None):
        if kind == "warning":
            warnings.warn(f"path over {len(yc)} rows to {len(lams)} points", UserWarning)
        else:
            np.float64(1e308) * np.float64(len(yc))  # overflow: numpy's RuntimeWarning
        return path(xc, yc, lams, moments)

    return warning_path


@pytest.mark.parametrize("kind", ["warning", "floating_point"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_lasso_cv_warnings_surface_once_in_the_caller(monkeypatch, lasso_parts, kind, cpus):
    zbar, p = _design("experiment1")
    monkeypatch.setattr(linear, "_lasso_path", _warning_paths(kind))

    def fit_and_warnings():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_lasso(zbar, p, "auto")
        return _bits(fit), [(w.category, str(w.message)) for w in caught]

    with monkeypatch.context() as m:
        m.setattr(linear, "_LASSO_PART_CELLS", 2**62)
        expected = fit_and_warnings()
    assert len(expected[1]) == 6  # five folds, then the full-data path to lam
    _use_cpus(monkeypatch, cpus)
    assert fit_and_warnings() == expected
    assert len(lasso_parts) == cpus - 1
    _assert_no_child_left()
