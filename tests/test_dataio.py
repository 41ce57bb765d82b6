"""Round trips and error reporting for the on-disk formats."""
import dataclasses
import inspect
import json
import os
import re
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from dpls_iv import (
    Dataset,
    DplsConfig,
    DplsIvFit,
    MetricsReport,
    SeededRng,
    SgdParams,
    TobitGmmFit,
    augment_instruments,
    dpls_iv_fit,
    experiment1_spec,
    experiment2_spec,
    fit_first_stage,
    gen_experiment1,
    gen_experiment2,
    iv_fit,
)
from dpls_iv.dataio import (
    csv_read,
    csv_write,
    read_config,
    read_fit,
    write_bias_cdf_csv,
    write_config,
    write_fit,
    write_metrics_csv,
    write_predictions_csv,
    write_summary,
    write_truth,
)
from dpls_iv import dataio
from dpls_iv.errors import DataError


def _tiny_dataset():
    rng = np.random.default_rng(3)
    return Dataset(
        y=rng.normal(size=6),
        p=rng.normal(size=6),
        z=rng.normal(size=(6, 2)),
        x=rng.normal(size=(6, 1)),
    )


# ----------------------------------------------------------------- dataset CSV


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds, _ = gen_experiment1(experiment1_spec(n=80), SeededRng(9))
    path = tmp_path / "data.csv"
    csv_write(path, ds)
    back = csv_read(path)
    assert back.y.tobytes() == ds.y.tobytes()
    assert back.p.tobytes() == ds.p.tobytes()
    assert back.z.tobytes() == ds.z.tobytes()
    assert back.x.tobytes() == ds.x.tobytes()


def _wide_dataset(n, m=50, k=25, seed=31):
    """Values over the whole double range, with signed zeros and subnormals."""
    rng = np.random.default_rng(seed)
    cells = rng.normal(size=(n, 2 + m + k)) * 10.0 ** rng.integers(-300, 300, size=(n, 2 + m + k))
    cells[0, :4] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308]
    return Dataset(y=cells[:, 0], p=cells[:, 1], z=cells[:, 2:2 + m], x=cells[:, 2 + m:])


def _csv_reference_text(ds):
    """The per-cell writer the block writer replaced, kept as the reference."""
    header = ["y", "p"] + [f"z_{j + 1}" for j in range(ds.z.shape[1])]
    header += [f"x_{j + 1}" for j in range(ds.x.shape[1])]
    lines = [",".join(header)]
    for i in range(len(ds.y)):
        values = [ds.y[i], ds.p[i], *ds.z[i], *ds.x[i]]
        lines.append(",".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def test_csv_round_trip_over_several_blocks_is_bit_exact(tmp_path):
    per_block = dataio._CSV_BLOCK_CELLS // 77
    ds = _wide_dataset(3 * per_block + 17)
    path = tmp_path / "data.csv"
    csv_write(path, ds)
    assert path.read_text(encoding="utf-8") == _csv_reference_text(ds)
    back = csv_read(path)
    for field in "ypzx":
        assert getattr(back, field).tobytes() == getattr(ds, field).tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda cells: cells[:-1], "line 1500: expected 77 cells, found 76"),
    (lambda cells: cells[:8] + [" abc "] + cells[9:], "line 1500, column z_7: non-numeric cell 'abc'"),
    (lambda cells: cells[:54] + ["nan"] + cells[55:], "line 1500, column x_3: non-finite value 'nan'"),
    (lambda cells: cells[:30] + ["-inf"] + cells[31:], "line 1500, column z_29: non-finite value '-inf'"),
], ids=["cell_count", "non_numeric", "nan", "minus_inf"])
def test_csv_read_reports_a_bad_line_in_a_late_block(tmp_path, edit, message):
    """2000 lines of 77 cells (the header is line 1); line 1500 is bad."""
    assert 1500 > dataio._CSV_BLOCK_CELLS // 77 + 1  # not in the first block
    lines = _csv_reference_text(_wide_dataset(1999)).splitlines()
    lines[1499] = ",".join(edit(lines[1499].split(",")))
    lines[1599] = "1.0,2.0"  # a later bad line in the same block must not win
    path = tmp_path / "late.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        csv_read(path)


def test_csv_read_accepts_whitespace_padded_cells(tmp_path):
    pads = [" 1.5", "-2e-3\t", "\u00a03.25\u2003", " \t7 ", "8\x1f", "\u30009.5"]
    path = tmp_path / "padded.csv"
    lines = ["y,p,z_1,z_2,z_3,x_1"]
    lines += [",".join(pads[i:] + pads[:i]) for i in range(len(pads))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = csv_read(path)
    expected = np.array([[float(cell.strip()) for cell in line.split(",")] for line in lines[1:]])
    assert_array_equal(np.column_stack([ds.y, ds.p, ds.z, ds.x]), expected)


def test_csv_header_names_follow_roles(tmp_path):
    path = tmp_path / "data.csv"
    csv_write(path, _tiny_dataset())
    first = path.read_text().splitlines()[0]
    assert first == "y,p,z_1,z_2,x_1"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8))
def test_csv_cells_round_trip_any_finite_float(values):
    # shortest-repr formatting must survive write -> read for every finite double
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    ds = Dataset(y=y, p=np.zeros(n), z=y.reshape(n, 1), x=np.zeros((n, 0)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        csv_write(path, ds)
        back = csv_read(path)
    assert back.y.tobytes() == y.tobytes()
    assert back.z.tobytes() == ds.z.tobytes()


def test_csv_read_maps_columns_by_name_not_position(tmp_path):
    path = tmp_path / "shuffled.csv"
    lines = ["p,x_1,y,z_1"]
    for i in range(4):
        lines.append(f"{i + 1}.0,{i + 5}.0,{i + 9}.0,{i + 13}.0")
    path.write_text("\n".join(lines) + "\n")
    ds = csv_read(path)
    assert_array_equal(ds.p, [1.0, 2.0, 3.0, 4.0])
    assert_array_equal(ds.x[:, 0], [5.0, 6.0, 7.0, 8.0])
    assert_array_equal(ds.y, [9.0, 10.0, 11.0, 12.0])
    assert_array_equal(ds.z[:, 0], [13.0, 14.0, 15.0, 16.0])


def test_csv_read_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("y,p,z_1\n\n1.0,2.0,3.0\n   \n4.0,5.0,6.0\n\n")
    ds = csv_read(path)
    assert len(ds.y) == 2
    assert_array_equal(ds.y, [1.0, 4.0])


@pytest.mark.parametrize("blank", ["   ", "\t", "\xa0 \u3000"], ids=["spaces", "tab", "unicode"])
def test_csv_read_keeps_whitespace_only_lines_on_the_fast_path(tmp_path, monkeypatch, blank):
    lines = _csv_reference_text(_wide_dataset(120)).splitlines()
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("\n".join(lines[:60] + [blank] + lines[60:]) + "\n", encoding="utf-8")
    expected = csv_read(plain)

    def no_rescan(lines, header):
        raise AssertionError("a whitespace-only line sent the file to the line rescan")

    monkeypatch.setattr(dataio, "_parse_lines", no_rescan)
    back = csv_read(gapped)
    for field in "ypzx":
        assert getattr(back, field).tobytes() == getattr(expected, field).tobytes()


def test_csv_read_numbers_a_bad_line_after_a_whitespace_only_line(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("y,p,z_1\n1,2,3\n   \n4,5,6\n7,x,9\n", encoding="utf-8")
    with pytest.raises(DataError, match="^line 5, column p: non-numeric cell 'x'$"):
        csv_read(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_csv_read_numbers_lines_counting_blank_ones(tmp_path, newline):
    path = tmp_path / "gaps.csv"
    path.write_bytes(newline.join(["y,p,z_1", "1,2,3", "", "4,x,6", ""]).encode())
    with pytest.raises(DataError, match="^line 4, column p: non-numeric cell 'x'$"):
        csv_read(path)


def test_csv_read_ends_lines_only_at_newlines(tmp_path):
    # form feed, file separator and U+2028 are cell characters, not line ends
    path = tmp_path / "breaks.csv"
    path.write_bytes("y,p,z_1\n1,2,3\x0c4,5,6\n".encode())
    with pytest.raises(DataError, match="^line 2: expected 3 cells, found 5$"):
        csv_read(path)
    path.write_bytes("y,p,z_1\n1,2,3\x1c\u2028\n4,5,6\n7,8,9\n".encode())
    assert_array_equal(csv_read(path).z[:, 0], [3.0, 6.0, 9.0])


def test_csv_read_header_only_file_fails_on_its_row_count(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("y,p,z_1\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=re.escape("m + k = 1 must be < n = 0")):
            csv_read(path)


def test_csv_read_names_the_file_offset_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,p\n" + b"1,2\n" * 5000 + b"3,\xff\n")
    with pytest.raises(DataError, match="not UTF-8 text at byte 20006$"):
        csv_read(path)


_ODD_CELLS = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1_0", "\u0661", "\x1f2", "\xa03\x0c", "+.5"]),
    st.text(alphabet="0123456789+-.e_ \t\x1f\x0c\xa0\u0661", max_size=5),
)


@given(
    values=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        min_size=2, max_size=5,
    ),
    edits=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), _ODD_CELLS), max_size=2),
    gaps=st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["", " ", "\t\xa0"])), max_size=2),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_csv_read_fast_path_agrees_with_the_line_rescan(values, edits, gaps, newline):
    """loadtxt and the cell-by-cell rescan give the same table or error."""
    rows = [[repr(v) for v in row] for row in values]
    for i, j, text in edits:
        row = rows[i % len(rows)]
        if j < len(row):
            row[j] = text
        else:
            row.append(text)  # one cell too many
    lines = ["y,p,z_1"] + [",".join(row) for row in rows]
    for at, blank in gaps:
        lines.insert(at % (len(lines) + 1), blank)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "wb") as fh:
            fh.write((newline.join(lines) + newline).encode("utf-8"))
        fast = _read_outcome(path)
        with mock.patch.object(dataio.np, "loadtxt", side_effect=ValueError):
            rescan = _read_outcome(path)
    assert fast == rescan


def _read_outcome(path):
    try:
        ds = csv_read(path)
    except DataError as exc:
        return str(exc)
    return np.column_stack([ds.y, ds.p, ds.z, ds.x]).tobytes()


def test_csv_read_rejects_duplicate_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,y\n1,2,3\n")
    with pytest.raises(DataError, match="line 1: duplicate column 'y'"):
        csv_read(path)


def test_csv_read_rejects_bad_suffixes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,z_0\n1,2,3\n")
    with pytest.raises(DataError, match="column 'z_0' needs a positive integer suffix"):
        csv_read(path)
    path.write_text("y,p,x_a\n1,2,3\n")
    with pytest.raises(DataError, match="column 'x_a' needs a positive integer suffix"):
        csv_read(path)
    # Unicode digits that are not ASCII: int() rejects a superscript and
    # reads an Arabic-Indic digit, so neither may pass
    for name in ("z_\u00b2", "z_\u0661", "x_\u00b3"):
        path.write_text(f"y,p,{name}\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"column '{name}' needs a positive integer suffix"):
            csv_read(path)


def test_csv_read_rejects_unknown_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,q\n1,2,3\n")
    msg = re.escape("line 1: unrecognized column 'q' (expected y, p, z_*, x_*)")
    with pytest.raises(DataError, match=msg):
        csv_read(path)


def test_csv_read_names_the_physical_line_of_the_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n\ny,p,q\n1,2,3\n")
    msg = re.escape("line 3: unrecognized column 'q' (expected y, p, z_*, x_*)")
    with pytest.raises(DataError, match=f"^{msg}$"):
        csv_read(path)
    path.write_text(" \r\ny,p,p\n1,2,3\n")
    with pytest.raises(DataError, match="^line 2: duplicate column 'p'$"):
        csv_read(path)


def test_csv_read_requires_y_and_p(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,z_1\n1,2\n")
    with pytest.raises(DataError, match="missing required column 'p'"):
        csv_read(path)
    path.write_text("p,z_1\n1,2\n")
    with pytest.raises(DataError, match="missing required column 'y'"):
        csv_read(path)


def test_csv_read_requires_contiguous_suffixes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,z_1,z_3\n1,2,3,4\n")
    with pytest.raises(DataError, match=re.escape("z_* suffixes must cover 1..2")):
        csv_read(path)


def test_csv_read_reports_cell_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3: expected 2 cells, found 1"):
        csv_read(path)


def test_csv_read_reports_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p\n1,abc\n")
    with pytest.raises(DataError, match="line 2, column p: non-numeric cell 'abc'"):
        csv_read(path)


def test_csv_read_reports_non_finite_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p\ninf,2\n")
    with pytest.raises(DataError, match="line 2, column y: non-finite value 'inf'"):
        csv_read(path)


def test_csv_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty file, header row required"):
        csv_read(path)
    path.write_text("\n   \n")
    with pytest.raises(DataError, match="empty file"):
        csv_read(path)


def _through_fifo(path, payload, read) -> dict:
    """Run read() while a writer thread sends payload through a new FIFO at
    path; {"value": result} or {"error": exception}.

    Both threads are joined with a timeout. A reader that opens the FIFO a
    second time would wait for another writer, so one is opened to free it
    before the test fails.
    """
    os.mkfifo(path)
    outcome = {}

    def write():
        with open(path, "wb") as fh:
            fh.write(payload)

    def run():
        try:
            outcome["value"] = read()
        except Exception as exc:
            outcome["error"] = exc

    writer = threading.Thread(target=write, daemon=True)
    reader = threading.Thread(target=run, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    if reader.is_alive():
        with open(path, "wb"):
            pass
        reader.join(timeout=30)
        pytest.fail("the reader opened the FIFO a second time")
    writer.join(timeout=30)
    assert not writer.is_alive()
    return outcome


_needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")


@_needs_fifo
@pytest.mark.parametrize("payload,reason", [
    (b"y,p,z_1\n1,2,3\n4,x,6\n", "a pipe cannot be read a second time"),
    (b"y,p,z_1\n1,2,3\n4,\xff,6\n", "not UTF-8 text"),
    (b"y,p,\xffz_1\n1,2,3\n", "not UTF-8 text"),
], ids=["bad_cell", "bad_byte", "bad_byte_in_header"])
def test_csv_read_of_a_bad_fifo_gives_a_reason(tmp_path, payload, reason):
    path = tmp_path / "data.csv"
    err = _through_fifo(path, payload, lambda: csv_read(path))["error"]
    assert isinstance(err, DataError)
    assert str(err).startswith(f"cannot read {path}: ")
    assert reason in str(err) and not str(err).endswith("None")


@_needs_fifo
def test_csv_read_of_a_good_fifo(tmp_path):
    path = tmp_path / "data.csv"
    ds = _through_fifo(path, b"y,p,z_1\n1,2,3\n\n4,5,6\n", lambda: csv_read(path))["value"]
    assert_array_equal(ds.y, [1.0, 4.0])
    assert_array_equal(ds.z, [[3.0], [6.0]])


@_needs_fifo
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_cli_exits_2_on_a_bad_fifo(tmp_path, capsys, command):
    from dpls_iv.cli import main

    data = tmp_path / "data.csv"
    keys = {"data": str(data)}
    if command == "predict":
        _, fit = _small_fit("control_function")
        write_fit(tmp_path / "fit.json", fit)
        keys["fit"] = str(tmp_path / "fit.json")
    write_config(tmp_path / "cfg.txt", keys)
    argv = [command, "--config", str(tmp_path / "cfg.txt"), "--out-dir", str(tmp_path / "out")]
    outcome = _through_fifo(data, b"y,p,z_1\n1,2,3\n4,x,6\n", lambda: main(argv))
    assert outcome["value"] == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"data error: cannot read {data}: ")
    assert not err.endswith("None")


# --------------------------------------------------------------- config files


def _read_config_text(tmp_path, text):
    path = tmp_path / "run.txt"
    path.write_text(text, encoding="utf-8")
    return read_config(path)


def test_config_parse_render_round_trip(tmp_path):
    mapping = {"dgp": "experiment1", "spec.n": "200", "dpls.widths": "8,4"}
    write_config(tmp_path / "run.txt", mapping)
    assert read_config(tmp_path / "run.txt") == mapping


def test_write_config_sorts_keys(tmp_path):
    path = tmp_path / "run.txt"
    write_config(path, {"b": "2", "a": "1"})
    assert path.read_text(encoding="utf-8") == "a = 1\nb = 2\n"
    write_config(path, {})
    assert path.read_text(encoding="utf-8") == "\n"


def test_config_parser_skips_comments_and_keeps_equals_in_values(tmp_path):
    text = "# top comment\n\na.b = x=y\n  # indented comment\nc = 3\n"
    assert _read_config_text(tmp_path, text) == {"a.b": "x=y", "c": "3"}


def test_config_parser_rejects_line_without_equals(tmp_path):
    with pytest.raises(DataError, match=re.escape("line 2: expected 'key = value'")):
        _read_config_text(tmp_path, "a = 1\nbogus line\n")


def test_config_parser_rejects_bad_keys(tmp_path):
    with pytest.raises(DataError, match="line 1: bad key 'a b'"):
        _read_config_text(tmp_path, "a b = 1\n")
    with pytest.raises(DataError, match="line 1: bad key ''"):
        _read_config_text(tmp_path, "= 5\n")


def test_config_parser_rejects_duplicate_key(tmp_path):
    with pytest.raises(DataError, match="line 3: duplicate key 'k'"):
        _read_config_text(tmp_path, "k = 1\n# gap\nk = 2\n")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.txt"
    mapping = {"spec.n": "500", "seed": "7"}
    write_config(path, mapping)
    assert read_config(path) == mapping


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "marked"])
def test_read_config_skips_a_leading_byte_order_mark(tmp_path, mark):
    path = tmp_path / "run.txt"
    path.write_bytes(mark + b"spec.n = 500\nseed = 7\n")
    assert read_config(path) == {"spec.n": "500", "seed": "7"}
    path.write_bytes(mark + b"spec.n = 500\nseed\n")
    with pytest.raises(DataError, match="^line 2: expected 'key = value'$"):
        read_config(path)
    path.write_bytes(mark + b"spec.n = 500\n\xff\n")
    with pytest.raises(DataError, match=f"not UTF-8 text at byte {13 + len(mark)}$"):
        read_config(path)


# -------------------------------------------------------------- truth sidecar


_TRUTH_KEYS = {
    "format", "version", "alpha", "gamma", "alpha_x", "beta", "beta_x", "w", "xi",
    "eps", "treat_index", "out_index", "cov_repair",
}


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_truth_file(path, truth):
    """truth.json as json.load reads it, checked bit for bit against truth."""
    doc = _load_json(path)
    assert set(doc) == _TRUTH_KEYS
    assert (doc["format"], doc["version"]) == ("dpls-iv-truth", 1)
    for name in ("alpha", "gamma", "alpha_x", "beta_x", "w", "xi", "eps",
                 "treat_index", "out_index"):
        assert np.asarray(doc[name], dtype=np.float64).tobytes() == getattr(truth, name).tobytes()
    assert doc["beta"] == truth.beta
    assert doc["cov_repair"] == truth.cov_repair
    # sigma_z and the graph are derivable from the config, so they are dropped
    assert "sigma_z" not in doc and "graph" not in doc
    return doc


def test_truth_round_trip_preserves_arrays_bitwise(tmp_path):
    _, truth = gen_experiment1(experiment1_spec(n=100), SeededRng(21))
    path = tmp_path / "truth.json"
    write_truth(path, truth)
    _load_truth_file(path, truth)


def test_truth_round_trip_keeps_graph_experiment_repair(tmp_path):
    spec = experiment2_spec(n=100, m=20)
    _, truth = gen_experiment2(spec, SeededRng(5))
    assert truth.graph is not None
    path = tmp_path / "truth.json"
    write_truth(path, truth)
    assert _load_truth_file(path, truth)["cov_repair"] == truth.cov_repair


# ----------------------------------------------------------------- fit bundle


def _small_fit(mode, censored=True):
    ds, _ = gen_experiment1(experiment1_spec(n=200), SeededRng(41))
    cfg = DplsConfig(layer_widths=(4,), first_layer_q=3,
                     sgd=SgdParams(epochs=5, seed=0))
    return ds, dpls_iv_fit(ds, cfg, mode=mode, censored=censored)


def _fit_doc(tmp_path, fit):
    """The record write_fit writes for fit, as json.load reads it."""
    write_fit(tmp_path / "fit.json", fit)
    return _load_json(tmp_path / "fit.json")


def test_fit_bundle_round_trip_gmm_mode(tmp_path):
    ds, fit = _small_fit("rescale_gmm")
    write_fit(tmp_path / "fit.json", fit)
    back = read_fit(tmp_path / "fit.json")
    assert back.n_train == 200
    assert back.mode == "rescale_gmm"
    assert back.censored is True
    assert back.cf is None
    assert back.gmm.beta.tobytes() == fit.gmm.beta.tobytes()
    assert_array_equal(back.gmm.sigma_star_matrix, fit.gmm.sigma_star_matrix)
    assert_array_equal(back.gmm.corrected_matrix, fit.gmm.corrected_matrix)
    for field in ("psi1", "psi2", "sigma_star", "phi_hat", "c_k"):
        assert getattr(back.constants, field) == getattr(fit.constants, field)
    assert_array_equal(back.predict_treatment(ds.z, ds.x),
                       fit.predict_treatment(ds.z, ds.x))
    assert_array_equal(back.predict_outcome(ds.z, ds.x),
                       fit.predict_outcome(ds.z, ds.x))


def test_read_fit_skips_a_leading_byte_order_mark(tmp_path):
    ds, fit = _small_fit("rescale_gmm")
    path = tmp_path / "fit.json"
    write_fit(path, fit)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = read_fit(path)
    assert back.n_train == 200
    assert_array_equal(back.predict_outcome(ds.z, ds.x), fit.predict_outcome(ds.z, ds.x))


def test_fit_bundle_round_trip_control_function_mode(tmp_path):
    ds, fit = _small_fit("control_function")
    path = tmp_path / "fit.json"
    write_fit(path, fit)
    back = read_fit(path)
    assert back.n_train == 200
    assert back.mode == "control_function"
    assert back.gmm is None
    assert back.cf.beta == fit.cf.beta
    assert back.cf.beta_eta == fit.cf.beta_eta
    assert back.cf.beta_x.tobytes() == fit.cf.beta_x.tobytes()
    assert_array_equal(back.predict_outcome(ds.z, ds.x),
                       fit.predict_outcome(ds.z, ds.x))


def _assert_bit_equal(a, b):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_bit_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bit_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert a == b


def _method_fit(method, mode, censored):
    if method == "dpls_iv":
        return _small_fit(mode, censored)[1]
    ds, _ = gen_experiment1(experiment1_spec(n=200), SeededRng(41))
    zbar = augment_instruments(ds.z, ds.x)
    first = fit_first_stage(method, zbar, ds.p, "auto", SeededRng(0))
    return iv_fit(first, ds, mode=mode, censored=censored)


@pytest.mark.parametrize("censored", [True, False])
@pytest.mark.parametrize("mode", ["rescale_gmm", "control_function"])
@pytest.mark.parametrize("method", ["dpls_iv", "pls", "ols", "ridge", "lasso"])
def test_read_fit_returns_the_fit_write_fit_wrote(tmp_path, method, mode, censored):
    fit = _method_fit(method, mode, censored)
    write_fit(tmp_path / "fit.json", fit)
    back = read_fit(tmp_path / "fit.json")
    assert back.censored is censored and back.mode == mode and back.n_train == 200
    _assert_bit_equal(back, fit)


def test_a_fit_holds_exactly_its_record(tmp_path):
    """The fit's fields are the record's top-level keys less format and
    version, and the gmm stage is its block: three required arrays."""
    doc = _fit_doc(tmp_path, _method_fit("ols", "rescale_gmm", censored=True))
    fit_fields = {f.name for f in dataclasses.fields(DplsIvFit)}
    assert fit_fields == {"cf"} | set(doc) - {"format", "version"}
    gmm_fields = dataclasses.fields(TobitGmmFit)
    assert [f.name for f in gmm_fields] == ["beta", "sigma_star_matrix", "corrected_matrix"]
    assert all(f.default is dataclasses.MISSING for f in gmm_fields)


_PLS_KEYS = {"y_loadings", "weights", "means", "p_mean"}
_STAGE_KEYS = {
    "rescale_gmm": ("gmm", {"beta", "sigma_star_matrix", "corrected_matrix"}),
    "control_function": ("cf", {"beta", "beta_eta", "beta_x"}),
}
_FIRST_STAGE_KEYS = {
    "dpls_iv": {"method", "network"},
    "pls": {"method", "pls"},
    **dict.fromkeys(("ols", "ridge", "lasso"), {"method", "coef", "intercept", "lam"}),
}


@pytest.mark.parametrize("mode", ["rescale_gmm", "control_function"])
@pytest.mark.parametrize("method", sorted(_FIRST_STAGE_KEYS))
def test_fit_record_blocks_have_pinned_keys(tmp_path, method, mode):
    """A dataclass field added later changes the format only with this test."""
    doc = _fit_doc(tmp_path, _method_fit(method, mode, censored=True))
    stage, stage_keys = _STAGE_KEYS[mode]
    assert set(doc) == {"format", "version", "censored", "n_train", "constants",
                        "first_stage", stage}
    assert (doc["format"], doc["version"]) == ("dpls-iv-fit", 3)
    assert set(doc["constants"]) == {"psi1", "psi2", "sigma_star", "phi_hat", "c_k"}
    assert set(doc[stage]) == stage_keys
    first = doc["first_stage"]
    assert set(first) == _FIRST_STAGE_KEYS[method]
    if method == "dpls_iv":
        net = first["network"]
        assert set(net) == {"first_layer", "hidden", "history", "best_epoch"}
        assert all(set(layer) == {"w", "b"} for layer in net["hidden"])
        assert set(net["first_layer"]) == _PLS_KEYS
    if method == "pls":
        assert set(first["pls"]) == _PLS_KEYS


def test_truth_record_has_pinned_keys(tmp_path):
    _, truth = gen_experiment1(experiment1_spec(n=100), SeededRng(21))
    write_truth(tmp_path / "truth.json", truth)
    assert set(_load_json(tmp_path / "truth.json")) == _TRUTH_KEYS


def _read_fit_doc(tmp_path, doc):
    (tmp_path / "edited.json").write_text(json.dumps(doc), encoding="utf-8")
    return read_fit(tmp_path / "edited.json")


def test_read_fit_rejects_foreign_documents(tmp_path):
    with pytest.raises(DataError, match="not a fit record"):
        _read_fit_doc(tmp_path, {"format": "something-else"})
    with pytest.raises(DataError, match=re.escape("(KeyError: 'constants')")):
        _read_fit_doc(tmp_path, {"format": "dpls-iv-fit", "version": 3})
    _, fit = _small_fit("rescale_gmm", censored=False)
    doc = _fit_doc(tmp_path, fit)
    del doc["constants"]
    with pytest.raises(DataError, match=re.escape("(KeyError: 'constants')")):
        _read_fit_doc(tmp_path, doc)
    doc = _fit_doc(tmp_path, fit)
    del _network(doc)["first_layer"]
    with pytest.raises(DataError, match=re.escape("(KeyError: 'first_layer')")):
        _read_fit_doc(tmp_path, doc)
    doc = _fit_doc(tmp_path, fit)
    # version 1 is the record layout before every method shared one format;
    # version 2 also stored the mode, the activation and the PLS coef and q
    for old in (0, 1, 2):
        doc["version"] = old
        with pytest.raises(DataError, match=f"unsupported fit version {old}: "
                                            "this build reads version 3 only; refit"):
            _read_fit_doc(tmp_path, doc)


def _drop_last_column(rows):
    for row in rows:
        row.pop()


def _shorten_gmm(doc):
    gmm = doc["gmm"]
    gmm["beta"].pop()
    for key in ("sigma_star_matrix", "corrected_matrix"):
        gmm[key].pop()
        _drop_last_column(gmm[key])


def _network(doc):
    return doc["first_stage"]["network"]


def _gmm_beta0(token):
    """An edit that writes token, which json.dumps cannot, as gmm.beta[0]."""
    def edit(doc):
        doc["gmm"]["beta"][0] = 0.5
        return json.dumps(doc).replace('"beta": [0.5,', f'"beta": [{token},')
    return edit


# (mode, edit of the fit record, the reason predict gives); an edit that
# returns text writes that text instead of the edited record
_BAD_RECORDS = {
    "output_layer_row": ("rescale_gmm", lambda d: _network(d)["hidden"][-1]["w"].pop(),
                         "layer 1 has weight shape (3, 1) and bias shape (1,): "
                         "it must map the 4 values below it"),
    "first_layer_column": ("rescale_gmm",
                           lambda d: _drop_last_column(_network(d)["first_layer"]["weights"]),
                           "PLS weights (75, 2), means (75,) and y_loadings (3,) "
                           "do not fit together"),
    "first_layer_means": ("rescale_gmm", lambda d: _network(d)["first_layer"]["means"].pop(),
                          "do not fit together"),
    "gmm_beta": ("rescale_gmm", _shorten_gmm,
                 "fit has 24 covariate coefficients, data has 25 covariates"),
    "gmm_covariance_column": ("rescale_gmm",
                              lambda d: _drop_last_column(d["gmm"]["corrected_matrix"]),
                              "gmm beta (26,) and covariances (26, 26) and (26, 25) "
                              "do not fit together"),
    "cf_beta_x": ("control_function", lambda d: d["cf"]["beta_x"].pop(),
                  "fit has 24 covariate coefficients, data has 25 covariates"),
    "cf_beta_x_column": ("control_function",
                         lambda d: d["cf"].update(beta_x=[[v] for v in d["cf"]["beta_x"]]),
                         "cf beta_x must be a vector, got shape (25, 1)"),
    "linear_coef_matrix": ("rescale_gmm",
                           lambda d: d.update(first_stage={"method": "ols", "intercept": 0.0,
                                                           "lam": 0.0, "coef": [[0.5]] * 75}),
                           "linear coef must be a vector, got shape (75, 1)"),
    "no_outcome_stage": ("rescale_gmm", lambda d: d.pop("gmm"), "exactly one outcome stage"),
    "both_outcome_stages": ("rescale_gmm",
                            lambda d: d.update(cf={"beta": 1.0, "beta_eta": 0.0,
                                                   "beta_x": [0.0] * 25}),
                            "exactly one outcome stage"),
    "censored_string": ("rescale_gmm", lambda d: d.update(censored="false"),
                        "censored must be true or false, got 'false'"),
    "n_train_bool": ("rescale_gmm", lambda d: d.update(n_train=True),
                     "n_train must be an integer, got True"),
    "n_train_fraction": ("rescale_gmm", lambda d: d.update(n_train=2.7),
                         "n_train must be an integer, got 2.7"),
    "nan_token": ("rescale_gmm", lambda d: d["gmm"]["beta"].__setitem__(0, float("nan")),
                  "non-finite number NaN"),
    "infinity_token": ("rescale_gmm",
                       lambda d: _network(d)["first_layer"]["weights"][0].__setitem__(
                           0, float("inf")),
                       "non-finite number Infinity"),
    "overflowing_float": ("rescale_gmm", _gmm_beta0("1e999"), "non-finite number 1e999"),
    "overflowing_integer": ("rescale_gmm", lambda d: d["gmm"]["beta"].__setitem__(0, 10**400),
                            "non-finite number 1" + "0" * 400),
    "overflowing_n_train": ("rescale_gmm", lambda d: d.update(n_train=10**400),
                            "non-finite number 1" + "0" * 400),
    "null_in_array": ("rescale_gmm", lambda d: d["gmm"]["beta"].__setitem__(0, None),
                      "a fit record array holds null"),
    **{f"{field}_{name}": (mode, lambda d, e=edit, v=value: e(d, v),
                           f"{where} holds {json.dumps(value)}, not a number")
       for field, mode, edit, where in [
           ("constants", "rescale_gmm", lambda d, v: d["constants"].update(psi1=v), "psi1"),
           ("cf_beta", "control_function", lambda d, v: d["cf"].update(beta=v), "beta"),
           ("p_mean", "rescale_gmm",
            lambda d, v: _network(d)["first_layer"].update(p_mean=v), "p_mean"),
           ("gmm_beta_element", "rescale_gmm",
            lambda d, v: d["gmm"]["beta"].__setitem__(1, v), "a fit record array")]
       for name, value in [("string", "0.9"), ("true", True)]},
    **{f"constants_{field}_{name}": (
        "rescale_gmm", lambda d, f=field, v=value: d["constants"].update({f: v}),
        f"constants {field} is {value}: each must be finite")
       for field, name, value in [("psi1", "negative", -1.0), ("psi1", "zero", 0.0),
                                  ("sigma_star", "negative", -3.0), ("c_k", "zero", 0.0)]},
    "history_string": ("rescale_gmm", lambda d: _network(d).update(history="12"),
                       "network history must be an array of numbers"),
    "history_bool": ("rescale_gmm", lambda d: _network(d)["history"].__setitem__(0, True),
                     "network history must be an array of numbers"),
    **{f"best_epoch_{name}": (
        "rescale_gmm", lambda d, v=value: _network(d).update(best_epoch=v),
        f"network best_epoch must be null or an integer in [0, 6), got {value!r}")
       for name, value in [("string", "abc"), ("fraction", 1.5), ("bool", True),
                           ("negative", -7), ("past_history", 6), ("far_past_history", 99),
                           ("array", [1])]},
}


@pytest.mark.parametrize("case", sorted(_BAD_RECORDS))
def test_predict_exits_2_on_a_fit_record_whose_arrays_disagree(tmp_path, capsys, case):
    from dpls_iv.cli import main

    mode, edit, reason = _BAD_RECORDS[case]
    ds, fit = _small_fit(mode)
    csv_write(tmp_path / "data.csv", ds)
    doc = _fit_doc(tmp_path, fit)
    text = edit(doc)
    (tmp_path / "fit.json").write_text(text if isinstance(text, str) else json.dumps(doc))
    write_config(tmp_path / "cfg.txt", {"fit": str(tmp_path / "fit.json"),
                                        "data": str(tmp_path / "data.csv")})
    rc = main(["predict", "--config", str(tmp_path / "cfg.txt"),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert reason in err
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------- report files


def _hand_report():
    return MetricsReport(
        rows=(
            ("ols", 0, "treatment_r2", 0.5),
            ("ols", 1, "treatment_r2", 0.7),
            ("pls", 0, "treatment_r2", 0.9),
            ("ols", 0, "outcome_r2", 0.8),
        ),
        aggregates={
            ("ols", "treatment_r2"): {"median": 0.6, "iqr": 0.2, "count": 2},
            ("pls", "treatment_r2"): {"median": 0.9, "iqr": 0.0, "count": 1},
            ("ols", "outcome_r2"): {"median": 0.8, "iqr": 0.0, "count": 1},
        },
        bias_samples={"ols": np.array([1.0, 2.0, 4.0]), "pls": np.array([0.5])},
        seed_ledger=((0, 17), (1, 18)),
        failures=((1, "pls", "boom"),),
        replications=2,
        methods=("ols", "pls"),
    )


def test_write_predictions_csv_layout(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions_csv(path, {"y": np.array([1.5, 2.5]),
                                 "y_hat": np.array([1.0, 3.0])})
    assert path.read_text() == "row,y,y_hat\n1,1.5,1.0\n2,2.5,3.0\n"


def test_write_predictions_csv_matches_per_cell_repr_over_several_blocks(tmp_path):
    n = 3 * (dataio._CSV_BLOCK_CELLS // 2) + 5
    columns = {"p_hat": _wide_dataset(n, m=1, k=1).z[:, 0], "y_hat": np.arange(n) / 7.0}
    path = tmp_path / "pred.csv"
    write_predictions_csv(path, columns)
    expected = ["row,p_hat,y_hat"] + [
        f"{i + 1},{float(a)!r},{float(b)!r}" for i, (a, b) in enumerate(zip(*columns.values()))
    ]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_write_predictions_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "pred.csv"
    with pytest.raises(DataError, match="column y_hat has 1 rows, expected 2"):
        write_predictions_csv(path, {"y": np.zeros(2), "y_hat": np.zeros(1)})


@pytest.mark.parametrize("column, shape", [(np.zeros((2, 3)), "(2, 3)"), (np.float64(1.0), "()")],
                         ids=["matrix", "scalar"])
def test_write_predictions_csv_rejects_a_column_that_is_not_a_vector(tmp_path, column, shape):
    path = tmp_path / "pred.csv"
    for columns, name in [({"y": np.zeros(2), "y_hat": column}, "y_hat"),
                          ({"y": column, "y_hat": np.zeros(2)}, "y")]:
        with pytest.raises(DataError, match=re.escape(
                f"column {name} must be a vector, got shape {shape}")):
            write_predictions_csv(path, columns)
    assert not path.exists()


def test_write_metrics_csv_layout(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, _hand_report())
    lines = path.read_text().splitlines()
    assert lines[0] == "method,replication,metric,value"
    assert lines[1] == "ols,0,treatment_r2,0.5"
    assert lines[3] == "pls,0,treatment_r2,0.9"
    assert len(lines) == 5


def test_write_bias_cdf_csv_pads_short_curves(tmp_path):
    path = tmp_path / "cdf.csv"
    write_bias_cdf_csv(path, _hand_report())
    lines = path.read_text().splitlines()
    assert lines[0] == "ols_x,ols_y,pls_x,pls_y"
    assert lines[1] == "1.0,0.3333333333333333,0.5,1.0"
    assert lines[2] == "2.0,0.6666666666666666,,"
    assert lines[3] == "4.0,1.0,,"
    # every curve must end at probability one
    assert lines[-1].split(",")[1] == "1.0"


def test_write_bias_cdf_csv_skips_methods_without_samples(tmp_path):
    from dataclasses import replace

    report = replace(_hand_report(), bias_samples={"ols": np.array([2.0])})
    path = tmp_path / "cdf.csv"
    write_bias_cdf_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "ols_x,ols_y"
    assert lines[1] == "2.0,1.0"


def test_write_summary_contents(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(path, _hand_report(), "demo run")
    text = path.read_text(encoding="utf-8")
    assert text.startswith("demo run\n========\n")
    assert "replications: 2" in text
    assert "methods: ols, pls" in text
    assert "treatment_r2 (median [IQR])" in text
    assert "0.6 [0.2] over 2" in text
    # pls posted no outcome_r2 aggregate at all
    assert "no successful replications" in text
    assert "failures: 1 of 4 method-replication cells" in text
    assert "replication 1, pls: boom" in text
    assert "0: 17" in text and "1: 18" in text


def test_dataio_public_functions_are_the_files_the_cli_writes_and_reads():
    """Each public function is one file's writer or reader, and cli.py calls
    every one of them; no second way into a file is public."""
    import inspect

    from dpls_iv import cli

    called = set(re.findall(r"\bdataio\.([a-z]\w*)\(", inspect.getsource(cli)))
    public = {name for name, obj in vars(dataio).items()
              if inspect.isfunction(obj) and obj.__module__ == dataio.__name__
              and not name.startswith("_")}
    assert set(dataio.__all__) == called == public
    assert len(dataio.__all__) == 11
