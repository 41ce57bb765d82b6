"""Every demo script runs to completion against the current library API."""
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip() != ""


def test_cli_walkthrough_runs_with_the_installed_command(tmp_path):
    """demos/cli_walkthrough.sh calls `dpls-iv`; a shim on PATH stands in for
    the installed console script, running this checkout's package."""
    src = Path(__file__).resolve().parent.parent / "src"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "dpls-iv"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m dpls_iv.cli "$@"\n')
    shim.chmod(0o755)
    env = {
        **os.environ,
        "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
    }
    script = Path(__file__).resolve().parent.parent / "demos" / "cli_walkthrough.sh"
    run = subprocess.run(["sh", str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "--- benchmark summary ---" in run.stdout
    for name in ("sim/data.csv", "fit/fit.json", "pred/predictions.csv",
                 "bench/summary.txt"):
        assert (tmp_path / "cli_demo_out" / name).is_file()
