"""``tools/peak_rss.py`` runs a command as a child and reports its median wall time and RSS."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
SPEC = importlib.util.spec_from_file_location("peak_rss", TOOL)
peak_rss = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(peak_rss)


def test_reports_each_run_and_the_medians(capsys):
    assert peak_rss.main(["--runs", "3", "--", sys.executable, "-c", "pass"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == ["run 1", "run 2", "run 3", "median"]
    for line in lines:
        _label, wall, rss = line.split("\t")
        assert wall.startswith("wall_s ") and float(wall.split()[1]) > 0
        assert rss.startswith("peak_rss_mb ") and float(rss.split()[1]) > 1


def test_exits_with_the_status_of_a_failing_run(capsys):
    assert peak_rss.main(["--runs", "3", "--", sys.executable, "-c", "raise SystemExit(3)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "run 1 of" in captured.err and "exited 3" in captured.err


def test_imports_no_numpy():
    # a child keeps its parent's RSS high-water mark across exec: the parent stays small
    code = f"import runpy, sys; runpy.run_path({str(TOOL)!r}); print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
