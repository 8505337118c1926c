"""``tools/unrun_lines.py`` lists the statements of a package that a command never ran."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unrun_lines.py"

MODULE = '''"""Two functions."""


def used(x):
    """Called by the test."""
    return x + 1


@staticmethod
def unused(x):
    # never called
    if x:
        return x * 2
    return 0
'''

TEST = '''from pkg import mod


def test_used():
    assert mod.used(1) == 2
'''


def test_lists_only_the_body_of_the_function_no_test_calls(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(TEST)
    proc = subprocess.run([sys.executable, TOOL, "pkg", "--", sys.executable, "-m", "pytest",
                           "-q", "-p", "no:cacheprovider", "test_mod.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = proc.stdout[proc.stdout.index("mod.py:"):].splitlines()
    assert report == ["mod.py:12\tif x:", "mod.py:13\treturn x * 2", "mod.py:14\treturn 0",
                      "not run\t3 of 6 statements"]


def test_exits_with_the_command_status(tmp_path):
    (tmp_path / "pkg").mkdir()
    proc = subprocess.run([sys.executable, TOOL, "pkg", "--", sys.executable, "-c",
                           "raise SystemExit(3)"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == "not run\t0 of 0 statements\n"


def test_notes_a_package_that_no_process_ran(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    proc = subprocess.run([sys.executable, TOOL, "pkg", "--", sys.executable, "-c", "pass"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("not run\t6 of 6 statements\n")
    assert proc.stderr == (f"note: no process ran a statement of {package.resolve()}; "
                           f"can the command import it (PYTHONPATH)?\n")
