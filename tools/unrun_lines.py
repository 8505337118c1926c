"""List the statements of a package that a command never ran, in any of its processes.

    python3 tools/unrun_lines.py [DIR] -- COMMAND [ARG ...]

runs ``COMMAND`` with a ``sys.settrace`` line tracer in every Python process it
starts, then prints each statement of the ``*.py`` files of ``DIR`` (default
``src/tightsample``) that no process ran, as ``file:line`` and the statement's
first source line, followed by the count. For example::

    python3 tools/unrun_lines.py -- python3 -m pytest -q tests

The tracer is installed by a generated ``sitecustomize.py``, prepended to
``PYTHONPATH`` (it shadows any other ``sitecustomize``), so child processes that
keep ``PYTHONPATH`` are traced too; each process writes the lines it ran when it
exits. A statement counts as run when a line of its own ran: a compound
statement owns its decorators and header, the lines before its body. Docstrings
(as ``tools/code_lines.py`` defines them), comments and blank lines are no
statements, and neither is one that compiles to no code of its own, such as
``global``. The exit status is the command's.

Limits: tracing roughly doubles the command's run time (tier-1 on a 2-vCPU VM:
72 s untraced, 149 s traced). A test that bounds allocations with
``tracemalloc``, such as ``test_run_state_memory_per_step``, counts the
tracer's new records too and can fail under it; deselect it if it does. A
process that leaves through ``os._exit``, as a process-pool worker does,
reports nothing.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

from code_lines import docstring_lines

TRACER = '''\
import atexit, os, sys, threading, time

_package, _out, _ours, _hits = {package!r}, {out!r}, {{}}, set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.dirname(os.path.realpath(name)) == _package
    return _line if ours else None


def _write():
    sys.settrace(None)
    with open(os.path.join(_out, f"{{os.getpid()}}-{{time.monotonic_ns()}}.tsv"), "w") as fh:
        fh.writelines(f"{{os.path.realpath(name)}}\\t{{line}}\\n" for name, line in _hits)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_write)
'''


def statements(source: str):
    """``(line, own lines)`` of each statement of ``source`` but its docstrings."""
    skip = docstring_lines(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and node.lineno not in skip:
            first = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
            body = getattr(node, "body", None)
            last = max(body[0].lineno - 1, node.lineno) if body else node.end_lineno
            yield node.lineno, range(first, last + 1)


def code_lines_of(source: str, filename: str) -> set[int]:
    """The lines that the compiled ``source`` holds code for, nested code included."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else -1
    if split not in (0, 1) or split + 1 == len(argv):
        print("usage: unrun_lines.py [DIR] -- COMMAND [ARG ...]", file=sys.stderr)
        return 2
    package = Path(argv[0] if split else "src/tightsample").resolve()
    with tempfile.TemporaryDirectory() as scratch:
        hits_dir = Path(scratch, "hits")
        hits_dir.mkdir()
        Path(scratch, "sitecustomize.py").write_text(
            TRACER.format(package=str(package), out=str(hits_dir)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [scratch, env.get("PYTHONPATH")]))
        status = subprocess.run(argv[split + 1:], env=env).returncode
        hits = set()
        for path in hits_dir.iterdir():
            for record in path.read_text().splitlines():
                name, line = record.rsplit("\t", 1)
                hits.add((name, int(line)))
    unrun = judged = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, has_code = source.splitlines(), code_lines_of(source, str(path))
        ran = {line for name, line in hits if name == str(path)}
        for line, own in sorted(statements(source), key=lambda statement: statement[0]):
            if has_code.isdisjoint(own):
                continue
            judged += 1
            if ran.isdisjoint(own):
                unrun += 1
                print(f"{path.name}:{line}\t{lines[line - 1].strip()}")
    print(f"not run\t{unrun} of {judged} statements")
    return status


if __name__ == "__main__":
    sys.exit(main())
