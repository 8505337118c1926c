"""The benchmark's traced mode patches package functions by name.

A renamed function would otherwise only show up as a failed benchmark run.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    # looked up as tracing.installed() looks them up: in the owner's own namespace
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_rest in tracing.TARGETS
               if attr not in vars(owner)]
    assert missing == []
