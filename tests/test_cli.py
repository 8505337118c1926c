import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightsample
from tightsample import cli, graph, ingest, sampler, sbm
from tightsample.graph import IdMap
from tightsample.interactions import Scheme, calibrate_records, read_weight_csv
from tightsample.oracle import GraphOracle
from tightsample.util import read_csv


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def run_python(*argv):
    """Run Python with ``argv`` in a child process that imports this package."""
    src = str(Path(tightsample.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *(str(a) for a in argv)],
                          capture_output=True, text=True, env=env)


def run_cli_process(*argv):
    """Run the CLI in a child process; returns (exit code, stderr)."""
    proc = run_python("-m", "tightsample.cli", *argv)
    return proc.returncode, proc.stderr


@pytest.fixture
def net_dir(tmp_path):
    out = tmp_path / "net"
    assert run_cli("gen-sbm", "--sizes", "100x4", "--k-intra", "8",
                   "--r", "4", "--seed", "7", "--out", out) == 0
    return out


def seed_args(net_dir):
    labels = {}
    with open(net_dir / "labels.csv") as fh:
        for row in csv.DictReader(fh):
            labels.setdefault(int(row["block"]), row["node"])
    return ",".join(labels[b] for b in sorted(labels))


def test_gen_sbm_outputs(net_dir):
    edges = sbm.read_edges_tsv(net_dir / "edges.tsv")
    assert len(edges) > 1000
    cfg, seed_cfg = sbm.read_config(net_dir / "sbm.cfg")
    assert cfg.block_sizes == (100,) * 4
    with open(net_dir / "labels.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400


def test_gen_sbm_from_shipped_demo_config(tmp_path):
    out = tmp_path / "demo"
    assert run_cli("gen-sbm", "--config", cli.demo_config_path(),
                   "--out", out) == 0
    cfg, seed_cfg = sbm.read_config(out / "sbm.cfg")
    assert cfg.block_sizes == (200,) * 8
    assert seed_cfg.per_block == (1,) * 8


def test_sample_shipped_demo_exhausts_at_node_count(tmp_path):
    net = tmp_path / "demo"
    run_cli("gen-sbm", "--config", cli.demo_config_path(), "--out", net)
    labels = {}
    with open(net / "labels.csv") as fh:
        for row in csv.DictReader(fh):
            labels.setdefault(int(row["block"]), row["node"])
    seeds = ",".join(labels[b] for b in sorted(labels))
    out = tmp_path / "run"
    assert run_cli("sample", "--undirected", net / "edges.tsv",
                   "--seeds", seeds, "--strategy", "MAS",
                   "--budget", "5000", "--seed", "1", "--out", out) == 0
    rows = list(csv.DictReader(open(out / "trace.csv")))
    assert len(rows) <= 1600 - 8  # can never exceed nodes minus seeds


def test_sample_run_and_trace_budget(net_dir, tmp_path):
    out = tmp_path / "run"
    assert run_cli("sample", "--undirected", net_dir / "edges.tsv",
                   "--seeds", seed_args(net_dir), "--strategy", "MAS",
                   "--budget", "50", "--seed", "3", "--out", out) == 0
    rows = list(csv.DictReader(open(out / "trace.csv")))
    assert len(rows) == 50
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["strategy"] == "MAS"
    assert manifest["rng_seed"] == 3
    assert manifest["version"] == tightsample.__version__
    log = list(csv.DictReader(open(out / "access_log.csv")))
    assert len(log) == 4 + 50  # seeds + selections


def test_sample_reproducible_from_manifest(net_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_cli("sample", "--undirected", net_dir / "edges.tsv",
            "--seeds", seed_args(net_dir), "--strategy", "RS_DW",
            "--budget", "80", "--seed", "11", "--out", out1)
    assert run_cli("sample", "--from-manifest", out1 / "manifest.json",
                   "--out", out2) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "discovered.tsv").read_bytes() == \
        (out2 / "discovered.tsv").read_bytes()


def test_recording_a_sample_builds_no_graph(net_dir, tmp_path, monkeypatch):
    # discovered.tsv is written from the oracle's answers; no DiscoveredGraph is built
    calls = []
    add_events = graph.DiscoveredGraph.add_events

    def counted(self, *columns):
        calls.append(len(columns[0]))
        return add_events(self, *columns)

    monkeypatch.setattr(graph.DiscoveredGraph, "add_events", counted)
    out = tmp_path / "run"
    assert run_cli("sample", "--undirected", net_dir / "edges.tsv", "--seeds",
                   seed_args(net_dir), "--budget", "100", "--out", out) == 0
    assert calls == []
    summary = json.loads((out / "run_summary.json").read_text())
    lines = (out / "discovered.tsv").read_text().splitlines()
    assert summary["discovered_edges"] == len(lines) > 100


def test_manifest_records_input_fingerprints(tmp_path):
    # each input is hashed through one 64 KiB buffer, refilled until the file ends
    edges, table = tmp_path / "edges.tsv", tmp_path / "weights.csv"
    edges.write_text("".join(f"n{i}\tn{(7 * i + 1) % 20_000}\n" for i in range(20_000)))
    cli.interactions.write_weight_csv(table, cli.interactions.load_reference_tables()["nested"])
    out = tmp_path / "run"
    assert run_cli("sample", "--edges", edges, "--seeds", "n1", "--weights", table,
                   "--budget", "5", "--out", out) == 0
    assert edges.stat().st_size > 3 << 16
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    fingerprints = {str(path.resolve()): {
        "bytes": len(path.read_bytes()), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for path in (edges, table)}
    assert manifest["inputs"] == fingerprints
    # a shipped table is no file of the run's
    assert run_cli("sample", "--edges", edges, "--seeds", "n1", "--weights", "nested",
                   "--budget", "5", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(edges.resolve()): fingerprints[str(edges.resolve())]}


def test_importing_the_cli_loads_neither_openssl_nor_a_process_pool():
    # OpenSSL (through hashlib) is some 3.5 MB resident, and only a sweep runs a pool
    proc = run_python("-c", "import sys, tightsample.cli; "
                            "print(sorted({'_hashlib', 'concurrent.futures'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# a sample in a child process that prints, at each oracle build and at its exit,
# whether OpenSSL is loaded
_SAMPLE_REPORTING_OPENSSL = """
import sys
from tightsample import cli
build = cli.GraphOracle.from_undirected_edges

def reporting(*args, **kwargs):
    print("build", "_hashlib" in sys.modules)
    return build(*args, **kwargs)

cli.GraphOracle.from_undirected_edges = reporting
code = cli.main(sys.argv[1:])
print("exit", code, "_hashlib" in sys.modules)
"""


def test_a_fresh_sample_hashes_its_inputs_after_the_build(net_dir, tmp_path):
    # so that OpenSSL's pages do not sit under the build's peak; a replay checks its
    # inputs first and refuses a changed one before it builds anything
    def reports(*argv):
        proc = run_python("-c", _SAMPLE_REPORTING_OPENSSL, "sample", *argv)
        return [line for line in proc.stdout.splitlines()
                if line.startswith(("build ", "exit "))], proc.stderr

    edges, out = net_dir / "edges.tsv", tmp_path / "run"
    assert reports("--undirected", edges, "--seeds", seed_args(net_dir), "--budget", "5",
                   "--out", out) == (["build False", "exit 0 True"], "")
    edges.write_bytes(edges.read_bytes() + b"\n")
    lines, err = reports("--from-manifest", out / "manifest.json", "--out", tmp_path / "r2")
    assert lines == ["exit 3 True"] and "size or sha256 differs" in err, err


def test_replay_refuses_an_edited_input(net_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("sample", "--undirected", net_dir / "edges.tsv",
                   "--seeds", seed_args(net_dir), "--strategy", "RS_DW",
                   "--budget", "60", "--seed", "4", "--out", out1) == 0
    assert run_cli("sample", "--from-manifest", out1 / "manifest.json",
                   "--out", out2) == 0
    for name in ("trace.csv", "discovered.tsv", "access_log.csv", "manifest.json",
                 "run_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    edges = net_dir / "edges.tsv"
    data = bytearray(edges.read_bytes())
    data[data.index(b"\t") - 1] ^= 1   # one digit of the first node id, same size
    edges.write_bytes(bytes(data))
    code, err = run_cli_process("sample", "--from-manifest", out1 / "manifest.json",
                                "--out", tmp_path / "r3")
    assert code == 3, err
    assert "Traceback" not in err
    assert f"{edges.resolve()}: size or sha256 differs" in err
    assert not (tmp_path / "r3" / "trace.csv").exists()


def test_replay_refuses_an_edited_weight_table(net_dir, tmp_path):
    table = tmp_path / "weights.csv"
    shipped = cli.interactions.load_reference_tables()["nested"]
    cli.interactions.write_weight_csv(table, shipped)
    out1 = tmp_path / "r1"
    assert run_cli("sample", "--undirected", net_dir / "edges.tsv",
                   "--seeds", seed_args(net_dir), "--weights", table,
                   "--budget", "5", "--out", out1) == 0
    table.write_text(table.read_text() + "\n")
    code, err = run_cli_process("sample", "--from-manifest", out1 / "manifest.json",
                                "--out", tmp_path / "r2")
    assert code == 3 and str(table.resolve()) in err, err


def test_sample_demo_budget_cap(net_dir, tmp_path):
    # budget beyond the reachable frontier: trace stops early
    out = tmp_path / "cap"
    assert run_cli("sample", "--undirected", net_dir / "edges.tsv",
                   "--seeds", seed_args(net_dir), "--strategy", "MAS",
                   "--budget", "1000", "--seed", "1", "--out", out) == 0
    rows = list(csv.DictReader(open(out / "trace.csv")))
    assert len(rows) <= 400 - 4


def test_sample_config_errors_exit_2(net_dir, tmp_path):
    assert run_cli("sample", "--undirected", net_dir / "edges.tsv",
                   "--seeds", "0", "--strategy", "DFS",
                   "--budget", "5", "--out", tmp_path / "x") == 2
    assert run_cli("sample", "--undirected", net_dir / "edges.tsv",
                   "--seeds", "0", "--strategy", "MAS",
                   "--out", tmp_path / "y") == 2


@pytest.mark.parametrize("argv,message", [
    (["--edges", "EDGES", "--seeds", "0"], "pass exactly one of --undirected/--edges/--events"),
    (["--seeds", "0", "--seeds-file", "EDGES"], "pass --seeds or --seeds-file, not both"),
    ([], "no seeds given"),
], ids=["two-backings", "two-seed-options", "no-seeds"])
def test_sample_option_conflicts_exit_2(net_dir, tmp_path, capsys, argv, message):
    edges = net_dir / "edges.tsv"
    argv = [edges if arg == "EDGES" else arg for arg in argv]
    out = tmp_path / "out"
    assert run_cli("sample", "--undirected", edges, *argv, "--budget", "5", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_blank_line_in_an_edge_list_changes_no_run(net_dir, tmp_path):
    lines = (net_dir / "edges.tsv").read_text().splitlines(keepends=True)
    plain, blank = tmp_path / "plain.tsv", tmp_path / "blank.tsv"
    plain.write_text("".join(lines))
    blank.write_text("".join(lines[:5] + ["\n"] + lines[5:]))
    for name, path in (("plain", plain), ("blank", blank)):
        assert run_cli("sample", "--edges", path, "--seeds", seed_args(net_dir),
                       "--budget", "40", "--out", tmp_path / name) == 0
    for output in ("trace.csv", "discovered.tsv", "access_log.csv"):
        assert (tmp_path / "blank" / output).read_bytes() == \
            (tmp_path / "plain" / output).read_bytes(), output


def test_metrics_of_a_run_of_no_steps(tmp_path):
    # the seed has no in-neighbours, so the frontier is empty from the start
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\n")
    assert run_cli("sample", "--edges", edges, "--seeds", "a", "--budget", "5",
                   "--out", tmp_path / "run") == 0
    assert (tmp_path / "run" / "trace.csv").read_bytes() == TRACE_HEADER.replace(b"\n", b"\r\n")
    with pytest.warns(UserWarning, match="no connected triplets"):
        assert run_cli("metrics", tmp_path / "run", "--out", tmp_path / "m") == 0
    report = json.loads((tmp_path / "m" / "report_run.json").read_text())
    assert report["avg_shortest_path"] is None and report["reachable_fraction"] == 0.0
    assert (report["n"], report["m"]) == (1, 0)


def test_undirected_edges_listed_both_ways_count_once(net_dir, tmp_path):
    plain = net_dir / "edges.tsv"
    both = tmp_path / "both.tsv"
    lines = plain.read_text().splitlines()
    both.write_text("".join(f"{line}\n" for line in lines) +
                    "".join("{1}\t{0}\n".format(*line.split("\t")) for line in lines))
    for name, path in (("plain", plain), ("both", both)):
        assert run_cli("sample", "--undirected", path, "--seeds", seed_args(net_dir),
                       "--budget", "60", "--out", tmp_path / name) == 0
    for output in ("trace.csv", "discovered.tsv"):
        assert (tmp_path / "plain" / output).read_bytes() == \
            (tmp_path / "both" / output).read_bytes()


@pytest.mark.parametrize("backing", ["--edges", "--undirected"])
def test_crlf_edge_list_samples_as_lf(net_dir, tmp_path, backing):
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lines = (net_dir / "edges.tsv").read_text().splitlines()
    lf.write_text("".join(f"{line}\n" for line in lines) +   # both ways, for --edges
                  "".join("{1}\t{0}\n".format(*line.split("\t")) for line in lines))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for name, path in (("lf", lf), ("crlf", crlf)):
        assert run_cli("sample", backing, path, "--seeds", seed_args(net_dir),
                       "--budget", "60", "--out", tmp_path / name) == 0
    for output in ("trace.csv", "discovered.tsv", "access_log.csv"):
        assert (tmp_path / "lf" / output).read_bytes() == \
            (tmp_path / "crlf" / output).read_bytes()
    assert len((tmp_path / "crlf" / "trace.csv").read_text().splitlines()) == 61


@pytest.mark.parametrize("argv", [  # the bad value comes last
    ["gen-sbm", "--sizes", "abc"],
    ["sweep", "--sizes", "50x2", "--budget", "5", "--r-list", "1,x"],
    ["sweep", "--sizes", "50x2", "--r-list", "1", "--budget", "5",
     "--seeds-per-block", "1,q"],
    ["gen-sbm", "--sizes", "30x0"],
    ["sweep", "--sizes", "50x2", "--r-list", "1", "--budget", "5",
     "--seeds-per-block", "1x0"],
])
def test_bad_list_argument_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", tmp_path / "out")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected" in err and f"got {argv[-1]!r}" in err
    assert "_parse" not in err


def test_sample_missing_file_exits_3(tmp_path):
    assert run_cli("sample", "--undirected", tmp_path / "missing.tsv",
                   "--seeds", "0", "--strategy", "MAS", "--budget", "5",
                   "--out", tmp_path / "z") == 3


def test_sample_three_column_edge_file_exits_3(tmp_path):
    bad = tmp_path / "edges.tsv"
    bad.write_text("0\t1\n1\t2\t5\n")
    code, err = run_cli_process("sample", "--undirected", bad, "--seeds", "0",
                                "--budget", "5", "--out", tmp_path / "out")
    assert code == 3
    assert "Traceback" not in err
    assert f"{bad}:2:" in err


def test_sample_unreadable_seeds_file_exits_3(net_dir, tmp_path):
    code, err = run_cli_process("sample", "--undirected", net_dir / "edges.tsv",
                                "--seeds-file", tmp_path / "missing.txt",
                                "--budget", "5", "--out", tmp_path / "out")
    assert code == 3
    assert "Traceback" not in err
    assert "missing.txt" in err


@pytest.mark.parametrize("content", [None, '{"strategy": "MAS",\n', "[]"])
def test_sample_bad_manifest_exits_3(tmp_path, content):
    manifest = tmp_path / "manifest.json"
    if content is not None:
        manifest.write_text(content)
    code, err = run_cli_process("sample", "--from-manifest", manifest,
                                "--out", tmp_path / "out")
    assert code == 3
    assert "Traceback" not in err
    assert str(manifest) in err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A finished 10-step MAS run on a 60-node blockmodel."""
    base = tmp_path_factory.mktemp("small")
    assert run_cli("gen-sbm", "--sizes", "30x2", "--k-intra", "4", "--r", "4",
                   "--seed", "3", "--out", base / "net") == 0
    assert run_cli("sample", "--undirected", base / "net" / "edges.tsv",
                   "--seeds", "0", "--budget", "10", "--out", base / "run") == 0
    return base / "run"


RUN_FILES = ("trace.csv", "discovered.tsv", "manifest.json", "run_summary.json")


def feed_input(name, content, small_run, tmp):
    """Write ``content`` as the CLI input file ``name`` under ``tmp`` (None: no
    file) and return the argv that reads it.

    A file of :data:`RUN_FILES` replaces that file in a copy of ``small_run``.
    """
    out = tmp / "out"
    if name in RUN_FILES:
        run = tmp / "run"
        shutil.copytree(small_run, run)
        if content is None:
            (run / name).unlink()
        else:
            (run / name).write_bytes(content)
        return ["metrics", run, "--out", out]
    path = tmp / name
    if content is not None:
        path.write_bytes(content)
    net = small_run.parent / "net" / "edges.tsv"
    sample = ["sample", "--budget", "5", "--out", out]
    return {
        "sbm.cfg": ["gen-sbm", "--config", path, "--out", out],
        "undirected.tsv": [*sample, "--undirected", path, "--seeds", "0"],
        "edgelist.tsv": [*sample, "--edges", path, "--seeds", "0"],
        "events.jsonl": [*sample, "--events", path, "--seeds", "a"],
        "events.csv": [*sample, "--events", path, "--seeds", "a"],
        "weights.csv": [*sample, "--undirected", net, "--seeds", "0", "--weights", path],
        "seeds.txt": [*sample, "--undirected", net, "--seeds-file", path],
        "labels.csv": ["metrics", small_run, "--labels", path, "--out", out],
    }[name]


INPUT_NAMES = (*RUN_FILES, "sbm.cfg", "undirected.tsv", "edgelist.tsv", "events.jsonl",
               "events.csv", "weights.csv", "seeds.txt", "labels.csv")
TRACE_HEADER = b"timestep,node_ext_id,priority,boundary,new_nodes,new_edges\n"
EVENTS_HEADER = b"tweet_id,author,interactor,types\n"
WEIGHTS_HEADER = b"scheme,pattern,eta_global,eta_source,eta_target,eta_star,omega,omega_star\n"

# (input file, its bytes, expected exit code, stderr fragment)
BAD_INPUTS = {
    "edges-weight": ("discovered.tsv", b"1\t0\tx\t1\n", 3, "discovered.tsv:1:"),
    "edges-count": ("discovered.tsv", b"1\t0\t1.0\tx\n", 3, "discovered.tsv:1:"),
    "edges-utf8": ("discovered.tsv", b"1\t0\t1.0\t1\n\xff\t0\t1.0\t1\n", 3,
                   "discovered.tsv:2:"),
    "edges-repeat": ("discovered.tsv", b"1\t0\t1.0\t1\n2\t0\t1.0\t1\n1\t0\t1.0\t1\n", 3,
                     "discovered.tsv:3:"),
    "edges-self-loop": ("discovered.tsv", b"1\t0\t1.0\t1\nu7\tu7\t1.0\t1\n", 3,
                        "discovered.tsv:2: self-loop on u7"),
    "edges-nan-weight": ("discovered.tsv", b"1\t0\t1.0\t1\n2\t0\tnan\t1\n", 3,
                         "discovered.tsv:2: expected a finite weight >= 0"),
    "edges-negative-weight": ("discovered.tsv", b"1\t0\t-0.5\t1\n", 3,
                              "discovered.tsv:1: expected a finite weight >= 0"),
    "edges-zero-count": ("discovered.tsv", b"1\t0\t1.0\t1\n2\t0\t1.0\t0\n", 3,
                         "discovered.tsv:2: expected a finite weight >= 0"),
    "edges-count-int64": ("discovered.tsv", b"1\t0\t1.0\t9223372036854775808\n", 3,
                          "discovered.tsv:1: expected a finite weight >= 0"),
    # the run's answers hold 67 edges, and its seed is 0
    "edges-count-mismatch": ("discovered.tsv", b"1\t0\t1.0\t1\n", 3,
                             "run_summary.json says 67 edges, the file holds 1"),
    "edges-target-outside": ("discovered.tsv", b"1\t0\t1.0\t1\n0\tx\t1.0\t1\n", 3,
                             "discovered.tsv:2: the edge's target x is neither a seed nor"),
    "manifest-missing": ("manifest.json", None, 3, f"run{os.sep}manifest.json"),
    "manifest-json": ("manifest.json", b'{"seeds": [0],\n', 3, "manifest.json:2:"),
    "manifest-int": ("manifest.json", b'{"seeds": ' + b"1" * 5000 + b"}", 3,
                     "manifest.json"),
    "manifest-depth": ("manifest.json", b"[" * 100_000, 3, "manifest.json"),
    "manifest-seeds": ("manifest.json", b'{"seeds": 5}', 3,
                       "manifest.json: manifest seeds is integer"),
    "manifest-strategy": ("manifest.json", b'{"seeds": [0], "strategy": ["MAS"]}', 3,
                          "manifest.json: manifest strategy is array"),
    "summary-missing": ("run_summary.json", None, 3, f"run{os.sep}run_summary.json"),
    "summary-json": ("run_summary.json", b"{init_boundary", 3, "run_summary.json:1:"),
    "summary-number": ("run_summary.json", b'{"init_boundary": "x"}', 3,
                       "run_summary.json"),
    "trace-column": ("trace.csv", b"timestep,node_ext_id\n1,5\n", 3, "trace.csv:2:"),
    "trace-number": ("trace.csv", TRACE_HEADER + b"1,5,x,2.0,0,0\n", 3, "trace.csv:2:"),
    "trace-gap": ("trace.csv", TRACE_HEADER + b"1,1,1.0,8.0,4,5\n3,19,2.0,14.0,3,6\n", 3,
                  "trace.csv:3: malformed trace row (ValueError: timestep 3 does not follow "
                  "timestep 1)"),
    "trace-repeat": ("trace.csv", TRACE_HEADER + b"1,1,1.0,8.0,4,5\n1,1,1.0,8.0,4,5\n", 3,
                     "trace.csv:3: malformed trace row (ValueError: timestep 1 does not "
                     "follow timestep 1)"),
    "trace-start": ("trace.csv", TRACE_HEADER + b"\n2,14,1.0,12.0,4,6\n", 3,
                    "trace.csv:3: the trace starts at timestep 2, not 1"),
    "config-missing": ("sbm.cfg", None, 3, "sbm.cfg"),
    "config-number": ("sbm.cfg", b"block_sizes = 30,30\nk_intra = four\nr = 4\n", 2,
                      "sbm.cfg"),
    "config-nan": ("sbm.cfg", b"block_sizes = 30,30\nk_intra = nan\nr = 4\n", 2,
                   "k_intra=nan"),
    "config-unknown-key": ("sbm.cfg", b"block_sizes = 30,30\nk_intra = 4\nr = 4\n"
                           b"seeds_per_block = 1,1\n", 2,
                           "sbm.cfg:4: unknown key 'seeds_per_block'"),
    "config-repeated-key": ("sbm.cfg", b"block_sizes = 30,30\nk_intra = 4\nr = 4\nr = 2\n",
                            2, "sbm.cfg:4: r is set twice"),
    "undirected-utf8": ("undirected.tsv", b"0\t1\n\xff\t2\n", 3, "undirected.tsv:2:"),
    "undirected-int64": ("undirected.tsv", b"0\t1\n1\t9223372036854775808\n", 3,
                         "undirected.tsv:2: node id outside int64"),
    "edgelist-utf8": ("edgelist.tsv", b"0\t1\n1\t\xfe\n", 3, "edgelist.tsv:2:"),
    "edgelist-empty-id": ("edgelist.tsv", b"0\t1\n\t1\n", 3,
                          "edgelist.tsv:2: empty node id"),
    "edgelist-extra-field": ("edgelist.tsv", b"0\t1\n1\t2\t0.5\n", 3, "edgelist.tsv:2:"),
    "events-jsonl-utf8": ("events.jsonl", b'{"tweet_id": "t"}\n\xff\n', 3,
                          "events.jsonl:2:"),
    "events-jsonl-int": ("events.jsonl", b"1" * 5000 + b"\n", 3, "events.jsonl:"),
    "events-jsonl-depth": ("events.jsonl", b"[" * 100_000 + b"\n", 3, "events.jsonl:"),
    "events-csv-utf8": ("events.csv", EVENTS_HEADER + b"t,a,\xff,like\n", 3,
                        "events.csv:2:"),
    "events-csv-field": ("events.csv", EVENTS_HEADER + b"t" * 140_000 + b",a,u,like\n", 3,
                         "events.csv:2:"),
    "weights-missing": ("weights.csv", None, 3, "weights.csv"),
    "weights-number": ("weights.csv", WEIGHTS_HEADER + b"distinct,1000,x,1,1,1,1,1\n", 3,
                       "weights.csv:2:"),
    "weights-nan": ("weights.csv", WEIGHTS_HEADER + b"distinct,1000,1,1,1,1,1,nan\n", 3,
                    "weights.csv:2: omega_star must be a finite number >= 0"),
    "weights-inf": ("weights.csv", WEIGHTS_HEADER + b"distinct,1000,1,1,1,1,inf,1\n", 3,
                    "weights.csv:2: omega must be a finite number >= 0"),
    "weights-negative": ("weights.csv", WEIGHTS_HEADER + b"distinct,1000,-1,1,1,1,1,1\n", 3,
                         "weights.csv:2: eta_global must be a finite number >= 0"),
    "weights-scheme": ("weights.csv", WEIGHTS_HEADER + b"bogus,0001,1,1,1,1,1,1\n", 3,
                       "weights.csv:2: unknown counting scheme 'bogus'"),
    "weights-pattern-zero": ("weights.csv", WEIGHTS_HEADER + b"distinct,0000,1,1,1,1,1,1\n", 3,
                             "weights.csv:2: pattern 0 is unrepresentable"),
    "weights-pattern-letter": ("weights.csv", WEIGHTS_HEADER + b"distinct,01x1,1,1,1,1,1,1\n",
                               3, "weights.csv:2: malformed pattern '01x1'"),
    "weights-seven-fields": ("weights.csv", WEIGHTS_HEADER + b"distinct,1000,1,1,1,1,1\n", 3,
                             "weights.csv:2: expected 8 fields"),
    "labels-number": ("labels.csv", b"node,block\n0,x\n", 3, "labels.csv:2:"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_cleanly(small_run, tmp_path, case):
    name, content, expected, fragment = BAD_INPUTS[case]
    code, err = run_cli_process(*feed_input(name, content, small_run, tmp_path))
    assert code == expected, err
    assert "Traceback" not in err
    assert fragment in err


# (manifest field, a value of the wrong JSON type or out of the sampler's range); "oracle.x"
# is field x of the descriptor. The run has one seed, so a target size of 1 is already met.
MISTYPED_MANIFEST_FIELDS = [
    ("weights", 5), ("budget", "x"), ("target_size", "x"), ("seeds", 5),
    ("seeds", ["0", [0]]), ("rng_seed", "x"), ("oracle.path", 5), ("oracle.n_nodes", "x"),
    ("strategy", "XYZ"), ("strategy", 5), ("strategy", ["MAS"]), ("tie_break", 5),
    ("oracle.kind", "nope"), ("oracle.kind", ["x"]),
    ("budget", 0), ("budget", -3), ("seeds", []), ("seeds", ["0", "0"]), ("target_size", 1),
]


@pytest.mark.parametrize("n_nodes", [-4, 10 ** 30])
def test_replay_refuses_an_out_of_range_n_nodes(small_run, tmp_path, n_nodes):
    # a negative count once replayed as if it were null, and one beyond int64 was a
    # traceback from np.arange; both are refused before any graph is built
    manifest = json.loads((small_run / "manifest.json").read_text())
    manifest["oracle"]["n_nodes"] = n_nodes
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, err = run_cli_process("sample", "--from-manifest", path, "--out", tmp_path / "out")
    assert code == 3, err
    assert "Traceback" not in err
    assert str(path) in err and "oracle.n_nodes" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", MISTYPED_MANIFEST_FIELDS,
                         ids=[f"{k}={json.dumps(v)}" for k, v in MISTYPED_MANIFEST_FIELDS])
def test_replay_refuses_a_mistyped_manifest_field(small_run, tmp_path, key, value):
    manifest = json.loads((small_run / "manifest.json").read_text())
    section, _, name = key.rpartition(".")
    (manifest[section] if section else manifest)[name] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, err = run_cli_process("sample", "--from-manifest", path,
                                "--out", tmp_path / "out")
    assert code == 3, err
    assert "Traceback" not in err
    assert str(path) in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields", [{"target_size": 1, "budget": None},
                                    {"target_size": None, "budget": None}],
                         ids=["target-size-met", "no-budget"])
def test_replay_refuses_a_manifest_without_a_budget_it_can_spend(small_run, tmp_path, fields):
    manifest = {**json.loads((small_run / "manifest.json").read_text()), **fields}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, err = run_cli_process("sample", "--from-manifest", path, "--out", tmp_path / "out")
    assert code == 3, err
    assert "Traceback" not in err
    assert str(path) in err and "target_size" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,message", [   # a value of None removes the key
    ("oracle", None, "not a sample manifest"),
    ("budget", None, "manifest lacks budget"),
    ("inputs", [], "inputs is not an object"),
], ids=["no-oracle", "no-budget", "inputs-list"])
def test_replay_refuses_a_manifest_that_is_not_a_run_record(small_run, tmp_path, key, value,
                                                            message):
    manifest = json.loads((small_run / "manifest.json").read_text())
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, err = run_cli_process("sample", "--from-manifest", path, "--out", tmp_path / "out")
    assert code == 3, err
    assert "Traceback" not in err
    assert f"{path}: {message}" in err, err
    assert not (tmp_path / "out").exists()


def test_replay_of_a_manifest_from_another_numpy_warns(small_run, tmp_path, capsys):
    manifest = {**json.loads((small_run / "manifest.json").read_text()), "numpy": "0.0"}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("sample", "--from-manifest", path, "--out", tmp_path / "out") == 0
    assert f"warning: {path} was written with numpy 0.0" in capsys.readouterr().err
    assert (tmp_path / "out" / "trace.csv").read_bytes() == \
        (small_run / "trace.csv").read_bytes()


def test_replay_accepts_the_null_n_nodes_of_older_manifests(small_run, tmp_path):
    # every undirected manifest once recorded "n_nodes": null
    manifest = json.loads((small_run / "manifest.json").read_text())
    manifest["oracle"]["n_nodes"] = None
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("sample", "--from-manifest", path, "--out", tmp_path / "out") == 0
    for name in ("trace.csv", "discovered.tsv", "access_log.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (small_run / name).read_bytes(), name


NEGATIVE_SEED_CASES = ("sample", "gen-sbm", "gen-sbm-config", "sweep", "replay",
                       "replay-graph-seed")


@pytest.mark.parametrize("case", NEGATIVE_SEED_CASES)
def test_negative_rng_seed_exits_cleanly(small_run, kept_cells, tmp_path, case):
    # numpy's generators take only non-negative seeds
    net = small_run.parent / "net"
    config, manifest = tmp_path / "sbm.cfg", tmp_path / "manifest.json"
    config.write_text((net / "sbm.cfg").read_text().replace("rng_seed = 3", "rng_seed = -1"))
    manifest.write_text(json.dumps(
        {**json.loads((small_run / "manifest.json").read_text()), "rng_seed": -1}))
    cell = json.loads((kept_cells[0] / "manifest.json").read_text())
    cell["oracle"]["graph_seed"] = -1
    cell_manifest = tmp_path / "cell.json"
    cell_manifest.write_text(json.dumps(cell))
    argv, expected, fragments = {
        "sample": (["sample", "--undirected", net / "edges.tsv", "--seeds", "0",
                    "--budget", "5", "--seed", "-1"], 2, ["--seed", "'-1'"]),
        "gen-sbm": (["gen-sbm", "--sizes", "30x2", "--seed", "-1"], 2, ["--seed", "'-1'"]),
        "gen-sbm-config": (["gen-sbm", "--config", config], 2, [str(config), "rng_seed"]),
        "sweep": (["sweep", "--sizes", "30x2", "--r-list", "4", "--budget", "5",
                   "--seed", "-1"], 2, ["--seed", "'-1'"]),
        "replay": (["sample", "--from-manifest", manifest], 3, [str(manifest), "rng_seed"]),
        "replay-graph-seed": (["sample", "--from-manifest", cell_manifest], 3,
                              [str(cell_manifest), "oracle.graph_seed"]),
    }[case]
    code, err = run_cli_process(*argv, "--out", tmp_path / "out")
    assert code == expected, err
    assert "Traceback" not in err
    assert all(fragment in err for fragment in fragments), err


@pytest.mark.parametrize("source", ["--seeds", "--from-manifest"])
@pytest.mark.parametrize("token", ["²", "--5", pytest.param("1" * 5000, id="5000-digits"),
                                   pytest.param("-" + "1" * 5000, id="minus-5000-digits")])
def test_digit_like_seed_that_int_rejects_exits_3(small_run, tmp_path, source, token):
    # '²'.isdigit() holds and '--5'.lstrip('-') is digits, but int() raises on both, and
    # on more than 4,300 digits: such a token must stay a string, and an unknown one
    if source == "--seeds":
        argv = ["sample", "--undirected", small_run.parent / "net" / "edges.tsv",
                "--seeds", f"0,{token}", "--budget", "3"]
    else:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {**json.loads((small_run / "manifest.json").read_text()), "seeds": ["0", token]}))
        argv = ["sample", "--from-manifest", manifest]
    code, err = run_cli_process(*argv, "--out", tmp_path / "out")
    assert code == 3, err
    assert "Traceback" not in err
    assert f"unknown seed: '{token}'" in err, err


def test_sample_on_the_shipped_multi_scheme_table_says_what_works(small_run, tmp_path, capsys):
    shipped = Path(tightsample.__file__).parent / "data" / "calibrated_weights.csv"
    assert run_cli("sample", "--undirected", small_run.parent / "net" / "edges.tsv",
                   "--seeds", "0", "--budget", "3", "--weights", shipped,
                   "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{shipped} holds the schemes distinct, nested, af" in err, err
    assert "table of one scheme, or a shipped tag (distinct, nested, af)" in err, err


def test_metrics_refuses_two_runs_of_one_name(small_run, tmp_path, capsys):
    # their report_<name>.json and evolution_<name>.csv would overwrite each other
    for parent in ("a", "b"):
        shutil.copytree(small_run, tmp_path / parent / "run")
    out = tmp_path / "eval"
    assert run_cli("metrics", tmp_path / "a" / "run", tmp_path / "b" / "run",
                   "--labels", small_run.parent / "net" / "labels.csv", "--out", out) == 2
    assert "two run directories are named 'run'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("labels", [None, b"node,block\n1,x\n"], ids=["missing", "not-int"])
def test_metrics_checks_the_labels_before_writing(small_run, tmp_path, capsys, labels):
    path = tmp_path / "labels.csv"
    if labels is not None:
        path.write_bytes(labels)
    out = tmp_path / "eval"
    assert run_cli("metrics", small_run, "--labels", path, "--out", out) == 3
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_replay_of_a_target_size_run(small_run, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("sample", "--undirected", small_run.parent / "net" / "edges.tsv",
                   "--seeds", "0", "--target-size", "12", "--out", out1) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["budget"] is None and manifest["target_size"] == 12
    assert run_cli("sample", "--from-manifest", out1 / "manifest.json",
                   "--out", out2) == 0
    for name in ("trace.csv", "discovered.tsv", "access_log.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("name", INPUT_NAMES)
@settings(max_examples=15, deadline=None)
@given(content=st.binary())
def test_arbitrary_input_bytes_never_raise(small_run, name, content):
    with tempfile.TemporaryDirectory() as tmp:
        argv = feed_input(name, content, small_run, Path(tmp))
        assert run_cli(*argv) in (0, 2, 3)


def test_metrics_two_runs_min_common_comparison(net_dir, tmp_path):
    seeds = seed_args(net_dir)
    for strat, steps in (("MAS", 60), ("RS_DU", 80)):
        run_cli("sample", "--undirected", net_dir / "edges.tsv",
                "--seeds", seeds, "--strategy", strat, "--budget", steps,
                "--seed", "5", "--out", tmp_path / strat)
    out = tmp_path / "eval"
    assert run_cli("metrics", tmp_path / "MAS", tmp_path / "RS_DU",
                   "--labels", net_dir / "labels.csv", "--out", out) == 0
    rows = list(csv.DictReader(open(out / "comparison.csv")))
    assert [r["strategy"] for r in rows] == ["MAS", "RS_DU"]
    assert all(int(r["common_size"]) == 64 for r in rows)  # 4 seeds + 60
    assert (out / "evolution_MAS.csv").exists()
    assert (out / "report_MAS.json").exists()


def test_sweep_runs_cartesian_product(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--sizes", "60x4", "--k-intra", "6",
                   "--r-list", "1,4", "--strategies", "MAS,RO",
                   "--repeats", "3", "--budget", "40", "--seed", "2",
                   "--purity-window", "30", "--out", out) == 0
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert len(rows) == 2 * 2 * 3
    mas4 = [float(r["max_window_purity"]) for r in rows
            if r["strategy"] == "MAS" and float(r["r"]) == 4.0]
    ro4 = [float(r["max_window_purity"]) for r in rows
           if r["strategy"] == "RO" and float(r["r"]) == 4.0]
    assert np.mean(mas4) > np.mean(ro4)


def test_sweep_writes_cell_dirs_by_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--sizes", "50x2", "--k-intra", "5",
                   "--r-list", "2", "--strategies", "MAS", "--repeats", "2",
                   "--budget", "20", "--seed", "4", "--out", out) == 0
    assert (out / "r2_rep0_MAS" / "trace.csv").exists()
    assert (out / "r2_rep1_MAS" / "discovered.tsv").exists()


def test_sweep_twelve_cells_make_twelve_run_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--sizes", "40x4", "--k-intra", "4",
                   "--r-list", "1,4", "--strategies", "MAS,RO",
                   "--repeats", "3", "--budget", "15", "--seed", "6",
                   "--out", out) == 0
    run_dirs = [d for d in out.iterdir() if d.is_dir()]
    assert len(run_dirs) == 12


@pytest.mark.parametrize("strategies,r_list,cell", [
    ("MAS,RO,MAS", "4", "r4_rep0_MAS"),
    ("RO", "4,4.0", "r4_rep0_RO"),
    ("RO", "0.1,0.1000001", "r0.1_rep0_RO"),
])
def test_sweep_refuses_cells_that_share_a_run_directory(tmp_path, capsys, strategies,
                                                        r_list, cell):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--sizes", "30x2", "--r-list", r_list, "--strategies", strategies,
                   "--repeats", "1", "--budget", "5", "--out", out) == 2
    assert f"two sweep cells are named '{cell}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option,value", [
    ("--purity-window", "0"),
    ("--r-list", "4,nan"),        # the r=4 cells are valid and come first
    ("--r-list", "4,0.01"),       # r=0.01: an off-block probability over 1 at these sizes
    ("--budget", "0"),
    ("--repeats", "-2"),
    ("--seeds-per-block", "1,1"),
    ("--seeds-per-block", "31x3"),
    ("--seeds-per-block", "0,0,0"),
    ("--k-intra", "30"),
    ("--sizes", "1000000000000000000000000000000x2"),   # node pairs beyond int64
    ("--strategies", "MAS,BFS"),
])
def test_sweep_checks_its_configuration_before_writing(tmp_path, capsys, option, value):
    argv = {"--sizes": "30x3", "--r-list": "2", "--budget": "20", "--repeats": "1",
            "--strategies": "MAS", option: value}
    out = tmp_path / "sweep"
    assert run_cli("sweep", *(x for item in argv.items() for x in item), "--out", out) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,expected", [
    (["--strategy", "BFS", "--budget", "5"], 2),
    (["--budget", "0"], 2),
    (["--budget", "5", "--seeds", "no-such-node"], 3),
    (["--target-size", "0"], 2),
    (["--target-size", "1"], 2),   # the one seed already meets it
])
def test_a_refused_sample_makes_no_run_directory(small_run, tmp_path, argv, expected):
    out = tmp_path / "run"
    assert run_cli("sample", "--undirected", small_run.parent / "net" / "edges.tsv",
                   "--seeds", "0", *argv, "--out", out) == expected
    assert not out.exists()
    assert run_cli("sample", "--from-manifest", tmp_path / "nope.json", "--out", out) == 3
    assert not out.exists()


@pytest.fixture(scope="module")
def kept_cells(tmp_path_factory):
    """The kept MAS and RO cells of a sweep on 4x50 nodes, 4 seeds and 60 steps each; the
    sweep keeps a random-pick RS_DW cell beside them."""
    base = tmp_path_factory.mktemp("cells")
    assert run_cli("sweep", "--sizes", "50x4", "--r-list", "4", "--strategies", "MAS,RO,RS_DW",
                   "--repeats", "1", "--budget", "60", "--out", base / "sweep") == 0
    assert run_cli("gen-sbm", "--sizes", "50x4", "--out", base / "net") == 0  # labels only
    return [base / "sweep" / f"r4_rep0_{s}" for s in ("MAS", "RO")]


def test_kept_sweep_cell_is_a_whole_run_directory(kept_cells, small_run):
    cell = kept_cells[0]
    assert sorted(p.name for p in cell.iterdir()) == sorted(
        ("trace.csv", "discovered.tsv", "access_log.csv", "manifest.json", "run_summary.json"))
    manifest = json.loads((cell / "manifest.json").read_text())
    assert manifest["strategy"] == "MAS" and manifest["weights"] == "unit"
    assert list(manifest) == list(json.loads((small_run / "manifest.json").read_text()))
    assert manifest["target_size"] is None and manifest["inputs"] == {}
    model = manifest["oracle"]
    assert model["kind"] == "blockmodel" and model["sizes"] == [50] * 4
    assert re.fullmatch("[0-9a-f]{64}", model["edges_sha256"]) and "blockmodel" not in manifest
    assert len(manifest["seeds"]) == 4 and all(isinstance(s, int) for s in manifest["seeds"])
    queried = [row[1] for _lineno, row in list(read_csv(cell / "access_log.csv", "log"))[1:]]
    selected = [row[1] for _lineno, row in list(read_csv(cell / "trace.csv", "trace"))[1:]]
    assert queried == [str(s) for s in manifest["seeds"]] + selected
    summary = json.loads((cell / "run_summary.json").read_text())
    assert summary["insiders"] == 64 and summary["stop_reason"] == "budget"


def test_a_sweep_shorter_than_its_purity_window_reports_the_whole_sequence(kept_cells):
    # 60 steps under the default 180-step window: the window shrinks to the run's length
    with open(kept_cells[0].parent / "sweep.csv") as fh:
        purity = {row["strategy"]: float(row["max_window_purity"]) for row in csv.DictReader(fh)}
    for cell in kept_cells:
        strategy = json.loads((cell / "manifest.json").read_text())["strategy"]
        with open(cell / "trace.csv") as fh:
            blocks = [int(row["node_ext_id"]) // 50 for row in csv.DictReader(fh)]  # 4x50 nodes
        assert len(blocks) == 60
        assert purity[strategy] == max(blocks.count(b) for b in blocks) / 60 > 0


def test_metrics_over_kept_sweep_cells_counts_the_seeds(kept_cells, tmp_path):
    out = tmp_path / "eval"
    assert run_cli("metrics", *kept_cells, "--labels",
                   kept_cells[0].parent.parent / "net" / "labels.csv", "--out", out) == 0
    rows = list(csv.DictReader(open(out / "comparison.csv")))
    assert [r["strategy"] for r in rows] == ["MAS", "RO"]
    assert all(int(r["common_size"]) == 64 and int(r["n"]) == 64 for r in rows)  # 4 + 60
    evolution = list(csv.DictReader(open(out / "evolution_r4_rep0_MAS.csv")))
    assert sum(int(r["count"]) for r in evolution if r["timestep"] == "0") == 4


@pytest.mark.parametrize("strategy", ["MAS", "RO", "RS_DW"])
def test_replay_of_a_kept_sweep_cell_reproduces_its_files(kept_cells, tmp_path, strategy):
    # RO and RS_DW draw from the manifest's rng_seed; RS_DW's draws are weighted picks
    cell, out = kept_cells[0].parent / f"r4_rep0_{strategy}", tmp_path / "replay"
    assert run_cli("sample", "--from-manifest", cell / "manifest.json", "--out", out) == 0
    for name in ("trace.csv", "discovered.tsv", "access_log.csv", "run_summary.json"):
        assert (out / name).read_bytes() == (cell / name).read_bytes(), name


def _edited_cell_manifest(kept_cells, tmp_path, key, value) -> Path:
    """A copy of the kept MAS cell's manifest whose oracle descriptor has ``key`` = ``value``."""
    manifest = json.loads((kept_cells[0] / "manifest.json").read_text())
    manifest["oracle"][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


# (blockmodel field, a bad value): a wrong JSON type, or a model the generator refuses
BAD_BLOCKMODEL_FIELDS = [
    ("sizes", "50x4"), ("sizes", [50, 50.5, 50, 50]), ("sizes", [50, "50", 50, 50]),
    ("sizes", [50, True, 50, 50]), ("sizes", [1, 50, 50, 50]), ("sizes", []),
    ("k_intra", "10"), ("k_intra", None), ("k_intra", 50), ("k_intra", 0),
    ("r", None), ("r", 0), ("r", -4), ("r", float("nan")), ("r", 10 ** 400),
    ("sizes", [10 ** 400, 50, 50, 50]),   # integers that no float holds
    ("graph_seed", 2.5), ("graph_seed", "0"), ("graph_seed", None), ("edges_sha256", 5),
]
# blocks with more node pairs than int64 holds, named apart: the first 20 characters of
# the JSON of 10 ** 30 are those of 10 ** 400
BEYOND_INT64_SIZES = {"sizes=10**30x2": [10 ** 30] * 2, "sizes=2**40x2": [2 ** 40] * 2}


@pytest.mark.parametrize(
    "key,value", BAD_BLOCKMODEL_FIELDS + [("sizes", v) for v in BEYOND_INT64_SIZES.values()],
    ids=[f"{k}={json.dumps(v)[:20]}" for k, v in BAD_BLOCKMODEL_FIELDS] + [*BEYOND_INT64_SIZES])
def test_replay_refuses_a_bad_blockmodel_field(kept_cells, tmp_path, key, value):
    path = _edited_cell_manifest(kept_cells, tmp_path, key, value)
    code, err = run_cli_process("sample", "--from-manifest", path, "--out", tmp_path / "out")
    assert code == 3, err
    assert "Traceback" not in err
    assert f"{path}: manifest oracle" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("edges_sha256", "0" * 64), ("r", 4.5),
                                       ("graph_seed", 1)])
def test_replay_refuses_a_blockmodel_that_generates_another_graph(kept_cells, tmp_path,
                                                                   key, value):
    # a valid model whose edges are not the recorded ones, as after a generator change
    path = _edited_cell_manifest(kept_cells, tmp_path, key, value)
    code, err = run_cli_process("sample", "--from-manifest", path, "--out", tmp_path / "out")
    assert code == 3, err
    assert "Traceback" not in err
    assert f"{path}: manifest oracle.edges_sha256 differs" in err, err
    assert not (tmp_path / "out").exists()


def test_sweep_json_format(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--sizes", "50x2", "--k-intra", "5",
                   "--r-list", "2", "--strategies", "RO", "--repeats", "1",
                   "--budget", "10", "--seed", "4", "--no-keep-runs",
                   "--format", "json", "--out", out) == 0
    rows = json.loads((out / "sweep.json").read_text())
    assert len(rows) == 1 and rows[0]["strategy"] == "RO"


def test_sweep_of_no_cells_writes_the_header_line(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--sizes", "30x2", "--r-list", "2", "--repeats", "0",
                   "--budget", "5", "--out", out) == 0
    assert (out / "sweep.csv").read_bytes() == (
        b"r,strategy,repeat,run_seed,steps,insiders,final_boundary,max_window_purity\r\n")


def test_metrics_json_format(net_dir, tmp_path):
    run_cli("sample", "--undirected", net_dir / "edges.tsv",
            "--seeds", seed_args(net_dir), "--strategy", "MAS",
            "--budget", "30", "--seed", "5", "--out", tmp_path / "run")
    out = tmp_path / "eval"
    assert run_cli("metrics", tmp_path / "run", "--format", "json",
                   "--out", out) == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert rows[0]["strategy"] == "MAS"


def test_sample_random_tie_break_recorded_and_reproducible(net_dir, tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    run_cli("sample", "--undirected", net_dir / "edges.tsv",
            "--seeds", seed_args(net_dir), "--strategy", "MAS",
            "--budget", "40", "--seed", "9", "--tie-break", "random",
            "--out", out1)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["tie_break"] == "random"
    assert run_cli("sample", "--from-manifest", out1 / "manifest.json",
                   "--out", out2) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_sweep_bad_worker_env_exits_2(tmp_path, monkeypatch, capsys):
    for value, message in (("zero", "must be an integer"), ("0", "must be >= 1")):
        monkeypatch.setenv(cli.WORKERS_ENV, value)
        assert run_cli("sweep", "--sizes", "50x2", "--r-list", "1",
                       "--budget", "5", "--out", tmp_path / "s") == 2
        assert f"{cli.WORKERS_ENV} {message}" in capsys.readouterr().err


def test_a_blockmodel_build_is_handed_the_only_reference_to_its_edges(kept_cells, tmp_path,
                                                                      monkeypatch):
    # so the build can free the generated edges once it has read them: a sweep cell
    # and the replay of one
    generated, alive = [], []
    generate, build = sbm.generate, GraphOracle.__init__

    def spy_generate(*args):
        edges, labels = generate(*args)
        generated.append(weakref.ref(edges))
        return edges, labels

    def spy_build(self, *args, **kwargs):
        alive.append(generated[-1]() is not None)
        build(self, *args, **kwargs)

    monkeypatch.setattr(sbm, "generate", spy_generate)
    monkeypatch.setattr(GraphOracle, "__init__", spy_build)
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    assert run_cli("sweep", "--sizes", "50x2", "--r-list", "4", "--strategies", "RS_DU",
                   "--repeats", "1", "--budget", "5", "--out", tmp_path / "s") == 0
    assert run_cli("sample", "--from-manifest", kept_cells[0] / "manifest.json",
                   "--out", tmp_path / "replay") == 0
    assert alive == [False, False]


def test_sample_events_backing_with_calibrated_weights(tmp_path, monkeypatch):
    rng = np.random.default_rng(91)
    corpus = ingest.synthetic_corpus(rng, n_authors=6, n_interactors=80,
                                     n_tweets=100, n_events=600)
    events_path = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(events_path, corpus)
    cal = tmp_path / "cal"
    assert run_cli("calibrate", events_path, "--scheme", "nested",
                   "--out", cal) == 0
    seeds = ",".join(sorted({corpus.users[a] for a in corpus.author.tolist()})[:3])
    out1 = tmp_path / "run1"
    assert run_cli("sample", "--events", events_path, "--seeds", seeds,
                   "--strategy", "MAS", "--weights",
                   cal / "weights_nested.csv", "--budget", "40",
                   "--seed", "2", "--out", out1) == 0
    # replay from a different working directory
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    out2 = tmp_path / "run2"
    assert run_cli("sample", "--from-manifest", out1 / "manifest.json",
                   "--out", out2) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_metrics_reads_back_event_runs_whose_ids_hold_commas_and_quotes(tmp_path):
    rng = np.random.default_rng(17)
    corpus = ingest.synthetic_corpus(rng, n_authors=4, n_interactors=40,
                                     n_tweets=50, n_events=300)
    odd = {u: f'{u},"{u}"' for u in corpus.users}   # each id holds a comma and quotes
    corpus = dataclasses.replace(corpus, users=[odd[u] for u in corpus.users])
    events_path, seeds_path = tmp_path / "events.jsonl", tmp_path / "seeds.txt"
    ingest.write_events_jsonl(events_path, corpus)
    seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})[:2]
    seeds_path.write_text("".join(f"{s}\n" for s in seeds))
    labels = tmp_path / "labels.csv"
    graph.write_labels_csv(labels, {u: i % 3 for i, u in enumerate(odd.values())})
    for strategy in ("MAS", "RO"):
        assert run_cli("sample", "--events", events_path, "--seeds-file", seeds_path,
                       "--strategy", strategy, "--budget", "20",
                       "--out", tmp_path / strategy) == 0
        run = tmp_path / strategy
        trace_ids = IdMap()
        trace = sampler.SampleTrace.read_csv(run / "trace.csv", trace_ids, strategy, (), 0.0)
        assert len(trace) == 20
        assert {trace_ids.external(v) for v in trace.selected()} <= set(odd.values())
        log = [row for _lineno, row in read_csv(run / "access_log.csv", "access log")]
        assert log[1:] == [[str(step), s] for step, s in
                           enumerate(seeds + [trace_ids.external(v) for v in trace.selected()], 1)]
        _g, edge_ids = graph.read_edge_tsv(run / "discovered.tsv")
        assert set(seeds) <= {edge_ids.external(v) for v in range(len(edge_ids))}
    out = tmp_path / "eval"
    assert run_cli("metrics", tmp_path / "MAS", tmp_path / "RO", "--labels", labels,
                   "--out", out) == 0
    comparison = list(csv.DictReader(open(out / "comparison.csv", newline="")))
    assert [r["strategy"] for r in comparison] == ["MAS", "RO"]
    evolution = list(csv.DictReader(open(out / "evolution_MAS.csv", newline="")))
    assert {int(r["timestep"]) for r in evolution} == set(range(21))


@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_an_event_id_with_a_tab_or_line_break_is_a_malformed_row(tmp_path, char):
    rows = [{"tweet_id": f"t{i}", "author": f"a{i % 3}", "interactor": f"u{i % 40}",
             "types": ["like"]} for i in range(200)]
    rows.insert(50, {"tweet_id": "t1", "author": "a1", "interactor": f"b{char}x",
                     "types": ["like"]})
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    events, report = ingest.parse_events_with_report(events_path)
    assert (report.rows, report.malformed) == (201, 1)
    assert report.samples == [f"{events_path}:51: id with a tab or line break"]
    assert f"b{char}x" not in events.users
    run = tmp_path / "run"
    assert run_cli("sample", "--events", events_path, "--seeds", "a0,a1,a2",
                   "--budget", "3", "--out", run) == 0
    assert run_cli("metrics", run, "--out", tmp_path / "eval") == 0


def test_calibrate_fixture_corpus(tmp_path):
    rng = np.random.default_rng(31)
    corpus = ingest.synthetic_corpus(rng, n_events=400)
    events_path = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(events_path, corpus)
    out = tmp_path / "cal"
    assert run_cli("calibrate", events_path, "--scheme", "distinct",
                   "--out", out) == 0
    loaded = read_weight_csv(out / "weights_distinct.csv")["distinct"]
    expected = calibrate_records(corpus, Scheme.DISTINCT)
    for x, star in expected.eta_star.values.items():
        assert loaded.eta_star.values[x] == pytest.approx(star, rel=1e-4)
    summary = json.loads((out / "calibration_summary.json").read_text())
    assert summary["events"] == len(corpus)


def test_calibrate_af_gives_seven_patterns(tmp_path):
    rng = np.random.default_rng(77)
    corpus = ingest.synthetic_corpus(rng, n_events=800)
    events_path = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(events_path, corpus)
    out = tmp_path / "cal"
    assert run_cli("calibrate", events_path, "--scheme", "af", "--out", out) == 0
    loaded = read_weight_csv(out / "weights_af.csv")["af"]
    assert len(loaded.eta_star.values) == 7


def test_gen_sbm_one_block_prints_no_warning(tmp_path):
    # a one-block model has no off-diagonal block pair to divide by n - n_i for
    code, err = run_cli_process("gen-sbm", "--sizes", "30x1", "--k-intra", "4",
                                "--out", tmp_path / "net")
    assert code == 0
    assert err == ""


def test_gen_sbm_refuses_a_block_beyond_int64(tmp_path):
    # generate draws a block's node pairs as int64 indices
    size = 10 ** 30
    code, err = run_cli_process("gen-sbm", "--sizes", f"{size}x2", "--out", tmp_path / "net")
    assert code == 2, err
    assert "Traceback" not in err
    assert f"block size {size} " in err, err
    assert not (tmp_path / "net").exists()


@pytest.mark.parametrize("option", ["--k-intra", "--r"])
def test_gen_sbm_nan_parameter_exits_2(tmp_path, option):
    code, err = run_cli_process("gen-sbm", "--sizes", "30x2", option, "nan",
                                "--out", tmp_path / "net")
    assert code == 2, err
    assert "Traceback" not in err
    assert "must be positive" in err


def test_calibrate_trim_out_of_range_exits_2(tmp_path):
    events_path = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(events_path,
                              ingest.synthetic_corpus(np.random.default_rng(3), n_events=50))
    for trim in ("0", "nan", "1.5"):
        code, err = run_cli_process("calibrate", events_path, "--trim", trim,
                                    "--out", tmp_path / "cal")
        assert code == 2, (trim, err)
        assert "Traceback" not in err
        assert "trim_quantile" in err, err


@pytest.mark.parametrize("lines,messages", [
    (["{bad", "{worse"], ["1: not a JSON object"]),
    (["[1, 2]", "5", '{"tweet_id": "t"}'],
     ["1: not a JSON object", "2: not a JSON object", "3: missing field author"]),
    (['{"tweet_id": "t", "author": "a", "interactor": "u", "types": ["boost"]}'],
     ["1: unknown interaction type 'boost'"]),
], ids=["not-json", "not-an-object", "unknown-type"])
def test_calibrate_names_the_line_of_a_bad_row(tmp_path, lines, messages):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(f"{line}\n" for line in lines))
    code, err = run_cli_process("calibrate", bad, "--out", tmp_path / "cal")
    assert code == 3, err
    assert "Traceback" not in err
    assert all(f"{bad}:{message}" in err for message in messages), err


def test_calibrate_empty_corpus_exits_2(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run_cli("calibrate", empty, "--out", tmp_path / "cal") == 2


@pytest.mark.parametrize("option,value,expected", [("--scheme", "bogus", 2),
                                                   ("--seeds-file", "missing.txt", 3)])
def test_calibrate_checks_its_arguments_before_reading_the_log(
        tmp_path, monkeypatch, capsys, option, value, expected):
    def parse_events(*args, **kwargs):
        raise AssertionError("the event log was read")

    log = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(log, ingest.synthetic_corpus(np.random.default_rng(3), n_events=50))
    monkeypatch.setattr(ingest, "parse_events", parse_events)
    arg = value if option == "--scheme" else tmp_path / value
    assert run_cli("calibrate", log, option, arg, "--out", tmp_path / "cal") == expected
    assert value in capsys.readouterr().err


def test_events_mas_run_on_a_nan_weight_table_exits_3(tmp_path):
    corpus = ingest.synthetic_corpus(np.random.default_rng(91), n_events=600)
    log = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(log, corpus)
    assert run_cli("calibrate", log, "--out", tmp_path / "cal") == 0
    rows = list(csv.reader((tmp_path / "cal" / "weights_distinct.csv").read_text().splitlines()))
    rows[1][-1] = "nan"   # the omega_star of the first pattern
    weights = tmp_path / "weights.csv"
    with open(weights, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code, err = run_cli_process("sample", "--events", log, "--seeds", corpus.users[corpus.author[0]],
                                "--strategy", "MAS", "--weights", weights, "--budget", "20",
                                "--out", tmp_path / "run")
    assert code == 3, err
    assert "Traceback" not in err
    assert f"{weights}:2: omega_star" in err, err


def test_events_run_on_weights_that_sum_past_the_float_range_exits_3(tmp_path):
    # each omega_star is finite, but the edges' total weight is not: the run would print
    # inf and nan priorities and boundaries, and Infinity and NaN into run_summary.json
    corpus = ingest.synthetic_corpus(np.random.default_rng(91), n_events=600)
    log = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(log, corpus)
    assert run_cli("calibrate", log, "--out", tmp_path / "cal") == 0
    rows = list(csv.reader((tmp_path / "cal" / "weights_distinct.csv").read_text().splitlines()))
    for row in rows[1:]:
        row[-1] = "1e308"
    weights = tmp_path / "weights.csv"
    with open(weights, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    run = tmp_path / "run"
    code, err = run_cli_process("sample", "--events", log, "--seeds", corpus.users[corpus.author[0]],
                                "--strategy", "MAS", "--weights", weights, "--budget", "50",
                                "--out", run)
    assert code == 3, err
    assert "Traceback" not in err
    assert f"{weights}: the edges' total weight is inf" in err, err
    assert not run.exists()


def test_calibrate_twelve_event_fixture_matches_hand_computation(tmp_path):
    """Small corpus checked against an independent dict-based computation."""
    rows = []
    fixture = [
        ("t1", "a1", "u1", ["like"]),
        ("t1", "a1", "u2", ["like", "retweet"]),
        ("t2", "a1", "u3", ["reply"]),
        ("t2", "a1", "u1", ["like"]),
        ("t3", "a2", "u2", ["quote"]),
        ("t3", "a2", "u4", ["like"]),
        ("t4", "a2", "u5", ["like", "reply"]),
        ("t5", "a2", "u1", ["retweet"]),
        ("t6", "a3", "u2", ["like"]),
        ("t6", "a3", "u6", ["like", "retweet", "reply"]),
        ("t7", "a3", "u4", ["like"]),
        ("t8", "a3", "u1", ["quote", "retweet"]),
    ]
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        for tweet, author, interactor, types in fixture:
            fh.write(json.dumps({"tweet_id": tweet, "author": author,
                                 "interactor": interactor, "types": types}) + "\n")
    out = tmp_path / "cal"
    assert run_cli("calibrate", path, "--scheme", "distinct", "--out", out) == 0
    loaded = read_weight_csv(out / "weights_distinct.csv")["distinct"]

    # independent recomputation from the raw fixture
    bit = {"like": 8, "retweet": 4, "reply": 2, "quote": 1}
    events = [(a, j, sum(bit[t] for t in ts)) for _t, a, j, ts in fixture]
    n = len(events)
    patterns = sorted({p for _a, _j, p in events})
    eta = {x: 100 * sum(p == x for _a, _j, p in events) / n for x in patterns}
    authors = sorted({a for a, _j, _p in events})
    eta_src = {x: 100 * np.mean([
        sum(p == x for a2, _j, p in events if a2 == a)
        / sum(a2 == a for a2, _j, _p in events) for a in authors])
        for x in patterns}
    users = sorted({j for _a, j, _p in events})
    eta_tgt = {x: 100 * np.mean([
        sum(p == x for _a, j2, p in events if j2 == j)
        / sum(j2 == j for _a, j2, _p in events) for j in users])
        for x in patterns}
    for x in patterns:
        star = (eta[x] + eta_src[x] + eta_tgt[x]) / 3
        assert loaded.eta_star.values[x] == pytest.approx(star, rel=1e-4), x


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == tightsample.__version__


def test_package_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 (allowed by requires-python) lacks it
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE).group(1)
    assert tightsample.__version__ == declared
