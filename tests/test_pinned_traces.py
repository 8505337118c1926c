"""Pinned sha256 digests of the three run outputs, per strategy and tie-break.

A change to the sampler's bookkeeping must not move a single pick, so every
strategy, both tie-breaks, is pinned on a small blockmodel, plus weighted
runs on a synthetic engagement corpus, plus CLI runs that parse that corpus
from a JSONL log. ``gen-sbm``'s own outputs are pinned too, and so are
``calibrate``'s weight table and summary for every scheme. The generated
graph and corpus come from numpy's random generators, so these digests only
change when the inputs do (e.g. another numpy version), not when the
generator, the sampler, the parse, the calibration or the oracle is
refactored.
"""

import hashlib
import json

import numpy as np
import pytest

from reference import event_rows, make_sbm_oracle
from tightsample import cli, sampler
from tightsample import interactions as ia
from tightsample.ingest import EventTable, synthetic_corpus
from tightsample.oracle import GraphOracle

RUN_FILES = ("trace.csv", "discovered.tsv", "access_log.csv")

# (strategy, tie_break) -> digests of RUN_FILES, in that order
SBM_PINNED = {
    ("MAS", "ordered"): (
        "0c7cec72155fded99b395c3270ee1ad97ed427a347c98f8ce7da376c830ab136",
        "aebe27b2381d9650bfc2401a294e207fbb66d7a03214202c55452f13cb413302",
        "e1f4d7757b0f1851989ce3c722460de2e3271ca217cd0393982ed3392462cb65",
    ),
    ("MAS", "random"): (
        "35aed7b2f93b94a749689d62f95eeb507f5ade0f69ca1097ffccea1892a8699b",
        "a492c9e21b76601f68089668b62ec2abb0017c896792ff3ee6614722c1f67b31",
        "0e386f20cd802e7a5af76a033dc2eb26cfebd9e9da9994634c274f4ed7c2f7c6",
    ),
    ("RI_MAS", "ordered"): (
        "56d3df02f778e44bbd91c426d38c204363e9851a7831ea0c6283f7a2ec3e4811",
        "ecf9a447f3ed16d95634dab65eaf8abedf68ff09bdf54b9ece9fc9f9838b363a",
        "11e76c47047614bb67a31210f3397f8e7a39adc60dc2492c1da1ce0ae44eb16a",
    ),
    ("RI_MAS", "random"): (
        "49c4968895e4908fa476e3976b7d06d3d25cec06ab1a05bd08a7992ad4398d5d",
        "816a3f6213a0d3bee83cafe50fd20ff476572d17219269dfea4ebfffa3a3d070",
        "574ee925c5da90332d6c8f0e5f42b71d1cf0a08e1d8052a0efb938b3eb795a4d",
    ),
    ("RO", "ordered"): (
        "c70ea88581ccaf0ea18e7edf8cfd4cb22ba1c22043629be47b1aaf6f05d1a1eb",
        "76085e64204df71aea6999729f295f4f9ae1c1bdf1eae2f50c7d381efc1abe69",
        "62022d7bd58514de6cdae009182fd2211598bc542b20cca6a6ca4fbef2b58f64",
    ),
    ("RO", "random"): (
        "c70ea88581ccaf0ea18e7edf8cfd4cb22ba1c22043629be47b1aaf6f05d1a1eb",
        "76085e64204df71aea6999729f295f4f9ae1c1bdf1eae2f50c7d381efc1abe69",
        "62022d7bd58514de6cdae009182fd2211598bc542b20cca6a6ca4fbef2b58f64",
    ),
    ("RI_RO", "ordered"): (
        "d0f60e3f9705e6dc6676f8fdbb2a0ff47327302c1ed239a5154baf4bdfb35eed",
        "4f81fbc8978e25c1b6d6f3020422b2426a648e073b3a6cf29c5727bcd776152e",
        "5d46dc9ef7d7d13fba7904c211bdadf31875cc40ce7b4f20243df697e2866912",
    ),
    ("RI_RO", "random"): (
        "d0f60e3f9705e6dc6676f8fdbb2a0ff47327302c1ed239a5154baf4bdfb35eed",
        "4f81fbc8978e25c1b6d6f3020422b2426a648e073b3a6cf29c5727bcd776152e",
        "5d46dc9ef7d7d13fba7904c211bdadf31875cc40ce7b4f20243df697e2866912",
    ),
    ("RS_DU", "ordered"): (
        "c70ea88581ccaf0ea18e7edf8cfd4cb22ba1c22043629be47b1aaf6f05d1a1eb",
        "76085e64204df71aea6999729f295f4f9ae1c1bdf1eae2f50c7d381efc1abe69",
        "62022d7bd58514de6cdae009182fd2211598bc542b20cca6a6ca4fbef2b58f64",
    ),
    ("RS_DU", "random"): (
        "c70ea88581ccaf0ea18e7edf8cfd4cb22ba1c22043629be47b1aaf6f05d1a1eb",
        "76085e64204df71aea6999729f295f4f9ae1c1bdf1eae2f50c7d381efc1abe69",
        "62022d7bd58514de6cdae009182fd2211598bc542b20cca6a6ca4fbef2b58f64",
    ),
    ("RS_DW", "ordered"): (
        "dc868f933fbe9e70900ccf77f2eb286765cd20d742f807c3236bb2a3fa03e62d",
        "cf9da9607672fab59059d28ccecf0a2a24894268a837fca02452ea952632eedb",
        "69e5809c4c6a00f13af791f7fb5e4a6dd728627833503cf418bee4478bc31f68",
    ),
    ("RS_DW", "random"): (
        "dc868f933fbe9e70900ccf77f2eb286765cd20d742f807c3236bb2a3fa03e62d",
        "cf9da9607672fab59059d28ccecf0a2a24894268a837fca02452ea952632eedb",
        "69e5809c4c6a00f13af791f7fb5e4a6dd728627833503cf418bee4478bc31f68",
    ),
    ("RS_SU", "ordered"): (
        "d0f60e3f9705e6dc6676f8fdbb2a0ff47327302c1ed239a5154baf4bdfb35eed",
        "4f81fbc8978e25c1b6d6f3020422b2426a648e073b3a6cf29c5727bcd776152e",
        "5d46dc9ef7d7d13fba7904c211bdadf31875cc40ce7b4f20243df697e2866912",
    ),
    ("RS_SU", "random"): (
        "d0f60e3f9705e6dc6676f8fdbb2a0ff47327302c1ed239a5154baf4bdfb35eed",
        "4f81fbc8978e25c1b6d6f3020422b2426a648e073b3a6cf29c5727bcd776152e",
        "5d46dc9ef7d7d13fba7904c211bdadf31875cc40ce7b4f20243df697e2866912",
    ),
    ("RS_SW", "ordered"): (
        "ed58350b1cf332763977e80dcbf05362169142cf6ecbb870c94a2dab82facd52",
        "e14c260d45b79ff0967aac29c5b7c8eeaa84d82fa541031c8c75279b073d487b",
        "67a7d51fe07186d72c2510564ef091d691d4267876f06d67c92f608b3c92e5d5",
    ),
    ("RS_SW", "random"): (
        "ed58350b1cf332763977e80dcbf05362169142cf6ecbb870c94a2dab82facd52",
        "e14c260d45b79ff0967aac29c5b7c8eeaa84d82fa541031c8c75279b073d487b",
        "67a7d51fe07186d72c2510564ef091d691d4267876f06d67c92f608b3c92e5d5",
    ),
}

# (strategy, tie_break) -> digests of RUN_FILES on the weighted corpus
CORPUS_PINNED = {
    ("MAS", "ordered"): (
        "42080f65fc305bb03fcb6317449dd83cfb5d243c6e8b774ab6560fdf83a0b9c4",
        "d9091b299e7904ea23950fdfef30c7531af60c09175308e143ceccc70eb581fc",
        "f5b58320330803c256919c7c90609389f9c66a81ae05da1c0965d72dcab53bc0",
    ),
    ("MAS", "random"): (
        "42080f65fc305bb03fcb6317449dd83cfb5d243c6e8b774ab6560fdf83a0b9c4",
        "d9091b299e7904ea23950fdfef30c7531af60c09175308e143ceccc70eb581fc",
        "f5b58320330803c256919c7c90609389f9c66a81ae05da1c0965d72dcab53bc0",
    ),
    ("RI_MAS", "random"): (
        "cc83ea9d28102145e7f7c7e775035b8afd77f4f344c9a44ebfc54e518398ec3d",
        "f6ce2d87345bf334419d1b6a2fbe8407981e7d01e8e2865ce12ba63920e716ca",
        "d23902e586b69534a5f76ca36fd34e77007c2f176824609050c406e389daeb3c",
    ),
    ("RO", "ordered"): (
        "ac04ef85388159bf27a6b8e0168a9f6cd25f49679f355fccfb68bdfe269dd760",
        "9348dae314a45e3b97016caee6810b00bed2fa807a3e31ac43eb5deed6412b2f",
        "69afad45eca19c9e3c2bd44ebf5dab2d0afa0f18c658d597e6c4d6d6725eae57",
    ),
    ("RS_SW", "ordered"): (
        "0c728795099f4c5e05da12626ff39b74266ce7055627924ae7cff699a2c1350e",
        "f2c2810409d857c2a00e4bf33f912d67eea997c4f5919aeef4da213b5fad87bb",
        "e7e36fa3d9182984c18347d7c58b68e9fa5c15f844e66a509862aa549061dcad",
    ),
}

# (strategy, weights) -> digests of RUN_FILES of a CLI ``sample --events`` run
EVENTS_PINNED = {
    ("MAS", "distinct"): (
        "51b5ee9f2928a421358854a6dce917fc0a3d99098c97030688310b4cb545aa9c",
        "1c62ad86ad8426f7802407ed542c12979d3b0d05a5eebb8bd81de31bafa32d1e",
        "e0d315da5e6f60f8def3f5b8027b5a2159bd9d532e2324170981900541dbc002",
    ),
    ("RO", "distinct"): (
        "fa9063632e7a48e9f460184552dfe4c4f7bea2c150854e785dc73faf569ac619",
        "b5d6fc827a20e1574985308ac15a56312e0e323f8075efeb26f580fb988f9d38",
        "37977665ace4cefa0f10f538902216faf5134f433d8efd079d6f15277d53178d",
    ),
}

# scheme -> digests of weights_<scheme>.csv and of calibration_summary.json without
# its "weight_table" path, from a CLI ``calibrate`` of the split log with a seeds file
CALIBRATE_PINNED = {
    "af": (
        "3a12427a6944aef869c4aa75a149d59796cd20b531f3575384449482795d3a1f",
        "c1e4d3a5eee0156b666eec7a046f92ab3e5f2868d044937d14773fcc8806912c",
    ),
    "af-distinct": (
        "2b2b02fb9f49ae43e9c5998852098c9dea399de6326ac525e2d644152d559d8e",
        "caa0e94480c34d9aee428949d44bc30999ee5f9782cdcd8fe4490d4bf271b878",
    ),
    "distinct": (
        "0bfb13b28b7dbab77f087151a8891b64ac55a35f03ef240cedbf0d408d0e2393",
        "75b9c6d4fa43f0f189f9298d6c70f215d7fe7faa32b2e97b0075ba8b56ba014c",
    ),
    "nested": (
        "d54ede80043ba789e4a298fa6028961e541e47b063aae3b34642140c031eeb39",
        "3f19c088e7e29c8f0d9dec2fc1ae2a2ca41b1c0c336572291dd8fd6faa479c59",
    ),
}

# gen-sbm model options -> digests of edges.tsv and labels.csv; the first model's
# block pairs are all dense (a permutation prefix), the second's all sparse (batches)
GEN_SBM_PINNED = {
    ("--sizes", "30x3", "--k-intra", "20", "--r", "0.3"): (
        "b04e008003fbede98b73b0b6693f653e42f8d05072163ee0341a35cd97cfd9e7",
        "69f8116d3fce92a830e5a77f1367034a6d32dd94a9066fcde4acd18e7d98acd7",
    ),
    ("--sizes", "50x4", "--k-intra", "4", "--r", "2"): (
        "10b9aab986146b226492d054e829ba36b33e941455fd5eced790d08b5b59cb44",
        "edb15216f59ff59d214586afd146129139ed62b1b979c346454cdd8e616ef8ed",
    ),
}


def run_digests(oracle, seeds, weights, strategy, tie_break, steps, tmp_path):
    state = sampler.init(seeds, oracle, weights)
    trace = sampler.run(state, strategy, steps=steps, rng_seed=11, tie_break=tie_break)
    cli._record_run(tmp_path, {}, oracle, state, trace)   # as a sample run records it
    return tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in RUN_FILES)


def sbm_digests(strategy, tie_break, tmp_path):
    oracle, seeds, _labels, _edges = make_sbm_oracle((60,) * 4, 6, 4.0, graph_seed=17,
                                                     seed_rng=5)
    return run_digests(oracle, seeds, None, strategy, tie_break, 200, tmp_path)


def graph_corpus():
    # interactors renamed into the authors' id space, so engagement forms a graph
    corpus = synthetic_corpus(np.random.default_rng(9), n_authors=60, n_interactors=60,
                              n_tweets=300, n_events=1500)
    return EventTable.from_rows((t, a, "a" + j[1:], p) for t, a, j, p in event_rows(corpus))


def write_split_log(corpus, path):
    """Write ``corpus`` as a JSONL log of one row per interaction type, shuffled.

    Every row after a pair's first names another author, which the parse must
    ignore, and the log also holds a self-engagement, a malformed line and a
    blank line, which it must drop.
    """
    rows = [(e, name) for e in event_rows(corpus) for name in ia.pattern_types(e[3])]
    seen = set()
    lines = []
    for i in np.random.default_rng(3).permutation(len(rows)).tolist():
        (tweet, author, interactor, _pattern), name = rows[i]
        if (tweet, interactor) in seen:
            author = "x" + author
        seen.add((tweet, interactor))
        lines.append(json.dumps({"tweet_id": tweet, "author": author,
                                 "interactor": interactor, "types": [name]}))
    lines[10:10] = ['{"tweet_id": "t0", "author": "a1", "interactor": "a1", "types": "like"}',
                    "{not json", ""]
    path.write_text("\n".join(lines) + "\n")


def calibrate_digests(scheme, tmp_path):
    corpus = graph_corpus()
    log, seeds, out = tmp_path / "events.jsonl", tmp_path / "seeds.txt", tmp_path / "cal"
    write_split_log(corpus, log)
    authors = sorted({corpus.users[a] for a in corpus.author.tolist()})
    # a seed that authored nothing, and a repeated one
    seeds.write_text("\n".join([*authors[:30], "ghost", authors[0]]) + "\n")
    assert cli.main(["calibrate", str(log), "--scheme", scheme, "--seeds-file", str(seeds),
                     "--trim", "0.8", "--out", str(out)]) == 0
    summary = json.loads((out / "calibration_summary.json").read_text())
    del summary["weight_table"]
    return (hashlib.sha256((out / f"weights_{scheme}.csv").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(summary, indent=2).encode()).hexdigest())


def corpus_digests(strategy, tie_break, tmp_path):
    corpus = graph_corpus()
    oracle = GraphOracle.from_events(corpus)
    seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})[:3]
    weights = ia.load_reference_tables()["distinct"].weights
    return run_digests(oracle, seeds, weights, strategy, tie_break, 50, tmp_path)


@pytest.mark.parametrize("strategy,tie_break", sorted(SBM_PINNED))
def test_sbm_traces_pinned(strategy, tie_break, tmp_path):
    assert sbm_digests(strategy, tie_break, tmp_path) == SBM_PINNED[strategy, tie_break]


@pytest.mark.parametrize("strategy,tie_break", sorted(CORPUS_PINNED))
def test_weighted_corpus_traces_pinned(strategy, tie_break, tmp_path):
    assert corpus_digests(strategy, tie_break, tmp_path) == \
        CORPUS_PINNED[strategy, tie_break]


@pytest.mark.parametrize("strategy,weights", sorted(EVENTS_PINNED))
def test_cli_events_log_traces_pinned(strategy, weights, tmp_path):
    corpus = graph_corpus()
    log = tmp_path / "events.jsonl"
    write_split_log(corpus, log)
    seeds = ",".join(sorted({corpus.users[a] for a in corpus.author.tolist()})[:3])
    out = tmp_path / "run"
    assert cli.main(["sample", "--events", str(log), "--seeds", seeds,
                     "--strategy", strategy, "--weights", weights, "--budget", "50",
                     "--seed", "11", "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in RUN_FILES)
    assert digests == EVENTS_PINNED[strategy, weights]


@pytest.mark.parametrize("model", sorted(GEN_SBM_PINNED))
def test_gen_sbm_outputs_pinned(model, tmp_path):
    assert cli.main(["gen-sbm", *model, "--seed", "7", "--out", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("edges.tsv", "labels.csv"))
    assert digests == GEN_SBM_PINNED[model]


@pytest.mark.parametrize("scheme", sorted(CALIBRATE_PINNED))
def test_cli_calibrate_outputs_pinned(scheme, tmp_path):
    assert calibrate_digests(scheme, tmp_path) == CALIBRATE_PINNED[scheme]


# source -> digests of RUN_FILES and run_summary.json of a CLI ``sample --budget 1``:
# the discovered graph is almost all seed answers
BUDGET1_FILES = RUN_FILES + ("run_summary.json",)
BUDGET1_PINNED = {
    "events": (
        "f6161335dd9dbd31d9cf8843bbae203c79d182e67ad2e30569c24e927ab862e4",
        "cca05b7067468a694c776f53ddf443f2f2e3cc101312a4f1a3a09dc9fa3866ff",
        "a095592e55d7da6ddacce61d1f65439109e990ec79067fbcc0e597158d6e54e6",
        "740947d196517b9c8e11b53c8373c58440ce82bddda4b2f865635a94479c7015",
    ),
    "undirected": (
        "5f02b723ece5bf1292be751cdc7aaff5b92bd65d2024e9d24fb512b8b589be46",
        "db4ed6c9c71bc7707f023bf09010ed56420e3d7d502678e217db81d98e413b41",
        "5377dbde9db27a6a814fa9d86928965f791a4f7b0140e6c3cb71d37ca764b79a",
        "bffa12c0cd6a31de7487567da77d7fdd9fa9142ba6b897b204b6a66c6f74e92f",
    ),
}

# digests of sweep.csv and of one --keep-runs cell's trace.csv and discovered.tsv,
# for a staged strategy, whose frontiers are built from the discovered edges
SWEEP_CELL_PINNED = (
    "bfa89eb29937767ac64cdf3b3869db8ac32ec54988b0eab81cb20eccc86b48f5",
    "a5eddf61e4dc4222ffe906333f321677bb5b637d6dc4b539cc54ecc6a9753e74",
    "7e8c7828047f7b8f74b2ceff88ec39d07a1847ea69feacb255a7944069940fca",
)


@pytest.mark.parametrize("source", sorted(BUDGET1_PINNED))
def test_cli_budget_one_outputs_pinned(source, tmp_path):
    if source == "events":
        corpus = graph_corpus()
        write_split_log(corpus, tmp_path / "events.jsonl")
        seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})[:3]
        args = ["--events", str(tmp_path / "events.jsonl"), "--weights", "distinct"]
    else:
        assert cli.main(["gen-sbm", "--sizes", "30x3", "--k-intra", "6", "--seed", "7",
                         "--out", str(tmp_path / "net")]) == 0
        seeds = ["0", "31", "62"]
        args = ["--undirected", str(tmp_path / "net" / "edges.tsv")]
    out = tmp_path / "run"
    assert cli.main(["sample", *args, "--seeds", ",".join(seeds), "--budget", "1",
                     "--seed", "11", "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in BUDGET1_FILES)
    assert digests == BUDGET1_PINNED[source]


def test_sweep_kept_staged_cell_pinned(tmp_path):
    assert cli.main(["sweep", "--sizes", "40x3", "--k-intra", "5", "--r-list", "2",
                     "--strategies", "RS_SW", "--repeats", "1", "--budget", "60",
                     "--seed", "3", "--keep-runs", "--out", str(tmp_path)]) == 0
    cell = tmp_path / "r2_rep0_RS_SW"
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in
                    (tmp_path / "sweep.csv", cell / "trace.csv", cell / "discovered.tsv"))
    assert digests == SWEEP_CELL_PINNED
