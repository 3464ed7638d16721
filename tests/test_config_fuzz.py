"""A seeded sweep of experiment config documents through ``cli.main``.

Every experiment kind meets every plan of ``PLANS`` and every corpus of
``CORPORA``; the p list, sizes, trials, samples and the other fields
are drawn from a seeded ``random.Random``, and about one document in
six has one field replaced by a near-valid value from ``NEAR_VALID``.
Sizes, trials, ``mc_samples`` and corpus sizes stay small, so every
config's work is bounded by construction.  All documents run in one
child process under an address-space limit, so an input that allocates
in proportion to its value fails there with MemoryError (reported as a
Traceback) instead of exhausting the host.  Every config must exit 0,
2 or 3 with no Traceback; a CSV exists exactly when it exits 0, its
header is the README's, and no row labelled exact holds a non-finite
value.
"""

import csv
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import walshlab

KINDS = ("democracy", "quasigreedy", "partialsum", "khintchine", "almostgreedy",
         "walsh-baseline")
PLANS = ("desk", "paper", {"g": [1]}, {"g": [1, 40]}, {"g": [2, 4, 21]})
CORPORA = (
    None,  # the kind's default
    {"kind": "decay"},
    {"kind": "flat_block"},
    {"kind": "lacunary"},
    {"kind": "indicator"},
    {"kind": "adversarial_walsh", "depth": 3},
    # past paper's 2^10-element first block
    {"kind": "adversarial_walsh", "depth": 11},
    {"kind": "mixed"},
)
P_LISTS = ([2], [2, 4], [3], [1, 4], [4, 6, 8, 10], [2.5, 12])
NEAR_VALID = (
    ("p", [0.5]), ("p", ["nan"]), ("p", []), ("sizes", [0]),
    ("sizes", {"range": [3, 1]}), ("trials", 0), ("mc_samples", 1), ("seed", -1),
    ("n_grid", [-1]), ("max_terms", 0), ("exhaustive", "yes"),
    ("corpus", {"kind": "decay", "count": 0}),
    ("corpus", {"kind": "indicator", "depth": 0}),
    ("corpus", {"kind": "adversarial_walsh", "depth": -1}),
    ("corpus", {"kind": "decay", "alpha": "inf"}),
    ("corpus", {"kind": "nope"}),
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Runs each (kind, config path, out path) of the JSON list argv[1] through
# ``main`` under an address-space cap of what the child has mapped after its
# imports plus 512 MB, and prints one {code, err} per config as a JSON list;
# an exception that escapes ``main`` is reported as its traceback.
_SWEEP = """
import contextlib, io, json, os, resource, sys, traceback, warnings
from walshlab.cli import main
warnings.simplefilter("error")
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (mapped + (512 << 20),) * 2)
results = []
for kind, cfg, out in json.load(open(sys.argv[1])):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["experiment", kind, "--config", cfg, "--out", out])
        except Exception:
            code = None
            traceback.print_exc()
    results.append({"code": code, "err": err.getvalue()})
print(json.dumps(results))
"""


def config_documents(seed):
    """(kind, document) for every kind x plan x corpus, fields drawn by ``seed``."""
    rng = random.Random(seed)
    for kind in KINDS:
        for plan in PLANS:
            for corpus in CORPORA:
                doc = {
                    "plan": plan,
                    "p": rng.choice(P_LISTS),
                    "seed": rng.randrange(1000),
                    "sizes": sorted(rng.sample(range(1, 9), rng.randint(1, 3))),
                    "trials": rng.randint(1, 2),
                    "mc_samples": rng.choice([2, 64, 200]),
                    "n_grid": sorted(rng.sample(range(12), 2)),
                    "max_terms": rng.randint(1, 6),
                    "random_candidates": rng.randint(0, 2),
                    "exhaustive": rng.random() < 0.2,
                }
                if corpus is not None:
                    doc["corpus"] = {**corpus, "count": rng.randint(1, 2),
                                     "terms": rng.randint(1, 8)}
                if rng.random() < 1 / 6:
                    name, value = rng.choice(NEAR_VALID)
                    doc[name] = value
                yield kind, doc


def readme_header():
    return re.search(r"columns are fixed:\n`([^`]+)`", README.read_text()).group(1)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux /proc")
def test_config_sweep_exits_cleanly_with_finite_exact_rows(tmp_path):
    jobs, docs = [], []
    for i, (kind, doc) in enumerate(config_documents(seed=8)):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        jobs.append((kind, str(cfg), str(tmp_path / f"out{i}.csv")))
        docs.append(doc)
    listing = tmp_path / "jobs.json"
    listing.write_text(json.dumps(jobs))
    src = os.path.dirname(os.path.dirname(walshlab.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP, str(listing)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(jobs) == len(KINDS) * len(PLANS) * len(CORPORA)
    header = readme_header()
    failures = []
    for (kind, _, out), doc, r in zip(jobs, docs, results):
        wrote = os.path.exists(out)
        if r["code"] not in (0, 2, 3) or "Traceback" in r["err"] or wrote != (r["code"] == 0):
            failures.append((kind, doc, r))
            continue
        if wrote:
            with open(out, newline="") as fh:
                lines = fh.read().splitlines()
            rows = list(csv.DictReader(lines))
            bad = [row for row in rows
                   if row["exact"] == "true" and not math.isfinite(float(row["value"]))]
            if lines[0] != header or bad:
                failures.append((kind, doc, {"header": lines[0], "non_finite_exact": bad[:3]}))
    assert not failures, json.dumps(failures, indent=1)[:6000]
    # the sweep reaches every exit code
    assert {r["code"] for r in results} == {0, 2, 3}
