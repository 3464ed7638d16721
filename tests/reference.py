"""Drift check: the outputs of a fixed list of experiment calls, compared
between the working tree and a git revision.

    python tests/reference.py --against REV

exports ``src/`` of REV with ``git archive`` into a temporary directory
and runs every call of ``calls()`` through ``walshlab.cli.main`` once
per tree, each tree in one subprocess.  It then compares the CSVs row
by row and the printed summaries less ``out``.  The report gives the
moved rows per experiment and p, exact and sampled apart, the largest
relative move, and the summary fields that changed.  It exits 1, and
lists why, when an exact row moves by more than 1e-12 relative, or a
row count, a cell of the first five columns, an ``exact`` cell, a
``seed`` cell or an exit code changes.  Sampled rows move whenever the
draw changes: they are counted, not flagged.

The call list, all on the ``desk`` plan:

* the op cycles of the three benchmark workloads (``bench/workloads.py``)
  at workload seed 777, 456 calls;
* the four ``ACCEPTANCE_CONFIG``s of ``tests/test_acceptance.py``;
* almostgreedy at p = 2, 3, 4 on a mixed corpus of 3 x 12 (seed 5);
* walsh-baseline on two depth-8 adversarial Walsh functions at p = 2, 3, 4, 6;
* khintchine at p = 2, 2.5, 3, 4, 6, 8, 10, 12 (100 trials, seed 3);
* quasigreedy at p = 2, 3, 4, 6 and partialsum at p = 1.5, 2, 4, 8 on a
  mixed corpus of 5 x 30 (seed 9);
* democracy at p = 1, 3, 4, 10 on sizes 3, 15, 40 (3 trials, seed 4).

pytest does not collect this file; ``tests/test_reference.py`` tests
the comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEED = 777
# an exact value that moves by more than this, relative, is a behaviour change
EXACT_TOL = 1e-12
KEY_COLUMNS = 5  # experiment, plan, p, size_or_m, trial


def calls() -> list[tuple[str, str, dict]]:
    """(name, experiment, config) of every call, in a fixed order."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests"), str(ROOT / "src")]
    from test_acceptance import ACCEPTANCE_CONFIG
    from workloads import WORKLOADS

    out = []
    for workload in WORKLOADS.values():
        for op in workload.schedule(WORKLOAD_SEED):
            for j, call in enumerate(op.calls):
                out.append((f"{workload.name}-{op.slot:03d}-{j}", call.kind, call.config))
    for kind, config in ACCEPTANCE_CONFIG.items():
        out.append((f"acceptance-{kind}", kind, config))
    mixed = {"kind": "mixed", "count": 5, "terms": 30}
    out += [
        ("almostgreedy", "almostgreedy",
         {"plan": "desk", "p": [2, 3, 4], "seed": 5,
          "corpus": {"kind": "mixed", "count": 3, "terms": 12}}),
        ("walsh-baseline", "walsh-baseline",
         {"plan": "desk", "p": [2, 3, 4, 6],
          "corpus": {"kind": "adversarial_walsh", "depth": 8, "count": 2}}),
        ("khintchine", "khintchine",
         {"plan": "desk", "p": [2, 2.5, 3, 4, 6, 8, 10, 12], "trials": 100, "seed": 3}),
        ("quasigreedy", "quasigreedy",
         {"plan": "desk", "p": [2, 3, 4, 6], "seed": 9, "corpus": mixed}),
        ("partialsum", "partialsum",
         {"plan": "desk", "p": [1.5, 2, 4, 8], "seed": 9, "corpus": mixed}),
        ("democracy", "democracy",
         {"plan": "desk", "p": [1, 3, 4, 10], "sizes": [3, 15, 40], "trials": 3, "seed": 4}),
    ]
    return out


def run_calls(argvs_path: str, results_path: str) -> None:
    """Run each (name, argv) of the JSON list through ``walshlab.cli.main``
    and write {name: [exit code, stdout, stderr]} as JSON; stderr also
    goes to this process's stderr."""
    from walshlab.cli import main as cli_main

    results = {}
    for name, argv in json.loads(Path(argvs_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # an escaped exception is an outcome too
                rc = 1
                traceback.print_exc()
        results[name] = [rc, out.getvalue(), err.getvalue()]
        sys.stderr.write(err.getvalue())
    Path(results_path).write_text(json.dumps(results))


def _start(src: Path, work: Path, tree: str, configs: list[tuple[str, str, Path]]):
    """Start one subprocess that runs every call on ``src``; CSVs go to
    ``work / tree``."""
    (work / tree).mkdir()
    argvs = [(name, ["experiment", kind, "--config", str(cfg),
                     "--out", str(work / tree / f"{name}.csv")])
             for name, kind, cfg in configs]
    (work / f"{tree}-argvs.json").write_text(json.dumps(argvs))
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, __file__, "--run", str(work / f"{tree}-argvs.json"),
         str(work / f"{tree}-results.json")], env=env)


def _export(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev``, extracted under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


# -- comparison ------------------------------------------------------------------

class Drift:
    """Moved rows, changed summary fields and flagged changes, summed over calls."""

    def __init__(self):
        self.rows = Counter()  # (experiment, p, exact) -> rows compared
        self.moved = Counter()  # (experiment, p, exact) -> rows moved
        self.largest = {True: 0.0, False: 0.0}  # exact -> largest relative move
        self.fields = Counter()  # (experiment, summary field) -> calls changed
        self.flagged: list[str] = []

    def compare_csv(self, name: str, old: str, new: str) -> None:
        old_rows = list(csv.reader(io.StringIO(old)))
        new_rows = list(csv.reader(io.StringIO(new)))
        if len(old_rows) != len(new_rows):
            self.flagged.append(f"{name}: {len(old_rows) - 1} rows -> {len(new_rows) - 1}")
            return
        header = old_rows[0] if old_rows else []
        at = {column: i for i, column in enumerate(header)}
        for line, (a, b) in enumerate(zip(old_rows[1:], new_rows[1:]), start=2):
            where = f"{name} line {line}"
            for column in header[:KEY_COLUMNS] + ["exact", "seed"]:
                if a[at[column]] != b[at[column]]:
                    self.flagged.append(f"{where}: {column} {a[at[column]]} -> {b[at[column]]}")
            exact = a[at["exact"]] == "true"
            key = (a[at["experiment"]], float(a[at["p"]]), exact)
            self.rows[key] += 1
            move = max(_relative(a[at[c]], b[at[c]]) for c in ("value", "ci_low", "ci_high"))
            if move:
                self.moved[key] += 1
                self.largest[exact] = max(self.largest[exact], move)
                if exact and move > EXACT_TOL:
                    self.flagged.append(f"{where}: exact value moved by {move:.3g}")

    def compare_summary(self, experiment: str, old: dict, new: dict) -> None:
        for field in sorted((old.keys() | new.keys()) - {"out"}):
            a, b = old.get(field), new.get(field)
            if isinstance(a, dict) and isinstance(b, dict):
                changed = [f"{field}[{k}]" for k in sorted(a.keys() | b.keys())
                           if a.get(k) != b.get(k)]
            else:
                changed = [field] if a != b else []
            for label in changed:
                self.fields[experiment, label] += 1

    def compare_call(self, name: str, experiment: str, old: list, new: list) -> None:
        """Compare one call's [exit code, summary text, CSV text] in both trees."""
        if old[0] != new[0]:
            self.flagged.append(f"{name}: exit {old[0]} -> {new[0]}")
        elif old[0] == 0:
            self.compare_summary(experiment, json.loads(old[1]), json.loads(new[1]))
            self.compare_csv(name, old[2], new[2])

    def report(self) -> str:
        lines = []
        for exact in (True, False):
            label = "exact" if exact else "sampled"
            total = sum(n for k, n in self.rows.items() if k[2] == exact)
            moved = sum(n for k, n in self.moved.items() if k[2] == exact)
            lines.append(f"{label} rows moved: {moved} of {total}, largest relative "
                         f"move {self.largest[exact]:.3g}")
            for key in sorted(k for k in self.rows if k[2] == exact):
                if self.moved[key]:
                    lines.append(f"  {key[0]} p={key[1]:g}: {self.moved[key]} of {self.rows[key]}")
        lines.append(f"summary fields changed: {len(self.fields)}")
        for (experiment, field), n in sorted(self.fields.items()):
            lines.append(f"  {experiment} {field}: {n} calls")
        lines.append(f"flagged: {len(self.flagged)}")
        lines += [f"  {problem}" for problem in self.flagged]
        return "\n".join(lines)


def _relative(a: str, b: str) -> float:
    """Relative gap of two CSV number cells; inf when only one is empty."""
    if a == b:
        return 0.0
    if not a or not b:
        return math.inf
    x, y = float(a), float(b)
    return abs(x - y) / max(abs(x), abs(y))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare the working tree with")
    parser.add_argument("--run", nargs=2, metavar=("ARGVS", "RESULTS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        run_calls(*args.run)
        return 0
    if not args.against:
        parser.error("--against REV is required")
    listed = calls()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = []
        for i, (name, kind, config) in enumerate(listed):
            path = work / f"cfg{i:03d}.json"
            path.write_text(json.dumps(config))
            configs.append((name, kind, path))
        procs = [_start(_export(args.against, work), work, "old", configs),
                 _start(ROOT / "src", work, "new", configs)]
        if any(proc.wait() for proc in procs):
            print("a tree's runner failed", file=sys.stderr)
            return 2
        old, new = (json.loads((work / f"{tree}-results.json").read_text())
                    for tree in ("old", "new"))
        drift = Drift()
        for name, kind, _ in configs:
            outcomes = []
            for tree, (rc, stdout, _) in (("old", old[name]), ("new", new[name])):
                text = (work / tree / f"{name}.csv").read_text() if rc == 0 else ""
                outcomes.append([rc, stdout, text])
            drift.compare_call(name, kind, *outcomes)
    print(f"{len(listed)} calls, {args.against} -> working tree")
    print(drift.report())
    return 1 if drift.flagged else 0


if __name__ == "__main__":
    sys.exit(main())
