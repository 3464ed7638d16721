"""walshlab benchmark: a closed-loop caller driving the experiment CLI in process.

    python3 bench/run.py --workload democracy-p4 --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One caller sends the next op only after the previous one
returned, as a researcher's sweep script does.  Set-up makes the op
schedule and its config files from ``--seed`` and runs one warm-up op;
the timed phase then walks the schedule for ``--seconds``; the output
checks run after it.

Times are CPU times scaled to a reference speed of the machine.  An
op's raw time is the CPU time of the calling thread (the program is
single-threaded and waits on nothing but small file writes, which count
as system time).  On a shared host even CPU time swings by a third from
minute to minute with other tenants' load, so a fixed reference kernel
(``reference.py``) runs before every op and each op's CPU time is
divided by the kernel's CPU time around it and multiplied by the
kernel's nominal time.  Latencies are medians and tails of these scaled
op times, throughput is ops per scaled CPU second, and set-up is the
process's CPU time from its start to the first timed op, scaled the
same way: the median of this run's own set-up and eight fresh
processes that only set up.  The raw CPU and wall-clock figures are
recorded on the line before the result.

With ``--trace 0`` the result line carries the end-to-end metrics.
With ``--trace 1`` the run is split in two halves, untraced for
``--seconds / 2`` and then traced over the same ops, and the result
line carries the per-layer metrics and the tracing overhead; the traced
half must write the same CSV bytes as the untraced one.

The last line of standard output is the result JSON; the line before
it records the environment, the tail percentile used and any problems
the checks found.  Exit code 2 means the program could not be found.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# set before numpy loads: the program is single-threaded by design, and
# BLAS pools would only add scheduler noise on a small machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 10


@dataclass
class Record:
    slot: int
    cpu_s: float  # thread CPU time of the op
    wall_s: float
    status: str  # "ok", or why the op failed
    digest: str = ""
    scaled_s: float = 0.0  # cpu_s at the reference speed; set after the phase


class Runner:
    """Executes ops through ``walshlab.cli.main`` and keeps their outputs."""

    def __init__(self, cli, ops, workdir: Path):
        self.cli = cli
        self.ops = ops
        self.argvs = []
        self.paths = []
        for op in ops:
            argvs, paths = [], []
            for j, call in enumerate(op.calls):
                cfg = workdir / f"op{op.slot:03d}-{j}.json"
                out = workdir / f"op{op.slot:03d}-{j}.csv"
                cfg.write_text(json.dumps(call.config))
                argvs.append(["experiment", call.kind, "--config", str(cfg), "--out", str(out)])
                paths.append(out)
            self.argvs.append(argvs)
            self.paths.append(paths)
        # first successful output of each slot: (csv texts, stdout texts)
        self.first: dict[int, tuple[list[str], list[str]]] = {}
        self.first_digest: dict[int, str] = {}

    def run(self, slot: int, on_start=None) -> Record:
        stdouts, err = [], io.StringIO()
        status = "ok"
        if on_start is not None:
            on_start()
        start = time.perf_counter()
        cpu_start = time.thread_time()
        try:
            with contextlib.redirect_stderr(err):
                for argv in self.argvs[slot]:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = self.cli.main(argv)
                    stdouts.append(buf.getvalue())
                    if rc != 0:
                        status = f"exit {rc}: {err.getvalue().strip()}"
                        break
        except SystemExit as exc:
            status = f"exit {exc.code}: {err.getvalue().strip()}"
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            status = f"{type(exc).__name__}: {exc}"
        cpu = time.thread_time() - cpu_start
        rec = Record(slot, cpu, time.perf_counter() - start, status)
        if status == "ok":
            csvs = [p.read_text() for p in self.paths[slot]]
            h = hashlib.sha256()
            for text in csvs + stdouts:
                h.update(text.encode())
                h.update(b"\0")
            rec.digest = h.hexdigest()
            if slot not in self.first:
                self.first[slot] = (csvs, stdouts)
                self.first_digest[slot] = rec.digest
        return rec


def timed_phase(runner: Runner, seconds: float, min_ops: int, on_start=None):
    """Closed loop over the schedule for ``seconds`` of wall time and ``min_ops`` ops.

    The reference kernel runs before each op and once after the last;
    each record's ``scaled_s`` is set from the kernel times around it.
    Returns (records, kernel CPU seconds, wall seconds of the phase).
    """
    import reference

    slots = len(runner.ops)
    records, refs = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        refs.append(reference.timed())
        records.append(runner.run(i % slots, on_start))
        i += 1
    refs.append(reference.timed())
    for rec, factor in zip(records, reference.scale_factors(refs)):
        rec.scaled_s = rec.cpu_s * factor
    return records, refs, time.perf_counter() - start


def evaluate(workload, runner: Runner, records, seed: int):
    """Run the output checks; returns (failed op count, problem messages).

    An op fails if the CLI exited nonzero or raised, if its outputs
    differ from the first run of the same slot, or if the checks on
    that slot's outputs found a problem.
    """
    from workloads import Output, derive

    slot_problems: dict[int, list[str]] = {}
    for slot, (csvs, stdouts) in sorted(runner.first.items()):
        try:
            outputs = [Output(c, json.loads(s)) for c, s in zip(csvs, stdouts)]
            problems = workload.check(runner.ops[slot], outputs, derive(seed, 7, slot))
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        slot_problems[slot] = problems
    failed = 0
    messages = []
    for rec in records:
        why = rec.status if rec.status != "ok" else ""
        if not why and rec.digest != runner.first_digest[rec.slot]:
            why = "output differs from the slot's first run"
        if not why and slot_problems[rec.slot]:
            why = "; ".join(slot_problems[rec.slot][:3])
        if why:
            failed += 1
            if len(messages) < 5:
                messages.append(f"slot {rec.slot}: {why}")
    return failed, messages


def tail(latencies_ms: list[float]) -> tuple[float, int, int]:
    """Highest of p99/p95/p90 with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); below 100 samples the
    p90 is reported with fewer than 10 beyond it.
    """
    n = len(latencies_ms)
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive") if n > 1 else None
    for pct in TAIL_PERCENTILES:
        beyond = n * (100 - pct) // 100
        if beyond >= TAIL_MIN_BEYOND or pct == TAIL_PERCENTILES[-1]:
            value = cuts[pct - 1] if cuts else latencies_ms[0]
            return value, pct, beyond
    raise AssertionError("unreachable")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "walshlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
    }


def setup_probe(workload: str, seed: int) -> tuple[float, float, float]:
    """(CPU, wall, reference) seconds of a fresh process running only the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for set-up samples)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "walshlab" / "__init__.py").is_file():
        print(f"error: no walshlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import walshlab.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "walshlab").resolve():
        print(f"error: walshlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        runner = Runner(cli, workload.schedule(args.seed), workdir)
        warm = runner.run(0)
        if warm.status != "ok":
            print(f"error: warm-up op failed: {warm.status}", file=sys.stderr)
            return 1
        runner.first.clear()
        runner.first_digest.clear()
        setup = (time.process_time(), time.perf_counter() - _T0, reference.settled())
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            return traced_run(args, workload, runner)
        return untraced_run(args, workload, runner, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def untraced_run(args, workload, runner: Runner, own_setup) -> int:
    import reference

    records, refs, wall_s = timed_phase(runner, args.seconds, workload.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = evaluate(workload, runner, records, args.seed)
    setups = [own_setup] + [setup_probe(workload.name, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    scaled_ms = [r.scaled_s * 1e3 for r in records]
    cpu_ms = [r.cpu_s * 1e3 for r in records]
    wall_ms = [r.wall_s * 1e3 for r in records]
    tail_ms, tail_pct, beyond = tail(scaled_ms)
    ok_ops = len(records) - failed
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "env": environment(), "ops": len(records), "slots": len(runner.ops),
        "error_rate": failed / len(records), "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "reference_ms": {"nominal": reference.NOMINAL_S * 1e3,
                         "run_quartiles": [q * 1e3 for q in statistics.quantiles(refs, n=4)],
                         "setups": [r * 1e3 for _, _, r in setups]},
        "setup_cpu_s": [c for c, _, _ in setups], "setup_wall_s": [w for _, w, _ in setups],
        "cpu_ops_per_s": ok_ops / (sum(cpu_ms) / 1e3), "cpu_op_p50_ms": statistics.median(cpu_ms),
        "cpu_op_tail_ms": tail(cpu_ms)[0],
        "wall_ops_per_s": ok_ops / wall_s, "wall_op_p50_ms": statistics.median(wall_ms),
        "wall_op_tail_ms": tail(wall_ms)[0], "problems": problems,
    }
    metrics = {
        "setup_s": (statistics.median(c * reference.NOMINAL_S / r for c, _, r in setups), "s"),
        "ops_per_s": (ok_ops / (sum(scaled_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(scaled_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    emit(info, failed == 0, len(records), failed, metrics)
    return 0


def traced_run(args, workload, runner: Runner) -> int:
    from tracer import Tracer, metric_units

    plain, _, _ = timed_phase(runner, args.seconds / 2.0, 1)
    tracer = Tracer()
    tracer.install()
    op_ids = itertools.count()

    def next_op():
        tracer.op_id = next(op_ids)

    try:
        # the same ops again, so both halves have the same mix
        traced, _, _ = timed_phase(runner, 0.0, len(plain), on_start=next_op)
    finally:
        tracer.uninstall()
    records = plain + traced
    failed, problems = evaluate(workload, runner, records, args.seed)
    layer = tracer.metrics(len(traced))
    plain_s, traced_s = (sum(r.scaled_s for r in recs) / len(recs) for recs in (plain, traced))
    layer["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{args.seed}.tsv.gz"
    tracer.write_spans(spans_path)
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": 1,
        "env": environment(), "ops_untraced": len(plain), "ops_traced": len(traced),
        "slots": len(runner.ops), "error_rate": failed / len(records),
        "spans": tracer.span_count, "spans_file": str(spans_path.relative_to(ROOT)),
        "problems": problems,
    }
    emit(info, failed == 0, len(records), failed,
         {name: (layer[name], unit) for name, unit in metric_units().items()})
    return 0


def emit(info: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
