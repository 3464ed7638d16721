"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They cover what the numbers rest on: traced and untraced runs write the
same CSV bytes, each per-layer metric fires on the workloads predicted
to use it, failures reach the error count, seeds change the inputs,
op times are scaled by the reference kernel around them, BENCHMARK.json
matches the code, and the runner refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import walshlab.cli as cli  # noqa: E402
from run import WORK, Runner, evaluate, tail  # noqa: E402
from tracer import PREDICTIONS, TARGETS, Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, Call, Op, parse_rows  # noqa: E402

SEED = 11
# enough slots to reach every code path of each workload (greedy-corpus
# needs one op per corpus kind)
SLOTS = {"democracy-p4": 2, "greedy-corpus": 5, "norms-highp": 2}


@pytest.fixture
def workdir():
    path = WORK / f"selftest-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def _runner(workload, seed, path, slots=None):
    ops = workload.schedule(seed)[: slots or SLOTS[workload.name]]
    path.mkdir(parents=True, exist_ok=True)
    return Runner(cli, ops, path)


def _run_all(runner):
    return [runner.run(op.slot) for op in runner.ops]


@pytest.fixture(scope="module")
def traced_outputs():
    """Per workload: (untraced CSVs, traced CSVs, layer metrics, unwrapped bindings)."""
    base = WORK / f"selftest-traced-{os.getpid()}"
    out = {}
    try:
        for name, workload in WORKLOADS.items():
            plain = _runner(workload, SEED, base / name / "plain")
            assert all(r.status == "ok" for r in _run_all(plain))
            traced = _runner(workload, SEED, base / name / "traced")
            tracer = Tracer()
            assert tracer.install() > len(TARGETS)
            try:
                unwrapped = tracer.unwrapped_bindings()
                records = _run_all(traced)
            finally:
                tracer.uninstall()
            assert all(r.status == "ok" for r in records)
            out[name] = (plain.first, traced.first, tracer.metrics(len(records)), unwrapped)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return out


def test_tracer_replaces_every_binding(traced_outputs):
    for name, (_, _, _, unwrapped) in traced_outputs.items():
        assert unwrapped == [], name


def test_audit_reports_a_binding_install_cannot_reach():
    import walshlab.norms as norms

    registry = {"dense": norms.lp_dense}
    tracer = Tracer()
    tracer.install()
    try:
        found = tracer.unwrapped_bindings()
    finally:
        tracer.uninstall()
    assert len(found) == 1 and "lp_dense held by dict" in found[0]
    assert registry["dense"] is norms.lp_dense


def test_uninstall_restores_originals():
    import walshlab.experiments as ex

    before = ex.lp_even_spectral, vars(ex.ExperimentConfig)["from_dict"]
    tracer = Tracer()
    tracer.install()
    assert ex.lp_even_spectral is not before[0]
    tracer.uninstall()
    assert (ex.lp_even_spectral, vars(ex.ExperimentConfig)["from_dict"]) == before


def test_traced_and_untraced_csvs_are_byte_identical(traced_outputs):
    for name, (plain, traced, _, _) in traced_outputs.items():
        assert plain.keys() == traced.keys()
        for slot in plain:
            assert plain[slot][0] == traced[slot][0], (name, slot)


def test_layer_metrics_fire_where_predicted(traced_outputs):
    for metric, (_, users, exclusive) in PREDICTIONS.items():
        for name, (_, _, layer, _) in traced_outputs.items():
            if name in users:
                assert layer[metric] > 0, (metric, name)
            elif exclusive:
                assert layer[metric] == 0, (metric, name)
    for name, (_, _, layer, _) in traced_outputs.items():
        assert set(layer) | {"trace.overhead_frac"} == set(metric_units())
        assert all(layer[f"{lay}.errors"] == 0 for lay in ("cli", "norms", "blocks"))
        assert abs(sum(v for k, v in layer.items() if k.endswith(".self_share")) - 1) < 1e-9


def test_corrupted_value_and_nonzero_exit_count_as_failures(workdir):
    workload = WORKLOADS["democracy-p4"]
    runner = _runner(workload, SEED, workdir / "a", slots=1)
    records = _run_all(runner)
    assert evaluate(workload, runner, records, SEED) == (0, [])

    csvs, stdouts = runner.first[0]
    lines = csvs[0].splitlines(keepends=True)
    p2 = next(i for i, line in enumerate(lines) if ",2.0," in line)
    lines[p2] = lines[p2].replace(",1.0,", ",1.0000001,")
    runner.first[0] = (["".join(lines)], stdouts)
    failed, problems = evaluate(workload, runner, records, SEED)
    assert failed == 1 and "p2 ratio" in problems[0]

    bad = Op(0, 5, (Call("democracy", {"plan": "desk", "p": [2, 4], "sizes": [500],
                                        "trials": 1, "seed": 5}),))
    broken = Runner(cli, [bad], workdir)
    rec = broken.run(0)
    assert rec.status.startswith("exit 2")
    failed, problems = evaluate(workload, broken, [rec], SEED)
    assert failed == 1 and "exit 2" in problems[0]


def test_rerun_changing_bytes_counts_as_failure(workdir):
    workload = WORKLOADS["democracy-p4"]
    runner = _runner(workload, SEED, workdir, slots=1)
    records = _run_all(runner) + _run_all(runner)
    assert evaluate(workload, runner, records, SEED)[0] == 0
    records[1].digest = "0" * 64
    assert evaluate(workload, runner, records, SEED)[0] == 1


def test_check_outcomes_repeat(workdir):
    workload = WORKLOADS["norms-highp"]
    runner = _runner(workload, SEED, workdir)
    records = _run_all(runner)
    assert evaluate(workload, runner, records, SEED) == evaluate(workload, runner, records, SEED)


def test_seeds_change_index_sets_and_corpora(workdir):
    from walshlab.experiments import ExperimentConfig, corpus_generate, derive_seed

    dem = WORKLOADS["democracy-p4"]
    a = _runner(dem, 1, workdir / "d1", slots=1)
    b = _runner(dem, 2, workdir / "d2", slots=1)
    _run_all(a)
    _run_all(b)
    seeds_a = {(r.size_or_m, r.seed) for r in parse_rows(a.first[0][0][0])}
    seeds_b = {(r.size_or_m, r.seed) for r in parse_rows(b.first[0][0][0])}
    assert seeds_a.isdisjoint(seeds_b)

    greedy = WORKLOADS["greedy-corpus"]
    corpora = []
    for seed in (1, 2):
        cfg = ExperimentConfig.from_dict(greedy.op(seed, 0).calls[0].config)
        corpora.append(corpus_generate(cfg.corpus, derive_seed(cfg.seed, 4), cfg.plan))
    assert corpora[0] != corpora[1]
    assert greedy.schedule(3) == greedy.schedule(3)


def test_tail_uses_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(150)])[1:] == (90, 15)
    assert tail([float(i) for i in range(500)])[1:] == (95, 25)
    assert tail([float(i) for i in range(2000)])[1:] == (99, 20)


def test_scale_factors_follow_the_machine_and_ignore_one_slow_ref():
    from reference import NOMINAL_S, scale_factors

    assert scale_factors([2 * NOMINAL_S] * 4) == [0.5, 0.5, 0.5]
    spiked = [NOMINAL_S] * 9
    spiked[4] = 10 * NOMINAL_S
    assert scale_factors(spiked) == [1.0] * 8
    step = [NOMINAL_S] * 6 + [2 * NOMINAL_S] * 6
    factors = scale_factors(step)
    assert factors[:4] == [1.0] * 4 and factors[-4:] == [0.5] * 4


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert set(PREDICTIONS) <= set(metric_units())


def _bench(cwd, *extra):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "bench/run.py", *extra], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def test_traced_run_prints_every_layer_metric():
    done = _bench(ROOT, "--workload", "democracy-p4", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metric_units())


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(workdir, "--workload", "democracy-p4", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
