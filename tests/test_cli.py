import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import walshlab
from walshlab.cli import main
from walshlab.blocks import load_plan
from walshlab.greedy import save_coefficients
from walshlab.norms import _mc_peak_bytes, even_split
from walshlab.spectra import BYTE_BUDGET, load_spectrum, save_spectrum, WalshSpectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_info(capsys):
    code, out, _ = run_cli(capsys, "basis", "info", "--plan", "desk")
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == [2, 4, 8]
    assert doc["N"] == [4, 16, 256]
    assert doc["F"] == [3, 18, 273]
    assert doc["democracy_condition"] is True
    assert doc["lambda_separation"] is False


def test_basis_info_paper_huge_ints(capsys):
    code, out, _ = run_cli(capsys, "basis", "info", "--plan", "paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["N"][1] == 2**100


def test_basis_element(tmp_path, capsys):
    out_path = tmp_path / "psi.json"
    code, _, _ = run_cli(
        capsys, "basis", "element", "--plan", "desk", "-k", "2", "-i", "3",
        "--out", str(out_path),
    )
    assert code == 0
    assert load_spectrum(out_path) == load_plan("desk").psi_spectrum(2, 3)


def test_basis_element_cap_exit3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "basis", "element", "--plan", "paper", "-k", "2", "-i", "1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 3
    assert "cap" in err


def test_basis_element_bad_index_exit2(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "basis", "element", "--plan", "desk", "-k", "9", "-i", "1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2


def test_norm_engines(tmp_path, capsys):
    spec_path = tmp_path / "f.json"
    save_spectrum(WalshSpectrum({0: 1.0, 1: 1.0}), spec_path)
    for engine, extra in (("dense", []), ("even", []), ("mc", ["--samples", "4000"])):
        code, out, _ = run_cli(
            capsys, "norm", "--p", "4", "--engine", engine,
            "--in", str(spec_path), *extra,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(8.0 ** 0.25, rel=0.05)
    code, out, _ = run_cli(
        capsys, "norm", "--p", "3", "--engine", "even", "--in", str(spec_path)
    )
    assert code == 2


def test_norm_depth_refusal_exit3(tmp_path, capsys):
    spec_path = tmp_path / "deep.json"
    save_spectrum(WalshSpectrum({1 << 30: 1.0}), spec_path)
    code, _, err = run_cli(
        capsys, "norm", "--p", "2.5", "--engine", "dense", "--in", str(spec_path)
    )
    assert code == 3


def test_norm_missing_file_exit2(capsys):
    code, _, _ = run_cli(
        capsys, "norm", "--p", "2", "--engine", "dense", "--in", "/nope.json"
    )
    assert code == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_norm_non_finite_coefficient_exit2(tmp_path, capsys, bad):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"terms": [{"n": "1", "c": bad}, {"n": "3", "c": 1.0}]}))
    code, out, err = run_cli(
        capsys, "norm", "--p", "4", "--engine", "even", "--in", str(path)
    )
    assert code == 2 and out == ""
    assert "W_1" in err


@pytest.mark.parametrize("engine, n", [("dense", 1), ("mc", 1 << 200)])
def test_norm_whose_power_mean_underflows_exit2(tmp_path, capsys, engine, n):
    path = tmp_path / "f.json"
    save_spectrum(WalshSpectrum({n: 0.5}), path)
    code, out, err = run_cli(
        capsys, "norm", "--p", "1100", "--engine", engine, "--in", str(path)
    )
    assert code == 2 and out == ""
    assert "underflows" in err


def test_greedy_run_non_finite_coefficient_exit2(tmp_path, capsys):
    cpath = tmp_path / "coeffs.json"
    cpath.write_text('{"coeffs": [{"m": 1, "c": 0.5}, {"m": 2, "c": NaN}]}')
    code, _, err = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", "2", "--out", str(tmp_path / "trace.csv"),
    )
    assert code == 2
    assert "element 2" in err


def test_partial_sum_inside_wide_block_exit3(tmp_path, capsys):
    # S_n f is a row of f's support, so a grid point inside the 2^100
    # block builds nothing of its size: n = 1025 runs, and S_1025 f = f.
    # A support that reaches block 2 is refused when its rows are built
    doc = {
        "plan": "paper", "p": [2, 4], "seed": 1, "n_grid": [10, 1025],
        "corpus": {"kind": "decay", "count": 1, "terms": 5},
    }
    cfg, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    code, _, _ = run_cli(
        capsys, "experiment", "partialsum", "--config", str(cfg), "--out", str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        at_1025 = [r for r in csv.DictReader(fh) if r["size_or_m"] == "1025"]
    assert sorted(r["p"] for r in at_1025) == ["2.0", "4.0"]
    assert all(float(r["value"]) == 1.0 for r in at_1025)
    doc["corpus"]["terms"] = 2000
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "experiment", "partialsum", "--config", str(cfg),
        "--out", str(tmp_path / "wide.csv"),
    )
    assert code == 3
    assert "cap" in err


def test_partial_sum_on_paper_plan_block_ends(tmp_path, capsys):
    # the grid always holds the horizon, which ends the 2^100 block:
    # S_n there is f itself, so nothing has to be materialized
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "plan": "paper", "n_grid": [10, 100], "seed": 1,
        "corpus": {"kind": "decay", "count": 1, "terms": 5},
    }))
    out_path = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "experiment", "partialsum", "--config", str(cfg),
        "--out", str(out_path),
    )
    assert code == 0
    horizon = load_plan("paper").horizon_size
    assert json.loads(out)["n_grid"] == [10, 100, 1024, horizon]
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    at_horizon = [r for r in rows if r["size_or_m"] == str(horizon)]
    assert {r["p"] for r in at_horizon} == {"2.0", "4.0"}
    assert all(float(r["value"]) == 1.0 for r in at_horizon)


def test_greedy_run(tmp_path, capsys):
    coeffs = dict([(1, 0.9), (2, 0.5), (7, -0.4)])
    cpath = tmp_path / "coeffs.json"
    save_coefficients(coeffs, cpath)
    out_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", "3", "--p", "4", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["m", "selected", "coefficient", "residual_l2"]
    assert len(lines) == 4
    assert lines[1].split(",")[1] == "1"  # largest coefficient first


# 2 and 7 tie in magnitude, so index order decides between them
_TIED = {1: 0.9, 2: 0.5, 7: -0.5, 12: 0.25, 40: 0.125, 200: -0.0625}


@pytest.mark.parametrize("p", ["3", "4"])
def test_greedy_run_traces_the_coefficients_it_reads(tmp_path, capsys, p):
    cpath = tmp_path / "coeffs.json"
    save_coefficients(_TIED, cpath)
    out_path = tmp_path / "trace.csv"
    code, _, err = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", "10", "--p", p, "--out", str(out_path),
    )
    assert code == 0, err
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["selected"]) for r in rows] == [1, 2, 7, 12, 40, 200]
    assert [float(r["coefficient"]) for r in rows] == list(_TIED.values())
    # after the last term the residual is the empty spectrum
    assert rows[-1]["residual_l2"] == rows[-1]["residual_p"] == "0.0"


@pytest.mark.parametrize("m_max", ["0", "3"])
@pytest.mark.parametrize("doc, message", [
    ('{"coeffs": [{"m": 1, "c": 0.5}, {"m": 277, "c": 0.25}]}', "outside horizon"),
    ('{"coeffs": [{"m": 1, "c": 1e308}, {"m": 3, "c": 1e308}]}', "overflows"),
])
def test_greedy_run_refuses_what_it_cannot_synthesize_exit2(
    tmp_path, capsys, doc, message, m_max
):
    # desk's horizon is 276 elements; the refusal comes before any step
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(doc)
    code, out, err = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", m_max, "--out", str(tmp_path / "trace.csv"),
    )
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_greedy_run_p3_on_deep_elements_samples(tmp_path, capsys):
    # elements 100 and 250 lie in the desk plan's deep blocks, so the
    # p = 3 residual norms go to Monte Carlo with `norm`'s defaults
    coeffs = dict(
        [(1, 0.9), (7, -0.6), (30, 0.5), (100, 0.3), (250, -0.2)]
    )
    cpath = tmp_path / "coeffs.json"
    save_coefficients(coeffs, cpath)
    outputs = []
    for attempt in range(2):
        out_path = tmp_path / f"trace{attempt}.csv"
        code, _, err = run_cli(
            capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
            "--m-max", "5", "--p", "3", "--out", str(out_path),
        )
        assert code == 0, err
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    with open(tmp_path / "trace0.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(math.isfinite(float(r["residual_p"])) for r in rows)


def test_norm_mc_sample_budget_exit3(tmp_path, capsys):
    spec_path = tmp_path / "deep.json"
    save_spectrum(WalshSpectrum({1: 1.0, 1 << 299: 0.5}), spec_path)
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "norm", "--p", "3", "--engine", "mc",
            "--samples", str(10 ** 12), "--in", str(spec_path),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert "budget" in err
    assert peak < 1 << 24  # refused before the masks were allocated
    code, out, _ = run_cli(
        capsys, "norm", "--p", "3", "--engine", "mc",
        "--samples", "20000", "--in", str(spec_path),
    )
    assert code == 0
    assert json.loads(out)["samples"] == 20000


def test_norm_mc_budget_counts_more_than_the_masks(tmp_path, capsys):
    # one limb: 2^27 samples are exactly 1 GiB of masks, but the draw
    # also holds float arrays per sample, and byte tables and terms
    spec_path = tmp_path / "shallow.json"
    f = WalshSpectrum({1: 1.0, 1 << 40: 0.5})
    save_spectrum(f, spec_path)
    split = even_split(list(f))
    fixed = _mc_peak_bytes(0, split)
    first_refused = (BYTE_BUDGET - fixed) // (_mc_peak_bytes(1, split) - fixed) + 1
    for samples in (1 << 27, first_refused):
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "norm", "--p", "3", "--engine", "mc",
                "--samples", str(samples), "--in", str(spec_path),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and "budget" in err
        assert peak < 1 << 24
    assert _mc_peak_bytes(first_refused - 1, split) <= BYTE_BUDGET


def test_experiment_cli(tmp_path, capsys):
    cfg = {
        "plan": "desk",
        "p": [2, 4],
        "trials": 20,
        "seed": 42,
        "max_terms": 8,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "results.csv"
    code, out, _ = run_cli(
        capsys, "experiment", "khintchine", "--config", str(cfg_path),
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["experiment"] == "khintchine"
    assert summary["rows"] == 40
    lines = out_path.read_text().splitlines()
    assert len(lines) == 41


def test_experiment_bad_config_exit2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plan": "unknown-preset"}))
    code, _, _ = run_cli(
        capsys, "experiment", "khintchine", "--config", str(cfg_path),
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2
    cfg_path.write_text("{not json")
    code, _, _ = run_cli(
        capsys, "experiment", "khintchine", "--config", str(cfg_path),
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2
    for doc, field in [
        ([1, 2], "plan"),
        ({"plan": {"g": [2, "x"]}}, "g(2)"),
        ({"plan": "desk", "sizes": ["a"]}, "sizes"),
        ({"plan": {"g": [2.7, 4.2, 8.9]}}, "g(1)"),
        ({"plan": {"g": [2, 10**9]}}, "MAX_EXPONENT"),
        ({"plan": "desk", "seed": -1}, "seed"),
        ({"plan": "desk", "trials": 1.7}, "trials"),
        ({"plan": "desk", "sizes": [3.5]}, "sizes"),
        ({"plan": "desk", "p": [True, 4]}, "p"),
        ({"plan": "desk", "p": ["inf"]}, "p"),
        ({"plan": "desk", "exhaustive": "false"}, "exhaustive"),
        ({"plan": "desk", "sizes": {"range": [5, 1]}}, "sizes"),
        ({"plan": "desk", "sizes": {"range": [1, 3000000]}}, "sizes"),
    ]:
        cfg_path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "experiment", "democracy", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2 and field in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("sizes", [0]), ("trials", 0)])
def test_experiment_out_of_range_config_exit2(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plan": "desk", "p": [2, 4], field: value}))
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(
        capsys, "experiment", "democracy", "--config", str(cfg_path),
        "--out", str(out_path),
    )
    assert code == 2
    assert field in err and "Traceback" not in err
    assert out == "" and not out_path.exists()


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "walshlab.cli", "basis", "info", "--plan", "desk"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["g"] == [2, 4, 8]


@pytest.mark.parametrize("kind, corpus, field", [
    ("partialsum", {"kind": "decay", "terms": 0, "count": 2}, "terms"),
    ("quasigreedy", {"kind": "decay", "terms": 0, "count": 2}, "terms"),
    ("almostgreedy", {"kind": "decay", "terms": -3, "count": 2}, "terms"),
    ("walsh-baseline", {"kind": "adversarial_walsh", "depth": 3, "count": 0}, "count"),
])
def test_experiment_empty_corpus_exit2(tmp_path, capsys, kind, corpus, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plan": "desk", "p": [2, 4], "corpus": corpus}))
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(
        capsys, "experiment", kind, "--config", str(cfg_path), "--out", str(out_path),
    )
    assert code == 2
    assert f"corpus {field} must be >= 1" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    (["norm", "--p", "0.5", "--engine", "dense"], "p >= 1"),
    (["norm", "--p", "nan", "--engine", "mc"], "p > 1"),
    (["norm", "--p", "3", "--engine", "mc", "--samples", "1"], "--samples"),
    (["greedy", "run", "--plan", "desk", "--m-max", "-1", "--out", "t.csv"], "--m-max"),
    (["greedy", "run", "--plan", "desk", "--m-max", "2", "--p", "1", "--out", "t.csv"],
     "--p"),
    (["norm", "--p", "3", "--engine", "mc", "--seed", "-1"], "--seed"),
    (["norm", "--p", "3", "--engine", "mc", "--seed", str(2**128)], "--seed"),
])
def test_cli_argument_checks_exit2(tmp_path, capsys, argv, message):
    spec_path = tmp_path / "f.json"
    save_spectrum(WalshSpectrum({0: 1.0, 1: 1.0}), spec_path)
    cpath = tmp_path / "coeffs.json"
    save_coefficients(dict([(1, 0.5)]), cpath)
    infile = str(spec_path if argv[0] == "norm" else cpath)
    argv = [str(tmp_path / a) if a == "t.csv" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--in", infile)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("command, text", [
    ("norm", '{"terms": [{"n": "zz", "c": 1.0}]}'),
    ("norm", '{"terms": [{"n": "3"}]}'),
    ("norm", '{"terms": [{"n": "-3", "c": 1.0}]}'),
    ("greedy", '{"coeffs": [{"m": 1, "c": 0.5}, {"m": 1, "c": 0.25}]}'),
    ("greedy", '{"coeffs": [{"c": 0.5}]}'),
])
def test_malformed_input_files_exit2(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, _ = run_cli(capsys, *_reading_argv(command, str(path), tmp_path))
    assert code == 2 and out == ""


def _reading_argv(command, path, tmp_path):
    """A command line that reads ``path`` as its input file."""
    return {
        "norm": ["norm", "--p", "4", "--engine", "even", "--in", path],
        "greedy": ["greedy", "run", "--plan", "desk", "--m-max", "1",
                   "--out", str(tmp_path / "t.csv"), "--in", path],
        "experiment": ["experiment", "democracy", "--config", path,
                       "--out", str(tmp_path / "r.csv")],
        "plan": ["basis", "info", "--plan", path],
    }[command]


_DIGITS = "7" * 5000  # past Python's 4,300-digit limit on int conversion


@pytest.mark.parametrize("command, content, named", [
    # a file that cannot be read or decoded is named; None: a directory
    pytest.param("norm", None, "in.json", id="norm-directory"),
    pytest.param("greedy", None, "in.json", id="greedy-directory"),
    pytest.param("experiment", None, "in.json", id="experiment-directory"),
    pytest.param("plan", None, "in.json", id="plan-directory"),
    pytest.param("norm", b'{"terms": [{"n": "1", "c": 0.5}]}\xff', "in.json",
                 id="norm-not-utf8"),
    pytest.param("experiment", b'{"plan": "desk", "p": [2, 4]}\xff', "in.json",
                 id="experiment-not-utf8"),
    pytest.param("norm", '{"terms": [{"n": "1", "c": %s}]}' % _DIGITS, "in.json",
                 id="norm-5000-digits"),
    pytest.param("greedy", '{"coeffs": [{"m": %s, "c": 0.5}]}' % _DIGITS, "in.json",
                 id="greedy-5000-digits"),
    pytest.param("experiment", '{"plan": "desk", "seed": %s}' % _DIGITS, "in.json",
                 id="experiment-5000-digits"),
    # a number that is no position or no coefficient names its field
    pytest.param("greedy", '{"coeffs": [{"m": 2.7, "c": 0.5}]}', "coefficient position",
                 id="greedy-fractional-position"),
    pytest.param("greedy", '{"coeffs": [{"m": true, "c": 0.5}]}', "coefficient position",
                 id="greedy-boolean-position"),
    pytest.param("greedy", '{"coeffs": [{"m": 0, "c": 0.5}]}', "coefficient position",
                 id="greedy-position-0"),
    pytest.param("greedy", '{"coeffs": [{"m": 2, "c": false}]}', "coefficient of element 2",
                 id="greedy-boolean-coefficient"),
    pytest.param("norm", '{"terms": [{"n": "1", "c": true}]}', "coefficient of W_1",
                 id="norm-boolean-coefficient"),
    # one frequency spelled twice names both spellings
    pytest.param("norm", '{"terms": [{"n": "1", "c": 1.0}, {"n": "01", "c": 2.0}]}',
                 "duplicate frequency '1' and '01'", id="norm-duplicate-frequency"),
    pytest.param("norm", '{"terms": [{"n": "1", "c": 1.0}, {"n": "0x1", "c": 2.0}]}',
                 "duplicate frequency '1' and '0x1'", id="norm-duplicate-frequency-0x"),
])
def test_unreadable_files_and_loose_numbers_exit2(tmp_path, capsys, command, content, named):
    path = tmp_path / "in.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = run_cli(capsys, *_reading_argv(command, str(path), tmp_path))
    assert code == 2 and out == ""
    assert named in err and "Traceback" not in err


def test_directory_as_out_exit2(tmp_path, capsys, monkeypatch):
    # a directory, or a path in a missing directory, is refused before
    # the experiment runs, and nothing is created
    import walshlab.cli as cli

    def never(*args):
        raise AssertionError("run_experiment called with an unwritable --out")

    monkeypatch.setattr(cli, "run_experiment", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plan": "desk", "p": [2], "sizes": [1], "trials": 1}))
    (out_dir := tmp_path / "r.csv").mkdir()
    for out_path in (out_dir, tmp_path / "missing" / "r.csv"):
        code, out, err = run_cli(
            capsys, "experiment", "democracy", "--config", str(cfg_path), "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert str(out_path) in err and "Traceback" not in err
    assert out_dir.is_dir() and not (tmp_path / "missing").exists()


def test_engine_value_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # a ValueError from inside the library is a bug: it propagates
    # instead of being reported as a configuration problem (exit 2)
    import walshlab.cli as cli

    def broken(f, p):
        raise ValueError("engine bug")

    monkeypatch.setattr(cli, "lp_dense", broken)
    spec_path = tmp_path / "f.json"
    save_spectrum(WalshSpectrum({0: 1.0}), spec_path)
    with pytest.raises(ValueError, match="engine bug"):
        main(["norm", "--p", "3", "--engine", "dense", "--in", str(spec_path)])


def test_norm_even_engine_above_split_cap_exit3(tmp_path, capsys):
    spec_path = tmp_path / "f.json"
    save_spectrum(WalshSpectrum({0: 1.0, 1: 0.5, 6: 0.25}), spec_path)
    code, out, err = run_cli(
        capsys, "norm", "--p", "12", "--engine", "even", "--in", str(spec_path)
    )
    assert code == 3 and out == ""
    assert "above the split's accuracy cap 10" in err


@pytest.mark.parametrize("kind, doc", [
    ("democracy", {"plan": "paper", "sizes": [3], "trials": 1}),
    ("quasigreedy",
     {"plan": "paper", "corpus": {"kind": "flat_block", "count": 1, "terms": 5}}),
])
def test_uniform_draw_over_the_paper_horizon_exit3(tmp_path, capsys, kind, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(
        capsys, "experiment", kind, "--config", str(cfg_path), "--out", str(out_path),
    )
    assert code == 3 and out == "" and not out_path.exists()
    assert "uniform draws over a block above" in err and "Traceback" not in err


def test_p1_on_deep_sets_samples_exit0(tmp_path, capsys):
    # five desk elements reach past depth 24, so p = 1 is sampled there
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"plan": "desk", "p": [1], "sizes": [5], "trials": 2, "seed": 1}
    ))
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(
        capsys, "experiment", "democracy", "--config", str(cfg_path),
        "--out", str(out_path),
    )
    assert code == 0 and err == "" and json.loads(out)["rows"] == 2
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 2 and all(r["exact"] == "false" and r["ci_low"] for r in rows)


def test_consecutive_main_calls_share_one_parser(tmp_path, capsys):
    import walshlab.cli as cli

    cli._parser.cache_clear()
    spec_path = tmp_path / "f.json"
    save_spectrum(WalshSpectrum({0: 1.0, 1: 1.0}), spec_path)
    code, out, _ = run_cli(capsys, "norm", "--p", "3", "--engine", "mc",
                           "--samples", "50", "--seed", "9", "--in", str(spec_path))
    assert code == 0 and json.loads(out)["samples"] == 50
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--p", "3", "--engine", "nope", "--in", str(spec_path)])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "basis", "info", "--plan", "desk")
    assert code == 0 and json.loads(out)["g"] == [2, 4, 8]
    # the earlier --samples/--seed and the failed parse leave no trace
    code, out, _ = run_cli(capsys, "norm", "--p", "3", "--engine", "mc",
                           "--in", str(spec_path))
    doc = json.loads(out)
    assert code == 0 and (doc["samples"], doc["seed"]) == (20000, 0)
    code, out, _ = run_cli(capsys, "norm", "--p", "4", "--in", str(spec_path))
    assert code == 0 and json.loads(out)["kind"] == "exact"
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


@pytest.mark.parametrize("kind", ["quasigreedy", "partialsum"])
def test_indicator_corpus_default_stays_in_the_desk_span(tmp_path, capsys, kind):
    # desk spans frequencies 0-5 of 0-7, so the default depth is 2 there
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "plan": "desk", "seed": 2, "corpus": {"kind": "indicator", "count": 5},
    }))
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(
        capsys, "experiment", kind, "--config", str(cfg_path), "--out", str(out_path),
    )
    assert code == 0 and err == ""
    assert json.loads(out)["rows"] > 0


def _experiment_exit(tmp_path, capsys, kind, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(
        capsys, "experiment", kind, "--config", str(cfg_path), "--out", str(out_path),
    )
    assert out == "" and not out_path.exists() and "Traceback" not in err
    return code, err


@pytest.mark.parametrize("kind, corpus, field", [
    ("quasigreedy", {"kind": "decay", "alpha": "nan"}, "alpha"),
    ("partialsum", {"kind": "decay", "alpha": "nan"}, "alpha"),
    ("partialsum", {"kind": "decay", "alpha": "-inf"}, "alpha"),
    ("walsh-baseline", {"kind": "adversarial_walsh", "tilt": "nan"}, "tilt"),
])
def test_non_finite_corpus_field_exit2(tmp_path, capsys, kind, corpus, field):
    doc = {"plan": "desk", "corpus": {**corpus, "count": 1, "terms": 5}}
    code, err = _experiment_exit(tmp_path, capsys, kind, doc)
    assert code == 2 and f"corpus {field} must be finite" in err


@pytest.mark.parametrize("kind, corpus", [
    ("quasigreedy", {"kind": "decay", "alpha": -1000}),
    ("partialsum", {"kind": "decay", "alpha": -1000}),
    ("walsh-baseline", {"kind": "adversarial_walsh", "tilt": 1e308}),
])
def test_overflowing_corpus_coefficient_exit2(tmp_path, capsys, kind, corpus):
    doc = {"plan": "desk", "corpus": {**corpus, "count": 1, "terms": 40}}
    code, err = _experiment_exit(tmp_path, capsys, kind, doc)
    assert code == 2 and "overflow" in err


@pytest.mark.parametrize("kind", ["quasigreedy", "partialsum"])
@pytest.mark.parametrize("alpha, ps", [(-100, [2, 4]), (-50, [2, 4, 6]), (-70, [2, 3])])
def test_corpus_function_whose_powers_overflow_exit2(tmp_path, capsys, kind, alpha, ps):
    # finite coefficients m**100 (m <= 40) whose squares overflow,
    # m**50 whose squares are finite but whose fourth powers are not,
    # and m**70 whose cubes overflow on the sampled p = 3 route; a
    # numpy overflow warning would fail the test instead of exiting 2
    corpus = {"kind": "decay", "alpha": alpha, "count": 1, "terms": 40}
    doc = {"plan": "desk", "p": ps, "corpus": corpus}
    code, err = _experiment_exit(tmp_path, capsys, kind, doc)
    assert code == 2 and "overflows" in err


def test_walsh_baseline_whose_l2_norm_overflows_exit2(tmp_path, capsys):
    # the tilted coefficients are finite, their l2 norm is not
    corpus = {"kind": "adversarial_walsh", "depth": 6, "count": 1, "tilt": 2e307}
    code, err = _experiment_exit(tmp_path, capsys, "walsh-baseline",
                                 {"plan": "desk", "p": [2, 4], "corpus": corpus})
    assert code == 2 and "overflows" in err


def test_greedy_run_whose_synthesis_overflows_exit2(tmp_path, capsys):
    # rmatvec sums a column before scaling it: 1e308 + 1e308 overflows
    cpath = tmp_path / "coeffs.json"
    cpath.write_text('{"coeffs": [{"m": 1, "c": 1e308}, {"m": 3, "c": 1e308}]}')
    code, out, err = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", "5", "--p", "3", "--out", str(tmp_path / "trace.csv"),
    )
    assert code == 2 and out == ""
    assert "overflows" in err and "Traceback" not in err


def test_partialsum_zero_corpus_function_exit2(tmp_path, capsys, monkeypatch):
    import walshlab.experiments as experiments

    # no corpus kind yields 0 from a valid config, so stand one in
    monkeypatch.setattr(experiments, "_generate_one", lambda *_: WalshSpectrum({}))
    doc = {"plan": "desk", "corpus": {"kind": "decay", "count": 2}}
    code, err = _experiment_exit(tmp_path, capsys, "partialsum", doc)
    assert code == 2 and "corpus function 0 is 0" in err


# Runs ``walshlab`` argv[1:] under an address-space cap of what the child
# has mapped after its imports plus 256 MB, so an input that allocates in
# proportion to its value fails with MemoryError, not by exhausting the host.
_CAPPED_MAIN = """
import os, resource, sys
from walshlab.cli import main
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (mapped + (256 << 20),) * 2)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux /proc")
@pytest.mark.parametrize("argv, doc, code, text", [
    (["experiment", "democracy"], {"plan": "desk", "sizes": {"range": [1, 10**12]}},
     2, "sizes range"),
    (["experiment", "khintchine"], {"plan": "paper", "sizes": {"range": [1, 2**90]}},
     2, "sizes range"),
    (["experiment", "democracy"], {"plan": {"g": [2, 10**9]}}, 2, "MAX_EXPONENT"),
    (["experiment", "quasigreedy"],
     {"plan": "desk", "corpus": {"kind": "indicator", "depth": 40, "count": 1}},
     3, "indicator corpus of depth 40"),
    (["basis", "info"], {"g": [2, 20000]}, 2, "MAX_EXPONENT"),
    (["experiment", "quasigreedy"],
     {"plan": "paper", "corpus": {"kind": "decay", "terms": 10**9, "count": 1}},
     3, "block 2 has"),
])
def test_huge_inputs_refused_before_allocating(tmp_path, argv, doc, code, text):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if argv[0] == "basis":
        argv = argv + ["--plan", str(path)]
    else:
        argv = argv + ["--config", str(path), "--out", str(tmp_path / "r.csv")]
    src = os.path.dirname(os.path.dirname(walshlab.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert text in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux /proc")
@pytest.mark.parametrize("argv, doc, code", [
    (["basis", "element", "-k", "1", "-i", "1"], {"g": [21]}, 3),
    # p = 3 gathers a 20,000-element set's 109,040 columns: about 3.9 GB of big ints
    (["experiment", "democracy"],
     {"plan": {"g": [2, 4, 20]}, "p": [3], "sizes": [20000], "trials": 1, "seed": 1}, 3),
    # 2^18 blocks build only the frequencies a spectrum reads
    (["basis", "element", "-k", "1", "-i", "1"], {"g": [18]}, 0),
    (["experiment", "democracy"],
     {"plan": {"g": [2, 4, 18]}, "p": [2, 4], "sizes": [5], "trials": 1, "seed": 1}, 0),
])
def test_symbol_table_budget_exit_codes(tmp_path, argv, doc, code):
    # a block past MATERIALIZATION_CAP, and a gather past the byte budget, are refused
    refusal = "cap is" if argv[0] == "basis" else "symbol frequencies of block"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    where = "--plan" if argv[0] == "basis" else "--config"
    argv = argv + [where, str(path), "--out", str(tmp_path / "out")]
    src = os.path.dirname(os.path.dirname(walshlab.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert (refusal in proc.stderr) == (code == 3)
    assert "Traceback" not in proc.stderr
