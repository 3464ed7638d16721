import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_norm_mc_at_p1_samples_exit0(tmp_path, capsys):
    # p = 1 is sampled by the mc engine as by the experiments' route
    spec_path = tmp_path / "deep.json"
    save_spectrum(WalshSpectrum({1: 1.0, 1 << 147: 0.5}), spec_path)
    code, out, err = run_cli(
        capsys, "norm", "--p", "1", "--engine", "mc", "--samples", "500", "--in", str(spec_path)
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "sampled" and doc["p"] == 1.0 and doc["samples"] == 500
    # |r_1 + r_148 / 2| is 1.5 or 0.5, equally likely
    assert doc["ci_low"] <= doc["value"] <= doc["ci_high"] and 0.5 < doc["value"] < 1.5


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
    pytest.param('{"coeffs": [{"m": 1, "c": 1e308}, {"m": 3, "c": 1e308}]}',
                 "squared l2 norm", id='{"coeffs": [{"m": 1, "c": 1e308}, '
                 '{"m": 3, "c": 1e308}]}-overflows'),
])
def test_greedy_run_refuses_what_it_cannot_synthesize_exit2(
    tmp_path, capsys, doc, message, m_max
):
    # desk's horizon is 276 elements, and coefficients whose squares sum
    # past the float range could overflow a symbol sum; both are refused
    # by rule before any step, with no spectrum built
    cpath = tmp_path / "coeffs.json"
    cpath.write_text(doc)
    code, out, err = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", m_max, "--out", str(tmp_path / "trace.csv"),
    )
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("p", ["2", "3", "4"])
def test_greedy_run_past_the_materialization_cap_exit3(tmp_path, capsys, p):
    # paper's block 2 has 2^100 elements: position 1030 lies in it
    cpath, out_path = tmp_path / "coeffs.json", tmp_path / "trace.csv"
    save_coefficients({1: 0.5, 1030: 0.25}, cpath)
    code, out, err = run_cli(
        capsys, "greedy", "run", "--plan", "paper", "--in", str(cpath),
        "--m-max", "3", "--p", p, "--out", str(out_path),
    )
    assert code == 3 and out == "" and not out_path.exists()
    assert "cap is" in err and "Traceback" not in err


def per_step_residuals(plan, coeffs, p):
    """``greedy run``'s residual_p cells by the per-step route: f - G_m f
    as the spectrum of the coefficients after the m-th, then ``lp_norm``
    with `norm`'s Monte Carlo defaults."""
    from walshlab.cli import _MC_SAMPLES, _MC_SEED
    from walshlab.greedy import greedy_order
    from walshlab.norms import lp_norm

    order = greedy_order(coeffs)
    return [
        lp_norm(plan.weighted_spectrum((k, coeffs[k]) for k in order[m:]), p,
                _MC_SAMPLES, lambda: _MC_SEED).value
        for m in range(1, len(order) + 1)
    ]


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
        cells = [r["residual_p"] for r in csv.DictReader(fh)]
    assert len(cells) == 5 and all(cells[:-1]) and cells[-1] == "0.0"
    # the batch's gathered rows draw what the per-step spectra drew
    assert cells == [repr(x) for x in per_step_residuals(load_plan("desk"), coeffs, 3.0)]


@pytest.mark.parametrize("p", ["2", "4"])
@pytest.mark.parametrize("scale", [1e200, 2.0 ** 900, 1e-200])
def test_greedy_run_whose_squared_l2_norm_leaves_the_float_range_exit2(
    tmp_path, capsys, p, scale
):
    # the coefficients and their sums are finite, their squares are not
    # (or are 0): residual_l2 would read inf or 0.0
    cpath, out_path = tmp_path / "coeffs.json", tmp_path / "trace.csv"
    save_coefficients({m: c * scale for m, c in _TIED.items()}, cpath)
    code, out, err = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", "10", "--p", p, "--out", str(out_path),
    )
    assert code == 2 and out == "" and not out_path.exists()
    assert "squared l2 norm of the coefficients is outside the normal float range" in err
    assert "Traceback" not in err


def test_greedy_run_synthesizes_once(tmp_path, capsys, monkeypatch):
    # the residuals are rows of one batch, and the file is refused by
    # rule, so at even p no spectrum is built at all; at p = 3 each
    # residual row is gathered into one for lp_norm
    built = []
    init, clean = WalshSpectrum.__init__, WalshSpectrum._from_clean_dict.__func__
    monkeypatch.setattr(WalshSpectrum, "__init__",
                        lambda self, *terms: built.append(1) or init(self, *terms))
    monkeypatch.setattr(WalshSpectrum, "_from_clean_dict",
                        classmethod(lambda cls, terms: built.append(1) or clean(cls, terms)))
    cpath = tmp_path / "coeffs.json"
    save_coefficients(_TIED, cpath)
    for p, spectra in (("4", 0), ("6", 0), ("3", len(_TIED))):
        built.clear()
        code, _, err = run_cli(
            capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
            "--m-max", "10", "--p", p, "--out", str(tmp_path / "trace.csv"),
        )
        assert code == 0, err
        assert len(built) == spectra, p


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(1, 276),
        st.one_of(st.floats(-10.0, 10.0).filter(lambda x: abs(x) > 1e-3),
                  st.sampled_from([0.5, -0.5, 0.25])),  # ties
        min_size=1, max_size=30,
    ),
    st.sampled_from([4.0, 6.0, 8.0, 10.0]),
    st.integers(-300, 300),
)
def test_greedy_run_residuals_match_the_per_step_route(coeffs, p, k):
    # the batch's block split and the per-step spectrum's own split sum
    # in different orders: measured worst 3 ulps at p = 4, 6 and 8 over
    # 3,600 random files, and 1.6e-14 relative at p = 10, where the
    # split's cumulant recursion cancels most
    coeffs = {m: math.ldexp(c, k) for m, c in coeffs.items()}
    with tempfile.TemporaryDirectory() as tmp:
        cpath, out_path = os.path.join(tmp, "coeffs.json"), os.path.join(tmp, "trace.csv")
        save_coefficients(coeffs, cpath)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["greedy", "run", "--plan", "desk", "--in", cpath,
                         "--m-max", "30", "--p", str(p), "--out", out_path])
        assert code == 0
        with open(out_path, newline="") as fh:
            got = [float(r["residual_p"]) for r in csv.DictReader(fh)]
    want = per_step_residuals(load_plan("desk"), coeffs, p)
    assert got[-1] == want[-1] == 0.0
    for a, b in zip(got, want):
        assert abs(a - b) <= (4 * math.ulp(b) if p < 10 else 1e-13 * b)


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


# the engines refuse their own p, samples and seed; greedy run checks
# --p and --m-max before it reads the file
@pytest.mark.parametrize("argv, message", [
    (["norm", "--p", "0.5", "--engine", "dense"], "p >= 1"),
    (["norm", "--p", "nan", "--engine", "mc"], "finite p >= 1"),
    pytest.param(["norm", "--p", "3", "--engine", "mc", "--samples", "1"],
                 "at least 2 samples", id="argv2---samples"),
    (["greedy", "run", "--plan", "desk", "--m-max", "-1", "--out", "t.csv"], "--m-max"),
    (["greedy", "run", "--plan", "desk", "--m-max", "2", "--p", "0.99", "--out", "t.csv"],
     "--p"),
    pytest.param(["norm", "--p", "3", "--engine", "mc", "--seed", "-1"],
                 "[0, 2**128)", id="argv5---seed"),
    pytest.param(["norm", "--p", "3", "--engine", "mc", "--seed", str(2**128)],
                 "[0, 2**128)", id="argv6---seed"),
    (["norm", "--p", "inf", "--engine", "dense"], "finite p >= 1"),
    (["norm", "--p", "inf", "--engine", "mc"], "finite p >= 1"),
    (["norm", "--p", "0.5", "--engine", "mc"], "finite p >= 1"),
    (["norm", "--p", "4.5", "--engine", "even"], "even integer p >= 2"),
    (["norm", "--p", "inf", "--engine", "even"], "even integer p >= 2"),
    (["norm", "--p", "0", "--engine", "even"], "even integer p >= 2"),
    (["greedy", "run", "--plan", "desk", "--m-max", "2", "--p", "inf", "--out", "t.csv"],
     "--p"),
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
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


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


@pytest.mark.parametrize("kind, field", [
    ("democracy", "p"), ("democracy", "sizes"), ("khintchine", "sizes"),
    ("partialsum", "p"), ("partialsum", "n_grid"),
])
def test_empty_config_list_exit2(tmp_path, capsys, kind, field):
    # an absent list takes its default, an empty one would run nothing
    doc = {"plan": "desk", "trials": 1, "corpus": {"kind": "decay", "count": 1, "terms": 5},
           field: []}
    code, err = _experiment_exit(tmp_path, capsys, kind, doc)
    assert code == 2 and f"{field} must not be an empty list" in err


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
@pytest.mark.parametrize("alpha, ps", [
    # ids kept stable for lists of test names; (-50, [2, 4, 6]) runs, see below
    pytest.param(-100, [2, 4], id="-100-ps0"),
    pytest.param(-70, [2, 3], id="-70-ps2"),
])
def test_corpus_function_whose_powers_overflow_exit2(tmp_path, capsys, kind, alpha, ps):
    # finite coefficients m**100 (m <= 40) whose squares overflow, and
    # m**70 whose cubes overflow on the sampled p = 3 route; a numpy
    # overflow warning would fail the test instead of exiting 2
    corpus = {"kind": "decay", "alpha": alpha, "count": 1, "terms": 40}
    doc = {"plan": "desk", "p": ps, "corpus": corpus}
    code, err = _experiment_exit(tmp_path, capsys, kind, doc)
    assert code == 2 and "overflows" in err


@pytest.mark.parametrize("kind", ["quasigreedy", "partialsum"])
def test_corpus_function_whose_fourth_powers_overflow_runs_scaled(tmp_path, capsys, kind):
    # m**50 (m <= 40): the squares are finite, the fourth powers are not;
    # the even-p rows are the norms of rows scaled to a largest
    # |coefficient| in [1/2, 1), so every row is exact and finite
    from bisect import bisect_right

    from walshlab.experiments import ExperimentConfig, _corpus_expansions
    from walshlab.greedy import greedy_order
    from walshlab.norms import lp_even_spectral

    doc = {"plan": "desk", "p": [2, 4, 6],
           "corpus": {"kind": "decay", "alpha": -50, "count": 1, "terms": 40}}
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "r.csv"
    cfg_path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "experiment", kind, "--config", str(cfg_path), "--out", str(out_path),
    )
    assert code == 0, err
    with open(out_path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["experiment"] == kind]
    assert rows and all(r["exact"] == "true" for r in rows)
    assert all(math.isfinite(float(r["value"])) for r in rows)
    cfg = ExperimentConfig.from_dict(doc)
    ((_, f, coeffs, _),) = _corpus_expansions(cfg)
    order, support = greedy_order(coeffs), list(coeffs)
    for p in (4, 6):
        den = lp_even_spectral(f, p).value
        for r in (r for r in rows if float(r["p"]) == p):
            n = int(r["size_or_m"])
            kept = order[:n] if kind == "quasigreedy" else support[:bisect_right(support, n)]
            prefix = cfg.plan.weighted_spectrum((m, coeffs[m]) for m in kept)
            want = lp_even_spectral(prefix, p).value / den
            # measured worst 2.0 ulps over both drivers' 108 rows
            assert abs(float(r["value"]) - want) <= 3 * math.ulp(want), (p, n)


def test_walsh_baseline_whose_l2_norm_overflows_exit2(tmp_path, capsys):
    # the tilted coefficients are finite, their l2 norm is not
    corpus = {"kind": "adversarial_walsh", "depth": 6, "count": 1, "tilt": 2e307}
    code, err = _experiment_exit(tmp_path, capsys, "walsh-baseline",
                                 {"plan": "desk", "p": [2, 4], "corpus": corpus})
    assert code == 2 and "overflows" in err


@pytest.mark.parametrize("doc", [
    {"plan": "paper", "corpus": {"kind": "adversarial_walsh", "depth": 11, "count": 1}},
    {"plan": {"g": [1, 40]}},  # the default corpus, depth 6
])
def test_walsh_baseline_past_the_materialization_cap_exit3(tmp_path, capsys, doc):
    # the plan side reaches block 2, past the cap: refused before the
    # block's symbols are listed for its split
    code, err = _experiment_exit(tmp_path, capsys, "walsh-baseline", doc)
    assert code == 3 and "cap is" in err


def test_greedy_run_whose_synthesis_overflows_exit2(tmp_path, capsys):
    # rmatvec would sum a column before scaling it, 1e308 + 1e308; the
    # squares of the coefficients already leave the float range, and that
    # rule refuses the file before any transform, at non-even p too
    cpath, out_path = tmp_path / "coeffs.json", tmp_path / "trace.csv"
    cpath.write_text('{"coeffs": [{"m": 1, "c": 1e308}, {"m": 3, "c": 1e308}]}')
    code, out, err = run_cli(
        capsys, "greedy", "run", "--plan", "desk", "--in", str(cpath),
        "--m-max", "5", "--p", "3", "--out", str(out_path),
    )
    assert code == 2 and out == "" and not out_path.exists()
    assert "squared l2 norm" in err and "Traceback" not in err


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
