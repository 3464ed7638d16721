"""One byte budget: every sized allocation goes through ``spectra.check_bytes``.

For each dense routine, the largest size under a lowered budget runs,
one step larger is refused before anything of its size is allocated,
and the estimate bounds what tracemalloc sees the routine allocate.
"""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

import walshlab.spectra
from walshlab.blocks import BlockPlan
from walshlab.errors import BudgetError
from walshlab.experiments import _CELL_BYTES, _generate_one
from walshlab.olevskii import dense_matrix
from walshlab.spectra import (
    WalshSpectrum,
    _analysis_peak_bytes,
    _synthesis_peak_bytes,
    analyze_dense,
    check_bytes,
    synthesize,
)

SRC = pathlib.Path(walshlab.spectra.__file__).parent


def _peak(call):
    """(result or raised BudgetError, tracemalloc peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        out = call()
    except BudgetError as exc:
        out = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out, peak


def _budget(monkeypatch, nbytes):
    monkeypatch.setattr(walshlab.spectra, "BYTE_BUDGET", nbytes)


def test_check_bytes_names_the_refusal_and_reads_the_budget_at_call_time(monkeypatch):
    check_bytes(walshlab.spectra.BYTE_BUDGET, "at the budget")
    with pytest.raises(BudgetError, match="the thing needs about 1025 bytes, budget 1024"):
        _budget(monkeypatch, 1024)
        check_bytes(1025, "the thing")


# spectra on the doubling path (a constant plus Rademachers) and on the
# butterfly path (one term, every third term, every term) at each depth
_SPECTRA = {
    "doubling": lambda d: WalshSpectrum({0: 0.5, 1 << (d - 1): 1.0}),
    "butterfly": lambda d: WalshSpectrum({(1 << (d - 1)) | 1: 1.0}),
    "every third": lambda d: WalshSpectrum({n: 1.0 for n in range(3, 1 << d, 3)}),
    "full": lambda d: WalshSpectrum({n: 1.0 for n in range(1 << d)}),
}
# numpy's ufunc buffers and small arrays, whatever the size
_SLACK = 1 << 17


@pytest.mark.parametrize("kind", ["doubling", "butterfly"])
def test_synthesis_past_the_budget_is_refused_before_its_cells(monkeypatch, kind):
    spectrum = _SPECTRA[kind]
    _budget(monkeypatch, _synthesis_peak_bytes(16, 2))
    assert len(synthesize(spectrum(16), 16)) == 1 << 16
    refused, peak = _peak(lambda: synthesize(spectrum(17), 17))
    assert isinstance(refused, BudgetError) and "synthesis at depth 17" in str(refused)
    assert peak < 1 << 14  # the 2^17 cells would take 2 MiB
    # a depth far past any budget is refused without building a huge int
    with pytest.raises(BudgetError):
        synthesize(spectrum(16), 10 ** 9)


@pytest.mark.parametrize("kind", sorted(_SPECTRA))
@pytest.mark.parametrize("depth", [16, 18])
def test_synthesis_estimate_bounds_its_peak(kind, depth):
    f = _SPECTRA[kind](depth)
    estimate = _synthesis_peak_bytes(depth, len(f))
    _, peak = _peak(lambda: synthesize(f, depth))
    assert peak <= estimate + _SLACK
    assert peak >= estimate * (0.45 if kind == "doubling" else 0.7)


def test_analysis_arrays_past_the_budget_are_refused_before_they_are_built(monkeypatch):
    _budget(monkeypatch, _analysis_peak_bytes(1 << 12, 1))
    assert analyze_dense(np.ones(1 << 12)) == WalshSpectrum({0: 1.0})
    values = np.ones(1 << 13)
    refused, peak = _peak(lambda: analyze_dense(values))
    assert isinstance(refused, BudgetError) and "analysis of 8192 cells" in str(refused)
    assert peak < 1 << 12  # its arrays would take 192 KiB


def test_analysis_spectrum_past_the_budget_is_refused_before_it_is_built(monkeypatch):
    size = 1 << 12
    dense = np.random.default_rng(5).random(size)  # every coefficient nonzero
    _budget(monkeypatch, _analysis_peak_bytes(size, size))
    assert len(analyze_dense(dense)) == size
    _budget(monkeypatch, _analysis_peak_bytes(size, size) - 1)
    refused, peak = _peak(lambda: analyze_dense(dense))
    assert isinstance(refused, BudgetError) and "spectrum" in str(refused)
    assert peak < 48 * size  # the arrays only: the spectrum would take 512 KiB more
    assert analyze_dense(np.ones(size)) == WalshSpectrum({0: 1.0})  # one term fits


@pytest.mark.parametrize("size", [1 << 12, 1 << 16])
def test_analysis_estimates_bound_its_peak(size):
    ones, dense = np.ones(size), np.random.default_rng(6).random(size)
    _, peak = _peak(lambda: analyze_dense(ones))
    estimate = _analysis_peak_bytes(size, 1)
    assert 0.75 * estimate <= peak <= estimate + (1 << 12)
    _, peak = _peak(lambda: analyze_dense(dense))
    estimate = _analysis_peak_bytes(size, size)
    assert 0.85 * estimate <= peak <= estimate


@pytest.mark.parametrize("depth", [16, 18])
def test_indicator_cell_estimate_bounds_its_peak(depth):
    # an interval's spectrum is full at seeds 0 and 3 (156 bytes a cell
    # measured) and a fraction of the cells at seeds 1 and 2
    plan = BlockPlan([2, 4, 8, 16, 20])
    spec = {"kind": "indicator", "depth": 4}
    _generate_one(spec, np.random.default_rng(0), plan)  # one-time allocations
    spec["depth"] = depth
    estimate = _CELL_BYTES["indicator"] << depth
    peaks = [_peak(lambda: _generate_one(spec, np.random.default_rng(seed), plan))[1]
             for seed in range(4)]
    assert max(peaks) <= estimate
    assert max(peaks) >= 0.9 * estimate


def test_dense_matrix_past_the_budget_is_refused_before_it_is_built(monkeypatch):
    _budget(monkeypatch, 8 << 16)
    assert dense_matrix(8).shape == (256, 256)
    refused, peak = _peak(lambda: dense_matrix(9))
    assert isinstance(refused, BudgetError) and "2^9 x 2^9 Olevskii matrix" in str(refused)
    assert peak < 1 << 12  # the matrix would take 2 MiB
    with pytest.raises(BudgetError):
        dense_matrix(10 ** 9)


@pytest.mark.parametrize("k", [8, 10])
def test_dense_matrix_estimate_is_the_matrix(k):
    _, peak = _peak(lambda: dense_matrix(k))
    assert 8 << 2 * k <= peak <= 1.05 * (8 << 2 * k)


def test_the_budget_is_compared_only_in_check_bytes():
    places = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {c: node for node in ast.walk(tree) for c in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", None)) == "BYTE_BUDGET"
                for n in ast.walk(node)
            ):
                scope = parent[node]
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parent[scope]
                places.add((path.name, getattr(scope, "name", None)))
    assert places == {("spectra.py", "check_bytes")}
