"""The drift check's comparison (``tests/reference.py``) on small CSV pairs:
a moved sampled row is counted, and a moved exact row, a flipped
``exact`` cell, a changed seed, key cell or row count are flagged."""

import importlib.util
import json
import pathlib

# loaded by path: bench/ has a module named ``reference`` too
_spec = importlib.util.spec_from_file_location(
    "drift_reference", pathlib.Path(__file__).with_name("reference.py"))
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
Drift = _module.Drift

HEADER = "experiment,plan,p,size_or_m,trial,value,ci_low,ci_high,exact,seed\n"
EXACT = 'democracy,"g=2,4,8",4.0,3,0,1.25,,,true,11\n'
SAMPLED = 'democracy,"g=2,4,8",3.0,3,0,1.5,1.4,1.6,false,12\n'
OLD = HEADER + EXACT + SAMPLED


def _drift(new, old=OLD, summaries=({}, {})):
    drift = Drift()
    drift.compare_call("call", "democracy", [0, json.dumps(summaries[0]), old],
                       [0, json.dumps(summaries[1]), new])
    return drift


def test_unchanged_outputs_move_nothing():
    drift = _drift(OLD)
    assert not drift.flagged and not drift.moved
    assert drift.rows == {("democracy", 4.0, True): 1, ("democracy", 3.0, False): 1}
    assert "exact rows moved: 0 of 1" in drift.report()


def test_a_moved_sampled_row_is_counted_not_flagged():
    drift = _drift(HEADER + EXACT + SAMPLED.replace("1.5,1.4,1.6", "1.53,1.41,1.62"))
    assert drift.flagged == []
    assert drift.moved == {("democracy", 3.0, False): 1}
    assert abs(drift.largest[False] - 0.03 / 1.53) < 1e-12
    assert "  democracy p=3: 1 of 1" in drift.report()


def test_an_exact_row_moved_past_the_tolerance_is_flagged():
    drift = _drift(HEADER + EXACT.replace("1.25", "1.2500000001") + SAMPLED)
    assert len(drift.flagged) == 1 and "exact value moved" in drift.flagged[0]
    # a move within 1e-12 relative is counted only
    drift = _drift(HEADER + EXACT.replace("1.25", "1.2500000000000002") + SAMPLED)
    assert drift.flagged == [] and drift.moved == {("democracy", 4.0, True): 1}


def test_flipped_exact_cells_changed_seeds_keys_and_counts_are_flagged():
    flipped = HEADER + EXACT.replace(",,,true", ",1.2,1.3,false") + SAMPLED
    assert any("exact true -> false" in f for f in _drift(flipped).flagged)
    reseeded = HEADER + EXACT + SAMPLED.replace("false,12", "false,13")
    assert _drift(reseeded).flagged == ["call line 3: seed 12 -> 13"]
    rekeyed = HEADER + EXACT.replace(",3,0,", ",4,0,") + SAMPLED
    assert _drift(rekeyed).flagged == ["call line 2: size_or_m 3 -> 4"]
    assert _drift(HEADER + EXACT).flagged == ["call: 2 rows -> 1"]
    drift = Drift()
    drift.compare_call("call", "democracy", [0, "{}", OLD], [3, "", ""])
    assert drift.flagged == ["call: exit 0 -> 3"]


def test_summary_fields_are_compared_without_out():
    old = {"out": "a.csv", "ratio_max": {"3.0": 1.5, "4.0": 1.25}, "rows": 2}
    new = {"out": "b.csv", "ratio_max": {"3.0": 1.53, "4.0": 1.25}, "rows": 2}
    drift = _drift(OLD, summaries=(old, new))
    assert drift.fields == {("democracy", "ratio_max[3.0]"): 1}
    assert drift.flagged == []
