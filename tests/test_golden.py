import copy
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def test_bundled_runs_match_the_golden_numbers(tmp_path):
    # regenerate with `python3 tools/golden.py` when numbers move on purpose
    expected = json.loads(golden.GOLDEN_FILE.read_text())
    changes = golden.compare(expected, golden.collect(tmp_path))
    assert [line for line, ok in changes if not ok] == []


def test_compare_applies_each_tolerance():
    old = {
        "files": ["a/metrics.txt", "a/trace.csv"],
        "values": {"a/metrics.txt": {"fwhm_fs": [24.0], "parseval_discrepancy": [2e-16],
                                     "minima_fs": [-3.0, 3.0], "knob": "gdd"}},
        "columns": {"a/trace.csv": {"rows": 3, "rate_arb": {"max": 2.0,
                                                             "samples": [1.0, 2.0, 0.0]}}},
    }
    assert golden.compare(old, copy.deepcopy(old)) == []

    def verdicts(edit):
        new = copy.deepcopy(old)
        edit(new)
        return [ok for _, ok in golden.compare(old, new)]

    values = lambda new: new["values"]["a/metrics.txt"]  # noqa: E731
    samples = lambda new: new["columns"]["a/trace.csv"]["rate_arb"]["samples"]  # noqa: E731
    assert verdicts(lambda new: values(new).update(fwhm_fs=[24.0 * (1 + 5e-10)])) == [True]
    assert verdicts(lambda new: values(new).update(fwhm_fs=[24.0 * (1 + 2e-9)])) == [False]
    assert verdicts(lambda new: values(new).update(parseval_discrepancy=[4e-16])) == [True]
    assert verdicts(lambda new: values(new).update(minima_fs=[3.0, -3.0])) == [False, False]
    assert verdicts(lambda new: values(new).update(fwhm_fs="undefined")) == [False]
    assert verdicts(lambda new: values(new).update(knob="insertion")) == [False]
    # a column sample moves against the column maximum: 1e-10 of 2.0
    assert verdicts(lambda new: samples(new).__setitem__(2, 1.5e-10)) == [True]
    assert verdicts(lambda new: samples(new).__setitem__(2, 2.5e-10)) == [False]
    assert verdicts(lambda new: new["files"].append("a/extra.txt")) == [False]
