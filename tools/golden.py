"""Golden numbers of the bundled runs at grid scale 0.5.

    python3 tools/golden.py

Writes the grid-scale-0.5 tree of `tools/write_trees.py` (the 7 bundled
scenarios through `run_scenario` and `reproduce_fig3` with the refinement
check), reduces it to numbers, rewrites `tests/golden_0.5.json` with them
and prints every number that moved against the old file.
`tests/test_golden.py` runs the same reduction and fails on any change
beyond the tolerances below.

The reduction keeps:

- the list of files in the trees;
- every `key=value` of `metrics.txt` and `optimization.txt`, every field
  of `summary.csv` and each line's value in `convergence.txt`, compared at
  VALUE_RTOL relative (`parseval_discrepancy`, a round-off residual, at
  ROUND_OFF_ABS absolute);
- for every other CSV file its row count and, per column, the largest
  magnitude and SAMPLE_ROWS evenly spaced rows, compared at COLUMN_RTOL of
  the column's largest magnitude, the rule of `tools/tree_diff.py`.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "write_trees", Path(__file__).with_name("write_trees.py"))
write_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_trees)
GRID_SCALE = 0.5
GOLDEN_FILE = ROOT / "tests" / f"golden_{GRID_SCALE}.json"
SAMPLE_ROWS = 33
VALUE_RTOL = 1e-9
COLUMN_RTOL = 1e-10
ROUND_OFF_ABS = 1e-12
ROUND_OFF_KEYS = ("parseval_discrepancy",)


def _parse(text):
    """The numbers in a value (separated by spaces or ';'), or the text
    itself when a part is not a number."""
    try:
        return [float(part) for part in text.replace(";", " ").split()]
    except ValueError:
        return text


def _values(rel, text):
    if rel.endswith("summary.csv"):
        return {
            f"{row['case']} {field}": _parse(cell)
            for row in csv.DictReader(io.StringIO(text))
            for field, cell in row.items() if field != "case"
        }
    if rel.endswith("convergence.txt"):
        return {" ".join(line.split()[:-1]): _parse(line.split()[-1])
                for line in text.splitlines()}
    return {key: _parse(value)
            for key, value in (line.split("=", 1) for line in text.splitlines())}


def _columns(text):
    header = text.split("\n", 1)[0].split(",")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    rows = np.unique(np.linspace(0, len(data) - 1, SAMPLE_ROWS).round().astype(int))
    out = {"rows": len(data)}
    for name, column in zip(header, data.T):
        out[name] = {"max": float(np.max(np.abs(column))), "samples": column[rows].tolist()}
    return out


def reduce_tree(root):
    """The golden numbers of one output tree."""
    golden = {"files": [], "values": {}, "columns": {}}
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        golden["files"].append(rel)
        text = path.read_text(encoding="utf-8")
        if path.name in ("metrics.txt", "optimization.txt", "convergence.txt", "summary.csv"):
            golden["values"][rel] = _values(rel, text)
        elif path.suffix == ".csv":
            golden["columns"][rel] = _columns(text)
    return golden


def collect(work_dir):
    """Write the grid-scale-0.5 tree of `tools/write_trees.py` under
    work_dir and reduce it."""
    write_trees.write_tree(work_dir, GRID_SCALE)
    return reduce_tree(work_dir)


def _flatten(golden):
    """{label: (value, (relative, tolerance))}: a value is a list of numbers
    or a text, and a change in a number is allowed up to the tolerance,
    times the larger magnitude of the two numbers when relative."""
    flat = {rel: ("file", (False, 0.0)) for rel in golden["files"]}
    for rel, values in golden["values"].items():
        for key, value in values.items():
            rule = (False, ROUND_OFF_ABS) if key in ROUND_OFF_KEYS else (True, VALUE_RTOL)
            flat[f"{rel} {key}"] = (value, rule)
    for rel, columns in golden["columns"].items():
        flat[f"{rel} rows"] = ([columns["rows"]], (False, 0.0))
        for name, column in columns.items():
            if name != "rows":
                rule = (False, COLUMN_RTOL * column["max"])
                flat[f"{rel} {name} max"] = ([column["max"]], rule)
                flat[f"{rel} {name} samples"] = (column["samples"], rule)
    return flat


def compare(old, new):
    """(line, within tolerance) for every difference between two reductions,
    under the tolerances of the old one."""
    a, b = _flatten(old), _flatten(new)
    out = [(f"{label}: only in the {side} file", False)
           for side, x, y in (("old", a, b), ("new", b, a))
           for label in sorted(x.keys() - y.keys())]
    for label in sorted(a.keys() & b.keys()):
        (x, (relative, tol)), (y, _) = a[label], b[label]
        if isinstance(x, str) or isinstance(y, str) or len(x) != len(y):
            if x != y:
                out.append((f"{label}: {x!r} -> {y!r}", False))
            continue
        for i, (p, q) in enumerate(zip(x, y)):
            if p != q:
                change = abs(p - q)
                limit = tol * max(abs(p), abs(q)) if relative else tol
                where = label if len(x) == 1 else f"{label}[{i}]"
                out.append((f"{where}: {p!r} -> {q!r} (change {change:.3e}, "
                            f"limit {limit:.3e})", change <= limit))
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        new = collect(work)
    if GOLDEN_FILE.exists():
        changes = compare(json.loads(GOLDEN_FILE.read_text()), new)
        for line, ok in changes:
            print(("  " if ok else "! ") + line)
        beyond = sum(not ok for _, ok in changes)
        print(f"{len(changes)} differences, {beyond} beyond tolerance")
    GOLDEN_FILE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
