"""Compare two output trees file by file.

    python3 tools/tree_diff.py A B

For each relative path under A or B prints one line:

- `SAME path` when the files are byte-identical;
- `CSV path` for differing CSV files, then per column the largest change
  of its numeric cells over their largest magnitude in A, and the number
  of differing cells that are not numbers in both trees;
- `TEXT path` for other differing files, then the changed lines with
  `-` (A) and `+` (B) prefixes;
- `ONLY-A path` / `ONLY-B path` for a file present in one tree only.

Then one line `SUMMARY same=N differ=N only=N largest_csv_change=X path
column` with the counts of byte-identical files, differing files and files
present in one tree only, and the largest CSV column change over its column
maximum with where it is (`largest_csv_change=none` when no numeric CSV
cell changed).

Exits 0 when every file is byte-identical, else 1.
"""

from __future__ import annotations

import csv
import difflib
import io
import sys
from pathlib import Path

import numpy as np


def _files(root):
    return {p.relative_to(root).as_posix() for p in Path(root).rglob("*") if p.is_file()}


def _rows(data):
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_changes(a_bytes, b_bytes):
    """Per-column lines: the max change of the numeric cells over the column
    max, plus the count of other cells that differ; a header or shape
    mismatch is one line. Also returns the largest of those changes as
    (change, column), or None when no column has numeric cells."""
    a, b = _rows(a_bytes), _rows(b_bytes)
    if not a or not b or a[0] != b[0]:
        return ["header differs"], None
    if [len(r) for r in a] != [len(r) for r in b]:
        return [f"shape differs: {len(a) - 1} vs {len(b) - 1} rows"], None
    lines, largest = [], None
    for col, name in enumerate(a[0]):
        pairs = [(ra[col], rb[col]) for ra, rb in zip(a[1:], b[1:])]
        numbers = [(_number(x), _number(y)) for x, y in pairs]
        numeric = np.array([xy for xy in numbers if None not in xy]).reshape(-1, 2)
        text = sum(x != y for (x, y), xy in zip(pairs, numbers) if None in xy)
        line = name
        if numeric.size:
            scale = np.max(np.abs(numeric[:, 0]))
            change = np.max(np.abs(numeric[:, 0] - numeric[:, 1]))
            if scale > 0:
                change /= scale
            line += f" {change:.3e}"
            if largest is None or change > largest[0]:
                largest = (change, name)
        if text or not numeric.size:
            line += f" ({text} text cells differ)"
        lines.append(line)
    return lines, largest


def text_changes(a_bytes, b_bytes):
    try:
        a = a_bytes.decode("utf-8").splitlines()
        b = b_bytes.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return ["binary files differ"]
    return [
        line for line in difflib.unified_diff(a, b, lineterm="", n=0)
        if line[:1] in "-+" and not line.startswith(("---", "+++"))
    ]


def compare(root_a, root_b):
    """Report lines for the two trees, ending with the SUMMARY line, and
    whether they are byte-identical."""
    files_a, files_b = _files(root_a), _files(root_b)
    out, counts, largest = [], {"same": 0, "differ": 0, "only": 0}, None
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            out.append(f"{'ONLY-A' if rel in files_a else 'ONLY-B'} {rel}")
            counts["only"] += 1
            continue
        a_bytes = (Path(root_a) / rel).read_bytes()
        b_bytes = (Path(root_b) / rel).read_bytes()
        if a_bytes == b_bytes:
            out.append(f"SAME {rel}")
            counts["same"] += 1
            continue
        counts["differ"] += 1
        if rel.endswith(".csv"):
            lines, change = csv_changes(a_bytes, b_bytes)
            out.append(f"CSV {rel}")
            out.extend("  " + line for line in lines)
            if change is not None and (largest is None or change[0] > largest[0]):
                largest = (change[0], rel, change[1])
        else:
            out.append(f"TEXT {rel}")
            out.extend("  " + line for line in text_changes(a_bytes, b_bytes))
    where = "none" if largest is None else "{:.3e} {} {}".format(*largest)
    out.append(
        "SUMMARY " + " ".join(f"{k}={v}" for k, v in counts.items())
        + f" largest_csv_change={where}"
    )
    return out, counts["differ"] == counts["only"] == 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: tree_diff.py A B  (two directories)", file=sys.stderr)
        return 2
    lines, same = compare(*argv)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
