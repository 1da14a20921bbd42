"""Write the standard output trees of this checkout.

    python3 tools/write_trees.py OUT

Runs the 7 bundled scenarios through `run_scenario` and `reproduce_fig3`
with the refinement check, at grid scales 1 and 0.5, with the `pairtrace`
package of the checkout this file lives in. Each scale writes one tree,
`OUT/<scale>/<scenario>/...` and `OUT/<scale>/fig3/...`. To show that a
change leaves every output byte-identical, write the trees of both
checkouts and compare them with `tools/tree_diff.py A/ B/`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID_SCALES = (1.0, 0.5)


def write_tree(out_dir, grid_scale):
    """Run every bundled scenario and the fig. 3 suite under out_dir."""
    from pairtrace import scenario

    out = Path(out_dir)
    for name in scenario.BUNDLED_SCENARIOS:
        scenario.run_scenario(name, out / name, grid_scale)
    scenario.reproduce_fig3(out / "fig3", grid_scale, refine_check=True)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: write_trees.py OUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for scale in GRID_SCALES:
        write_tree(Path(argv[0]) / f"{scale:g}", scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
