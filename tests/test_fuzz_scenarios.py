"""Seeded property test of input validation (MacIver et al., JOSS 4 (2019)
1891): a bundled scenario with one value replaced by a hostile token either
runs or fails cleanly.

Each example replaces one `key = value` line of fig3a or gauss_vmask, or
one `name=value` argument of an element line, and runs `trace` in process
at grid scale 0.25. It must exit 0, 2, 3 or 4. A failing run ends with its
only `error:` line and no traceback; when the file itself is rejected, that
line is the parser's error and cites `file:line`. No token builds a large
grid: a grid key's huge value is over the work cap and rejected as read.
There are 330 (value, token) pairs; max_examples is above that, and the
derandomized search stops once it has drawn every pair.
"""

import re

import pytest
from click.testing import CliRunner

from pairtrace import ValidationError
from pairtrace.cli import main
from pairtrace.scenario import parse_scenario_text, scenario_path

TOKENS = ("0", "-1", "-532", "1e-300", "1e-6", "1e300", "nan", "inf", "abc", "")


def sites():
    """(scenario, line index, element argument or None) of every value."""
    out = []
    for name in ("fig3a", "gauss_vmask"):
        for index, line in enumerate(scenario_path(name).read_text().splitlines()):
            if "=" in line.split("#")[0]:
                out.append((name, index, None))
                value = line.split("=", 1)[1].split()
                out.extend((name, index, arg.split("=")[0]) for arg in value[1:] if "=" in arg)
    return out


def mutated(name, index, arg, token):
    lines = scenario_path(name).read_text().splitlines()
    key, value = (part.strip() for part in lines[index].split("=", 1))
    if arg is None:
        value = token
    else:
        value = " ".join(
            f"{arg}={token}" if part.split("=")[0] == arg else part for part in value.split()
        )
    lines[index] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def test_mutated_scenarios_run_or_fail_with_one_error_line(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    runner = CliRunner()
    scn = tmp_path / "mutated.scn"
    out = tmp_path / "out"

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(site=st.sampled_from(sites()), token=st.sampled_from(TOKENS))
    def check(site, token):
        text = mutated(*site, token)
        scn.write_text(text)
        result = runner.invoke(
            main, ["trace", "--scenario", str(scn), "--out", str(out), "--grid-scale", "0.25"]
        )
        assert result.exit_code in (0, 2, 3, 4), (site, token, result.output)
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            return
        lines = result.output.splitlines()
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        try:
            parse_scenario_text(text, source=str(scn))
        except ValidationError as exc:
            assert lines[-1] == f"error: {exc}"
            assert re.match(rf"{re.escape(str(scn))}:\d+: ", str(exc))

    check()
