"""Command line front end: run scenarios, solve for phasematching, dump
material dispersion and reproduce the bundled result suite. All physics
lives in the library modules; the CLI only wires them to files.

Exit codes: 0 success, 2 validation, 3 convergence, 4 solver failure.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import click

from . import __version__, delayscan, scenario as scenario_mod
from .dispersionopt import write_optimization
from .errors import PairtraceError, ValidationError
from .materials import get_material, group_delay_dispersion
from .phasematch import CrystalSpec, solve_phasematch_temperature, solve_poling_period
from .units import omega_from_wavelength_nm


def _trap_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PairtraceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


class _FiniteFloat(click.types.FloatParamType):
    """A float option that rejects nan and inf like any other bad value."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


_FINITE_FLOAT = _FiniteFloat()
_log = functools.partial(click.echo, err=True)   # run logs go to stderr


def _emit(lines, out_dir, filename):
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text, encoding="utf-8")


@click.group()
@click.version_option(version=__version__)
def main():
    """Delay-scanned upconversion simulator for photon pairs."""


@main.command("material-gdd")
@click.option("--material", "name", required=True, help="Material name from the registry.")
@click.option("--thickness-mm", type=_FINITE_FLOAT, required=True)
@click.option("--wavelength-nm", type=_FINITE_FLOAT, default=1064.0, show_default=True)
@click.option("--temperature-c", type=_FINITE_FLOAT, default=20.0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Also write the report here.")
@_trap_errors
def material_gdd(name, thickness_mm, wavelength_nm, temperature_c, out_dir):
    """Group delay dispersion of a slab, in fs^2."""
    material = get_material(name)
    value = group_delay_dispersion(material, thickness_mm, wavelength_nm, temperature_c)
    _emit(
        [
            f"material={name}",
            f"thickness_mm={thickness_mm:.17g}",
            f"wavelength_nm={wavelength_nm:.17g}",
            f"gdd_fs2={value:.17g}",
        ],
        out_dir,
        "material_gdd.txt",
    )


@main.command("qpm-solve")
@click.option("--pump-nm", type=_FINITE_FLOAT, default=532.0, show_default=True)
@click.option("--temperature-c", type=_FINITE_FLOAT, default=50.0, show_default=True)
@click.option("--material", "name", default="mgln_e", show_default=True)
@click.option("--length-mm", type=_FINITE_FLOAT, default=5.0, show_default=True)
@click.option("--bracket-um", nargs=2, type=_FINITE_FLOAT, default=(3.0, 40.0),
              show_default=True, help="Window of accepted poling periods.")
@click.option("--out", "out_dir", type=click.Path(), default=None)
@_trap_errors
def qpm_solve(pump_nm, temperature_c, name, length_mm, bracket_um, out_dir):
    """Poling period for degenerate axial phasematching, plus round trip."""
    material = get_material(name)
    if pump_nm <= 0:
        raise ValidationError(f"--pump-nm must be > 0, got {pump_nm:g}")
    pump_omega = omega_from_wavelength_nm(pump_nm)
    period = solve_poling_period(material, pump_omega, temperature_c, tuple(bracket_um))
    crystal = CrystalSpec(material, length_mm, period, temperature_c)
    recovered = solve_phasematch_temperature(crystal, pump_omega)
    _emit(
        [
            f"pump_nm={pump_nm:.17g}",
            f"temperature_C={temperature_c:.17g}",
            f"poling_period_um={period:.17g}",
            f"recovered_temperature_C={recovered:.17g}",
        ],
        out_dir,
        "qpm_solve.txt",
    )


_SCENARIO_OPTIONS = [
    click.option("--scenario", "name", required=True,
                 help="Scenario file path or bundled name (e.g. fig3a)."),
    click.option("--out", "out_dir", type=click.Path(), required=True),
    click.option("--grid-scale", type=_FINITE_FLOAT, default=1.0, show_default=True,
                 help="Scale factor for frequency and radial sample counts."),
]


def _scenario_options(fn):
    for option in reversed(_SCENARIO_OPTIONS):
        fn = option(fn)
    return fn


@main.command("trace")
@_scenario_options
@_trap_errors
def trace_cmd(name, out_dir, grid_scale):
    """Run a scenario end to end: spectrum, trace, metrics, reports."""
    result = scenario_mod.run_scenario(name, out_dir, grid_scale, _log)
    for line in delayscan.metrics_lines(result.trace_metrics, result.extras):
        click.echo(line)


@main.command("optimize")
@_scenario_options
@_trap_errors
def optimize_cmd(name, out_dir, grid_scale):
    """Run only the dispersion optimization of a scenario."""
    sc = scenario_mod.load_scenario(name)
    if sc.optimize_knob is None:
        raise ValidationError(f"{sc.name}: scenario has no [optimize] section")
    optimization = scenario_mod.run_stages(sc, grid_scale).optimization
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for line in write_optimization(optimization, out):
        click.echo(line)


@main.command("reproduce-fig3")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--grid-scale", type=_FINITE_FLOAT, default=1.0, show_default=True)
@click.option("--refine-check", is_flag=True, help="Also run the quadrature refinement ladder.")
@_trap_errors
def reproduce_fig3_cmd(out_dir, grid_scale, refine_check):
    """Optimum trace, the common-dispersion ladder and the v-mask ratio."""
    summary = scenario_mod.reproduce_fig3(out_dir, grid_scale, refine_check, _log)
    for row in summary["rows"]:
        fwhm = "undefined" if row["fwhm_fs"] is None else f"{row['fwhm_fs']:.2f}"
        click.echo(f"{row['case']}: fwhm_fs={fwhm} peak_rate={row['peak_rate']:.4g}")
    for flag in summary["flags"]:
        click.echo(f"FLAG: {flag}")
    if summary["flags"]:
        sys.exit(2)


if __name__ == "__main__":
    main()
