"""Scenario files: flat `key = value` sections describing one run of the
simulator, plus the runner that turns a scenario into artifacts on disk.

The format is deliberately plain: `[section]` headers, one `key = value`
per line, `#` comments, no nesting. Ordered element lists use numbered
keys (`element_1 = slab material=fused_silica thickness_mm=6`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import delayscan, dispersionopt, spdc
from .delayscan import KERNEL_SIGNAL_DELAY, KERNEL_V_MASK
from .dispersionopt import (
    KNOB_INSERTION,
    ElementChain,
    OptimizationResult,
    PhaseCorrection,
    PrismCompressor,
    Slab,
    optimize_dispersion,
    solve_compensating_insertion,
    with_knob,
)
from .errors import ValidationError
from .materials import Section, group_delay_dispersion, load_materials, read_sections
from .phasematch import CrystalSpec, solve_poling_period
from .spdc import GridSpec, PupilSpec, SpdcConfig, SpectralAmplitude
from .units import omega_from_wavelength_nm

BUNDLED_SCENARIOS = (
    "fig3a",
    "fig3b_99",
    "fig3b_198",
    "fig3c_513",
    "fig3d_3790",
    "fig2b_detuned",
    "gauss_vmask",
)


# ----------------------------------------------------------------- parsing

class _ElementKeys:
    """The keys of an ordered element list: element_1, element_2, ..."""

    def __contains__(self, key):
        return re.fullmatch(r"element_[0-9]+", key) is not None


_SECTION_KEYS = {
    "pump": ("wavelength_nm",),
    "crystals": (
        "material", "length_mm", "phasematch_temperature_C", "poling_period_um",
        "operating_offset_C", "uc_temperature_offset_C", "half_crystal_phases",
    ),
    "pupil": (
        "theta_max_ext_deg", "inner_edge", "mirror_gap_mm", "collimating_focal_mm",
        "theta_min_ext_rad",
    ),
    "grid": ("omega_points", "omega_half_span", "radial_points"),
    "elements": _ElementKeys(),
    "elements_idler": _ElementKeys(),
    "window": _ElementKeys(),
    "optimize": ("knob", "bracket"),
    "delay": ("kernel", "tau_span_fs", "tau_step_fs"),
    "spectrum": ("source", "gaussian_sigma"),
}

_ELEMENT_ARGS = {
    "slab": ("material", "thickness_mm", "temperature_C"),
    "prism_compressor": ("glass", "apex_separation_mm", "insertion_mm", "design_wavelength_nm"),
    "phase_correction": ("gdd_fs2", "tod_fs3", "quartic_fs4"),
}


def _parse_elements(section):
    """(kind, arguments) per element_N line of a section, in index order."""
    source = section.source
    elements = []
    for key, (value, lineno) in sorted(
        section.body.items(), key=lambda item: int(item[0].removeprefix("element_"))
    ):
        parts = value.split()
        if not parts:
            raise ValidationError(f"{source}:{lineno}: empty element spec")
        args = {}
        for token in parts[1:]:
            if "=" not in token:
                raise ValidationError(
                    f"{source}:{lineno}: element argument {token!r} is not key=value"
                )
            k, v = token.split("=", 1)
            if k in args:
                raise ValidationError(f"{source}:{lineno}: element argument {k!r} given twice")
            args[k] = (v, lineno)
        elements.append((parts[0], Section(source, f"element {parts[0]}", args, lineno)))
    return elements


@dataclass
class Scenario:
    """Validated description of one simulator run."""

    name: str
    pump_wavelength_nm: float
    crystal_material: str
    crystal_length_mm: float
    phasematch_temperature_C: float
    poling_period_um: float | None      # None = solve at the phasematch temperature
    operating_offset_C: float
    uc_temperature_offset_C: float
    half_crystal_phases: bool
    theta_max_ext_rad: float
    theta_min_ext_rad: float
    grid: GridSpec
    raw_elements: list = field(default_factory=list)
    raw_idler_elements: list | None = None
    raw_window_elements: list = field(default_factory=list)
    optimize_knob: str | None = None
    optimize_bracket: tuple = (-200.0, 200.0)
    kernel: str = KERNEL_SIGNAL_DELAY
    tau_span_fs: float = 150.0
    tau_step_fs: float = 0.35
    gaussian_sigma: float | None = None  # None = the SPDC kernel, else a Gaussian source


def parse_scenario_text(text, source="<scenario>"):
    sections = read_sections(text, source, _SECTION_KEYS.get)

    def sec(name):
        return Section(source, f"[{name}]", sections.get(name))

    pump = sec("pump")
    crystals = sec("crystals")
    pupil = sec("pupil")
    grid = sec("grid")
    delay = sec("delay")
    spectrum = sec("spectrum")

    theta_max = np.deg2rad(pupil.number("theta_max_ext_deg", 2.0))
    if pupil.flag("inner_edge", True):
        gap = pupil.number("mirror_gap_mm", 1.5)
        focal = pupil.number("collimating_focal_mm", 75.0)
        theta_min = pupil.number("theta_min_ext_rad", gap / 2.0 / focal)
    else:
        theta_min = 0.0

    period_raw = crystals.raw("poling_period_um", "auto")
    if period_raw == "auto":
        period = None
    else:
        period = crystals.number("poling_period_um")
        if period <= 0:
            crystals.fail("poling_period_um", "must be > 0 or 'auto'")

    length = crystals.number("length_mm", 5.0)
    if length <= 0:
        crystals.fail("length_mm", "must be > 0")

    sigma = spectrum.number("gaussian_sigma", 0.05)
    if sigma <= 0:
        spectrum.fail("gaussian_sigma", "must be > 0")
    gaussian = spectrum.word("source", "spdc", choices=("spdc", "gaussian")) == "gaussian"

    tau_span = delay.number("tau_span_fs", 150.0)
    tau_step = delay.number("tau_step_fs", 0.35)
    for key, value in (("tau_span_fs", tau_span), ("tau_step_fs", tau_step)):
        if value <= 0:
            delay.fail(key, "must be > 0")

    optimize_knob = None
    optimize_bracket = (-200.0, 200.0)
    if "optimize" in sections:
        opt = sec("optimize")
        optimize_knob = opt.word(
            "knob",
            dispersionopt.KNOB_CORRECTION,
            choices=(dispersionopt.KNOB_CORRECTION, dispersionopt.KNOB_INSERTION),
        )
        optimize_bracket = opt.numbers("bracket", optimize_bracket, count=2)

    idler_elements = None
    if "elements_idler" in sections:
        idler_elements = _parse_elements(sec("elements_idler"))

    return Scenario(
        name=source,
        pump_wavelength_nm=pump.number("wavelength_nm", 532.0),
        crystal_material=crystals.word("material", "mgln_e"),
        crystal_length_mm=length,
        phasematch_temperature_C=crystals.number("phasematch_temperature_C", 50.0),
        poling_period_um=period,
        operating_offset_C=crystals.number("operating_offset_C", -1.5),
        uc_temperature_offset_C=crystals.number("uc_temperature_offset_C", 0.0),
        half_crystal_phases=crystals.flag("half_crystal_phases", not gaussian),
        theta_max_ext_rad=theta_max,
        theta_min_ext_rad=theta_min,
        grid=GridSpec(
            omega_points=grid.integer("omega_points", 2048),
            omega_half_span=grid.number("omega_half_span", 0.55),
            radial_points=grid.integer("radial_points", 256),
        ),
        raw_elements=_parse_elements(sec("elements")),
        raw_idler_elements=idler_elements,
        raw_window_elements=_parse_elements(sec("window")),
        optimize_knob=optimize_knob,
        optimize_bracket=optimize_bracket,
        kernel=delay.word("kernel", KERNEL_SIGNAL_DELAY, choices=delayscan.KERNELS),
        tau_span_fs=tau_span,
        tau_step_fs=tau_step,
        gaussian_sigma=sigma if gaussian else None,
    )


def scenario_path(name):
    """Resolve a bundled scenario name or a filesystem path."""
    p = Path(name)
    if p.exists():
        return p
    stem = name[:-4] if name.endswith(".scn") else name
    if stem in BUNDLED_SCENARIOS:
        return resources.files("pairtrace.scenarios").joinpath(f"{stem}.scn")
    raise ValidationError(
        f"scenario {name!r} is neither a file nor one of {BUNDLED_SCENARIOS}"
    )


def load_scenario(name):
    path = scenario_path(name)
    return parse_scenario_text(path.read_text(), source=str(path))


# ----------------------------------------------------------------- building

@dataclass
class BuiltSystem:
    config: SpdcConfig
    base_chain: ElementChain          # signal chain before optimization
    idler_chain: ElementChain | None  # None = shared with signal
    window_chain: ElementChain        # appended after optimization
    registry: dict


def _instantiate_element(kind, args, registry):
    """One chain element from its kind and its arguments (a Section)."""
    if kind not in _ELEMENT_ARGS:
        raise ValidationError(f"{args.source}:{args.lineno}: unknown element kind {kind!r}")
    for key in args.body:
        if key not in _ELEMENT_ARGS[kind]:
            args.fail(key, f"unknown argument; {kind} takes {_ELEMENT_ARGS[kind]}")

    def material_of(key):
        name = args.word(key)
        if name not in registry:
            args.fail(key, f"unknown material {name!r} (registry has {sorted(registry)})")
        return registry[name]

    if kind == "slab":
        return Slab(
            material_of("material"),
            args.number("thickness_mm"),
            args.number("temperature_C", 20.0),
        )
    if kind == "prism_compressor":
        auto = args.raw("insertion_mm", "auto") == "auto"
        return PrismCompressor(
            material_of("glass"),
            args.number("apex_separation_mm"),
            None if auto else args.number("insertion_mm"),
            design_wavelength_nm=args.number("design_wavelength_nm", 1064.0),
        )
    return PhaseCorrection(
        gdd_fs2=args.number("gdd_fs2", 0.0),
        tod_fs3=args.number("tod_fs3", 0.0),
        quartic_fs4=args.number("quartic_fs4", 0.0),
    )


def build_system(scenario, grid_scale=1.0, registry=None):
    """Instantiate crystals, pupil and element chains from a scenario."""
    registry = registry if registry is not None else load_materials()
    if scenario.crystal_material not in registry:
        raise ValidationError(
            f"{scenario.name}: unknown crystal material {scenario.crystal_material!r}"
        )
    material = registry[scenario.crystal_material]
    pump_omega = omega_from_wavelength_nm(scenario.pump_wavelength_nm)
    grid = scenario.grid.scaled(grid_scale)

    period = scenario.poling_period_um
    if period is None:
        period = solve_poling_period(
            material, pump_omega, scenario.phasematch_temperature_C
        )
    t_dc = scenario.phasematch_temperature_C + scenario.operating_offset_C
    t_uc = t_dc + scenario.uc_temperature_offset_C
    dc = CrystalSpec(material, scenario.crystal_length_mm, period, t_dc)
    uc = CrystalSpec(material, scenario.crystal_length_mm, period, t_uc)

    pupil = PupilSpec(scenario.theta_min_ext_rad, scenario.theta_max_ext_rad)
    config = SpdcConfig(dc, uc, pupil, pump_omega, grid)

    def elements_of(raw):
        return tuple(_instantiate_element(kind, args, registry) for kind, args in raw)

    def path_chain(raw):
        elements = elements_of(raw)
        if scenario.half_crystal_phases:
            half = scenario.crystal_length_mm / 2.0
            elements = (Slab(material, half, t_dc),) + elements + (Slab(material, half, t_uc),)
        chain = ElementChain(elements)
        if not any(isinstance(e, PrismCompressor) and e.insertion_mm is None for e in elements):
            return chain
        # insertion_mm = auto: the insertion that zeroes the path's curvature
        omega_grid = config.grid.omega_grid(pump_omega)
        value = solve_compensating_insertion(omega_grid, pump_omega / 2.0, chain)
        return with_knob(chain, KNOB_INSERTION, value)

    base = path_chain(scenario.raw_elements)
    idler = (
        path_chain(scenario.raw_idler_elements)
        if scenario.raw_idler_elements is not None
        else None
    )
    window = ElementChain(elements_of(scenario.raw_window_elements))
    return BuiltSystem(config, base, idler, window, registry)


@dataclass
class OptimizedSystem:
    built: BuiltSystem
    kernel: SpectralAmplitude                    # bare S0(w), no spectral phase
    optimization: OptimizationResult | None      # None = no [optimize] section
    chain: ElementChain                          # signal chain with the optimum knob


def build_and_optimize(scenario, grid_scale=1.0, radial_levels=None, log=None):
    """The shared stages build -> kernel -> optimum of every front end.

    The kernel is the Gaussian test spectrum when gaussian_sigma is set,
    else the SPDC kernel, to which radial_levels is passed on; log
    receives the source and the optimum as they are found.
    """
    log = log or (lambda msg: None)
    built = build_system(scenario, grid_scale)
    if scenario.gaussian_sigma is None:
        log(
            f"poling period {built.config.dc_crystal.poling_period_um:.6f} um, "
            f"crystals at {built.config.dc_crystal.temperature_C:.2f} / "
            f"{built.config.uc_crystal.temperature_C:.2f} C"
        )
        kernel_s = spdc.kernel_amplitude(built.config, radial_levels)
    else:
        log(f"gaussian test spectrum, sigma = {scenario.gaussian_sigma} rad/fs")
        kernel_s = spdc.gaussian_amplitude(built.config, scenario.gaussian_sigma)
    chain, optimization = built.base_chain, None
    if scenario.optimize_knob is not None:
        optimization = optimize_dispersion(
            kernel_s, chain, scenario.optimize_knob, scenario.optimize_bracket
        )
        log(
            f"optimum {scenario.optimize_knob} = {optimization.optimal_value:.3f}, "
            f"residual GDD {optimization.residual_gdd_fs2:.2f} fs^2"
        )
        chain = with_knob(chain, scenario.optimize_knob, optimization.optimal_value)
    return OptimizedSystem(built, kernel_s, optimization, chain)


def dress(kernel_s, chain, window, idler_chain=None):
    """S(w): the bare kernel under the chain phases, with the window elements
    on both paths. idler_chain None means the idler shares the signal chain."""
    grid = kernel_s.omega_grid
    center = kernel_s.pump_omega / 2.0
    phi_s = chain.extended(*window.elements).phase(grid, center)
    phi_i = phi_s if idler_chain is None else (
        idler_chain.extended(*window.elements).phase(grid, center)
    )
    return spdc.apply_spectral_phase(kernel_s, phi_s, phi_i)


# ----------------------------------------------------------------- running

@dataclass
class RunResult:
    scenario: Scenario
    amplitude: SpectralAmplitude
    trace: delayscan.UpconversionTrace
    trace_metrics: delayscan.TraceMetrics
    extras: dict
    optimization: OptimizationResult | None
    artifacts: dict


def run_scenario(name_or_scenario, out_dir, grid_scale=1.0, log=None):
    """Run one scenario and write its artifacts; returns a RunResult."""
    sink = log or (lambda msg: None)
    log_lines = []

    def log(msg):
        log_lines.append(msg)
        sink(msg)

    if isinstance(name_or_scenario, Scenario):
        scenario = name_or_scenario
    else:
        scenario = load_scenario(name_or_scenario)
    system = build_and_optimize(scenario, grid_scale, log=log)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    extras = {}
    optimization = system.optimization
    if optimization is not None:
        extras["residual_gdd_fs2"] = f"{optimization.residual_gdd_fs2:.17g}"
        artifacts["optimization_txt"] = out / "optimization.txt"
        with open(artifacts["optimization_txt"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(dispersionopt.optimization_report_lines(optimization)) + "\n")
        artifacts["scan_csv"] = out / "scan.csv"
        dispersionopt.write_scan_csv(optimization, artifacts["scan_csv"])
    built = system.built
    amplitude = dress(system.kernel, system.chain, built.window_chain, built.idler_chain)
    extras["bandwidth_fwhm_nm"] = f"{spdc.bandwidth_fwhm_nm(amplitude):.17g}"
    tr = delayscan.trace(
        amplitude, scenario.kernel, scenario.tau_span_fs, scenario.tau_step_fs
    )
    tm = delayscan.metrics(tr)
    extras["peak_to_mean_80fs"] = f"{delayscan.peak_to_mean_ratio(tr):.17g}"
    if scenario.kernel == KERNEL_V_MASK:
        ref = delayscan.trace(
            amplitude, KERNEL_SIGNAL_DELAY, scenario.tau_span_fs, scenario.tau_step_fs
        )
        ref_m = delayscan.metrics(ref)
        extras["signal_delay_fwhm_fs"] = f"{ref_m.fwhm_fs:.17g}"
        extras["fwhm_ratio_vmask"] = f"{tm.fwhm_fs / ref_m.fwhm_fs:.17g}"
        artifacts["trace_signal_csv"] = out / "trace_signal.csv"
        delayscan.write_trace_csv(ref, artifacts["trace_signal_csv"])

    extras["rate_zero_delay"] = f"{delayscan.rate_at_zero_delay(amplitude):.17g}"
    if scenario.kernel == KERNEL_SIGNAL_DELAY:
        extras["parseval_discrepancy"] = f"{delayscan.parseval_check(amplitude, tr):.3e}"

    artifacts["spectrum_csv"] = out / "spectrum.csv"
    spdc.write_spectrum_csv(amplitude, artifacts["spectrum_csv"])
    artifacts["trace_csv"] = out / "trace.csv"
    delayscan.write_trace_csv(tr, artifacts["trace_csv"])
    artifacts["metrics_txt"] = out / "metrics.txt"
    delayscan.write_metrics_txt(tm, artifacts["metrics_txt"], extras)
    # the log artifact carries only run content, never absolute paths, so
    # identical scenarios produce byte-identical output trees
    artifacts["run_log"] = out / "run.log"
    artifacts["run_log"].write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    sink(f"artifacts in {out}")
    return RunResult(scenario, amplitude, tr, tm, extras, optimization, artifacts)


# the fig. 3 ladder: (case label, bundled scenario); the first is the optimum
FIG3_LADDER = (
    ("fig3a_optimum", "fig3a"),
    ("fig3b_fs6mm", "fig3b_99"),
    ("fig3b_fs12mm", "fig3b_198"),
    ("fig3c_sf10_5mm", "fig3c_513"),
    ("fig3d_sf10_37mm", "fig3d_3790"),
)


def reproduce_fig3(out_dir, grid_scale=1.0, refine_check=False, log=None):
    """Optimum trace plus the common-dispersion ladder; returns summary rows.

    Optimizes once on the optimum scenario, then dresses the optimized
    chain with each ladder scenario's window, as in the ladder procedure.
    One kernel and one optimum serve every row, so each ladder scenario
    must build the same crystals, grid and base chain and scan the same
    knob. Also runs the v-mask width-ratio check on the bundled Gaussian
    spectrum.
    """
    log = log or (lambda msg: None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ladder = [(case, load_scenario(name)) for case, name in FIG3_LADDER]
    reference = ladder[0][1]
    radial_levels = {}
    system = build_and_optimize(reference, grid_scale, radial_levels)
    optimization = system.optimization
    if optimization is None or optimization.edge_solution:
        raise ValidationError(
            f"{reference.name}: the ladder needs a dispersion optimum inside the scan bracket"
        )
    log(
        f"optimum correction {optimization.optimal_value:.2f} fs^2, residual "
        f"{optimization.residual_gdd_fs2:.2f} fs^2"
    )

    def shared(sc, built):
        return (built.config, built.base_chain, built.idler_chain,
                sc.optimize_knob, sc.optimize_bracket)

    rows = []
    for case, sc in ladder:
        built = system.built
        if sc is not reference:
            built = build_system(sc, grid_scale, system.built.registry)
        window = built.window_chain
        if shared(sc, built) != shared(reference, system.built) or not all(
            isinstance(e, Slab) for e in window.elements
        ):
            raise ValidationError(
                f"{sc.name}: a ladder scenario must share the kernel and optimum "
                f"of {reference.name} and add only slabs"
            )
        added_gdd = sum(
            (
                group_delay_dispersion(
                    e.material, e.thickness_mm, 2.0 * sc.pump_wavelength_nm, e.temperature_C
                )
                for e in window.elements
            ),
            0.0,
        )
        amplitude = dress(system.kernel, system.chain, window, built.idler_chain)
        tr = delayscan.trace(amplitude, sc.kernel, sc.tau_span_fs, sc.tau_step_fs)
        tm = delayscan.metrics(tr)
        delayscan.write_trace_csv(tr, out / f"{case}.csv")
        rows.append(
            {
                "case": case,
                "added_gdd_fs2": added_gdd,
                "fwhm_fs": tm.fwhm_fs,
                "peak_rate": tm.peak_rate,
                "secondary_maxima_fs": tm.secondary_maxima_fs,
                "peak_to_mean_80fs": delayscan.peak_to_mean_ratio(tr),
            }
        )
        log(f"{case}: fwhm {tm.fwhm_fs if tm.fwhm_fs else 'undefined'}")

    flags = []
    peaks = [row["peak_rate"] for row in rows]
    if not all(a > b for a, b in zip(peaks, peaks[1:])):
        flags.append("peak rates not strictly decreasing along the ladder")
    widths = [row["fwhm_fs"] for row in rows]
    defined = [w for w in widths if w is not None]
    if any(a > b + 1e-9 for a, b in zip(defined, defined[1:])):
        flags.append("widths decrease along the ladder")
    if rows[-1]["peak_to_mean_80fs"] >= 1.5 and widths[-1] is not None:
        flags.append("heaviest-dispersion trace still shows a zero-delay peak")

    # v-mask width-ratio row on the bundled Gaussian spectrum
    gauss = run_scenario("gauss_vmask", out / "gauss_vmask", grid_scale)
    rows.append(
        {
            "case": "gauss_vmask_ratio",
            "added_gdd_fs2": 0.0,
            "fwhm_fs": gauss.trace_metrics.fwhm_fs,
            "peak_rate": gauss.trace_metrics.peak_rate,
            "secondary_maxima_fs": [],
            "peak_to_mean_80fs": float(gauss.extras["fwhm_ratio_vmask"]),
        }
    )

    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("case,added_gdd_fs2,fwhm_fs,peak_rate,secondary_maxima_fs,peak_to_mean_80fs\n")
        for row in rows:
            fwhm = "" if row["fwhm_fs"] is None else f"{row['fwhm_fs']:.17g}"
            sec = ";".join(f"{v:.17g}" for v in row["secondary_maxima_fs"])
            fh.write(
                f"{row['case']},{row['added_gdd_fs2']:.17g},{fwhm},"
                f"{row['peak_rate']:.17g},{sec},{row['peak_to_mean_80fs']:.17g}\n"
            )
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(f"residual_gdd_fs2={optimization.residual_gdd_fs2:.17g}\n")
        for row in rows:
            fwhm = "undefined" if row["fwhm_fs"] is None else f"{row['fwhm_fs']:.2f}"
            fh.write(
                f"{row['case']}: added_gdd={row['added_gdd_fs2']:.1f} fs^2 "
                f"fwhm={fwhm} fs peak={row['peak_rate']:.4g}\n"
            )
        for flag in flags:
            fh.write(f"FLAG: {flag}\n")
        if not flags:
            fh.write("all ladder checks passed\n")

    if refine_check:
        report = spdc.quadrature_refine(system.built.config, radial_levels=radial_levels)
        with open(out / "convergence.txt", "w", encoding="utf-8") as fh:
            fh.write("shared kernel for all ladder cases\n")
            fh.write("\n".join(report.lines()) + "\n")
        if not report.passed:
            raise ValidationError("quadrature refinement exceeded its threshold")

    return {"rows": rows, "flags": flags, "optimization": optimization}
