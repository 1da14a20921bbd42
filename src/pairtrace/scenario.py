"""Scenario files: flat `key = value` sections describing one run of the
simulator, plus the runner that turns a scenario into artifacts on disk.

The format is deliberately plain: `[section]` headers, one `key = value`
per line, `#` comments, no nesting. Ordered element lists use numbered
keys (`element_1 = slab material=fused_silica thickness_mm=6`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
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
from .materials import (
    MaterialModel,
    Section,
    bundled_registry,
    group_delay_dispersion,
    read_sections,
)
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


def _material(section, key, default=None):
    """The bundled material a section key names; an unknown name cites its line."""
    name = section.word(key, default)
    registry = bundled_registry()
    if name not in registry:
        section.fail(key, f"unknown material {name!r} (registry has {sorted(registry)})")
    return registry[name]


def _checked(section, keys, make, *args):
    """make(*args); a ValidationError of its range checks cites the line of
    the key its message names, else of the first of keys the section sets."""
    try:
        return make(*args)
    except ValidationError as exc:
        message = str(exc)
        present = [k for k in keys if k in section.body] or list(keys)
        section.fail(next((k for k in present if k in message), present[0]), message)


def _elements(section):
    """The chain elements of a section's element_N lines, in index order."""
    source = section.source
    elements = []
    for key, (value, lineno) in sorted(
        section.body.items(), key=lambda item: int(item[0].removeprefix("element_"))
    ):
        where = f"{source}:{lineno}"
        parts = value.split()
        if not parts:
            raise ValidationError(f"{where}: empty element spec")
        kind = parts[0]
        if kind not in _ELEMENT_ARGS:
            raise ValidationError(f"{where}: unknown element kind {kind!r}")
        body = {}
        for token in parts[1:]:
            if "=" not in token:
                raise ValidationError(f"{where}: element argument {token!r} is not key=value")
            k, v = token.split("=", 1)
            if k in body:
                raise ValidationError(f"{where}: element argument {k!r} given twice")
            body[k] = (v, lineno)
        args = Section(source, f"element {kind}", body, lineno)
        for k in body:
            if k not in _ELEMENT_ARGS[kind]:
                args.fail(k, f"unknown argument; {kind} takes {_ELEMENT_ARGS[kind]}")
        if kind == "slab":
            make, fields = Slab, (
                _material(args, "material"),
                args.number("thickness_mm"),
                args.number("temperature_C", 20.0),
            )
        elif kind == "prism_compressor":
            auto = args.raw("insertion_mm", "auto") == "auto"
            make, fields = PrismCompressor, (
                _material(args, "glass"),
                args.number("apex_separation_mm"),
                None if auto else args.number("insertion_mm"),
                args.number("design_wavelength_nm", 1064.0),
            )
        else:
            make, fields = PhaseCorrection, tuple(
                args.number(k, 0.0) for k in _ELEMENT_ARGS[kind]
            )
        try:
            elements.append(make(*fields))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return tuple(elements)


@dataclass
class Scenario:
    """Validated description of one simulator run."""

    name: str
    pump_wavelength_nm: float
    crystal_material: MaterialModel
    crystal_length_mm: float
    phasematch_temperature_C: float
    poling_period_um: float | None      # None = solve at the phasematch temperature
    operating_offset_C: float
    uc_temperature_offset_C: float
    half_crystal_phases: bool
    theta_max_ext_rad: float
    theta_min_ext_rad: float
    grid: GridSpec
    elements: tuple = ()
    idler_elements: tuple | None = None   # None = the idler shares the signal path
    window_elements: tuple = ()
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
        focal = pupil.positive("collimating_focal_mm", 75.0)
        theta_min = pupil.number("theta_min_ext_rad", gap / 2.0 / focal)
    else:
        theta_min = 0.0
    pupil_keys = ("theta_max_ext_deg", "theta_min_ext_rad", "mirror_gap_mm",
                  "collimating_focal_mm")
    _checked(pupil, pupil_keys, PupilSpec, theta_min, theta_max)

    period_raw = crystals.raw("poling_period_um", "auto")
    if period_raw == "auto":
        period = None
    else:
        period = crystals.number("poling_period_um")
        if period <= 0:
            crystals.fail("poling_period_um", "must be > 0 or 'auto'")

    grid_spec = _checked(
        grid, _SECTION_KEYS["grid"], GridSpec,
        grid.integer("omega_points", 2048),
        grid.number("omega_half_span", 0.55),
        grid.integer("radial_points", 256),
    )
    sigma = spectrum.positive("gaussian_sigma", 0.05)
    gaussian = spectrum.word("source", "spdc", choices=("spdc", "gaussian")) == "gaussian"
    if gaussian:
        _checked(spectrum, ("gaussian_sigma", "source"), spdc.check_gaussian_width,
                 grid_spec, sigma)

    tau_span = delay.positive("tau_span_fs", 150.0)
    tau_step = delay.positive("tau_step_fs", 0.35)
    _checked(delay, ("tau_span_fs", "tau_step_fs"), delayscan.check_delay_grid,
             tau_span, tau_step)

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
        _checked(opt, ("bracket", "knob"), dispersionopt.knob_bracket,
                 optimize_knob, optimize_bracket)

    idler_elements = None
    if "elements_idler" in sections:
        idler_elements = _elements(sec("elements_idler"))

    return Scenario(
        name=source,
        pump_wavelength_nm=pump.positive("wavelength_nm", 532.0),
        crystal_material=_material(crystals, "material", "mgln_e"),
        crystal_length_mm=crystals.positive("length_mm", 5.0),
        phasematch_temperature_C=crystals.number("phasematch_temperature_C", 50.0),
        poling_period_um=period,
        operating_offset_C=crystals.number("operating_offset_C", -1.5),
        uc_temperature_offset_C=crystals.number("uc_temperature_offset_C", 0.0),
        half_crystal_phases=crystals.flag("half_crystal_phases", not gaussian),
        theta_max_ext_rad=theta_max,
        theta_min_ext_rad=theta_min,
        grid=grid_spec,
        elements=_elements(sec("elements")),
        idler_elements=idler_elements,
        window_elements=_elements(sec("window")),
        optimize_knob=optimize_knob,
        optimize_bracket=optimize_bracket,
        kernel=delay.word("kernel", KERNEL_SIGNAL_DELAY, choices=delayscan.KERNELS),
        tau_span_fs=tau_span,
        tau_step_fs=tau_step,
        gaussian_sigma=sigma if gaussian else None,
    )


def scenario_path(name):
    """Resolve a bundled scenario name or a filesystem path.

    A bundled name (with or without `.scn`) always means the bundled file;
    a local file of that name is reached by a path such as `./fig3a`.
    """
    stem = name[:-4] if name.endswith(".scn") else name
    if stem in BUNDLED_SCENARIOS:
        return resources.files("pairtrace.scenarios").joinpath(f"{stem}.scn")
    p = Path(name)
    if p.exists():
        return p
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


def build_system(scenario, grid_scale=1.0):
    """Crystals, pupil and element chains of a scenario: solves the poling
    period and any auto compressor insertion, and adds the half-crystal slabs.
    A Gaussian source evaluates no kernel, so it gets no crystals and no
    poling period."""
    material = scenario.crystal_material
    pump_omega = omega_from_wavelength_nm(scenario.pump_wavelength_nm)
    grid = scenario.grid.scaled(grid_scale)

    t_dc = scenario.phasematch_temperature_C + scenario.operating_offset_C
    t_uc = t_dc + scenario.uc_temperature_offset_C
    dc = uc = None
    if scenario.gaussian_sigma is None:
        period = scenario.poling_period_um
        if period is None:
            period = solve_poling_period(
                material, pump_omega, scenario.phasematch_temperature_C
            )
        dc = CrystalSpec(material, scenario.crystal_length_mm, period, t_dc)
        uc = CrystalSpec(material, scenario.crystal_length_mm, period, t_uc)

    pupil = PupilSpec(scenario.theta_min_ext_rad, scenario.theta_max_ext_rad)
    config = SpdcConfig(dc, uc, pupil, pump_omega, grid)

    def path_chain(elements):
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

    base = path_chain(scenario.elements)
    idler = None if scenario.idler_elements is None else path_chain(scenario.idler_elements)
    return BuiltSystem(config, base, idler, ElementChain(scenario.window_elements))


@dataclass
class StageRun:
    """The shared stages build -> kernel -> optimum -> chain phases, run once."""

    built: BuiltSystem
    kernel: SpectralAmplitude                    # bare S0(w), no spectral phase
    radial_levels: dict                          # radial order -> evaluation the kernel made
    optimization: OptimizationResult | None      # None = no [optimize] section
    chain: ElementChain                          # signal chain with the optimum knob
    phases: tuple                                # (signal, idler) chain phases
    log_lines: list                              # the lines of run.log


def run_stages(scenario, grid_scale=1.0, log=None):
    """The stages every front end shares, each run once: build, bare kernel
    (the Gaussian test spectrum when gaussian_sigma is set, else the SPDC
    kernel), optimum and chain phases. log receives each line as it is found."""
    lines = []

    def note(msg):
        lines.append(msg)
        if log is not None:
            log(msg)

    built = build_system(scenario, grid_scale)
    levels = {}
    if scenario.gaussian_sigma is None:
        note(
            f"poling period {built.config.dc_crystal.poling_period_um:.6f} um, "
            f"crystals at {built.config.dc_crystal.temperature_C:.2f} / "
            f"{built.config.uc_crystal.temperature_C:.2f} C"
        )
        kernel_s = spdc.kernel_amplitude(built.config, levels)
    else:
        note(f"gaussian test spectrum, sigma = {scenario.gaussian_sigma} rad/fs")
        kernel_s = spdc.gaussian_amplitude(built.config, scenario.gaussian_sigma)
    chain, optimization = built.base_chain, None
    if scenario.optimize_knob is not None:
        optimization = optimize_dispersion(
            kernel_s, chain, scenario.optimize_knob, scenario.optimize_bracket
        )
        note(
            f"optimum {scenario.optimize_knob} = {optimization.optimal_value:.3f}, "
            f"residual GDD {optimization.residual_gdd_fs2:.2f} fs^2"
        )
        chain = with_knob(chain, scenario.optimize_knob, optimization.optimal_value)
    phases = chain_phases(kernel_s, chain, built.idler_chain)
    return StageRun(built, kernel_s, levels, optimization, chain, phases, lines)


def chain_phases(kernel_s, chain, idler_chain=None):
    """(signal, idler) chain phases on the kernel grid. idler_chain None
    means the idler shares the signal chain."""
    grid = kernel_s.omega_grid
    center = kernel_s.pump_omega / 2.0
    phi_s = chain.phase(grid, center)
    return phi_s, phi_s if idler_chain is None else idler_chain.phase(grid, center)


def dress(kernel_s, phases, window):
    """S(w): the bare kernel under chain_phases, with the window elements
    on both paths. ElementChain.phase sums its elements left to right, so
    adding the window's phases in order gives each chain extended by the
    window bit for bit, and one base phase serves any number of windows."""
    grid = kernel_s.omega_grid
    center = kernel_s.pump_omega / 2.0
    phi_s, phi_i = phases
    for element in window.elements:
        extra = element.phase(grid, center)
        phi_s, phi_i = phi_s + extra, phi_i + extra
    return spdc.apply_spectral_phase(kernel_s, phi_s, phi_i)


def trace_window(stages, window, sc):
    """The per-window step dress -> trace -> metrics on a stage run, with
    the delay settings of sc; returns (amplitude, trace, metrics)."""
    amplitude = dress(stages.kernel, stages.phases, window)
    tr = delayscan.trace(amplitude, sc.kernel, sc.tau_span_fs, sc.tau_step_fs)
    return amplitude, tr, delayscan.metrics(tr)


# ----------------------------------------------------------------- running

@dataclass
class RunResult:
    scenario: Scenario
    amplitude: SpectralAmplitude
    trace: delayscan.UpconversionTrace
    trace_metrics: delayscan.TraceMetrics
    extras: dict
    optimization: OptimizationResult | None


def run_scenario(name_or_scenario, out_dir, grid_scale=1.0, log=None):
    """Run one scenario and write its artifacts; returns a RunResult."""
    if isinstance(name_or_scenario, Scenario):
        scenario = name_or_scenario
    else:
        scenario = load_scenario(name_or_scenario)
    stages = run_stages(scenario, grid_scale, log)
    optimization = stages.optimization
    amplitude, tr, tm = trace_window(stages, stages.built.window_chain, scenario)
    extras = {}
    if optimization is not None:
        extras["residual_gdd_fs2"] = f"{optimization.residual_gdd_fs2:.17g}"
    extras["bandwidth_fwhm_nm"] = f"{spdc.bandwidth_fwhm_nm(amplitude):.17g}"
    extras["peak_to_mean_80fs"] = f"{delayscan.peak_to_mean_ratio(tr):.17g}"
    ref = None
    if scenario.kernel == KERNEL_V_MASK:
        ref = delayscan.trace(
            amplitude, KERNEL_SIGNAL_DELAY, scenario.tau_span_fs, scenario.tau_step_fs
        )
        ref_m = delayscan.metrics(ref)
        defined = tm.fwhm_fs is not None and ref_m.fwhm_fs is not None
        ratio = tm.fwhm_fs / ref_m.fwhm_fs if defined else None
        extras["signal_delay_fwhm_fs"] = delayscan.format_width(ref_m.fwhm_fs)
        extras["fwhm_ratio_vmask"] = delayscan.format_width(ratio)

    extras["rate_zero_delay"] = f"{delayscan.rate_at_zero_delay(amplitude):.17g}"
    if scenario.kernel == KERNEL_SIGNAL_DELAY:
        extras["parseval_discrepancy"] = f"{delayscan.parseval_check(amplitude, tr):.3e}"

    # every stage has run: a failure above leaves no output directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if optimization is not None:
        dispersionopt.write_optimization(optimization, out)
    if ref is not None:
        delayscan.write_trace_csv(ref, out / "trace_signal.csv")
    spdc.write_spectrum_csv(amplitude, out / "spectrum.csv")
    delayscan.write_trace_csv(tr, out / "trace.csv")
    delayscan.write_metrics_txt(tm, out / "metrics.txt", extras)
    # the log artifact carries only run content, never absolute paths, so
    # identical scenarios produce byte-identical output trees
    (out / "run.log").write_text("\n".join(stages.log_lines) + "\n", encoding="utf-8")
    if log is not None:
        log(f"artifacts in {out}")
    return RunResult(scenario, amplitude, tr, tm, extras, optimization)


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
    must equal the optimum scenario except in its name, its [window],
    which may hold only slabs, and its [delay]. Also runs the v-mask
    width-ratio check on the bundled Gaussian spectrum.
    """
    log = log or (lambda msg: None)
    ladder = [(case, load_scenario(name)) for case, name in FIG3_LADDER]
    reference = ladder[0][1]
    for _, sc in ladder:
        rung = replace(
            sc, name=reference.name, window_elements=reference.window_elements,
            kernel=reference.kernel, tau_span_fs=reference.tau_span_fs,
            tau_step_fs=reference.tau_step_fs,
        )
        if rung != reference or not all(isinstance(e, Slab) for e in sc.window_elements):
            raise ValidationError(
                f"{sc.name}: a ladder scenario must share the kernel and optimum "
                f"of {reference.name} and add only slabs"
            )
    stages = run_stages(reference, grid_scale)
    optimization = stages.optimization
    if optimization is None or optimization.edge_solution:
        raise ValidationError(
            f"{reference.name}: the ladder needs a dispersion optimum inside the scan bracket"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log(
        f"optimum correction {optimization.optimal_value:.2f} fs^2, residual "
        f"{optimization.residual_gdd_fs2:.2f} fs^2"
    )

    rows = []
    for case, sc in ladder:
        lam = 2.0 * sc.pump_wavelength_nm
        added_gdd = sum((group_delay_dispersion(e.material, e.thickness_mm, lam, e.temperature_C)
                         for e in sc.window_elements), 0.0)
        _, tr, tm = trace_window(stages, ElementChain(sc.window_elements), sc)
        delayscan.write_trace_csv(tr, out / f"{case}.csv")
        rows.append(dict(
            case=case, added_gdd_fs2=added_gdd, fwhm_fs=tm.fwhm_fs, peak_rate=tm.peak_rate,
            secondary_maxima_fs=tm.secondary_maxima_fs,
            peak_to_mean_80fs=delayscan.peak_to_mean_ratio(tr),
        ))
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
    rows.append(dict(
        case="gauss_vmask_ratio", added_gdd_fs2=0.0, fwhm_fs=gauss.trace_metrics.fwhm_fs,
        peak_rate=gauss.trace_metrics.peak_rate, secondary_maxima_fs=[],
        peak_to_mean_80fs=float(gauss.extras["fwhm_ratio_vmask"]),
    ))

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
        fh.write("".join(f"FLAG: {flag}\n" for flag in flags) or "all ladder checks passed\n")

    if refine_check:
        report = spdc.quadrature_refine(stages.built.config, radial_levels=stages.radial_levels)
        with open(out / "convergence.txt", "w", encoding="utf-8") as fh:
            fh.write("shared kernel for all ladder cases\n")
            fh.write("\n".join(report.lines()) + "\n")
        if not report.passed:
            raise ValidationError("quadrature refinement exceeded its threshold")

    return {"rows": rows, "flags": flags, "optimization": optimization}
