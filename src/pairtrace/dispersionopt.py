"""System spectral phase from configured elements, and the dispersion
optimizer that maximizes the zero-delay rate.

Elements: plane slabs (crystal halves, windows), a four-prism compressor
at Brewster incidence and minimum deviation (two tip-to-tip pairs), and an
abstract polynomial phase correction. The compressor's angular term gives
negative curvature growing with apex separation; its glass insertion adds
ordinary material phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .materials import (
    MaterialModel,
    refractive_index,
    spectral_phase_of_slab,
    taylor_fit,
    taylor_window,
)
from .units import C_UM_FS, wavelength_nm_from_omega

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 41      # knob values of the scan before golden-section refinement
CERTIFY_STEPS = 5.0   # knob tolerances stepped off the optimum to certify it

KNOB_CORRECTION = "correction_gdd_fs2"
KNOB_INSERTION = "insertion_mm"
KNOB_TOLERANCES = {KNOB_CORRECTION: 0.5, KNOB_INSERTION: 0.01}


@dataclass(frozen=True)
class Slab:
    """Plane parallel plate crossed once at normal incidence."""

    material: MaterialModel
    thickness_mm: float
    temperature_C: float = 20.0

    def __post_init__(self):
        if self.thickness_mm < 0:
            raise ValidationError("slab thickness must be >= 0")

    def phase(self, omega_grid, center_omega):
        return spectral_phase_of_slab(
            self.material, self.thickness_mm, omega_grid, self.temperature_C
        )


@dataclass(frozen=True)
class PrismCompressor:
    """Four Brewster prisms as two symmetric pairs.

    apex_separation_mm is the tip-to-tip distance within each pair;
    insertion_mm is the glass path per prism. The ray enters each prism at
    the Brewster angle of the design wavelength and at minimum deviation,
    so the angular dispersion of the deviation angle is exactly 2 dn/dlam.
    """

    glass: MaterialModel
    apex_separation_mm: float
    insertion_mm: float | None   # None = solve for curvature compensation later
    design_wavelength_nm: float = 1064.0

    def __post_init__(self):
        if self.apex_separation_mm < 0:
            raise ValidationError("compressor apex separation must be >= 0")
        if self.insertion_mm is not None and self.insertion_mm < 0:
            raise ValidationError("compressor insertion must be >= 0")

    def phase(self, omega_grid, center_omega):
        if self.insertion_mm is None:
            raise ValidationError("compressor insertion is unresolved ('auto')")
        lam_nm = wavelength_nm_from_omega(omega_grid)
        n0 = refractive_index(self.glass, self.design_wavelength_nm)
        theta_b = np.arctan(n0)
        apex = 2.0 * np.arcsin(np.sin(theta_b) / n0)
        n = refractive_index(self.glass, lam_nm)
        t1 = np.arcsin(np.sin(theta_b) / n)     # internal angle, first face
        t2 = apex - t1                           # internal angle, second face
        exit_angle = np.arcsin(np.clip(n * np.sin(t2), -1.0, 1.0))
        deviation = theta_b + exit_angle - apex
        deviation0 = 2.0 * theta_b - apex
        beam_angle = deviation - deviation0      # zero at the design wavelength
        # two pairs, each contributing apex-to-apex path l cos(beam_angle)
        path_um = 2.0 * self.apex_separation_mm * 1000.0 * np.cos(beam_angle)
        angular = omega_grid * path_um / C_UM_FS
        glass_path_mm = 4 * self.insertion_mm    # one insertion per prism
        material = spectral_phase_of_slab(self.glass, glass_path_mm, omega_grid)
        return angular + material


@dataclass(frozen=True)
class PhaseCorrection:
    """Polynomial spectral phase about the degenerate frequency."""

    gdd_fs2: float = 0.0
    tod_fs3: float = 0.0
    quartic_fs4: float = 0.0

    def phase(self, omega_grid, center_omega):
        d = omega_grid - center_omega
        return (
            self.gdd_fs2 / 2.0 * d ** 2
            + self.tod_fs3 / 6.0 * d ** 3
            + self.quartic_fs4 / 24.0 * d ** 4
        )


@dataclass(frozen=True)
class ElementChain:
    """Ordered dispersive elements; the chain phase is their scalar sum."""

    elements: tuple = ()

    def phase(self, omega_grid, center_omega):
        omega_grid = np.asarray(omega_grid, dtype=float)
        total = np.zeros_like(omega_grid)
        for element in self.elements:
            total = total + element.phase(omega_grid, center_omega)
        return total

    def extended(self, *extra):
        return ElementChain(self.elements + tuple(extra))


def chain_phase(chain, omega_grid, center_omega):
    """Chain phase [rad] on the given grid."""
    return chain.phase(omega_grid, center_omega)


def chain_gdd_fs2(chain, omega_grid, center_omega):
    """Curvature of the chain phase at the center frequency [fs^2].

    The chain is evaluated only on the taylor_window samples that the fit
    reads; elementwise evaluation gives them the bits they have on the
    full grid, so the result is taylor_dispersion's on the full phase.
    """
    grid = np.asarray(omega_grid, dtype=float)
    window = grid[taylor_window(grid, center_omega, 2)]
    phase = chain.phase(window, center_omega)
    return taylor_fit(window - center_omega, phase, 2)[1]


@dataclass
class OptimizationResult:
    knob: str
    optimal_value: float
    residual_gdd_fs2: float
    peak_rate: float
    scan_record: list
    edge_solution: bool
    tolerance: float


def with_knob(chain, knob, value):
    if knob == KNOB_CORRECTION:
        return chain.extended(PhaseCorrection(gdd_fs2=value))
    if knob == KNOB_INSERTION:
        compressors = [
            i for i, e in enumerate(chain.elements) if isinstance(e, PrismCompressor)
        ]
        if len(compressors) != 1:
            raise ValidationError(
                "insertion knob needs exactly one prism compressor in the chain"
            )
        if value < 0:
            raise ValidationError("insertion must be >= 0")
        elements = list(chain.elements)
        elements[compressors[0]] = replace(elements[compressors[0]], insertion_mm=value)
        return ElementChain(tuple(elements))
    raise ValidationError(f"unknown dispersion knob {knob!r}")


def knob_objective(amplitude, base_chain, knob):
    """R(0) as a function of the knob value, phases applied to a fixed kernel.

    The chain phase is affine in either knob, phi0 + value * direction: the
    correction adds value (w - w0)^2 / 2, and the glass phase is linear in
    the insertion. So the chain is evaluated once per objective (twice for
    the insertion direction) and each call only applies the phase.

    The pair phase total_k = phi_k + phi_(n-1-k) is symmetric, so R(0) =
    |sum_(k<m) F_k exp(i total_k) dw|^2 over the first m = ceil(n/2)
    samples, with F_k = S_k + S_(n-1-k) (the centre sample of an odd grid
    counted once). Each total_k is the float sum that apply_spectral_phase
    forms, bit for bit; only F and the final sum round differently.
    """
    grid = amplitude.omega_grid
    center = amplitude.pump_omega / 2.0
    if knob == KNOB_CORRECTION:
        phi0 = base_chain.phase(grid, center)
        direction = (grid - center) ** 2 / 2.0
    else:
        phi0 = with_knob(base_chain, knob, 0.0).phase(grid, center)
        direction = with_knob(base_chain, knob, 1.0).phase(grid, center) - phi0
    m = (grid.size + 1) // 2
    lo0, lod = phi0[:m], direction[:m]
    hi0, hid = phi0[::-1][:m].copy(), direction[::-1][:m].copy()
    values = amplitude.values
    folded = values[:m] + values[::-1][:m]
    if grid.size % 2:
        folded[-1] = values[m - 1]
    domega = amplitude.domega

    def objective(value):
        if knob == KNOB_INSERTION and value < 0:
            raise ValidationError("insertion must be >= 0")
        total = (lo0 + value * lod) + (hi0 + value * hid)
        rate = float(np.abs(np.dot(folded, np.exp(1j * total)) * domega) ** 2)
        if not np.isfinite(rate):
            raise ValidationError("spectral phases must be finite")
        return rate

    return objective


def knob_bracket(knob, bracket):
    """The scan bracket (lo, hi) as floats: lo < hi, and lo >= 0 for the insertion."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValidationError("empty optimization bracket")
    if knob == KNOB_INSERTION and lo < 0:
        raise ValidationError(f"insertion bracket must start at >= 0 mm, got {lo:g}")
    return lo, hi


def optimize_dispersion(amplitude, base_chain, knob, bracket):
    """Scan then golden-section refine the knob that maximizes R(0).

    The scan is SCAN_POINTS evenly spaced values over the bracket; if its
    maximum sits on a bracket edge the result is flagged and returned
    unrefined. Residual GDD is the curvature of the full chain (knob
    applied) at the degenerate frequency.
    """
    lo, hi = knob_bracket(knob, bracket)
    objective = knob_objective(amplitude, base_chain, knob)
    tol = KNOB_TOLERANCES[knob]

    values = np.linspace(lo, hi, SCAN_POINTS)
    rates = [objective(v) for v in values]
    record = list(zip(values.tolist(), rates))
    i_best = int(np.argmax(rates))
    edge = i_best in (0, SCAN_POINTS - 1)
    if edge:
        best, rate = float(values[i_best]), rates[i_best]
    else:
        a, b = float(values[i_best - 1]), float(values[i_best + 1])
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = objective(c), objective(d)
        while (b - a) > tol:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - GOLDEN * (b - a)
                fc = objective(c)
            else:
                a, c, fc = c, d, fd
                d = a + GOLDEN * (b - a)
                fd = objective(d)
        best = 0.5 * (a + b)
        rate = objective(best)
    chain = with_knob(base_chain, knob, best)
    gdd = chain_gdd_fs2(chain, amplitude.omega_grid, amplitude.pump_omega / 2.0)
    return OptimizationResult(knob, best, gdd, rate, record, edge, tol)


def certify_local_maximum(amplitude, base_chain, result):
    """True when stepping the knob +-CERTIFY_STEPS tolerances off the
    optimum strictly decreases R(0)."""
    objective = knob_objective(amplitude, base_chain, result.knob)
    step = CERTIFY_STEPS * result.tolerance
    center = objective(result.optimal_value)
    return (
        objective(result.optimal_value - step) < center
        and objective(result.optimal_value + step) < center
    )


def solve_compensating_insertion(amplitude_grid, center_omega, base_chain):
    """Insertion [mm per prism] that zeroes the chain curvature at center.

    The glass phase is linear in thickness, so the chain GDD is affine in
    the insertion and two chain evaluations give its root in closed form.
    Used to seed the default scenario with a roughly compensated compressor.
    """
    def gdd(value):
        chain = with_knob(base_chain, KNOB_INSERTION, value)
        return chain_gdd_fs2(chain, amplitude_grid, center_omega)

    g0, g1 = gdd(0.0), gdd(1.0)
    if not g1 > g0:
        raise ValidationError(
            f"insertion does not raise the chain curvature: "
            f"gdd(0) = {g0:.1f}, gdd(1) = {g1:.1f} fs^2"
        )
    value = -g0 / (g1 - g0)
    if value < 0:
        raise ValidationError(
            f"chain curvature is positive with no insertion: gdd(0) = {g0:.1f} fs^2"
        )
    return value


def write_optimization(result, out):
    """optimization.txt and scan.csv of an optimization into the directory
    out; returns the lines of optimization.txt."""
    lines = [
        f"knob={result.knob}",
        f"optimal_value={result.optimal_value:.17g}",
        f"residual_gdd_fs2={result.residual_gdd_fs2:.17g}",
        f"peak_rate={result.peak_rate:.17g}",
        f"edge_solution={str(result.edge_solution).lower()}",
        f"tolerance={result.tolerance:.17g}",
    ]
    (out / "optimization.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_scan_csv(result, out / "scan.csv")
    return lines


def write_scan_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("knob_value,rate_at_zero_delay\n")
        cells = tuple(x for row in result.scan_record for x in row)
        fh.write("%.17g,%.17g\n" * len(result.scan_record) % cells)
