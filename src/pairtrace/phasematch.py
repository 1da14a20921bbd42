"""Wavevector geometry and quasi-phasematching.

The axial mismatch delta_kz = k_pz - k_sz - k_iz - k_g inside the poled
crystal, the closed-form poling period and a bracketed solver for the
degenerate axial phasematching temperature. Transverse wavevector
components are conserved across the crystal face, so external angles map
to k_perp through the vacuum dispersion alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .materials import MaterialModel, refractive_index
from .units import C_UM_FS, wavelength_nm_from_omega

POLING_BRACKET_UM = (3.0, 40.0)
TEMPERATURE_BRACKET_C = (20.0, 200.0)
SOLVER_TOL_RAD_UM = 1e-10


@dataclass(frozen=True)
class CrystalSpec:
    """A periodically poled crystal at a set temperature."""

    material: MaterialModel
    length_mm: float
    poling_period_um: float
    temperature_C: float

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ValidationError("crystal length_mm must be > 0")
        if self.poling_period_um <= 0:
            raise ValidationError("crystal poling_period_um must be > 0")

    @property
    def grating_k(self):
        """Poling grating wavenumber 2 pi / Lambda [rad/um]."""
        return 2.0 * np.pi / self.poling_period_um


def _k_full(omega, crystal):
    n = refractive_index(
        crystal.material, wavelength_nm_from_omega(omega), crystal.temperature_C
    )
    return n * omega / C_UM_FS


def axial_mismatch(k_p, k_s, k_i, k_perp_sq, grating_k):
    """k_pz - k_sz - k_iz - k_g [rad/um] from the full wavevectors of pump,
    signal and idler, the squared transverse wavevector they share (the
    pump is axial) and the grating wavenumber. Broadcasts."""
    return k_p - np.sqrt(k_s * k_s - k_perp_sq) - np.sqrt(k_i * k_i - k_perp_sq) - grating_k


def delta_kz(omega_s, k_perp, crystal, pump_omega):
    """Axial mismatch k_pz - k_sz - k_iz - k_g [rad/um].

    The idler is pinned by energy and transverse momentum conservation,
    w_i = w_p - w_s and k_i_perp = -k_s_perp; the pump is axial. Accepts
    scalars or broadcastable arrays.
    """
    omega_s = np.asarray(omega_s, dtype=float)
    k_perp = np.asarray(k_perp, dtype=float)
    omega_i = pump_omega - omega_s
    ks = _k_full(omega_s, crystal)
    ki = _k_full(omega_i, crystal)
    kp = _k_full(pump_omega, crystal)
    if np.any(k_perp >= ks) or np.any(k_perp >= ki):
        raise ValidationError("evanescent mode in delta_kz")
    out = axial_mismatch(kp, ks, ki, k_perp ** 2, crystal.grating_k)
    if out.ndim == 0:
        return float(out)
    return out


def _bisect(f, lo, hi, what):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise SolverError(
            f"no sign change bracketing {what}: f({lo:g}) = {flo:.6e}, "
            f"f({hi:g}) = {fhi:.6e}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < 1e-14 * max(1.0, abs(mid)):
            break
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_poling_period(material, pump_omega, temperature_C, bracket_um=POLING_BRACKET_UM):
    """Poling period [um] for degenerate axial phasematching at temperature.

    The mismatch is affine in the grating wavenumber, k_p - 2 k_s - 2 pi / L,
    so the period is 2 pi over the mismatch of an unpoled crystal. The
    bracket is the window of accepted periods.
    """
    lo, hi = bracket_um
    if not 0 < lo < hi:
        raise ValidationError(
            f"poling-period window must satisfy 0 < lo < hi, got ({lo:g}, {hi:g})"
        )
    unpoled = CrystalSpec(material, 1.0, np.inf, temperature_C)   # grating_k = 0
    free_mismatch = delta_kz(pump_omega / 2.0, 0.0, unpoled, pump_omega)
    if not (free_mismatch > 0 and lo <= 2.0 * np.pi / free_mismatch <= hi):
        flo = free_mismatch - 2.0 * np.pi / lo
        fhi = free_mismatch - 2.0 * np.pi / hi
        raise SolverError(
            f"no sign change bracketing poling period: f({lo:g}) = {flo:.6e}, "
            f"f({hi:g}) = {fhi:.6e}"
        )
    return float(2.0 * np.pi / free_mismatch)


def solve_phasematch_temperature(crystal, pump_omega):
    """Temperature [deg C] in TEMPERATURE_BRACKET_C where the axial
    degenerate mismatch vanishes."""

    def mismatch(temperature_C):
        spec = CrystalSpec(
            crystal.material, crystal.length_mm, crystal.poling_period_um, temperature_C
        )
        return delta_kz(pump_omega / 2.0, 0.0, spec, pump_omega)

    temperature = _bisect(mismatch, *TEMPERATURE_BRACKET_C, "phasematch temperature")
    residual = mismatch(temperature)
    if abs(residual) > SOLVER_TOL_RAD_UM:
        raise SolverError(
            f"temperature refinement stalled with residual {residual:.3e} rad/um"
        )
    return float(temperature)
