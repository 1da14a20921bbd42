"""Spectral amplitude of the upconverting pair, S(w_s).

For each signal frequency the transverse-plane integral reduces to a radial
one: the mismatch depends on k_perp only through its magnitude and the
annular pupil is azimuth-invariant, so

    S(w_s) = 2 pi  int k dk  sinc(b1) sinc(b2)
             * exp(i [phi_s(w_s) + phi_i(w_p - w_s)])

with b = delta_kz L / 2 evaluated in the downconversion (b1) and
upconversion (b2) crystals, both at w_i = w_p - w_s, k_i_perp = -k_s_perp.
The phasematching factors are real: with the conversion integrals
referenced to the crystal centers and the relay optics imaging one center
onto the other, the transverse propagation phase between the reference
planes cancels, and the pair's accumulated dispersion is carried entirely
by the center-to-center spectral phases phi_s, phi_i. That common factor
is applied outside the k integral exactly, so |S| never depends on it.

The pupil bounds the radial domain per sample: a photon of frequency w is
accepted for external angles theta_min..theta_max, so k runs from
sin(theta_min) max(w_s, w_i)/c to sin(theta_max) min(w_s, w_i)/c.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ValidationError
from .materials import SpectralPhase, refractive_index
from .phasematch import CrystalSpec
from .units import C_UM_FS, wavelength_nm_from_omega

QUADRATURE_RTOL = 1e-3  # relative change allowed between radial refinements
EDGE_FLOOR = 1e-3       # |S| at the grid edge must stay below this times peak


@dataclass(frozen=True)
class PupilSpec:
    """Annular acceptance cone in external half-angle [rad]."""

    theta_min_ext_rad: float
    theta_max_ext_rad: float

    def __post_init__(self):
        if not 0.0 <= self.theta_min_ext_rad < self.theta_max_ext_rad <= 0.1:
            raise ValidationError(
                "pupil angles must satisfy 0 <= theta_min < theta_max <= 0.1 rad"
            )


@dataclass(frozen=True)
class GridSpec:
    """Frequency and radial sampling of the S(w_s) evaluation."""

    omega_points: int = 2048
    omega_half_span: float = 0.55  # rad/fs around the degenerate frequency
    radial_points: int = 256

    def __post_init__(self):
        if self.omega_points < 16 or self.radial_points < 4:
            raise ValidationError("grid too small")
        if self.omega_half_span <= 0:
            raise ValidationError("omega_half_span must be > 0")

    def omega_grid(self, pump_omega):
        """Uniform grid centered exactly on w_p/2, symmetric sample layout."""
        n = self.omega_points
        step = 2.0 * self.omega_half_span / (n - 1)
        offsets = (np.arange(n) - (n - 1) / 2.0) * step
        return pump_omega / 2.0 + offsets

    def scaled(self, factor):
        """Grid with both sample counts scaled by a factor (for overrides)."""
        if not 0.0 < factor < float("inf"):
            raise ValidationError(f"grid scale must be finite and > 0, got {factor!r}")
        return replace(
            self,
            omega_points=max(16, int(round(self.omega_points * factor))),
            radial_points=max(4, int(round(self.radial_points * factor))),
        )


@dataclass(frozen=True)
class SpdcConfig:
    """Everything the k-space kernel integral needs."""

    dc_crystal: CrystalSpec
    uc_crystal: CrystalSpec
    pupil: PupilSpec
    pump_omega: float
    grid: GridSpec = GridSpec()

    def __post_init__(self):
        if self.pump_omega <= 0:
            raise ValidationError("pump_omega must be > 0")


@dataclass
class SpectralAmplitude:
    """Complex S on a uniform frequency grid centered on w_p/2."""

    omega_grid: np.ndarray
    values: np.ndarray
    pump_omega: float

    def __post_init__(self):
        self.omega_grid = np.asarray(self.omega_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.omega_grid.ndim != 1 or self.values.shape != self.omega_grid.shape:
            raise ValidationError("omega grid and values must be matching 1-d arrays")
        steps = np.diff(self.omega_grid)
        if not (np.all(steps > 0) and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
            raise ValidationError("omega grid must be uniform and increasing")
        center = 0.5 * (self.omega_grid[0] + self.omega_grid[-1])
        if abs(center - self.pump_omega / 2.0) > 1e-9:
            raise ValidationError("grid must be centered on half the pump frequency")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("spectral amplitude contains non-finite values")

    @property
    def domega(self):
        return float(self.omega_grid[1] - self.omega_grid[0])


def _crystal_kernel(crystal, omega_grid, k_perp, pump_omega):
    """sinc(beta) for one crystal over (omega, k) sample blocks."""
    lam_nm = wavelength_nm_from_omega(omega_grid)
    n = refractive_index(crystal.material, lam_nm, crystal.temperature_C)
    k_s = n * omega_grid / C_UM_FS          # full wavevector at w_s
    k_i = k_s[::-1]                          # same curve at w_i = w_p - w_s
    n_p = refractive_index(
        crystal.material, wavelength_nm_from_omega(pump_omega), crystal.temperature_C
    )
    k_p = n_p * pump_omega / C_UM_FS
    kz_s = np.sqrt(k_s[:, None] ** 2 - k_perp ** 2)
    kz_i = np.sqrt(k_i[:, None] ** 2 - k_perp ** 2)
    dk = k_p - kz_s - kz_i - crystal.grating_k
    beta = dk * (crystal.length_mm * 1000.0) / 2.0
    return np.sinc(beta / np.pi)


def _bare_amplitude(config, radial_points):
    """Kernel integral with zero added spectral phase, fixed radial order."""
    grid = config.grid.omega_grid(config.pump_omega)
    omega_i = grid[::-1]
    sin_lo = np.sin(config.pupil.theta_min_ext_rad)
    sin_hi = np.sin(config.pupil.theta_max_ext_rad)
    k_lo = sin_lo * np.maximum(grid, omega_i) / C_UM_FS
    k_hi = sin_hi * np.minimum(grid, omega_i) / C_UM_FS
    width = k_hi - k_lo
    open_pupil = width > 0
    nodes, weights = np.polynomial.legendre.leggauss(radial_points)
    # map nodes onto [k_lo, k_hi] per frequency sample; closed rows get a
    # degenerate map and are zeroed afterwards
    half = 0.5 * np.where(open_pupil, width, 0.0)
    mid = np.where(open_pupil, 0.5 * (k_lo + k_hi), k_lo)
    k = mid[:, None] + half[:, None] * nodes[None, :]

    s1 = _crystal_kernel(config.dc_crystal, grid, k, config.pump_omega)
    s2 = _crystal_kernel(config.uc_crystal, grid, k, config.pump_omega)
    integrand = s1 * s2 * k
    values = 2.0 * np.pi * half * (integrand * weights[None, :]).sum(axis=1)
    values = values.astype(complex)
    values[~open_pupil] = 0.0
    return SpectralAmplitude(grid, values, config.pump_omega)


def gaussian_amplitude(config, sigma):
    """Gaussian test spectrum |S| = exp(-d^2 / 4 sigma^2), d = w - w_p/2, on the
    config's frequency grid; sigma is the intensity std in rad/fs."""
    if not sigma > 0:
        raise ValidationError("gaussian_sigma must be > 0")
    grid = config.grid.omega_grid(config.pump_omega)
    delta = grid - config.pump_omega / 2.0
    values = np.exp(-(delta ** 2) / (4.0 * sigma ** 2))
    return SpectralAmplitude(grid, values.astype(complex), config.pump_omega)


def _relative_change(coarse, fine):
    scale = np.max(np.abs(fine.values))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(fine.values - coarse.values)) / scale)


def kernel_amplitude(config, radial_levels=None):
    """S(w_s) for zero added spectral phase, radially converged.

    Computes the integral at the configured radial order and at twice that
    order; raises ConvergenceError (carrying the finer estimate) if they
    disagree by more than 0.1% of the peak. Also enforces that the grid is
    wide enough for the spectrum to decay at the edges. When a dict is
    given as radial_levels, both evaluations are stored in it by radial
    order, for quadrature_refine to reuse.
    """
    coarse = _bare_amplitude(config, config.grid.radial_points)
    fine = _bare_amplitude(config, 2 * config.grid.radial_points)
    if radial_levels is not None:
        radial_levels[config.grid.radial_points] = coarse
        radial_levels[2 * config.grid.radial_points] = fine
    change = _relative_change(coarse, fine)
    if change > QUADRATURE_RTOL:
        raise ConvergenceError(
            f"radial quadrature changed by {change:.2e} on refinement "
            f"({config.grid.radial_points} -> {2 * config.grid.radial_points} points)",
            estimate=fine,
        )
    peak = np.max(np.abs(fine.values))
    edge = max(abs(fine.values[0]), abs(fine.values[-1]))
    if peak > 0 and edge > EDGE_FLOOR * peak:
        raise ValidationError(
            f"omega grid too narrow: edge magnitude {edge / peak:.2e} of peak"
        )
    return fine


def apply_spectral_phase(amplitude, phi_s, phi_i):
    """Multiply S by exp(i [phi_s(w_s) + phi_i(w_p - w_s)]).

    Phases are arrays (or SpectralPhase) sampled on the amplitude's own
    grid; the idler argument w_p - w_s lands exactly on the reflected grid,
    so the idler phase is the reversed array. |S| is untouched.
    """
    phi_s = phi_s.phase if isinstance(phi_s, SpectralPhase) else np.asarray(phi_s, float)
    phi_i = phi_i.phase if isinstance(phi_i, SpectralPhase) else np.asarray(phi_i, float)
    if phi_s.shape != amplitude.omega_grid.shape or phi_i.shape != phi_s.shape:
        raise ValidationError("spectral phases must be sampled on the amplitude grid")
    if not (np.all(np.isfinite(phi_s)) and np.all(np.isfinite(phi_i))):
        raise ValidationError("spectral phases must be finite")
    total = phi_s + phi_i[::-1]
    return SpectralAmplitude(
        amplitude.omega_grid,
        amplitude.values * np.exp(1j * total),
        amplitude.pump_omega,
    )


@dataclass
class ConvergenceReport:
    """Relative changes per refinement doubling, radial and frequency."""

    radial_steps: list
    omega_steps: list
    threshold: float = QUADRATURE_RTOL

    @property
    def passed(self):
        final = []
        if self.radial_steps:
            final.append(self.radial_steps[-1][1])
        if self.omega_steps:
            final.append(self.omega_steps[-1][1])
        return bool(final) and max(final) < self.threshold

    def lines(self):
        out = []
        for pts, change in self.radial_steps:
            out.append(f"radial {pts:>6d} -> {2 * pts:<6d} max-change {change:.3e}")
        for pts, change in self.omega_steps:
            out.append(f"omega  {pts:>6d} -> {2 * pts - 1:<6d} max-change {change:.3e}")
        out.append(f"threshold {self.threshold:.1e}  passed {self.passed}")
        return out


def quadrature_refine(config, levels=2, radial_levels=None):
    """Refinement ladder: double radial and frequency sampling independently.

    Report-only; each entry is (points_before, max relative change against
    the doubled evaluation, measured against the finer peak). radial_levels
    maps radial orders to evaluations on the configured frequency grid that
    are already computed, as kernel_amplitude stores them; each missing
    level is computed once.
    """
    if levels < 2:
        raise ValidationError("levels must be >= 2")
    known = dict(radial_levels or {})

    def radial(pts):
        if pts not in known:
            known[pts] = _bare_amplitude(config, pts)
        return known[pts]

    radial_steps = []
    pts = config.grid.radial_points
    for _ in range(levels - 1):
        radial_steps.append((pts, _relative_change(radial(pts), radial(2 * pts))))
        pts *= 2

    # frequency samples are computed independently, so refining the grid
    # cannot move existing values; resolution is judged by how well the
    # coarse sampling interpolates the newly exposed midpoints
    omega_steps = []
    n = config.grid.omega_points
    prev = radial(config.grid.radial_points)
    for _ in range(levels - 1):
        n_fine = 2 * n - 1  # half spacing, same span: old samples are a subset
        cfg = replace(config, grid=replace(config.grid, omega_points=n_fine))
        fine = _bare_amplitude(cfg, config.grid.radial_points)
        midpoints = fine.values[1::2]
        interpolated = 0.5 * (prev.values[:-1] + prev.values[1:])
        change = float(
            np.max(np.abs(interpolated - midpoints)) / np.max(np.abs(fine.values))
        )
        omega_steps.append((n, change))
        n = n_fine
        prev = fine
    return ConvergenceReport(radial_steps, omega_steps)


def bandwidth_fwhm_nm(amplitude):
    """Single-photon bandwidth: FWHM of the spectral marginal, in nm.

    For matched crystals the kernel integral equals the incoherent
    marginal of the pair amplitude over the accepted cone, so |S| is the
    photon spectrum itself; its full width at half maximum is read in
    wavelength by linear interpolation.
    """
    power = np.abs(amplitude.values)
    i_pk = int(np.argmax(power))
    half = power[i_pk] / 2.0
    grid = amplitude.omega_grid

    def crossing(idx_range):
        for i in idx_range:
            lo, hi = power[i], power[i + 1]
            if (lo - half) * (hi - half) <= 0 and lo != hi:
                return grid[i] + (half - lo) / (hi - lo) * (grid[i + 1] - grid[i])
        return None

    w_left = crossing(range(i_pk - 1, -1, -1))
    w_right = crossing(range(i_pk, grid.size - 1))
    if w_left is None or w_right is None:
        raise ValidationError("spectrum has no half-maximum crossings on the grid")
    lam_hi = wavelength_nm_from_omega(w_left)
    lam_lo = wavelength_nm_from_omega(w_right)
    return float(lam_hi - lam_lo)


def write_spectrum_csv(amplitude, path):
    """Dump S(w): omega, wavelength, real, imaginary, squared magnitude."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega_rad_per_fs,wavelength_nm,re_S,im_S,abs2_S\n")
        for w, v in zip(amplitude.omega_grid, amplitude.values):
            lam = wavelength_nm_from_omega(w)
            fh.write(
                f"{w:.17g},{lam:.17g},{v.real:.17g},{v.imag:.17g},{abs(v) ** 2:.17g}\n"
            )
