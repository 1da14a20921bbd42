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

The radial integral is a Gauss-Legendre rule in u = k^2 (k dk = du/2), on
which the mismatch is nearly linear. Its order adapts: it starts at 8 nodes
and doubles until two successive orders agree within QUADRATURE_RTOL, with
the grid's radial_points as the cap. It is evaluated in blocks of
frequency rows of about KERNEL_BLOCK_SAMPLES (w, node) samples, so its
memory does not grow with the radial order; when the two crystals are
equal, one sinc factor serves both, computed as sin(b) / b.

The integrand is exchange-symmetric: w_s -> w_p - w_s swaps k_s and k_i
and leaves the pupil bounds as they are, so S(w_p/2 + d) = S(w_p/2 - d).
The grid is centered on w_p/2, so only the lower half of its rows (with
the center row of an odd grid) is integrated, and the upper half is their
mirror image; every kernel is mirror-symmetric to the bit.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ValidationError
from .materials import refractive_index
from .phasematch import CrystalSpec, axial_mismatch
from .units import C_UM_FS, wavelength_nm_from_omega

QUADRATURE_RTOL = 1e-3  # relative change allowed between radial refinements
EDGE_FLOOR = 1e-3       # |S| at the grid edge must stay below this times peak
# work cap on omega_points x radial_points: it bounds the work of the final
# radial doubling; memory is O(omega) plus one block of the radial integral
MAX_GRID_SAMPLES = 2 ** 24
KERNEL_BLOCK_SAMPLES = 2 ** 13  # (omega, node) samples per block of the radial integral


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
    radial_points: int = 256       # cap of the adaptive radial order

    def __post_init__(self):
        if self.omega_points < 16:
            raise ValidationError("grid too small: omega_points must be >= 16")
        if self.radial_points < 4:
            raise ValidationError("grid too small: radial_points must be >= 4")
        if self.omega_points * self.radial_points > MAX_GRID_SAMPLES:
            raise ValidationError(
                f"grid of {self.omega_points} x {self.radial_points} omega x radial "
                f"points exceeds the work cap of {MAX_GRID_SAMPLES} samples"
            )
        if self.omega_half_span <= 0:
            raise ValidationError("omega_half_span must be > 0")

    @property
    def omega_step(self):
        """Spacing of omega_grid in rad/fs."""
        return 2.0 * self.omega_half_span / (self.omega_points - 1)

    def check_pump(self, pump_omega):
        """The grid and its idler partners w_p - w hold only positive frequencies."""
        if not self.omega_half_span < pump_omega / 2.0:
            raise ValidationError(
                f"omega_half_span {self.omega_half_span:.4g} rad/fs must be < "
                f"w_p/2 = {pump_omega / 2.0:.4g} rad/fs"
            )

    def omega_grid(self, pump_omega):
        """Uniform grid centered exactly on w_p/2, symmetric sample layout."""
        self.check_pump(pump_omega)
        n = self.omega_points
        step = self.omega_step
        offsets = (np.arange(n) - (n - 1) / 2.0) * step
        return pump_omega / 2.0 + offsets

    def scaled(self, factor):
        """Grid with both sample counts scaled by a factor (for overrides)."""
        if not 0.0 < factor < float("inf"):
            raise ValidationError(f"grid scale must be finite and > 0, got {factor!r}")
        # either count alone above the cap puts the grid over it; checked
        # before rounding, which an infinite count would overflow
        if max(self.omega_points, self.radial_points) * factor > MAX_GRID_SAMPLES:
            raise ValidationError(
                f"grid scale {factor:.4g} exceeds the work cap of {MAX_GRID_SAMPLES} samples"
            )
        return replace(
            self,
            omega_points=max(16, int(round(self.omega_points * factor))),
            radial_points=max(4, int(round(self.radial_points * factor))),
        )


@dataclass(frozen=True)
class SpdcConfig:
    """Everything the k-space kernel integral needs."""

    dc_crystal: CrystalSpec | None   # None for a Gaussian source, which has no kernel
    uc_crystal: CrystalSpec | None
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
    radial_step: tuple | None = None  # kernel_amplitude's last (coarser order, change)

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


def _wavevectors(crystal, omega_grid, pump_omega):
    """Full wavevectors in one crystal: k_s(w_s), k_i(w_p - w_s) and k_p."""
    lam_nm = wavelength_nm_from_omega(omega_grid)
    n = refractive_index(crystal.material, lam_nm, crystal.temperature_C)
    k_s = n * omega_grid / C_UM_FS          # full wavevector at w_s
    n_p = refractive_index(
        crystal.material, wavelength_nm_from_omega(pump_omega), crystal.temperature_C
    )
    # the idler is the same curve at w_i = w_p - w_s
    return k_s, k_s[::-1], n_p * pump_omega / C_UM_FS


def _crystal_kernel(crystal, waves, rows, k_perp_sq):
    """sin(beta) / beta for one crystal over the (omega, k_perp^2) samples
    of a block of frequency rows, from the crystal's _wavevectors; exactly
    1 where beta == 0."""
    k_s, k_i, k_p = waves
    beta = axial_mismatch(k_p, k_s[rows, None], k_i[rows, None], k_perp_sq, crystal.grating_k)
    beta *= crystal.length_mm * 500.0  # dk L / 2, with L in um
    out = np.sin(beta)
    with np.errstate(invalid="ignore"):
        out /= beta
    out[beta == 0.0] = 1.0
    return out


@functools.lru_cache(maxsize=16)
def _gauss_rule(n):
    """Gauss-Legendre nodes and weights of order n, as read-only arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _bare_amplitude(config, radial_points):
    """Kernel integral with zero added spectral phase, fixed radial order."""
    grid = config.grid.omega_grid(config.pump_omega)
    omega_i = grid[::-1]
    sin_lo = np.sin(config.pupil.theta_min_ext_rad)
    sin_hi = np.sin(config.pupil.theta_max_ext_rad)
    k_lo = sin_lo * np.maximum(grid, omega_i) / C_UM_FS
    k_hi = sin_hi * np.minimum(grid, omega_i) / C_UM_FS
    open_pupil = k_hi > k_lo
    nodes, weights = _gauss_rule(radial_points)
    # map nodes onto [k_lo^2, k_hi^2] per frequency sample; closed rows get
    # a degenerate map and are zeroed afterwards
    u_lo, u_hi = k_lo ** 2, k_hi ** 2
    half = 0.5 * np.where(open_pupil, u_hi - u_lo, 0.0)
    mid = np.where(open_pupil, 0.5 * (u_lo + u_hi), u_lo)
    dc, uc = config.dc_crystal, config.uc_crystal
    dc_waves, uc_waves = (_wavevectors(c, grid, config.pump_omega) for c in (dc, uc))
    matched = uc == dc
    # signal and idler swap under w -> w_p - w, which reverses the grid, so
    # only the lower rows (with the center row of an odd grid) are integrated
    n = grid.size
    lower = (n + 1) // 2
    step = max(1, KERNEL_BLOCK_SAMPLES // radial_points)
    sums = np.empty(n)
    for start in range(0, lower, step):
        rows = slice(start, min(start + step, lower))
        u = mid[rows, None] + half[rows, None] * nodes
        s1 = _crystal_kernel(dc, dc_waves, rows, u)
        s2 = s1 if matched else _crystal_kernel(uc, uc_waves, rows, u)
        sums[rows] = (s1 * s2 * weights).sum(axis=1)
    sums[n - lower:] = sums[lower - 1::-1]
    # 2 pi int k dk f = pi int du f
    values = np.pi * half * sums
    values = values.astype(complex)
    values[~open_pupil] = 0.0
    return SpectralAmplitude(grid, values, config.pump_omega)


def _edge_gate(edge, peak):
    """The grid must be wide enough for |S| to decay at its edges."""
    if peak > 0 and edge > EDGE_FLOOR * peak:
        raise ValidationError(f"omega grid too narrow: edge magnitude {edge / peak:.2e} of peak")


def check_gaussian_width(grid_spec, sigma):
    """The edge gate of kernel_amplitude for the Gaussian source, in closed
    form: |S| peaks at 1 on w_p/2 and the grid edge sits omega_half_span
    from it, so no sigma, however large, overflows."""
    if not sigma > 0:
        raise ValidationError("gaussian_sigma must be > 0")
    reach = grid_spec.omega_half_span / (2.0 * sigma)
    _edge_gate(np.exp(-reach * reach), 1.0)


def gaussian_amplitude(config, sigma):
    """Gaussian test spectrum |S| = exp(-d^2 / 4 sigma^2), d = w - w_p/2, on the
    config's frequency grid; sigma is the intensity std in rad/fs."""
    check_gaussian_width(config.grid, sigma)
    grid = config.grid.omega_grid(config.pump_omega)
    delta = grid - config.pump_omega / 2.0
    values = np.exp(-(delta ** 2) / (4.0 * sigma ** 2))
    return SpectralAmplitude(grid, values.astype(complex), config.pump_omega)


def _relative_change(coarse, fine):
    scale = np.max(np.abs(fine.values))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(fine.values - coarse.values)) / scale)


def kernel_amplitude(config):
    """S(w_s) for zero added spectral phase, radially converged.

    Starts at min(8, radial_points) radial nodes and doubles the order
    until two successive orders differ by at most QUADRATURE_RTOL of the
    peak, and returns the finer evaluation of that pair; a cap of
    radial_points off the doubling ladder is the last coarse order. The
    result records the pair as radial_step, (coarser order, change). If the
    gate still fails at radial_points -> 2 radial_points, raises
    ConvergenceError carrying the finer estimate. Also enforces that the
    grid is wide enough for the spectrum to decay at the edges.
    """
    cap = config.grid.radial_points
    pts = min(8, cap)
    coarse = _bare_amplitude(config, pts)
    while True:
        fine = _bare_amplitude(config, 2 * pts)
        change = _relative_change(coarse, fine)
        if change <= QUADRATURE_RTOL or pts >= cap:
            break
        pts, coarse = 2 * pts, fine
        if pts > cap:
            pts = cap
            coarse = _bare_amplitude(config, cap)
    fine.radial_step = (pts, change)
    if change > QUADRATURE_RTOL:
        raise ConvergenceError(
            f"radial quadrature changed by {change:.2e} on refinement "
            f"({pts} -> {2 * pts} points)",
            estimate=fine,
        )
    _edge_gate(max(abs(fine.values[0]), abs(fine.values[-1])), np.max(np.abs(fine.values)))
    return fine


def apply_spectral_phase(amplitude, phi_s, phi_i):
    """Multiply S by exp(i [phi_s(w_s) + phi_i(w_p - w_s)]).

    Phases are arrays sampled on the amplitude's own grid; the idler
    argument w_p - w_s lands exactly on the reflected grid, so the idler
    phase is the reversed array. |S| is untouched.
    """
    phi_s = np.asarray(phi_s, float)
    phi_i = np.asarray(phi_i, float)
    if phi_s.shape != amplitude.omega_grid.shape or phi_i.shape != phi_s.shape:
        raise ValidationError("spectral phases must be sampled on the amplitude grid")
    if not (np.all(np.isfinite(phi_s)) and np.all(np.isfinite(phi_i))):
        raise ValidationError("spectral phases must be finite")
    total = phi_s + phi_i[::-1]
    # the grid was checked when the input was made, and a finite value
    # times exp(i finite) is finite, so the result needs no new checks
    dressed = copy.copy(amplitude)
    dressed.values = amplitude.values * np.exp(1j * total)
    return dressed


@dataclass
class ConvergenceReport:
    """Relative change of one refinement doubling each, radial and
    frequency, as (points before, change); it passes when both are below
    QUADRATURE_RTOL."""

    radial_step: tuple
    omega_step: tuple

    @property
    def passed(self):
        return max(self.radial_step[1], self.omega_step[1]) < QUADRATURE_RTOL

    def lines(self):
        pts, radial_change = self.radial_step
        n, omega_change = self.omega_step
        return [
            f"radial {pts:>6d} -> {2 * pts:<6d} max-change {radial_change:.3e}",
            f"omega  {n:>6d} -> {2 * n - 1:<6d} max-change {omega_change:.3e}",
            f"threshold {QUADRATURE_RTOL:.1e}  passed {self.passed}",
        ]


def quadrature_refine(config, kernel):
    """Refinement check of kernel_amplitude(config), the kernel given.

    Report-only. The radial doubling is the kernel's radial_step, the last
    pair of its adaptive order; the frequency doubling evaluates the grid
    of half the spacing at the order the kernel returned. Each change is
    the max relative change against the doubled evaluation, measured
    against the finer peak.
    """
    # frequency samples are computed independently, so refining the grid
    # cannot move existing values; resolution is judged by how well the
    # coarse sampling interpolates the newly exposed midpoints
    n = config.grid.omega_points
    order = 2 * kernel.radial_step[0]
    # half spacing, same span: the old samples are a subset; the refined grid
    # is capped at the order it evaluates, so the work cap measures the work done
    grid = replace(config.grid, omega_points=2 * n - 1, radial_points=order)
    fine = _bare_amplitude(replace(config, grid=grid), order)
    interpolated = 0.5 * (kernel.values[:-1] + kernel.values[1:])
    omega_change = float(
        np.max(np.abs(interpolated - fine.values[1::2])) / np.max(np.abs(fine.values))
    )
    return ConvergenceReport(kernel.radial_step, (n, omega_change))


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
    omega, values = amplitude.omega_grid, amplitude.values
    # Python's abs(complex), not np.abs: the two differ in the last bit
    abs2 = [abs(v) ** 2 for v in values.tolist()]
    table = np.column_stack(
        (omega, wavelength_nm_from_omega(omega), values.real, values.imag, abs2)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega_rad_per_fs,wavelength_nm,re_S,im_S,abs2_S\n")
        fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist()))
