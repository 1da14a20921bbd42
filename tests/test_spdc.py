import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pairtrace import ConvergenceError, ValidationError, get_material, spdc
from pairtrace.materials import refractive_index
from pairtrace.phasematch import CrystalSpec, axial_mismatch, delta_kz
from pairtrace.spdc import (
    GridSpec,
    PupilSpec,
    SpdcConfig,
    SpectralAmplitude,
    apply_spectral_phase,
    bandwidth_fwhm_nm,
    kernel_amplitude,
    quadrature_refine,
    write_spectrum_csv,
    _bare_amplitude,
)
from pairtrace.units import C_UM_FS, wavelength_nm_from_omega

from conftest import PUMP_OMEGA, T_OP_C


def small_config(poling_period, radial=64, omega=256, half_span=0.25):
    ln = get_material("mgln_e")
    dc = CrystalSpec(ln, 5.0, poling_period, T_OP_C)
    uc = CrystalSpec(ln, 5.0, poling_period, T_OP_C)
    pupil = PupilSpec(0.75 / 75.0, np.deg2rad(2.0))
    return SpdcConfig(dc, uc, pupil, PUMP_OMEGA, GridSpec(omega, half_span, radial))


# ---------------------------------------------------------------- structure

def test_grid_is_centered_and_reflection_exact():
    grid = GridSpec(128, 0.4, 16).omega_grid(PUMP_OMEGA)
    assert grid.size == 128
    # index reversal realizes w -> w_p - w: pairs sum to the pump frequency
    np.testing.assert_allclose(grid + grid[::-1], PUMP_OMEGA, rtol=0, atol=1e-12)
    steps = np.diff(grid)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


def test_pupil_validation():
    with pytest.raises(ValidationError):
        PupilSpec(0.05, 0.02)
    with pytest.raises(ValidationError):
        PupilSpec(0.0, 0.2)  # beyond the small-angle regime cap


def test_amplitude_requires_centered_grid():
    grid = np.linspace(1.0, 2.0, 64)
    with pytest.raises(ValidationError):
        SpectralAmplitude(grid, np.zeros(64, complex), PUMP_OMEGA)


# ---------------------------------------------------------------- physics

def test_ring_oracle_thin_annulus(poling_period):
    # a thin annulus reduces the integral to one ring; compare the package
    # against a direct midpoint evaluation of the same integrand
    ln = get_material("mgln_e")
    dc = CrystalSpec(ln, 5.0, poling_period, T_OP_C)
    uc = CrystalSpec(ln, 5.0, poling_period, T_OP_C)
    theta0, dtheta = 0.025, 0.00025
    pupil = PupilSpec(theta0, theta0 + dtheta)
    cfg = SpdcConfig(dc, uc, pupil, PUMP_OMEGA, GridSpec(33, 0.004, 16))
    # the ring spectrum fills this narrow window, so use the raw integral
    # rather than kernel_amplitude's decayed-edges validation
    S = _bare_amplitude(cfg, 32)

    grid = S.omega_grid
    omega_i = PUMP_OMEGA - grid
    k_lo = np.sin(theta0) * np.maximum(grid, omega_i) / C_UM_FS
    k_hi = np.sin(theta0 + dtheta) * np.minimum(grid, omega_i) / C_UM_FS
    k_mid = 0.5 * (k_lo + k_hi)
    ref = np.empty(grid.size)
    for i, (w, k) in enumerate(zip(grid, k_mid)):
        b1 = delta_kz(float(w), float(k), dc, PUMP_OMEGA) * 2500.0
        b2 = delta_kz(float(w), float(k), uc, PUMP_OMEGA) * 2500.0
        ref[i] = (
            2.0 * np.pi * np.sinc(b1 / np.pi) * np.sinc(b2 / np.pi) * k * (k_hi[i] - k_lo[i])
        )
    scale = np.abs(ref).max()
    np.testing.assert_allclose(S.values.real / scale, ref / scale, rtol=0, atol=5e-3)
    assert np.max(np.abs(S.values.imag)) == 0.0


def test_phase_factors_out_of_k_integral(default_kernel):
    rng = np.random.default_rng(3)
    grid = default_kernel.omega_grid
    phi_s = np.cumsum(rng.normal(size=grid.size)) * 0.01
    phi_i = np.sin(3.0 * grid) * 2.0
    dressed = apply_spectral_phase(default_kernel, phi_s, phi_i)
    np.testing.assert_allclose(
        np.abs(dressed.values), np.abs(default_kernel.values), rtol=1e-12
    )


def test_idler_phase_uses_reflected_samples(default_kernel):
    grid = default_kernel.omega_grid
    phi = np.linspace(0.0, 1.0, grid.size) ** 2
    dressed = apply_spectral_phase(default_kernel, np.zeros_like(phi), phi)
    expected = default_kernel.values * np.exp(1j * phi[::-1])
    np.testing.assert_array_equal(dressed.values, expected)


def test_mirror_symmetry_of_magnitude(default_kernel):
    mag = np.abs(default_kernel.values)
    np.testing.assert_allclose(mag, mag[::-1], rtol=0, atol=1e-10 * mag.max())


def test_kernel_real_positive_envelope_peaks_off_center(default_kernel):
    # operating 1.5 C below the degenerate point opens the emission cone:
    # the spectrum is double-horned with a shallow dip at degeneracy
    vals = default_kernel.values.real
    center = PUMP_OMEGA / 2.0
    peak_offset = abs(default_kernel.omega_grid[int(np.argmax(vals))] - center)
    assert 0.03 < peak_offset < 0.10
    i_center = int(np.argmin(np.abs(default_kernel.omega_grid - center)))
    dip = vals[i_center] / vals.max()
    assert 0.3 < dip < 0.95


def test_bandwidth_reproduces_spdc_marginal(default_kernel):
    assert bandwidth_fwhm_nm(default_kernel) == pytest.approx(130.0, rel=0.10)


def test_edge_validation_fires_for_narrow_grid(poling_period):
    cfg = small_config(poling_period, radial=64, omega=256, half_span=0.12)
    with pytest.raises(ValidationError):
        kernel_amplitude(cfg)


# ---------------------------------------------------------------- quadrature

def test_determinism_bit_identical(poling_period):
    cfg = small_config(poling_period)
    a = kernel_amplitude(cfg)
    b = kernel_amplitude(cfg)
    np.testing.assert_array_equal(a.values, b.values)


def test_coarse_radial_grid_raises_convergence_error(poling_period):
    # the Gauss rule converges fast on this integrand, so it takes a
    # drastically coarse order before the refinement gate trips
    cfg = small_config(poling_period, radial=4, omega=512, half_span=0.55)
    with pytest.raises(ConvergenceError) as err:
        kernel_amplitude(cfg)
    assert err.value.estimate is not None
    assert isinstance(err.value.estimate, SpectralAmplitude)


def record_evaluations(monkeypatch):
    """Every fixed-order kernel evaluation from now on, in call order, as
    ((omega_points, radial_points), result)."""
    calls = []

    def counted(config, radial_points):
        result = _bare_amplitude(config, radial_points)
        calls.append(((config.grid.omega_points, radial_points), result))
        return result

    monkeypatch.setattr(spdc, "_bare_amplitude", counted)
    return calls


def test_refinement_ladder_on_default_resolution(default_config, default_kernel):
    report = quadrature_refine(default_config, default_kernel)
    assert report.passed
    assert report.radial_step[1] < 1e-3
    assert report.omega_step[1] < 1e-3


def test_refinement_reuses_levels_the_kernel_computed(poling_period, monkeypatch):
    cfg = small_config(poling_period)
    calls = record_evaluations(monkeypatch)
    kernel = kernel_amplitude(cfg)
    assert [order for order, _ in calls] == [(256, 8), (256, 16)]
    assert kernel.radial_step == (8, spdc._relative_change(calls[0][1], calls[1][1]))
    report = quadrature_refine(cfg, kernel)
    # the radial doubling is the kernel's passing pair (8 -> 16), so only
    # the frequency refinement, at the kernel's returned order 16, is new
    assert [order for order, _ in calls[2:]] == [(511, 16)]
    assert report.radial_step == kernel.radial_step
    assert report.lines()[0] == f"radial      8 -> 16     max-change {kernel.radial_step[1]:.3e}"


def test_refinement_without_levels_starts_at_the_kernel_order(default_config, default_kernel):
    report = quadrature_refine(default_config, default_kernel)
    assert report.radial_step[0] == 8


def test_refinement_near_the_work_cap_is_capped_at_the_order_it_evaluates(poling_period):
    # a grid just under the work cap whose doubled frequency grid would
    # exceed it at the full radial_points; the refinement evaluates only
    # the kernel's order, so the report is made
    radial = 1024
    omega = spdc.MAX_GRID_SAMPLES // radial - 1
    cfg = small_config(poling_period, radial=radial, omega=omega)
    assert (2 * omega - 1) * radial > spdc.MAX_GRID_SAMPLES
    report = quadrature_refine(cfg, kernel_amplitude(cfg))
    assert report.passed
    assert report.lines()[0].startswith("radial      8 -> 16")


def test_kernel_order_doubles_from_8_to_the_first_passing_pair(poling_period, monkeypatch):
    cfg = small_config(poling_period, radial=64, omega=256, half_span=0.25)
    cfg = replace(cfg, uc_crystal=replace(cfg.uc_crystal, length_mm=20.0))
    calls = record_evaluations(monkeypatch)
    result = kernel_amplitude(cfg)
    orders = [pts for (_, pts), _ in calls]
    assert orders == [8 * 2 ** i for i in range(len(orders))] and len(orders) > 2
    changes = [
        spdc._relative_change(a, b) for (_, a), (_, b) in zip(calls, calls[1:])
    ]
    assert all(c > spdc.QUADRATURE_RTOL for c in changes[:-1])
    assert changes[-1] <= spdc.QUADRATURE_RTOL
    assert result is calls[-1][1]
    assert result.radial_step == (orders[-2], changes[-1])
    reference = _bare_amplitude(cfg, 1024).values
    peak = np.max(np.abs(reference))
    assert np.max(np.abs(result.values - reference)) <= 1e-10 * peak


def test_kernel_matches_high_order_rule_on_default_grid(default_config, default_kernel):
    reference = _bare_amplitude(default_config, 1024).values
    peak = np.max(np.abs(reference))
    assert np.max(np.abs(default_kernel.values - reference)) <= 1e-10 * peak


def test_kernel_order_cap_raises_with_estimate_at_twice_the_cap(poling_period, monkeypatch):
    cfg = small_config(poling_period, radial=4, omega=512, half_span=0.55)
    calls = record_evaluations(monkeypatch)
    with pytest.raises(ConvergenceError, match=r"\(4 -> 8 points\)") as err:
        kernel_amplitude(cfg)
    assert [pts for (_, pts), _ in calls] == [4, 8]
    assert err.value.estimate is calls[-1][1]
    np.testing.assert_array_equal(err.value.estimate.values, _bare_amplitude(cfg, 8).values)


def test_kernel_cap_off_the_doubling_ladder_is_the_last_coarse_order(poling_period, monkeypatch):
    # this kernel fails the gate at 8 -> 16 and passes at 16 -> 32 (above)
    cfg = small_config(poling_period, radial=12, omega=256, half_span=0.25)
    cfg = replace(cfg, uc_crystal=replace(cfg.uc_crystal, length_mm=20.0))
    calls = record_evaluations(monkeypatch)
    result = kernel_amplitude(cfg)
    # each order is evaluated once; the cap 12 replaces 16 as the coarse order
    assert [pts for (_, pts), _ in calls] == [8, 16, 12, 24]
    assert result is calls[-1][1]
    assert result.radial_step == (12, spdc._relative_change(calls[2][1], result))


def test_gauss_rule_is_computed_once_and_read_only():
    nodes, weights = spdc._gauss_rule(16)
    assert spdc._gauss_rule(16)[0] is nodes
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_grid_work_cap_rejects_before_allocation():
    with pytest.raises(ValidationError, match="work cap"):
        GridSpec(omega_points=10 ** 9)
    with pytest.raises(ValidationError, match="work cap"):
        GridSpec().scaled(1e9)
    # the largest benchmark grid, above every bundled one, stays admitted
    GridSpec(omega_points=4096, radial_points=512)
    # the cap's edge: exactly MAX_GRID_SAMPLES is admitted, one row more is not
    assert 4096 * 4096 == spdc.MAX_GRID_SAMPLES
    GridSpec(omega_points=4096, radial_points=4096)
    with pytest.raises(ValidationError, match="work cap"):
        GridSpec(omega_points=4096, radial_points=4097)


def sin_over_beta(beta):
    """sin(beta) / beta, 1 at beta == 0: the kernel's sinc arithmetic."""
    with np.errstate(invalid="ignore"):
        out = np.sin(beta) / beta
    out[beta == 0.0] = 1.0
    return out


def numpy_sinc(beta):
    """np.sinc(beta / pi), the kernel's sinc arithmetic before the fold."""
    return np.sinc(beta / np.pi)


def whole_array_kernel(config, radial_points, sinc):
    """The radial integral over whole (omega x node) arrays, every frequency
    row and one sinc array per crystal, as it was written before the blocked
    evaluation; sinc maps beta to the sinc factor."""
    grid = config.grid.omega_grid(config.pump_omega)
    omega_i = grid[::-1]
    k_lo = np.sin(config.pupil.theta_min_ext_rad) * np.maximum(grid, omega_i) / C_UM_FS
    k_hi = np.sin(config.pupil.theta_max_ext_rad) * np.minimum(grid, omega_i) / C_UM_FS
    open_pupil = k_hi > k_lo
    nodes, weights = np.polynomial.legendre.leggauss(radial_points)
    u_lo, u_hi = k_lo ** 2, k_hi ** 2
    half = 0.5 * np.where(open_pupil, u_hi - u_lo, 0.0)
    mid = np.where(open_pupil, 0.5 * (u_lo + u_hi), u_lo)
    u = mid[:, None] + half[:, None] * nodes[None, :]

    def factor(crystal):
        n = refractive_index(crystal.material, wavelength_nm_from_omega(grid),
                             crystal.temperature_C)
        k_s = n * grid / C_UM_FS
        n_p = refractive_index(crystal.material, wavelength_nm_from_omega(config.pump_omega),
                               crystal.temperature_C)
        k_p = n_p * config.pump_omega / C_UM_FS
        dk = axial_mismatch(k_p, k_s[:, None], k_s[::-1][:, None], u, crystal.grating_k)
        return sinc(dk * (crystal.length_mm * 1000.0) / 2.0)

    s1, s2 = factor(config.dc_crystal), factor(config.uc_crystal)
    values = (np.pi * half * (s1 * s2 * weights[None, :]).sum(axis=1)).astype(complex)
    values[~open_pupil] = 0.0
    return values


def detuned_config(poling_period, **grid):
    cfg = small_config(poling_period, **grid)
    return replace(cfg, uc_crystal=replace(cfg.uc_crystal, temperature_C=T_OP_C + 10.0))


@pytest.mark.parametrize("detuned", [False, True], ids=["matched", "detuned"])
@pytest.mark.parametrize(
    "omega, radial, block, blocks",
    [(300, 64, 2 ** 13, 2), (256, 64, 2 ** 13, 1), (40, 64, 32, 20)],
    ids=["ragged_last_block", "whole_blocks", "one_row_per_block"],
)
def test_blocked_kernel_is_bit_identical_to_whole_arrays(
    poling_period, monkeypatch, detuned, omega, radial, block, blocks
):
    make = detuned_config if detuned else small_config
    cfg = make(poling_period, radial=radial, omega=omega)
    monkeypatch.setattr(spdc, "KERNEL_BLOCK_SAMPLES", block)
    kernel, calls = spdc._crystal_kernel, []

    def counted(*args):
        calls.append((args[0], args[2]))
        return kernel(*args)

    monkeypatch.setattr(spdc, "_crystal_kernel", counted)
    values = _bare_amplitude(cfg, radial).values
    # the lower rows are integrated, bit for bit as over whole arrays; the
    # upper rows are their mirror image
    lower = (omega + 1) // 2
    assert np.array_equal(values[:lower], whole_array_kernel(cfg, radial, sin_over_beta)[:lower])
    assert np.array_equal(values[omega - lower:], values[lower - 1::-1])
    # a matched pair evaluates its one sinc factor once per block, and the
    # blocks cover the lower rows once
    crystals = [cfg.dc_crystal, cfg.uc_crystal] if detuned else [cfg.dc_crystal]
    assert [crystal for crystal, _ in calls] == crystals * blocks
    covered = [np.arange(omega)[rows] for _, rows in calls[::len(crystals)]]
    assert np.array_equal(np.concatenate(covered), np.arange(lower))


@pytest.mark.parametrize("detuned", [False, True], ids=["matched", "detuned"])
@pytest.mark.parametrize("omega", [301, 300], ids=["odd", "even"])
@pytest.mark.parametrize("pupil", [None, PupilSpec(0.02, 0.021)], ids=["open", "closing"])
def test_kernel_is_bitwise_mirror_symmetric(poling_period, detuned, omega, pupil):
    make = detuned_config if detuned else small_config
    cfg = make(poling_period, radial=16, omega=omega)
    if pupil is not None:
        cfg = replace(cfg, pupil=pupil)
    values = _bare_amplitude(cfg, 16).values
    assert np.array_equal(values, values[::-1])
    closed = values == 0.0
    assert closed.any() == (pupil is not None) and not closed.all()


@pytest.mark.parametrize("detuned", [False, True], ids=["matched", "detuned"])
@pytest.mark.parametrize("omega", [301, 300], ids=["odd", "even"])
def test_folded_kernel_stays_within_round_off_of_the_numpy_sinc_kernel(
    poling_period, detuned, omega
):
    # the fold and sin(beta)/beta change only round-off: measured at most
    # 1.6e-16 of the peak on these grids and 1.7e-14 on the bundled trees
    make = detuned_config if detuned else small_config
    cfg = make(poling_period, radial=64, omega=omega)
    reference = whole_array_kernel(cfg, 64, numpy_sinc)
    values = _bare_amplitude(cfg, 64).values
    peak = np.max(np.abs(reference))
    assert np.max(np.abs(values - reference)) <= 1e-13 * peak


def test_crystal_kernel_is_sin_over_beta(poling_period, monkeypatch):
    beta = np.array([
        0.0, -0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.5, -1.8773243447372465, 3.0,
        *np.linspace(99.0, 101.0, 2001), *np.random.default_rng(5).uniform(-200, 200, 4000),
    ])
    # a crystal with L / 2 = 1 um, so beta is the mismatch the stub returns
    crystal = CrystalSpec(get_material("mgln_e"), 0.002, poling_period, T_OP_C)
    assert crystal.length_mm * 500.0 == 1.0
    monkeypatch.setattr(spdc, "axial_mismatch", lambda *args: beta.copy())
    out = spdc._crystal_kernel(crystal, (beta, beta, 1.0), slice(None), 0.0)
    assert out[0] == 1.0 and out[1] == 1.0
    assert np.all(out[2:6] == 1.0)
    # np.sinc rounds beta / pi and pi * (beta / pi): the two agree to 1 ulp
    # of the peak value 1 (measured), and 2 are allowed
    assert np.max(np.abs(out - np.sinc(beta / np.pi))) <= 2 * np.finfo(float).eps


def test_kernel_level_memory_stays_within_one_block(poling_period):
    # one whole (omega x node) float array is 4 MB here, one block 64 KB
    cfg = small_config(poling_period, radial=128, omega=4096, half_span=0.55)
    tracemalloc.start()
    try:
        _bare_amplitude(cfg, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_radial_rule_converges_on_gaussian_integrand():
    # the raw Gauss-Legendre machinery against a closed-form radial integral:
    # doubling the order must gain at least second-order accuracy
    a, b, s = 0.06, 0.21, 0.03

    def quad(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        k = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        return 0.5 * (b - a) * np.sum(weights * k * np.exp(-(k / s) ** 2))

    exact = (s ** 2 / 2.0) * (math.exp(-(a / s) ** 2) - math.exp(-(b / s) ** 2))
    err8 = abs(quad(8) - exact)
    err16 = abs(quad(16) - exact)
    assert err8 > 0 and err16 > 0
    order = math.log2(err8 / err16)
    assert order >= 2.0


def test_apply_spectral_phase_on_kernel_amplitude(default_config, default_kernel):
    grid = default_kernel.omega_grid
    phi = 40.0 * (grid - PUMP_OMEGA / 2.0) ** 2
    full = apply_spectral_phase(kernel_amplitude(default_config), phi, phi)
    np.testing.assert_allclose(np.abs(full.values), np.abs(default_kernel.values), rtol=1e-12)
    zeros = np.zeros_like(grid)
    bare = apply_spectral_phase(default_kernel, zeros, zeros)
    np.testing.assert_array_equal(bare.values, default_kernel.values)


def test_spectrum_csv_roundtrip(tmp_path, poling_period):
    cfg = small_config(poling_period)
    S = kernel_amplitude(cfg)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(S, path)
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    assert body.shape == (S.omega_grid.size, 5)
    np.testing.assert_allclose(body[:, 0], S.omega_grid)
    np.testing.assert_allclose(body[:, 2] + 1j * body[:, 3], S.values)
    np.testing.assert_allclose(body[:, 4], np.abs(S.values) ** 2)
