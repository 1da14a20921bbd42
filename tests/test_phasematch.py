import numpy as np
import pytest

from pairtrace import SolverError, ValidationError, get_material, refractive_index
from pairtrace.phasematch import (
    CrystalSpec,
    delta_kz,
    solve_phasematch_temperature,
    solve_poling_period,
)
from pairtrace.units import C_UM_FS, omega_from_wavelength_nm, wavelength_nm_from_omega

PUMP_OMEGA = omega_from_wavelength_nm(532.0)

# closed-form fixtures computed independently before the build
LAMBDA_50C_UM = 6.93274352       # 2 pi / (k_p - 2 k_s) at 50 C
LAMBDA_40C_UM = 6.94922831
LAMBDA_60C_UM = 6.91580545
KZ_2DEG_FIXTURE = 12.7231056012  # rad/um, degenerate signal, ext 2 deg, 48.5 C
KFULL_2DEG = 12.7247746276
KPERP_2DEG = 0.2060902302


def crystal(T=48.5, period=LAMBDA_50C_UM, length=5.0):
    return CrystalSpec(get_material("mgln_e"), length, period, T)


# ------------------------------------------------------------------ kz

def degenerate_kz(k_perp, c):
    """Longitudinal signal wavevector [rad/um] at degeneracy, read from the
    mismatch: with w_i = w_s and k_i_perp = -k_s_perp, delta_kz = k_p - 2 kz - k_g."""
    n_p = refractive_index(c.material, wavelength_nm_from_omega(PUMP_OMEGA), c.temperature_C)
    k_p = n_p * PUMP_OMEGA / C_UM_FS
    return (k_p - c.grating_k - delta_kz(PUMP_OMEGA / 2, k_perp, c, PUMP_OMEGA)) / 2


def test_kz_axial_equals_bulk_wavevector():
    c = crystal()
    w = PUMP_OMEGA / 2
    n = refractive_index(c.material, 1064.0, c.temperature_C)
    assert degenerate_kz(0.0, c) == pytest.approx(n * w / C_UM_FS, rel=1e-14)


def test_kz_small_angle_expansion():
    c = crystal()
    k = degenerate_kz(0.0, c)
    for eps in (1e-3, 5e-3, 1e-2):
        kp = k * np.sin(eps)
        expect = k * (1 - eps ** 2 / 2)
        assert degenerate_kz(kp, c) == pytest.approx(expect, rel=1e-9)


def test_kz_external_2deg_fixture():
    # transverse component conserved across the face: k_perp = (w/c) sin(theta_ext)
    c = crystal(T=48.5)
    w = PUMP_OMEGA / 2
    k_perp = (w / C_UM_FS) * np.sin(np.deg2rad(2.0))
    assert k_perp == pytest.approx(KPERP_2DEG, abs=1e-9)
    assert degenerate_kz(k_perp, c) == pytest.approx(KZ_2DEG_FIXTURE, abs=1e-8)


def test_kz_evanescent_rejected():
    c = crystal()
    with pytest.raises(ValidationError):
        delta_kz(PUMP_OMEGA / 2, KFULL_2DEG * 1.01, c, PUMP_OMEGA)


# ------------------------------------------------------------------ delta_kz

def test_delta_kz_zero_at_solved_operating_point():
    period = solve_poling_period(get_material("mgln_e"), PUMP_OMEGA, 50.0)
    c = crystal(T=50.0, period=period)
    assert abs(delta_kz(PUMP_OMEGA / 2, 0.0, c, PUMP_OMEGA)) < 1e-10


def test_delta_kz_signal_idler_exchange_symmetry():
    c = crystal()
    rng = np.random.default_rng(7)
    for _ in range(25):
        detune = rng.uniform(-0.4, 0.4)
        kp = rng.uniform(0.0, 0.2)
        a = delta_kz(PUMP_OMEGA / 2 + detune, kp, c, PUMP_OMEGA)
        b = delta_kz(PUMP_OMEGA / 2 - detune, kp, c, PUMP_OMEGA)
        # exact up to double rounding of w_i = w_p - w_s (k is ~13 rad/um)
        assert a == pytest.approx(b, abs=5e-14)


def test_delta_kz_20C_detuning_suppresses_phasematching():
    period = solve_poling_period(get_material("mgln_e"), PUMP_OMEGA, 50.0)
    hot = crystal(T=70.0, period=period)
    dk = delta_kz(PUMP_OMEGA / 2, 0.0, hot, PUMP_OMEGA)
    # fixture from the independent evaluation: beta = +11.27, sinc^2 = 0.0073
    beta = dk * 5000.0 / 2
    assert beta == pytest.approx(11.27, abs=0.05)
    assert np.sinc(beta / np.pi) ** 2 < 0.05


def test_delta_kz_monotone_in_temperature_near_buffer():
    # slope sign fixed by the temperature model: mismatch grows with T
    period = solve_poling_period(get_material("mgln_e"), PUMP_OMEGA, 50.0)
    vals = [
        delta_kz(PUMP_OMEGA / 2, 0.0, crystal(T=t, period=period), PUMP_OMEGA)
        for t in (46.0, 48.0, 50.0, 52.0, 54.0)
    ]
    assert np.all(np.diff(vals) > 0)


def test_delta_kz_vectorized_matches_scalar():
    c = crystal()
    w = PUMP_OMEGA / 2 + np.linspace(-0.3, 0.3, 7)
    kp = np.linspace(0.0, 0.15, 7)
    arr = delta_kz(w, kp, c, PUMP_OMEGA)
    for i in range(7):
        assert arr[i] == delta_kz(float(w[i]), float(kp[i]), c, PUMP_OMEGA)


# ------------------------------------------------------------------ solvers

def test_poling_period_fixture_and_residual():
    m = get_material("mgln_e")
    period = solve_poling_period(m, PUMP_OMEGA, 50.0)
    assert period == pytest.approx(LAMBDA_50C_UM, abs=1e-6)
    assert 6.8 < period < 7.0
    c = CrystalSpec(m, 5.0, period, 50.0)
    assert abs(delta_kz(PUMP_OMEGA / 2, 0.0, c, PUMP_OMEGA)) < 1e-10


def test_poling_period_temperature_slope():
    m = get_material("mgln_e")
    p40 = solve_poling_period(m, PUMP_OMEGA, 40.0)
    p60 = solve_poling_period(m, PUMP_OMEGA, 60.0)
    assert p40 == pytest.approx(LAMBDA_40C_UM, abs=1e-6)
    assert p60 == pytest.approx(LAMBDA_60C_UM, abs=1e-6)
    assert p60 < p40  # period shrinks as the crystal warms


def test_poling_period_deterministic():
    m = get_material("mgln_e")
    a = solve_poling_period(m, PUMP_OMEGA, 50.0)
    b = solve_poling_period(m, PUMP_OMEGA, 50.0)
    assert a == b


def test_poling_period_no_bracket_reports_ends():
    m = get_material("mgln_e")
    with pytest.raises(SolverError) as err:
        solve_poling_period(m, PUMP_OMEGA, 50.0, bracket_um=(20.0, 40.0))
    msg = str(err.value)
    assert "f(20" in msg and "f(40" in msg


@pytest.mark.parametrize("window", [(0.0, 5.0), (-1.0, 40.0), (40.0, 3.0)])
def test_poling_period_invalid_window_rejected(window):
    with pytest.raises(ValidationError):
        solve_poling_period(get_material("mgln_e"), PUMP_OMEGA, 50.0, bracket_um=window)


def test_temperature_round_trip():
    m = get_material("mgln_e")
    period = solve_poling_period(m, PUMP_OMEGA, 50.0)
    c = CrystalSpec(m, 5.0, period, 48.5)
    t = solve_phasematch_temperature(c, PUMP_OMEGA)
    assert t == pytest.approx(50.0, abs=0.01)


def test_temperature_shift_with_perturbed_period():
    m = get_material("mgln_e")
    period = solve_poling_period(m, PUMP_OMEGA, 50.0)
    t0 = solve_phasematch_temperature(CrystalSpec(m, 5.0, period, 40.0), PUMP_OMEGA)
    t1 = solve_phasematch_temperature(CrystalSpec(m, 5.0, period + 0.01, 40.0), PUMP_OMEGA)
    # longer period at fixed pump means a cooler phasematching point,
    # matching the negative dLambda/dT slope checked above
    assert (t1 - t0) < 0


def test_crystal_spec_validation():
    m = get_material("mgln_e")
    with pytest.raises(ValidationError):
        CrystalSpec(m, 0.0, 6.9, 50.0)
    with pytest.raises(ValidationError):
        CrystalSpec(m, 5.0, -1.0, 50.0)
