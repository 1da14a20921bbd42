import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pairtrace import (
    ValidationError,
    WavelengthRangeError,
    get_material,
    group_delay_dispersion,
    load_materials,
    materials,
    refractive_index,
    spectral_phase_of_slab,
    taylor_dispersion,
)
from pairtrace.materials import _n_and_derivatives, _parse_materials_text
from pairtrace.scenario import load_scenario, reproduce_fig3, run_scenario
from pairtrace.units import C_UM_FS, omega_from_wavelength_nm, wavelength_nm_from_omega

ALL_MATERIALS = ["fused_silica", "sf10", "sf14", "mgln_e"]


def omega_grid_around(lam_nm, half_span=0.2, n=801):
    center = omega_from_wavelength_nm(lam_nm)
    return center + (np.arange(n) - (n - 1) / 2.0) * (2 * half_span / (n - 1))


# ---------------------------------------------------------------- indices

def test_fused_silica_index_fixture():
    # frozen from an out-of-band evaluation of the three-term formula
    m = get_material("fused_silica")
    assert refractive_index(m, 1064.0, 20.0) == pytest.approx(1.44963099, abs=5e-7)


def test_index_at_range_edges_is_finite():
    for name in ALL_MATERIALS:
        m = get_material(name)
        lo, hi = m.valid_range_nm
        for lam in (lo, hi):
            n = refractive_index(m, lam, 50.0)
            assert np.isfinite(n)
            assert n > 1.0


def test_index_exceeds_unity_across_range():
    for name in ALL_MATERIALS:
        m = get_material(name)
        lo, hi = m.valid_range_nm
        lam = np.linspace(lo, hi, 400)
        n = refractive_index(m, lam, 40.0)
        assert np.all(n > 1.0)
        assert np.all(np.isfinite(n))


def test_out_of_range_error_names_material_and_bound():
    m = get_material("sf10")
    with pytest.raises(WavelengthRangeError) as err:
        refractive_index(m, 200.0)
    assert "sf10" in str(err.value)
    assert "380" in str(err.value)


def test_crystal_index_fixtures():
    # frozen from the temperature-dependent formula evaluated out of band
    ln = get_material("mgln_e")
    assert refractive_index(ln, 1064.0, 50.0) == pytest.approx(2.15525760, abs=5e-7)
    assert refractive_index(ln, 532.0, 50.0) == pytest.approx(2.23199490, abs=5e-7)


# ---------------------------------------------------------------- index cache

def fig3a_grid():
    sc = load_scenario("fig3a")
    return sc.grid.omega_grid(omega_from_wavelength_nm(sc.pump_wavelength_nm))


@pytest.mark.parametrize("name, temperature_C", [("mgln_e", 48.5), ("sf14", 20.0)])
def test_cached_index_has_the_bits_of_the_formula(name, temperature_C):
    m = get_material(name)
    grid = fig3a_grid()
    lam_nm = wavelength_nm_from_omega(grid)
    direct, _, _ = _n_and_derivatives(m, lam_nm / 1000.0, temperature_C)
    materials._cached_index.cache_clear()
    for _ in range(2):   # a miss, then a hit
        assert np.array_equal(refractive_index(m, lam_nm, temperature_C), direct)
        assert np.array_equal(
            spectral_phase_of_slab(m, 2.5, grid, temperature_C),
            direct * grid * 2500.0 / C_UM_FS,
        )
    info = materials._cached_index.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_cached_index_is_read_only():
    n = refractive_index(get_material("sf14"), np.linspace(600.0, 1500.0, 64))
    with pytest.raises(ValueError):
        n[0] = 1.0


def test_cached_index_keeps_a_2d_shape():
    m = get_material("mgln_e")
    lam_nm = np.linspace(700.0, 1500.0, 60).reshape(4, 15)
    n = refractive_index(m, lam_nm, 48.5)
    assert n.shape == (4, 15)
    assert np.array_equal(n, _n_and_derivatives(m, lam_nm / 1000.0, 48.5)[0])
    assert np.array_equal(n[1], refractive_index(m, lam_nm[1], 48.5))


def test_cache_entry_per_material_and_temperature():
    lam_nm = np.linspace(700.0, 1500.0, 64)
    ln, sf14 = get_material("mgln_e"), get_material("sf14")
    materials._cached_index.cache_clear()
    a = refractive_index(ln, lam_nm, 48.5)
    b = refractive_index(ln, lam_nm, 50.0)
    c = refractive_index(sf14, lam_nm, 48.5)
    assert materials._cached_index.cache_info().currsize == 3
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert refractive_index(ln, lam_nm, 48.5) is a


def test_scalar_index_is_a_float_and_bypasses_the_cache():
    materials._cached_index.cache_clear()
    n = refractive_index(get_material("mgln_e"), np.float64(1064.0), 48.5)
    assert type(n) is float
    assert materials._cached_index.cache_info().currsize == 0


def test_full_grid_index_evaluations_per_run(tmp_path, monkeypatch):
    # array evaluations of n(lam) by size: the 2048-sample grid (4095 on
    # the refined grid of the check) and the 257-sample window that the
    # GDD readout fits, once per material and temperature each
    sizes = []
    evaluate = materials._n_and_derivatives

    def counted(material, lam_um, temperature_C):
        if np.ndim(lam_um):
            sizes.append(np.size(lam_um))
        return evaluate(material, lam_um, temperature_C)

    monkeypatch.setattr(materials, "_n_and_derivatives", counted)
    materials._cached_index.cache_clear()
    run_scenario("fig3a", tmp_path / "fig3a")
    assert sorted(sizes) == [257, 257, 2048, 2048]     # mgln_e and sf14
    assert materials._cached_index.cache_info().misses == 4
    sizes.clear()
    materials._cached_index.cache_clear()
    reproduce_fig3(tmp_path / "fig3", refine_check=True)
    assert sorted(sizes) == [257, 257, 2048, 2048, 2048, 2048, 4095]
    assert materials._cached_index.cache_info().misses == 7


def test_import_leaves_the_index_cache_empty():
    src = str(Path(materials.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import pairtrace.cli\n"
        "from pairtrace import materials\n"
        "print(materials._cached_index.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------- slab phase

def test_zero_thickness_gives_zero_phase():
    m = get_material("fused_silica")
    grid = omega_grid_around(1064.0)
    ph = spectral_phase_of_slab(m, 0.0, grid)
    assert np.all(ph == 0.0)


def test_slab_phase_additivity():
    m = get_material("fused_silica")
    grid = omega_grid_around(1064.0)
    one = spectral_phase_of_slab(m, 6.0, grid)
    two = spectral_phase_of_slab(m, 3.0, grid) + spectral_phase_of_slab(m, 3.0, grid)
    np.testing.assert_allclose(two, one, rtol=1e-12)


def test_slab_phase_range_error():
    m = get_material("sf14")
    grid = omega_grid_around(400.0, half_span=0.6)  # reaches below 365 nm
    with pytest.raises(WavelengthRangeError):
        spectral_phase_of_slab(m, 1.0, grid)


def test_slab_phase_magnitude():
    # n w z / c for one sample, checked directly
    m = get_material("fused_silica")
    grid = np.array([1.7, 1.75, 1.8])
    ph = spectral_phase_of_slab(m, 2.0, grid)
    lam_nm = 2 * np.pi * 299.792458 / 1.75
    n = refractive_index(m, lam_nm)
    assert ph[1] == pytest.approx(n * 1.75 * 2000.0 / C_UM_FS, rel=1e-12)


# ---------------------------------------------------------------- curvature

def test_gdd_window_fixtures():
    fs = get_material("fused_silica")
    sf10 = get_material("sf10")
    assert group_delay_dispersion(fs, 6.0, 1064.0) == pytest.approx(99.0, rel=0.02)
    assert group_delay_dispersion(fs, 12.0, 1064.0) == pytest.approx(198.0, rel=0.02)
    assert group_delay_dispersion(sf10, 5.0, 1064.0) == pytest.approx(513.0, rel=0.02)
    assert group_delay_dispersion(sf10, 37.0, 1064.0) == pytest.approx(3790.0, rel=0.02)


def test_gdd_zero_thickness():
    for name in ALL_MATERIALS:
        assert group_delay_dispersion(get_material(name), 0.0, 1064.0, 50.0) == 0.0


def test_gdd_positive_at_degenerate_wavelength():
    for name in ALL_MATERIALS:
        assert group_delay_dispersion(get_material(name), 1.0, 1064.0, 50.0) > 0.0


def test_gdd_consistent_with_finite_difference_of_slab_phase():
    # curvature route vs direct second difference of the sampled phase
    h = 1e-4
    for name in ALL_MATERIALS:
        m = get_material(name)
        for lam in (900.0, 1064.0, 1250.0):
            w0 = omega_from_wavelength_nm(lam)
            grid = w0 + np.array([-2, -1, 0, 1, 2]) * h
            ph = spectral_phase_of_slab(m, 4.0, grid, 50.0)
            fd = (-ph[4] + 16 * ph[3] - 30 * ph[2] + 16 * ph[1] - ph[0]) / (12 * h * h)
            an = group_delay_dispersion(m, 4.0, lam, 50.0)
            assert fd == pytest.approx(an, rel=0.01)


# ---------------------------------------------------------------- taylor fit

def test_taylor_pure_quadratic():
    grid = omega_grid_around(1064.0, half_span=0.3, n=1201)
    w0 = omega_from_wavelength_nm(1064.0)
    A = 137.0
    ph = 0.5 * A * (grid - w0) ** 2
    d1, d2, d3, d4 = taylor_dispersion(grid, ph, w0, 4)
    assert d2 == pytest.approx(A, rel=1e-9)
    assert abs(d1) < 1e-9
    assert abs(d3) < 1e-6
    assert abs(d4) < 1e-3


def test_taylor_matches_gdd_for_windows():
    grid = omega_grid_around(1064.0, half_span=0.3, n=1501)
    w0 = omega_from_wavelength_nm(1064.0)
    fs = get_material("fused_silica")
    sf10 = get_material("sf10")
    ph_fs = spectral_phase_of_slab(fs, 12.0, grid)
    ph_sf = spectral_phase_of_slab(sf10, 5.0, grid)
    assert taylor_dispersion(grid, ph_fs, w0, 2)[1] == pytest.approx(198.0, rel=0.02)
    assert taylor_dispersion(grid, ph_sf, w0, 2)[1] == pytest.approx(513.0, rel=0.02)
    # order-2 agrees with the closed-form curvature route to 1%
    assert taylor_dispersion(grid, ph_fs, w0, 2)[1] == pytest.approx(
        group_delay_dispersion(fs, 12.0, 1064.0), rel=0.01
    )


def test_taylor_center_on_edge_raises():
    grid = omega_grid_around(1064.0, half_span=0.2, n=401)
    with pytest.raises(ValidationError, match="grid edge"):
        taylor_dispersion(grid, np.zeros_like(grid), grid[2], 4)


# ---------------------------------------------------------------- data file

def test_registry_contains_all_media():
    reg = load_materials()
    for name in ALL_MATERIALS:
        assert name in reg


def test_unknown_formula_is_hard_error():
    text = """
[flint]
formula_id = cauchy
coefficients = 1.0 2.0
valid_range_nm = 400 900
"""
    with pytest.raises(ValidationError):
        _parse_materials_text(text)


def test_parse_error_cites_line():
    text = "[glass]\nnot a key value line\n"
    with pytest.raises(ValidationError) as err:
        _parse_materials_text(text, source="inline")
    assert "inline:2" in str(err.value)


@pytest.mark.parametrize(
    "line, words",
    [
        ("coefficient = 1.0 2.0", "unknown key 'coefficient'"),
        ("valid_range_nm = 400 900", "given twice"),
        ("temperature_terms = 1.0 nan", "not a finite number"),
    ],
    ids=["unknown_key", "repeated_key", "non_finite"],
)
def test_materials_data_errors_cite_line(line, words):
    text = (
        "[flint]\nformula_id = sellmeier\ncoefficients = 1.0 0.01\n"
        f"valid_range_nm = 400 900\n{line}\n"
    )
    with pytest.raises(ValidationError) as err:
        _parse_materials_text(text, source="inline")
    assert str(err.value).startswith("inline:5: ")
    assert words in str(err.value)


def test_spectral_phase_grid_validation():
    # taylor_dispersion checks the grid and phase it reads: a decreasing
    # grid, a non-uniform grid and a NaN phase are each rejected by name
    grid = omega_grid_around(1064.0, half_span=0.2, n=401)
    w0 = grid[200]
    flat = np.zeros_like(grid)
    assert taylor_dispersion(grid, flat, w0, 2) == [0.0, 0.0]
    with pytest.raises(ValidationError, match="strictly increasing"):
        taylor_dispersion(grid[::-1], flat, w0, 2)
    bent = grid.copy()
    bent[100] += 0.3 * (grid[1] - grid[0])
    with pytest.raises(ValidationError, match="uniform"):
        taylor_dispersion(bent, flat, w0, 2)
    holed = flat.copy()
    holed[300] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        taylor_dispersion(grid, holed, w0, 2)
    with pytest.raises(ValidationError, match="matching 1-d arrays"):
        taylor_dispersion(grid, flat[:-1], w0, 2)
