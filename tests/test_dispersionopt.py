import numpy as np
import pytest

from pairtrace import ValidationError, dispersionopt, get_material
from pairtrace.delayscan import rate_at_zero_delay
from pairtrace.dispersionopt import (
    KNOB_CORRECTION,
    KNOB_INSERTION,
    ElementChain,
    PhaseCorrection,
    PrismCompressor,
    Slab,
    certify_local_maximum,
    chain_gdd_fs2,
    chain_phase,
    knob_objective,
    optimize_dispersion,
    solve_compensating_insertion,
    with_knob,
)
from pairtrace.materials import spectral_phase_of_slab, taylor_dispersion
from pairtrace.scenario import build_system, load_scenario, run_stages
from pairtrace.spdc import GridSpec, SpectralAmplitude, apply_spectral_phase

from conftest import PUMP_OMEGA

CENTER = PUMP_OMEGA / 2.0

# four-prism SF14 compressor at 352 mm and zero insertion: the closed-form
# angular dispersion -8 l (dn/dlam)^2 lam^3/(2 pi c^2), frozen before the
# build from an independent evaluation
COMPRESSOR_GDD_FIXTURE = -4516.15


def omega_grid(n=1501, half_span=0.35):
    return GridSpec(n, half_span, 16).omega_grid(PUMP_OMEGA)


def gaussian_amplitude(sigma=0.05):
    grid = GridSpec(1024, 0.55, 16).omega_grid(PUMP_OMEGA)
    d = grid - CENTER
    vals = np.exp(-(d ** 2) / (4.0 * sigma ** 2)).astype(complex)
    return SpectralAmplitude(grid, vals, PUMP_OMEGA)


# ---------------------------------------------------------------- chains

def test_empty_chain_zero_phase():
    grid = omega_grid()
    assert np.all(ElementChain().phase(grid, CENTER) == 0.0)


def test_chain_additivity_and_order_independence():
    fs = get_material("fused_silica")
    sf10 = get_material("sf10")
    grid = omega_grid()
    a = ElementChain((Slab(fs, 6.0), Slab(sf10, 2.0)))
    b = ElementChain((Slab(sf10, 2.0), Slab(fs, 6.0)))
    expected = (
        spectral_phase_of_slab(fs, 6.0, grid)
        + spectral_phase_of_slab(sf10, 2.0, grid)
    )
    np.testing.assert_allclose(a.phase(grid, CENTER), expected, rtol=1e-12)
    np.testing.assert_array_equal(a.phase(grid, CENTER), b.phase(grid, CENTER))


def test_compressor_negative_gdd_fixture():
    sf14 = get_material("sf14")
    comp = ElementChain((PrismCompressor(sf14, 352.0, 0.0),))
    gdd = chain_gdd_fs2(comp, omega_grid(), CENTER)
    assert gdd == pytest.approx(COMPRESSOR_GDD_FIXTURE, rel=2e-3)
    assert gdd < 0


def test_compressor_gdd_scales_with_separation():
    sf14 = get_material("sf14")
    grid = omega_grid()
    g1 = chain_gdd_fs2(ElementChain((PrismCompressor(sf14, 200.0, 0.0),)), grid, CENTER)
    g2 = chain_gdd_fs2(ElementChain((PrismCompressor(sf14, 400.0, 0.0),)), grid, CENTER)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-6)


def test_compressor_insertion_adds_material_curvature():
    sf14 = get_material("sf14")
    grid = omega_grid()
    dry = chain_gdd_fs2(ElementChain((PrismCompressor(sf14, 352.0, 0.0),)), grid, CENTER)
    wet = chain_gdd_fs2(ElementChain((PrismCompressor(sf14, 352.0, 2.0),)), grid, CENTER)
    slab = chain_gdd_fs2(ElementChain((Slab(sf14, 8.0),)), grid, CENTER)  # 4 prisms
    assert wet - dry == pytest.approx(slab, rel=1e-6)


def test_unresolved_auto_insertion_rejected():
    sf14 = get_material("sf14")
    chain = ElementChain((PrismCompressor(sf14, 352.0, None),))
    with pytest.raises(ValidationError):
        chain.phase(omega_grid(), CENTER)


def test_phase_correction_polynomial():
    grid = omega_grid()
    ph = chain_phase(
        ElementChain((PhaseCorrection(gdd_fs2=50.0, tod_fs3=-30.0, quartic_fs4=400.0),)),
        grid,
        CENTER,
    )
    d1, d2, d3, d4 = taylor_dispersion(grid, ph, CENTER, 4)
    assert d2 == pytest.approx(50.0, rel=1e-6)
    assert d3 == pytest.approx(-30.0, rel=1e-4)
    assert d4 == pytest.approx(400.0, rel=1e-3)


def test_solve_compensating_insertion_zeroes_curvature(base_chain, default_kernel):
    gdd = chain_gdd_fs2(base_chain, default_kernel.omega_grid, CENTER)
    assert abs(gdd) < 1e-4


@pytest.mark.parametrize("apex_mm", [250.0, 325.0, 400.0, 450.0])
@pytest.mark.parametrize("window", ["sf14", "sf10", "fused_silica"])
def test_closed_form_insertion_zeroes_curvature(apex_mm, window):
    # the chain GDD is affine in the insertion, so the closed-form root
    # must zero it for any compressor and any glass in the chain
    ln = get_material("mgln_e")
    chain = ElementChain((Slab(ln, 2.5), PrismCompressor(get_material("sf14"), apex_mm, 0.0),
                          Slab(get_material(window), 5.0), Slab(ln, 2.5)))
    grid = omega_grid()
    insertion = solve_compensating_insertion(grid, CENTER, chain)
    assert insertion > 0
    gdd = chain_gdd_fs2(with_knob(chain, KNOB_INSERTION, insertion), grid, CENTER)
    assert abs(gdd) < 1e-4


def test_insertion_without_curvature_slope_rejected(monkeypatch):
    monkeypatch.setattr(dispersionopt, "chain_gdd_fs2", lambda chain, grid, center: -100.0)
    chain = ElementChain((PrismCompressor(get_material("sf14"), 352.0, 0.0),))
    with pytest.raises(ValidationError, match="does not raise the chain curvature"):
        solve_compensating_insertion(omega_grid(), CENTER, chain)


def test_insertion_with_negative_root_rejected():
    # no angular dispersion to cancel: the slab's curvature would need
    # negative glass
    chain = ElementChain((Slab(get_material("sf10"), 10.0),
                          PrismCompressor(get_material("sf14"), 0.0, 0.0)))
    with pytest.raises(ValidationError, match="positive with no insertion"):
        solve_compensating_insertion(omega_grid(), CENTER, chain)


# ---------------------------------------------------------------- optimizer

def test_pure_quadratic_cancellation():
    # synthetic system with only a quadratic phase: the correction knob
    # must cancel it exactly within its 0.5 fs^2 tolerance
    amp = gaussian_amplitude()
    base = ElementChain((PhaseCorrection(gdd_fs2=77.0),))
    result = optimize_dispersion(amp, base, KNOB_CORRECTION, (-200.0, 200.0))
    assert not result.edge_solution
    assert result.optimal_value == pytest.approx(-77.0, abs=0.5)
    assert abs(result.residual_gdd_fs2) <= 0.5


def test_scan_record_is_reproducible():
    amp = gaussian_amplitude()
    base = ElementChain((PhaseCorrection(gdd_fs2=30.0),))
    r1 = optimize_dispersion(amp, base, KNOB_CORRECTION, (-100.0, 100.0))
    r2 = optimize_dispersion(amp, base, KNOB_CORRECTION, (-100.0, 100.0))
    assert r1.scan_record == r2.scan_record
    assert r1.optimal_value == r2.optimal_value


def test_edge_solution_flagged_not_refined():
    amp = gaussian_amplitude()
    base = ElementChain((PhaseCorrection(gdd_fs2=500.0),))  # optimum outside bracket
    result = optimize_dispersion(amp, base, KNOB_CORRECTION, (-100.0, 100.0))
    assert result.edge_solution
    assert result.optimal_value == -100.0


def test_local_maximum_certificate(default_kernel, base_chain, optimum):
    result, _ = optimum
    assert not result.edge_solution
    assert certify_local_maximum(default_kernel, base_chain, result)


def test_objective_decreases_away_from_optimum(default_kernel, base_chain, optimum):
    result, _ = optimum
    objective = knob_objective(default_kernel, base_chain, KNOB_CORRECTION)
    r_opt = objective(result.optimal_value)
    for delta in (-40.0, -10.0, 10.0, 40.0):
        assert objective(result.optimal_value + delta) < r_opt


def summation_bound(amplitude):
    """n eps (sum |S| dw)^2: how far reordering the sum of n terms
    S_k exp(i total_k) dw can move |sum|^2."""
    scale = (np.sum(np.abs(amplitude.values)) * amplitude.domega) ** 2
    return amplitude.values.size * np.finfo(float).eps * scale


def test_affine_objective_matches_full_chain(default_kernel, base_chain):
    grid = default_kernel.omega_grid

    def full_chain_rate(knob, value):
        phi = with_knob(base_chain, knob, value).phase(grid, CENTER)
        return rate_at_zero_delay(apply_spectral_phase(default_kernel, phi, phi)), phi

    # the folded objective sums the pair phase over half the grid: only
    # the summation rounds differently
    summation = summation_bound(default_kernel)
    objective = knob_objective(default_kernel, base_chain, KNOB_CORRECTION)
    for value in np.linspace(-150.0, 150.0, 5):
        assert abs(objective(value) - full_chain_rate(KNOB_CORRECTION, value)[0]) <= summation

    # phi0 + x dphi and the directly evaluated glass phase round differently:
    # each sample's phase may move by a few ulps of |phi|, which bounds the
    # change of |sum S exp(i phi) dw|^2 by twice the transform limit times it
    limit = (np.sum(np.abs(default_kernel.values)) * default_kernel.domega) ** 2
    objective = knob_objective(default_kernel, base_chain, KNOB_INSERTION)
    for value in np.linspace(0.0, 15.0, 5):
        rate, phi = full_chain_rate(KNOB_INSERTION, value)
        phase_error = 8.0 * np.finfo(float).eps * np.max(np.abs(phi))
        assert abs(objective(value) - rate) <= 2.0 * limit * phase_error + summation


@pytest.mark.parametrize("n", [17, 2047, 2048])
def test_folded_objective_matches_the_full_spectrum_sum(n):
    # a random complex amplitude has no symmetry of its own; the phase is
    # phi0 + value * direction as knob_objective builds it, applied on the
    # full grid by apply_spectral_phase
    rng = np.random.default_rng(n)
    grid = omega_grid(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amplitude = SpectralAmplitude(grid, values, PUMP_OMEGA)
    ln = get_material("mgln_e")
    base = ElementChain((Slab(ln, 2.5), PrismCompressor(get_material("sf14"), 352.0, 3.0),
                         Slab(ln, 2.5)))
    bound = summation_bound(amplitude)
    for knob, lo, hi in ((KNOB_CORRECTION, -300.0, 300.0), (KNOB_INSERTION, 0.0, 10.0)):
        if knob == KNOB_CORRECTION:
            phi0 = base.phase(grid, CENTER)
            direction = (grid - CENTER) ** 2 / 2.0
        else:
            phi0 = with_knob(base, knob, 0.0).phase(grid, CENTER)
            direction = with_knob(base, knob, 1.0).phase(grid, CENTER) - phi0
        objective = knob_objective(amplitude, base, knob)
        for value in rng.uniform(lo, hi, 7):
            phi = phi0 + value * direction
            full = rate_at_zero_delay(apply_spectral_phase(amplitude, phi, phi))
            assert abs(objective(value) - full) <= bound


def fig3a_system():
    built = build_system(load_scenario("fig3a"))
    return built.base_chain, built.config.grid.omega_grid(PUMP_OMEGA)


@pytest.mark.parametrize("case", ["fig3a", "slab", "prism", "correction"])
def test_windowed_gdd_readout_equals_the_full_grid_fit(case, monkeypatch):
    grid = omega_grid()
    if case == "fig3a":
        chain, grid = fig3a_system()
    elif case == "slab":
        chain = ElementChain((Slab(get_material("sf10"), 37.0),))
    elif case == "prism":
        chain = ElementChain((PrismCompressor(get_material("sf14"), 352.0, 2.5),))
    else:
        chain = ElementChain((PhaseCorrection(gdd_fs2=50.0, tod_fs3=-30.0, quartic_fs4=400.0),))
    full = taylor_dispersion(grid, chain.phase(grid, CENTER), CENTER, 2)[1]
    sizes = []
    phase = ElementChain.phase

    def counted(self, omega_grid, center_omega):
        sizes.append(omega_grid.size)
        return phase(self, omega_grid, center_omega)

    monkeypatch.setattr(ElementChain, "phase", counted)
    assert chain_gdd_fs2(chain, grid, CENTER) == full
    assert sizes == [2 * max(12, grid.size // 16) + 1]


def test_fig3a_optimum_bits():
    # the folded objective keeps every scan and golden-section decision of
    # the full-spectrum sum, so the optimum and its readout keep their bits
    result = run_stages(load_scenario("fig3a")).optimization
    assert result.optimal_value == 27.68957021240852
    assert result.residual_gdd_fs2 == 27.689564166315517


@pytest.fixture
def chain_evaluations(monkeypatch):
    calls = []
    phase = ElementChain.phase

    def counted(self, omega_grid, center_omega):
        calls.append(self)
        return phase(self, omega_grid, center_omega)

    monkeypatch.setattr(ElementChain, "phase", counted)
    return calls


def test_chain_evaluated_a_fixed_number_of_times(default_kernel, base_chain,
                                                 chain_evaluations):
    seed = [e for e in base_chain.elements if isinstance(e, PrismCompressor)][0]
    for knob, bracket in ((KNOB_CORRECTION, (-200.0, 200.0)),
                          (KNOB_INSERTION, (seed.insertion_mm - 0.7, seed.insertion_mm + 0.7))):
        chain_evaluations.clear()
        optimize_dispersion(default_kernel, base_chain, knob, bracket)
        assert len(chain_evaluations) <= 3
    chain_evaluations.clear()
    solve_compensating_insertion(default_kernel.omega_grid, CENTER, base_chain)
    assert len(chain_evaluations) == 2


def test_negative_insertion_bracket_rejected_before_scanning(chain_evaluations):
    chain = ElementChain((PrismCompressor(get_material("sf14"), 352.0, 5.0),))
    with pytest.raises(ValidationError, match="insertion bracket"):
        optimize_dispersion(gaussian_amplitude(), chain, KNOB_INSERTION, (-1.0, 5.0))
    assert chain_evaluations == []


def test_insertion_knob_requires_single_compressor():
    fs = get_material("fused_silica")
    with pytest.raises(ValidationError):
        with_knob(ElementChain((Slab(fs, 1.0),)), KNOB_INSERTION, 3.0)


def test_optimize_over_physical_insertion(default_kernel, base_chain, optimum):
    # the experimental knob: glass insertion instead of the abstract
    # correction; both must land on the same residual curvature
    result_corr, _ = optimum
    seed = [e for e in base_chain.elements if isinstance(e, PrismCompressor)][0]
    lo, hi = seed.insertion_mm - 0.7, seed.insertion_mm + 0.7
    result = optimize_dispersion(default_kernel, base_chain, KNOB_INSERTION, (lo, hi))
    assert not result.edge_solution
    assert result.residual_gdd_fs2 == pytest.approx(result_corr.residual_gdd_fs2, abs=3.0)
    assert certify_local_maximum(default_kernel, base_chain, result)


def test_insertion_knob_replaces_value():
    sf14 = get_material("sf14")
    chain = ElementChain((PrismCompressor(sf14, 352.0, 5.0),))
    chain2 = with_knob(chain, KNOB_INSERTION, 7.25)
    assert chain2.elements[0].insertion_mm == 7.25
    assert chain.elements[0].insertion_mm == 5.0  # original untouched


def test_added_common_gdd_never_raises_zero_delay_rate(default_kernel, optimum):
    # energy redistributes but the transform-limited peak is the ceiling
    _, chain_opt = optimum
    fs = get_material("fused_silica")
    sf10 = get_material("sf10")
    grid = default_kernel.omega_grid
    rates = []
    for extra in (None, Slab(fs, 6.0), Slab(fs, 12.0), Slab(sf10, 5.0), Slab(sf10, 37.0)):
        chain = chain_opt if extra is None else chain_opt.extended(extra)
        phi = chain.phase(grid, CENTER)
        from pairtrace.spdc import apply_spectral_phase

        rates.append(rate_at_zero_delay(apply_spectral_phase(default_kernel, phi, phi)))
    assert all(a > b for a, b in zip(rates, rates[1:]))
