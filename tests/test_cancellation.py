"""Nonlocal dispersion cancellation as an exact invariant of the pipeline.

The idler sits at w_p - w_s, so a medium crossed by both photons adds
phi(w0 + W) + phi(w0 - W) to the pair: odd spectral orders (group delay,
TOD) cancel and GDD counts twice (Franson, Phys. Rev. A 45, 3126 (1992)).
Every check runs through `scenario.dress` and `delayscan.trace` on the
fig3a kernel at grid scale 0.5. Phases that `dress` adds to one chain are
checked on an empty base chain: the optimized fig3a chain phase reaches
about 6e6 rad, and a window phase summed into it is rounded at its ulp
(about 1e-9 rad), which alone moves the trace by up to ~1e-10 of its peak.
"""

import numpy as np
import pytest

from pairtrace import delayscan, scenario
from pairtrace.dispersionopt import ElementChain, PhaseCorrection
from pairtrace.spdc import apply_spectral_phase

EMPTY = ElementChain(())


@pytest.fixture(scope="module")
def fig3a_half():
    sc = scenario.load_scenario("fig3a")
    return sc, scenario.run_stages(sc, 0.5)


def fig3a_trace(fig3a_half, chain=EMPTY, window=EMPTY, idler_chain=None, odd=None):
    sc, system = fig3a_half
    phases = scenario.chain_phases(system.kernel, chain, idler_chain)
    amplitude = scenario.dress(system.kernel, phases, window)
    if odd is not None:
        amplitude = apply_spectral_phase(amplitude, odd, odd)
    return delayscan.trace(amplitude, sc.kernel, sc.tau_span_fs, sc.tau_step_fs).rate


def assert_same_trace(rate, reference):
    assert np.max(np.abs(rate - reference)) <= 1e-12 * reference.max()


def test_shared_odd_phase_leaves_trace_unchanged(fig3a_half):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    _, system = fig3a_half
    bare = fig3a_trace(fig3a_half)
    optimized = fig3a_trace(fig3a_half, chain=system.chain)
    d = system.kernel.omega_grid - system.kernel.pump_omega / 2.0

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(
        tod=st.floats(-2e4, 2e4),
        delay=st.floats(-300.0, 300.0),
        fifth=st.floats(-1e6, 1e6),
    )
    def check(tod, delay, fifth):
        shared_tod = ElementChain((PhaseCorrection(tod_fs3=tod),))
        assert_same_trace(fig3a_trace(fig3a_half, window=shared_tod), bare)
        odd = delay * d + fifth / 120.0 * d ** 5
        assert_same_trace(fig3a_trace(fig3a_half, chain=system.chain, odd=odd), optimized)

    check()


@pytest.mark.parametrize("gdd", [50.0, 198.0, 513.0])
def test_gdd_on_both_photons_counts_twice(fig3a_half, gdd):
    both = fig3a_trace(fig3a_half, window=ElementChain((PhaseCorrection(gdd_fs2=gdd),)))
    signal_only = fig3a_trace(
        fig3a_half,
        chain=ElementChain((PhaseCorrection(gdd_fs2=2.0 * gdd),)),
        idler_chain=EMPTY,
    )
    assert_same_trace(both, signal_only)


def test_idler_only_tod_changes_trace(fig3a_half):
    # control: the invariant above must not hold for a one-sided odd phase
    _, system = fig3a_half
    reference = fig3a_trace(fig3a_half, chain=system.chain)
    idler_tod = fig3a_trace(
        fig3a_half,
        chain=system.chain,
        idler_chain=system.chain.extended(PhaseCorrection(tod_fs3=2e4)),
    )
    assert np.max(np.abs(idler_tod - reference)) > 0.05 * reference.max()
