"""Shared fixtures: the bundled fig3a scenario runs once per session through
the shared stages, and its intermediates are reused across test modules.
Also hosts the acceptance-summary hook that prints one pass/fail line per
criterion."""

import pytest

from pairtrace.scenario import load_scenario, run_stages
from pairtrace.units import omega_from_wavelength_nm

ACCEPTANCE_LINES = []

# fig3a's pump and crystal temperatures, for tests that build their own systems
PUMP_OMEGA = omega_from_wavelength_nm(532.0)
T_PM_C = 50.0
T_OP_C = T_PM_C - 1.5


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fig3a_stages():
    """The StageRun of fig3a: build, kernel, optimum and chain phases."""
    return run_stages(load_scenario("fig3a"))


@pytest.fixture(scope="session")
def poling_period(fig3a_stages):
    return fig3a_stages.built.config.dc_crystal.poling_period_um


@pytest.fixture(scope="session")
def default_config(fig3a_stages):
    return fig3a_stages.built.config


@pytest.fixture(scope="session")
def default_kernel(fig3a_stages):
    return fig3a_stages.kernel


@pytest.fixture(scope="session")
def base_chain(fig3a_stages):
    """Half crystals plus the compressor at curvature-compensating insertion."""
    return fig3a_stages.built.base_chain


@pytest.fixture(scope="session")
def optimum(fig3a_stages):
    """Dispersion optimization result and the optimized chain."""
    return fig3a_stages.optimization, fig3a_stages.chain
