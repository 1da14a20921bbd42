import numpy as np
import pytest

from pairtrace import SamplingError, ValidationError
from pairtrace.delayscan import (
    KERNEL_SIGNAL_DELAY,
    KERNEL_V_MASK,
    KERNELS,
    MAX_TRACE_DELAYS,
    UpconversionTrace,
    metrics,
    metrics_lines,
    parseval_check,
    peak_to_mean_ratio,
    rate_at_zero_delay,
    trace,
    write_trace_csv,
)
from pairtrace.spdc import GridSpec, SpectralAmplitude

from conftest import PUMP_OMEGA

SQRT_2LN2 = np.sqrt(2.0 * np.log(2.0))


def gaussian_amplitude(sigma=0.05, n=2048, half_span=0.55, phase=None, center_shift=0.0):
    """|S| = exp(-d^2 / 4 sigma^2): sigma is the intensity std."""
    grid = GridSpec(n, half_span, 16).omega_grid(PUMP_OMEGA)
    d = grid - PUMP_OMEGA / 2.0 - center_shift
    vals = np.exp(-(d ** 2) / (4.0 * sigma ** 2)).astype(complex)
    if phase is not None:
        vals = vals * np.exp(1j * phase(grid))
    return SpectralAmplitude(grid, vals, PUMP_OMEGA)


# ---------------------------------------------------------------- kernels

def test_gaussian_trace_has_analytic_width():
    sigma = 0.05
    tr = trace(gaussian_amplitude(sigma))
    m = metrics(tr)
    assert m.fwhm_fs == pytest.approx(SQRT_2LN2 / sigma, rel=0.01)
    assert m.peak_tau_fs == 0.0
    # the trace itself is Gaussian: log-rate is quadratic in tau
    sel = np.abs(tr.tau_grid) < 20.0
    logr = np.log(tr.rate[sel])
    fit = np.polynomial.polynomial.polyfit(tr.tau_grid[sel], logr, 2)
    assert fit[2] == pytest.approx(-2.0 * sigma ** 2, rel=1e-3)


def test_point_spectrum_gives_flat_trace():
    grid = GridSpec(256, 0.4, 16).omega_grid(PUMP_OMEGA)
    vals = np.zeros(grid.size, complex)
    vals[137] = 1.0
    S = SpectralAmplitude(grid, vals, PUMP_OMEGA)
    tr = trace(S, tau_span_fs=60.0)
    assert np.ptp(tr.rate) < 1e-12 * tr.rate.max()
    m = metrics(tr)
    assert m.fwhm_fs is None


def test_vmask_width_ratio_on_gaussian():
    sigma = 0.05
    reference = metrics(trace(gaussian_amplitude(sigma)))
    folded = metrics(trace(gaussian_amplitude(sigma), KERNEL_V_MASK))
    ratio = folded.fwhm_fs / reference.fwhm_fs
    assert ratio == pytest.approx(1.7, rel=0.05)


def test_vmask_has_heavy_tails():
    # Lorentzian-like decay: rate at 4x the half width stays far above a
    # Gaussian's, which would be ~1e-19 of peak there
    sigma = 0.05
    tr = trace(gaussian_amplitude(sigma), KERNEL_V_MASK)
    m = metrics(tr)
    tail = np.interp(4.0 * m.fwhm_fs, tr.tau_grid, tr.rate)
    assert tail / m.peak_rate > 1e-4


def random_amplitude(n, seed, half_span=0.55):
    """Seeded random complex spectrum under a Gaussian envelope."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(n, half_span, 16).omega_grid(PUMP_OMEGA)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    vals *= np.exp(-((np.arange(n) - (n - 1) / 2.0) / (0.3 * n)) ** 2)
    return SpectralAmplitude(grid, vals, PUMP_OMEGA)


# (kernel, n, span, step); a 500 fs span exceeds the transform window
# pi / dw of the signal-delay kernel on a 64-sample grid
CHIRP_Z_CASES = [
    pytest.param(kernel, n, span, 0.35, id=f"{prefix}{n}-{span}-0.35")
    for kernel, prefix in ((KERNEL_V_MASK, ""), (KERNEL_SIGNAL_DELAY, "signal-delay-"))
    for span in (150.0, 500.0)
    for n in (64, 65, 2048, 2049, 2793)
    if kernel == KERNEL_V_MASK or span < 500.0 or n > 65
]


@pytest.mark.parametrize("kernel, n, span, step", CHIRP_Z_CASES)
def test_vmask_chirp_z_matches_direct_sum(kernel, n, span, step):
    S = random_amplitude(n, seed=n)
    tr = trace(S, kernel, tau_span_fs=span, tau_step_fs=step)
    # oracle: the kernel exp(-i w tau), folded to exp(-i |w - w_p/2| tau)
    # for the v-mask, summed directly
    if kernel == KERNEL_V_MASK:
        mu = np.abs(S.omega_grid - PUMP_OMEGA / 2.0)
    else:
        mu = S.omega_grid
    direct = np.array(
        [np.abs(np.sum(S.values * np.exp(-1j * t * mu)) * S.domega) ** 2
         for t in tr.tau_grid]
    )
    assert np.max(np.abs(tr.rate - direct)) <= 1e-10 * direct.max()
    if kernel == KERNEL_V_MASK:
        assert tr.tau_grid.size == 2 * int(np.floor(span / step + 1e-9)) + 1
        assert tr.energy == np.trapezoid(tr.rate, tr.tau_grid)


@pytest.mark.parametrize(
    "n, span, step",
    [(64, 60.0, 0.35), (65, 150.0, 0.35), (1000, 100.0, 0.1),
     (2048, 150.0, 0.35), (2049, 40.0, 0.05)],
)
def test_signal_delay_trace_bit_identical_to_fftfreq_construction(n, span, step):
    """The delay grid is the padded FFT's, bit for bit; the rate (a chirp-z)
    and the energy (the unpadded FFT) agree with it to round-off."""
    S = random_amplitude(n, seed=n + 1)
    tr = trace(S, tau_span_fs=span, tau_step_fs=step)
    # oracle: the full-length fftfreq grid, masked to the span and sorted
    dom = S.domega
    pad = 8
    while 2.0 * np.pi / (n * pad * dom) > step:
        pad *= 2
    m = n * pad
    rate = np.abs(np.fft.fft(S.values, n=m) * dom) ** 2
    tau = 2.0 * np.pi * np.fft.fftfreq(m, d=dom)
    dtau = 2.0 * np.pi / (m * dom)
    keep = np.abs(tau) <= span + dtau * 1e-9
    order = np.argsort(tau[keep])
    np.testing.assert_array_equal(tr.tau_grid, tau[keep][order])
    # measured: rate within 3.9e-14 of the peak, energy within 1.0e-15
    assert np.max(np.abs(tr.rate - rate[keep][order])) <= 1e-13 * rate.max()
    assert tr.energy == pytest.approx(float(rate.sum() * dtau), rel=1e-14, abs=0.0)


def test_dft_matches_direct_summation_oracle():
    # 64-sample spectrum, brute-force kernel sum at the trace's own grid
    rng = np.random.default_rng(11)
    grid = GridSpec(64, 0.3, 16).omega_grid(PUMP_OMEGA)
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    vals *= np.exp(-((np.arange(64) - 31.5) / 18.0) ** 2)
    S = SpectralAmplitude(grid, vals, PUMP_OMEGA)
    tr = trace(S, tau_span_fs=80.0, tau_step_fs=0.3)
    dom = S.domega
    direct = np.array(
        [np.abs(np.sum(vals * np.exp(-1j * S.omega_grid * t)) * dom) ** 2
         for t in tr.tau_grid]
    )
    np.testing.assert_allclose(tr.rate, direct, rtol=1e-9, atol=1e-9 * direct.max())


def test_trace_grid_contains_zero_and_meets_step():
    tr = trace(gaussian_amplitude(), tau_span_fs=120.0, tau_step_fs=0.35)
    assert np.any(tr.tau_grid == 0.0)
    assert tr.dtau <= 0.35
    assert tr.tau_grid[-1] <= 120.0 + 1e-9
    assert tr.tau_grid[-1] >= 120.0 - tr.dtau


def test_undersampled_tau_step_rejected():
    wide = gaussian_amplitude(half_span=0.75)  # span limit: 2pi/(10 span) = 0.419
    with pytest.raises(SamplingError):
        trace(wide, tau_step_fs=0.45)


def test_delay_grid_over_work_cap_rejected_before_any_allocation():
    # 4 span/step + 3 bounds both kernels' delay counts; 6e8 of them here
    S = gaussian_amplitude()
    for kernel in KERNELS:
        with pytest.raises(ValidationError, match="tau_step_fs too small"):
            trace(S, kernel, tau_span_fs=150.0, tau_step_fs=1e-6)
        with pytest.raises(ValidationError, match="tau_span_fs too large"):
            trace(S, kernel, tau_span_fs=1e300, tau_step_fs=0.35)
        with pytest.raises(ValidationError, match="tau_span_fs must be >= tau_step_fs"):
            trace(S, kernel, tau_span_fs=1e-300, tau_step_fs=0.35)
    # the bound holds, and the largest grid the tests trace is far inside the cap
    bound = 4.0 * 500.0 / 0.35 + 3.0
    assert bound < MAX_TRACE_DELAYS / 40
    for kernel in KERNELS:
        assert trace(S, kernel, tau_span_fs=500.0, tau_step_fs=0.35).tau_grid.size < bound


def test_unknown_kernel_rejected():
    with pytest.raises(ValidationError):
        trace(gaussian_amplitude(), kernel="time-lens")


# ---------------------------------------------------------------- parseval

def test_parseval_signal_delay_exact():
    rng = np.random.default_rng(5)
    grid = GridSpec(512, 0.5, 16).omega_grid(PUMP_OMEGA)
    vals = (rng.normal(size=512) + 1j * rng.normal(size=512)) * np.exp(
        -((np.arange(512) - 255.5) / 120.0) ** 2
    )
    S = SpectralAmplitude(grid, vals, PUMP_OMEGA)
    assert parseval_check(S, trace(S)) < 1e-6


def test_parseval_invariant_under_pure_phase():
    sigma = 0.05
    plain = gaussian_amplitude(sigma)
    chirped = gaussian_amplitude(
        sigma, phase=lambda w: 180.0 * (w - PUMP_OMEGA / 2.0) ** 2
    )
    e0 = trace(plain).energy
    e1 = trace(chirped).energy
    assert abs(e1 - e0) / e0 < 1e-6
    assert parseval_check(chirped, trace(chirped)) < 1e-6


def test_parseval_vmask_one_sided_spectrum():
    # support strictly above the fold point: the folded kernel is then an
    # ordinary delay kernel and the energy identity must survive direct
    # summation over a window long enough for the tails
    S = gaussian_amplitude(sigma=0.02, center_shift=0.18)
    tr = trace(S, KERNEL_V_MASK, tau_span_fs=500.0, tau_step_fs=0.35)
    assert parseval_check(S, tr) < 1e-6


# ---------------------------------------------------------------- metrics

def test_triangle_peak_fwhm_exact():
    tau = np.arange(-200, 201) * 0.4
    w = 14.0
    rate = np.clip(1.0 - np.abs(tau) / (2 * w), 0.0, None)
    m = metrics(UpconversionTrace(tau, rate, energy=float(np.trapezoid(rate, tau))))
    assert m.fwhm_fs == pytest.approx(2 * w, rel=1e-12)
    assert m.integral == pytest.approx(2 * w, rel=1e-6)


def test_metrics_locate_sidelobes():
    tau = np.arange(-300, 301) * 0.25
    w = 0.15
    rate = np.sinc(w * tau) ** 2  # zeros at 1/w spacing, sidelobes between
    m = metrics(UpconversionTrace(tau, rate, energy=1.0))
    assert m.peak_tau_fs == 0.0
    # first minima at +-1/w, strongest sidelobe near +-1.43/w
    assert m.minima_fs[0] == pytest.approx(-1.0 / w, abs=0.5)
    assert m.minima_fs[1] == pytest.approx(+1.0 / w, abs=0.5)
    assert m.secondary_maxima_fs[0] == pytest.approx(-1.43 / w, abs=0.5)
    assert m.secondary_maxima_fs[1] == pytest.approx(+1.43 / w, abs=0.5)


def test_peak_of_two_lobes_equal_to_round_off_is_the_negative_one():
    tau = np.arange(-300, 301) * 0.25
    lobe = lambda t0: np.exp(-((tau - t0) / 5.0) ** 2)  # noqa: E731
    rate = lobe(-40.0) + lobe(40.0)
    for skew in (1.0 + 4e-16, 1.0 - 4e-16, 1.0 + 5e-10):
        tilted = rate * np.where(tau > 0, skew, 1.0)
        m = metrics(UpconversionTrace(tau, tilted, energy=1.0))
        assert m.peak_tau_fs == -40.0
        assert m.secondary_maxima_fs == [40.0] and m.minima_fs == [0.0]
    # a lobe higher by more than the stated tolerance is the peak
    tilted = rate * np.where(tau > 0, 1.0 + 1e-8, 1.0)
    assert metrics(UpconversionTrace(tau, tilted, energy=1.0)).peak_tau_fs == 40.0
    # among samples within the tolerance, the one nearest zero delay wins
    plateau = np.where(np.abs(tau) <= 10.0, 1.0, 0.5) * (1.0 + 1e-10 * np.abs(tau))
    assert metrics(UpconversionTrace(tau, plateau, energy=1.0)).peak_tau_fs == 0.0


def test_flat_trace_reports_undefined_width():
    tau = np.arange(-100, 101) * 0.5
    rate = np.full(tau.size, 0.7)
    m = metrics(UpconversionTrace(tau, rate, energy=1.0))
    assert m.fwhm_fs is None
    assert m.secondary_maxima_fs == []
    assert "undefined" in "\n".join(metrics_lines(m))


def test_peak_to_mean_ratio_flatness_figure():
    tau = np.arange(-300, 301) * 0.5
    flat = UpconversionTrace(tau, np.ones(tau.size), energy=1.0)
    assert peak_to_mean_ratio(flat) == pytest.approx(1.0)
    peaked = UpconversionTrace(tau, np.exp(-(tau / 10.0) ** 2), energy=1.0)
    assert peak_to_mean_ratio(peaked) > 5.0


def test_rate_at_zero_delay_matches_trace():
    S = gaussian_amplitude()
    tr = trace(S)
    i0 = int(np.argmin(np.abs(tr.tau_grid)))
    assert rate_at_zero_delay(S) == pytest.approx(tr.rate[i0], rel=1e-12)


# ---------------------------------------------------------------- invariants

def test_trace_validation():
    with pytest.raises(ValidationError):
        UpconversionTrace(np.array([-1.0, 0.0, 1.0]), np.array([0.1, -0.2, 0.1]), 1.0)
    with pytest.raises(ValidationError):
        UpconversionTrace(np.array([-1.0, 0.0, 2.0]), np.array([0.1, 0.2, 0.1]), 1.0)
    with pytest.raises(ValidationError):  # spacing above the 0.5 fs cap
        UpconversionTrace(np.array([-1.2, 0.0, 1.2]), np.array([0.1, 0.2, 0.1]), 1.0)


def test_trace_csv_roundtrip(tmp_path):
    tr = trace(gaussian_amplitude(), tau_span_fs=50.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(body[:, 0], tr.tau_grid)
    np.testing.assert_allclose(body[:, 1], tr.rate)
