"""Delay traces R(tau) from a spectral amplitude, and trace metrics.

R(tau) = |sum_w S(w) K(w, tau) dw|^2. The signal-delay kernel is
K = exp(-i w tau). The v-mask kernel exp(-i |w - w_p/2| tau) shifts
lower- and higher-frequency pair members oppositely in time; folded
about w_p/2, the spectrum sits on uniform offsets |w - w_p/2|. On a
uniform delay grid either sum is a chirp-z transform (Rabiner, Schafer &
Rader, IEEE Trans. Audio Electroacoust. 17 (1969) 86), evaluated by one
Bluestein convolution (Bluestein, ibid. 18 (1970) 451).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SamplingError, ValidationError

KERNEL_SIGNAL_DELAY = "signal-delay"
KERNEL_V_MASK = "v-mask"
KERNELS = (KERNEL_SIGNAL_DELAY, KERNEL_V_MASK)

MAX_TAU_STEP_FS = 0.5
MAX_TRACE_DELAYS = 2 ** 18  # work cap on the delays of one trace
MIN_ZERO_PAD = 8
PEAK_RTOL = 1e-9   # samples this close to the maximum count as the peak


@dataclass
class UpconversionTrace:
    """Upconversion rate versus signal/idler delay, arbitrary units.

    `energy` is the delay integral of the rate, kept for energy-conservation
    checks: for the signal-delay kernel over the full window 2 pi / dw,
    independent of the crop; for the v-mask kernel over the trace itself.
    """

    tau_grid: np.ndarray
    rate: np.ndarray
    energy: float

    def __post_init__(self):
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        self.rate = np.asarray(self.rate, dtype=float)
        if self.tau_grid.ndim != 1 or self.rate.shape != self.tau_grid.shape:
            raise ValidationError("tau grid and rate must be matching 1-d arrays")
        steps = np.diff(self.tau_grid)
        if not (np.all(steps > 0) and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
            raise ValidationError("tau grid must be uniform and increasing")
        if steps[0] > MAX_TAU_STEP_FS * (1 + 1e-12):
            raise ValidationError("tau grid spacing must be <= 0.5 fs")
        if abs(self.tau_grid[0] + self.tau_grid[-1]) > 1e-9:
            raise ValidationError("tau grid must be symmetric about zero")
        if np.any(self.rate < 0) or not np.all(np.isfinite(self.rate)):
            raise ValidationError("rate must be finite and nonnegative")

    @property
    def dtau(self):
        return float(self.tau_grid[1] - self.tau_grid[0])


@dataclass
class TraceMetrics:
    """Peak, width and extrema read from a trace.

    fwhm_fs is None when the trace never crosses half of its maximum on
    both sides (flat or monotone traces); no width is fabricated.
    """

    peak_rate: float
    peak_tau_fs: float
    fwhm_fs: float | None
    secondary_maxima_fs: list
    minima_fs: list
    integral: float


def rate_at_zero_delay(amplitude):
    """R(0) = |sum S dw|^2 without building the full trace."""
    return float(np.abs(np.sum(amplitude.values) * amplitude.domega) ** 2)


def _check_step(amplitude, tau_step_fs):
    span = amplitude.omega_grid[-1] - amplitude.omega_grid[0]
    limit = min(MAX_TAU_STEP_FS, 2.0 * np.pi / (10.0 * span))
    if tau_step_fs > limit * (1 + 1e-12):
        raise SamplingError(
            f"tau step {tau_step_fs:g} fs undersamples the trace; "
            f"need <= {limit:.4f} fs for this spectrum"
        )


def check_delay_grid(tau_span_fs, tau_step_fs):
    """Range checks of a delay grid, made before anything is allocated. The
    v-mask grid has at most 2 span/step + 1 delays; _check_step keeps the
    signal-delay step in (step/2, step], so that grid has < 4 span/step + 3."""
    if not (tau_span_fs > 0 and tau_step_fs > 0):
        raise ValidationError("tau span and step must be positive")
    if not tau_span_fs >= tau_step_fs:
        raise ValidationError("tau_span_fs must be >= tau_step_fs")
    count = 4.0 * tau_span_fs / tau_step_fs + 3.0
    if not count <= MAX_TRACE_DELAYS:
        # a span that not even the coarsest admissible step fits is too wide
        wide = 4.0 * tau_span_fs / MAX_TAU_STEP_FS + 3.0 > MAX_TRACE_DELAYS
        fault = "tau_span_fs too large" if wide else "tau_step_fs too small"
        raise ValidationError(
            f"{fault}: up to {count:.3g} delays, over the work cap of {MAX_TRACE_DELAYS}"
        )


def _chirp_z(coeffs, offset, theta, steps):
    """sum_m c_m W^(k q), W = exp(-i theta), q = m + offset, at k = -steps..steps,
    up to a unit-modulus factor per k: with k q = (k^2 + q^2 - (k - q)^2) / 2
    it is the convolution of c_m W^(q^2/2) with W^(-(k - q)^2/2), times
    W^(k^2/2). Offsets centred on the spectrum keep the chirp phases, and
    so their rounding, small.
    """
    m = np.arange(coeffs.size)
    j = np.arange(-(coeffs.size - 1) - steps, steps + 1)  # every k - m
    length = 1 << (j.size - 1).bit_length()  # power of two >= j.size
    conv = np.fft.ifft(
        np.fft.fft(coeffs * np.exp(-0.5j * theta * (m + offset) ** 2), length)
        * np.fft.fft(np.exp(0.5j * theta * (j - offset) ** 2), length)
    )
    return conv[coeffs.size - 1:coeffs.size + 2 * steps]


def trace(amplitude, kernel=KERNEL_SIGNAL_DELAY, tau_span_fs=150.0, tau_step_fs=0.35):
    """Delay trace R(tau) on a symmetric grid covering +-tau_span_fs.

    Both kernels are one chirp-z evaluation. The signal-delay grid has the
    step of a zero-padded FFT, 2 pi / (n pad dw), padding at least 8x and
    grown until the step is <= tau_step_fs; its energy comes from the
    unpadded n-point FFT. The v-mask grid has the stated step.
    """
    if kernel not in KERNELS:
        raise ValidationError(f"unknown delay kernel {kernel!r}; use one of {KERNELS}")
    check_delay_grid(tau_span_fs, tau_step_fs)
    _check_step(amplitude, tau_step_fs)

    values = amplitude.values
    dom = amplitude.domega
    if kernel == KERNEL_SIGNAL_DELAY:
        if tau_span_fs >= np.pi / dom:
            raise SamplingError(
                "tau span exceeds the transform window of this frequency grid; "
                "refine the grid spacing"
            )
        n = values.size
        pad = MIN_ZERO_PAD
        while 2.0 * np.pi / (n * pad * dom) > tau_step_fs:
            pad *= 2
        # the delays of a padded FFT's bins within the span, 2 pi (k / (n pad dom))
        dtau = 2.0 * np.pi / (n * pad * dom)
        reach = int(tau_span_fs / dtau) + 1
        tau = 2.0 * np.pi * (np.arange(-reach, reach + 1) * (1.0 / (n * pad * dom)))
        tau = tau[np.abs(tau) <= tau_span_fs + dtau * 1e-9]
        # offsets centred on the middle sample: w_m - w_p/2 = (m - (n-1)/2) dw
        amps = _chirp_z(values, -(n - 1) / 2.0, 2.0 * np.pi / (n * pad), tau.size // 2)
        # the full window's delay integral, sampled exactly by the n-point FFT
        spectrum = np.abs(np.fft.fft(values) * dom)
        energy = float(np.sum(spectrum * spectrum) * (2.0 * np.pi / (n * dom)))
        return UpconversionTrace(tau, np.abs(amps * dom) ** 2, energy)

    # |w - w_p/2| is (m + 1/2) dw for an even number of samples and m dw for
    # an odd one: fold onto m, the 1/2 is a unit-modulus factor per delay
    mid = values.size // 2
    folded = values[mid:].copy()           # for odd n, values[mid] is the centre
    folded[values.size % 2:] += values[mid - 1::-1]
    # the step from the full span: domega, a difference of neighbours, is
    # off by ~1e-12 relative, which k m ~ 1e6 would turn into phase error
    grid = amplitude.omega_grid
    theta = tau_step_fs * (grid[-1] - grid[0]) / (grid.size - 1)
    steps = int(np.floor(tau_span_fs / tau_step_fs + 1e-9))
    tau = np.arange(-steps, steps + 1) * tau_step_fs
    rate = np.abs(_chirp_z(folded, 0, theta, steps) * dom) ** 2
    energy = float(np.trapezoid(rate, tau))
    return UpconversionTrace(tau, rate, energy)


def _half_crossing(tau, rate, start, step, half):
    i = start
    while 0 <= i + step < rate.size:
        j = i + step
        if (rate[i] - half) * (rate[j] - half) <= 0 and rate[i] != rate[j]:
            frac = (half - rate[i]) / (rate[j] - rate[i])
            return tau[i] + frac * (tau[j] - tau[i])
        i = j
    return None


def metrics(tr):
    """Read peak, FWHM, extrema and the delay integral off a trace.

    The peak is the sample of smallest |tau| among those within PEAK_RTOL
    of the maximum, the negative one on a tie, so the two equal lobes of a
    symmetric trace do not trade places on round-off. FWHM comes from
    linear interpolation between the samples bracketing half maximum;
    extrema from sign changes of the first difference of the raw samples
    (the theoretical traces are noise-free); the integral from the
    trapezoid rule over the trace's own window.
    """
    tau = tr.tau_grid
    rate = tr.rate
    near = np.flatnonzero(rate >= rate.max() * (1.0 - PEAK_RTOL))
    i_pk = int(near[np.argmin(np.abs(tau[near]))])   # tau ascends: -|tau| first
    peak = float(rate[i_pk])
    half = peak / 2.0

    left = _half_crossing(tau, rate, i_pk, -1, half)
    right = _half_crossing(tau, rate, i_pk, +1, half)
    fwhm = None if (left is None or right is None) else float(right - left)

    d = np.diff(rate)
    interior_max = np.where((d[:-1] > 0) & (d[1:] <= 0))[0] + 1
    interior_min = np.where((d[:-1] < 0) & (d[1:] >= 0))[0] + 1

    minima = []
    lower = [i for i in interior_min if i < i_pk]
    upper = [i for i in interior_min if i > i_pk]
    lobe_lo = max(lower) if lower else None
    lobe_hi = min(upper) if upper else None
    for idx in (lobe_lo, lobe_hi):
        if idx is not None:
            minima.append(float(tau[idx]))

    secondary = []
    if lobe_lo is not None:
        cands = [i for i in interior_max if i < lobe_lo]
        if cands:
            secondary.append(float(tau[max(cands, key=lambda i: rate[i])]))
    if lobe_hi is not None:
        cands = [i for i in interior_max if i > lobe_hi]
        if cands:
            secondary.append(float(tau[max(cands, key=lambda i: rate[i])]))
    secondary.sort()

    return TraceMetrics(
        peak_rate=peak,
        peak_tau_fs=float(tau[i_pk]),
        fwhm_fs=fwhm,
        secondary_maxima_fs=secondary,
        minima_fs=sorted(minima),
        integral=float(np.trapezoid(rate, tau)),
    )


def peak_to_mean_ratio(tr, window_fs=80.0):
    """Peak over mean rate within |tau| <= window; flatness figure."""
    sel = np.abs(tr.tau_grid) <= window_fs
    if not np.any(sel):
        raise ValidationError("window contains no trace samples")
    mean = float(np.mean(tr.rate[sel]))
    if mean == 0.0:
        return 0.0 if np.max(tr.rate[sel]) == 0.0 else np.inf
    return float(np.max(tr.rate[sel]) / mean)


def parseval_check(amplitude, tr):
    """Relative mismatch between the trace energy and 2 pi sum |S|^2 dw."""
    reference = 2.0 * np.pi * float(np.sum(np.abs(amplitude.values) ** 2)) * amplitude.domega
    if reference == 0.0:
        raise ValidationError("empty spectrum in parseval check")
    return abs(tr.energy - reference) / reference


def write_trace_csv(tr, path):
    """Dump the trace: delay [fs], rate [arbitrary units]."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau_fs,rate_arb\n")
        table = np.column_stack((tr.tau_grid, tr.rate))
        fh.write("%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist()))


def format_width(value):
    """A width or width ratio at full precision, or 'undefined' for None."""
    return "undefined" if value is None else f"{value:.17g}"


def metrics_lines(m, extra=None):
    """Flat key=value lines for a metrics block."""
    out = [
        f"peak_rate={m.peak_rate:.17g}",
        f"peak_tau_fs={m.peak_tau_fs:.17g}",
        f"fwhm_fs={format_width(m.fwhm_fs)}",
        "secondary_maxima_fs=" + " ".join(f"{v:.17g}" for v in m.secondary_maxima_fs),
        "minima_fs=" + " ".join(f"{v:.17g}" for v in m.minima_fs),
        f"integral={m.integral:.17g}",
    ]
    if extra:
        out.extend(f"{k}={v}" for k, v in extra.items())
    return out


def write_metrics_txt(m, path, extra=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(metrics_lines(m, extra)) + "\n")
