"""Refractive-index models and spectral-phase evaluation for the media in
the optical system: the poled crystal, the prism glasses and the window
glass. All dispersion formulas reduce to

    n^2(lam) = const + sum_k N_k / (lam^2 - C_k) + sum_j D_j lam^(2j)

so index derivatives in wavelength are available in closed form. Also
holds the line-numbered `[section] key = value` reader that both the
materials data and the scenario files are read with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ValidationError, WavelengthRangeError
from .units import C_UM_FS, wavelength_nm_from_omega

_FORMULAS = ("sellmeier", "sellmeier_power", "mgln_e")


@dataclass(frozen=True)
class MaterialModel:
    """A named medium with its dispersion formula and validity window."""

    name: str
    formula_id: str
    coefficients: tuple
    valid_range_nm: tuple
    temperature_terms: tuple | None = None

    def __post_init__(self):
        if self.formula_id not in _FORMULAS:
            raise ValidationError(
                f"material {self.name!r}: unknown formula_id {self.formula_id!r}"
            )
        lo, hi = self.valid_range_nm
        if not (0 < lo < hi):
            raise ValidationError(f"material {self.name!r}: bad valid_range_nm")
        if self.formula_id == "mgln_e" and self.temperature_terms is None:
            raise ValidationError(
                f"material {self.name!r}: mgln_e requires temperature_terms"
            )


def _rational_terms(material, temperature_C):
    """Reduce the material formula to (const, N[], C[], D[]) at temperature."""
    c = material.coefficients
    if material.formula_id == "mgln_e":
        a1, a2, a3, a4, a5, a6 = c
        b1, b2, b3, b4 = material.temperature_terms
        f = (temperature_C - 24.5) * (temperature_C + 570.82)
        const = a1 + b1 * f
        nums = (a2 + b2 * f, a4 + b4 * f)
        poles = ((a3 + b3 * f) ** 2, a5 ** 2)
        powers = (-a6,)
        return const, nums, poles, powers
    if material.formula_id == "sellmeier_power":
        pairs, powers = c[:-2], c[-2:]
    else:
        pairs, powers = c, ()
    B = pairs[0::2]
    C = pairs[1::2]
    # B lam^2 / (lam^2 - C) = B + B C / (lam^2 - C)
    const = 1.0 + sum(B)
    nums = tuple(b * cc for b, cc in zip(B, C))
    return const, nums, C, powers


def _n_and_derivatives(material, lam_um, temperature_C):
    """Index and its first two wavelength derivatives [um based]."""
    const, nums, poles, powers = _rational_terms(material, temperature_C)
    lam2 = lam_um ** 2
    y = np.full_like(np.asarray(lam_um, dtype=float), const)
    y1 = np.zeros_like(y)   # d(n^2)/dlam
    y2 = np.zeros_like(y)   # d2(n^2)/dlam2
    for num, pole in zip(nums, poles):
        u = lam2 - pole
        y += num / u
        y1 += -2.0 * lam_um * num / u ** 2
        y2 += -2.0 * num / u ** 2 + 8.0 * lam2 * num / u ** 3
    for j, d in enumerate(powers, start=1):
        p = 2 * j
        y += d * lam_um ** p
        y1 += d * p * lam_um ** (p - 1)
        y2 += d * p * (p - 1) * lam_um ** (p - 2)
    n = np.sqrt(y)
    dn = y1 / (2.0 * n)
    d2n = y2 / (2.0 * n) - y1 ** 2 / (4.0 * n ** 3)
    return n, dn, d2n


# Entries of the index cache. A run evaluates at most a few distinct
# (material, temperature, grid) inputs; an entry holds the wavelength bytes
# and n, about 32 KB on a 2048-sample grid.
_INDEX_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_INDEX_CACHE_SIZE)
def _cached_index(material, temperature_C, shape, lam_bytes):
    lam_um = np.frombuffer(lam_bytes, dtype=float).reshape(shape)
    n, _, _ = _n_and_derivatives(material, lam_um, temperature_C)
    n.flags.writeable = False
    return n


def _index(material, lam_um, temperature_C):
    """n(lam) [um based]: a float for a scalar, else a read-only array that
    is evaluated once per (material, temperature, wavelength array)."""
    if lam_um.ndim == 0:
        n, _, _ = _n_and_derivatives(material, lam_um, temperature_C)
        return float(n)
    return _cached_index(material, float(temperature_C), lam_um.shape, lam_um.tobytes())


def _check_range(material, wavelength_nm):
    lo, hi = material.valid_range_nm
    wmin = np.min(wavelength_nm)
    wmax = np.max(wavelength_nm)
    if wmin < lo or wmax > hi:
        raise WavelengthRangeError(
            f"wavelength {wmin:.1f}-{wmax:.1f} nm outside validity range "
            f"[{lo:.0f}, {hi:.0f}] nm of material {material.name!r}"
        )


def refractive_index(material, wavelength_nm, temperature_C=20.0):
    """Phase index n(lam, T). Wavelength in nm, temperature in deg C.

    Temperature enters only through the crystal formula; the glass models
    are room-temperature fits and ignore it. A scalar wavelength gives a
    float; an array gives a read-only array of its shape, kept in a
    bounded per-process cache keyed by material, temperature and the
    wavelength array.
    """
    _check_range(material, wavelength_nm)
    return _index(material, np.asarray(wavelength_nm, dtype=float) / 1000.0, temperature_C)


def spectral_phase_of_slab(material, thickness_mm, omega_grid, temperature_C=20.0):
    """Propagation phase n(w) w z / c through a plane slab: an array in rad
    on omega_grid.

    Additive under slab concatenation. thickness_mm >= 0.
    """
    if thickness_mm < 0:
        raise ValidationError("slab thickness must be >= 0")
    omega_grid = np.asarray(omega_grid, dtype=float)
    if thickness_mm == 0:
        return np.zeros_like(omega_grid)
    lam_nm = wavelength_nm_from_omega(omega_grid)
    _check_range(material, lam_nm)
    n = _index(material, lam_nm / 1000.0, temperature_C)
    z_um = thickness_mm * 1000.0
    return n * omega_grid * z_um / C_UM_FS


def group_delay_dispersion(material, thickness_mm, wavelength_nm, temperature_C=20.0):
    """Slab phase curvature phi'' = d2 phi / dw2 at a wavelength, in fs^2.

    Evaluated from the closed-form index derivatives via
    phi'' = z lam^3 / (2 pi c^2) d2n/dlam2. thickness_mm >= 0.
    """
    if thickness_mm < 0:
        raise ValidationError("slab thickness must be >= 0")
    _check_range(material, wavelength_nm)
    lam_um = wavelength_nm / 1000.0
    _, _, d2n = _n_and_derivatives(material, np.asarray(lam_um, dtype=float), temperature_C)
    z_um = thickness_mm * 1000.0
    return float(z_um * lam_um ** 3 / (2.0 * np.pi * C_UM_FS ** 2) * d2n)


def taylor_window(omega_grid, center_omega, max_order):
    """The slice of a uniform, strictly increasing omega grid that
    taylor_dispersion fits: 2 half + 1 samples about the one nearest
    center_omega, half = max(12, n // 16) clipped to the grid."""
    if not 1 <= max_order <= 4:
        raise ValidationError("max_order must be between 1 and 4")
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("omega grid must be a 1-d array of at least 2 samples")
    steps = np.diff(grid)
    if not (np.all(steps > 0) and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
        raise ValidationError("omega grid must be uniform and strictly increasing")
    n = grid.size
    i0 = int(np.argmin(np.abs(grid - center_omega)))
    half = max(12, n // 16)
    half = min(half, i0, n - 1 - i0)
    if half < max_order + 3:
        raise ValidationError(
            "center_omega too close to the grid edge for a dispersion fit"
        )
    return slice(i0 - half, i0 + half + 1)


def taylor_fit(offsets, phase, max_order):
    """Dispersion orders phi', ..., phi^(max_order) from a polynomial fit to
    the phase [rad] at the taylor_window offsets w - center_omega."""
    if not np.all(np.isfinite(phase)):
        raise ValidationError("spectral phase contains non-finite samples")
    scale = offsets[-1]
    deg = min(max_order + 2, offsets.size - 1)
    coeffs = np.polynomial.polynomial.polyfit(offsets / scale, phase, deg)
    out = []
    fact = 1.0
    for k in range(1, max_order + 1):
        fact *= k
        out.append(float(coeffs[k] * fact / scale ** k))
    return out


def taylor_dispersion(omega_grid, phase, center_omega, max_order):
    """Dispersion orders phi', phi'', ..., phi^(max_order) at center_omega.

    Local polynomial fit to the phase [rad] sampled on a uniform, strictly
    increasing omega grid; returns a list of length max_order with entries
    in fs, fs^2, ... Order 4 is the highest supported.
    """
    grid = np.asarray(omega_grid, dtype=float)
    phase = np.asarray(phase, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or phase.shape != grid.shape:
        raise ValidationError("phase and omega grid must be matching 1-d arrays")
    sel = taylor_window(grid, center_omega, max_order)
    if not np.all(np.isfinite(phase)):
        raise ValidationError("spectral phase contains non-finite samples")
    return taylor_fit(grid[sel] - center_omega, phase[sel], max_order)


# ----------------------------------------------------------------- data files

def read_sections(text, source, section_keys):
    """Sections of `key = value` lines under `[section]` headers; `#` comments.

    section_keys(name) gives the keys a section accepts (any container), or
    None for an unknown section. Returns {section: {key: (value, lineno)}}.
    Malformed lines, unknown sections and keys, and a section or key given
    twice raise ValidationError citing source:line. Shared by the materials
    data and the scenario files.
    """
    sections = {}
    body = keys = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ValidationError(f"{where}: empty section name")
            if name in sections:
                raise ValidationError(f"{where}: section [{name}] given twice")
            keys = section_keys(name)
            if keys is None:
                raise ValidationError(f"{where}: unknown section [{name}]")
            body = sections[name] = {}
            continue
        if body is None:
            raise ValidationError(f"{where}: content before any [section]")
        if "=" not in line:
            raise ValidationError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"{where}: empty key")
        if key not in keys:
            raise ValidationError(f"{where}: unknown key {key!r} in [{name}]")
        if key in body:
            raise ValidationError(f"{where}: key {key!r} given twice in [{name}]")
        body[key] = (value, lineno)
    return sections


class Section:
    """Typed access to one parsed section (or element line) whose errors cite
    source:line. label names it in messages; lineno is cited for a missing key."""

    def __init__(self, source, label, body, lineno=None):
        self.source = source
        self.label = label
        self.body = body or {}
        self.lineno = lineno

    def raw(self, key, default=None):
        return self.body[key][0] if key in self.body else default

    def fail(self, key, message):
        lineno = self.body[key][1] if key in self.body else self.lineno
        where = self.source if lineno is None else f"{self.source}:{lineno}"
        raise ValidationError(f"{where}: {self.label} {key}: {message}")

    def _default(self, key, default):
        if default is None:
            self.fail(key, "missing required key")
        return default

    def _finite(self, key, text):
        try:
            value = float(text)
        except ValueError:
            self.fail(key, f"not a number: {text!r}")
        if not np.isfinite(value):
            self.fail(key, f"not a finite number: {text!r}")
        return value

    def number(self, key, default=None):
        raw = self.raw(key)
        if raw is None:
            return self._default(key, default)
        return self._finite(key, raw)

    def positive(self, key, default=None):
        value = self.number(key, default)
        if value <= 0:
            self.fail(key, "must be > 0")
        return value

    def numbers(self, key, default=None, count=None):
        """Whitespace-separated numbers as a tuple; count fixes how many."""
        raw = self.raw(key)
        if raw is None:
            return self._default(key, default)
        parts = raw.split()
        if not parts or (count is not None and len(parts) != count):
            self.fail(key, f"expected {count or 'one or more'} numbers")
        return tuple(self._finite(key, part) for part in parts)

    def integer(self, key, default):
        value = self.number(key, float(default))
        if value != int(value):
            self.fail(key, "not an integer")
        return int(value)

    def word(self, key, default=None, choices=None):
        raw = self.raw(key)
        if raw is None:
            return self._default(key, default)
        if choices and raw not in choices:
            self.fail(key, f"must be one of {choices}")
        return raw

    def flag(self, key, default):
        raw = self.raw(key, "on" if default else "off")
        if raw not in ("on", "off"):
            self.fail(key, "must be 'on' or 'off'")
        return raw == "on"


_MATERIAL_KEYS = ("formula_id", "coefficients", "valid_range_nm", "temperature_terms")


def _parse_materials_text(text, source="materials data"):
    materials = {}
    for name, body in read_sections(text, source, lambda name: _MATERIAL_KEYS).items():
        sec = Section(source, f"[{name}]", body)
        materials[name] = MaterialModel(
            name,
            sec.word("formula_id", choices=_FORMULAS),
            sec.numbers("coefficients"),
            sec.numbers("valid_range_nm", count=2),
            sec.numbers("temperature_terms", ()) or None,
        )
    return materials


def load_materials(path=None):
    """Load the material registry from a data file (bundled file by default)."""
    if path is None:
        text = resources.files("pairtrace.data").joinpath("materials.txt").read_text()
        return _parse_materials_text(text)
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_materials_text(fh.read(), source=str(path))


@functools.cache
def bundled_registry():
    """The bundled material registry, loaded once per process and shared."""
    return load_materials()


def get_material(name):
    """Fetch a material from the bundled registry."""
    registry = bundled_registry()
    try:
        return registry[name]
    except KeyError:
        raise ValidationError(
            f"unknown material {name!r}; available: {sorted(registry)}"
        ) from None
