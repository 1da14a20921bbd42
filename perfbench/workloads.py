"""The four benchmark workloads: seeded inputs, the timed op, the output check.

Each workload generates its whole input pool from the seed before timing;
the program receives only Scenario objects, `.scn` text or CLI arguments.
A pool is run in whole passes, so every pass does the same work and the
work counters per op repeat exactly.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from pairtrace import delayscan, dispersionopt, scenario, spdc
from pairtrace.materials import load_materials

HERE = Path(__file__).resolve().parent
POOL_SIZE = 12
GLASSES = ("fused_silica", "sf10", "sf14")


@dataclass
class Op:
    id: str
    kind: str
    choices: dict           # the generated input, as recorded in the output
    payload: object = None
    known_defect: str | None = None
    expect: dict = field(default_factory=dict)


def bundled_text(name):
    return resources.files("pairtrace.scenarios").joinpath(f"{name}.scn").read_text()


def substitute(text, old, new):
    if old not in text:
        raise ValueError(f"template line {old!r} not found")
    return text.replace(old, new)


def stratified(rng, lo, hi, n):
    """n values, one uniform draw in each of n equal strata, in seeded order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def balanced(rng, n):
    """n booleans, half of them true, in seeded order."""
    return rng.permutation(np.arange(n) % 2 == 1)


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tree_bytes(root):
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def near(value, target, rel):
    return value is not None and abs(value - target) <= rel * target


class Workload:
    root_span = "bench.op"
    claims = ()          # layers whose work counters must be nonzero here

    def setup(self, work):
        """Shared set-up, timed as setup_s (import happens before this)."""
        load_materials()

    def start_tracing(self, work):
        """Called once before the traced ops."""

    def counters(self, op, result, out):
        """Work counters of one traced op that the benchmark reads from its output."""
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ paper_fig3

class PaperFig3(Workload):
    """The 7 bundled scenarios through run_scenario, plus reproduce_fig3."""

    claims = ("materials", "phasematch", "spdc", "dispersionopt", "delayscan", "scenario")

    def setup(self, work):
        super().setup(work)
        self.digests = {}

    def pool(self, rng, work):
        ops = [Op(name, name, {"scenario": name}, bundled_text(name))
               for name in scenario.BUNDLED_SCENARIOS]
        ops.append(Op("reproduce_fig3", "reproduce_fig3", {"refine_check": True}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op, out):
        if op.payload is None:
            return scenario.reproduce_fig3(out, refine_check=True)
        sc = scenario.parse_scenario_text(op.payload, source=f"{op.id}.scn")
        return scenario.run_scenario(sc, out)

    def counters(self, op, result, out):
        return {"scenario.artifact_bytes": tree_bytes(out)}

    def check(self, op, result, out):
        digest = tree_digest(out)
        if self.digests.setdefault(op.id, digest) != digest:
            return "artifact tree differs from the first repetition"
        if op.id == "reproduce_fig3":
            return self._check_fig3(result, out)
        extras = result.extras
        if "parseval_discrepancy" in extras and float(extras["parseval_discrepancy"]) >= 1e-6:
            return f"parseval discrepancy {extras['parseval_discrepancy']}"
        if result.optimization is not None:
            if result.optimization.edge_solution:
                return "optimum on the bracket edge"
            if not 10.0 <= result.optimization.residual_gdd_fs2 <= 50.0:
                return f"residual GDD {result.optimization.residual_gdd_fs2:.2f} fs^2"
        if op.id == "gauss_vmask" and not near(float(extras["fwhm_ratio_vmask"]), 1.7, 0.05):
            return f"v-mask ratio {extras['fwhm_ratio_vmask']}"
        if op.id == "fig3a":
            m = result.trace_metrics
            maxima = sorted(abs(t) for t in m.secondary_maxima_fs)
            if not near(m.fwhm_fs, 25.0, 0.1):
                return f"fwhm {m.fwhm_fs} fs"
            if len(maxima) != 2 or not all(near(t, 42.0, 0.1) for t in maxima):
                return f"secondary maxima {m.secondary_maxima_fs}"
            if not near(float(extras["bandwidth_fwhm_nm"]), 130.0, 0.1):
                return f"bandwidth {extras['bandwidth_fwhm_nm']} nm"
        return None

    @staticmethod
    def _check_fig3(summary, out):
        if summary["flags"]:
            return "ladder flags: " + "; ".join(summary["flags"])
        rows = {row["case"]: row for row in summary["rows"]}
        if not near(rows["fig3a_optimum"]["fwhm_fs"], 25.0, 0.1):
            return f"optimum fwhm {rows['fig3a_optimum']['fwhm_fs']} fs"
        if not near(rows["gauss_vmask_ratio"]["peak_to_mean_80fs"], 1.7, 0.05):
            return f"v-mask ratio {rows['gauss_vmask_ratio']['peak_to_mean_80fs']}"
        if not 10.0 <= summary["optimization"].residual_gdd_fs2 <= 50.0:
            return f"residual GDD {summary['optimization'].residual_gdd_fs2:.2f} fs^2"
        if "passed True" not in (Path(out) / "convergence.txt").read_text():
            return "refinement ladder did not pass"
        return None


# ------------------------------------------------------------ dispersion_sweep

class DispersionSweep(Workload):
    """Compressor, window, knob and bracket variants on one shared fig3a kernel."""

    claims = ("materials", "phasematch", "dispersionopt", "delayscan", "scenario")

    def setup(self, work):
        super().setup(work)
        built = scenario.build_system(scenario.load_scenario("fig3a"))
        self.config = built.config
        self.kernel = spdc.kernel_amplitude(built.config)

    def pool(self, rng, work):
        template = bundled_text("fig3a")
        apex = stratified(rng, 250.0, 450.0, POOL_SIZE)
        thickness = stratified(rng, 1.0, 20.0, POOL_SIZE)
        insertion_knob = balanced(rng, POOL_SIZE)
        glass = rng.permutation(np.arange(POOL_SIZE) % len(GLASSES))
        ops = []
        for i in range(POOL_SIZE):
            if insertion_knob[i]:
                knob = dispersionopt.KNOB_INSERTION
                bracket = (rng.uniform(0.0, 2.0), rng.uniform(16.0, 20.0))
            else:
                knob = dispersionopt.KNOB_CORRECTION
                bracket = (rng.uniform(-250.0, -100.0), rng.uniform(100.0, 250.0))
            choices = {"apex_separation_mm": round(apex[i], 3), "knob": knob,
                       "bracket": [round(b, 3) for b in bracket],
                       "window": GLASSES[glass[i]], "window_mm": round(thickness[i], 3)}
            text = substitute(template, "apex_separation_mm=352",
                              f"apex_separation_mm={choices['apex_separation_mm']}")
            text = substitute(text, "knob = correction_gdd_fs2", f"knob = {knob}")
            text = substitute(text, "bracket = -200 200",
                              "bracket = {} {}".format(*choices["bracket"]))
            text += (f"\n[window]\nelement_1 = slab material={choices['window']} "
                     f"thickness_mm={choices['window_mm']}\n")
            sc = scenario.parse_scenario_text(text, source=f"sweep_{i:02d}.scn")
            ops.append(Op(f"sweep_{i:02d}", knob, choices, sc))
        return ops

    def run(self, op, out):
        sc = op.payload
        kernel = self.kernel
        built = scenario.build_system(sc)
        result = dispersionopt.optimize_dispersion(
            kernel, built.base_chain, sc.optimize_knob, sc.optimize_bracket)
        chain = dispersionopt.with_knob(built.base_chain, sc.optimize_knob, result.optimal_value)
        chain = chain.extended(*built.window_chain.elements)
        phi = dispersionopt.chain_phase(chain, kernel.omega_grid, kernel.pump_omega / 2.0)
        amplitude = spdc.apply_spectral_phase(kernel, phi, phi)
        tr = delayscan.trace(amplitude, sc.kernel, sc.tau_span_fs, sc.tau_step_fs)
        return built, result, delayscan.metrics(tr)

    def check(self, op, result, out):
        built, opt, m = result
        if built.config != self.config:
            return "variant does not share the fig3a kernel configuration"
        if opt.edge_solution:
            return "optimum on the bracket edge"
        if not dispersionopt.certify_local_maximum(self.kernel, built.base_chain, opt):
            return "optimum is not certified as a local maximum"
        if not (np.isfinite(m.peak_rate) and m.peak_rate > 0):
            return f"peak rate {m.peak_rate}"
        return None


# --------------------------------------------------------------- kernel_survey

SURVEY_TEMPLATE = """\
[pump]
wavelength_nm = 532.0

[crystals]
material = mgln_e
length_mm = {length_mm}
phasematch_temperature_C = 50.0
poling_period_um = auto
operating_offset_C = -1.5
uc_temperature_offset_C = {uc_offset_C}

[pupil]
theta_max_ext_deg = {theta_max_deg}
inner_edge = {inner_edge}

[delay]
kernel = {kernel}
tau_span_fs = 150
tau_step_fs = 0.35
"""


class KernelSurvey(Workload):
    """Crystal, pupil and grid variants: kernel, bandwidth and trace, no chain."""

    claims = ("materials", "phasematch", "spdc", "delayscan", "scenario")

    def pool(self, rng, work):
        # grid_scale sets most of the cost, so the pool takes the same evenly
        # spaced scales for every seed, and the trace kernel alternates along
        # them, so the cost spread of a pool does not depend on the seed
        scales = np.linspace(1.0, 2.0, POOL_SIZE)
        vmask = (np.arange(POOL_SIZE) + rng.integers(2)) % 2 == 1
        order = rng.permutation(POOL_SIZE)
        length = stratified(rng, 2.0, 20.0, POOL_SIZE)
        theta = stratified(rng, 1.0, 3.0, POOL_SIZE)
        inner = balanced(rng, POOL_SIZE)
        detuned = balanced(rng, POOL_SIZE)
        offset = rng.uniform(5.0, 20.0, POOL_SIZE)
        ops = []
        for i, j in enumerate(order):
            choices = {
                "grid_scale": round(scales[j], 4),
                "kernel": delayscan.KERNEL_V_MASK if vmask[j] else delayscan.KERNEL_SIGNAL_DELAY,
                "length_mm": round(length[i], 3),
                "theta_max_deg": round(theta[i], 3),
                "inner_edge": "on" if inner[i] else "off",
                "uc_offset_C": round(offset[i], 2) if detuned[i] else 0.0,
            }
            sc = scenario.parse_scenario_text(SURVEY_TEMPLATE.format(**choices),
                                              source=f"survey_{i:02d}.scn")
            kind = ("detuned" if detuned[i] else "matched") + "/" + choices["kernel"]
            ops.append(Op(f"survey_{i:02d}", kind, choices, sc))
        return ops

    def run(self, op, out):
        sc = op.payload
        built = scenario.build_system(sc, op.choices["grid_scale"])
        kernel = spdc.kernel_amplitude(built.config)
        bandwidth = spdc.bandwidth_fwhm_nm(kernel)
        tr = delayscan.trace(kernel, sc.kernel, sc.tau_span_fs, sc.tau_step_fs)
        return kernel, bandwidth, tr, delayscan.metrics(tr)

    def check(self, op, result, out):
        kernel, bandwidth, tr, m = result
        magnitude = np.abs(kernel.values)
        if max(magnitude[0], magnitude[-1]) > spdc.EDGE_FLOOR * magnitude.max():
            return "spectrum above the edge floor at the grid edge"
        if not (np.isfinite(bandwidth) and bandwidth > 0):
            return f"bandwidth {bandwidth} nm"
        if op.choices["kernel"] == delayscan.KERNEL_SIGNAL_DELAY:
            discrepancy = delayscan.parseval_check(kernel, tr)
            if discrepancy >= 1e-6:
                return f"parseval discrepancy {discrepancy:.3e}"
        else:
            # the folded kernel is 1 at zero delay, so R(0) has a closed form
            r0 = tr.rate[tr.tau_grid.size // 2]
            if not near(r0, delayscan.rate_at_zero_delay(kernel), 1e-9):
                return f"v-mask R(0) {r0} differs from |sum S dw|^2"
        if not (np.isfinite(m.peak_rate) and m.peak_rate > 0):
            return f"peak rate {m.peak_rate}"
        return None


# --------------------------------------------------------------------- cli_mix

CLI_TRACE_KEYS = ("peak_rate", "fwhm_fs", "integral", "rate_zero_delay")


class CliMix(Workload):
    """One `python -m pairtrace.cli` subprocess per op, valid and invalid inputs."""

    root_span = "cli.run"
    claims = ("cli",)

    def setup(self, work):
        import pairtrace.cli  # noqa: F401  (the layer this workload measures)
        super().setup(work)
        self.child_rss_kb = 0
        self.stamp = None     # while tracing, the file the child writes its start-up time to

    def start_tracing(self, work):
        self.stamp = work / "cli_stamp"

    def pool(self, rng, work):
        work = Path(os.path.relpath(work))   # short, machine-independent argv
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        fig3a = bundled_text("fig3a")
        defects = {
            "defect_insertion_abc": substitute(
                fig3a, "insertion_mm=auto", "insertion_mm=abc"),
            "defect_tau_span_nan": substitute(
                fig3a, "tau_span_fs = 150", "tau_span_fs = nan"),
            "defect_omega_pionts": substitute(
                fig3a, "omega_points = 2048", f"omega_pionts = {int(rng.integers(64, 512))}"),
        }
        why = {
            "defect_insertion_abc": "bare float() on an element argument",
            "defect_tau_span_nan": "NaN passes every <= 0 check",
            "defect_omega_pionts": "misspelled key falls back to the default",
        }
        ok_trace = {"exit": 0, "keys": CLI_TRACE_KEYS}
        invalid = {"exit": 2, "keys": ()}
        material = GLASSES[int(rng.integers(len(GLASSES)))]
        ops = [
            Op("material_gdd", "material-gdd", {}, [
                "material-gdd", "--material", material,
                "--thickness-mm", f"{rng.uniform(1.0, 20.0):.3f}",
                "--wavelength-nm", f"{rng.uniform(800.0, 1300.0):.2f}"],
               expect={"exit": 0, "keys": ("material", "gdd_fs2")}),
            Op("qpm_solve", "qpm-solve", {}, [
                "qpm-solve", "--pump-nm", f"{rng.uniform(525.0, 540.0):.2f}",
                "--temperature-c", f"{rng.uniform(40.0, 80.0):.2f}"],
               expect={"exit": 0, "keys": ("poling_period_um", "recovered_temperature_C")}),
            Op("unknown_scenario", "invalid", {}, [
                "trace", "--scenario", f"no_such_{int(rng.integers(1 << 32)):08x}",
                "--out", str(work / "ops" / "unknown_scenario")], expect=invalid),
        ]
        # three optimized fig3 scenarios (all cost the same), the detuned
        # control and the v-mask spectrum: the cost mix does not depend on the
        # seed, and the median op falls inside this cluster, not at its edge
        fig3 = [n for n in scenario.BUNDLED_SCENARIOS if n.startswith("fig3")]
        for name in [*rng.choice(fig3, size=3, replace=False), "fig2b_detuned", "gauss_vmask"]:
            ops.append(Op(f"trace_{name}", "trace", {}, [
                "trace", "--scenario", str(name), "--grid-scale", "0.5"], expect=ok_trace))
        for name, text in defects.items():
            path = inputs / f"{name}.scn"
            path.write_text(text, encoding="utf-8")
            ops.append(Op(name, "invalid", {}, [
                "trace", "--scenario", str(path), "--grid-scale", "0.5"],
                known_defect=why[name], expect=invalid))
        for op in ops:
            if op.payload[0] == "trace" and "--out" not in op.payload:
                op.payload += ["--out", str(work / "ops" / op.id)]
            op.choices = {"argv": op.payload, "expect_exit": op.expect["exit"]}
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op, out):
        if self.stamp is None:
            argv = [sys.executable, "-m", "pairtrace.cli", *op.payload]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(self.stamp), *op.payload]
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            spawned = time.monotonic()
            child = subprocess.Popen(argv, stdout=so, stderr=se, stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        result = {"exit": child.returncode,
                  "stdout": (out / "stdout.txt").read_text(),
                  "stderr": (out / "stderr.txt").read_text()}
        if self.stamp is not None and self.stamp.exists():
            result["startup_ms"] = (float(self.stamp.read_text()) - spawned) * 1e3
            self.stamp.unlink()
        return result

    def counters(self, op, result, out):
        return {"cli.startup_ms": result.get("startup_ms", 0.0),
                "cli.exit_mismatches": int(result["exit"] != op.expect["exit"])}

    def check(self, op, result, out):
        lines = result["stderr"].strip().splitlines()
        last = lines[-1] if lines else ""
        if result["exit"] != op.expect["exit"]:
            return f"expected exit {op.expect['exit']}, got {result['exit']}: {last[:160]}"
        if op.expect["exit"] == 2 and (not last.startswith("error:")
                                       or "Traceback" in result["stderr"]):
            return f"exit 2 without a clean error line: {last[:160]}"
        keys = {line.split("=", 1)[0] for line in result["stdout"].splitlines()}
        missing = [k for k in op.expect["keys"] if k not in keys]
        if missing:
            return f"stdout lacks {missing}"
        return None

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0


WORKLOADS = {
    "paper_fig3": PaperFig3,
    "dispersion_sweep": DispersionSweep,
    "kernel_survey": KernelSurvey,
    "cli_mix": CliMix,
}
