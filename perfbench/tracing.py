"""Spans and work counters recorded from outside the pairtrace package.

Nothing inside the package is edited. Each instrumented public function is
replaced, at every module attribute that binds it, by a wrapper that
records a span (name, start, end, parent, op id). Names imported into other
modules (`from .spdc import apply_spectral_phase`) are separate bindings, so
every loaded pairtrace module is searched for the original object.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import pairtrace.cli  # noqa: F401  (loads every module whose bindings get wrapped)
from pairtrace import delayscan, dispersionopt, materials, phasematch, scenario, spdc

LAYERS = ("materials", "phasematch", "spdc", "dispersionopt", "delayscan",
          "scenario", "cli", "bench")


def _kernel_counts(args, kwargs, result):
    grid = args[0].grid
    # nominal: the coarse order plus the doubled order, read from the config
    nodes = 3 * grid.radial_points * grid.omega_points
    return None, {
        "spdc.kernel_calls": 1,
        "spdc.radial_node_samples": nodes,
        # computed: one float64 per nominal node sample plus the complex result
        "spdc.kernel_bytes_computed": 8 * nodes + result.values.nbytes,
    }


def _trace_counts(args, kwargs, result):
    amplitude = args[0]
    kernel = args[1] if len(args) > 1 else kwargs.get("kernel", delayscan.KERNEL_SIGNAL_DELAY)
    if kernel == delayscan.KERNEL_SIGNAL_DELAY:
        # the FFT length m follows from the output step: dtau = 2 pi / (m domega)
        length = round(2.0 * math.pi / (result.dtau * amplitude.domega))
        return "delayscan.trace.fft", {"delayscan.fft_length": length}
    terms = result.tau_grid.size * amplitude.omega_grid.size
    return "delayscan.trace.vmask", {"delayscan.vmask_terms": terms}


def _count(name):
    def hook(args, kwargs, result):
        return None, {name: 1}
    return hook


# (module, attribute, counter hook); the span name is "<module>.<attribute>"
FUNCTIONS = (
    # the slab phase and GDD helpers are left unwrapped: their index
    # evaluation is the work of the element chain that calls them
    (materials, "refractive_index", _count("materials.index_calls")),
    (materials, "load_materials", None),
    (phasematch, "delta_kz", _count("phasematch.mismatch_evals")),
    (phasematch, "solve_poling_period", None),
    (phasematch, "solve_phasematch_temperature", None),
    (spdc, "kernel_amplitude", _kernel_counts),
    (spdc, "quadrature_refine", None),
    (spdc, "apply_spectral_phase", None),
    (spdc, "bandwidth_fwhm_nm", None),
    (spdc, "write_spectrum_csv", None),
    (dispersionopt, "ElementChain.phase", _count("dispersionopt.chain_evals")),
    (dispersionopt, "optimize_dispersion", None),
    (dispersionopt, "certify_local_maximum", None),
    (dispersionopt, "solve_compensating_insertion", None),
    (dispersionopt, "write_scan_csv", None),
    (delayscan, "trace", _trace_counts),
    (delayscan, "metrics", None),
    (delayscan, "peak_to_mean_ratio", None),
    (delayscan, "parseval_check", None),
    (delayscan, "rate_at_zero_delay", None),
    (delayscan, "write_trace_csv", None),
    (delayscan, "write_metrics_txt", None),
    (scenario, "parse_scenario_text", None),
    (scenario, "load_scenario", None),
    (scenario, "build_system", None),
    (scenario, "run_scenario", None),
    (scenario, "reproduce_fig3", None),
)

# busy time of a metric: outermost spans whose name is in the set
BUSY = {
    "spdc.kernel_busy_ms": {"spdc.kernel_amplitude"},
    "spdc.refine_busy_ms": {"spdc.quadrature_refine"},
    "dispersionopt.chain_busy_ms": {"dispersionopt.ElementChain.phase"},
    "dispersionopt.optimize_busy_ms": {"dispersionopt.optimize_dispersion"},
    "dispersionopt.insertion_solve_busy_ms": {"dispersionopt.solve_compensating_insertion"},
    "delayscan.fft_busy_ms": {"delayscan.trace.fft"},
    "delayscan.vmask_busy_ms": {"delayscan.trace.vmask"},
    "delayscan.metrics_busy_ms": {"delayscan.metrics", "delayscan.peak_to_mean_ratio",
                                  "delayscan.parseval_check"},
    "scenario.parse_busy_ms": {"scenario.parse_scenario_text", "scenario.load_scenario"},
    "scenario.build_busy_ms": {"scenario.build_system"},
    "scenario.artifact_write_ms": {"spdc.write_spectrum_csv", "delayscan.write_trace_csv",
                                   "delayscan.write_metrics_txt", "dispersionopt.write_scan_csv"},
    "phasematch.busy_ms": {f"phasematch.{a}" for m, a, _ in FUNCTIONS if m is phasematch},
    "materials.busy_ms": {f"materials.{a}" for m, a, _ in FUNCTIONS if m is materials},
}

COUNTERS = (
    "spdc.kernel_calls", "spdc.radial_node_samples", "spdc.kernel_bytes_computed",
    "dispersionopt.chain_evals", "dispersionopt.objective_evals",
    "delayscan.fft_length", "delayscan.vmask_terms",
    "phasematch.mismatch_evals", "materials.index_calls",
    "scenario.artifact_bytes", "cli.startup_ms", "cli.exit_mismatches",
)


class Tracer:
    """Wraps the functions in FUNCTIONS while installed; records only inside ops."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.counts = defaultdict(Counter)   # op id -> counter -> value
        self.kinds = {}                      # op id -> op kind
        self.op_id = None
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ recording

    def _record(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            op_id = self.op_id
            if op_id is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op_id)
            if hook is not None:
                rename, counts = hook(args, kwargs, result)
                if rename is not None:
                    spans[index] = (rename, start, end, parent, op_id)
                self.counts[op_id].update(counts)
            return result

        return wrapper

    def _objective_factory(self, factory):
        # knob_objective returns a fresh closure per optimization; wrap each one
        record = self._record

        def knob_objective(*args, **kwargs):
            return record(factory(*args, **kwargs), "dispersionopt.objective",
                          _count("dispersionopt.objective_evals"))

        return knob_objective

    def begin_op(self, op_id, kind, name):
        self.op_id = op_id
        self.kinds[op_id] = kind
        self._stack.append(len(self.spans))
        self.spans.append((name, perf_counter(), None, -1, op_id))

    def end_op(self):
        index = self._stack.pop()
        name, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent, op_id)
        self.op_id = None

    def count(self, op_id, name, value):
        self.counts[op_id][name] += value

    # --------------------------------------------------------- installation

    def install(self):
        """Wrap every binding; returns the list of 'module.attribute' sites."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pairtrace" or n.startswith("pairtrace.")]
        targets = [(m, a, f"{m.__name__.split('.')[-1]}.{a}", h) for m, a, h in FUNCTIONS]
        # no span name: the factory is wrapped so that each closure it returns is
        targets.append((dispersionopt, "knob_objective", None, None))
        sites = []
        for home, attr, name, hook in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._record(original, name, hook))
                sites.append(f"{home.__name__}.{attr}")
                continue
            original = getattr(home, attr)
            wrapper = (self._objective_factory(original) if name is None
                       else self._record(original, name, hook))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
                        sites.append(f"{module.__name__}.{key}")
        return sites

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------ reporting

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")

    def per_op(self, n_ops):
        """Per-layer metrics as totals over the traced ops divided by n_ops."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        for (name, start, end, _, _), inner in zip(spans, child_time):
            out[name.split(".")[0] + ".self_ms"] += (end - start - inner) * 1e3
        for metric, names in BUSY.items():
            covered = [False] * len(spans)   # has an ancestor in the set
            total = 0.0
            for i, (name, start, end, parent, _) in enumerate(spans):
                inside = parent >= 0 and (covered[parent] or spans[parent][0] in names)
                covered[i] = inside
                if name in names and not inside:
                    total += end - start
            out[metric] = total * 1e3
        totals = Counter()
        for counts in self.counts.values():
            totals.update(counts)
        for name in COUNTERS:
            out[name] = float(totals[name])
        return {k: v / n_ops for k, v in out.items()}

    def counts_by_kind(self):
        """Counter totals per op kind over the traced ops, divided by their number."""
        n_ops = Counter(self.kinds.values())
        totals = {kind: Counter() for kind in n_ops}
        for op_id, kind in self.kinds.items():
            totals[kind].update(self.counts.get(op_id, {}))
        return {kind: {k: v / n_ops[kind] for k, v in sorted(totals[kind].items())}
                for kind in sorted(totals)}
