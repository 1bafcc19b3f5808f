"""Spans around calls into each pointbethe module, recorded from outside.

``Tracer.install`` rebinds each traced public function, in every
``pointbethe`` module that holds it, to a wrapper that records a span
(name, start, end, parent, op id) and the counters derived from the
call's inputs.  ``Tracer.uninstall`` puts the originals back.  A target
that the package no longer defines is skipped and its metrics report
null; the program itself is never edited.

A module's self time is the duration of its spans minus the part that
their child spans cover, so the self times of all modules add up to the
op spans opened around ``cli.main``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


# (module, function) -> name of the self-time metric
TIMED = {
    ("factorization", "scan_couplings"): "factorization.scan_couplings_s",
    ("factorization", "classify"): "factorization.classify_s",
    ("factorization", "yang_baxter_matrix_check"): "factorization.yang_baxter_matrix_check_s",
    ("factorization", "block_reduction_check"): "factorization.block_reduction_check_s",
    ("_kernels", "factorization_panel"): "kernels.factorization_panel_s",
    ("_kernels", "sample_panel"): "kernels.sample_panel_s",
    ("_kernels", "propagate_table"): "kernels.propagate_table_s",
    ("_kernels", "eval_grid"): "kernels.eval_grid_s",
    ("_kernels", "pair_amplitude_tables"): "kernels.pair_amplitude_tables_s",
    ("bethe", "bethe_state"): "bethe.bethe_state_s",
    ("bethe", "state_relation_residual"): "bethe.state_relation_residual_s",
    ("bethe", "coefficients_bc_oracle"): "bethe.coefficients_bc_oracle_s",
    ("wavefunction", "boundary_residual"): "wavefunction.boundary_residual_s",
    ("wavefunction", "boundary_samples"): "wavefunction.boundary_samples_s",
    ("wavefunction", "evaluate_grid"): "wavefunction.evaluate_grid_s",
    ("wavefunction", "schrodinger_fd_residual"): "wavefunction.schrodinger_fd_residual_s",
    ("wavefunction", "gauge_transformed_state"): "wavefunction.gauge_transformed_state_s",
    ("scattering", "amplitudes"): "scattering.amplitudes_s",
    ("scattering", "amplitudes_bvp_oracle"): "scattering.bvp_oracle_s",
    # first builds happen in set-up; cache hits inside ops still count
    # towards the module's self time and calls
    ("permutations", "symmetric_group"): None,
}


def _oracle_bytes(a, kw, result):
    f = len(_arg(a, kw, 2, "pinned_column"))
    n = len(_arg(a, kw, 1, "k"))
    return ((n - 1) * f * f + f) * f * f * 16  # dense complex128 system


# (module, function) -> [(counter name, f(args, kwargs, result))]
COUNTERS = {
    ("factorization", "scan_couplings"): [
        ("factorization.panel_samples", lambda a, kw, r: _arg(a, kw, 0, "grid").panel_size)],
    ("factorization", "yang_baxter_matrix_check"): [
        ("factorization.panel_samples", lambda a, kw, r: len(_arg(a, kw, 2, "samples")))],
    ("_kernels", "factorization_panel"): [
        ("kernels.amplitude_evals",
         lambda a, kw, r: 8 * len(_arg(a, kw, 0, "params_grid")) * len(_arg(a, kw, 1, "us")))],
    ("bethe", "bethe_state"): [
        ("bethe.table_entries", lambda a, kw, r: r.table.size),
        ("bethe.table_bytes", lambda a, kw, r: r.table.nbytes)],
    ("bethe", "coefficients_bc_oracle"): [("bethe.oracle_matrix_bytes", _oracle_bytes)],
    ("wavefunction", "boundary_residual"): [
        ("wavefunction.boundary_points", lambda a, kw, r: len(_arg(a, kw, 3, "samples")))],
    ("scattering", "amplitudes"): [("scattering.amplitudes_calls", lambda a, kw, r: 1)],
}

MODULES = ("cli", "factorization", "_kernels", "bethe", "wavefunction",
           "permutations", "scattering")


def metric_prefix(module: str) -> str:
    """Metric names start with a letter: ``_kernels`` reports as ``kernels``."""
    return module.lstrip("_")
ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id, raised]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.broken_counters: set[str] = set()
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                self.op_id, False]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            for counter, count in counters:
                if counter in self.broken_counters:
                    continue
                try:
                    self.counters[counter] += count(args, kwargs, result)
                except (LookupError, TypeError, AttributeError):
                    # the traced function's signature changed: report null
                    self.broken_counters.add(counter)
            return result
        return traced

    def install(self) -> None:
        package = {name: mod for name, mod in list(sys.modules.items())
                   if name == "pointbethe" or name.startswith("pointbethe.")}
        for module, func in TIMED:
            owner = package.get(f"pointbethe.{module}")
            orig = getattr(owner, func, None)
            if orig is None:
                self.missing.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(f"{module}.{func}", orig, COUNTERS.get((module, func), []))
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def metrics(self, n_ops: int) -> dict[str, float | None]:
        """Per-op self times, counts, calls and errors by module."""
        selfs = self.self_times()
        out: dict[str, float | None] = {}
        for (module, func), metric in TIMED.items():
            if metric is not None:
                missing = f"{module}.{func}" in self.missing
                out[metric] = None if missing else selfs.get(f"{module}.{func}", 0.0) / n_ops
        for (module, func), counters in COUNTERS.items():
            for counter, _ in counters:
                broken = (counter in self.broken_counters
                          or f"{module}.{func}" in self.missing)
                out[counter] = None if broken else self.counters.get(counter, 0.0) / n_ops
        calls = defaultdict(int)
        errors = defaultdict(int)
        module_self = defaultdict(float)
        for name, start, end, parent, _, raised in self.spans:
            module = name.split(".")[0]
            calls[module] += 1
            errors[module] += raised
        for name, value in selfs.items():
            module_self[name.split(".")[0]] += value
        for module in MODULES:
            out[f"{metric_prefix(module)}.calls"] = calls[module] / n_ops
            out[f"{metric_prefix(module)}.errors"] = errors[module] / n_ops
        out["cli.self_s"] = module_self["cli"] / n_ops
        roots = sum(end - start for name, start, end, parent, _, _ in self.spans if parent < 0)
        out["trace.self_time_share"] = (math.fsum(module_self.values()) / roots) if roots else 0.0
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o, "raised": r}
                for n, s, e, p, o, r in self.spans]
