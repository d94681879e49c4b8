"""Layer tracing from outside the program.

:class:`Tracer` replaces the public functions of every ``gibbslab`` module
with wrappers that record a span (name, start, end, parent, operation)
and work counts, and restores the originals afterwards.  Nothing inside
``src/`` changes.  A function imported by name into another module (for
example ``rk4_transfer`` inside ``dirac_spectrum``) is replaced there too,
or the calls made through that name would go unseen.

A span's self time is its duration minus the time of its child spans and
minus the reference-kernel sampling that ran inside it.  Self times are
rescaled per operation by the same factor as the operation's own
interval, so they are in speed-normalised seconds like the end-to-end
metrics.
"""

from __future__ import annotations

import functools
import inspect
import re
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = (
    "fourier_field",
    "gibbs_sampler",
    "floquet",
    "dirac_spectrum",
    "hill_spectrum",
    "flow_lab",
    "hessian_convexity",
    "concentration_harness",
    "cli",
)

# File load/save, reported together as one span name.
IO_FUNCTIONS = {
    ("fourier_field", "load_field"),
    ("fourier_field", "save_field"),
    ("gibbs_sampler", "load_ensemble_jsonl"),
    ("gibbs_sampler", "save_ensemble_jsonl"),
    ("cli", "write_json"),
}

_BUDGET_MESSAGE = re.compile(r"after (\d+) attempts")


class Tracer:
    """Wraps the layer modules; collects spans, self times and work counts."""

    def __init__(self, package, clock) -> None:
        self.clock = clock
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.batches: list[int] = []
        self.self_norm_s: dict[str, float] = defaultdict(float)
        self._op_raw: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._op = -1
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer, module in self.modules.items():
            for name in _public_functions(module):
                fn = getattr(module, name)
                span = "cli.io" if (layer, name) in IO_FUNCTIONS else f"{layer}.{name}"
                wrapped[fn] = self._wrap(span, fn)
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrapped[value])
        hc = self.modules["hessian_convexity"]
        self._saved.append((hc, "np", hc.np))
        hc.np = _NumpyWithTracedEigvalsh(self._wrap("hessian_convexity.eigvalsh", np.linalg.eigvalsh))

    def uninstall(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    # -- operations --------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        self._op_raw.clear()

    def end_op(self, scale: float) -> None:
        """Fold the operation's raw self times in, rescaled by ``scale``."""
        for name, raw in self._op_raw.items():
            self.self_norm_s[name] += raw * scale
        self._op_raw.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), tracer.clock.handler_s, 0.0]
            tracer._stack.append(frame)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error, result = exc, None
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                net = (end - frame[1]) - (tracer.clock.handler_s - frame[2])
                tracer._op_raw[name] += net - frame[3]
                if tracer._stack:
                    tracer._stack[-1][3] += net
                tracer.spans[index] = (name, frame[1], end, parent, tracer._op)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    counter(tracer, bound, result, error)
            return result

        return traced

    # -- reporting ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_norm_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def span_records(self, t0: float) -> list[list]:
        return [
            [name, round(start - t0, 7), round(end - t0, 7), parent, op]
            for name, start, end, parent, op in self.spans
        ]


def _public_functions(module) -> list[str]:
    """Names of the functions a module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if isinstance(getattr(module, n, None), types.FunctionType)
        and getattr(module, n).__module__ == module.__name__
    ]


class _LinalgWithTracedEigvalsh:
    def __init__(self, eigvalsh) -> None:
        self.eigvalsh = eigvalsh

    def __getattr__(self, name):
        return getattr(np.linalg, name)


class _NumpyWithTracedEigvalsh:
    """numpy as seen by one module, with ``linalg.eigvalsh`` traced."""

    def __init__(self, eigvalsh) -> None:
        self.linalg = _LinalgWithTracedEigvalsh(eigvalsh)

    def __getattr__(self, name):
        return getattr(np, name)


# -- work counters, keyed by span name --------------------------------------

def _rk4(tr: Tracer, a: dict, result, error) -> None:
    size = int(np.size(a["lam"]))
    tr.counts["floquet.rk4_transfer.calls"] += 1
    tr.counts["floquet.rk4_transfer.lambda_steps"] += size * int(a["steps"])
    tr.batches.append(size)


def _build_models(tr: Tracer, a: dict, result, error) -> None:
    tr.counts["floquet.build_models.centers"] += int(np.size(a["centers"]))


def _contour_sum(tr: Tracer, a: dict, result, error) -> None:
    tr.counts["floquet.contour_sum.models"] += len(a["models"])


def _calls(key: str):
    def count(tr: Tracer, a: dict, result, error) -> None:
        tr.counts[key] += 1

    return count


def _importance(tr: Tracer, a: dict, result, error) -> None:
    if result is not None:  # acceptance counts complete draws only, as their headers do
        tr.counts["gibbs_sampler.importance.attempts"] += result.diagnostics["attempts"]
        tr.counts["gibbs_sampler.importance.completed_attempts"] += result.diagnostics["attempts"]
        tr.counts["gibbs_sampler.importance.accepted"] += len(result)
    elif error is not None:
        found = _BUDGET_MESSAGE.search(str(error))
        if found:
            tr.counts["gibbs_sampler.importance.attempts"] += int(found.group(1))


def _mcmc(tr: Tracer, a: dict, result, error) -> None:
    if result is not None:
        steps = len(result) + result.diagnostics["burn_in"]
        tr.counts["gibbs_sampler.mcmc.steps"] += steps
        tr.counts["gibbs_sampler.mcmc.accepted_steps"] += (
            result.diagnostics["accept_fraction"] * steps
        )


def _split_step(tr: Tracer, a: dict, result, error) -> None:
    tr.counts["flow_lab.split_step_evolve.steps"] += a["params"].steps


def _collect(tr: Tracer, a: dict, result, error) -> None:
    tr.counts["concentration_harness.collect_statistic.members"] += len(a["ensemble"])


_COUNTERS = {
    "floquet.rk4_transfer": _rk4,
    "floquet.build_models": _build_models,
    "floquet.contour_sum": _contour_sum,
    "dirac_spectrum.discriminant_derivative": _calls("dirac_spectrum.discriminant_derivative.calls"),
    "hill_spectrum.hill_periodic_spectrum": _calls("hill_spectrum.hill_periodic_spectrum.calls"),
    "gibbs_sampler.importance_ensemble": _importance,
    "gibbs_sampler.mcmc_ensemble": _mcmc,
    "fourier_field.lp_integral": _calls("fourier_field.lp_integral.calls"),
    "flow_lab.split_step_evolve": _split_step,
    "flow_lab.weighted_ks_distance": _calls("flow_lab.weighted_ks_distance.calls"),
    "hessian_convexity.certify_convexity": _calls("hessian_convexity.certify_convexity.calls"),
    "concentration_harness.collect_statistic": _collect,
}
