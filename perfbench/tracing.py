"""Per-layer tracing from outside the program.

Wraps public functions of each hypgas module at the attribute their callers
look up at call time (the binding site), records a span per call, and
derives self time as a span's duration minus the duration of its traced
children.  Nothing in hypgas is modified on disk; the wrappers are removed
when tracing ends.  A name that no longer exists at its binding site is
reported as missing.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import defaultdict
from time import perf_counter

# (metric name, module whose attribute callers use, attribute)
SITES = (
    ("cli.main", "hypgas.cli", "main"),
    ("scattering.scattering_length", "hypgas.scattering", "scattering_length"),
    ("scattering.solve_zero_energy", "hypgas.scattering", "solve_zero_energy"),
    ("scattering.solve_ivp", "hypgas.scattering", "solve_ivp"),
    ("scattering.harmonic_primitive", "hypgas.scattering", "harmonic_primitive"),
    ("scattering.f_infinity", "hypgas.scattering", "f_infinity"),
    ("bounds.make_report", "hypgas.bounds", "make_report"),
    ("bounds.energy_upper_bound", "hypgas.bounds", "energy_upper_bound"),
    ("bounds.quad_integrals", "hypgas.bounds", "quad_integrals"),
    ("geometry.radial_weight", "hypgas.bounds", "radial_weight"),
    ("manifolds.certify_bec", "hypgas.manifolds", "certify_bec"),
    ("oracles.inequality_report", "hypgas.oracles", "inequality_report"),
    ("oracles.discrete_minimizer", "hypgas.oracles", "discrete_minimizer"),
    ("oracles.solveh_banded", "hypgas.oracles", "solveh_banded"),
)

# Commands whose output contains the radial profile.
PROFILE_COMMANDS = ("scatter", "verify")

# Per-call samples are kept for these, labelled by input kind, so that
# per-call medians can be compared with single-call timings.
LABELLED = {
    "cli.main": lambda b: b["argv"][0],
    "scattering.scattering_length": lambda b: f"{b['V'].kind} d={b['params'].d}",
    "bounds.quad_integrals": lambda b: f"{b['V'].kind} d={b['d']}",
    "oracles.discrete_minimizer": lambda b: f"{b['V'].kind} d={b['params'].d}",
    "manifolds.certify_bec": lambda b: "all",
    "oracles.inequality_report": lambda b: "all",
}


class Span:
    __slots__ = ("calls", "time_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.time_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Spans and counters for one traced block of requests."""

    def __init__(self):
        self.active = False
        self.command = None
        self.spans = {name: Span() for name, _, _ in SITES}
        self.samples = defaultdict(list)
        self.missing = []
        self.output_bytes = 0
        self.nfev = 0
        self.profile_nodes = 0
        self.profile_builds = 0
        self.profile_builds_used = 0
        self.fd_unknowns = 0
        self.scattering_keys = set()
        self._child_time = []  # one accumulator per open span
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        self.missing = []
        for name, module_name, attr in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _wrap(self, name, fn):
        span = self.spans[name]
        after = self._after_hooks().get(name)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        needs_args = after is not None or name in LABELLED
        child_time = self._child_time

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                span.calls += 1
                span.time_s += elapsed
                span.self_s += elapsed - children
            if needs_args:
                bound = _bind(signature, args, kwargs)
                if name in LABELLED:
                    self.samples[(name, _label(LABELLED[name], bound))].append(elapsed)
                if after is not None:
                    after(bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def _after_hooks(self):
        return {
            "scattering.scattering_length": self._count_scattering,
            "scattering.solve_zero_energy": self._count_profile,
            "scattering.solve_ivp": self._count_nfev,
            "oracles.solveh_banded": self._count_unknowns,
        }

    def _count_scattering(self, bound, result):
        self.scattering_keys.add(repr(sorted(bound.items())))

    def _count_profile(self, bound, result):
        self.profile_builds += 1
        self.profile_builds_used += self.command in PROFILE_COMMANDS
        self.profile_nodes += len(getattr(result, "grid", ()))

    def _count_nfev(self, bound, result):
        self.nfev += int(getattr(result, "nfev", 0))

    def _count_unknowns(self, bound, result):
        self.fd_unknowns += len(bound.get("b", ()))

    # -- report ------------------------------------------------------------

    def metrics(self, overhead):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = (span.calls, "count")
            out[f"{name}.time_s"] = (span.time_s, "s")
            out[f"{name}.self_s"] = (span.self_s, "s")
        calls = self.spans["scattering.scattering_length"].calls
        out["cli.output_bytes"] = (self.output_bytes, "bytes")
        out["scattering.solve_ivp.nfev"] = (self.nfev, "count")
        out["scattering.distinct_ratio"] = (len(self.scattering_keys) / calls if calls else 1.0, "ratio")
        # no builds at all wastes none
        out["scattering.profile_use_ratio"] = (
            self.profile_builds_used / self.profile_builds if self.profile_builds else 1.0, "ratio")
        out["scattering.profile_nodes"] = (self.profile_nodes, "count")
        out["oracles.fd_unknowns"] = (self.fd_unknowns, "count")
        out["trace.overhead"] = (overhead, "ratio")
        out["trace.missing"] = (len(self.missing), "count")
        return out

    def per_call_medians_ms(self):
        """Median duration in ms and sample count per (name, input label)."""
        return {
            f"{name}[{label}]": {"median_ms": statistics.median(v) * 1e3, "n": len(v)}
            for (name, label), v in sorted(self.samples.items())
        }


def _bind(signature, args, kwargs):
    if signature is not None:
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            pass
        else:
            bound.apply_defaults()
            return dict(bound.arguments)
    return {"args": args, **kwargs}


def _label(fn, bound):
    try:
        return fn(bound)
    except (KeyError, AttributeError, IndexError, TypeError):
        return "other"
