"""Seeded request streams for the three benchmark workloads.

Request i of a stream is drawn from its own generator seeded by
(seed, stream tag, i), so the same seed always gives the same inputs.  Its
shape (command, manifold family, dimension, cell count, output format) is
fixed by its position in the workload's cycle and is the same for every
seed; the seed draws the continuous values (radii, potential values, mu,
densities, grid ranges).  Every run therefore sees the same request mix,
which keeps medians and tails comparable across seeds.

The program sees only the potential files written here and the argv.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import reference


@dataclass
class Request:
    """One CLI invocation and what its output is checked against."""

    index: int
    command: str
    argv: list
    potential: dict | None
    params: dict = field(default_factory=dict)


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _hardcore(rng, r0_range=(0.05, 2.0)):
    return {"kind": "hardcore", "r0": rng.uniform(*r0_range), "pieces": []}


def _piecewise(rng, n_cells, r0_range=(0.3, 1.5), v_range=(0.5, 50.0)):
    """Piecewise-constant potential with n_cells cells of distinct width."""
    r0 = rng.uniform(*r0_range)
    while True:
        radii = sorted(rng.uniform(0.05, 0.95) * r0 for _ in range(n_cells - 1)) + [r0]
        if all(b - a > 1e-3 * r0 for a, b in zip([0.0] + radii, radii)):
            break
    return {"kind": "piecewise", "r0": r0, "pieces": [[r, _log_uniform(rng, *v_range)] for r in radii]}


def axis_values(lo, hi, count, scale):
    """Grid values as `hypgas sweep --axis` defines them."""
    if count == 1:
        return [lo]
    if scale == "linear":
        return [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


# --- sweep ----------------------------------------------------------------

# (second axis, output format, d); rho is always the first (outer) axis.
# rho x eps grids share one (V, mu, d, tol) across all points; rho x mu
# grids need a new scattering length for each mu value.
SWEEP_CYCLE = (
    ("eps", "csv", 2), ("eps", "json", 3), ("eps", "csv", 3), ("mu", "json", 2),
    ("eps", "csv", 2), ("eps", "json", 3), ("mu", "csv", 3), ("eps", "json", 2),
)


def sweep_request(rng, i):
    second, fmt, d = SWEEP_CYCLE[i % len(SWEEP_CYCLE)]
    potential = _piecewise(rng, 1 + i % 8)
    base = {"rho": 1e-3, "mu": rng.uniform(0.5, 2.0), "eps": rng.uniform(0.05, 0.5)}
    gap = rng.uniform(0.05, 0.3)
    rho_lo = _log_uniform(rng, 1e-6, 1e-4)
    axes = [("rho", rho_lo, rho_lo * 10.0 ** rng.uniform(1.0, 2.5), 3 if second == "eps" else 2, "log")]
    if second == "eps":
        axes.append(("eps", rng.uniform(0.02, 0.1), rng.uniform(0.2, 0.6), 2, "linear"))
    else:
        axes.append(("mu", rng.uniform(0.5, 1.0), rng.uniform(1.5, 2.5), 3, "linear"))
    argv = ["sweep", "--d", str(d), "--mu", repr(base["mu"]), "--eps", repr(base["eps"]),
            "--rho", repr(base["rho"]), "--gap", repr(gap), "--format", fmt]
    for name, lo, hi, count, scale in axes:
        argv += ["--axis", f"{name}:{lo!r}:{hi!r}:{count}:{scale}"]
    params = {
        "d": d, "format": fmt, "gap": gap, "base": base,
        "axes": [(name, axis_values(lo, hi, count, scale)) for name, lo, hi, count, scale in axes],
    }
    return "sweep", argv, potential, params


# --- certify_stream -------------------------------------------------------

# Nine request shapes: every manifold family under each of its gap
# policies, plus bound requests in both dimensions.
CERTIFY_SHAPES = (
    ("certify", "modular", "kim_sarnak", 2),
    ("certify", "modular", "selberg_3_16", 2),
    ("certify", "congruence3", "dim3_standard", 3),
    ("certify", "random", "random_3_16_minus_alpha", 2),
    ("certify", "random", "mirzakhani", 2),
    ("certify", "custom", "custom", 2),
    ("certify", "custom", "custom", 3),
    ("bound", None, None, 2),
    ("bound", None, None, 3),
)
DEFAULT_POLICY = {"modular": "kim_sarnak", "congruence3": "dim3_standard",
                  "random": "random_3_16_minus_alpha", "custom": "custom"}


def _density(rng, d):
    return _log_uniform(rng, 1e-6, 1e-2) if d == 2 else _log_uniform(rng, 1e-8, 1e-3)


def _certify(rng, family, policy, d, potential):
    mu, eps = rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.5)
    model = {"family": family, "policy": policy}
    flags = []
    if family == "modular":
        model["L"] = rng.randint(2, 120)
        flags += ["--L", str(model["L"])]
    elif family == "congruence3":
        model.update(L=rng.randint(2, 50), vol_x1=rng.uniform(0.5, 5.0), index=rng.randint(1, 10**6))
        flags += ["--L", str(model["L"]), "--vol-x1", repr(model["vol_x1"]), "--index", str(model["index"])]
    elif family == "random":
        top = 0.18 if policy == "random_3_16_minus_alpha" else 3.0 / 16.0
        model.update(g=rng.randint(2, 10**5), alpha=rng.uniform(0.005, top))
        flags += ["--g", str(model["g"]), "--alpha", repr(model["alpha"])]
    else:
        model.update(volume=_log_uniform(rng, 1e2, 1e8), gap=rng.uniform(0.05, 1.0))
        flags += ["--volume", repr(model["volume"]), "--gap", repr(model["gap"]), "--d", str(d)]
    if policy != DEFAULT_POLICY[family]:
        flags += ["--gap-policy", policy]
    vol, _ = reference.model_volume_and_gap(model)
    N = max(2, round(_density(rng, d) * vol))
    argv = ["certify", "--model", family, "--N", str(N), "--mu", repr(mu), "--eps", repr(eps)] + flags
    return "certify", argv, potential, {"d": d, "mu": mu, "eps": eps, "N": N, "model": model}


def _bound(rng, d, potential, with_gap):
    params = {"d": d, "mu": rng.uniform(0.5, 2.0), "eps": rng.uniform(0.05, 0.5), "rho": _density(rng, d)}
    argv = ["bound", "--d", str(d), "--mu", repr(params["mu"]), "--rho", repr(params["rho"]),
            "--eps", repr(params["eps"])]
    if with_gap:
        params["gap"] = rng.uniform(0.05, 1.0)
        argv += ["--gap", repr(params["gap"])]
    return "bound", argv, potential, params


def certify_request(rng, i):
    shape = i % len(CERTIFY_SHAPES)
    command, family, policy, d = CERTIFY_SHAPES[shape]
    # one request in three is hardcore, rotating over the shapes
    if (shape + i // len(CERTIFY_SHAPES)) % 3 == 0:
        potential = _hardcore(rng)
    else:
        potential = _piecewise(rng, 1 + i % 8)
    if command == "bound":
        return _bound(rng, d, potential, with_gap=(i // len(CERTIFY_SHAPES)) % 2 == 0)
    return _certify(rng, family, policy, d, potential)


# Documented domain edges, probed after the timed window: tiny d=2
# potentials, d=3 supports >= 30 and hardcore radii >= 40.
EDGE_PROBES = 6


def edge_request(rng, i):
    if i < 2:
        potential, d = _piecewise(rng, 1, r0_range=(0.5, 1.0), v_range=(1e-9, 1e-6)), 2
    elif i < 4:
        potential, d = _piecewise(rng, 2, r0_range=(30.0, 40.0), v_range=(0.5, 5.0)), 3
    else:
        potential, d = _hardcore(rng, r0_range=(40.0, 60.0)), 2 + i % 2
    if i % 2:
        return _bound(rng, d, potential, with_gap=True)
    family = "modular" if d == 2 else "congruence3"
    return _certify(rng, family, DEFAULT_POLICY[family], d, potential)


# --- profile_verify -------------------------------------------------------

# scatter requests write the full radial profile; one request in six runs
# the oracle suite.
PROFILE_CYCLE = (("piecewise", 2), ("piecewise", 3), ("hardcore", None),
                 ("piecewise", 2), ("piecewise", 3), ("verify", None))


def profile_request(rng, i):
    kind, d = PROFILE_CYCLE[i % len(PROFILE_CYCLE)]
    if kind == "verify":
        return "verify", ["verify"], None, {}
    if kind == "hardcore":
        potential, d = _hardcore(rng), 2 + (i // len(PROFILE_CYCLE)) % 2
    else:
        potential = _piecewise(rng, 1 + i % 8)
    mu = rng.uniform(0.5, 2.0)
    return "scatter", ["scatter", "--d", str(d), "--mu", repr(mu)], potential, {"d": d, "mu": mu}


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    cycle: int
    tail_percentile: float
    traced_requests: int
    pool: int
    warmup: int


# cycle: the period of the request shapes that move latency (command,
# family, policy, d, potential kind, --gap flag, output format); a timed
# run ends on a whole number of cycles, so every run has the same mix.  On
# certify_stream the cell count (period 8) is left out of the cycle: it
# barely moves latency there, and a 216-request cycle would take about 12 s.
# tail_percentile: the highest of 99/95/90/80 with at least ten samples
# beyond it in a seed run.  traced_requests: a whole number of cycles.
# pool: requests written at set-up, whole cycles up to about the fewest a
# seed run uses; later requests are written as the run reaches them.
# warmup: untimed requests first, covering each command of the workload.
WORKLOADS = {
    "sweep": Workload("sweep", sweep_request, 8, 80.0, 16, 48, 2),
    "certify_stream": Workload("certify_stream", certify_request, 54, 95.0, 54, 378, 9),
    "profile_verify": Workload("profile_verify", profile_request, 24, 90.0, 24, 192, 6),
}


class Stream:
    """The seeded request sequence of one workload.

    `fill(n)` writes the first n requests' potential files (the set-up
    pool) and keeps them.  Requests beyond the pool are generated when
    asked for, outside the timed calls, and not kept, so memory stays bounded however many requests a
    run makes; they share one potential file, which is rewritten just
    before each is returned, so they must be executed in order.  Potentials
    are drawn from continuous distributions, so they do not repeat.
    """

    def __init__(self, make, seed, tag, workdir):
        self._make = make
        self._seed = seed
        self._tag = tag
        self._workdir = workdir
        self._pool = []

    def fill(self, n):
        while len(self._pool) < n:
            i = len(self._pool)
            self._pool.append(self._generate(i, f"{self._tag}-{i}.json"))

    def __getitem__(self, i):
        if i < len(self._pool):
            return self._pool[i]
        return self._generate(i, f"{self._tag}-overflow.json")

    def _generate(self, i, filename):
        rng = random.Random(f"{self._seed}/{self._tag}/{i}")
        command, argv, potential, params = self._make(rng, i)
        if potential is not None:
            path = os.path.join(self._workdir, filename)
            with open(path, "w") as fh:
                json.dump(potential, fh)
            argv = argv[:1] + ["--potential", path] + argv[1:]
        return Request(i, command, argv, potential, params)
