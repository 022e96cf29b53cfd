"""The four benchmark workloads.

Each workload calls only public module-level functions of ``gategeom``,
with default accuracy arguments wherever a default exists, and checks
every output against a reference that does not come from the call being
checked: the benchmark's own constructions (gates built from known
chamber points, exact constants), a closed form checked against a
quadrature route, or the in-process library answer for a CLI command.

Every workload has the same shape: ``warm`` (one call per entry point,
part of set-up), ``inputs`` (generated from the seed, not timed),
``round`` (the fixed work, one :class:`worker.Recorder` operation per
call) and ``layer_metrics`` (per-layer figures from a traced round).
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from gategeom import gates, invariants, quadrature, sampling, volumes
from gategeom.sampling import SamplerConfig
from gategeom.volumes import Region
from worker import best_times

PI = math.pi
PE_EXACT = 8.0 / (3.0 * PI)
#: Chamber points of the named gates, in the package's coordinate convention.
NAMED_POINTS = {
    "identity": (0.0, 0.0, 0.0),
    "cnot": (PI / 2, 0.0, 0.0),
    "cphase": (PI / 2, 0.0, 0.0),
    "dcnot": (PI / 2, PI / 2, 0.0),
    "swap": (PI / 2, PI / 2, PI / 2),
    "sqrt-swap": (PI / 4, PI / 4, PI / 4),
    "b-gate": (PI / 2, PI / 4, 0.0),
}
B_GATE = NAMED_POINTS["b-gate"]
#: Chamber density maximum of |prod sin(ci +- cj)|, reached at the b-gate point.
SINE_PRODUCT_MAX = 0.25


def package_provenance() -> dict:
    """The BLAS numpy was built against (versions come from run.py)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}
    except Exception as exc:  # provenance must never stop a run
        return {"blas": f"unavailable ({type(exc).__name__})"}


# ---------------------------------------------------------------------------
# The benchmark's own geometry: references that do not call the package.

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_PAIRS = [np.kron(p, p) for p in _PAULI]


def in_chamber(c, tol=1e-9):
    c = np.asarray(c, dtype=float)
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    return (c3 >= -tol) & (c2 - c3 >= -tol) & (c1 - c2 >= -tol) & (PI - c1 - c2 >= -tol)


def is_pe(c, tol=1e-9):
    c = np.asarray(c, dtype=float)
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    return (c1 + c2 >= PI / 2 - tol) & (c1 - c2 <= PI / 2 + tol) & (c2 + c3 <= PI / 2 + tol)


def core_gate(c) -> np.ndarray:
    """exp(-i/2 sum_j c_j sigma_j (x) sigma_j), as a product of commuting factors."""
    out = np.eye(4, dtype=complex)
    for cj, pair in zip(c, _PAIRS):
        out = out @ (math.cos(cj / 2) * np.eye(4) - 1j * math.sin(cj / 2) * pair)
    return out


def local_gate(rng) -> np.ndarray:
    """Haar-random SU(2) (x) SU(2), from normalised Gaussian quaternions."""
    factors = []
    for _ in range(2):
        a, b, c, d = rng.standard_normal(4)
        r = math.sqrt(a * a + b * b + c * c + d * d)
        a, b, c, d = a / r, b / r, c / r, d / r
        factors.append(np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]]))
    return np.kron(*factors)


def dressed(rng, c) -> np.ndarray:
    return local_gate(rng) @ core_gate(c) @ local_gate(rng)


def haar_chamber_points(rng, k: int, margin: float = 0.0) -> np.ndarray:
    """Chamber points with the Haar density, by rejection from uniform proposals.

    Sorted uniforms fill the half with c1 <= pi/2 and a coin reflects c1
    to pi - c1; acceptance is |prod sin(ci +- cj)| over its maximum.
    With ``margin`` > 0, points closer than that to any wall are redrawn.
    """
    out = np.empty((0, 3))
    while out.shape[0] < k:
        u = rng.random((8 * k + 64, 5))
        c = np.sort(u[:, :3], axis=1)[:, ::-1] * (PI / 2)
        flip = u[:, 3] < 0.5
        c[flip, 0] = PI - c[flip, 0]
        c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
        sines = np.abs(
            np.sin(c1 + c2) * np.sin(c1 - c2) * np.sin(c1 + c3)
            * np.sin(c1 - c3) * np.sin(c2 + c3) * np.sin(c2 - c3)
        )
        keep = u[:, 4] * SINE_PRODUCT_MAX < sines
        if margin > 0:
            keep &= (c3 >= margin) & (c2 - c3 >= margin) & (c1 - c2 >= margin)
            keep &= PI - c1 - c2 >= margin
        out = np.concatenate([out, c[keep]])
    return out[:k]


def class_distance(c, true) -> float:
    """Max-norm distance from ``c`` to the local-equivalence class of ``true``.

    The class is represented by ``true`` and by its images under the two
    Weyl-group moves that map the closed chamber's boundary onto itself:
    (c1, c2, c3) -> (pi - c1, c2, -c3), which identifies the two halves of
    the c3 = 0 face, and (c1, c2, c3) -> (pi - c2, pi - c1, c3).
    """
    t1, t2, t3 = true
    forms = (
        (t1, t2, t3),
        (PI - t1, t2, -t3),
        (PI - t2, PI - t1, t3),
        (t2, PI - t1, -t3),
        (PI - t2, t1, -t3),
    )
    return float(min(max(abs(c[0] - f[0]), abs(c[1] - f[1]), abs(c[2] - f[2])) for f in forms))


def close(a, b, rel=1e-9, abs_tol=1e-12) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= abs_tol + rel * np.abs(b)))


def matrix_json(U) -> dict:
    return {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in U]}


def haar_unitaries(rng, k: int) -> np.ndarray:
    """Haar-random 4x4 unitaries: QR of complex Ginibre matrices, phases fixed."""
    z = rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))
    q, r = np.linalg.qr(z)
    d = np.einsum("nii->ni", r)
    return q * (d / np.abs(d))[:, None, :]


class Call(NamedTuple):
    """One planned operation: what to call and how to judge the result."""

    name: str
    category: str
    thunk: Callable
    check: Callable | None = None
    units: int = 1
    key: object = None

    def run(self, rec):
        return rec.op(self.name, self.thunk, check=self.check, category=self.category,
                      units=self.units, key=self.key)


def interleave(rec, small: list, large: list) -> None:
    """Run the small calls spread evenly between the large ones.

    Their latencies then sample the whole round, not one moment of it,
    so a passing stall of the machine cannot move all of them at once.
    """
    parts = len(large) + 1
    for i in range(parts):
        for call in small[i::parts]:
            call.run(rec)
        if i < len(large):
            large[i].run(rec)


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: Whose peak resident memory ``peak_rss_mb`` reports.
    rss_of = resource.RUSAGE_SELF
    #: Set for the traced run, whose rounds may add calls too slow to repeat.
    tracing = False
    #: Categories of the operations whose latencies ``call_p50_ms`` and
    #: ``call_tail_ms`` describe; None for every operation.
    LATENCY = None
    SIZES: dict = {}

    def __init__(self, ctx):
        self.ctx = ctx
        self.sizes = dict(self.SIZES[ctx.size])

    def rounds_for(self, seconds: float) -> int:
        """Rounds in a timed run: as many as take ``seconds`` on the reference machine.

        The count depends on ``seconds`` alone, so a seed always gets the
        same operations, and the same number of them fail.
        """
        return max(1, int(seconds / self.sizes["round_s"]))

    def warm(self) -> None:
        raise NotImplementedError

    def inputs(self):
        raise NotImplementedError

    def round(self, rec, inp) -> None:
        raise NotImplementedError

    def layer_metrics(self, rec, rnd, inp) -> dict:
        """Per-layer figures from a traced round; may trace extra probe calls."""
        raise NotImplementedError


def _unitary_stack(G, n: int) -> bool:
    if G.shape != (n, 4, 4) or not np.all(np.isfinite(G)):
        return False
    eye = np.eye(4)
    worst = 0.0
    for start in range(0, n, 1 << 15):
        part = G[start : start + (1 << 15)]
        dev = np.abs(np.conj(np.swapaxes(part, 1, 2)) @ part - eye).max()
        worst = max(worst, float(dev))
    return worst <= 1e-10


def _chamber_sample(c, n: int) -> bool:
    """Every point in the chamber, PE fraction within 5 standard errors of 8/(3 pi)."""
    if c.shape != (n, 3) or not np.all(in_chamber(c)):
        return False
    se = math.sqrt(PE_EXACT * (1.0 - PE_EXACT) / n)
    return abs(np.count_nonzero(is_pe(c)) / n - PE_EXACT) <= 5.0 * se


def _invariant_triples(g, n: int) -> bool:
    if g.shape != (n, 3) or not np.all(np.isfinite(g)):
        return False
    bounds = np.array([1.0, 0.25, 3.0]) + 1e-9
    return bool(np.all(np.abs(g) <= bounds))


def _full_coords(x, m: int) -> bool:
    if x.shape != (m, 15) or not np.all(in_chamber(x[:, 12:15])):
        return False
    tol = 1e-12
    for slot in range(4):
        a, t, p = x[:, 3 * slot], x[:, 3 * slot + 1], x[:, 3 * slot + 2]
        if not (np.all((a >= -tol) & (a <= 4 * PI + tol)) and np.all((t >= -tol) & (t <= PI + tol))
                and np.all((p >= -tol) & (p <= 2 * PI + tol))):
            return False
    return True


def _csv_rows_match(path, coords) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["c1", "c2", "c3", "g1", "g2", "g3", "is_pe"] or len(rows) != len(coords) + 1:
        return False
    for i in (0, len(coords) - 1):
        row = rows[i + 1]
        if [float(v) for v in row[:3]] != [float(v) for v in coords[i]]:
            return False
        if int(row[6]) != int(is_pe(coords[i])):
            return False
    return True


def _jsonl_rows_match(path, G) -> bool:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if len(lines) != len(G):
        return False
    for i in (0, len(G) - 1):
        rec = json.loads(lines[i])
        got = np.array([[complex(re, im) for re, im in row] for row in rec["matrix"]])
        if not np.array_equal(got, G[i]) or len(rec["c"]) != 3 or len(rec["g"]) != 3:
            return False
    return True


class HaarMC(Workload):
    """Large sampler calls, Monte-Carlo masses and the exporters."""

    name = "haar_mc"
    #: Call latency here means the latency of one sampler call at size n, the
    #: work this workload is about.  The calls at the smaller sizes are left
    #: out so that the median falls between two calls made after the first
    #: one, which also pays for growing the heap.  Export chunks count in
    #: wall_s only: they are pure-Python loops whose speed moved by a third
    #: between fresh processes of one seed.
    LATENCY = ("oracle", "coordinate", "pe", "cube")
    SIZES = {
        "full": {"n": 1 << 19, "m": 1 << 16, "prefix": 1 << 16, "csv_rows": 12_000,
                 "csv_chunks": 24, "jsonl_rows": 2_400, "jsonl_chunks": 24,
                 "export_passes": 4, "round_s": 20.0},
        "tiny": {"n": 1 << 15, "m": 1 << 10, "prefix": 1 << 14, "csv_rows": 600,
                 "csv_chunks": 12, "jsonl_rows": 240, "jsonl_chunks": 12,
                 "export_passes": 2, "round_s": 1.0},
    }

    def __init__(self, ctx):
        super().__init__(ctx)
        self.sizes["worker_count"] = ctx.nproc
        self.oracle = SamplerConfig(seed=ctx.seed, worker_count=ctx.nproc)
        self.coordinate = SamplerConfig(
            seed=ctx.seed, worker_count=ctx.nproc, method="coordinate_density"
        )

    def warm(self):
        k, w = 64, self.ctx.nproc
        oracle = SamplerConfig(seed=0, worker_count=w)
        coordinate = SamplerConfig(seed=0, worker_count=w, method="coordinate_density")
        G = sampling.sample_gates(k, oracle)
        sampling.sample_invariants(k, oracle)
        c = sampling.sample_canonical(k, oracle)
        sampling.sample_canonical(k, coordinate)
        volumes.region_volume_mc(Region("pe"), samples=k, seed=0, worker_count=w)
        volumes.region_volume_mc(self._cube(), samples=k, seed=0, worker_count=w)
        sampling.sample_full_coords(k, coordinate)
        sampling.sample_gates(k, coordinate)
        sampling.export_csv(self.ctx.tmp / "warm.csv", c)
        sampling.export_jsonl(self.ctx.tmp / "warm.jsonl", G)

    @staticmethod
    def _cube():
        return Region("cube_c", B_GATE, 0.3, clip="unclipped")

    def inputs(self):
        """The cube reference and the exporters' chunks of rows.

        The exporters write the benchmark's own Haar samples in chunks, as
        a streaming writer would.  A JSON line costs about five CSV rows,
        so CSV chunks are five times longer and every chunk takes about
        as long: the chunks are one population of call latencies.
        """
        rng = np.random.default_rng(self.ctx.seed)
        s = self.sizes
        csv_chunks = np.array_split(haar_chamber_points(rng, s["csv_rows"]), s["csv_chunks"])
        jsonl_chunks = np.array_split(haar_unitaries(rng, s["jsonl_rows"]), s["jsonl_chunks"])
        exports = []
        for k, (c, g) in enumerate(zip(csv_chunks, jsonl_chunks)):
            path = self.ctx.tmp / f"samples-{k}.csv"
            exports.append(Call("sampling.export_csv", "csv", partial(sampling.export_csv, path, c),
                                lambda _, p=path, c=c: _csv_rows_match(p, c), units=0,
                                key=("csv", k)))
            path = self.ctx.tmp / f"gates-{k}.jsonl"
            exports.append(Call("sampling.export_jsonl", "jsonl", partial(sampling.export_jsonl, path, g),
                                lambda _, p=path, g=g: _jsonl_rows_match(p, g), units=0,
                                key=("jsonl", k)))
        return {"cube_closed": volumes.cube_volume_closed(B_GATE, 0.3), "exports": exports}

    def round(self, rec, inp):
        s, seed, w = self.sizes, self.ctx.seed, self.ctx.nproc
        n, m, prefix = s["n"], s["m"], s["prefix"]
        # Every chunk is written export_passes times, the passes spread
        # over the round; a chunk's latency is its best write.
        exports = iter(inp["exports"] * s["export_passes"])
        per_slot = -(-len(inp["exports"]) * s["export_passes"] // 10)

        def export_some():
            # A share of the export chunks after each of the nine sampler
            # calls and at the end, so their latencies sample the whole
            # round, not one moment of it.
            for call in itertools.islice(exports, per_slot):
                call.run(rec)

        G = rec.op("sampling.sample_gates", sampling.sample_gates, n, self.oracle,
                   check=lambda G: _unitary_stack(G, n), category="oracle", units=n)
        head = None if G is None else G[:prefix].copy()
        del G
        export_some()
        rec.op("sampling.sample_gates", sampling.sample_gates, prefix,
               SamplerConfig(seed=seed, worker_count=1),
               check=lambda P: head is not None and np.array_equal(P, head),
               category="prefix_one_worker", units=prefix)
        export_some()
        rec.op("sampling.sample_invariants", sampling.sample_invariants, n, self.oracle,
               check=lambda g: _invariant_triples(g, n), category="oracle", units=n)
        export_some()
        rec.op("sampling.sample_canonical", sampling.sample_canonical, n, self.oracle,
               check=lambda c: _chamber_sample(c, n), category="oracle", units=n)
        export_some()
        rec.op("sampling.sample_canonical", sampling.sample_canonical, n, self.coordinate,
               check=lambda c: _chamber_sample(c, n), category="coordinate", units=n)
        export_some()
        pe_se = math.sqrt(PE_EXACT * (1.0 - PE_EXACT) / n)
        rec.op("volumes.region_volume_mc", volumes.region_volume_mc, Region("pe"),
               samples=n, seed=seed, worker_count=w,
               check=lambda r: abs(r.value - PE_EXACT) <= 5.0 * pe_se,
               category="pe", units=n)
        export_some()
        ref = inp["cube_closed"]
        rec.op("volumes.region_volume_mc", volumes.region_volume_mc, self._cube(),
               samples=n, seed=seed, worker_count=w,
               check=lambda r: 0 < r.error_estimate < ref and abs(r.value - ref) <= 5.0 * r.error_estimate,
               category="cube", units=n)
        export_some()
        rec.op("sampling.sample_full_coords", sampling.sample_full_coords, m, self.coordinate,
               check=lambda x: _full_coords(x, m), category="coordinate_m", units=m)
        export_some()
        rec.op("sampling.sample_gates", sampling.sample_gates, m, self.coordinate,
               check=lambda G: _unitary_stack(G, m), category="coordinate_m", units=m)
        for call in exports:
            call.run(rec)

    def layer_metrics(self, rec, rnd, inp):
        t = {}
        for b in best_times([rnd]).values():
            t[b.name, b.category] = t.get((b.name, b.category), 0.0) + b.seconds
        gates_ = t["sampling.sample_gates", "oracle"]
        inv = t["sampling.sample_invariants", "oracle"]
        canon = t["sampling.sample_canonical", "oracle"]
        full = t["sampling.sample_full_coords", "coordinate_m"]
        block = getattr(sampling, "BLOCK_SIZE", 1 << 14)
        sampled = [op for op in rnd.ops if op.units]
        return {
            "sampling.oracle_matrices_s": (gates_, "s"),
            "invariants.makhlin_batch_s": (inv - gates_, "s"),
            "invariants.c_from_g_batch_s": (canon - inv, "s"),
            "sampling.chamber_rejection_s": (t["sampling.sample_canonical", "coordinate"], "s"),
            "sampling.full_coords_s": (full, "s"),
            "gates.assemble_batch_s": (t["sampling.sample_gates", "coordinate_m"] - full, "s"),
            "volumes.mc_pe_weights_s": (t["volumes.region_volume_mc", "pe"] - canon, "s"),
            "volumes.mc_cube_weights_s": (t["volumes.region_volume_mc", "cube"] - canon, "s"),
            "sampling.export_csv_us_per_row":
                (1e6 * t["sampling.export_csv", "csv"] / self.sizes["csv_rows"], "us"),
            "sampling.export_jsonl_us_per_row":
                (1e6 * t["sampling.export_jsonl", "jsonl"] / self.sizes["jsonl_rows"], "us"),
            "sampling.gates": (sum(op.units for op in sampled), "count"),
            "sampling.blocks": (sum(-(-op.units // block) for op in sampled), "count"),
        }


FAMILIES = ("haar", "named", "cphase", "xx", "xy", "heisenberg")


class CanonScalar(Workload):
    """A stream of single-gate canonical_coords calls, boundary families included."""

    name = "canon_scalar"
    SIZES = {
        "full": {"gates": 2_000, "round_s": 0.8},
        "tiny": {"gates": 240, "round_s": 0.1},
    }
    TOL = 1e-8
    WRONG_CLASS = 1e-4

    def warm(self):
        U = core_gate((1.0, 0.5, 0.2))
        gates.require_unitary(U)
        g = invariants.makhlin_invariants(U)
        invariants.c_from_g(g.g1, g.g2, g.g3)
        invariants.canonical_coords(U)

    def inputs(self):
        """(family, matrix, true chamber point) triples, shuffled.

        Half are Haar-random gates; the other half are dressed boundary
        gates k1 A(c) k2, split evenly over the named points, CPhase(theta),
        XX (t,0,0), XY (t,t,0) and Heisenberg (t,t,t) over their full ranges.
        """
        rng = np.random.default_rng(self.ctx.seed)
        total = self.sizes["gates"]
        per_family = total // 2 // 5
        items = [("haar", dressed(rng, c), tuple(c))
                 for c in haar_chamber_points(rng, total - 5 * per_family)]
        names = list(NAMED_POINTS.values())
        for i in range(per_family):
            c = names[i % len(names)]
            items.append(("named", dressed(rng, c), c))
        for _ in range(per_family):
            theta = rng.uniform(0.0, 2 * PI)
            U = local_gate(rng) @ np.diag([1, 1, 1, np.exp(1j * theta)]) @ local_gate(rng)
            items.append(("cphase", U, (theta / 2, 0.0, 0.0)))
        for fam, hi, shape in (("xx", PI, (1, 0, 0)), ("xy", PI / 2, (1, 1, 0)),
                               ("heisenberg", PI / 2, (1, 1, 1))):
            for _ in range(per_family):
                c = tuple(rng.uniform(0.0, hi) * np.array(shape, dtype=float))
                items.append((fam, dressed(rng, c), c))
        order = rng.permutation(len(items))
        self.sizes["per_family"] = {f: sum(1 for it in items if it[0] == f) for f in FAMILIES}
        return [items[i] for i in order]

    def round(self, rec, inp):
        self.distances = [math.nan] * len(inp)  # stays nan where the call raised
        # Each round visits the gates in a new seeded order, so a pause that
        # recurs at a fixed point of the round (a garbage collection, say)
        # lands on different gates each time and stays out of their best.
        self.rounds_done = getattr(self, "rounds_done", -1) + 1
        order = np.random.default_rng((self.ctx.seed, self.rounds_done)).permutation(len(inp))
        for i in order.tolist():
            family, U, true = inp[i]

            def check(r, i=i, true=true):
                d = self.distances[i] = class_distance((r.c1, r.c2, r.c3), true)
                return d <= self.TOL

            rec.op("invariants.canonical_coords", invariants.canonical_coords, U,
                   check=check, category=family, key=i)

    def layer_metrics(self, rec, rnd, inp):
        out = {}
        us = [1e6 * t for t in rnd.seconds]
        out["invariants.canonical_coords_us"] = (statistics.median(us), "us")
        with rec.root("probe") as probe:
            for family, U, _ in inp:
                rec.op("gates.require_unitary", gates.require_unitary, U, category=family)
                g = rec.op("invariants.makhlin_invariants", invariants.makhlin_invariants, U,
                           category=family)
                if g is not None:
                    rec.op("invariants.c_from_g", invariants.c_from_g, g.g1, g.g2, g.g3,
                           category=family)
        for name in ("gates.require_unitary", "invariants.makhlin_invariants", "invariants.c_from_g"):
            us = [1e6 * op.seconds for op in probe.ops if op.name == name]
            out[f"{name}_us"] = (statistics.median(us), "us")
        raised = {f: 0 for f in FAMILIES}
        beyond = {f: 0 for f in FAMILIES}
        wrong = {f: 0 for f in FAMILIES}
        for family, status in zip(rnd.categories, rnd.status):
            raised[family] += int(status == "raised")
        for (family, _, _), d in zip(inp, self.distances):
            beyond[family] += int(d > self.TOL)
            wrong[family] += int(d > self.WRONG_CLASS)
        for label, counts in (("raised", raised), ("beyond_1e-8", beyond), ("wrong_class_1e-4", wrong)):
            out[f"invariants.{label}"] = (sum(counts.values()), "count")
            for family in FAMILIES:
                out[f"invariants.{label}.{family}"] = (counts[family], "count")
        return out


class VolumesDet(Workload):
    """Deterministic region masses with default accuracy arguments.

    The closed forms are the references: they are evaluated with the
    inputs, before timing, and the round times the quadrature routes.
    Call latency here means the latency of one box mass at a named point,
    the call this workload repeats most: the other calls are too few, or
    too different in cost, for a median over all of them to stay put from
    run to run.  A box's cost comes in tiers set by the crease planes it
    crosses; the named-point boxes put the median inside one tier, while
    the seeded generic and axis centres would put it on a tier boundary.
    """

    name = "volumes_det"
    LATENCY = ("box_named",)
    SIZES = {
        "full": {"sides_per_named_point": 4, "generic_cubes": 6, "axis_cubes": 4,
                 "cylinders": 8, "origin_bodies": 2, "round_s": 2.5},
        "tiny": {"sides_per_named_point": 2, "generic_cubes": 2, "axis_cubes": 1,
                 "cylinders": 2, "origin_bodies": 1, "round_s": 1.0},
    }
    #: Metric name of each operation category.
    LAYERS = {
        "pe_region": "quadrature.pe_region",
        "chamber": "quadrature.chamber",
        "bin_probabilities": "quadrature.bin_probabilities",
        "box_named": "quadrature.box_abs",
        "box_abs": "quadrature.box_abs",
        "box_clipped": "quadrature.box_clipped",
        "scipy_quad": "volumes.scipy_quad",
    }

    def warm(self):
        # The three whole-chamber integrals are not warmed: their only
        # one-time state is a table of quadrature nodes, while one call
        # costs up to seconds, which would make set-up mostly their work.
        volumes.pe_volume()
        volumes.cube_volume_closed(B_GATE, 0.2)
        volumes.cube_volume_quadrature(B_GATE, 0.2)
        volumes.cube_volume_quadrature((1.2, 0.6, 0.3), 0.1, clip="chamber")
        volumes.cylinder_volume_g((0.1, 0.05), 0.3, 0.5)
        volumes.cylinder_volume_quadrature((0.1, 0.05), 0.3, 0.5)
        volumes.origin_volume_g("cube", 0.3)
        volumes.origin_volume_quadrature("cube", 0.3)

    def inputs(self):
        rng = np.random.default_rng(self.ctx.seed)
        s = self.sizes
        # One side near the middle of each of k equal slices of the range: a
        # box's cost jumps with the number of crease planes it crosses, so
        # sides stay close to a fixed ladder and every seed asks for the
        # same amount of quadrature work.
        def sides(k, lo, hi):
            return [lo + (hi - lo) * (j + 0.45 + 0.1 * rng.random()) / k for j in range(k)]

        # The named-point boxes, whose latency call_p50_ms describes, sit on
        # the ladder itself, so the median box is the same box for every seed.
        k = s["sides_per_named_point"]
        cubes = [(c, 0.05 + 0.55 * (j + 0.5) / k) for c in NAMED_POINTS.values() for j in range(k)]
        generic = []
        for a in sides(s["generic_cubes"], 0.05, 0.3):
            while True:
                c = haar_chamber_points(rng, 1)[0]
                # Strictly inside the open cell, clear of every crease plane.
                if (c[2] >= a / 2 + 1e-6 and c[1] - c[2] >= a + 1e-6 and c[0] - c[1] >= a + 1e-6
                        and c[0] + c[1] <= PI - a - 1e-6):
                    generic.append((tuple(float(v) for v in c), a))
                    break
        axis = [((float(rng.uniform(0.4, PI - 0.4)), 0.0, 0.0), a)
                for a in sides(s["axis_cubes"], 0.05, 0.3)]
        cylinders = []
        for i in range(s["cylinders"]):
            # Alternate between axes inside (R >= rho) and outside the cylinder.
            rho = float(rng.uniform(0.0, 0.25) if i % 2 == 0 else rng.uniform(0.4, 0.8))
            phi = float(rng.uniform(0, 2 * PI))
            radius = float(rng.uniform(rho + 0.05, rho + 0.5) if i % 2 == 0
                           else rng.uniform(0.05, 0.8 * rho))
            cylinders.append(((rho * math.cos(phi), rho * math.sin(phi)), radius,
                              float(rng.uniform(0.1, 1.0))))
        origin = []
        for _ in range(s["origin_bodies"]):
            origin += [("cube", float(rng.uniform(0.1, 1.0)), None),
                       ("sphere", float(rng.uniform(0.1, 1.0)), None),
                       ("cylinder", float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0)))]
        # (closed form, quadrature route, category, relative tolerance, arguments)
        bodies = (
            [(volumes.cube_volume_closed, volumes.cube_volume_quadrature, "box_named", 1e-9, c)
             for c in cubes]
            + [(volumes.cube_volume_closed, volumes.cube_volume_quadrature, "box_abs", 1e-9, c)
               for c in generic + axis]
            + [(volumes.cylinder_volume_g, volumes.cylinder_volume_quadrature, "scipy_quad", 1e-6, c)
               for c in cylinders]
            + [(volumes.origin_volume_g, volumes.origin_volume_quadrature, "scipy_quad", 1e-6, c)
               for c in origin]
        )
        refs = [_closed(closed, *args) for closed, _, _, _, args in bodies]
        small = [
            Call(f"volumes.{quad.__name__}", category, partial(quad, *args),
                 partial(close, b=ref, rel=rel, abs_tol=0.0))
            for (_, quad, category, rel, args), ref in zip(bodies, refs)
        ]
        interior, interior_ref = generic[0], refs[len(cubes)]
        small += [
            Call("volumes.cube_volume_quadrature", "box_clipped",
                 partial(volumes.cube_volume_quadrature, (PI / 2, PI / 4, PI / 4), PI, clip="chamber"),
                 lambda v: abs(v - 1.0) <= 1e-6),
            Call("volumes.cube_volume_quadrature", "box_clipped",
                 partial(volumes.cube_volume_quadrature, *interior, clip="chamber"),
                 partial(close, b=interior_ref, rel=1e-6, abs_tol=0.0)),
        ]
        large = [
            Call("quadrature.integrate_over_chamber", "chamber", quadrature.integrate_over_chamber,
                 lambda v: abs(v - 1.0) <= 1e-6),
            Call("quadrature.bin_probabilities", "bin_probabilities", quadrature.bin_probabilities,
                 lambda p: abs(p.sum() - 1.0) <= 1e-9 and bool(np.all(p >= 0))),
        ]
        # About 11 s a call: too slow to repeat within a timed run, so only
        # the traced run makes it (quadrature.pe_region_s).
        pe = Call("volumes.pe_volume", "pe_region", partial(volumes.pe_volume, "quadrature"),
                  lambda r: abs(r.value - PE_EXACT) <= 1e-5)
        return {"small": small, "large": large, "pe": pe,
                "closed": [(closed, args) for closed, _, _, _, args in bodies]}

    def round(self, rec, inp):
        interleave(rec, inp["small"], inp["large"] + ([inp["pe"]] if self.tracing else []))

    def layer_metrics(self, rec, rnd, inp):
        out = {}
        best = best_times([rnd]).values()
        for name in dict.fromkeys(self.LAYERS.values()):
            ops = [b for b in best if self.LAYERS.get(b.category) == name]
            out[f"{name}_s"] = (sum(b.seconds for b in ops), "s")
            out[f"{name}_calls"] = (len(ops), "count")
        with rec.root("probe") as probe:
            for fn, args in inp["closed"]:
                rec.op(f"volumes.{fn.__name__}", fn, *args, category="closed_forms")
        out["volumes.closed_forms_s"] = (probe.wall, "s")
        out["volumes.closed_forms_calls"] = (len(probe.ops), "count")
        return out


def _closed(fn, *args):
    """A closed-form reference value, or None if the closed form raises."""
    try:
        return fn(*args)
    except Exception:
        return None


class CliCold(Workload):
    """Fresh-process gategeom commands, one at a time."""

    name = "cli_cold"
    rss_of = resource.RUSAGE_CHILDREN
    SIZES = {"full": {"matrix_files": 3, "import_probes": 2, "round_s": 20.0},
             "tiny": {"matrix_files": 3, "import_probes": 1, "round_s": 1.0}}
    #: The console script's entry point, run from this checkout's sources.
    ENTRY = "import sys; from gategeom.cli import main; sys.exit(main())"
    COMMANDS = ("classify", "canonicalize", "invariants", "volume_cube", "volume_cylinder",
                "sample", "mesh", "verify")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.env = dict(os.environ)
        src = str(ctx.root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def _cli(self, args):
        return subprocess.run([sys.executable, "-c", self.ENTRY, *args], capture_output=True,
                              text=True, env=self.env, timeout=120, cwd=self.ctx.tmp)

    def warm(self):
        done = self._cli(["classify", "--coords", "pi/2,pi/4,0", "--json"])
        if done.returncode != 0:
            raise RuntimeError(f"warm-up command failed: {done.stderr.strip()}")

    def inputs(self):
        """Matrix files, command lines and the in-process answers to compare with."""
        from gategeom.geometry import weyl_density

        rng = np.random.default_rng(self.ctx.seed)
        cmds = []
        c = tuple(float(v) for v in haar_chamber_points(rng, 1, margin=0.05)[0])
        cmds.append(("classify", ["classify", "--coords", ",".join(map(repr, c)), "--json"],
                     {"c": c, "g": invariants.g_from_c(c),
                      "perfect_entangler": bool(volumes.is_perfect_entangler(c)),
                      "density": float(weyl_density(np.array(c)))}))
        files = []
        for i, point in enumerate(haar_chamber_points(rng, self.sizes["matrix_files"], margin=0.05)):
            U = dressed(rng, point)
            path = self.ctx.tmp / f"gate{i}.json"
            path.write_text(json.dumps(matrix_json(U)), encoding="utf-8")
            cc = invariants.canonical_coords(U).as_tuple()
            files.append((str(path), U, cc, invariants.project_su4(U)[1].chi))
        for path, _, cc, chi in files:
            cmds.append(("canonicalize", ["canonicalize", path, "--json"], {"c": cc, "chi": chi}))
        for path, U, cc, chi in files:
            cmds.append(("invariants", ["invariants", path, "--json"],
                         {"g": invariants.makhlin_invariants(U).as_tuple(), "c": cc, "chi": chi,
                          "perfect_entangler": bool(volumes.is_perfect_entangler(cc)),
                          "density": float(weyl_density(np.array(cc)))}))
        cmds.append(("volume_cube", ["volume", "cube", "--gate", "b-gate", "--side", "0.3", "--json"],
                     {"closed": volumes.cube_volume_closed(B_GATE, 0.3),
                      "quadrature": volumes.cube_volume_quadrature(B_GATE, 0.3), "agreement": True}))
        g1, g2 = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.2, 0.2))
        radius, height = float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.2, 1.0))
        cmds.append(("volume_cylinder",
                     ["volume", "cylinder", "--center", f"{g1!r},{g2!r},0.0", "--radius", repr(radius),
                      "--height", repr(height), "--json"],
                     {"closed": volumes.cylinder_volume_g((g1, g2), radius, height),
                      "quadrature": volumes.cylinder_volume_quadrature((g1, g2), radius, height),
                      "agreement": True}))
        cfg = SamplerConfig(seed=self.ctx.seed, worker_count=os.cpu_count() or 1)
        cmds.append(("sample", ["sample", "-n", "10000", "--format", "summary", "--seed", str(self.ctx.seed)],
                     sampling.summarize_samples(sampling.sample_canonical(10_000, cfg))))
        cmds.append(("mesh", ["mesh", "weyl-g"], invariants.g_from_c(self._mesh_points(25))))
        cmds.append(("verify", ["verify", "--json"], None))
        self.sizes["commands"] = len(cmds)
        return cmds

    @staticmethod
    def _mesh_points(resolution):
        a1 = np.linspace(0.0, PI, 2 * resolution - 1)
        a2 = np.linspace(0.0, PI / 2, resolution)
        grid = np.array([(a, b, c) for a in a1 for b in a2 for c in a2])
        return grid[in_chamber(grid)]

    @staticmethod
    def _agrees(kind, out: str, ref) -> bool:
        if kind == "mesh":
            lines = out.strip().splitlines()
            if lines[0] != "g1,g2,g3":
                return False
            got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= 1e-10))
        payload = json.loads(out)
        if kind == "verify":
            return payload["passed"] is True and len(payload["checks"]) > 0 and all(
                ch["passed"] for ch in payload["checks"])
        if set(payload) != set(ref):
            return False
        for key, want in ref.items():
            got = payload[key]
            if isinstance(want, (bool, int)):
                if got != want:
                    return False
            elif not close(got, want, rel=1e-9, abs_tol=1e-12):
                return False
        return True

    def round(self, rec, inp):
        for kind, args, ref in inp:
            rec.op(f"cli.{kind}", self._cli, args, category=kind,
                   check=lambda done, kind=kind, ref=ref: done.returncode == 0
                   and self._agrees(kind, done.stdout, ref))

    def _import_ms(self, module):
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=self.env, timeout=60, cwd=self.ctx.tmp, check=True)
        return 1e3 * float(done.stdout)

    def layer_metrics(self, rec, rnd, inp):
        out = {}
        for kind in self.COMMANDS:
            ms = [1e3 * op.seconds for op in rnd.ops if op.category == kind]
            out[f"cli.{kind}_ms"] = (statistics.median(ms), "ms")
        with rec.root("probe"):
            for module, name in (("numpy", "python.numpy_import_ms"), ("gategeom", "gategeom.import_ms")):
                label = name.rsplit("_", 1)[0]
                vals = [rec.op(label, self._import_ms, module, category=module)
                        for _ in range(self.sizes["import_probes"])]
                out[name] = (statistics.median(v for v in vals if v is not None), "ms")
        return out


WORKLOADS = {wl.name: wl for wl in (HaarMC, CanonScalar, VolumesDet, CliCold)}
