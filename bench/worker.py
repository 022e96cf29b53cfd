"""Run one workload in its own process and print its result as one JSON line.

``run.py`` starts this script; by hand it runs as::

    python3 bench/worker.py --workload canon_scalar --seed 1 --seconds 5 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

Set-up time is measured from ``--spawned-at`` (a ``time.monotonic()``
reading taken by the parent just before it started this process, which
is comparable across processes on Linux) to the moment the workload is
ready: ``gategeom`` imported and one warm-up call made per entry point.
Input generation comes after that mark and is not counted.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


# ---------------------------------------------------------------------------
# Timing, failure accounting and spans.


class Op(NamedTuple):
    """One timed call into the package and the verdict on its output."""

    key: object
    name: str
    category: str
    seconds: float
    status: str  # "ok", "raised" or "wrong"
    units: int
    error: str


class Round:
    """One pass over a workload's fixed list of operations.

    Stored column by column, so that timing a call adds no container the
    garbage collector would have to trace during later calls.
    """

    def __init__(self):
        self.keys: list = []
        self.names: list[str] = []
        self.categories: list[str] = []
        self.seconds: list[float] = []
        self.status: list[str] = []
        self.units: list[int] = []
        self.errors: dict[int, str] = {}
        self.elapsed = 0.0  # wall clock of the whole pass, checks included

    @property
    def ops(self) -> list[Op]:
        return [Op(*row, self.errors.get(i, ""))
                for i, row in enumerate(zip(self.keys, self.names, self.categories,
                                            self.seconds, self.status, self.units))]

    @property
    def wall(self) -> float:
        """Time spent inside the package's calls."""
        return sum(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.status) - self.status.count("ok")


class Recorder:
    """Times every operation; with tracing on, also keeps a span for each.

    A span is ``(id, parent, op, name, category, start, end)`` with times
    in seconds from the recorder's creation.  Root spans (a round, a
    probe) have no operation id; an operation's span has its round as
    parent.  Spans stay in memory until :meth:`dump`.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[tuple] = []
        self._t0 = time.perf_counter()
        self._root: int | None = None
        self._round: Round | None = None
        self._op_count = 0

    @contextmanager
    def root(self, name: str):
        """A root span (a round or a probe); yields the Round collecting its ops."""
        rnd = Round()
        outer_root, outer_round = self._root, self._round
        span_id = len(self.spans)
        if self.trace:
            self.spans.append(None)  # reserved; filled when the root closes
        self._root, self._round = span_id, rnd
        start = time.perf_counter()
        try:
            yield rnd
        finally:
            end = time.perf_counter()
            rnd.elapsed = end - start
            if self.trace:
                self.spans[span_id] = (
                    span_id, None, None, name, "bench", start - self._t0, end - self._t0
                )
            self._root, self._round = outer_root, outer_round

    def op(self, name, fn, *args, check=None, category="", units=1, key=None, **kwargs):
        """Call ``fn(*args, **kwargs)``, time it and judge its output.

        The call counts as failed when it raises, or when ``check(result)``
        returns false or raises.  Returns the result, or None if it raised.
        ``key`` names the piece of the fixed work this call performs; calls
        with one key repeat the same work.  By default it is the call's
        position in its round.
        """
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            end = time.perf_counter()
            result, status, error = None, "raised", f"{type(exc).__name__}: {exc}"
        else:
            end = time.perf_counter()
            status, error = "ok", ""
            if check is not None:
                try:
                    if not check(result):
                        status = "wrong"
                except Exception as exc:
                    status, error = "wrong", f"check raised {type(exc).__name__}: {exc}"
        op_id = self._op_count
        self._op_count += 1
        if self.trace:
            self.spans.append(
                (len(self.spans), self._root, op_id, name, category,
                 start - self._t0, end - self._t0)
            )
        rnd = self._round
        if error:
            rnd.errors[len(rnd.status)] = error
        rnd.keys.append(len(rnd.keys) if key is None else key)
        rnd.names.append(name)
        rnd.categories.append(category)
        rnd.seconds.append(end - start)
        rnd.status.append(status)
        rnd.units.append(units)
        return result

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its children cover.

        A span's layer is the package module whose public function it
        calls (the part of its name before the first dot); root spans
        belong to the benchmark itself, layer ``bench``.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] = child_time.get(span[1], 0.0) + span[6] - span[5]
        out: dict[str, float] = {}
        for span in self.spans:
            layer = "bench" if span[1] is None else span[3].split(".", 1)[0]
            own = span[6] - span[5] - child_time.get(span[0], 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        keys = ("id", "parent", "op", "name", "category", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``; the percentile is the
    empirical CDF at the returned sample.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


class Best(NamedTuple):
    """The fastest of a run's calls that performed one piece of the fixed work."""

    name: str
    category: str
    seconds: float
    units: int
    repeats: int


def best_times(rounds: list[Round]) -> dict:
    """Per key, the fastest of its calls over all ``rounds``.

    The minimum over repeats spread across the run is the call's cost when
    the machine was least disturbed, as ``timeit`` reports it: a shared
    virtual machine slows a call by whatever else runs beside it, and the
    least disturbed repeat is the figure that stays put from run to run.
    """
    out: dict = {}
    for rnd in rounds:
        for key, name, cat, sec, units in zip(rnd.keys, rnd.names, rnd.categories,
                                                rnd.seconds, rnd.units):
            seen = out.get(key)
            if seen is None:
                out[key] = Best(name, cat, sec, units, 1)
            else:
                out[key] = Best(name, cat, min(seen.seconds, sec), units, seen.repeats + 1)
    return out


def summarize(rounds: list[Round], latency=None) -> dict:
    """End-to-end figures of one run, from each piece of work's best time.

    ``wall_s`` is the sum of the best times: one pass over the fixed work.
    ``latency`` names the operation categories whose latencies the
    median and the tail describe; None means every operation.
    """
    best = best_times(rounds)
    wall = sum(b.seconds for b in best.values())
    lat = [b.seconds for b in best.values() if latency is None or b.category in latency]
    t_val, t_pct, t_n = tail(lat) if len(lat) > 10 else (None, None, len(lat))
    med = {
        "wall_s": wall,
        "ops_per_s": sum(b.units for b in best.values()) / wall,
        "call_p50_ms": 1e3 * statistics.median(lat),
    }
    detail = {
        "call_tail_ms": None if t_val is None else 1e3 * t_val,
        "tail_percentile": t_pct,
        "tail_samples": t_n,
        "pieces_of_work": len(best),
        "repeats_per_piece": sorted({b.repeats for b in best.values()}),
        "rounds": [{"elapsed_s": r.elapsed, "in_calls_s": r.wall, "ops": len(r.seconds),
                    "failed": r.failed} for r in rounds],
    }
    return {"medians": med, "detail": detail}


def failures(rounds: list[Round], limit: int = 20) -> list[dict]:
    """The first few failed operations, for the report."""
    out = []
    for rnd in rounds:
        for op in rnd.ops:
            if op.status != "ok" and len(out) < limit:
                out.append({"name": op.name, "category": op.category,
                            "status": op.status, "error": op.error})
    return out


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


# ---------------------------------------------------------------------------
# Process entry.


@dataclass
class Context:
    """What a workload needs to know about its run."""

    seed: int
    size: str  # "full", or "tiny" for the self-test
    nproc: int
    root: Path
    tmp: Path


def _import_package():
    """Import gategeom from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "gategeom" / "__init__.py").is_file():
        sys.exit(f"bench: no gategeom sources under {src}")
    sys.path.insert(0, str(src))
    import gategeom

    if Path(gategeom.__file__).resolve().parent != (src / "gategeom").resolve():
        sys.exit(f"bench: gategeom imported from {gategeom.__file__}, not from {src}")


def _run_rounds(wl, rec, inp, rounds: int) -> list[Round]:
    """The workload's fixed work, ``rounds`` times."""
    out = []
    for _ in range(rounds):
        with rec.root("round") as rnd:
            wl.round(rec, inp)
        out.append(rnd)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true", help="stop when ready")
    ap.add_argument("--trace", action="store_true", help="one traced round, per-layer figures")
    ap.add_argument("--baseline", action="store_true",
                    help="with --trace, run an untraced round first for the overhead")
    args = ap.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ctx = Context(args.seed, args.size, len(os.sched_getaffinity(0)), ROOT, tmp)
        wl = workloads.WORKLOADS[args.workload](ctx)
        wl.warm()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        inp = wl.inputs()
        # Keep the inputs out of the collector's full passes: they belong
        # to the benchmark, and would otherwise tax the calls being timed.
        gc.collect()
        gc.freeze()
        result = {"workload": args.workload, "setup_s": setup_s, "sizes": wl.sizes,
                  "provenance": workloads.package_provenance()}
        if args.trace:
            result.update(_traced(wl, inp, args))
        else:
            rec = Recorder(trace=False)
            result["sizes"]["rounds"] = n_rounds = wl.rounds_for(args.seconds)
            rounds = _run_rounds(wl, rec, inp, n_rounds)
            result.update(summarize(rounds, wl.LATENCY))
            result["attempted"] = sum(len(r.seconds) for r in rounds)
            result["failed"] = sum(r.failed for r in rounds)
            result["failures"] = failures(rounds)
        result["peak_rss_mb"] = peak_rss_mb(wl.rss_of)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _traced(wl, inp, args) -> dict:
    out = {}
    wl.tracing = True
    if args.baseline:
        plain_rec = Recorder(trace=False)
        with plain_rec.root("round") as plain:
            wl.round(plain_rec, inp)
        out["untraced_round_s"] = plain.elapsed
    rec = Recorder(trace=True)
    with rec.root("round") as rnd:
        wl.round(rec, inp)
    out["traced_round_s"] = rnd.elapsed
    layers = wl.layer_metrics(rec, rnd, inp)
    out["layers"] = layers
    out["self_s"] = rec.self_times()
    out["spans"] = len(rec.spans)
    out["attempted"] = len(rnd.seconds)
    out["failed"] = rnd.failed
    out["failures"] = failures([rnd])
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec.dump(spans_path)
    out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
