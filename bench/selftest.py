"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that failures are counted rather than fatal (a non-unitary input
and a wrong reference value each count as one failed operation), that
every workload prints every metric named in BENCHMARK.json with its unit
when run at a tiny size, and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and the benchmark's own files.
Takes about a minute and a half.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402
from gategeom import invariants, volumes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


def test_failures_are_counted():
    rec = worker.Recorder(trace=True)
    with rec.root("round") as rnd:
        rec.op("invariants.canonical_coords", invariants.canonical_coords, np.ones((4, 4)))
        rec.op("volumes.pe_volume", volumes.pe_volume, check=lambda r: abs(r.value - 0.5) < 1e-5)
        rec.op("volumes.pe_volume", volumes.pe_volume,
               check=lambda r: abs(r.value - workloads.PE_EXACT) < 1e-12)
    assert [op.status for op in rnd.ops] == ["raised", "wrong", "ok"], rnd.ops
    assert rnd.failed == 2
    assert len(rec.spans) == 4 and rec.spans[1][1] == rec.spans[0][0]
    assert set(rec.self_times()) == {"bench", "invariants", "volumes"}


def test_canon_scalar_counts_bad_inputs():
    ctx = worker.Context(seed=1, size="tiny", nproc=1, root=ROOT, tmp=Path(tempfile.gettempdir()))
    wl = workloads.CanonScalar(ctx)
    c = (1.0, 0.5, 0.2)
    inp = [
        ("haar", np.ones((4, 4)), c),  # not unitary: raises
        ("haar", workloads.core_gate(c), (0.9, 0.5, 0.2)),  # wrong reference class
        ("haar", workloads.core_gate(c), c),
    ]
    rec = worker.Recorder(trace=False)
    with rec.root("round") as rnd:
        wl.round(rec, inp)
    status = {op.key: op.status for op in rnd.ops}  # the round visits gates in a shuffled order
    assert [status[i] for i in range(len(inp))] == ["raised", "wrong", "ok"], rnd.ops


def test_class_distance():
    assert workloads.class_distance((math.pi - 1.0, 0.3, 0.0), (1.0, 0.3, 0.0)) < 1e-15
    assert abs(workloads.class_distance((1.0, 0.3, 0.1), (1.0, 0.3, 0.2)) - 0.1) < 1e-15


def test_tail():
    value, pct, n = worker.tail(range(1, 21))
    assert (value, pct, n) == (10, 50.0, 20)


def _assert_metrics(result: dict, declared: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), {k for k in got if got[k] != want.get(k)})
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"]), (name, m)


def test_every_metric_printed():
    # Every workload, declared in BENCHMARK.json or not (volumes_det is run
    # by hand and in the traced run only).
    for wl in workloads.WORKLOADS:
        done = _run_bench("--workload", wl, "--seed", "3", "--seconds", "1", "--trace", "0",
                          "--size", "tiny")
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        _assert_metrics(result, SPEC["end_to_end"])
        # Only canon_scalar has known failures (the boundary defect).
        assert wl == "canon_scalar" or result["failed"] == 0, (wl, done.stdout)
        assert all(m["value"] > 0 for m in result["metrics"].values()), (wl, result["metrics"])
    done = _run_bench("--workload", "canon_scalar", "--seed", "3", "--seconds", "1",
                      "--trace", "1", "--size", "tiny")
    assert done.returncode == 0, done.stderr[-2000:]
    _assert_metrics(json.loads(done.stdout.strip().splitlines()[-1]), SPEC["per_layer"])


def test_refuses_without_sources():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        done = _run_bench("--workload", "haar_mc", "--seed", "1", "--seconds", "1", "--trace", "0",
                          cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
