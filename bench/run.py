"""Benchmark entry point: run one workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload haar_mc --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload runs in a fresh process for a fixed number
of rounds of its fixed work, as many as fit in ``--seconds`` on the
reference machine, after ``SETUP_PROBES`` more fresh processes that only
set up; the end-to-end metrics are printed.  With ``--trace 1`` every workload runs one traced
round in its own process (the chosen one also an untraced round first,
for the tracing overhead) and the per-layer metrics are printed.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  ``failed`` counts operations that raised or whose output
missed its reference; ``correct`` is true when every operation's output
was checked, so a wrong answer shows in ``failed``, never as a crash.
A full report, with provenance and per-round figures, goes to
``.bench_out/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("haar_mc", "canon_scalar", "volumes_det", "cli_cold")
#: Extra fresh processes per run that only set up, for the median of set-up time.
SETUP_PROBES = 2
#: Every run ends within this many seconds or fails.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Layers whose self time each workload's traced round reports.
SELF_LAYERS = {
    "haar_mc": ("sampling", "volumes", "bench"),
    "canon_scalar": ("gates", "invariants", "bench"),
    "volumes_det": ("quadrature", "volumes", "bench"),
    "cli_cold": ("cli", "gategeom", "python", "bench"),
}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


#: The workload process running now, for the termination handler.
_current: subprocess.Popen | None = None


def _stop_current(signum, _frame):
    """On SIGTERM or SIGINT, stop the workload process group, wait, and exit."""
    if _current is not None and _current.poll() is None:
        os.killpg(_current.pid, signal.SIGKILL)
        _current.wait()
    sys.exit(128 + signum)


def _spawn(args: list[str], deadline: float) -> dict:
    """Run the worker with ``args``; return its JSON result line."""
    global _current
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    spawned = time.monotonic()
    # A session of its own, so that a timeout can stop the CLI commands
    # the worker started as well as the worker.
    proc = _current = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process {args} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine_provenance() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [_read(str(index / f)).strip() for f in ("level", "type", "size")]
        caches.append("L{} {} {}".format(*fields))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def source_provenance() -> dict:
    """Git commit when the checkout is a repository, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    cwd=ROOT, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unavailable (git failed)"
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "not installed"
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "versions": versions}


def run_metrics(args, deadline) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setups = [_spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    main = _spawn(common + ["--seconds", str(args.seconds)], deadline)
    setups.append(main["setup_s"])
    values = dict(main["medians"])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = main["peak_rss_mb"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    report = {
        "setup_samples_s": setups,
        "timing": main["detail"],
        "sizes": main["sizes"],
        "package": main["provenance"],
        "failures": main["failures"],
    }
    return metrics, {"attempted": main["attempted"], "failed": main["failed"], "report": report}


def trace_metrics(args, deadline) -> tuple[dict, dict]:
    metrics, report = {}, {}
    attempted = failed = 0
    for wl in WORKLOADS:
        extra = ["--baseline"] if wl == args.workload else []
        res = _spawn(["--workload", wl, "--seed", str(args.seed), "--size", args.size,
                      "--trace", *extra], deadline)
        for name, (value, unit) in res["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        for layer in SELF_LAYERS[wl]:
            metrics[f"self_s.{wl}.{layer}"] = {"value": res["self_s"].get(layer, 0.0), "unit": "s"}
        metrics[f"fail_frac.{wl}"] = {"value": res["failed"] / res["attempted"], "unit": "1"}
        attempted += res["attempted"]
        failed += res["failed"]
        report[wl] = {k: res[k] for k in ("sizes", "self_s", "spans", "spans_file", "traced_round_s",
                                           "failures", "attempted", "failed")}
        if wl == args.workload:
            traced, plain = res["traced_round_s"], res["untraced_round_s"]
            metrics["trace.untraced_round_s"] = {"value": plain, "unit": "s"}
            metrics["trace.traced_round_s"] = {"value": traced, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
            metrics["trace.spans"] = {"value": res["spans"], "unit": "count"}
            report["package"] = res["provenance"]
    return metrics, {"attempted": attempted, "failed": failed, "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gategeom benchmark: one workload, one JSON result line")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gategeom" / "__init__.py").is_file():
        print(f"bench: {ROOT} holds no gategeom sources (src/gategeom)", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop_current)
    deadline = time.monotonic() + DEADLINE_S
    started = time.time()
    try:
        measure = trace_metrics if args.trace else run_metrics
        metrics, outcome = measure(args, deadline)
    except (BenchError, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "started_unix": started,
        "machine": machine_provenance(), "source": source_provenance(),
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": metrics, **outcome["report"],
    }
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"bench: {args.workload} seed {args.seed}: {outcome['failed']} of "
          f"{outcome['attempted']} operations failed; report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": True, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
