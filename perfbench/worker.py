"""One benchmark process: set up one workload and optionally run one pass.

    python3 perfbench/worker.py --workload W --seed S --mode setup|pass
                                [--trace] --spawned-at T --workdir DIR --result FILE

`run.py` starts one of these per pass, so each pass has a fresh interpreter
and its own peak RSS.  `--spawned-at` is the CLOCK_MONOTONIC reading taken by
the parent just before it started this process; set-up time runs from there
until gausscalc is imported and the workload's configs and families are built.
A host-speed sampler (hostspeed.py) runs through the set-up and through the
pass; both are reported raw (`*_raw_s`) and at the reference host speed.
The result is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from hostspeed import Sampler

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sampler = Sampler().start()
    sys.path.insert(0, str(SRC))
    import gausscalc
    import workloads

    if Path(gausscalc.__file__).resolve().parent != SRC / "gausscalc":
        raise SystemExit(f"gausscalc imported from {gausscalc.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup = _monotonic() - args.spawned_at - sampler.busy_s
    sampler.stop()
    result = {"setup_s": setup * sampler.factor, "setup_raw_s": setup, "env": environment()}

    if args.mode == "pass":
        from tracing import Tracer

        c_beta_k = gausscalc.fractional.c_beta_k
        sampler = Sampler()
        # spans run on the sampler's clock, so no span counts the kernel's time
        tracer = Tracer(clock=sampler.clock) if args.trace else None
        before = c_beta_k.cache_info()
        if tracer is not None:
            tracer.install()
        sampler.start()
        start = sampler.clock()
        try:
            outcome = workload.run()
        finally:
            wall = sampler.clock() - start
            sampler.stop()
            if tracer is not None:
                tracer.uninstall()
        result.update(
            wall_s=wall * sampler.factor,
            wall_raw_s=wall,
            host_factor=sampler.factor,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=outcome.attempted,
            failed=outcome.failed,
            digest=outcome.digest(),
            digests=outcome.digests,
            problems=outcome.problems,
        )
        if tracer is not None:
            after = c_beta_k.cache_info()
            result["layers"] = tracer.metrics(after.hits - before.hits, after.misses - before.misses)
            result["unrestored"] = tracer.unrestored()
            tracer.write(os.path.join(args.workdir, f"trace-{args.workload}.json"), f"{args.workload} seed {args.seed}")

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
