"""gausscalc benchmark: three workloads, end-to-end metrics, traced per-layer split.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): verify-default, boundedness-wide-d2, besov-sweep.
One caller runs passes one after another (a closed loop), each pass in a fresh
interpreter started by worker.py, until `--seconds` is used up; a pass is
started only if it is expected to end in time, and at least one always runs
(two with --trace 1).

--trace 0 reports the end-to-end metrics, medians over the run:
    wall_s       seconds for one pass, tracing off
    setup_s      seconds from a fresh interpreter until gausscalc is imported and
                 the workload's configs and families are built; measured in every
                 pass process, topped up with set-up-only processes to at least
                 MIN_SETUP_SAMPLES samples
    peak_rss_mb  peak resident memory of the process that ran one pass
Both times are given at the reference host speed of hostspeed.py: the host's
speed drifts, so each interval is scaled by the speed a fixed kernel, sampled
all through it, measured.  The raw times are printed next to them.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py (medians over traced passes) plus trace.overhead_frac.

Every pass is checked: payload digests must agree across all passes of a run,
traced or not, and the workload's own output checks must hold.  Failed
operations (failed report checks, experiments that raise, non-finite norms, a
pass that hits the time cap) are counted, not hidden: failed_frac is printed
and `attempted`/`failed` go into the final JSON line.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from tracing import layer_metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
WORKLOADS = ("verify-default", "boundedness-wide-d2", "besov-sweep")
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0  # a run must end well inside 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, trace: bool, timeout: float):
    """Run one worker process; its result dict, or None if it hit the time cap."""
    WORKDIR.mkdir(exist_ok=True)
    result = WORKDIR / f"result-{uuid.uuid4().hex}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--workdir", str(WORKDIR), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the worker
        result.unlink(missing_ok=True)
        return None
    if proc.returncode != 0:
        result.unlink(missing_ok=True)
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result) as fh:
        data = json.load(fh)
    result.unlink()
    return data


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes of one workload; `seed` is the family seed the workers run at."""
    start = time.monotonic()
    deadline = start + seconds

    def cap():
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - start))

    setups, passes, cycles, env = [], [], [], None
    dnf = False
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        r = spawn(workload, seed, "pass", traced, cap())
        if r is None:
            dnf = True
            print(f"  pass {len(passes) + 1:2d} {'traced  ' if traced else 'untraced'} did not finish "
                  f"within {time.monotonic() - began:.0f} s", flush=True)
            break
        cycles.append(time.monotonic() - began)
        env = env or r["env"]
        r["traced"] = traced
        passes.append(r)
        setups.append(r["setup_s"])
        print(f"  pass {len(passes):2d} {'traced  ' if traced else 'untraced'} wall_s={r['wall_s']:.4f} "
              f"(raw {r['wall_raw_s']:.4f}, host factor {r['host_factor']:.3f}) setup_s={r['setup_s']:.4f} "
              f"(raw {r['setup_raw_s']:.4f}) peak_rss_mb={r['peak_rss_mb']:.1f} attempted={r['attempted']} "
              f"failed={r['failed']} digest={r['digest'][:16]}", flush=True)
        enough = len(passes) >= 2 if trace else len(passes) >= 1
        if enough and time.monotonic() + _median(cycles) > deadline:
            break
    # top up set-up samples with set-up-only processes (about one second each)
    while not trace and not dnf and len(setups) < MIN_SETUP_SAMPLES:
        probe = spawn(workload, seed, "setup", False, cap())
        if probe is None:
            break
        setups.append(probe["setup_s"])

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    # the per-layer times are raw, so their shares are of the raw traced wall time
    reported = traced_passes if trace else untraced
    attempted = sum(p["attempted"] for p in passes) + dnf
    failed = sum(p["failed"] for p in passes) + dnf
    problems = [msg for p in passes for msg in p["problems"]]
    if len({p["digest"] for p in passes}) > 1:
        problems.append("payload digests differ between passes over the same inputs")
    problems += [f"binding not restored after tracing: {b}" for p in traced_passes for b in p["unrestored"]]

    if trace:
        units = layer_metric_units()
        base = _median([p["wall_s"] for p in untraced])
        layers = {name: _median([p["layers"][name] for p in traced_passes]) for name in units
                  if name != "trace.overhead_frac"}
        layers["trace.overhead_frac"] = _median([p["wall_s"] for p in traced_passes]) / base - 1.0 if base else 0.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        walls = [p["wall_s"] for p in untraced] or [time.monotonic() - start]
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return {
        "workload": workload,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "did_not_finish": dnf,
        "setup_samples": len(setups),
        "digest": passes[0]["digest"] if passes else None,
        "report_digests": passes[0]["digests"] if passes else [],
        "problems": problems,
        "env": env,
        "correct": bool(passes) and not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "wall_raw_s": _median([p["wall_raw_s"] for p in reported]),
        "metrics": metrics,
    }


def print_summary(res: dict):
    env = res["env"] or {}
    print(f"environment: python {env.get('python')}, numpy {env.get('numpy')}, scipy {env.get('scipy')}, "
          f"blas {env.get('blas')} threads={env.get('blas_threads')}, nproc {env.get('nproc')}, cpu {env.get('cpu')}")
    print(f"workload {res['workload']} seed {res['seed']} (family seed {res['family_seed']}): {res['passes']} passes "
          f"({res['traced_passes']} traced), {res['setup_samples']} set-up samples"
          + (", a pass did not finish" if res["did_not_finish"] else ""))
    for name, m in res["metrics"].items():
        print(f"  {name:55s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':55s} {res['failed_frac']:.6g} ratio  ({res['failed']} of {res['attempted']} operations)")
    print(f"  {'raw wall time (host speed as found)':55s} {res['wall_raw_s']:.6g} s")
    print(f"  payload digest {res['digest']}")
    for i, d in enumerate(res["report_digests"][:12]):
        print(f"    output {i:2d} {d}")
    if len(res["report_digests"]) > 12:
        print(f"    ... {len(res['report_digests']) - 12} more outputs")
    for msg in res["problems"]:
        print(f"  PROBLEM: {msg}")
    print(f"  correct: {res['correct']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, help="default: the package default seed, 20260809")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gausscalc" / "__init__.py").is_file():
        print(f"run.py: no gausscalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        family_seed = workloads.family_seed(name, seed)
        print(f"== {name} (seed {seed}: family seed {family_seed}, {args.seconds:g} s, trace {args.trace})",
              flush=True)
        try:
            res = run_workload(name, family_seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        res.update(seed=seed, family_seed=family_seed)
        print_summary(res)
        results[name] = res
    if args.workload == "all":
        keys = ("correct", "attempted", "failed", "failed_frac", "wall_raw_s", "digest", "report_digests", "env", "metrics")
        summary = {n: {k: r[k] for k in keys} for n, r in results.items()}
        print(json.dumps({"workloads": summary}))
    else:
        res = results[args.workload]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
