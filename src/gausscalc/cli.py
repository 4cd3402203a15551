"""Command-line entry point.

    gausscalc run <experiment> [--config FILE] [--seed U64] [--out PATH]
                               [--format json|csv|text] [--dimension D]
                               [--family-size M] [--max-degree N]
    gausscalc list
    gausscalc verify-all [--config FILE] [--seed U64] [--out PATH]

Exit codes: 0 all checks passed, 1 an invariant failed, 2 usage/config error
or an unwritable --out.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .harness import emit_report, list_experiments, load_config, run_experiment, verify_all


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="64-bit family seed")
    p.add_argument("--dimension", type=int, choices=(1, 2))
    p.add_argument("--family-size", type=int, dest="family_size")
    p.add_argument("--max-degree", type=int, dest="max_degree")
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), help="report format (default json)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gausscalc", description="Gaussian harmonic-analysis experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one named experiment")
    run.add_argument("experiment")
    _add_config_flags(run)
    sub.add_parser("list", help="list experiments")
    all_ = sub.add_parser("verify-all", help="run every experiment")
    _add_config_flags(all_)
    return parser


def _config_from_args(args) -> "ExperimentConfig":
    overrides = {
        key: getattr(args, key, None)
        for key in ("seed", "dimension", "family_size", "max_degree", "out", "fmt")
    }
    return load_config(args.config, **overrides)


def _unwritable(path: str) -> str | None:
    """Why a report could not be written to path, or None if it looks writable.

    Checked before any experiment runs, so a bad --out fails at once rather
    than after the whole run; the write itself still handles OSError.
    """
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(folder):
        return os.strerror(errno.ENOENT)
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, statement in list_experiments():
            print(f"{name:32s} {statement}")
        return 0
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"gausscalc: config error: {exc}", file=sys.stderr)
        return 2
    reason = _unwritable(cfg.out) if cfg.out else None
    if reason:
        print(f"gausscalc: cannot write {cfg.out}: {reason}", file=sys.stderr)
        return 2
    try:
        reports = [run_experiment(args.experiment, cfg)] if args.command == "run" else verify_all(cfg)
    except ValueError as exc:
        print(f"gausscalc: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        text = emit_report(reports[0], cfg.fmt or "json")
    else:
        for rep in reports:
            print(f"[{'PASS' if rep.passed else 'FAIL'}] {rep.experiment}  ({rep.runtime_s * 1e3:.1f} ms)")
        text = "\n".join(emit_report(rep, cfg.fmt or "json") for rep in reports)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"gausscalc: cannot write {cfg.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    elif args.command == "run":
        sys.stdout.write(text)
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
