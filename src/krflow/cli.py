"""Command-line entry point: soliton construction, flow runs, analysis, verify.

Exit codes: 0 success, 2 usage/config error, 3 runtime/analysis failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import analysis
from .acceptance import AcceptanceContext, run_acceptance
from .flow import (_GRID_N_MAX, ConfigError, FlowSetupError, load_config, run_flow,
                   write_artifacts)
from .geometry import write_profile_csv
from .soliton import (cao_koiso_profile, fik_profile, soliton_ode_residual,
                      write_soliton_metadata)

USAGE_ERROR, RUNTIME_ERROR = 2, 3


def _output_error(e: OSError) -> int:
    print(f"error: cannot write output: {e}", file=sys.stderr)
    return USAGE_ERROR


def _window(text):
    """argparse type of --window: 'lo:hi', two finite floats with lo < hi."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi', got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"need finite lo < hi, got {text!r}")
    return lo, hi


def cmd_soliton(args) -> int:
    if not 64 <= args.n <= _GRID_N_MAX:
        print(f"error: node count {args.n} outside [64, {_GRID_N_MAX}]", file=sys.stderr)
        return USAGE_ERROR
    if args.family == "cao-koiso" and args.f_max is not None:
        print("error: --f-max applies only to --family fik", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.family == "cao-koiso":
            prof = cao_koiso_profile(args.n)
        elif args.f_max is None:
            prof = fik_profile(args.n)
        else:
            prof = fik_profile(args.n, f_max=args.f_max)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    residual = soliton_ode_residual(prof)
    try:
        write_profile_csv(prof.profile, args.out)
        write_soliton_metadata(prof, args.out + ".meta", residual=residual)
    except OSError as e:
        return _output_error(e)
    print(f"family = {args.family}")
    print(f"C = {prof.spec.C:.10f}")
    print(f"residual = {residual:.6g}")
    print(f"wrote {args.out} and {args.out}.meta")
    return 0


def cmd_evolve(args) -> int:
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        return _output_error(e)
    try:
        arts = run_flow(cfg)
    except (FlowSetupError, ConfigError) as e:
        print(f"setup error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        manifest = write_artifacts(arts, args.out_dir)
    except OSError as e:
        return _output_error(e)
    print(f"status = {arts.status}")
    print(f"steps = {manifest['steps']}")
    print(f"records = {manifest['records']}")
    print(f"violations = {manifest['violations']}")
    print(f"wall_time_s = {manifest['wall_time_s']:.2f}")
    print(f"wrote artifacts to {args.out_dir}")
    if arts.status != "completed":
        step = manifest["steps"] if arts.failing_step is None else arts.failing_step
        print(f"run did not complete: {arts.status} at step {step}", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


def cmd_analyze(args) -> int:
    try:
        series = analysis.read_series_csv(args.series)
        rep = analysis.blowup_rates(series, window=args.window)
    except (analysis.AnalysisError, OSError, ValueError) as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return RUNTIME_ERROR
    try:
        analysis.write_report(rep, args.report)
    except OSError as e:
        return _output_error(e)
    print(analysis.report_kv(rep))
    print()
    print(analysis.format_report(rep))
    print(f"wrote {args.report}")
    return 0


def cmd_verify(args) -> int:
    results = run_acceptance(AcceptanceContext(level=args.level))
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else RUNTIME_ERROR


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="krflow",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("soliton", help="construct a shrinking-soliton profile")
    s.add_argument("--family", choices=("fik", "cao-koiso"), required=True)
    s.add_argument("--n", type=int, default=2048)
    s.add_argument("--f-max", type=float,
                   help="outer end of the fik profile, in (1, 1e30] (default 50); fik only")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_soliton)

    e = sub.add_parser("evolve", help="run the flow from a config file")
    e.add_argument("--config", required=True)
    e.add_argument("--out-dir", required=True)
    e.set_defaults(fn=cmd_evolve)

    a = sub.add_parser("analyze", help="fit blow-up rates from a series CSV")
    a.add_argument("--series", required=True)
    a.add_argument("--report", required=True)
    a.add_argument("--window", type=_window, default=None,
                   help="fit window 'lo:hi' in tau; a negative lo needs the "
                        "form --window=lo:hi")
    a.set_defaults(fn=cmd_analyze)

    v = sub.add_parser("verify", help="run the acceptance criteria")
    v.add_argument("--level", choices=("quick", "full"), default="quick")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
