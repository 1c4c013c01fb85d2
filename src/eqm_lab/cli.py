"""Command-line front end.

Subcommands:
    run <config>      execute one scenario document
    suite             execute the bundled scenario corpus
    koopman <config>  execute only the classical diagnostics of a config

Exit codes: 0 all checks passed, 1 check, runtime or write failure, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config, with_dt
from .runner import ScenarioError, koopman_only, render_report, run_and_write, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqm-lab",
        description="Nonlinear density-matrix flows, observable transport, and diagnostics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", type=Path, default=Path("out"))
    common.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[common], help="run a single scenario config")
    suite_p = sub.add_parser("suite", parents=[common], help="run the bundled scenario corpus")
    koop_p = sub.add_parser("koopman", parents=[common],
                            help="run the classical diagnostics of a config")
    for p in (run_p, koop_p):
        p.add_argument("config", type=Path, help="path to a JSON scenario document")
    for p in (run_p, suite_p):
        p.add_argument("--dt", type=float, default=None, help="override the integrator step")
    return parser


def _load_config(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    return parse_config(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            rows = run_suite(args.out_dir, args.dt)
        else:
            cfg = _load_config(args.config)
            if args.command == "koopman":
                cfg = koopman_only(cfg)
            elif args.dt is not None:
                cfg = with_dt(cfg, args.dt)
            rows = run_and_write(cfg, args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(render_report(rows), end="")
    return 0 if all(r.passed for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
