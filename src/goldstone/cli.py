"""Command-line entry points.

Subcommands: scan (all enabled groups), bounds / dispersion / qmode /
locality (single group), report.  Exit status: 0 every enabled check
passed, 1 a check failed, 2 a config error or an output directory that
cannot be made, 3 inconclusive (no check failed, but an enabled group
checked nothing or a point could not be certified).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, parse_config
from .runner import run_scan


_VERDICT = {0: "PASS", 1: "FAIL", 3: "INCONCLUSIVE"}


def _add_run_flags(sub):
    sub.add_argument("--config", required=True, help="scan config (INI)")
    sub.add_argument("--out", default="out",
                     help="output directory (default: out)")
    sub.add_argument("--fail-fast", action="store_true",
                     help="after a failing bound entry, finish the "
                          "current (lattice, B) and skip the rest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldstone",
        description="Finite-volume dispersion-bound scans for Heisenberg "
                    "antiferromagnets")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("scan", "run every check group enabled in the config"),
            ("bounds", "inequality suite only"),
            ("dispersion", "wavepacket excitation energies only"),
            ("qmode", "staggered-mode pipeline only"),
            ("locality", "quasi-locality suite only")):
        sub = subs.add_parser(name, help=help_text)
        _add_run_flags(sub)

    sub = subs.add_parser("report", help="re-render a manifest summary")
    sub.add_argument("--out", required=True, help="scan output directory")
    return parser


def _run_group(args, group: str | None) -> int:
    try:
        config = parse_config(args.config)
        if group is not None:
            config = replace(config, checks=(group,))
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_scan(config, out_dir=args.out, fail_fast=args.fail_fast)
    summary = result.manifest["summary"]
    print(f"bound entries: {summary['bound_entries']} "
          f"(failures: {summary['bound_failures']})")
    print(f"checks: {summary['check_entries']} "
          f"(failures: {summary['check_failures']})")
    for item in summary["inconclusive"]:
        print(f"inconclusive: {item['group']}: {item['reason']}")
    print(f"artifacts: {result.out_dir}")
    print(_VERDICT[result.exit_code])
    return result.exit_code


def _report(args) -> int:
    path = Path(args.out) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = manifest["summary"]
    print(f"config {manifest['config_hash']} generated {manifest['generated_at']}")
    for key in ("bound_entries", "bound_failures", "check_entries",
                "check_failures", "dispersion_records"):
        print(f"  {key}: {summary[key]}")
    for item in summary.get("skipped", []):
        print(f"  skipped: {item}")
    for c in manifest["checks"]:
        if not c["passed"]:
            print(f"  FAILED {c['group']}/{c['name']} lattice={c['lattice']} "
                  f"B={c['B']} value={c['value']}")
    for item in summary.get("inconclusive", []):
        print(f"  inconclusive: {item['group']}: {item['reason']}")
    code = summary.get("exit_code", 0 if summary["all_passed"] else 1)
    print(_VERDICT[code])
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return _report(args)
    group = None if args.command == "scan" else args.command
    return _run_group(args, group)


if __name__ == "__main__":
    sys.exit(main())
