"""Command-line entry point: run, report, mts-demo."""

from __future__ import annotations

import argparse
import json
import sys

from . import harness


# The run flags, each a shorthand for ``--set`` of one config field: flag ->
# (field, cast of each comma-separated entry or None for one value, argparse options).
FLAGS = {
    "--kind": ("kind", None, dict(choices=["synthetic", "wind"])),
    "--policies": ("policies", str, dict(help="comma-separated policy names")),
    "--seeds": ("seeds", int, dict(help="comma-separated integer seeds")),
    "--rho": ("rhos", float, dict(help="comma-separated rho values")),
    "--steps": ("steps", None, dict(type=int, help="horizon per episode")),
    "--episodes": ("episodes", None, dict(type=int)),
    "--starts": ("starts", int, dict(help="comma-separated starting action indices")),
    "--dataset": ("dataset", None, dict(help="wind CSV path (timestamp,altitude_m,windspeed_ms)")),
    "--out": ("out_dir", None, dict(help="output directory")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpmd",
        description="Movement-penalized contextual optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a policy/seed/rho sweep")
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    for flag, (name, _, options) in FLAGS.items():
        run_p.add_argument(flag, dest=name, **options)
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (dotted keys reach nested dicts); applied after the flags",
    )

    rep_p = sub.add_parser("report", help="aggregate a finished run directory")
    rep_p.add_argument("--dir", required=True)
    rep_p.add_argument("--out", help="write the aggregate table as CSV")

    demo_p = sub.add_parser("mts-demo", help="print the tree recursion walkthrough")
    demo_p.add_argument("--seed", type=int, default=7)
    return parser


def _config_from_args(args) -> harness.RunConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: the top level must be a JSON object")
    for name, cast, _ in FLAGS.values():
        value = getattr(args, name)
        if value is None:
            continue
        try:
            data[name] = value if cast is None else [cast(v) for v in value.split(",") if v.strip()]
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return harness.apply_overrides(harness.RunConfig.from_dict(data), args.overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            cfg = _config_from_args(args)
        except (ValueError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        return harness.run(cfg)
    if args.command == "report":
        try:
            rows = harness.report(args.dir, out_path=args.out)
        except OSError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 1
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return 0
    print(harness.mts_demo(costs_seed=args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
