"""Command-line entry point: run, report, mts-demo."""

from __future__ import annotations

import argparse
import json
import sys

from . import harness


def _parse_list(text: str, cast):
    return [cast(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpmd",
        description="Movement-penalized contextual optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a policy/seed/rho sweep")
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    run_p.add_argument("--kind", choices=["synthetic", "wind"])
    run_p.add_argument("--policies", help="comma-separated policy names")
    run_p.add_argument("--seeds", help="comma-separated integer seeds")
    run_p.add_argument("--rho", help="comma-separated rho values")
    run_p.add_argument("--steps", type=int, help="horizon per episode")
    run_p.add_argument("--episodes", type=int)
    run_p.add_argument("--starts", help="comma-separated starting action indices")
    run_p.add_argument("--dataset", help="wind CSV path (timestamp,altitude_m,windspeed_ms)")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (dotted keys reach nested dicts)",
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
            data = json.load(fh)
    cfg = harness.RunConfig.from_dict(data)
    if args.kind:
        cfg.kind = args.kind
    if args.policies:
        cfg.policies = _parse_list(args.policies, str)
    if args.seeds:
        cfg.seeds = _parse_list(args.seeds, int)
    if args.rho:
        cfg.rhos = _parse_list(args.rho, float)
    if args.steps is not None:
        cfg.steps = args.steps
    if args.episodes is not None:
        cfg.episodes = args.episodes
    if args.starts:
        cfg.starts = _parse_list(args.starts, int)
    if args.dataset:
        cfg.dataset = args.dataset
    if args.out:
        cfg.out_dir = args.out
    if args.overrides:
        cfg = harness.apply_overrides(cfg, args.overrides)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            cfg = _config_from_args(args)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        return harness.run(cfg)
    if args.command == "report":
        rows = harness.report(args.dir, out_path=args.out)
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return 0
    if args.command == "mts-demo":
        print(harness.mts_demo(costs_seed=args.seed))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
