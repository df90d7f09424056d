"""Command-line interface: play games, run adversaries, print an
instance's optimum with a witness, audit traces, benchmark sweeps, and
render states to SVG. `run`, `adversary`, `audit` and `bench` score
with `harness.run_experiment`, against the optimum the game's pair-kind
counts give, and `opt` prints the sorted-order optimum and its witness
(`offline.sorted_order_opt`), all exact at every size. `bench`
(`harness.sweep`) also checks each optimum against the exponential oracle
at sizes up to `offline.MAX_N`. A `--report` file is written before
anything is printed, and a reader that closes stdout early ends the
command quietly with status 141.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from typing import Optional, Sequence

from .adversaries import Thm1Adversary, Thm2Adversary, fig8_instance
from .algorithms import ALGORITHMS, get_algorithm, play
from .harness import run_experiment, sweep, write_csv, write_json
from .model import PlacementState, load_instance
from .offline import sorted_order_opt
from .render import render_svg


def _parse_sizes(text: str) -> list[int]:
    """Accept '6', '4,5,6' or '4-9': one or more sizes, each at least 2 (the
    smallest 2-regular instance), a range ascending."""
    lo, dash, hi = text.partition("-")
    try:
        if dash:
            sizes = list(range(int(lo), int(hi) + 1))
        else:
            sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--n takes a size, a list '4,6,8' or a range '4-9', got {text!r}"
        ) from None
    if not sizes:
        raise ValueError(f"--n range {text!r} is empty: its first size exceeds its last")
    if min(sizes) < 2:
        raise ValueError(f"--n sizes must be at least 2, got {min(sizes)} in {text!r}")
    return sizes


def _refuse_report_flags_without_report(args) -> None:
    """`--format` and `--trace` shape the `--report` file; without one they
    would be ignored, so they are refused."""
    if args.report:
        return
    if args.format:
        raise ValueError("--format needs --report")
    if getattr(args, "trace", False):
        raise ValueError("--trace needs --report")


def _write_report(report, args, trace=None) -> None:
    """Write `report` to `--report` as `--format` (csv when left out), and
    `trace` with it: inside the JSON, or beside the CSV."""
    if args.format == "json":
        write_json(report, args.report, trace=trace)
    else:
        write_csv(report, args.report)
        if trace is not None:
            write_json(report, args.report + ".trace.json", trace=trace)


def _print_report(report) -> None:
    print(
        f"{report.alg_name} vs {report.source_id}: "
        f"alg={report.alg_crossings} opt={report.opt_crossings} ratio={report.ratio:.4f} "
        f"violations={report.violation_count}"
    )
    if report.audit_findings:
        print("  finding: " + "\n  finding: ".join(report.audit_findings))


def _play_and_report(source, source_id: str, args) -> int:
    """Play `source` under `--algo`, then score, write and print the game
    against the exact optimum of the instance it realized. The report is
    written first, so a reader closing stdout early still gets it."""
    report, trace = run_experiment(get_algorithm(args.algo), source, source_id)
    if args.report:
        _write_report(report, args, trace if args.trace else None)
    _print_report(report)
    print("  opt basis: exact")
    return 0


def _cmd_run(args) -> int:
    _refuse_report_flags_without_report(args)
    return _play_and_report(load_instance(args.instance), args.instance, args)


def _cmd_adversary(args) -> int:
    _refuse_report_flags_without_report(args)
    if args.name == "thm2":
        if args.n is not None:
            raise ValueError("--n does not apply to thm2, whose board size follows --rounds")
        source = Thm2Adversary(1 if args.rounds is None else args.rounds)
    else:
        if args.rounds is not None:
            raise ValueError(f"--rounds applies only to thm2, not {args.name}")
        n = 10 if args.n is None else args.n
        source = Thm1Adversary(n) if args.name == "thm1" else fig8_instance(n)
    return _play_and_report(source, f"{args.name}(n={source.n})", args)


def _cmd_opt(args) -> int:
    result = sorted_order_opt(load_instance(args.instance))
    print(f"opt={result.opt_crossings}")
    print(f"witness slots={list(result.witness.slot_of)}")
    return 0


def _cmd_audit(args) -> int:
    report, _ = run_experiment(get_algorithm(args.algo), load_instance(args.instance))
    print(
        f"{report.alg_name} on {args.instance}: "
        f"{report.violation_count} finding(s), final crossings={report.alg_crossings}"
    )
    if report.audit_findings:
        print("  " + "\n  ".join(report.audit_findings))
    return 1 if report.audit_findings else 0


def _cmd_bench(args) -> int:
    _refuse_report_flags_without_report(args)
    algorithm = get_algorithm(args.algo)
    result = sweep(algorithm, _parse_sizes(args.n), args.trials, args.seed)
    if args.report:
        _write_report(result, args)
    print(
        f"{algorithm.name}: trials={args.trials} sizes={args.n} "
        f"max_ratio={result.max_ratio:.4f} mean_ratio={result.mean_ratio:.4f} "
        f"violations={result.violation_count}"
    )
    return 0


def _cmd_render(args) -> int:
    if args.instance and args.n is not None:
        raise ValueError("render takes --instance or --n, not both")
    if args.algo and not args.instance:
        raise ValueError("render --algo needs --instance to play")
    if args.instance:
        instance = load_instance(args.instance)
        if args.algo:
            state = play(instance, get_algorithm(args.algo)).final_state
        else:
            state = PlacementState(instance.n)
    elif args.n is not None:
        if args.n < 1:
            raise ValueError(f"render needs --n >= 1, got {args.n}")
        state = PlacementState(args.n)
    else:
        raise ValueError("render needs --instance or --n")
    svg = render_svg(state, show_arrows=not args.no_arrows)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
    else:
        print(svg, end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `oscm` argument parser, built once per process; parsing leaves
    it unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="oscm",
        description="Laboratory for slotted online one-sided crossing minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_flags(p):
        p.add_argument("--report", help="write a report file")
        p.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
        p.add_argument("--trace", action="store_true", help="include the full trace in the report")

    p_run = sub.add_parser("run", help="play an algorithm against a stored instance")
    p_run.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_run.add_argument("--instance", required=True)
    add_report_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_adv = sub.add_parser("adversary", help="play an algorithm against an adversary")
    p_adv.add_argument("--name", required=True, choices=["thm1", "thm2", "fig8"])
    p_adv.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_adv.add_argument("--n", type=int, help="board size (thm1, fig8; default 10)")
    p_adv.add_argument("--rounds", type=int, help="round count (thm2; default 1)")
    add_report_flags(p_adv)
    p_adv.set_defaults(func=_cmd_adversary)

    p_opt = sub.add_parser("opt", help="exact optimum and witness for an instance")
    p_opt.add_argument("--instance", required=True)
    p_opt.set_defaults(func=_cmd_opt)

    p_audit = sub.add_parser("audit", help="play and audit a trace for invariant violations")
    p_audit.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_audit.add_argument("--instance", required=True)
    p_audit.set_defaults(func=_cmd_audit)

    p_bench = sub.add_parser("bench", help="sweep random 2-regular instances")
    p_bench.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_bench.add_argument("--n", default="4-9", help="sizes: '6', '4,6,8' or '4-9'")
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--report", help="write per-trial rows")
    p_bench.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
    p_bench.set_defaults(func=_cmd_bench)

    p_render = sub.add_parser("render", help="render a state to SVG")
    p_render.add_argument("--instance")
    p_render.add_argument("--algo", choices=sorted(ALGORITHMS), help="play first, render the final state")
    p_render.add_argument("--n", type=int, help="render an empty board of this size")
    p_render.add_argument("--svg", help="output path (stdout if omitted)")
    p_render.add_argument("--no-arrows", action="store_true")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout early: silence the exit flush too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a bug in oscm, not in the user's input.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
