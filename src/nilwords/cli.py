"""Command-line interface.

Subcommands: eval, member, plot, profile, synth, verify.  Exit codes are
scriptable: 0 success or member, 1 domain-negative result (point outside,
target not reached), 2 usage error, 3 tolerance or verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from typing import Callable, Iterator, List, Optional

from .dynamics import UVWPoint, UnitMassError, XYPoint, eval_xy, extract_uvw, project
from .lie_core import (
    abelianization_lower_bound,
    element_to_json,
    evaluate_word,
)
from .region import EpsilonPolicy, Membership, membership, render_region
from .scalar import Mode, Scalar
from .search import (
    SearchConfig,
    SynthesisDomainError,
    coarse_length_profile,
    coarse_length_profile_uvw,
    profile_to_csv,
    synthesize_word,
)
from .verify import SUITE_NAMES, run_suite
from .words import (
    WordParseError,
    coarse_length,
    format_word,
    length,
    normalize,
    parse_word,
    sigma_to_rword,
    word_to_json,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_TOLERANCE = 3


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


class _UsageError(Exception):
    pass


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Report an output path that cannot be written as a usage error."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _int_between(low: int, high: float = math.inf) -> Callable[[str], int]:
    """Argument type for integers from `low` to `high`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """Argument type for tolerances: finite and greater than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number greater than 0, got {text!r}"
        )
    return value


def _parse_scalar(text: str, mode: Mode, what: str) -> Scalar:
    try:
        return Scalar.parse(text, mode)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad {what} {text!r}: {exc}") from exc


def _policy(mode: Mode, eps: float) -> EpsilonPolicy:
    try:
        return EpsilonPolicy.for_mode(mode, eps)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_eval(args: argparse.Namespace) -> int:
    mode = Mode(args.arith)
    word = parse_word(args.word, mode)
    element = evaluate_word(word, mode)
    ell = length(word)
    ell_prime = coarse_length(word)
    uvw = xy = None
    try:
        uvw = extract_uvw(element)
        xy = project(uvw)
    except UnitMassError:
        pass
    bound = abelianization_lower_bound(element)
    values = [*element.coords(), ell, bound]
    if uvw is not None and xy is not None:
        values += [*uvw.coords(), *xy.coords()]
    if not all(value.is_finite() for value in values):
        raise _UsageError(
            f"{args.word!r} overflows float arithmetic to a non-finite value; use --arith exact"
        )
    if args.format == "json":
        payload = {
            "element": element_to_json(element),
            "uvw": [c.as_json() for c in uvw.coords()] if uvw else None,
            "xy": [c.as_json() for c in xy.coords()] if xy else None,
            "length": ell.as_json(),
            "coarse_length": ell_prime,
            "abelianization_lower_bound": bound.as_json(),
        }
        _emit(args, json.dumps(payload, indent=2))
        return EXIT_OK
    lines = [f"element: ({', '.join(element_to_json(element))})"]
    if uvw is not None and xy is not None:
        lines.append(f"uvw: ({', '.join(c.as_json() for c in uvw.coords())})")
        lines.append(f"xy: ({', '.join(c.as_json() for c in xy.coords())})")
    else:
        lines.append("uvw: n/a (generator masses are not (1, 1))")
    lines.append(f"length: {ell.as_json()}")
    lines.append(f"coarse_length: {ell_prime}")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    mode = Mode(args.arith)
    point = XYPoint(
        _parse_scalar(args.x, mode, "x coordinate"),
        _parse_scalar(args.y, mode, "y coordinate"),
    )
    verdict = membership(point, _policy(mode, args.eps))
    if args.format == "json":
        payload = {
            "x": point.x.as_json(),
            "y": point.y.as_json(),
            "status": verdict.status.value,
            "failed_condition": verdict.failed_condition,
            "boundary_equality": verdict.boundary_equality,
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [f"status: {verdict.status.value}"]
        if verdict.failed_condition:
            tie = " (exact equality)" if verdict.boundary_equality else ""
            lines.append(f"failed_condition: {verdict.failed_condition}{tie}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if verdict.is_member() else EXIT_DOMAIN


def _cmd_plot(args: argparse.Namespace) -> int:
    out = args.out or ("region.csv" if args.format == "csv" else "region.svg")
    with _writing(out):
        summary = render_region(
            out,
            format=args.format,
            count=args.count,
            resolution=args.resolution,
            eps=_policy(Mode.FLOAT, args.eps).eps.value,
        )
    print(f"wrote {summary.format} to {summary.path}")
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    cfg = SearchConfig(master_seed=args.seed)
    values = [_parse_scalar(v, Mode.FLOAT, "coordinate").value for v in args.values]
    if args.objective == "xy":
        if len(values) != 2:
            raise _UsageError("planar profile takes: profile X Y K_MAX")
        target = XYPoint.of_floats(values[0], values[1])
        rows = coarse_length_profile(target, args.k_max, cfg)
    else:
        if len(values) != 3:
            raise _UsageError("uvw profile takes: profile --objective uvw U V W K_MAX")
        target = UVWPoint(*(Scalar.of_float(v) for v in values))
        rows = coarse_length_profile_uvw(target, args.k_max, cfg)
    if not all(math.isfinite(row.distance) for row in rows):
        raise _UsageError(
            f"target {values} is too large: its distance overflows float arithmetic"
        )
    if args.format == "json":
        payload = {
            "objective": args.objective,
            "target": values,
            "note": (
                "distances are optimizer upper bounds; the planar objective "
                "lower-bounds full-element difficulty"
            ),
            "rows": [
                {
                    "k": row.k,
                    "distance": row.distance,
                    "pattern": row.pattern,
                    "t_vector": list(row.t_values),
                    "converged": row.converged,
                }
                for row in rows
            ],
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, profile_to_csv(rows).rstrip("\n"))
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    mode = Mode.FLOAT
    cfg = SearchConfig(
        master_seed=args.seed,
        synthesis_tolerance=args.tol,
        max_synthesis_steps=args.pattern_cap,
    )
    target = XYPoint(
        _parse_scalar(args.x, mode, "x coordinate"),
        _parse_scalar(args.y, mode, "y coordinate"),
    )
    try:
        result = synthesize_word(target, cfg)
    except SynthesisDomainError as exc:
        print(f"not synthesized: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    word_text = None
    if result.word is not None:
        word_text = format_word(normalize(sigma_to_rword(result.word)))
    if args.format == "json":
        payload = {
            "success": result.success,
            "stage": result.stage,
            "residual": result.residual,
            "message": result.message,
            "word_text": word_text,
            "word": word_to_json(sigma_to_rword(result.word)) if result.word else None,
            "sequence": {
                "seed": result.sequence.seed.value,
                "steps": [
                    [kind.value, t.as_json()] for kind, t in result.sequence.steps
                ],
            }
            if result.sequence
            else None,
            "achieved": [c.as_json() for c in result.achieved.coords()]
            if result.achieved
            else None,
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        if result.success:
            lines = [
                f"word: {word_text}",
                f"residual: {result.residual!r}",
                f"stage: {result.stage}",
            ]
        else:
            lines = [f"not synthesized: {result.message}"]
        _emit(args, "\n".join(lines))
    return EXIT_OK if result.success else EXIT_DOMAIN


def _cmd_verify(args: argparse.Namespace) -> int:
    mode = Mode(args.arith)
    result = run_suite(args.suite, mode=mode, trials=args.trials, seed=args.seed)
    if args.format == "json":
        payload = {
            "suite": result.suite,
            "mode": result.mode.value,
            "trials": result.trials,
            "passed": result.passed,
            "seconds": round(result.seconds, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in result.checks
            ],
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [
            f"suite {result.suite} ({result.mode.value} mode, "
            f"{result.trials} trials, {result.seconds:.1f}s)"
        ]
        for check in result.checks:
            flag = "PASS" if check.passed else "FAIL"
            lines.append(f"[{flag}] {check.name}: {check.detail}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if result.passed else EXIT_TOLERANCE


# Each subcommand declares only the flags its handler reads, so argparse
# rejects any other flag with exit 2.
_FLAGS = {
    "--arith": dict(
        choices=("exact", "float"), default="float",
        help="scalar arithmetic mode (default float)",
    ),
    "--eps": dict(
        type=float, default=0.0,
        help="strictness margin for region conditions (float mode only)",
    ),
    "--tol": dict(
        type=_positive_float, default=1e-9,
        help="synthesis residual tolerance (default 1e-9)",
    ),
    # SearchConfig.master_seed seeds numpy's start vectors, which take no
    # negative seed; `verify` declares its own --seed.
    "--seed": dict(
        type=_int_between(0), default=1729,
        help="master seed of the search's start vectors (default 1729)",
    ),
    "--pattern-cap": dict(
        type=_int_between(1), default=12,
        help="synthesis step budget: longest map sequence synth tries (default 12)",
    ),
}


def _add_command(sub, name: str, func, summary: str, flags, formats) -> argparse.ArgumentParser:
    """A subcommand taking `flags`, `--format` (default formats[0]) and `--out`."""
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument(
        "--format", choices=formats, default=formats[0],
        help=f"output format (default {formats[0]})",
    )
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=func)
    return p


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads every argument starting with '-' and a
    digit, or '-.' and a digit, as a number rather than a flag.

    argparse's own rule knows only plain decimals such as -0.5, so -1/3 and
    -1e-3 read as unknown flags.  No flag of this CLI starts with a digit.
    Subcommand parsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilwords",
        description=(
            "Word calculus in the free 3-step nilpotent group on two "
            "generators: evaluation, region membership, reachability "
            "profiles, and word synthesis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    text_or_json = ("text", "json")

    p = _add_command(
        sub, "eval", _cmd_eval,
        "evaluate a word and report element, (u,v,w), (x,y), lengths",
        ("--arith",), text_or_json,
    )
    p.add_argument("word", help="word text, e.g. 'X^0.5 Y^1 X^0.5'")

    p = _add_command(
        sub, "member", _cmd_member,
        "classify a planar point against the region inequalities",
        ("--arith", "--eps"), text_or_json,
    )
    p.add_argument("x")
    p.add_argument("y")

    p = _add_command(
        sub, "plot", _cmd_plot,
        "render the region as SVG, or its boundary curves as CSV",
        ("--eps",), ("svg", "csv"),
    )
    # The upper bounds keep a plot to a few seconds and a few hundred MB: at
    # resolution 4096 the process peaks near 380 MB.
    p.add_argument(
        "--count", type=_int_between(2, 65536), default=512,
        help="samples per boundary curve, 2 to 65536",
    )
    p.add_argument(
        "--resolution", type=_int_between(1, 4096), default=512,
        help="shading grid resolution, 1 to 4096",
    )

    p = _add_command(
        sub, "profile", _cmd_profile,
        "distance to a target versus the step budget k",
        ("--seed",), ("csv", "json"),
    )
    p.add_argument(
        "values", nargs="+",
        help="target coordinates: X Y (planar) or U V W (with --objective uvw)",
    )
    p.add_argument("k_max", type=int, help="largest step budget")
    p.add_argument(
        "--objective", choices=("xy", "uvw"), default="xy",
        help="score sequences in the plane or against full (u,v,w)",
    )

    p = _add_command(
        sub, "synth", _cmd_synth,
        "construct a word whose planar image is the target",
        ("--seed", "--tol", "--pattern-cap"), text_or_json,
    )
    p.add_argument("x")
    p.add_argument("y")

    p = _add_command(
        sub, "verify", _cmd_verify, "run a named verification suite",
        ("--arith",), text_or_json,
    )
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument(
        "--seed", type=int, default=1729,
        help="seed of the suite's random trials, any integer (default 1729)",
    )
    p.add_argument(
        "--trials", type=_int_between(1), default=None,
        help="override the suite's default trial count",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WordParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
