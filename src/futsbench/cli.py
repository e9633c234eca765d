"""Command-line front door.

    futsbench check FILE            parse + guardedness, exit 0/2
    futsbench build FILE            explore and export (JSON or DOT)
    futsbench bisim FILE --left T --right T
                                    verdict + witness, exit 0/1
    futsbench minimize FILE         quotient by bisimilarity, JSON
    futsbench compare FILE          cross-validate both semantic routes,
                                    exit 0/1

Exit codes: 0 success (bisim: bisimilar; compare: every check passed),
1 bisim verdict "not bisimilar" or a failed compare check, 2 any
parse/guardedness/exploration error (one-line diagnostic on stderr).

``bisim`` first compares the two terms' one-step totals, relation by
relation and label by label; a difference is a "not bisimilar" verdict
with nothing explored.  Otherwise it explores the closure of the two terms
alone (``--max-states`` bounds that closure, and ``init`` is not explored)
and refines it.  A witness names a class by the readable text of its
least member, or as ``all states`` when the one-step totals differ.
"""

import argparse
import functools
import sys
from typing import Optional, Sequence

from .bisim import distinguish, minimize, one_step_witness, refine
from .crosscheck import run_checks
from .errors import FutsError
from .explore import DEFAULT_MAX_STATES, explore, to_dot, to_json
from .syntax import LANGUAGES, load_model, parse_term
# unused here, but bench/tracing.py wraps cli.check_guarded and cli.term_key (ROADMAP item 3)
from .syntax import check_guarded, term_key  # noqa: F401


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="model file (one definition per line, one init)")
    sub.add_argument(
        "--lang",
        choices=LANGUAGES,
        help="language override (default: inferred from the file extension)",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_max_states(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-states",
        type=_positive_int,
        default=DEFAULT_MAX_STATES,
        metavar="N",
        help=f"exploration bound (default {DEFAULT_MAX_STATES})",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one (and so by every :func:`main` call in the process): callers must
    not modify it."""
    parser = argparse.ArgumentParser(
        prog="futsbench",
        description="Weight-function transition systems for four process calculi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse the model and verify guardedness")
    _add_common(p)

    p = sub.add_parser("build", help="explore the state space and export it")
    _add_common(p)
    _add_max_states(p)
    p.add_argument(
        "--format", choices=("json", "dot"), default="json", help="output format"
    )
    p.add_argument("-o", "--output", metavar="OUT", help="write here instead of stdout")

    p = sub.add_parser("bisim", help="decide bisimilarity of two terms")
    _add_common(p)
    _add_max_states(p)
    p.add_argument("--left", required=True, metavar="TERM", help="first term")
    p.add_argument("--right", required=True, metavar="TERM", help="second term")

    p = sub.add_parser("minimize", help="quotient the model by bisimilarity")
    _add_common(p)
    _add_max_states(p)
    p.add_argument("-o", "--output", metavar="OUT", help="write here instead of stdout")

    p = sub.add_parser("compare", help="cross-validate the two semantic routes")
    _add_common(p)
    _add_max_states(p)

    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _run(args) -> int:
    model = load_model(args.file, args.lang)
    if args.command == "check":
        print(f"ok: {len(model.defs)} definitions, language {model.lang}, guarded")
        return 0

    if args.command == "bisim":
        left = parse_term(args.left, model)
        right = parse_term(args.right, model)
        witness = one_step_witness(model, left, right)
        if witness is None:
            fm = explore(model, max_states=args.max_states, roots=(left, right))
            # the roots are the first states, and equal terms are one state
            witness = distinguish(fm, 0, 0 if left == right else 1)
        if witness is None:
            print("BISIMILAR")
            return 0
        print("NOT BISIMILAR")
        print(
            f"witness: relation {witness.relation}, label {witness.label}, "
            f"{witness.subject}: left total {witness.left}, "
            f"right total {witness.right}"
        )
        return 1

    # build, minimize and compare explore what init reaches
    fm = explore(model, max_states=args.max_states)
    if args.command == "build":
        _emit(to_json(fm) if args.format == "json" else to_dot(fm), args.output)
        return 0

    if args.command == "minimize":
        _emit(to_json(minimize(fm, refine(fm))), args.output)
        return 0

    results = run_checks(fm)  # compare
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (FutsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
