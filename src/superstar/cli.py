"""Command-line front end.

Subcommands
-----------
``star EXPR``
    Parse an expression in the mini-language of :mod:`superstar.expr`,
    evaluate it under the deformation context given by ``--theta --m --n
    --signature``, and print the resulting superfunction as JSON.
``verify suite=NAME``
    Run one named verification suite (or ``all``) from
    :mod:`superstar.verify` and print its report; the bare name is accepted
    too.  A table of the verdicts, one line per suite and per check, and the
    seconds taken go to standard error.  Exit code 0 iff every check in the
    report passed.
``supertorus normalize WORD``
    Normal-order a word in the supertorus generators and print the ordered
    word plus the exact crossing phase (symbolic in pi and theta).
``gw verify``
    Measure the harmonic-superfield action, with one record per coefficient
    map.
``qgroup pentagon``
    The ``qgroup`` suite report for the context and sample count of the flags.

All machine output is JSON on standard output (``--json-out FILE`` writes the
same bytes to a file as well), and every verdict comes from
:mod:`superstar.verify`.  ``star`` and the ``eps``, ``star``, ``hilbert``,
``heisenberg`` and ``udf`` suites embed the normalization ledger of the
contexts they used; the other reports carry none.  Output is deterministic:
the same flags and seed produce byte-identical JSON.  Exit codes: 0 all
checks passed, 1 a check failed, 2 usage error (bad flags, malformed
expression or word, a ``--json-out`` path that cannot be written).

The default seed is 0, overridable by the ``SUPERSTAR_SEED`` environment
variable and the ``--seed`` flag (the flag wins), each an integer >= 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from .errors import DimensionError
from .expr import ExpressionError, _fmt_real, evaluate, parse, print_expression
from .qgroup import QGroupContext
from .starprod import DeformationContext
from .supertorus import parse_torus_tokens, torus_normal_form
from .verify import SUITE_NAMES, run_suite, verify_gw_maps, verify_qgroup

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a single-dash argument that is no option, such as ``-1e-3`` or
    the expression ``-x1``, as a value; argparse's own pattern takes only
    plain negative numbers.  ``-h`` is matched first, and no parser may add
    another single-dash option, or argparse reads all of them as options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r} (from --seed or $SUPERSTAR_SEED)")
    return int(text)


def _parse_signature(text: str | None, n: int) -> tuple[int, int] | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"signature must be 'p,q', got {text!r}")
    p, q = (int(s.strip()) for s in parts)
    if p < 0 or q < 0 or p + q != n:
        raise ValueError(f"signature {p},{q} incompatible with n={n}")
    return (p, q)


def _context_from_args(args: argparse.Namespace) -> DeformationContext:
    sig = _parse_signature(args.signature, args.n)
    return DeformationContext(args.theta, args.m, args.n, sig)


def _finite_or_null(node):
    """node with every NaN and infinity, which JSON cannot hold, as None."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {k: _finite_or_null(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_finite_or_null(v) for v in node]
    return node


def _emit(report: dict, json_out: str | None) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        # a failed check may carry a NaN deviation: write every non-finite
        # number as null; the walk would add ~2% to a large star output
        text = json.dumps(_finite_or_null(report), sort_keys=True, indent=2) + "\n"
    if json_out:
        try:  # first: a path that cannot be written leaves stdout empty
            with open(json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --json-out {json_out!r}: {exc.strerror}")
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_star(args: argparse.Namespace) -> int:
    ctx = _context_from_args(args)
    ast = parse(args.expression)
    # evaluate reports a subexpression that leaves the float range itself;
    # numpy's overflow warnings would only repeat it on stderr
    with np.errstate(all="ignore"):
        fun = evaluate(ast, ctx)
    words = []
    for w in sorted(fun.terms):
        indices = [k + 1 for k in range(fun.n) if w >> k & 1]
        words.append({
            "odd_indices": indices,
            "function": fun.terms[w].to_json_dict(),
        })
    report = {
        "command": "star",
        "expression": print_expression(ast),
        "context": ctx.header_json(),
        "ledger": ctx.ledger_json(),
        "result": words,
    }
    _emit(report, args.json_out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    name = args.suite
    if name.startswith("suite="):
        name = name[len("suite="):]
    if name not in SUITE_NAMES:
        print(f"superstar verify: unknown suite {name!r}; "
              f"available: {', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    report = run_suite(name, seed=args.seed, tol=args.tol, n=args.n)
    seconds = time.perf_counter() - start
    _emit(report, args.json_out)
    _print_table(report, seconds)
    return 0 if report["passed"] else 1


def _print_table(report: dict, seconds: float) -> None:
    """The verdict of every suite and check, one line each, on stderr."""
    for suite in report.get("suites", [report]):
        mark = "PASS" if suite["passed"] else "FAIL"
        print(f"{mark}  {suite['suite']:<11s} ({suite['cases']} cases)",
              file=sys.stderr)
        for c in suite["checks"]:
            dev = c["max_deviation"]
            dev = "null" if dev is None else f"{dev:9.3e}"
            print(f"      {'ok  ' if c['passed'] else 'FAIL'} {c['check']:<45s} "
                  f"max {dev:>9s}  tol {c['tolerance']:7.1e}", file=sys.stderr)
    print(f"{'PASS' if report['passed'] else 'FAIL'}: {report['cases']} cases "
          f"in {seconds:.1f}s", file=sys.stderr)


def _cmd_supertorus(args: argparse.Namespace) -> int:
    if args.theta is not None and not math.isfinite(args.theta):
        raise ValueError(f"theta must be finite, got {args.theta!r}")
    tokens, coeff = parse_torus_tokens(args.word)
    element = torus_normal_form(tokens, coeff=coeff)

    theta_txt = "theta" if args.theta is None else _fmt_real(args.theta)
    entries = []
    for word in sorted(element.words):
        scalar = element.words[word]
        terms = sorted(scalar.terms.items())
        entry: dict = {"word": element.word_text(word)}
        if len(terms) == 1:
            (theta_pow, phase_k), c = terms[0]
            entry["coefficient"] = [c.real, c.imag]
            entry["theta_power"] = theta_pow
            entry["phase"] = (f"exp({_fmt_real(2 * phase_k)}*pi*i*{theta_txt})"
                              if phase_k else "1")
        else:
            entry["scalar"] = str(scalar)
        entries.append(entry)

    report: dict = {
        "command": "supertorus normalize",
        "input": args.word,
        "normal_form": entries,
    }
    if len(entries) == 1:
        report["word"] = entries[0]["word"]
        if "phase" in entries[0]:
            report["phase"] = entries[0]["phase"]
    if args.theta is not None:
        report["theta"] = float(args.theta)
    _emit(report, args.json_out)
    return 0


def _cmd_gw(args: argparse.Namespace) -> int:
    report = {"command": "gw verify", **verify_gw_maps(tol=args.tol)}
    _emit(report, args.json_out)
    return 0 if report["passed"] else 1


def _cmd_qgroup(args: argparse.Namespace) -> int:
    qctx = QGroupContext(args.m, args.n,
                         _parse_signature(args.signature, args.n))
    report = verify_qgroup(tol=args.tol, seed=args.seed, qctx=qctx,
                           t_samples=args.t_samples)
    report = {"command": "qgroup pentagon", "t_samples": args.t_samples,
              "seed": args.seed, **report}
    _emit(report, args.json_out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superstar",
        description="Computer-algebra engine and verification suites for "
                    "star products on flat superspace.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seed: bool = True):
        p.add_argument("--json-out", metavar="FILE", default=None,
                       help="also write the JSON report to FILE")
        if seed:
            # argparse passes a string default through the type too
            p.add_argument("--seed", type=_seed,
                           default=os.environ.get("SUPERSTAR_SEED", "0"),
                           help="random seed (default: $SUPERSTAR_SEED or 0)")

    p_star = sub.add_parser("star", help="evaluate an expression")
    p_star.add_argument("expression")
    p_star.add_argument("--theta", type=float, default=1.0)
    p_star.add_argument("--m", type=int, default=1,
                        help="symplectic pairs (body dimension is 2m)")
    p_star.add_argument("--n", type=int, default=0, help="odd generators")
    p_star.add_argument("--signature", default=None, metavar="P,Q",
                        help="odd metric signature, e.g. 2,1 (default all plus)")
    common(p_star, seed=False)
    p_star.set_defaults(fn=_cmd_star)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite",
                          help=f"suite name or suite=<name>; one of "
                               f"{', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--tol", type=_tolerance, default=None,
                          help="override every check tolerance in the suite "
                               "(eps and torus check exact identities at 0)")
    p_verify.add_argument("--n", type=int, default=None,
                          help="subset universe size for the eps suite")
    common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_torus = sub.add_parser("supertorus",
                             help="supertorus word operations")
    p_torus.add_argument("action", choices=("normalize",))
    p_torus.add_argument("word")
    p_torus.add_argument("--theta", type=float, default=None,
                         help="numeric value substituted into the phase "
                              "string (default: keep symbolic)")
    common(p_torus, seed=False)
    p_torus.set_defaults(fn=_cmd_supertorus)

    p_gw = sub.add_parser("gw", help="harmonic-superfield action checks")
    p_gw.add_argument("action", choices=("verify",))
    p_gw.add_argument("--tol", type=_tolerance, default=None)
    common(p_gw, seed=False)
    p_gw.set_defaults(fn=_cmd_gw)

    p_qg = sub.add_parser("qgroup", help="quantum supergroup checks")
    p_qg.add_argument("action", choices=("pentagon",))
    p_qg.add_argument("--t-samples", type=int, default=5)
    p_qg.add_argument("--tol", type=_tolerance, default=None)
    p_qg.add_argument("--m", type=int, default=1)
    p_qg.add_argument("--n", type=int, default=2)
    p_qg.add_argument("--signature", default=None, metavar="P,Q")
    common(p_qg)
    p_qg.set_defaults(fn=_cmd_qgroup)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ExpressionError as exc:
        print(f"superstar: expression error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, ValueError) as exc:
        print(f"superstar: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
