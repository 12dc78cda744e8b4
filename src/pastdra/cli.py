"""Command line front end.

Exit codes: 0 success; 1 a usage error, malformed formula, word,
proposition name or HOA input, negative position, or a formula nested too
deeply; 2 state cap exceeded or out of memory; 3 automaton/semantics
disagreement (``check``, ``explain``) or a failed suite (``selftest``).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import formula as F
from . import lasso
from .after import af_ext
from .automata import StateLimitExceeded, accepts, degeneralize
from .gen import random_formula_bounded, random_lasso
from .hoa import export_dot, export_hoa, parse_hoa
from .stability import check_master
from .translate import (DEFAULT_MAX_STATES, explain, translate,
                        translation_stats)

EXIT_PARSE = 1
EXIT_LIMIT = 2


def _load_target(arg):
    """A formula, or an automaton as HOA text or a file that holds it; any
    other argument, even a file's name, is parsed as a formula."""
    text = arg
    if os.path.isfile(arg):
        with open(arg, errors="replace") as fh:
            text = fh.read()
    if "HOA:" in text:
        return parse_hoa(text)
    return F.parse(arg)


def cmd_translate(args):
    phi = F.parse(args.formula)
    ap = [name.strip() for name in args.ap.split(",")] if args.ap else None
    auto = translate(phi, ap, args.max_states)
    if args.acceptance == "rabin":
        auto = degeneralize(auto, args.max_states)
    if args.format == "dot":
        sys.stdout.write(export_dot(auto))
    else:
        # the text as given: ``str(phi)`` prints shared subformulas
        # once per occurrence
        sys.stdout.write(export_hoa(auto, name=args.formula))
    if args.stats:
        stats = translation_stats(phi, auto)
        sys.stderr.write(
            "states=%(states)d pairs=%(pairs)d past_sets=%(past_sets)d "
            "ap=%(ap)d n=%(n)d m=%(m)d\n" % stats)
    return 0


def cmd_eval(args):
    phi = F.parse(args.formula)
    word = lasso.parse_word(args.word)
    print("true" if lasso.holds(phi, word, args.position) else "false")
    return 0


def _verdict(verdict, truth):
    """Print ``check``'s two verdict lines; the exit code."""
    print("accepts" if verdict else "rejects")
    print("semantics agree" if verdict == truth else "semantics DISAGREE")
    return 0 if verdict == truth else 3


def cmd_check(args):
    target = _load_target(args.target)
    word = lasso.parse_word(args.word)
    if isinstance(target, F.Formula):
        # ``accepts`` ignores the word's other names, which need not parse
        auto = translate(target, max_states=args.max_states)
        return _verdict(accepts(auto, word), lasso.holds(target, word, 0))
    print("accepts" if accepts(target, word) else "rejects")
    return 0


def cmd_explain(args):
    phi = F.parse(args.formula)
    word = lasso.parse_word(args.word)
    lines, verdict = explain(phi, word)
    print("\n".join(lines))
    return _verdict(verdict, lasso.holds(phi, word, 0))


def _derivative_case(rng):
    phi = random_formula_bounded(rng, ("p", "q"))
    w = random_lasso(rng, ("p", "q"))
    t = rng.randint(0, 6)
    chi = af_ext(phi, [w.letter(i) for i in range(t)])
    return [lasso.holds(chi, w.suffix(t), 0) == lasso.holds(phi, w, 0)]


def _oracle_case(rng):
    phi = random_formula_bounded(rng, ("p", "q", "r"), max_size=8, max_past=3)
    w = random_lasso(rng, ("p", "q", "r"))
    t = rng.randint(0, 5)
    return [lasso.holds(phi, w, t) == lasso.naive_holds(phi, w, t)]


def _master_case(rng):
    phi = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
    w = random_lasso(rng, ("p", "q"))
    return [check_master(phi, w).consistent]


def _endtoend_case(rng):
    phi = random_formula_bounded(rng, ("p", "q"), max_size=4, max_past=1,
                                 depth=2)
    auto = translate(phi, ("p", "q"))
    rabin = degeneralize(auto)
    words = [random_lasso(rng, ("p", "q")) for _ in range(5)]
    return [accepts(auto, w) == lasso.holds(phi, w, 0) == accepts(rabin, w)
            for w in words]


# one seeded case of each suite, returning its verdicts: ``cmd_selftest``
# runs ``--count`` cases and tallies them
_SUITES = {
    "derivative": _derivative_case,
    "oracle": _oracle_case,
    "master": _master_case,
    "endtoend": _endtoend_case,
}


def cmd_selftest(args):
    rng = random.Random(args.seed)
    suites = [args.suite] if args.suite != "all" else list(_SUITES)
    failed = False
    for name in suites:
        verdicts = [ok for _ in range(args.count) for ok in _SUITES[name](rng)]
        print("%s: %d/%d pass (seed %d)"
              % (name, sum(verdicts), len(verdicts), args.seed))
        failed |= not all(verdicts)
    return 3 if failed else 0


def _positive_int(text):
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors say how to pass an argument that starts with ``-``, as
    the formula ``->p`` does: argparse reads it as an unknown option."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if any(a.startswith("-") and a != "--" and not a[1:].isdigit()
               and a.split("=")[0] not in self._option_string_actions
               for a in self._argv):
            message += ("; put '--' before a formula or word that starts "
                        "with '-', as in: pastdra translate -- '->p'")
        super().error(message)


def build_parser():
    p = _Parser(
        prog="pastdra",
        description="Translate temporal formulas with past to deterministic "
                    "generalized Rabin or Rabin automata, evaluate them over "
                    "lasso words, and cross-check the two.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("translate", help="formula -> automaton")
    t.add_argument("formula")
    t.add_argument("--format", choices=("hoa", "dot"), default="hoa")
    t.add_argument("--acceptance", choices=("generalized", "rabin"),
                   default="generalized",
                   help="generalized Rabin (one meet set per recurrence "
                        "runner) or plain Rabin (one per pair, counters "
                        "added by degeneralization)")
    t.add_argument("--stats", action="store_true",
                   help="print size statistics to stderr")
    t.add_argument("--max-states", type=_positive_int,
                   default=DEFAULT_MAX_STATES)
    t.add_argument("--ap", help="comma-separated extra proposition names")
    t.set_defaults(fn=cmd_translate)

    e = sub.add_parser("eval", help="formula truth value on a lasso word")
    e.add_argument("formula")
    e.add_argument("word", help="e.g. '{p},{} ; {p,q}'")
    e.add_argument("position", type=int, nargs="?", default=0)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("check",
                       help="run a word through a formula's automaton "
                            "(or a HOA file) and report acceptance")
    c.add_argument("target", help="formula, HOA text, or path to a HOA file")
    c.add_argument("word")
    c.add_argument("--max-states", type=_positive_int,
                   default=DEFAULT_MAX_STATES)
    c.set_defaults(fn=cmd_check)

    x = sub.add_parser("explain", help="a formula's run on a lasso word, "
                                        "letter by letter")
    x.add_argument("formula")
    x.add_argument("word")
    x.set_defaults(fn=cmd_explain)

    s = sub.add_parser("selftest", help="seeded randomized consistency suites")
    s.add_argument("suite", choices=tuple(_SUITES) + ("all",),
                   nargs="?", default="all")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=_positive_int, default=50)
    s.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the state cap's code here
        return EXIT_PARSE if exc.code == 2 else exc.code
    try:
        return args.fn(args)
    except (F.ParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except StateLimitExceeded as exc:
        print("error: state cap %s exceeded" % exc, file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
