"""Command line front end.

Exit codes: 0 success; 1 malformed formula, word or HOA input, negative
position, or a formula nested too deeply; 2 state cap exceeded or out of
memory; 3 automaton/semantics disagreement (``check``) or a failed suite
(``selftest``).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import formula as F
from . import lasso
from .after import af_ext
from .automata import StateLimitExceeded, accepts
from .gen import random_formula_bounded, random_lasso
from .hoa import export_dot, export_hoa, parse_hoa
from .stability import check_master
from .translate import DEFAULT_MAX_STATES, translate, translation_stats

EXIT_PARSE = 1
EXIT_LIMIT = 2


def _load_target(text):
    """A formula, or an automaton given as HOA text or a path to it."""
    if os.path.isfile(text):
        with open(text) as fh:
            text = fh.read()
    if "HOA:" in text:
        return parse_hoa(text)
    return F.parse(text)


def cmd_translate(args):
    phi = F.parse(args.formula)
    ap = args.ap.split(",") if args.ap else None
    auto = translate(phi, ap, args.max_states)
    if args.format == "dot":
        sys.stdout.write(export_dot(auto))
    else:
        sys.stdout.write(export_hoa(auto, name=str(phi)))
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


def cmd_check(args):
    target = _load_target(args.target)
    word = lasso.parse_word(args.word)
    if isinstance(target, F.Formula):
        auto = translate(target, sorted(set(F.props(target)) | word.props()),
                         args.max_states)
        verdict = accepts(auto, word)
        truth = lasso.holds(target, word, 0)
        print("accepts" if verdict else "rejects")
        print("semantics agree" if verdict == truth else "semantics DISAGREE")
        return 0 if verdict == truth else 3
    print("accepts" if accepts(target, word) else "rejects")
    return 0


def _selftest_derivative(rng, count):
    ok = 0
    for _ in range(count):
        phi = random_formula_bounded(rng, ("p", "q"))
        w = random_lasso(rng, ("p", "q"))
        t = rng.randint(0, 6)
        chi = af_ext(phi, [w.letter(i) for i in range(t)])
        ok += int(lasso.holds(chi, w.suffix(t), 0) == lasso.holds(phi, w, 0))
    return ok


def _selftest_oracle(rng, count):
    ok = 0
    for _ in range(count):
        phi = random_formula_bounded(rng, ("p", "q", "r"), max_size=8,
                                     max_past=3)
        w = random_lasso(rng, ("p", "q", "r"))
        t = rng.randint(0, 5)
        ok += int(lasso.holds(phi, w, t) == lasso.naive_holds(phi, w, t))
    return ok


def _selftest_master(rng, count):
    ok = 0
    for _ in range(count):
        phi = random_formula_bounded(rng, ("p", "q"), max_size=5, max_past=2)
        w = random_lasso(rng, ("p", "q"))
        ok += int(check_master(phi, w).consistent)
    return ok


def _selftest_endtoend(rng, count):
    ok = 0
    for _ in range(count):
        phi = random_formula_bounded(rng, ("p", "q"), max_size=4, max_past=1,
                                     depth=2)
        auto = translate(phi, ("p", "q"))
        for _ in range(5):
            w = random_lasso(rng, ("p", "q"))
            ok += int(accepts(auto, w) == lasso.holds(phi, w, 0))
    return ok


_SUITES = {
    "derivative": (_selftest_derivative, 1),
    "oracle": (_selftest_oracle, 1),
    "master": (_selftest_master, 1),
    "endtoend": (_selftest_endtoend, 5),
}


def cmd_selftest(args):
    rng = random.Random(args.seed)
    suites = [args.suite] if args.suite != "all" else list(_SUITES)
    failed = False
    for name in suites:
        fn, per_case = _SUITES[name]
        ok = fn(rng, args.count)
        total = args.count * per_case
        print("%s: %d/%d pass (seed %d)" % (name, ok, total, args.seed))
        failed |= ok != total
    return 3 if failed else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="pastdra",
        description="Translate temporal formulas with past to deterministic "
                    "Rabin automata, evaluate them over lasso words, and "
                    "cross-check the two.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("translate", help="formula -> automaton")
    t.add_argument("formula")
    t.add_argument("--format", choices=("hoa", "dot"), default="hoa")
    t.add_argument("--stats", action="store_true",
                   help="print size statistics to stderr")
    t.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    t.add_argument("--ap", help="comma-separated extra propositions")
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
    c.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("selftest", help="seeded randomized consistency suites")
    s.add_argument("suite", choices=tuple(_SUITES) + ("all",),
                   nargs="?", default="all")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=50)
    s.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
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
