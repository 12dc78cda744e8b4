"""Exhaustive small-scope sweep: every small formula on every short lasso.

Enumerates every NNF formula up to a size (counted in nodes) whose leaves
are ``p``, ``!p``, ``tt`` and ``ff`` for each proposition ``p``, with the
unary ``X``, ``Y`` and ``wY`` and the ten binary kinds ``&``, ``|``, ``U``,
``W``, ``R``, ``M``, ``S``, ``wS``, ``B`` and ``wB``; and every lasso
u v^omega with |u| <= 2 and 1 <= |v| <= 2.  Each formula is translated
with ``max_states=5000``.  The Moore quotient of its cascade product, over
its own propositions, must pass ``certificate.certify`` against that
product.  Its automaton is what ``translate`` returns, that quotient
widened to every proposition of the sweep.  On every lasso its automaton,
the automaton's degeneralization and ``holds`` must agree, and so must
``holds`` and ``naive_holds``.  With ``--complement`` the automaton of
``!f`` must also accept exactly the lassos that f's automaton rejects.
Formulas come by size and lassos by length, so the mismatch reported is a
smallest one.

    PYTHONPATH=src python tests/sweep.py --size 4 --ap p
    PYTHONPATH=src python tests/sweep.py --size 4 --ap p,q --complement

Exits 0 and prints the numbers of formulas and lassos when every check
holds; prints the first mismatch and exits 1 otherwise.
"""

import argparse
import sys
from itertools import product

from certificate import certify
from pastdra import formula as F
from pastdra.automata import accepts, degeneralize, minimize, widen
from pastdra.lasso import LassoWord, holds, naive_holds
from pastdra.translate import _product, translate

UNARY = (F.NEXT, F.YESTERDAY, F.WYESTERDAY)
BINARY = (F.AND, F.OR, F.UNTIL, F.WUNTIL, F.RELEASE, F.SRELEASE, F.SINCE,
          F.WSINCE, F.BACK, F.WBACK)
MAX_STATES = 5000


def formulas(max_size, ap):
    """Every formula of at most ``max_size`` nodes over ``ap``, by size."""
    by_size = [[], [F.make(k, name=p) for p in ap for k in (F.PROP, F.NPROP)]
               + [F.make(F.TRUE), F.make(F.FALSE)]]
    for n in range(2, max_size + 1):
        by_size.append([F.make(k, f) for k in UNARY for f in by_size[n - 1]]
                       + [F.make(k, l, r) for k in BINARY
                          for m in range(1, n - 1)
                          for l in by_size[m] for r in by_size[n - 1 - m]])
    return [f for fs in by_size for f in fs]


def lassos(ap, max_prefix=2, max_cycle=2):
    """Every lasso with |u| <= max_prefix and 1 <= |v| <= max_cycle over
    the letters of ``ap``, shortest first."""
    letters = [frozenset(p for p, bit in zip(ap, bits) if bit)
               for bits in product((0, 1), repeat=len(ap))]
    words = [LassoWord(u, v)
             for nu in range(max_prefix + 1) for nv in range(1, max_cycle + 1)
             for u in product(letters, repeat=nu)
             for v in product(letters, repeat=nv)]
    return sorted(words, key=lambda w: len(w.prefix) + len(w.period))


def mismatch(f, words, ap, complement=False):
    """The first word on which a check fails for ``f``, with the check's
    name, or None; the word is None when the certificate fails."""
    raw = _product(f, max_states=MAX_STATES)
    reduced = minimize(raw)
    try:
        certify(raw, reduced)
    except AssertionError as e:
        return None, "the certificate of minimize: %s" % (e,)
    auto = widen(reduced, ap)
    rabin = degeneralize(auto, max_states=MAX_STATES)
    neg = translate(F.parse("!(%s)" % f), ap, max_states=MAX_STATES) \
        if complement else None
    for w in words:
        verdict = holds(f, w, 0)
        if not accepts(auto, w) == verdict == accepts(rabin, w):
            return w, "accepts == holds == accepts(degeneralize)"
        if verdict != naive_holds(f, w, 0):
            return w, "holds == naive_holds"
        if neg is not None and accepts(neg, w) == verdict:
            return w, "the automaton of !f accepts what f's rejects"
    return None


def sweep(max_size, ap, complement=False):
    """Check every formula up to ``max_size`` on every short lasso; the
    numbers of formulas and lassos, or AssertionError naming the smallest
    formula and lasso where a check fails."""
    ap = tuple(sorted(ap))
    fs, words = formulas(max_size, ap), lassos(ap)
    for f in fs:
        found = mismatch(f, words, ap, complement)
        if found is not None:
            w, check = found
            where = "" if w is None else " on the lasso '%s'" % (w,)
            raise AssertionError("%s fails%s: %s" % (f, where, check))
    return len(fs), len(words)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=4)
    parser.add_argument("--ap", default="p", help="comma-separated names")
    parser.add_argument("--complement", action="store_true")
    args = parser.parse_args(argv)
    try:
        n, m = sweep(args.size, args.ap.split(","), args.complement)
    except AssertionError as e:
        print("mismatch: %s" % e)
        return 1
    print("%d formulas x %d lassos: no mismatch" % (n, m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
