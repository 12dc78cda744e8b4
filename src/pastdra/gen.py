"""Seeded random formulas and lasso words for self-tests and fuzzing."""

from __future__ import annotations

from . import formula as F
from .lasso import LassoWord


def random_letter(rng, ap):
    return frozenset(p for p in ap if rng.random() < 0.5)


def random_lasso(rng, ap, max_prefix=3, max_cycle=3):
    u = tuple(random_letter(rng, ap) for _ in range(rng.randint(0, max_prefix)))
    v = tuple(random_letter(rng, ap) for _ in range(rng.randint(1, max_cycle)))
    return LassoWord(u, v)


_UNARY = (F.NEXT, F.YESTERDAY, F.WYESTERDAY)
_BINARY = (F.AND, F.OR, F.UNTIL, F.WUNTIL, F.RELEASE, F.SRELEASE,
           F.SINCE, F.WSINCE, F.BACK, F.WBACK)


def random_formula(rng, ap, depth=3):
    """A random NNF formula with syntax-tree depth at most ``depth``."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.05:
            return F.make(F.TRUE)
        if r < 0.1:
            return F.make(F.FALSE)
        name = rng.choice(ap)
        return F.make(F.PROP if rng.random() < 0.6 else F.NPROP, name=name)
    if rng.random() < 0.35:
        return F.make(rng.choice(_UNARY), random_formula(rng, ap, depth - 1))
    return F.make(rng.choice(_BINARY), random_formula(rng, ap, depth - 1),
                  random_formula(rng, ap, depth - 1))


def random_formula_bounded(rng, ap, max_size=6, max_past=2, depth=3):
    """Retry :func:`random_formula` until the size budget is met."""
    for _ in range(500):
        f = random_formula(rng, ap, depth)
        n, m = F.size(f)
        if n + m <= max_size and len(F.psf(f)) <= max_past:
            return f
    return F.make(F.PROP, name=ap[0])
