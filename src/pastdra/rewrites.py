"""Strength rewrites on past operators and fixpoint eliminations.

``rewrite_under(f, C)`` rebuilds a formula bottom-up, replacing every
temporal root by its weak variant when the original node belongs to ``C``
and by its strong variant otherwise; only the past operators Y/S/B actually
change, everything else is its own weak and strong variant.  Membership is
tested against the node of the tree being rewritten, not against the
already-rewritten children.
"""

from __future__ import annotations

from itertools import combinations

from . import formula as F

_WEAK_OF = {F.YESTERDAY: F.WYESTERDAY, F.SINCE: F.WSINCE, F.BACK: F.WBACK}
_STRONG_OF = {v: k for k, v in _WEAK_OF.items()}


def weaken(f):
    """The weak variant of the root operator (identity off Y/S/B)."""
    k = _WEAK_OF.get(f.kind)
    if k is None:
        return f
    return F.make(k, f.left, f.right)


def strengthen(f):
    """The strong variant of the root operator (identity off wY/wS/wB)."""
    k = _STRONG_OF.get(f.kind)
    if k is None:
        return f
    return F.make(k, f.left, f.right)


def is_weak(f):
    """True when the root equals its own weakening."""
    return f.kind not in _WEAK_OF


_rw_memo: dict = {}


def rewrite_under(f, C):
    """Rewrite ``f`` under the past set ``C`` (written f|_C in docstrings)."""
    C = frozenset(C)
    key = (f, C)
    out = _rw_memo.get(key)
    if out is not None:
        return out
    if f.is_leaf:
        out = f
    else:
        l = rewrite_under(f.left, C) if f.left is not None else None
        r = rewrite_under(f.right, C) if f.right is not None else None
        rebuilt = F.make(f.kind, l, r)
        out = weaken(rebuilt) if f in C else strengthen(rebuilt)
    _rw_memo[key] = out
    return out


def rewrite_set(S, C):
    """Elementwise ``rewrite_under`` of a set of formulas."""
    return frozenset(rewrite_under(s, C) for s in S)


def wc(f):
    """The weakening condition of a past-rooted formula."""
    if f.kind in (F.YESTERDAY, F.WYESTERDAY):
        return f.left
    if f.kind == F.SINCE:
        return f.right
    if f.kind == F.WSINCE:
        return F.disj(f.left, f.right)
    if f.kind == F.BACK:
        return F.conj(f.left, f.right)
    if f.kind == F.WBACK:
        return f.right
    raise ValueError("wc is only defined on past-rooted formulas: %s" % f)


def enumerate_past_sets(f):
    """All subsets of psf(f), the all-weak subset first.

    The remaining subsets come in (cardinality, interning-order-lex) order,
    so the enumeration is deterministic and the first entry is always the
    canonical initial set.
    """
    ps = F.sorted_set(F.psf(f))
    all_weak = frozenset(p for p in ps if is_weak(p))
    out = [all_weak]
    for r in range(len(ps) + 1):
        for combo in combinations(ps, r):
            s = frozenset(combo)
            if s != all_weak:
                out.append(s)
    return out


def is_saturated(cj, ci, f):
    """Whether ``ci`` is saturated with respect to ``cj`` over psf(f).

    Saturation means the rewrite under ``ci`` cannot distinguish more
    past subformulas than the rewrite under ``cj`` already merges.
    """
    ps = F.sorted_set(F.psf(f))
    for a, b in combinations(ps, 2):
        if rewrite_under(a, cj) is rewrite_under(b, cj) and \
                rewrite_under(a, ci) is not rewrite_under(b, ci):
            return False
    return True


def compose_sequence(f, sets):
    """Composition of a sequence of past sets into a single set.

    A past subformula belongs to the composition iff chaining the rewrites
    of the sequence leaves it weak-rooted, so rewriting under the result
    equals the chained rewrite on every member of psf(f).
    """
    out = set()
    for p in F.psf(f):
        cur = p
        for c in sets:
            cur = rewrite_under(cur, c)
        if is_weak(cur):
            out.add(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Fixpoint eliminations used by the stability argument.

def rewrite_mu_limit(f, M):
    """Downgrade least-fixpoint future roots: members of ``M`` become weak
    (U -> W, M -> R), non-members collapse to ff.  Everything else recurses.
    """
    if f.is_leaf:
        return f
    l = rewrite_mu_limit(f.left, M) if f.left is not None else None
    r = rewrite_mu_limit(f.right, M) if f.right is not None else None
    if f.kind == F.UNTIL:
        return F.wuntil(l, r) if f in M else F.false()
    if f.kind == F.SRELEASE:
        return F.release(l, r) if f in M else F.false()
    return F.make(f.kind, l, r)


def rewrite_nu_limit(f, N):
    """Resolve greatest-fixpoint future roots: members of ``N`` become tt,
    non-members become strong (W -> U, R -> M).  Everything else recurses.
    """
    if f.is_leaf:
        return f
    if f.kind in (F.WUNTIL, F.RELEASE) and f in N:
        return F.true()
    l = rewrite_nu_limit(f.left, N) if f.left is not None else None
    r = rewrite_nu_limit(f.right, N) if f.right is not None else None
    if f.kind == F.WUNTIL:
        return F.until(l, r)
    if f.kind == F.RELEASE:
        return F.srelease(l, r)
    return F.make(f.kind, l, r)
