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


_rw_memo = F.memo()


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
        return F.make(F.OR, f.left, f.right)
    if f.kind == F.BACK:
        return F.make(F.AND, f.left, f.right)
    if f.kind == F.WBACK:
        return f.right
    raise ValueError("wc is only defined on past-rooted formulas: %s" % f)


def subsets(items):
    """Every subset of ``items`` as a tuple: by size, then lexicographic."""
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def enumerate_past_sets(f):
    """All subsets of psf(f), the all-weak subset first.

    The remaining subsets follow in :func:`subsets` order over the interning
    order, so the enumeration is deterministic and the first entry is always
    the canonical initial set.
    """
    ps = F.sorted_set(F.psf(f))
    all_weak = frozenset(p for p in ps if is_weak(p))
    return [all_weak] + [s for s in map(frozenset, subsets(ps))
                         if s != all_weak]


def is_saturated(cj, ci, f):
    """Whether ``ci`` is saturated with respect to ``cj`` over psf(f): the
    rewrite under ``ci`` is a function of the rewrite under ``cj``, so it
    merges every two past subformulas that the rewrite under ``cj`` merges.
    """
    ps = F.sorted_set(F.psf(f))
    rj = [rewrite_under(p, cj) for p in ps]
    ri = [rewrite_under(p, ci) for p in ps]
    return len(set(zip(rj, ri))) == len(set(rj))


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

_LIMIT_WEAK_OF = {F.UNTIL: F.WUNTIL, F.SRELEASE: F.RELEASE}
_LIMIT_STRONG_OF = {v: k for k, v in _LIMIT_WEAK_OF.items()}
_mu_limit_memo = F.memo()
_nu_limit_memo = F.memo()


def rewrite_mu_limit(f, M):
    """Downgrade least-fixpoint future roots: members of ``M`` become weak
    (U -> W, M -> R), non-members collapse to ff.  Everything else recurses.
    """
    M = frozenset(M)
    out = _mu_limit_memo.get((f, M))
    if out is None:
        if f.is_leaf:
            out = f
        else:
            l = rewrite_mu_limit(f.left, M) if f.left is not None else None
            r = rewrite_mu_limit(f.right, M) if f.right is not None else None
            if f.kind in _LIMIT_WEAK_OF and f not in M:
                out = F.make(F.FALSE)
            else:
                out = F.make(_LIMIT_WEAK_OF.get(f.kind, f.kind), l, r)
        _mu_limit_memo[f, M] = out
    return out


def rewrite_nu_limit(f, N):
    """Resolve greatest-fixpoint future roots: members of ``N`` become tt,
    non-members become strong (W -> U, R -> M).  Everything else recurses.
    """
    N = frozenset(N)
    out = _nu_limit_memo.get((f, N))
    if out is None:
        if f.is_leaf:
            out = f
        elif f.kind in _LIMIT_STRONG_OF and f in N:
            out = F.make(F.TRUE)
        else:
            l = rewrite_nu_limit(f.left, N) if f.left is not None else None
            r = rewrite_nu_limit(f.right, N) if f.right is not None else None
            out = F.make(_LIMIT_STRONG_OF.get(f.kind, f.kind), l, r)
        _nu_limit_memo[f, N] = out
    return out
