"""Strength rewrites of the syntax tree: the past rewrite and the fixpoint
limits of the pure-future decomposition (Esparza, Křetínský and Sickert,
J. ACM 2020).

Each switches operators between the twins of ``formula.WEAK_OF`` in one
memoized bottom-up pass, :func:`_rebuild`.  ``rewrite_under(f, C)`` (f|_C)
makes a past root weak when the node is in ``C`` and strong otherwise;
``rewrite_mu_limit(f, M)`` makes U/M in ``M`` weak and the others ff;
``rewrite_nu_limit(f, N)`` makes W/R in ``N`` tt and the others strong.
Membership is tested against the node of the tree being rewritten, not
against the already-rewritten children; every other node keeps its kind.
"""

from __future__ import annotations

from itertools import combinations

from . import formula as F


def _rebuild(f, S, memo, root):
    """``f`` rebuilt bottom-up with each node ``g`` of kind ``root(g, S)``;
    tt or ff there replaces the whole subtree."""
    out = memo.get((f, S))
    if out is None:
        kind = root(f, S)
        if kind == F.TRUE or kind == F.FALSE:
            out = F.make(kind)
        else:
            # plain calls keep the pass at one frame per nesting level
            l, r = f.left, f.right
            out = F.make(kind,
                         None if l is None else _rebuild(l, S, memo, root),
                         None if r is None else _rebuild(r, S, memo, root),
                         f.name)
        memo[f, S] = out
    return out


def is_weak(f):
    """Whether the past-rooted ``f`` is weak-rooted (wY, wS or wB)."""
    return f.kind in F.STRONG_OF


_rw_memo = F.memo()
_mu_limit_memo = F.memo()
_nu_limit_memo = F.memo()


def _under_root(g, C):
    if not g.is_past:
        return g.kind
    return (F.WEAK_OF if g in C else F.STRONG_OF).get(g.kind, g.kind)


def _mu_root(g, M):
    if g.is_past or g.kind not in F.WEAK_OF:
        return g.kind
    return F.WEAK_OF[g.kind] if g in M else F.FALSE


def _nu_root(g, N):
    if g.is_past or g.kind not in F.STRONG_OF:
        return g.kind
    return F.TRUE if g in N else F.STRONG_OF[g.kind]


def rewrite_under(f, C):
    """Rewrite ``f`` under the past set ``C`` (written f|_C in docstrings)."""
    return _rebuild(f, frozenset(C), _rw_memo, _under_root)


def rewrite_mu_limit(f, M):
    """Downgrade least-fixpoint future roots: members of ``M`` become weak
    (U -> W, M -> R), non-members collapse to ff."""
    return _rebuild(f, frozenset(M), _mu_limit_memo, _mu_root)


def rewrite_nu_limit(f, N):
    """Resolve greatest-fixpoint future roots: members of ``N`` become tt,
    non-members become strong (W -> U, R -> M)."""
    return _rebuild(f, frozenset(N), _nu_limit_memo, _nu_root)


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

