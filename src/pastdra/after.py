"""Derivatives of formulas by letters, guided by a guessed past set.

``af_loc(f, sigma, C)`` is the local after-function: it consumes one letter
``sigma`` under the assumption that exactly the past subformulas in ``C``
currently hold in the weak sense.  For a fixed ``C`` it distributes over
``&`` and ``|``, and it reads only the past subformulas of its argument.
It returns the canonical function of the derivative (a ``proplogic``
diagram), built with ``conj``/``disj`` from the atom up, so no formula
tree of the result is made.

``af_class(b, sigma)`` is the transition function of the formula-state
automata built later.  It works on canonical functions too and removes the
assumption by guessing: for every subset ``C`` of the past subformulas of
``b``'s atoms, each atom is derived under ``C`` and the results are composed
on the diagram (``derive``); the disjunction over all guesses is the
derivative.  No formula representative of ``b`` is built on the way.
"""

from __future__ import annotations

from functools import reduce

from . import formula as F
from . import proplogic as P
from .rewrites import rewrite_under, subsets, wc

_afloc_memo = F.memo()


def af_loc(f, sigma, C):
    """Canonical one-letter derivative of ``f`` under past assumption ``C``."""
    return _af_loc(f, frozenset(sigma), frozenset(C))


def _af_loc(f, sigma, C):
    key = (f, sigma, C)
    out = _afloc_memo.get(key)
    if out is not None:
        return out
    k = f.kind
    if k == F.TRUE or k == F.WYESTERDAY:
        out = P.TRUE_B
    elif k == F.FALSE or k == F.YESTERDAY:
        out = P.FALSE_B
    elif k == F.PROP:
        out = P.TRUE_B if f.name in sigma else P.FALSE_B
    elif k == F.NPROP:
        out = P.FALSE_B if f.name in sigma else P.TRUE_B
    elif k == F.AND:
        out = P.conj(_af_loc(f.left, sigma, C), _af_loc(f.right, sigma, C))
    elif k == F.OR:
        out = P.disj(_af_loc(f.left, sigma, C), _af_loc(f.right, sigma, C))
    elif k == F.NEXT:
        out = pu_loc(f.left, sigma, C)
    elif k in (F.UNTIL, F.WUNTIL):
        out = P.disj(_af_loc(f.right, sigma, C),
                     P.conj(_af_loc(f.left, sigma, C), pu_loc(f, sigma, C)))
    elif k in (F.RELEASE, F.SRELEASE):
        out = P.conj(_af_loc(f.right, sigma, C),
                     P.disj(_af_loc(f.left, sigma, C), pu_loc(f, sigma, C)))
    elif k in (F.SINCE, F.WSINCE, F.BACK, F.WBACK):
        out = _af_loc(wc(f), sigma, C)
    else:
        raise AssertionError(k)
    _afloc_memo[key] = out
    return out


def pu_loc(f, sigma, C):
    """Canonical function of ``f`` pushed one step on under assumption ``C``.

    The carried formula is rewritten under ``C``; each past subformula
    assumed to hold additionally owes its weakening condition now.
    """
    sigma, C = frozenset(sigma), frozenset(C)
    owed = [_af_loc(wc(p), sigma, C)
            for p in F.sorted_set(F.psf(f) & C)]
    return reduce(P.conj, owed, P.canonicalize(rewrite_under(f, C)))


def af_loc_ext(f, word, past_sets):
    """Fold ``af_loc`` over a finite word, reading each step's canonical
    derivative back as its representative formula.

    ``past_sets`` has one entry per position plus a leading entry for the
    initial instant, which is not consumed: letter ``t`` of the word is read
    under ``past_sets[t + 1]``.
    """
    if len(past_sets) != len(word) + 1:
        raise ValueError("need one past set per position plus the initial one")
    for t, sigma in enumerate(word):
        f = P.to_formula(af_loc(f, sigma, past_sets[t + 1]))
    return f


_afclass_memo = F.memo()
_compose_memo = F.memo()
_psf_memo = F.memo()


def derive(b, sigma, C):
    """``b`` derived by ``sigma`` under the past set ``C``, on the diagram.

    Each atom is derived under the part of ``C`` among its own past
    subformulas, which is all ``af_loc`` reads; guesses that agree there
    share the atom's memo entry.  ``sigma`` and ``C`` are frozensets.
    """
    memo = _compose_memo.get((sigma, C))
    if memo is None:
        memo = _compose_memo[sigma, C] = {}
    return P.map_atoms(b, lambda a: _af_loc(a, sigma, C & F.psf(a)), memo)


def af_class(b, sigma):
    """Canonical one-letter derivative of ``b``, all past sets guessed."""
    sigma = frozenset(sigma)
    key = (b.uid, sigma)
    out = _afclass_memo.get(key)
    if out is None:
        ps = _psf_memo.get(b.uid)
        if ps is None:
            ps = F.sorted_set(frozenset().union(*map(F.psf, P.atoms(b))))
            _psf_memo[b.uid] = ps
        out = P.FALSE_B
        for C in map(frozenset, subsets(ps)):
            out = P.disj(out, derive(b, sigma, C))
        _afclass_memo[key] = out
    return out


def af_ext(f, word):
    """Fold the canonical derivative over a finite word; empty word is f."""
    b = P.canonicalize(f)
    for sigma in word:
        b = af_class(b, sigma)
    return P.to_formula(b)
