"""Derivatives of formulas by letters, guided by a guessed past set.

``af_loc(f, sigma, C)`` is the local after-function: it consumes one letter
``sigma`` under the assumption that exactly the past subformulas in ``C``
currently hold in the weak sense.  For a fixed ``C`` it distributes over
``&`` and ``|``, and it reads only the past subformulas of its argument.

``af_class(b, sigma)`` is the transition function of the formula-state
automata built later.  It works on canonical functions (``proplogic``
diagrams) and removes the assumption by guessing: for every subset ``C`` of
the past subformulas of ``b``'s atoms, each atom is derived under ``C`` and
the results are composed on the diagram (``proplogic.map_atoms``); the
disjunction over all guesses is the derivative.  No formula representative
of ``b`` is built on the way.
"""

from __future__ import annotations

from . import formula as F
from . import proplogic as P
from .rewrites import rewrite_under, wc

_afloc_memo: dict = {}


def af_loc(f, sigma, C):
    """One-letter derivative of ``f`` under past assumption ``C``."""
    sigma = frozenset(sigma)
    C = frozenset(C)
    return _af_loc(f, sigma, C)


def _af_loc(f, sigma, C):
    key = (f, sigma, C)
    out = _afloc_memo.get(key)
    if out is not None:
        return out
    k = f.kind
    if k == F.TRUE:
        out = f
    elif k == F.FALSE:
        out = f
    elif k == F.PROP:
        out = F.true() if f.name in sigma else F.false()
    elif k == F.NPROP:
        out = F.false() if f.name in sigma else F.true()
    elif k == F.AND:
        out = F.conj(_af_loc(f.left, sigma, C), _af_loc(f.right, sigma, C))
    elif k == F.OR:
        out = F.disj(_af_loc(f.left, sigma, C), _af_loc(f.right, sigma, C))
    elif k == F.NEXT:
        out = pu_loc(f.left, sigma, C)
    elif k == F.YESTERDAY:
        out = F.false()
    elif k == F.WYESTERDAY:
        out = F.true()
    elif k in (F.UNTIL, F.WUNTIL):
        out = F.disj(_af_loc(f.right, sigma, C),
                     F.conj(_af_loc(f.left, sigma, C), pu_loc(f, sigma, C)))
    elif k in (F.RELEASE, F.SRELEASE):
        out = F.conj(_af_loc(f.right, sigma, C),
                     F.disj(_af_loc(f.left, sigma, C), pu_loc(f, sigma, C)))
    elif k in (F.SINCE, F.WSINCE, F.BACK, F.WBACK):
        out = _af_loc(wc(f), sigma, C)
    else:
        raise AssertionError(k)
    _afloc_memo[key] = out
    return out


def pu_loc(f, sigma, C):
    """Push ``f`` one step into the future under past assumption ``C``.

    The carried formula is rewritten under ``C``; each past subformula
    assumed to hold additionally owes its weakening condition now.
    """
    sigma = frozenset(sigma)
    C = frozenset(C)
    owed = [_af_loc(wc(p), sigma, C)
            for p in F.sorted_set(F.psf(f) & C)]
    return F.conj_all([rewrite_under(f, C)] + owed)


def af_loc_ext(f, word, past_sets):
    """Fold ``af_loc`` over a finite word.

    ``past_sets`` has one entry per position plus a leading entry for the
    initial instant, which is not consumed: letter ``t`` of the word is read
    under ``past_sets[t + 1]``.
    """
    if len(past_sets) != len(word) + 1:
        raise ValueError("need one past set per position plus the initial one")
    for t, sigma in enumerate(word):
        f = af_loc(f, sigma, past_sets[t + 1])
    return f


_afclass_memo: dict = {}
_compose_memo: dict = {}
_psf_memo: dict = {}


def af_class(b, sigma):
    """Canonical one-letter derivative of ``b``, all past sets guessed.

    Under each guess ``C`` every atom is derived under the part of ``C``
    among its own past subformulas, which is all ``af_loc`` reads; guesses
    that agree there share the atom's memo entry.
    """
    sigma = frozenset(sigma)
    key = (b.uid, sigma)
    out = _afclass_memo.get(key)
    if out is None:
        ps = _psf_memo.get(b.uid)
        if ps is None:
            ps = F.sorted_set(frozenset().union(*map(F.psf, P.atoms(b))))
            _psf_memo[b.uid] = ps
        out = P.FALSE_B
        for mask in range(1 << len(ps)):
            C = frozenset(p for i, p in enumerate(ps) if mask >> i & 1)
            memo = _compose_memo.get((sigma, C))
            if memo is None:
                memo = _compose_memo[sigma, C] = {}
            out = P.disj(out, P.map_atoms(
                b, lambda a: _af_loc(a, sigma, C & F.psf(a)), memo))
        _afclass_memo[key] = out
    return out


def af_ext(f, word):
    """Fold the canonical derivative over a finite word; empty word is f."""
    b = P.canonicalize(f)
    for sigma in word:
        b = af_class(b, sigma)
    return P.to_formula(b)
