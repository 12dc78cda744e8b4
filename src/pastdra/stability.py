"""Entailed past sets along a word, limit behaviour, and the master check.

The entailed past set at an instant records which past subformulas currently
hold in the weak sense; later instants are computed against the formula
rewritten under the composition of all earlier sets, and the weakening
condition of a candidate is evaluated on the suffix starting at the previous
instant.

One walk, :func:`_walk`, computes these sets and their composition.  It
carries the chained rewrite of each past subformula, so each instant costs
one rewrite per past subformula.  The master check walks each word once,
until the walk's state, the pair (chain, suffix), repeats, and reads
premise one's inputs off that walk: the entailed sets up to the stability
index, their composition and the derivative of the prefix.  Only the final
mu-limit rewrite depends on the guess M.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import formula as F
from .lasso import holds
from .rewrites import (is_weak, rewrite_mu_limit, rewrite_nu_limit,
                       rewrite_set, rewrite_under, subsets, wc)
from .after import af_loc_ext


def _walk(f, w):
    """The entailed-set walk of ``f`` along ``w``.

    At each instant ``t = 0, 1, ...`` it yields the entailed past set, the
    composition of the sets up to ``t``, and the state key ``(chain,
    w.suffix(t))``, where ``chain`` holds the chained rewrite of each past
    subformula.  The key is the walk's whole state: the next entailed set
    reads only the composed set and the suffix.
    """
    ps = F.sorted_set(F.psf(f))
    chain = tuple(ps)
    entailed = frozenset(p for p in ps if is_weak(p))
    for t in count():
        chain = tuple(rewrite_under(c, entailed) for c in chain)
        composed = frozenset(p for p, c in zip(ps, chain) if is_weak(c))
        tail = w.suffix(t)
        yield entailed, composed, (chain, tail)
        entailed = frozenset(p for p in F.psf(rewrite_under(f, composed))
                             if holds(wc(p), tail, 0))


def _cycle(f, w):
    """The walk up to its first repeated key, one (entailed set, composed
    set, suffix) triple per instant, and the index of the instant that the
    key repeats: the triples repeat from there on."""
    walk, seen = [], {}
    for entailed, composed, key in _walk(f, w):
        if key in seen:
            return walk, seen[key]
        seen[key] = len(walk)
        walk.append((entailed, composed, key[1]))


@dataclass(frozen=True)
class LimitSets:
    now_or_later: frozenset      # F
    infinitely_often: frozenset  # GF
    always: frozenset            # G
    eventually_always: frozenset # FG


def limit_sets(f, w, t):
    """The four limit sets at ``t``: least-fixpoint subformulas satisfied at
    least once / infinitely often, greatest-fixpoint subformulas satisfied
    always / almost always.
    """
    mu = F.sorted_set(F.mu_subformulas(f))
    nu = F.sorted_set(F.nu_subformulas(f))
    return LimitSets(
        frozenset(g for g in mu if holds(F.ev(g), w, t)),
        frozenset(g for g in mu if holds(F.alw(F.ev(g)), w, t)),
        frozenset(g for g in nu if holds(F.alw(g), w, t)),
        frozenset(g for g in nu if holds(F.ev(F.alw(g)), w, t)),
    )


def stability_index(f, w):
    """Least instant from which no pending eventuality or safety flips remain:
    everything still awaited recurs forever and everything currently
    invariant stays invariant.
    """
    cap = len(w.prefix) + len(w.period) * (2 * F.tree_size(f) + 4)
    for r in range(cap + 1):
        ls = limit_sets(f, w, r)
        if ls.now_or_later == ls.infinitely_often and \
                ls.always == ls.eventually_always:
            return r
    raise AssertionError("no stability index below %d for %s on %s"
                         % (cap, f, w))


@dataclass(frozen=True)
class MasterReport:
    satisfied: bool
    stability: int
    witness: tuple | None  # (M, N) frozensets when the premises are met
    consistent: bool       # premises met iff the word satisfies the formula


def _eventually_holds(psi, S, states, weak):
    """Whether the limit rewrite of ``psi`` under ``S`` holds, always
    (``weak``) or eventually, on the suffix of some instant of ``states``,
    a slice of the walk."""
    for _, comp, tail in states:
        core = rewrite_under(psi, comp)
        rw_set = rewrite_set(S, comp)
        if weak:
            goal = F.alw(rewrite_mu_limit(core, rw_set))
        else:
            goal = F.ev(rewrite_nu_limit(core, rw_set))
        if holds(goal, tail, 0):
            return True
    return False


def check_master(f, w):
    """Search for (M, N) limit-set witnesses and compare with ground truth.

    The witness reported is the first (M, N) that meets the premises in the
    cascade product's pair order (``translate._product``, one pair per
    guess): M-major, each of M and N in subset order over the sorted
    fixpoint subformulas.
    """
    r = stability_index(f, w)
    mu = F.sorted_set(F.mu_subformulas(f))
    nu = F.sorted_set(F.nu_subformulas(f))
    walk, lo = _cycle(f, w)
    # premise one: of the derivative chi of f along the prefix up to r,
    # only the mu-limit reads M.  r never passes lo: from lo on the walk's
    # key repeats, and with it every subformula's truth and limit set.
    _, comp, tail = walk[r]
    chi = af_loc_ext(f, [w.letter(i) for i in range(r)],
                     [entailed for entailed, _, _ in walk[:r + 1]])
    witness = None
    for M in map(frozenset, subsets(mu)):
        if not holds(rewrite_mu_limit(chi, rewrite_set(M, comp)), tail, 0):
            continue
        for N in map(frozenset, subsets(nu)):
            if all(_eventually_holds(psi, N, walk[lo:], weak=False)
                   for psi in M) and \
                    all(_eventually_holds(psi, M, walk, weak=True)
                        for psi in N):
                witness = (M, N)
                break
        if witness is not None:
            break
    sat = holds(f, w, 0)
    return MasterReport(sat, r, witness, (witness is not None) == sat)
