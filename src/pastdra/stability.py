"""Entailed past sets along a word, limit behaviour, and the master check.

The entailed past set at an instant records which past subformulas currently
hold in the weak sense; later instants are computed against the formula
rewritten under the composition of all earlier sets, and the weakening
condition of a candidate is evaluated on the suffix starting at the previous
instant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import formula as F
from .lasso import holds
from .rewrites import (compose_sequence, is_weak, rewrite_mu_limit,
                       rewrite_nu_limit, rewrite_set, rewrite_under, wc)
from .after import af_loc_ext


def entailed_seq(f, w, t):
    """The entailed past sets of ``f`` along ``w`` at instants 0..t."""
    seq = [frozenset(p for p in F.psf(f) if is_weak(p))]
    for s in range(1, t + 1):
        comp = compose_sequence(f, seq)
        rewritten = rewrite_under(f, comp)
        tail = w.suffix(s - 1)
        seq.append(frozenset(p for p in F.psf(rewritten)
                             if holds(wc(p), tail, 0)))
    return seq


@functools.lru_cache(maxsize=1 << 12)
def _composed_cycle(f, w):
    """All composed entailed sets until the (state, phase) pair repeats.

    Returns ``(composed_list, lo, hi)`` where the composed sets (and with
    them every per-instant construction derived from them) repeat with the
    cycle ``[lo, hi)`` from ``lo`` on.
    """
    ps = F.sorted_set(F.psf(f))
    chain = tuple(ps)  # current chained rewrite of each past subformula
    seq = [frozenset(p for p in F.psf(f) if is_weak(p))]
    chain = tuple(rewrite_under(p, seq[0]) for p in chain)
    composed = [frozenset(p for p, c in zip(ps, chain) if is_weak(c))]
    seen = {(chain, w.phase(0)): 0}
    t = 0
    while True:
        t += 1
        comp = composed[-1]
        rewritten = rewrite_under(f, comp)
        tail = w.suffix(t - 1)
        c_t = frozenset(p for p in F.psf(rewritten) if holds(wc(p), tail, 0))
        chain = tuple(rewrite_under(c, c_t) for c in chain)
        composed.append(frozenset(p for p, c in zip(ps, chain) if is_weak(c)))
        key = (chain, w.phase(t))
        if key in seen:
            return composed, seen[key], t
        seen[key] = t


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


def _premise_one(f, w, r, M):
    seq = entailed_seq(f, w, r)
    comp = compose_sequence(f, seq)
    chi = af_loc_ext(f, [w.letter(i) for i in range(r)], seq)
    chi = rewrite_mu_limit(chi, rewrite_set(M, comp))
    return holds(chi, w.suffix(r), 0)


def _premise_two(f, w, psi, N):
    composed, lo, hi = _composed_cycle(f, w)
    return any(_eventually_holds(psi, N, composed[t], w, t, weak=False)
               for t in range(lo, hi))


def _premise_three(f, w, psi, M):
    composed, lo, hi = _composed_cycle(f, w)
    return any(_eventually_holds(psi, M, composed[t], w, t, weak=True)
               for t in range(hi))


def _eventually_holds(psi, S, comp, w, t, weak):
    core = rewrite_under(psi, comp)
    rw_set = rewrite_set(S, comp)
    if weak:
        goal = F.alw(rewrite_mu_limit(core, rw_set))
    else:
        goal = F.ev(rewrite_nu_limit(core, rw_set))
    return holds(goal, w.suffix(t), 0)


def check_master(f, w):
    """Search for (M, N) limit-set witnesses and compare with ground truth."""
    r = stability_index(f, w)
    mu = F.sorted_set(F.mu_subformulas(f))
    nu = F.sorted_set(F.nu_subformulas(f))
    witness = None
    for mmask in range(1 << len(mu)):
        M = frozenset(p for i, p in enumerate(mu) if mmask >> i & 1)
        if not _premise_one(f, w, r, M):
            continue
        for nmask in range(1 << len(nu)):
            N = frozenset(p for i, p in enumerate(nu) if nmask >> i & 1)
            if all(_premise_two(f, w, psi, N) for psi in M) and \
                    all(_premise_three(f, w, psi, M) for psi in N):
                witness = (M, N)
                break
        if witness is not None:
            break
    sat = holds(f, w, 0)
    return MasterReport(sat, r, witness, (witness is not None) == sat)
