"""Translation of formulas to deterministic generalized Rabin automata.

The construction is the product of a single shared bed automaton -- which
tracks, per enumerated past set, the weakening conditions under which that
set is the current one, from ``tt`` at the all-weak set (the formula's own
derivative is the safety runner's ``psi``) -- with one branch per guess
(M, N) of the least-fixpoint subformulas that recur and the
greatest-fixpoint subformulas that eventually hold forever.  Each branch
contributes one generalized Rabin pair and intersects a few component
runners: the safety runner of M, a ``G`` runner per (psi, M) and an ``F``
runner per (psi, N).  The pair avoids the co-Büchi sets of the first two
kinds and has one meet set per ``F`` runner.  Components are shared across
guesses, so each distinct one is built once, stepped once per distinct
(runner state, bed state, letter) and labelled once per distinct runner
state, and :func:`~pastdra.automata.cascade` explores the bed, the
components and the branches in one product, so the bed is never
duplicated.  The branches, and so the pairs, come M-major: M and N each run
over the subsets of the sorted fixpoint subformulas by size, then
lexicographically.
"""

from __future__ import annotations

from . import formula as F
from . import proplogic as P
from .after import af_class, af_loc, derive
from .automata import (DEFAULT_MAX_STATES, BedAutomaton, Runner, cascade,
                       letters_for)
from .rewrites import (enumerate_past_sets, is_saturated, rewrite_mu_limit,
                       rewrite_nu_limit, rewrite_set, rewrite_under, subsets,
                       wc)


class TranslationContext:
    """Shared tables for one formula: past sets, saturation, the bed step.

    Creating one empties every :func:`formula.memo` table, and the BDD
    tables take no lock, so one process runs one translation at a time.
    """

    def __init__(self, phi, ap=None):
        F.clear_memos()
        self.phi = phi
        for name in ap or ():
            if not F.is_prop_name(name):
                raise ValueError("not a proposition name: %r" % (name,))
        self.ap = tuple(sorted(set(F.props(phi)) | set(ap or ())))
        self.past_sets = enumerate_past_sets(phi)
        self.k = len(self.past_sets)
        # Saturation first, then one row per refining pair (i, j): j, C_i
        # rewritten under C_j, and the weakening conditions owed by the
        # members of C_i after that rewrite.  Both passes intern formulas.
        sets = self.past_sets
        saturated = [[j for j, cj in enumerate(sets)
                      if is_saturated(cj, ci, phi)] for ci in sets]
        self.refining = [tuple((j, rewrite_set(ci, sets[j]),
                                tuple(wc(rewrite_under(x, sets[j]))
                                      for x in F.sorted_set(ci)))
                               for j in js)
                         for ci, js in zip(sets, saturated)]
        self.mu = F.sorted_set(F.mu_subformulas(phi))
        self.nu = F.sorted_set(F.nu_subformulas(phi))

    def rc(self, state, sigma):
        """Bed transition: component i re-derives from every refining j."""
        sigma = frozenset(sigma)
        parts = []
        for rows in self.refining:
            acc = P.FALSE_B
            for j, cij, owed_wcs in rows:
                term = derive(state[j], sigma, cij)
                for owed in owed_wcs:
                    if term is P.FALSE_B:
                        break
                    term = P.conj(term, af_loc(owed, sigma, cij))
                acc = P.disj(acc, term)
            parts.append(acc)
        return tuple(parts)


def _bed_label(state):
    return "<%s>" % ", ".join(str(P.to_formula(b)) for b in state)


def build_wc_automaton(ctx, max_states=DEFAULT_MAX_STATES):
    """The bed: one weakening-obligation track per enumerated past set;
    raises :class:`StateLimitExceeded` past ``max_states``."""
    init = (P.TRUE_B,) + (P.FALSE_B,) * (ctx.k - 1)
    letters = letters_for(ctx.ap)
    # Looked up at call time so that a wrapper installed on
    # ``automata._explore`` (the benchmark's tracer) sees the bed too.
    from .automata import _explore
    order, trans = _explore(len(letters), init,
                            lambda q, i: ctx.rc(q, letters[i]), max_states)
    return BedAutomaton(ctx.ap, letters, trans,
                        [_bed_label(s) for s in order], list(order))


_limit_memo = F.memo()


def _limit_view(b, limit, S):
    """``b`` with every atom ``a`` replaced by ``limit(a, S)``.  The memo is
    keyed by ``(limit, S)``, so every runner that needs a view shares it."""
    memo = _limit_memo.get((limit, S))
    if memo is None:
        memo = _limit_memo[limit, S] = {}
    return P.map_atoms(b, lambda a: P.canonicalize(limit(a, S)), memo)


def _limit_runner(ctx, tag, psi, S):
    """Runner for premise 2 (tag ``F``: ``rewrite_nu_limit``, ``F.ev``,
    Büchi on tt) or premise 3 (tag ``G``: ``rewrite_mu_limit``, ``F.alw``,
    co-Büchi on ff): the derivative of ``wrap(limit(psi, S))`` that restarts
    from every track of the bed whenever it reaches ``trigger``.
    """
    limit, wrap, trigger = ((rewrite_mu_limit, F.alw, P.FALSE_B) if tag == "G"
                            else (rewrite_nu_limit, F.ev, P.TRUE_B))
    rw = [rewrite_set(S, c) for c in ctx.past_sets]
    restart_b = [P.canonicalize(wrap(limit(rewrite_under(psi, c), rw[i])))
                 for i, c in enumerate(ctx.past_sets)]

    def step(zeta, bed_state, sigma):
        if zeta is trigger:
            return P.disj_all(P.conj(restart_b[i],
                                     _limit_view(bed_state[i], limit, rw[i]))
                              for i in range(ctx.k))
        return af_class(zeta, sigma)

    init = P.canonicalize(wrap(limit(psi, S)))
    return Runner(init, step, accepting=lambda z: z is trigger,
                  label=lambda z: "%s:%s" % (tag, P.to_formula(z)))


def build_safety_runner(ctx, M):
    """Co-Büchi runner for premise 1: the derivative of the formula itself,
    paired with its least-fixpoint-resolved shadow that re-guesses whenever
    it runs empty.
    """
    rw = [rewrite_set(M, c) for c in ctx.past_sets]

    def step(q, bed_state, sigma):
        psi, zeta = q
        psi2 = af_class(psi, sigma)
        if zeta is P.FALSE_B:
            return (psi2, P.disj_all(
                P.conj(_limit_view(psi2, rewrite_mu_limit, rw[i]),
                       _limit_view(bed_state[i], rewrite_mu_limit, rw[i]))
                for i in range(ctx.k)))
        return (psi2, af_class(zeta, sigma))

    init = (P.canonicalize(ctx.phi),
            P.canonicalize(rewrite_mu_limit(ctx.phi, M)))
    return Runner(init, step, accepting=lambda q: q[1] is P.FALSE_B,
                  label=lambda q: "%s / %s" % (P.to_formula(q[0]),
                                               P.to_formula(q[1])))


def translate(phi, ap=None, max_states=DEFAULT_MAX_STATES):
    """Deterministic generalized Rabin automaton for ``phi``; one pair per
    (M, N) guess, M-major, each of M and N in subset order (by size, then
    lexicographic over ``ctx.mu`` or ``ctx.nu``).
    :func:`~pastdra.automata.degeneralize` gives the plain Rabin automaton.

    Raises :class:`StateLimitExceeded` when exploration would pass the cap.
    """
    ctx = TranslationContext(phi, ap)
    index = {}                # component key -> number, first appearance
    branches = []
    for M in subsets(ctx.mu):
        for N in subsets(ctx.nu):
            co = [("S", M)] + [("G", psi, M) for psi in N]
            bu = [("F", psi, N) for psi in M]
            branches.append(([index.setdefault(k, len(index)) for k in co],
                             [index.setdefault(k, len(index)) for k in bu]))
    # The runners are built before the bed and in first-appearance order:
    # both intern formulas, and the interning order fixes the BDD variable
    # order and so the state labels.
    components = [build_safety_runner(ctx, key[1]) if key[0] == "S"
                  else _limit_runner(ctx, *key) for key in index]
    return cascade(build_wc_automaton(ctx, max_states), components, branches,
                   max_states)


def translation_stats(phi, auto):
    n, m = F.size(phi)
    return {
        "states": auto.n_states(),
        "pairs": len(auto.acc[1]),
        "past_sets": 1 << len(F.psf(phi)),
        "ap": len(auto.ap),
        "n": n,
        "m": m,
    }
