"""Translation of formulas to deterministic generalized Rabin automata.

The construction is the product of a single shared bed automaton with one
branch per guess (M, N) of the least-fixpoint subformulas that recur and
the greatest-fixpoint subformulas that eventually hold forever.  A bed
state is the formula's derivative and, per enumerated past set, the
weakening conditions under which that set is the current one, from ``tt``
at the all-weak set.  Each branch contributes one generalized Rabin pair
and intersects a few runners: the safety runner ``S`` of M, a ``G`` runner
per (psi, M) and an ``F`` runner per (psi, N).  The pair avoids the
co-Büchi sets of the first two kinds and has one meet set per ``F``
runner.  A runner state is one derivative, and a runner starts as a
restart from the bed's initial state.  The product has one rule: a runner
in its set is not stepped but restarts from the bed state the letter
reaches.  Runners are shared across guesses, so each distinct one is
built once, stepped once per distinct (runner state, letter) and restarted
once per distinct part of the bed state it reads, and :func:`cascade`
explores the bed, the runners and the branches in one product, so the bed
is never duplicated.  State labels print formula text and are built only
on request.  The branches, and so the product's pairs, come M-major: M
and N each run over the subsets of the sorted fixpoint subformulas by
size, then lexicographically.
:func:`translate` returns the product's Moore quotient
(:func:`~pastdra.automata.minimize`): its pairs keep that order, less the
ones that repeat an earlier pair or accept nothing, and a merged state is
named after its first product state.  All three are built over the
formula's own propositions, the only ones its states read, and
:func:`~pastdra.automata.widen` adds the caller's others last.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from . import automata
from . import formula as F
from . import proplogic as P
from .after import af_class, af_loc, derive
from .automata import DEFAULT_MAX_STATES, letters_for, minimize, widen
from .rewrites import (enumerate_past_sets, is_saturated, rewrite_mu_limit,
                       rewrite_nu_limit, rewrite_set, rewrite_under, subsets,
                       wc)


class TranslationContext:
    """Shared tables for one formula: past sets, saturation, the bed.

    Creating one empties every :func:`formula.memo` table, and the BDD
    tables take no lock, so one process runs one translation at a time.
    """

    def __init__(self, phi):
        F.clear_memos()
        self.ap = tuple(sorted(F.props(phi)))
        self.past_sets = enumerate_past_sets(phi)
        self.k = len(self.past_sets)
        # The bed starts at the formula, with tt on the all-weak set only.
        self.bed_init = (P.canonicalize(phi),
                         (P.TRUE_B,) + (P.FALSE_B,) * (self.k - 1))
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


@dataclass
class BedAutomaton:
    """The acceptance-free component the runners observe; starts in 0."""
    ap: tuple
    letters: list             # letters_for(ap), the table it was explored on
    trans: list
    state_objs: list          # the bed state per index, passed to restarts


def build_wc_automaton(ctx, max_states=DEFAULT_MAX_STATES):
    """The bed: the formula's derivative and one weakening-obligation track
    per enumerated past set; raises :class:`StateLimitExceeded` past
    ``max_states``."""
    letters = letters_for(ctx.ap)
    rc = {}                   # (tracks, column) -> successor tracks

    def step(q, i):
        psi, tracks = q
        if (tracks, i) not in rc:
            rc[tracks, i] = ctx.rc(tracks, letters[i])
        return af_class(psi, letters[i]), rc[tracks, i]

    order, trans = automata._explore(len(letters), ctx.bed_init, step,
                                     max_states)
    return BedAutomaton(ctx.ap, letters, trans, list(order))


Runner = namedtuple("Runner", "init step accepting restart")
Runner.__doc__ = """\
A Büchi or co-Büchi component that also observes the bed.

``step(q, sigma)`` is the successor of ``q`` on a letter, ``accepting(q)``
marks the states of its set, and ``restart(s)`` is the successor of a
state in its set when the letter takes the bed to state ``s``."""

_RESTART = object()             # a step table entry: the runner restarts


def cascade(bed, components, branches, max_states=DEFAULT_MAX_STATES,
            name=None):
    """Generalized Rabin automaton of the union over the branches of the
    intersection of their components, all observing the bed.

    ``components`` are runners.  Each is tested for its set, then stepped
    or restarted, once per distinct (runner state, column), however many
    product states and branches share it; first calls come in the order
    of a plain product walk.  A branch ``(co-Büchi indices, Büchi
    indices)`` gives one pair.  It avoids the states where one of its
    co-Büchi components is in its set, and has one meet set per Büchi
    component: the states where that component is in its set.  States are
    ``(runner states, bed state index)`` in BFS order; the pairs come in
    branch order.  ``name(runner states, bed state)`` labels a state once
    the product is explored; without it every label is ``""``.  Raises
    :class:`StateLimitExceeded` when exploration would pass ``max_states``.
    """
    steps = [{} for _ in components]     # (q, column) -> q', or _RESTART

    def succ(state, i):
        qs, s = state
        s2 = bed.trans[s][i]
        out = []
        for c, table, q in zip(components, steps, qs):
            key = q, i
            if key not in table:
                table[key] = (_RESTART if c.accepting(q)
                              else c.step(q, bed.letters[i]))
            q2 = table[key]
            out.append(c.restart(bed.state_objs[s2]) if q2 is _RESTART
                       else q2)
        return tuple(out), s2

    init = (tuple(c.init for c in components), 0)
    order, trans = automata._explore(len(bed.letters), init, succ,
                                     max_states)
    labels = ([name(qs, bed.state_objs[s]) for qs, s in order] if name
              else [""] * len(order))
    # every explored runner state has its column 0 entry, its set's mark
    marked = [frozenset(n for n, (qs, _) in enumerate(order)
                        if table[qs[j], 0] is _RESTART)
              for j, table in enumerate(steps)]
    acc = ("generalized-rabin", tuple(
        (frozenset().union(*(marked[j] for j in co)),
         tuple(marked[j] for j in bu))
        for co, bu in branches))
    return automata.OmegaAutomaton(bed.ap, 0, trans, labels, acc)


_limit_memo = F.memo()


def _limit_view(b, limit, S):
    """``b`` with every atom ``a`` replaced by ``limit(a, S)``.  The memo is
    keyed by ``(limit, S)``, so every runner that needs a view shares it."""
    memo = _limit_memo.get((limit, S))
    if memo is None:
        memo = _limit_memo[limit, S] = {}
    return P.map_atoms(b, lambda a: P.canonicalize(limit(a, S)), memo)


def _limit_runner(ctx, tag, psi, S):
    """Runner for premise 1 (tag ``S``: ``rewrite_mu_limit`` of the formula
    itself, co-Büchi on ff), premise 2 (tag ``F``: ``rewrite_nu_limit``,
    ``F.ev``, Büchi on tt) or premise 3 (tag ``G``: ``rewrite_mu_limit``,
    ``F.alw``, co-Büchi on ff).

    A state is one derivative ``zeta``, stepped by ``af_class``; the
    trigger is the runner's set, so there it restarts from the bed state it
    reaches: the disjunction over the tracks i of a seed and track i, both
    seen through the limit under ``S`` rewritten under C_i.  The seed of ``S`` is the bed's derivative,
    so ``S`` reads the whole bed state; that of ``G`` and ``F`` is
    ``wrap(psi)`` rewritten under C_i, so they read the tracks alone.  A
    restart reads no letter, and any other step reads no bed state.  The
    runner starts from the restart of the bed's initial state.
    """
    limit, wrap, trigger = {"S": (rewrite_mu_limit, None, P.FALSE_B),
                            "G": (rewrite_mu_limit, F.alw, P.FALSE_B),
                            "F": (rewrite_nu_limit, F.ev, P.TRUE_B)}[tag]
    rw = [rewrite_set(S, c) for c in ctx.past_sets]
    seeds = None if wrap is None else [
        P.canonicalize(wrap(rewrite_under(psi, c))) for c in ctx.past_sets]
    restarts = {}             # what a restart reads -> the runner state

    def restart(bed_state):
        derivative, tracks = bed_state
        seen = bed_state if seeds is None else tracks
        if seen not in restarts:
            restarts[seen] = P.disj_all(
                P.conj(_limit_view(derivative if seeds is None else seeds[i],
                                   limit, rw[i]),
                       _limit_view(track, limit, rw[i]))
                for i, track in enumerate(tracks))
        return restarts[seen]

    return Runner(restart(ctx.bed_init), af_class, lambda z: z is trigger,
                  restart)


def _namer(keys):
    """``name`` for :func:`cascade`: a state is labelled
    ``tag:zeta; ... | psi <b0, b1, ...>``, one part per runner in runner
    order, then the bed's derivative and tracks.  Each distinct runner or
    bed state is printed once."""
    texts = [{} for _ in keys]      # runner state -> its text
    beds = {}                       # bed state -> its text

    def name(qs, bed_state):
        parts = []
        for (tag, _, _), seen, q in zip(keys, texts, qs):
            if q not in seen:
                seen[q] = "%s:%s" % (tag, P.to_formula(q))
            parts.append(seen[q])
        if bed_state not in beds:
            psi, tracks = bed_state
            beds[bed_state] = "%s <%s>" % (P.to_formula(psi), ", ".join(
                str(P.to_formula(b)) for b in tracks))
        return "%s | %s" % ("; ".join(parts), beds[bed_state])

    return name


def _product(phi, max_states=DEFAULT_MAX_STATES, labels=False):
    """The cascade product that :func:`translate` minimizes, over the
    formula's own propositions, one pair per (M, N) guess in branch
    order."""
    ctx = TranslationContext(phi)
    index = {}                # component key -> number, first appearance
    branches = []
    for M in subsets(ctx.mu):
        for N in subsets(ctx.nu):
            co = [("S", None, M)] + [("G", psi, M) for psi in N]
            bu = [("F", psi, N) for psi in M]
            branches.append(([index.setdefault(k, len(index)) for k in co],
                             [index.setdefault(k, len(index)) for k in bu]))
    # The runners are built before the bed and in first-appearance order:
    # both intern formulas, and the interning order fixes the BDD variable
    # order and so the state labels.
    components = [_limit_runner(ctx, *key) for key in index]
    bed = build_wc_automaton(ctx, max_states)
    return cascade(bed, components, branches, max_states,
                   _namer(index) if labels else None)


def translate(phi, ap=None, max_states=DEFAULT_MAX_STATES, labels=False):
    """Deterministic generalized Rabin automaton for ``phi`` over its
    propositions and the names in ``ap``: the Moore quotient
    (:func:`~pastdra.automata.minimize`) of the cascade product, widened to
    ``ap`` (:func:`~pastdra.automata.widen`).
    The product has one pair per (M, N) guess, M-major, each of M and N in
    subset order (by size, then lexicographic over ``ctx.mu`` or
    ``ctx.nu``); the quotient keeps that order, dropping the pairs that
    repeat an earlier one or can accept no run.
    :func:`~pastdra.automata.degeneralize` gives the plain Rabin automaton.
    With ``labels``, each state is labelled with the formula text of the
    runner states and bed state of its first product state (a debugging
    aid, computed after exploration); without, no label is built and each
    is ``""``.

    Raises ValueError, before any work, for a name in ``ap`` that no
    formula can mention, and :class:`StateLimitExceeded` past the cap.
    """
    for name in ap or ():
        if not F.is_prop_name(name):
            raise ValueError("not a proposition name: %r" % (name,))
    auto = minimize(_product(phi, max_states, labels))
    return widen(auto, sorted(F.props(phi).union(ap or ())))


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
