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
once per distinct part of the bed state it reads.  :func:`cascade`
explores the product step, :func:`_step`, so the bed is never duplicated,
and :func:`explain` takes it along one word.  The branches, and so the
product's pairs, come M-major: M and N each run over the subsets of the
sorted fixpoint subformulas by size, then lexicographically.
:func:`translate` returns the product's Moore quotient
(:func:`~pastdra.automata.minimize`): its pairs keep that order, less the
ones that repeat an earlier pair or accept nothing, and no state is named.
All three are built over the formula's own propositions, the only ones its
states read, and :func:`~pastdra.automata.widen` adds the caller's others
last.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, cycle

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


def _step(bed, components):
    """The initial state, step ``succ(state, column)`` and runner step
    tables of the product: a state is ``(runner states, bed state index)``,
    and a runner in its set is not stepped but restarts from the bed state
    the letter reaches.  Each runner is tested for its set, then stepped or
    restarted, once per distinct (runner state, column) in walk order, and
    ``tables[j][q, column]`` keeps the successor or ``_RESTART``."""
    tables = [{} for _ in components]    # (q, column) -> q', or _RESTART

    def succ(state, i):
        qs, s = state
        s2 = bed.trans[s][i]
        out = []
        for c, table, q in zip(components, tables, qs):
            key = q, i
            if key not in table:
                table[key] = (_RESTART if c.accepting(q)
                              else c.step(q, bed.letters[i]))
            q2 = table[key]
            out.append(c.restart(bed.state_objs[s2]) if q2 is _RESTART
                       else q2)
        return tuple(out), s2

    return (tuple(c.init for c in components), 0), succ, tables


def cascade(bed, components, branches, max_states=DEFAULT_MAX_STATES):
    """Generalized Rabin automaton of the union over the branches of the
    intersection of their components, all observing the bed.

    ``components`` are runners, stepped by :func:`_step`.  A branch
    ``(co-Büchi indices, Büchi indices)`` gives one pair.  It avoids the
    states where one of its co-Büchi components is in its set, and has one
    meet set per Büchi component: the states where that component is in
    its set.  The unnamed states are in BFS order, the pairs in branch
    order.  Raises :class:`StateLimitExceeded` when exploration would pass
    ``max_states``."""
    init, succ, tables = _step(bed, components)
    order, trans = automata._explore(len(bed.letters), init, succ,
                                     max_states)
    # every explored runner state has its column 0 entry, its set's mark
    marked = [frozenset(n for n, (qs, _) in enumerate(order)
                        if table[qs[j], 0] is _RESTART)
              for j, table in enumerate(tables)]
    acc = ("generalized-rabin", tuple(
        (frozenset().union(*(marked[j] for j in co)),
         tuple(marked[j] for j in bu))
        for co, bu in branches))
    return automata.OmegaAutomaton(bed.ap, 0, trans, [""] * len(order), acc)


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


def _parts(phi, max_states=DEFAULT_MAX_STATES):
    """The context, the runner keys ``(tag, psi, set)`` and their runners in
    first-appearance order, the branches in branch order, and the bed."""
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
    # order and so the representatives :func:`explain` prints.
    components = [_limit_runner(ctx, *key) for key in index]
    bed = build_wc_automaton(ctx, max_states)
    return ctx, list(index), components, branches, bed


def _product(phi, max_states=DEFAULT_MAX_STATES):
    """The cascade product that :func:`translate` minimizes."""
    _, _, components, branches, bed = _parts(phi, max_states)
    return cascade(bed, components, branches, max_states)


def translate(phi, ap=None, max_states=DEFAULT_MAX_STATES):
    """Deterministic generalized Rabin automaton for ``phi`` over its
    propositions and the names in ``ap``: the Moore quotient
    (:func:`~pastdra.automata.minimize`) of the cascade product, widened to
    ``ap`` (:func:`~pastdra.automata.widen`).
    The product has one pair per (M, N) guess, M-major, each of M and N in
    subset order (by size, then lexicographic over ``ctx.mu`` or
    ``ctx.nu``); the quotient keeps that order, dropping the pairs that
    repeat an earlier one or can accept no run.
    :func:`~pastdra.automata.degeneralize` gives the plain Rabin automaton.

    Raises ValueError, before any work, for a name in ``ap`` that no
    formula can mention, and :class:`StateLimitExceeded` past the cap.
    """
    for name in ap or ():
        if not F.is_prop_name(name):
            raise ValueError("not a proposition name: %r" % (name,))
    auto = minimize(_product(phi, max_states))
    return widen(auto, sorted(F.props(phi).union(ap or ())))


def _braces(formulas):
    return "{%s}" % ", ".join(map(str, formulas))


def explain(phi, word):
    """The product's run on the lasso ``word`` as lines of text, and whether
    it accepts: :func:`_step` along the prefix, then cycle laps until a
    lap-start state repeats, as :func:`~pastdra.automata.accepts` walks.
    A line per letter gives the bed's derivative, its non-ff tracks by past
    set and each runner's state, starred in its set, where it restarts;
    each BDD node is ``#n``, defined once in the legend."""
    ctx, keys, components, branches, bed = _parts(phi)
    state, succ, tables = _step(bed, components)
    letters, k = word.prefix + word.period, len(word.prefix)
    legend, lap, marks = {}, {}, []   # marks: the runners in their sets

    def ref(b):
        return "#%d" % legend.setdefault(b, len(legend))

    lines = ["runner %d: %s%s under %s = %s" % (
        j, tag, "" if psi is None else "(%s)" % psi, "MN"[tag == "F"],
        _braces(S)) for j, (tag, psi, S) in enumerate(keys)]
    for t in chain(range(k), cycle(range(k, len(letters)))):
        if t == k:
            if state in lap:
                break
            lap[state] = len(marks)
        i = bed.letters.index(frozenset(ctx.ap).intersection(letters[t]))
        (qs, s), state = state, succ(state, i)
        marks.append({j for j, q in enumerate(qs)
                      if tables[j][q, i] is _RESTART})
        psi, tracks = bed.state_objs[s]
        lines.append("%d {%s}: %s [%s] | %s" % (
            len(marks) - 1, ",".join(sorted(letters[t])), ref(psi),
            ", ".join("%s: %s" % (_braces(F.sorted_set(c)), ref(b))
                      for c, b in zip(ctx.past_sets, tracks)
                      if b is not P.FALSE_B),
            " ".join(ref(q) + "*" * (j in marks[-1])
                     for j, q in enumerate(qs))))
    on_loop = set().union(*marks[lap[state]:])
    accepting = [(keys[co[0]][2], [keys[j][1] for j in co[1:]])
                 for co, bu in branches
                 if on_loop.isdisjoint(co) and on_loop.issuperset(bu)]
    lines += ["#%d = %s" % (n, P.to_formula(b)) for b, n in legend.items()]
    lines += ["loop: from %d" % lap[state], "in their sets on the loop: %s"
              % (" ".join(map(str, sorted(on_loop))) or "none"),
              "first accepting (M, N): %s"
              % ("M = %s, N = %s" % tuple(map(_braces, accepting[0]))
                 if accepting else "none")]
    return lines, bool(accepting)


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
