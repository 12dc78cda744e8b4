"""Deterministic omega-automata with explicit, complete transition tables.

States are integers in discovery order; the alphabet is the powerset of the
atomic propositions, with letter index ``i`` setting proposition ``ap[j]``
iff bit ``j`` of ``i`` is set.  Acceptance has one form, ``("rabin",
pairs)``: accept iff some pair (A, B) has Inf avoiding A and intersecting B.
A Büchi set S is the one pair (∅, S), a co-Büchi set S the one pair
(S, all states).

Translation has one product step: per transition, :func:`cascade` looks up
the bed successor, steps each distinct component runner once and advances
each branch's Büchi counter, then reads the state labels and one Rabin pair
per branch off the explored states.  A label names each component once,
however many branches share it.
"""

from __future__ import annotations

from dataclasses import dataclass


def letters_for(ap):
    ap = tuple(ap)
    return [frozenset(p for j, p in enumerate(ap) if i >> j & 1)
            for i in range(1 << len(ap))]


@dataclass
class OmegaAutomaton:
    ap: tuple                 # sorted proposition names
    init: int
    trans: list               # trans[state][letter_index] -> state
    labels: list              # human-readable state annotations
    acc: tuple                # ("rabin", pairs) as described above

    @property
    def letters(self):
        return letters_for(self.ap)

    def n_states(self):
        return len(self.trans)

    def letter_index(self, sigma):
        return sum(1 << j for j, p in enumerate(self.ap) if p in sigma)

    def audit(self):
        """Check determinism, completeness and acceptance well-formedness;
        raise AssertionError explicitly, so it also checks under ``-O``."""
        n, width = len(self.trans), 1 << len(self.ap)
        kind, pairs = self.acc
        if kind != "rabin":
            raise AssertionError("unknown acceptance %r" % (kind,))
        if not (0 <= self.init < n and len(self.labels) == n):
            raise AssertionError("initial state or labels do not fit")
        for row in self.trans:
            if len(row) != width or not all(
                    isinstance(q, int) and 0 <= q < n for q in row):
                raise AssertionError("bad transition row %r" % (row,))
        if not all(0 <= q < n for a, b in pairs for q in a | b):
            raise AssertionError("acceptance state out of range")
        return True


@dataclass
class BedAutomaton:
    """The acceptance-free component the runners observe; starts in 0."""
    ap: tuple
    trans: list
    labels: list
    state_objs: list          # opaque payload per state, passed to runners


class Runner:
    """A Büchi or co-Büchi component that also observes the bed state.

    ``step(q, bed_obj, sigma)`` sees the bed state *reached* on the current
    letter, ``accepting(q)`` marks the states of its set and ``label(q)``
    names a state.
    """

    def __init__(self, init, step, accepting, label=str):
        self.init = init
        self.step = step
        self.accepting = accepting
        self.label = label


class StateLimitExceeded(Exception):
    pass


def _explore(ap, init_state, succ, max_states=None):
    """Deterministic BFS materialization: the states in discovery order and
    the transition table over their indices."""
    letters = letters_for(ap)
    index = {init_state: 0}
    order = [init_state]
    trans = []
    i = 0
    while i < len(order):
        q = order[i]
        row = []
        for sigma in letters:
            q2 = succ(q, sigma)
            j = index.get(q2)
            if j is None:
                j = len(order)
                if max_states is not None and j >= max_states:
                    raise StateLimitExceeded(max_states)
                index[q2] = j
                order.append(q2)
            row.append(j)
        trans.append(row)
        i += 1
    return order, trans


def cascade(bed, components, branches, max_states=None):
    """Rabin automaton of the union over the branches of the intersection
    of their components, all observing the bed.

    ``components`` are runners, each stepped once per transition however
    many branches share it.  A branch ``(co-Büchi indices, Büchi indices)``
    gives one Rabin pair.  It avoids the states where one of its co-Büchi
    components is in its set.  A counter names the Büchi component awaited
    next and moves on when a step leaves a state where that one is in its
    set; the pair meets the states whose step closes a round (every state,
    without Büchi components).  States are ``(component states, per-branch
    counter, bed state)`` in BFS order, labelled ``label; ... | bed`` with
    one label per component in component order; the pairs come in branch
    order.  Raises :class:`StateLimitExceeded` when exploration would pass
    ``max_states``.
    """
    letter_index = {sigma: i for i, sigma in enumerate(letters_for(bed.ap))}

    def advances(bu, qs, rr):
        return components[bu[rr]].accepting(qs[bu[rr]])

    def succ(state, sigma):
        qs, counters, s = state
        counters = tuple((rr + 1) % len(bu) if bu and advances(bu, qs, rr)
                         else rr
                         for (_, bu), rr in zip(branches, counters))
        s2 = bed.trans[s][letter_index[sigma]]
        obj = bed.state_objs[s2]
        return (tuple(c.step(q, obj, sigma) for c, q in zip(components, qs)),
                counters, s2)

    init = (tuple(c.init for c in components), (0,) * len(branches), 0)
    order, trans = _explore(bed.ap, init, succ, max_states)
    labels = []
    for qs, _, s in order:
        parts = [c.label(q) for c, q in zip(components, qs)]
        labels.append("%s | %s" % ("; ".join(parts), bed.labels[s]))
    acc = ("rabin", tuple(
        (frozenset(i for i, (qs, _, _) in enumerate(order)
                   if any(components[j].accepting(qs[j]) for j in co)),
         frozenset(i for i, (qs, rs, _) in enumerate(order)
                   if not bu or rs[b] == len(bu) - 1
                   and advances(bu, qs, rs[b])))
        for b, (co, bu) in enumerate(branches)))
    return OmegaAutomaton(bed.ap, 0, trans, labels, acc)


def accepts(auto, word):
    """Whether the automaton accepts the lasso word.

    Letters are restricted to the automaton's propositions; the run is
    followed until the (state, word-phase) pair repeats, which delimits the
    set of states visited infinitely often.
    """
    apset = set(auto.ap)
    q = auto.init
    seen = {}
    trace = []
    t = 0
    while True:
        key = (q, word.phase(t))
        if key in seen:
            lo = seen[key]
            inf = set(trace[lo:])
            break
        seen[key] = t
        trace.append(q)
        sigma = word.letter(t) & apset
        q = auto.trans[q][auto.letter_index(sigma)]
        t += 1
    return any(not inf & avoid and inf & meet for avoid, meet in auto.acc[1])
