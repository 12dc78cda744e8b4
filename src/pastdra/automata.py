"""Deterministic omega-automata with explicit, complete transition tables.

States are integers in discovery order; the alphabet is the powerset of the
atomic propositions, with letter index ``i`` setting proposition ``ap[j]``
iff bit ``j`` of ``i`` is set.  Acceptance is one of

* ``("buchi", S)``    -- accept iff Inf intersects S,
* ``("cobuchi", S)``  -- accept iff Inf avoids S,
* ``("rabin", pairs)``-- accept iff some pair (A, B) has Inf avoiding A and
  intersecting B.

Translation builds Rabin automata only, with one product engine: the
distinct component runners, each stepped once, combined into one Rabin pair
per branch by :func:`product` and cascaded onto a bed by :func:`cascade`.
The other two kinds come from HOA input.
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
    acc: tuple                # acceptance as described above

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
        kind, sets = self.acc
        if kind in ("buchi", "cobuchi"):
            sets = [(sets, frozenset())]
        elif kind != "rabin":
            raise AssertionError("unknown acceptance %r" % (kind,))
        if not (0 <= self.init < n and len(self.labels) == n):
            raise AssertionError("initial state or labels do not fit")
        for row in self.trans:
            if len(row) != width or not all(
                    isinstance(q, int) and 0 <= q < n for q in row):
                raise AssertionError("bad transition row %r" % (row,))
        if not all(0 <= q < n for a, b in sets for q in a | b):
            raise AssertionError("acceptance state out of range")
        return True


@dataclass
class BedAutomaton:
    """The acceptance-free component other automata are cascaded onto."""
    ap: tuple
    init: int
    trans: list
    labels: list
    state_objs: list          # opaque payload per state, passed to runners


class Runner:
    """A deterministic transition system that also observes the bed state.

    ``step(q, bed_obj, sigma)`` sees the bed state *reached* on the current
    letter, and ``label(q)`` names a state.  A component runner marks the
    states of its Büchi or co-Büchi set with ``accepting(q)``; the product
    runner built by :func:`product` instead carries Rabin ``pairs`` of
    (avoid, meet) predicates on its states.
    """

    def __init__(self, init, step, accepting=None, pairs=None, label=str):
        self.init = init
        self.step = step
        self.accepting = accepting
        self.pairs = pairs
        self.label = label


def product(components, branches):
    """Union over the branches of the intersection of their components.

    ``components`` are Büchi or co-Büchi runners, each stepped once per
    transition however many branches share it.  A branch ``(co-Büchi
    indices, Büchi indices, name)`` gives one Rabin pair: it avoids the
    states where one of its co-Büchi components is in its set and meets the
    ticks of a round-robin watcher, which waits for each of its Büchi
    components in turn to visit its set (without any, every state ticks).
    States are ``(component states, per-branch (watched index, tick))``,
    labelled ``name{label; ...} || ...``; the pairs come in branch order.
    """
    def step(state, bed_obj, sigma):
        qs, watchers = state
        ticks = []
        for (_, bu, _), (rr, _) in zip(branches, watchers):
            if not bu:
                ticks.append((0, True))
            elif components[bu[rr]].accepting(qs[bu[rr]]):
                rr = (rr + 1) % len(bu)
                ticks.append((rr, rr == 0))
            else:
                ticks.append((rr, False))
        return (tuple(c.step(q, bed_obj, sigma)
                      for c, q in zip(components, qs)), tuple(ticks))

    def label(state):
        labels = [c.label(q) for c, q in zip(components, state[0])]
        return " || ".join("%s{%s}" % (name, "; ".join(labels[i]
                                                       for i in (*co, *bu)))
                           for co, bu, name in branches)

    init = (tuple(c.init for c in components),
            tuple((0, not bu) for _, bu, _ in branches))
    pairs = [(lambda state, co=co: any(components[i].accepting(state[0][i])
                                       for i in co),
              lambda state, b=b: state[1][b][1])
             for b, (co, _, _) in enumerate(branches)]
    return Runner(init, step, pairs=pairs, label=label)


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


def cascade(bed, runner, max_states=None):
    """Rabin automaton of a bed and a product runner observing it.

    States are ``(runner state, bed state)`` pairs in BFS order, labelled
    ``runner | bed``; the pairs are the runner's, in its order.  Raises
    :class:`StateLimitExceeded` when exploration would pass ``max_states``.
    """
    letter_index = {sigma: i for i, sigma in enumerate(letters_for(bed.ap))}

    def succ(pair, sigma):
        q, s = pair
        s2 = bed.trans[s][letter_index[sigma]]
        return (runner.step(q, bed.state_objs[s2], sigma), s2)

    order, trans = _explore(bed.ap, (runner.init, bed.init), succ,
                            max_states)
    labels = ["%s | %s" % (runner.label(q), bed.labels[s])
              for (q, s) in order]
    acc = ("rabin",
           tuple((frozenset(i for i, (q, _) in enumerate(order) if avoid(q)),
                  frozenset(i for i, (q, _) in enumerate(order) if meet(q)))
                 for avoid, meet in runner.pairs))
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
    kind, data = auto.acc
    if kind == "buchi":
        return bool(inf & data)
    if kind == "cobuchi":
        return not inf & data
    return any(not inf & avoid and inf & meet for avoid, meet in data)
