"""Deterministic omega-automata with explicit, complete transition tables.

States are integers in discovery order; the alphabet is the powerset of the
atomic propositions, with letter index ``i`` setting proposition ``ap[j]``
iff bit ``j`` of ``i`` is set.  Acceptance is one of

* ``("buchi", S)``    -- accept iff Inf intersects S,
* ``("cobuchi", S)``  -- accept iff Inf avoids S,
* ``("rabin", pairs)``-- accept iff some pair (A, B) has Inf avoiding A and
  intersecting B.

Translation builds Rabin automata only, with one product engine: component
runners combined by :func:`conjunction` and :func:`union`, cascaded onto a
bed by :func:`cascade`.  The other two kinds come from HOA input.
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
        """Check determinism, completeness and acceptance well-formedness."""
        n, width = len(self.trans), 1 << len(self.ap)
        assert 0 <= self.init < n
        assert len(self.labels) == n
        for row in self.trans:
            assert len(row) == width
            assert all(isinstance(q, int) and 0 <= q < n for q in row)
        kind = self.acc[0]
        if kind in ("buchi", "cobuchi"):
            assert all(0 <= q < n for q in self.acc[1])
        else:
            assert kind == "rabin"
            for a, b in self.acc[1]:
                assert all(0 <= q < n for q in a | b)
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
    runners built by :func:`conjunction` and :func:`union` instead carry
    Rabin ``pairs`` of (avoid, meet) predicates on their states.
    """

    def __init__(self, init, step, accepting=None, pairs=None, label=str):
        self.init = init
        self.step = step
        self.accepting = accepting
        self.pairs = pairs
        self.label = label


def _lockstep(runners):
    def step(qs, bed_obj, sigma):
        return tuple(r.step(q, bed_obj, sigma) for r, q in zip(runners, qs))
    return step


def conjunction(cobuchis, buchis, name):
    """Intersection of co-Büchi and Büchi runners as a one-pair runner.

    The components run in lockstep.  A round-robin watcher waits for each
    Büchi component in turn to visit its set and ticks whenever it has seen
    all of them once more; without Büchi components every state ticks.
    The pair avoids the states where some co-Büchi component is in its set
    and meets the ticks.  States are ``(component states, watched index,
    tick)``, labelled ``name{label; label; ...}``.
    """
    runners = list(cobuchis) + list(buchis)
    nc, nb = len(cobuchis), len(buchis)
    inner = _lockstep(runners)

    def step(state, bed_obj, sigma):
        qs, rr, _ = state
        qs2 = inner(qs, bed_obj, sigma)
        if not nb:
            return (qs2, 0, True)
        if buchis[rr].accepting(qs[nc + rr]):
            rr = (rr + 1) % nb
            return (qs2, rr, rr == 0)
        return (qs2, rr, False)

    def avoid(state):
        return any(r.accepting(q) for r, q in zip(cobuchis, state[0]))

    def label(state):
        return "%s{%s}" % (name, "; ".join(r.label(q)
                                           for r, q in zip(runners, state[0])))

    return Runner((tuple(r.init for r in runners), 0, not nb), step,
                  pairs=[(avoid, lambda state: state[2])], label=label)


def union(runners):
    """Union of Rabin runners: their lockstep product, every pair lifted.

    States are tuples of component states, labelled ``label || label ...``;
    the pairs come in component order.
    """
    runners = list(runners)
    pairs = [(lambda qs, i=i, p=avoid: p(qs[i]),
              lambda qs, i=i, p=meet: p(qs[i]))
             for i, r in enumerate(runners) for avoid, meet in r.pairs]
    return Runner(tuple(r.init for r in runners), _lockstep(runners),
                  pairs=pairs,
                  label=lambda qs: " || ".join(r.label(q)
                                               for r, q in zip(runners, qs)))


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
