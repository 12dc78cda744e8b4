"""Deterministic omega-automata with explicit, complete transition tables.

States are integers in BFS order: :func:`_explore` numbers every automaton
built here.  The alphabet is the powerset of the atomic propositions, with
letter index ``i`` setting proposition ``ap[j]`` iff bit ``j`` of ``i`` is
set.  :func:`_explore` steps on these columns, so each automaton builds
one letter table: ``letters[i]`` is letter ``i`` as a frozenset,
``letter_index`` maps it back to ``i``.  :func:`widen` adds
propositions that no state reads: each letter steps like its restriction
to the old ones, so the table is copied, not explored.  Acceptance has one
form, generalized Rabin, ``("generalized-rabin", pairs)``: a pair
``(avoid, meets)`` is a set and a tuple of sets, and the automaton accepts
iff for some pair Inf avoids ``avoid`` and meets every set in ``meets``.
A Büchi set S is the one pair (∅, (S,)), a co-Büchi set S the one pair
(S, ()), and a plain Rabin pair has one meet set.  :func:`state_marks` is
the one reader of the sets each state lies in.

A label is a state name that :func:`~pastdra.hoa.parse_hoa` read, or ``""``.
:func:`minimize` merges the states that no word tells apart (a Moore
quotient): the pairs keep their order, less the repeated ones and those
that accept nothing, and a merged state is named after its first state.
:func:`degeneralize` turns a generalized automaton into a plain Rabin
automaton with one counter per pair; it stops at ``max_states``,
``DEFAULT_MAX_STATES`` unless given.  :func:`accepts` reads a lasso word
through the letter table and walks its cycle a lap at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_MAX_STATES = 200000


def letters_for(ap):
    letters = [frozenset()]
    for p in ap:                # letters with bit j set follow the others
        letters += [s | {p} for s in letters]
    return letters


@dataclass
class OmegaAutomaton:
    ap: tuple                 # sorted proposition names
    init: int
    trans: list               # trans[state][letter_index] -> state
    labels: list              # state names, "" for an unnamed state
    acc: tuple                # ("generalized-rabin", pairs) as above

    def __post_init__(self):
        self.letters = letters_for(self.ap)
        self.letter_index = {s: i for i, s in enumerate(self.letters)}

    def n_states(self):
        return len(self.trans)

    def audit(self):
        """Check determinism, completeness and acceptance well-formedness;
        raise AssertionError explicitly, so it also checks under ``-O``."""
        n, width = len(self.trans), 1 << len(self.ap)
        kind, pairs = self.acc
        if kind != "generalized-rabin":
            raise AssertionError("unknown acceptance %r" % (kind,))
        if len(set(self.ap)) != len(self.ap):
            raise AssertionError("repeated proposition in %r" % (self.ap,))
        if not (0 <= self.init < n and len(self.labels) == n):
            raise AssertionError("initial state or labels do not fit")
        for row in self.trans:
            if len(row) != width or not all(
                    isinstance(q, int) and 0 <= q < n for q in row):
                raise AssertionError("bad transition row %r" % (row,))
        for pair in pairs:
            if not (len(pair) == 2 and isinstance(pair[1], tuple)):
                raise AssertionError("bad acceptance pair %r" % (pair,))
            avoid, meets = pair
            if not all(0 <= q < n for q in avoid.union(*meets)):
                raise AssertionError("acceptance state out of range")
        return True


class StateLimitExceeded(Exception):
    pass


def _explore(width, init_state, succ, max_states):
    """Deterministic BFS materialization: the states in discovery order and
    the transition table over their indices, ``succ(q, i)`` stepping on
    column ``i`` for ``i < width``; no letter is built here."""
    index, order, trans = {init_state: 0}, [init_state], []
    for q in order:             # grows as states are discovered
        row = []
        for i in range(width):
            q2 = succ(q, i)
            j = index.get(q2)
            if j is None:
                j = len(order)
                if j >= max_states:
                    raise StateLimitExceeded(max_states)
                index[q2] = j
                order.append(q2)
            row.append(j)
        trans.append(row)
    return order, trans


def state_marks(pairs, n):
    """For each of the ``n`` states, the acceptance sets it lies in, in
    ascending order.  The sets are numbered as in HOA: each pair's
    consecutively, its avoid set first, then its meet sets."""
    marks, k = [[] for _ in range(n)], 0
    for avoid, meets in pairs:
        for group in (avoid,) + meets:
            for q in group:
                marks[q].append(k)
            k += 1
    return marks


def minimize(auto):
    """The Moore quotient of a generalized Rabin automaton, less the pairs
    that cannot accept; it accepts the same words.

    A pair is dropped when it repeats an earlier pair or when, on the
    reachable states, one of its meet sets lies inside its avoid set: no
    run meets that set and avoids the avoid set.  The reachable states are
    split by their membership in every set of the kept pairs, then by the
    classes of their successors until no class splits.  Every kept set is
    then a union of classes, so a run and its image visit the same sets
    infinitely often (Hopcroft 1971).  :func:`_explore` numbers the
    classes in BFS order from the initial state's, each is named after its
    first state in BFS order, and the kept pairs keep their order.  No two states of the result are
    equivalent, but a smaller equivalent automaton with other sets may
    exist: minimal deterministic Büchi automata are NP-hard to find
    (Schewe, FSTTCS 2010).
    """
    trans, width = auto.trans, len(auto.letters)
    order, rows = _explore(width, auto.init, lambda q, i: trans[q][i],
                           len(trans))
    seen = frozenset(order)
    pairs = []                  # the pairs kept, on the reached states
    for avoid, meets in auto.acc[1]:
        pair = avoid & seen, tuple(m & seen for m in meets)
        if pair not in pairs and not any(m <= pair[0] for m in pair[1]):
            pairs.append(pair)
    marks = state_marks(pairs, len(trans))
    blocks = {}                 # a class is numbered by its first position
    cls = [blocks.setdefault(tuple(marks[q]), p) for p, q in enumerate(order)]
    while True:                 # each round refines the last
        count, blocks, get = len(blocks), {}, cls.__getitem__
        refined = [blocks.setdefault((b, *map(get, row)), p)
                   for p, (b, row) in enumerate(zip(cls, rows))]
        if len(blocks) == count:
            break
        cls = refined
    firsts, qtrans = _explore(width, 0, lambda p, i: cls[rows[p][i]],
                              len(order))
    reps = [order[p] for p in firsts]

    def image(s):               # a set holds whole classes
        return frozenset(j for j, q in enumerate(reps) if q in s)

    acc = tuple((image(avoid), tuple(map(image, meets)))
                for avoid, meets in pairs)
    return OmegaAutomaton(auto.ap, 0, qtrans, [auto.labels[q] for q in reps],
                          ("generalized-rabin", acc))


def widen(auto, ap):
    """``auto`` over the sorted superset ``ap`` of its propositions, each
    letter stepping like its restriction to ``auto.ap``; ``auto`` itself
    when the two are equal.  A name missing or repeated in ``ap`` raises
    ValueError.  The rows are copied, so no state is stepped."""
    ap = tuple(ap)
    if len(set(ap)) != len(ap):
        raise ValueError("%r repeats a proposition" % (ap,))
    if ap == auto.ap:
        return auto
    if not set(auto.ap) <= set(ap):
        raise ValueError("%r does not widen %r" % (ap, auto.ap))
    bit = {p: 1 << j for j, p in enumerate(auto.ap)}
    cols = [0]                  # column -> its restriction's column
    for p in ap:                # as in letters_for
        cols += [c | bit.get(p, 0) for c in cols]
    return OmegaAutomaton(ap, auto.init,
                          [[row[c] for c in cols] for row in auto.trans],
                          list(auto.labels), auto.acc)


def degeneralize(auto, max_states=DEFAULT_MAX_STATES):
    """The plain Rabin automaton (one meet set per pair) of a generalized
    Rabin automaton, with the same labels and pairs in the same order.

    A state is ``(q, counters)`` with one counter per pair.  Counter ``b``
    names the meet set awaited next and moves on when a step leaves a state
    in it; pair ``b`` avoids the states ``(q, rs)`` with ``q`` in its avoid
    set and meets those whose step closes a round (every state, without
    meet sets).  Raises :class:`StateLimitExceeded` when exploration would
    pass ``max_states``.
    """
    pairs = auto.acc[1]

    def succ(state, i):
        q, rs = state
        rs = tuple((r + 1) % len(meets) if meets and q in meets[r] else r
                   for (_, meets), r in zip(pairs, rs))
        return auto.trans[q][i], rs

    order, trans = _explore(len(auto.letters), (auto.init, (0,) * len(pairs)),
                            succ, max_states)
    acc = ("generalized-rabin", tuple(
        (frozenset(i for i, (q, _) in enumerate(order) if q in avoid),
         (frozenset(i for i, (q, rs) in enumerate(order)
                    if not meets or rs[b] == len(meets) - 1
                    and q in meets[-1]),))
        for b, (avoid, meets) in enumerate(pairs)))
    return OmegaAutomaton(auto.ap, 0, trans,
                          [auto.labels[q] for q, _ in order], acc)


def accepts(auto, word):
    """Whether the automaton accepts the lasso word.

    Letters are read through the letter table; one missing from it (naming
    propositions outside the AP, or not a frozenset) is restricted to the
    AP first.  After the prefix the run walks whole laps of the cycle until
    a lap-start state repeats; the laps since its first visit repeat
    forever and visit exactly the states in Inf."""
    index, trans, q = auto.letter_index, auto.trans, auto.init
    try:
        cols = [index[s] for s in word.prefix + word.period]
    except (KeyError, TypeError):
        ap = frozenset(auto.ap)
        cols = [index[ap.intersection(s)] for s in word.prefix + word.period]
    k = len(word.prefix)
    for c in cols[:k]:
        q = trans[q][c]
    cycle, lap, trace = cols[k:], {}, []
    while q not in lap:
        lap[q] = len(trace)
        for c in cycle:
            trace.append(q)
            q = trans[q][c]
    inf = set(trace[lap[q]:])
    for avoid, meets in auto.acc[1]:
        if inf.isdisjoint(avoid) and not any(map(inf.isdisjoint, meets)):
            return True
    return False
