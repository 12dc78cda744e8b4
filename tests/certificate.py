"""Exactness certificate for ``automata.minimize``, checked from outside.

``certify(raw, reduced)`` decides that ``reduced`` accepts exactly the
words ``raw`` accepts, and that no smaller quotient of it keeps its sets,
without calling ``minimize``:

- walking both automata in lockstep from their initial states gives a map
  h from raw to reduced states; it must be a function, onto;
- each raw pair that can accept some run (no meet set whose reachable
  states lie inside its avoid set) must have h-saturated sets: a
  reachable raw state lies in a set iff its image lies in the image of
  that set.  A run and its image then visit the same sets infinitely
  often;
- the reduced pairs must be the images of those raw pairs, in order, each
  kept at its first appearance.  A raw pair with a meet set inside its
  avoid set accepts no run, so dropping it changes no word;
- no two reduced states may be equivalent: a naive pairwise Moore check
  over every column distinguishes every pair;
- a reduced state is named after the first raw state, in BFS order, that
  maps to it.

Each check raises AssertionError explicitly, so it also runs under ``-O``.
"""

from itertools import combinations


def _check(ok, *why):
    if not ok:
        raise AssertionError(*why)


def lockstep(raw, reduced):
    """The map h from the raw states reachable from ``raw.init`` to the
    states of ``reduced``, and those raw states in BFS order."""
    h, order = {raw.init: reduced.init}, [raw.init]
    for q in order:             # grows as states are reached
        for c, q2 in enumerate(raw.trans[q]):
            r2 = reduced.trans[h[q]][c]
            if q2 in h:
                _check(h[q2] == r2, "h is not a function", q2, h[q2], r2)
            else:
                h[q2] = r2
                order.append(q2)
    _check(set(h.values()) == set(range(reduced.n_states())), "h is not onto")
    return h, order


def _image(group, h):
    return frozenset(h[q] for q in group if q in h)


def certify(raw, reduced):
    """Raise AssertionError unless ``reduced`` is the pruned Moore quotient
    of ``raw`` described in the module docstring."""
    h, order = lockstep(raw, reduced)
    want = []
    for avoid, meets in raw.acc[1]:
        if any(m & h.keys() <= avoid for m in meets):
            continue
        for group in (avoid,) + meets:
            image = _image(group, h)
            _check(all((q in group) == (h[q] in image) for q in h),
                   "a set is not h-saturated")
        pair = (_image(avoid, h), tuple(_image(m, h) for m in meets))
        if pair not in want:
            want.append(pair)
    _check(list(reduced.acc[1]) == want, "reduced pairs are not the images")
    first = {}
    for q in order:
        first.setdefault(h[q], q)
    _check(reduced.labels == [raw.labels[first[r]]
                              for r in range(reduced.n_states())],
           "a state is not named after its first raw state")
    assert_no_equivalent_states(reduced)


def assert_no_equivalent_states(auto):
    """Naive Moore check: start from the pairs of states that differ in
    some acceptance set, add every pair with a distinguished pair of
    successors on some column, and require every pair distinguished."""
    n, trans = auto.n_states(), auto.trans
    sets = [s for avoid, meets in auto.acc[1] for s in (avoid,) + meets]
    sig = [tuple(q in s for s in sets) for q in range(n)]
    apart = {(p, q) for p, q in combinations(range(n), 2)
             if sig[p] != sig[q]}
    changed = True
    while changed:
        changed = False
        for p, q in combinations(range(n), 2):
            if (p, q) in apart:
                continue
            if any((min(a, b), max(a, b)) in apart
                   for a, b in zip(trans[p], trans[q])):
                apart.add((p, q))
                changed = True
    _check(len(apart) == n * (n - 1) // 2, "two reduced states are equivalent")
