"""Workload inputs: frozen formula lists and seeded lasso words.

The corpus is a frozen copy of ``tests/test_acceptance.py::CORPUS`` so that
editing the tests cannot change what the benchmark measures;
``perfbench/tests`` reports any drift between the two.
"""

from __future__ import annotations

import random

AP3 = ("p", "q", "r")

CORPUS = (
    "tt", "ff", "Y tt", "wY ff", "X(p S X q)",
    "G(p <-> O q & O r)",
    "((!p & !q) W (r & ((!p & !q) W (p & q)))"
    " | (!p & !r) W (q & ((!p & !r) W (p & r)))) & G(p -> X G p)",
    "G(p -> X G p)",
    "p", "!p", "p & q", "p | !q", "X p", "X X p",
    "F p", "G p", "G F p", "F G p", "F G p | G F q",
    "p U q", "p W q", "p R q", "p M q",
    "p U (q U r)", "(p U q) R r", "p W (q M r)", "G(F p & F q)",
    "G(p | X p)", "G(p -> F q)", "F(p & X q)", "G p -> G q",
    "Y p", "wY p", "p S q", "p wS q", "p B q", "p wB q",
    "O p", "H p", "O(p & Y q)", "H(p | q)", "F H p", "G O p",
    "G(p -> O q)", "F(p & Y p)", "(Y p) U q", "(O p) & (H q)",
    "G((p S q) -> r)", "F(p wS q)", "X(p B X q)", "G(p <-> Y p)",
    "F G(p -> O q)", "G(p -> Y q)", "F(q & O p)", "wY (p S q)",
)


def past_width_case(n):
    """``G(p <-> O q1 & ... & O qn)`` over its own propositions."""
    qs = ["q%d" % i for i in range(1, n + 1)]
    return "G(p <-> %s)" % " & ".join("O " + q for q in qs), ["p"] + qs


def extra_props(k):
    return ["x%02d" % i for i in range(k)]


def workload(name):
    """The workload's translation cases and its run shape.

    Each case is ``(formula text, AP list)``.  ``isolate`` runs every
    case in its own interpreter instead of one interpreter per pass.
    ``case_cap_s`` is the wall-time cap of one case (an undecided case counts
    at this value) and ``mem_cap_mb`` the address-space cap of a child.
    """
    if name == "corpus":
        cases = [(text, list(AP3)) for text in CORPUS]
        return dict(cases=cases, isolate=False, words=200,
                    case_cap_s=30.0, mem_cap_mb=2048)
    if name == "past_width":
        cases = [past_width_case(n) for n in (1, 2, 3)]
        cases += [("G(p <-> Y q)", ["p", "q"]),
                  ("G(p <-> Y Y q)", ["p", "q"])]
        return dict(cases=cases, isolate=True, words=2500,
                    case_cap_s=4.0, mem_cap_mb=1024)
    if name == "alphabet_width":
        cases = [("G p", ["p"] + extra_props(k)) for k in range(13)]
        return dict(cases=cases, isolate=False, words=1500,
                    case_cap_s=30.0, mem_cap_mb=2048)
    raise KeyError(name)


WORKLOADS = ("corpus", "past_width", "alphabet_width")


def random_words(seed, key, ap, count):
    """``count`` lasso words over ``ap`` as (prefix, period) letter tuples.

    The stream depends only on ``seed`` and ``key`` (string seeding is
    independent of hash randomization), so every pass of a run and every
    process checks the same words.
    """
    rng = random.Random("%s/%s" % (seed, key))
    ap = sorted(ap)
    letters = [frozenset(p for j, p in enumerate(ap) if i >> j & 1)
               for i in range(1 << len(ap))]

    def letter():
        return letters[rng.getrandbits(len(ap))]

    out = []
    for _ in range(count):
        prefix = tuple(letter() for _ in range(rng.randint(0, 4)))
        period = tuple(letter() for _ in range(rng.randint(1, 4)))
        out.append((prefix, period))
    return out
