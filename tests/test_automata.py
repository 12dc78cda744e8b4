import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate import certify
from pastdra.automata import (OmegaAutomaton, accepts, letters_for,
                              minimize, state_marks, widen)
from pastdra.hoa import export_dot, export_hoa, parse_hoa
from pastdra.lasso import LassoWord, parse_word


def test_letters_for_order():
    assert letters_for(()) == [frozenset()]
    assert letters_for(("p", "q")) == [
        frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})]


def _mod_counter(ap, n, acc):
    # counts letters mod n, ignores the alphabet
    width = 1 << len(ap)
    return OmegaAutomaton(
        ap=tuple(ap), init=0,
        trans=[[(q + 1) % n] * width for q in range(n)],
        labels=[str(q) for q in range(n)], acc=acc)


def _p_tracker(acc):
    # state 1 iff the last letter contained p
    return OmegaAutomaton(
        ap=("p",), init=0,
        trans=[[0, 1], [0, 1]],
        labels=["!p", "p"], acc=acc)


def _p_tracker_hoa(acc_name, acceptance, marks=("", " {0}")):
    # the same tracker written as HOA, by default with state 1 in acceptance
    # set 0
    return parse_hoa("\n".join([
        "HOA: v1", "States: 2", "Start: 0", 'AP: 1 "p"',
        "acc-name: " + acc_name, "Acceptance: " + acceptance, "--BODY--",
        'State: 0 "!p"' + marks[0], "0 1",
        'State: 1 "p"' + marks[1], "0 1", "--END--"]))


INF_P = ("generalized-rabin", ((frozenset(), (frozenset({1}),)),))


def test_audit_accepts_wellformed():
    assert _p_tracker(INF_P).audit()
    assert _mod_counter(("p",), 3, ("generalized-rabin", (
        (frozenset({0}), (frozenset({1}), frozenset({2}))),
        (frozenset({1}), ())))).audit()


@pytest.mark.parametrize("acc", [
    ("rabin", ((frozenset(), frozenset({1})),)),        # the old pair form
    ("generalized-rabin", ((frozenset(), frozenset({1})),)),
    ("generalized-rabin", ((frozenset(), (frozenset({2}),)),)),
])
def test_audit_rejects_bad_acceptance(acc):
    with pytest.raises(AssertionError):
        _p_tracker(acc).audit()


def test_audit_rejects_bad_transition():
    a = _p_tracker(INF_P)
    a.trans[0][1] = 7
    with pytest.raises(AssertionError):
        a.audit()


def test_audit_rejects_a_repeated_proposition():
    a = OmegaAutomaton(("p", "p"), 0, [[0] * 4], [""],
                       ("generalized-rabin", ()))
    with pytest.raises(AssertionError):
        a.audit()


def test_state_marks_number_the_sets_as_hoa_does():
    # pair 0 is sets 0-2 and shares state 2 with the co-Büchi pair 1 (set
    # 3) and state 1 with pair 2 (sets 4 and 5); state 3 lies in no set
    pairs = ((frozenset({0}), (frozenset({1, 2}), frozenset({2}))),
             (frozenset({2}), ()),
             (frozenset(), (frozenset({1}),)))
    assert state_marks(pairs, 4) == [[0], [1, 5], [1, 2, 3], []]
    auto = _mod_counter(("p",), 4, ("generalized-rabin", pairs))
    auto.labels = [""] * 4
    hoa, dot = export_hoa(auto), export_dot(auto)
    for line in ("State: 0 {0}", "State: 1 {1 5}", "State: 2 {1 2 3}",
                 "State: 3"):
        assert "\n%s\n" % line in hoa
    for line in ('q0 [shape=doublecircle,label="0 [0]"];',
                 'q1 [shape=doublecircle,label="1 [1,5]"];',
                 'q2 [shape=doublecircle,label="2 [1,2,3]"];',
                 'q3 [shape=circle,label="3"];'):
        assert "\n  %s\n" % line in dot
    assert parse_hoa(hoa).acc == auto.acc


def test_accepts_buchi():
    a = _p_tracker_hoa("Buchi", "1 Inf(0)")
    assert a.acc == ("generalized-rabin", ((frozenset(), (frozenset({1}),)),))
    a.audit()
    assert accepts(a, parse_word("; {p}"))
    assert accepts(a, parse_word("; {p},{}"))
    assert not accepts(a, parse_word("{p} ; {}"))


def test_accepts_cobuchi():
    a = _p_tracker_hoa("co-Buchi", "1 Fin(0)")
    assert a.acc == ("generalized-rabin", ((frozenset({1}), ()),))
    a.audit()
    assert not accepts(a, parse_word("; {p},{}"))
    assert accepts(a, parse_word("{p},{p} ; {}"))


def test_accepts_rabin():
    # avoid state 1 while meeting state 0 infinitely often; the condition,
    # not acc-name:, says which set is which
    a = _p_tracker_hoa("Rabin 1", "2 Fin(1)&Inf(0)", (" {0}", " {1}"))
    assert a.acc == ("generalized-rabin",
                     ((frozenset({1}), (frozenset({0}),)),))
    a.audit()
    assert accepts(a, parse_word("{p} ; {}"))
    assert not accepts(a, parse_word("; {}, {p}"))


def _last_letter_tracker(acc):
    # state 1 iff the last letter was {p}, 2 iff it was {q}, else 0
    return OmegaAutomaton(
        ap=("p", "q"), init=0, trans=[[0, 1, 2, 0]] * 3,
        labels=["-", "p", "q"], acc=acc)


def test_accepts_two_meet_sets():
    # one pair: {p} and {q} both recur
    both = (frozenset(), (frozenset({1}), frozenset({2})))
    a = _last_letter_tracker(("generalized-rabin", (both,)))
    a.audit()
    assert accepts(a, parse_word("; {p},{q}"))
    assert accepts(a, parse_word("{p} ; {q},{},{p,q},{p}"))
    assert not accepts(a, parse_word("; {p}"))
    assert not accepts(a, parse_word("{p} ; {q}"))
    # avoiding state 0 as well
    a.acc = ("generalized-rabin", ((frozenset({0}), both[1]),))
    assert accepts(a, parse_word("{} ; {p},{q}"))
    assert not accepts(a, parse_word("; {p},{q},{}"))
    # a second pair, co-Büchi on {q}, accepts what the first one does not
    a.acc = ("generalized-rabin", (both, (frozenset({2}), ())))
    assert accepts(a, parse_word("; {p}"))
    assert accepts(a, parse_word("; {p},{q}"))
    assert not accepts(a, parse_word("; {q}"))


def test_accepts_ignores_foreign_props():
    a = _p_tracker(INF_P)
    assert accepts(a, parse_word("; {p,q}"))
    # letters that are not frozensets are read the same way
    assert accepts(a, LassoWord((), ({"p", "q"},)))
    assert not accepts(a, LassoWord(({"p"},), ({"q"}, set())))
    assert a.letter_index == {frozenset(): 0, frozenset({"p"}): 1}


@pytest.mark.parametrize("period", ["{}", "{p},{}"])
def test_accepts_walks_several_laps(period):
    # a mod-5 counter on a cycle of one or two letters: the lap-start state
    # first repeats after five laps, and every state recurs
    meets = tuple(frozenset({q}) for q in range(5))
    for prefix in ("", "{p}", "{},{},{}"):
        w = parse_word(prefix + ";" + period)
        for pair, want in (((frozenset(), meets[4:]), True),
                           ((frozenset(), meets), True),
                           ((frozenset({3}), meets[:1]), False)):
            a = _mod_counter(("p",), 5, ("generalized-rabin", (pair,)))
            assert accepts(a, w) == _reference_accepts(a, w) == want


def _reference_accepts(auto, word):
    # one step per position: the run is followed until the (state, position
    # in the word) pair repeats
    bit = {p: 1 << j for j, p in enumerate(auto.ap)}
    letters = [sum(bit.get(p, 0) for p in sigma)
               for sigma in word.prefix + word.period]
    n, loop = len(letters), len(word.prefix)
    q, i, seen, trace = auto.init, 0, {}, []
    while (q, i) not in seen:
        seen[q, i] = len(trace)
        trace.append(q)
        q = auto.trans[q][letters[i]]
        i = i + 1 if i + 1 < n else loop
    inf = set(trace[seen[q, i]:])
    return any(inf.isdisjoint(avoid)
               and not any(inf.isdisjoint(meet) for meet in meets)
               for avoid, meets in auto.acc[1])


def _random_case(rng):
    # a complete automaton with 1-8 states over 0-3 propositions and 0-3
    # pairs of 0-2 meet sets each, and lasso words whose letters may name a
    # proposition outside the AP or be plain sets
    ap = ("p", "q", "r")[:rng.randint(0, 3)]
    n = rng.randint(1, 8)

    def states():
        return frozenset(q for q in range(n) if rng.random() < 0.3)

    pairs = tuple((states(), tuple(states() for _ in range(rng.randint(0, 2))))
                  for _ in range(rng.randint(0, 3)))
    trans = [[rng.randrange(n) for _ in range(1 << len(ap))]
             for _ in range(n)]
    auto = OmegaAutomaton(ap, rng.randrange(n), trans,
                          [str(q) for q in range(n)],
                          ("generalized-rabin", pairs))

    def letter():
        names = {p for p in ap + ("z",) if rng.random() < 0.5}
        return names if rng.random() < 0.3 else frozenset(names)

    words = [LassoWord(tuple(letter() for _ in range(rng.randint(0, 4))),
                       tuple(letter() for _ in range(rng.randint(1, 4))))
             for _ in range(5)]
    return auto, words


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_accepts_matches_step_per_position(rng):
    auto, words = _random_case(rng)
    auto.audit()
    for w in words:
        assert accepts(auto, w) == _reference_accepts(auto, w), (auto, w)


def _over_p(trans, *pairs, init=0):
    # an automaton over {p}, state q labelled str(q)
    return OmegaAutomaton(("p",), init, trans,
                          [str(q) for q in range(len(trans))],
                          ("generalized-rabin", pairs))


def _set(*states):
    return frozenset(states)


# 0 goes to 1 on {} and to 2 on {p}; 1 and 2 loop, so they are equivalent
# unless some acceptance set holds one of them only
_FORK = [[1, 2], [1, 1], [2, 2]]


def test_minimize_merges_equivalent_states():
    got = minimize(_over_p(_FORK, (_set(), (_set(1, 2),))))
    assert got.trans == [[1, 1], [1, 1]]
    assert got.acc == ("generalized-rabin", ((_set(), (_set(1),)),))


def test_minimize_names_a_class_after_its_first_state():
    auto = _over_p(_FORK, (_set(), (_set(1, 2),)))
    auto.labels = ["a", "b", "c"]
    assert minimize(auto).labels == ["a", "b"]


def test_minimize_keeps_states_apart_by_one_meet_set():
    pair = (_set(), (_set(1, 2), _set(1)))
    auto = _over_p(_FORK, pair)
    assert minimize(auto) == auto


def test_minimize_drops_a_repeated_pair():
    buchi, cobuchi = (_set(), (_set(1, 2),)), (_set(0), ())
    got = minimize(_over_p(_FORK, buchi, cobuchi, buchi))
    assert got.acc[1] == ((_set(), (_set(1),)), (_set(0), ()))


def test_minimize_drops_a_pair_that_accepts_nothing():
    # a meet set inside the avoid set (the empty meet set too) leaves no
    # run to accept; a pair without meet sets is co-Büchi and stays
    dead = [(_set(1, 2), (_set(1, 2),)), (_set(), (_set(),)),
            (_set(0), (_set(1, 2), _set(0)))]
    cobuchi = (_set(1, 2), ())
    got = minimize(_over_p(_FORK, *dead[:2], cobuchi, dead[2]))
    assert got.acc[1] == ((_set(1), ()),)
    assert got.n_states() == 2


def test_minimize_drops_unreachable_states_and_numbers_in_bfs_order():
    # from 3: 1 on {}, 0 on {p}; 1 -> 2; 0 and 2 apart by their sets; 4 is
    # unreachable, so the pair that meets it alone accepts nothing
    auto = _over_p([[0, 0], [2, 2], [2, 3], [1, 0], [4, 4]],
                   (_set(4), (_set(0),)), (_set(), (_set(4),)),
                   (_set(), (_set(2, 4),)), init=3)
    got = minimize(auto)
    assert got.init == 0 and got.labels == ["3", "1", "0", "2"]
    assert got.trans == [[1, 2], [3, 3], [2, 2], [3, 0]]
    assert got.acc[1] == ((_set(), (_set(2),)), (_set(), (_set(3),)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_minimize_is_an_idempotent_exact_quotient(rng):
    auto, words = _random_case(rng)
    got = minimize(auto)
    got.audit()
    certify(auto, got)
    assert minimize(got) == got
    for w in words:
        assert accepts(got, w) == accepts(auto, w), (auto, w)


def test_widen_copies_each_row_by_restriction():
    # over (b, d) a letter's column has b at bit 0 and d at bit 1; over
    # (a, b, c, d) they move to bits 1 and 3, and a and c are ignored
    auto = OmegaAutomaton(("b", "d"), 0, [[0, 1, 2, 3]] * 4,
                          ["", "b", "d", "bd"], INF_P)
    wide = widen(auto, ("a", "b", "c", "d"))
    assert wide.ap == ("a", "b", "c", "d")
    assert wide.trans == [[0, 0, 1, 1, 0, 0, 1, 1,
                           2, 2, 3, 3, 2, 2, 3, 3]] * 4
    assert (wide.init, wide.labels, wide.acc) == (0, auto.labels, INF_P)
    assert accepts(wide, parse_word("; {a,b,c},{}"))
    assert not accepts(wide, parse_word("; {a,c}"))
    for ap in (("a", "b"), ("b", "b", "d"), ("b", "d", "d")):
        with pytest.raises(ValueError):     # a name missing or repeated
            widen(auto, ap)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_widen_commutes_with_minimize(rng):
    # names drawn among and between the automaton's own, so its bits need
    # not come first
    auto, _ = _random_case(rng)
    ap = tuple(sorted(set(auto.ap) | {
        p for p in ("a", "pq", "qr", "s") if rng.random() < 0.5}))
    wide = widen(auto, ap)
    wide.audit()
    assert minimize(wide) == widen(minimize(auto), ap)
    assert widen(auto, auto.ap) is auto
    for _ in range(5):
        word = tuple(frozenset(p for p in ap + ("z",) if rng.random() < 0.5)
                     for _ in range(rng.randint(1, 6)))
        k = rng.randrange(len(word))
        w = LassoWord(word[:k], word[k:])
        assert accepts(wide, w) == accepts(auto, w), (auto, ap, w)
