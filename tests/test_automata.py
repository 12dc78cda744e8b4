import pytest

from pastdra.automata import (BedAutomaton, OmegaAutomaton, Runner,
                              StateLimitExceeded, accepts, cascade,
                              conjunction, letters_for, union)
from pastdra.lasso import parse_word


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


def test_audit_accepts_wellformed():
    assert _p_tracker(("buchi", frozenset({1}))).audit()
    assert _mod_counter(("p",), 3, ("rabin",
                                    [(frozenset({0}), frozenset({1}))])).audit()


def test_audit_rejects_bad_transition():
    a = _p_tracker(("buchi", frozenset({1})))
    a.trans[0][1] = 7
    with pytest.raises(AssertionError):
        a.audit()


def test_accepts_buchi():
    a = _p_tracker(("buchi", frozenset({1})))
    assert accepts(a, parse_word("; {p}"))
    assert accepts(a, parse_word("; {p},{}"))
    assert not accepts(a, parse_word("{p} ; {}"))


def test_accepts_cobuchi():
    a = _p_tracker(("cobuchi", frozenset({1})))
    assert not accepts(a, parse_word("; {p},{}"))
    assert accepts(a, parse_word("{p},{p} ; {}"))


def test_accepts_rabin():
    # avoid state 1 while meeting state 0 infinitely often
    a = _p_tracker(("rabin", [(frozenset({1}), frozenset({0}))]))
    assert accepts(a, parse_word("{p} ; {}"))
    assert not accepts(a, parse_word("; {}, {p}"))


def test_accepts_ignores_foreign_props():
    a = _p_tracker(("buchi", frozenset({1})))
    assert accepts(a, parse_word("; {p,q}"))


def _one_state_bed(ap):
    return BedAutomaton(ap=tuple(ap), init=0, trans=[[0] * (1 << len(ap))],
                        labels=["-"], state_objs=[None])


def _last_letter(prop, accepting=None, pairs=None):
    # state 1 iff the last letter contained the given proposition
    return Runner(init=0, step=lambda q, obj, s: int(prop in s),
                  accepting=accepting, pairs=pairs,
                  label=lambda q: ("" if q else "!") + prop)


def test_rabin_union_is_language_union():
    words = [parse_word("; {p}"), parse_word("; {}"),
             parse_word("{p} ; {}"), parse_word("; {p},{}")]
    bed = _one_state_bed(("p",))
    inf_p = _last_letter("p", pairs=[(lambda q: False, lambda q: q == 1)])
    fin_p = _last_letter("p", pairs=[(lambda q: q == 1, lambda q: q == 0)])
    u = cascade(bed, union([inf_p, fin_p]))
    u.audit()
    assert len(u.acc[1]) == 2
    assert u.labels[0] == "!p || !p | -"
    for w in words:
        assert accepts(u, w) == (accepts(cascade(bed, inf_p), w)
                                 or accepts(cascade(bed, fin_p), w))


def test_rabin_conjunction_single_pair():
    # Büchi "p infinitely often" and co-Büchi "q finitely often" conjoined
    bed = _one_state_bed(("p", "q"))
    buchi = _last_letter("p", accepting=lambda q: q == 1)
    cob = _last_letter("q", accepting=lambda q: q == 1)
    a = cascade(bed, conjunction([cob], [buchi], "c"))
    a.audit()
    assert a.acc[0] == "rabin" and len(a.acc[1]) == 1
    assert a.labels[0] == "c{!q; !p} | -"
    assert accepts(a, parse_word("; {p}"))
    assert accepts(a, parse_word("{q} ; {p},{}"))
    assert not accepts(a, parse_word("; {p,q}"))
    assert not accepts(a, parse_word("; {}"))
    # two Büchi components are watched in turn
    both = cascade(bed, conjunction(
        [], [buchi, _last_letter("q", accepting=lambda q: q == 1)], "c"))
    assert accepts(both, parse_word("; {p},{q}"))
    assert not accepts(both, parse_word("{q} ; {p}"))


def test_cascade_runner_sees_reached_bed_state():
    # bed flips between two states on p; the runner copies what it observes
    bed = BedAutomaton(ap=("p",), init=0,
                       trans=[[0, 1], [1, 0]], labels=["a", "b"],
                       state_objs=["a", "b"])
    run = Runner(init="a", step=lambda q, obj, s: obj,
                 pairs=[(lambda q: False, lambda q: q == "b")])
    a = cascade(bed, run)
    a.audit()
    assert accepts(a, parse_word("{p} ; {}"))  # bed reaches b and stays
    assert not accepts(a, parse_word("; {}"))  # bed never leaves a


def test_cascade_state_limit():
    bed = BedAutomaton(ap=("p",), init=0, trans=[[0, 0]], labels=["-"],
                       state_objs=[None])
    run = Runner(init=0, step=lambda q, obj, s: q + 1, pairs=[])
    with pytest.raises(StateLimitExceeded):
        cascade(bed, run, max_states=10)
