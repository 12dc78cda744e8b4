import random
from dataclasses import replace

import pytest

from pastdra import formula as F
from pastdra.automata import StateLimitExceeded, accepts
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.hoa import export_dot, export_hoa, parse_hoa
from pastdra.lasso import holds, parse_word
from pastdra.translate import translate, translation_stats

parse = F.parse

WORDS = ["; {}", "; {p}", "; {q}", "{p} ; {}", "{q} ; {p}",
         "; {p},{}", "; {p},{q}", "{p},{q} ; {q},{}"]


def _agree(f, words=WORDS, ap=None):
    auto = translate(parse(f), ap)
    auto.audit()
    for text in words:
        w = parse_word(text)
        assert accepts(auto, w) == holds(parse(f), w, 0), (f, text)
    return auto


def test_constants():
    t = translate(F.true())
    assert t.n_states() == 1 and accepts(t, parse_word("; {}"))
    f = translate(F.false())
    assert f.n_states() == 1 and not accepts(f, parse_word("; {}"))


def test_initial_instant_past():
    # strong yesterday of truth is still false at the first instant
    y = translate(parse("Y tt"))
    assert not accepts(y, parse_word("; {}"))
    wy = translate(parse("wY ff"))
    assert accepts(wy, parse_word("; {p}"))


def test_simple_temporal_languages():
    _agree("G p")
    _agree("F p")
    _agree("p U q")
    _agree("p R q")
    _agree("G F p")
    _agree("F G p")


def test_past_languages():
    _agree("X(p S X q)")
    _agree("G(p -> O q)")
    _agree("p B q")
    _agree("H p")


def test_stats_shape():
    phi = parse("G p")
    auto = translate(phi)
    st = translation_stats(phi, auto)
    assert st["states"] == auto.n_states()
    assert st["pairs"] == len(auto.acc[1])
    assert st["past_sets"] == 1 and st["ap"] == 1
    assert st["n"] == 2 and st["m"] == 0


def test_pair_count_bounded_by_limit_subsets():
    rng = random.Random(31)
    for _ in range(25):
        phi = random_formula_bounded(rng, ("p", "q"), max_size=4, max_past=1)
        auto = translate(phi)
        k = len(F.mu_subformulas(phi)) + len(F.nu_subformulas(phi))
        assert len(auto.acc[1]) <= 1 << k


def test_extra_ap():
    auto = translate(parse("G p"), ap=["p", "q"])
    assert auto.ap == ("p", "q")
    assert accepts(auto, parse_word("; {p,q}"))


def test_state_limit():
    with pytest.raises(StateLimitExceeded):
        translate(parse("G(p <-> O q & O r)"), max_states=4)


def test_rabin_component_is_one_witness():
    auto = translate(parse("F p"))
    # branches come in subset order: pair 1 is the guess M = {F p}, N = {}
    assert auto.labels[0].split(" || ")[1].startswith("M=['F p'] N=[] {")
    comp = replace(auto, acc=("rabin", auto.acc[1][1:2]))
    comp.audit()
    # the full-M branch accepts exactly the words where p recurs
    assert accepts(comp, parse_word("; {p}"))
    assert accepts(comp, parse_word("; {p},{}"))
    assert not accepts(comp, parse_word("{p} ; {}"))


def test_hoa_round_trip():
    auto = translate(parse("G(p -> O q)"))
    text = export_hoa(auto, name="x")
    back = parse_hoa(text)
    assert back.n_states() == auto.n_states()
    assert back.ap == auto.ap and back.acc[0] == auto.acc[0]
    for w in WORDS:
        assert accepts(back, parse_word(w)) == accepts(auto, parse_word(w))


def test_hoa_header():
    auto = translate(parse("G p"))
    lines = export_hoa(auto).splitlines()
    assert lines[0] == "HOA: v1"
    assert "acc-name: Rabin 2" in lines
    assert "Acceptance: 4 (Fin(0)&Inf(1)) | (Fin(2)&Inf(3))" in lines


def test_dot_export_mentions_all_states():
    auto = translate(parse("F p"))
    dot = export_dot(auto)
    assert dot.startswith("digraph")
    for q in range(auto.n_states()):
        assert "q%d [" % q in dot


def test_random_agreement():
    rng = random.Random(33)
    for _ in range(40):
        phi = random_formula_bounded(rng, ("p", "q"), max_size=4, max_past=1)
        auto = translate(phi, ["p", "q"])
        for _ in range(20):
            w = random_lasso(rng, ("p", "q"))
            assert accepts(auto, w) == holds(phi, w, 0), (phi, w)
