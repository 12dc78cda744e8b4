import random
import re
import sys
from dataclasses import replace

import pytest
from test_acceptance import CORPUS, FUTURE_HISTORY_SPEC

from pastdra import automata
from pastdra import formula as F
from pastdra import proplogic as P
from pastdra.automata import (DEFAULT_MAX_STATES, StateLimitExceeded,
                              _explore, accepts, degeneralize, letters_for)
from pastdra.gen import random_formula_bounded, random_lasso
from pastdra.hoa import export_dot, export_hoa, parse_hoa
from pastdra.lasso import holds, parse_word
from pastdra.translate import (BedAutomaton, Runner, TranslationContext,
                               _product, _step, build_wc_automaton, cascade,
                               explain, translate, translation_stats)

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
    t = translate(F.make(F.TRUE))
    assert t.n_states() == 1 and accepts(t, parse_word("; {}"))
    f = translate(F.make(F.FALSE))
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


def test_bed_steps_one_letter_per_class(monkeypatch):
    # G p over p and 12 propositions it does not read: unread propositions
    # cost nothing before the output.  The bed steps the two letters over
    # p, not 8,192, and only the output builds a table of the 8,192.
    module = sys.modules["pastdra.translate"]
    af_class, calls = module.af_class, []
    letters_for, tables = automata.letters_for, []
    build, beds, bed_calls = module.build_wc_automaton, [], []

    def counted(b, sigma):
        calls.append(sigma)
        return af_class(b, sigma)

    def counted_letters(ap):
        tables.append(tuple(ap))
        return letters_for(ap)

    def kept_bed(*args):
        before = len(calls)
        beds.append(build(*args))
        bed_calls.append(len(calls) - before)
        return beds[-1]

    monkeypatch.setattr(module, "af_class", counted)
    for m in (automata, module):
        monkeypatch.setattr(m, "letters_for", counted_letters)
    monkeypatch.setattr(module, "build_wc_automaton", kept_bed)
    ap = ["p"] + ["x%02d" % i for i in range(12)]
    auto = translate(parse("G p"), ap)
    [bed], [made] = beds, bed_calls
    assert auto.ap == tuple(ap) and len(bed.letters) == 2
    assert 0 < made <= 2 * len(bed.trans)
    assert tables.count(tuple(ap)) == 1
    # the runners too make the calls they make without the extra names
    wide = calls[:]
    del calls[:]
    translate(parse("G p"))
    assert calls == wide


def test_state_limit():
    with pytest.raises(StateLimitExceeded):
        translate(parse("G(p <-> O q & O r)"), max_states=4)


def test_rabin_component_is_one_witness():
    auto = translate(parse("F p"))
    # branches come in subset order: pair 1 is the guess M = {F p}, N = {}
    comp = replace(auto, acc=("generalized-rabin", auto.acc[1][1:2]))
    comp.audit()
    # the full-M branch accepts exactly the words where p recurs
    assert accepts(comp, parse_word("; {p}"))
    assert accepts(comp, parse_word("; {p},{}"))
    assert not accepts(comp, parse_word("{p} ; {}"))


def _letter_bed(ap):
    # the bed state is the letter just read, from the empty letter on
    letters = letters_for(ap)
    return BedAutomaton(ap=tuple(ap), letters=letters,
                        trans=[list(range(len(letters))) for _ in letters],
                        state_objs=letters)


def _last_letter(prop):
    # state 1 iff the last letter contained the given proposition; the set
    # is {1}, where the runner restarts from the letter the bed reached
    return Runner(init=0, step=lambda q, s: int(prop in s),
                  accepting=lambda q: q == 1,
                  restart=lambda letter: int(prop in letter))


def _states(bed, components):
    # the product states in cascade's order, explored from the shared step
    init, succ, _ = _step(bed, components)
    return _explore(len(bed.letters), init, succ, 100)[0]


def test_rabin_union_is_language_union():
    # one shared component: Büchi in one branch, co-Büchi in the other
    words = [parse_word("; {p}"), parse_word("; {}"),
             parse_word("{p} ; {}"), parse_word("; {p},{}")]
    bed = _letter_bed(("p",))
    last_p = _last_letter("p")
    steps = []

    def counted_step(q, sigma):
        steps.append((q, sigma))
        return last_p.step(q, sigma)

    counted = last_p._replace(step=counted_step)
    u = cascade(bed, [counted], [([], [0]), ([0], [])])
    u.audit()
    assert len(u.acc[1]) == 2
    assert _states(bed, [last_p]) == [((0,), 0), ((1,), 1)]
    # stepped once per (state, letter), not once per branch, and never
    # from state 1, which restarts
    assert len(steps) == len(set(steps)) == 2
    assert {q for q, _ in steps} == {0}
    inf_p = cascade(bed, [last_p], [([], [0])])
    fin_p = cascade(bed, [last_p], [([0], [])])
    # one Büchi component: the pair meets its set, so the component alone
    assert inf_p.n_states() == 2
    assert inf_p.acc[1] == ((frozenset(), (frozenset({1}),)),)
    assert fin_p.acc[1] == ((frozenset({1}), ()),)
    assert not accepts(inf_p, parse_word("{p} ; {}"))
    assert not accepts(fin_p, parse_word("; {p},{}"))
    for w in words:
        assert accepts(u, w) == (accepts(inf_p, w) or accepts(fin_p, w))


def test_rabin_conjunction_single_pair():
    # Büchi "p infinitely often" and co-Büchi "q finitely often" conjoined
    bed = _letter_bed(("p", "q"))
    buchi = _last_letter("p")
    cob = _last_letter("q")
    a = cascade(bed, [cob, buchi], [([0], [1])])
    a.audit()
    assert a.acc[0] == "generalized-rabin" and len(a.acc[1]) == 1
    assert _states(bed, [cob, buchi])[0] == ((0, 0), 0)
    assert accepts(a, parse_word("; {p}"))
    assert accepts(a, parse_word("{q} ; {p},{}"))
    assert not accepts(a, parse_word("; {p,q}"))
    assert not accepts(a, parse_word("; {}"))
    # two Büchi components: one meet set each, no counter in the product
    both = cascade(bed, [buchi, _last_letter("q")], [([], [0, 1])])
    assert both.n_states() == 4
    assert [len(meets) for _, meets in both.acc[1]] == [2]
    # degeneralized, they are watched in turn: 2 x 2 component states x 2
    # counter values, each named after its product state
    both.labels = ["0", "1", "2", "3"]
    rabin = degeneralize(both)
    rabin.audit()
    assert rabin.n_states() == 8
    assert [len(meets) for _, meets in rabin.acc[1]] == [1]
    assert set(rabin.labels) == set(both.labels)
    for w in ("; {p},{q}", "; {p,q}", "{q} ; {p}", "; {q},{},{p}", "; {}"):
        w = parse_word(w)
        recur = set().union(*w.period)
        assert accepts(rabin, w) == accepts(both, w) == (
            {"p", "q"} <= recur), w


def test_cascade_runner_sees_reached_bed_state():
    # bed flips between two states on p; the runner is always in its set,
    # so it restarts on every letter and copies the bed state it reaches:
    # its state always equals the bed's
    bed = BedAutomaton(ap=("p",), letters=letters_for(("p",)),
                       trans=[[0, 1], [1, 0]], state_objs=["a", "b"])
    run = Runner(init="a", step=None, accepting=lambda q: True, restart=str)
    a = cascade(bed, [run], [([], [0])])
    a.audit()
    assert a.trans == bed.trans
    assert _states(bed, [run]) == [(("a",), 0), (("b",), 1)]
    assert a.acc[1] == ((frozenset(), (frozenset({0, 1}),)),)


def _plain_product(bed, components, branches):
    # the product as a plain walk: on every transition each runner is
    # tested for its set, then restarted from the reached bed state or
    # stepped
    def succ(state, i):
        qs, s = state
        s2 = bed.trans[s][i]
        return tuple(c.restart(bed.state_objs[s2]) if c.accepting(q)
                     else c.step(q, bed.letters[i])
                     for c, q in zip(components, qs)), s2

    init = (tuple(c.init for c in components), 0)
    order, trans = _explore(len(bed.letters), init, succ, 100)
    marked = [frozenset(n for n, (qs, _) in enumerate(order)
                        if c.accepting(qs[j]))
              for j, c in enumerate(components)]
    pairs = tuple((frozenset().union(*(marked[j] for j in co)),
                   tuple(marked[j] for j in bu)) for co, bu in branches)
    return trans, order, pairs


def test_cascade_steps_each_component_state_once():
    # two runners remember the last letter; a third counts letters up to
    # its set {2}, then restarts from 1 on a letter with q, else from 0
    bed = _letter_bed(("p", "q"))
    calls = {}

    def counted(k, runner):
        def count(kind):
            def call(*args):
                calls.setdefault((kind, k), []).append(args)
                return getattr(runner, kind)(*args)
            return call
        return runner._replace(**{kind: count(kind) for kind in
                                  ("step", "accepting", "restart")})

    count = Runner(init=0, step=lambda q, s: q + 1,
                   accepting=lambda q: q == 2,
                   restart=lambda letter: int("q" in letter))
    branches = [([0], [1]), ([2], [0, 1])]
    runners = [counted(k, r) for k, r in enumerate(
        [_last_letter("p"), _last_letter("q"), count])]
    plain = _plain_product(bed, runners, branches)
    walk, calls = calls, {}
    auto = cascade(bed, runners, branches)
    auto.audit()
    assert auto.n_states() == 10
    assert (auto.trans, auto.acc[1]) == (plain[0], plain[2])
    # the walk steps the first runner from state 0 in five product states
    assert len(walk["step", 0]) == 5 * 4
    # each runner is tested for its set and then stepped once per distinct
    # (state, letter), first calls in walk order: a new state is tested on
    # every letter in a row.  A restart follows every transition out of
    # the set, and the runner keeps what it computed.
    assert sorted(calls) == sorted(walk)
    for (kind, k), seq in walk.items():
        expected = {"step": list(dict.fromkeys(seq)), "restart": seq,
                    "accepting": [q for q in dict.fromkeys(seq)
                                  for _ in bed.letters]}[kind]
        assert calls[kind, k] == expected, (kind, k)
    assert [len(calls["step", k]) for k in (0, 1, 2)] == [4, 4, 8]
    assert [len(calls["accepting", k]) for k in (0, 1, 2)] == [8, 8, 12]
    # the shared step explores the plain walk's states; none is named
    assert _states(bed, runners) == plain[1]
    assert auto.labels == [""] * 10


def test_a_runner_in_its_set_is_never_stepped(monkeypatch):
    # the runner counts letters up to its set {2}, where a step raises.
    # There it restarts on every letter instead, and its marks are exactly
    # the product states it restarted from.
    explore, at, restarted, orders = automata._explore, [], [], []

    def tracked(width, init, succ, max_states):
        def step(state, i):
            at[:] = [state]
            return succ(state, i)
        orders.append(explore(width, init, step, max_states))
        return orders[-1]

    def step(q, sigma):
        if q == 2:
            raise AssertionError("stepped in its set")
        return q + 1

    def restart(letter):
        restarted.append(at[0])
        return int("p" in letter)

    monkeypatch.setattr(automata, "_explore", tracked)
    bed = _letter_bed(("p",))
    run = Runner(init=0, step=step, accepting=lambda q: q == 2,
                 restart=restart)
    auto = cascade(bed, [run], [([], [0])])
    auto.audit()
    [(order, trans)] = orders
    assert trans == auto.trans
    [(avoid, (marks,))] = auto.acc[1]
    assert marks == {n for n, state in enumerate(order) if state in restarted}
    assert len(marks) == 2 and len(restarted) == 2 * len(bed.letters)
    assert all(order[n][0] == (2,) for n in marks)


def test_degeneralize_state_limit():
    bed = _letter_bed(("p", "q"))
    both = cascade(bed, [_last_letter("p"), _last_letter("q")],
                   [([], [0, 1])])
    assert degeneralize(both, max_states=8).n_states() == 8
    with pytest.raises(StateLimitExceeded):
        degeneralize(both, max_states=7)


def _counter():
    # counts letters forever; never in its set, so it never restarts
    return Runner(init=0, step=lambda q, s: q + 1, accepting=lambda q: False,
                  restart=None)


def _one_state_bed(ap):
    return BedAutomaton(ap=tuple(ap), letters=letters_for(ap),
                        trans=[[0] * (1 << len(ap))], state_objs=["-"])


def test_cascade_state_limit():
    with pytest.raises(StateLimitExceeded):
        cascade(_one_state_bed(("p",)), [_counter()], [], max_states=10)


def test_cascade_stops_at_the_default_cap():
    # no call runs uncapped: the translation's product stops at the
    # library default
    with pytest.raises(StateLimitExceeded) as info:
        cascade(_one_state_bed(()), [_counter()], [])
    assert info.value.args == (DEFAULT_MAX_STATES,)


def test_components_are_stepped_once(monkeypatch):
    # Each distinct safety or limit runner is stepped once per distinct
    # (runner state, letter) and computes a restart once per distinct part
    # of the bed state it reads, not once per product transition or per
    # (M, N) guess that uses it: the future history spec has 64 guesses but
    # only 7 distinct components.  The package attribute
    # ``pastdra.translate`` is the function, not the module.
    module = sys.modules["pastdra.translate"]
    af_class, disj_all = module.af_class, P.disj_all
    cascade, limit_runner = module.cascade, module._limit_runner
    calls, computed, tags, beds = [], [], [], []
    steps, made, restarts = [], [], []

    def counted(b, sigma):
        calls.append(b)
        return af_class(b, sigma)

    def counted_disj_all(bs):
        computed.append(None)
        return disj_all(bs)

    def tagged_runner(ctx, tag, psi, S):
        tags.append(tag)
        return limit_runner(ctx, tag, psi, S)

    def counted_cascade(bed, components, branches, max_states):
        def counting(k, runner):
            def step(q, sigma):
                before = len(calls)
                out = runner.step(q, sigma)
                steps.append((k, q, sigma))
                made.append(len(calls) - before)
                return out

            def restart(bed_state):
                restarts.append((k, bed_state))
                return runner.restart(bed_state)
            return runner._replace(step=step, restart=restart)
        beds.append(bed)
        return cascade(bed, [counting(k, c) for k, c in enumerate(components)],
                       branches, max_states)

    monkeypatch.setattr(module, "af_class", counted)
    monkeypatch.setattr(P, "disj_all", counted_disj_all)
    monkeypatch.setattr(module, "_limit_runner", tagged_runner)
    monkeypatch.setattr(module, "cascade", counted_cascade)
    auto = _product(parse(FUTURE_HISTORY_SPEC))
    assert len(auto.acc[1]) == 64 and len(tags) == 7
    assert len(steps) == len(set(steps))
    # a runner state is one derivative, so a step calls af_class at most
    # once; the bed makes the other calls, one per bed transition
    transitions = auto.n_states() * len(auto.letters)
    assert max(made) <= 1
    assert len(steps) < transitions and len(calls) < transitions
    # an S runner reads the whole bed state, a G or F runner its tracks
    # alone; each runner computed its initial state from bed state 0
    [bed] = beds

    def view(k, bed_state):
        return bed_state if tags[k] == "S" else bed_state[1]

    read = {(k, view(k, bed.state_objs[0])) for k in range(len(tags))}
    read |= {(k, view(k, bed_state)) for k, bed_state in restarts}
    assert len(computed) == len(read) < len(tags) + len(restarts)
    # This formula has no past operator, so the tracks never change, and
    # only the S runners compute more than their initial state.
    assert {obj[1] for obj in bed.state_objs} == {bed.state_objs[0][1]}
    per_runner = [[seen for j, seen in read if j == k]
                  for k in range(len(tags))]
    assert all(len(seen) == 1 for seen, tag in zip(per_runner, tags)
               if tag != "S")
    assert len(read) > len(tags)


def test_one_letter_table_per_automaton(monkeypatch):
    # exploration steps on columns, so only the bed, the product and its
    # quotient build a letter table during a translation, and degeneralize
    # only its output
    letters_for, calls = automata.letters_for, []

    def counted(ap):
        calls.append(ap)
        return letters_for(ap)

    for module in (automata, sys.modules["pastdra.translate"]):
        monkeypatch.setattr(module, "letters_for", counted)
    auto = translate(parse("G(p -> O q) & GF r"))
    assert calls == [("p", "q", "r")] * 3
    del calls[:]
    degeneralize(auto)
    assert calls == [("p", "q", "r")]


def _explained(text, word):
    # explain's header, walk and legend lines, and its verdict
    lines, verdict = explain(parse(text), parse_word(word))
    walk = [line for line in lines if re.match(r"\d+ \{", line)]
    legend = dict(re.findall(r"^#(\d+) = (.*)$", "\n".join(lines), re.M))
    return lines, walk, legend, verdict


def test_explain_names_each_runner_once():
    # 64 guesses share 7 runners: the header names each once, and each
    # letter's line gives each runner's state once, after the bed part
    lines, walk, _, verdict = _explained(FUTURE_HISTORY_SPEC,
                                         "{r} ; {p,q},{}")
    assert sum(line.startswith("runner ") for line in lines) == 7
    assert walk and all(len(line.rsplit(" | ", 1)[1].split()) == 7
                        for line in walk)
    assert verdict == holds(parse(FUTURE_HISTORY_SPEC),
                            parse_word("{r} ; {p,q},{}"), 0)


def test_explain_prints_the_derivative_once():
    # The bed carries the formula's derivative, so a letter's line prints
    # it once, as the bed part before the runners, and each of the 12
    # runners, 4 of them safety runners, as one node.  Every node is
    # numbered by its first use and defined once in the legend, as the
    # representative of its BDD.
    phi = parse("G(F p & F q)")
    lines, walk, legend, _ = _explained("G(F p & F q)", "{q} ; {p},{q}")
    assert sum(re.match(r"runner \d+: S ", line) is not None
               for line in lines) == 4
    bed = build_wc_automaton(TranslationContext(phi))
    derivatives = {str(P.to_formula(psi)) for psi, _ in bed.state_objs}
    used = []
    for line in walk:
        bed_part, runners = line.split(": ", 1)[1].rsplit(" | ", 1)
        refs = re.findall(r"#(\d+)", bed_part + " " + runners)
        assert legend[refs[0]] in derivatives, line
        assert len(re.findall(r"#\d+", runners)) == 12, line
        used += refs
    assert list(dict.fromkeys(used)) == [str(n) for n in range(len(legend))]
    assert len(set(legend.values())) == len(legend)


def test_default_translation_formats_no_formula(monkeypatch):
    # translating and exporting the corpus names no state and prints no
    # formula
    def refuse(f, prec):
        raise AssertionError("a formula was printed")

    monkeypatch.setattr(F, "_format", refuse)
    with pytest.raises(AssertionError):
        str(parse("p"))
    for text in CORPUS:
        auto = translate(parse(text), ("p", "q", "r"))
        assert auto.labels == [""] * auto.n_states()
        for a in (auto, degeneralize(auto)):
            assert '"' not in export_hoa(a).split("--BODY--")[1]
            export_dot(a)


def test_hoa_round_trip():
    # both forms read back as they were written, acceptance sets included;
    # the second formula has pairs with two meet sets
    for f in ("G(p -> O q)", "G(F p & F q)"):
        auto = translate(parse(f))
        for a in (auto, degeneralize(auto)):
            back = parse_hoa(export_hoa(a, name="x"))
            assert (back.ap, back.init, back.trans, back.labels,
                    back.acc) == (a.ap, a.init, a.trans, a.labels, a.acc)
            for w in WORDS:
                w = parse_word(w)
                assert accepts(back, w) == accepts(auto, w)


def test_hoa_string_may_span_header_lines():
    # the name string holds a line "Start: 3", which is part of the string
    # and not a second initial state
    auto = translate(parse("F q"))
    text = export_hoa(auto, name="F q\nStart: 3")
    assert '\nStart: 3"\n' in text
    back = parse_hoa(text)
    assert (back.init, back.trans, back.acc) == (auto.init, auto.trans,
                                                 auto.acc)


def test_hoa_strings_are_escaped():
    # a backslash or a quote in the name or a label is escaped, so the name
    # cannot swallow the header and a label reads back exactly
    auto = translate(parse("F q"))
    text = export_hoa(auto, name="x\\")
    assert 'name: "x\\\\"\n' in text
    assert parse_hoa(text).trans == auto.trans
    auto.labels[0] = 'a "b" \\c'
    back = parse_hoa(export_hoa(auto, name='"'))
    assert back.labels == auto.labels


def test_hoa_header():
    # Rabin when every pair has one meet set, else generalized Rabin: a
    # pair with no meet set is one Fin, one with two meet sets Fin&Inf&Inf.
    # The products keep a pair per guess.
    auto = _product(parse("G p"))
    lines = export_hoa(auto).splitlines()
    assert lines[0] == "HOA: v1"
    assert "acc-name: generalized-Rabin 2 0 0" in lines
    assert "Acceptance: 2 (Fin(0)) | (Fin(1))" in lines
    lines = export_hoa(degeneralize(auto)).splitlines()
    assert "acc-name: Rabin 2" in lines
    assert "Acceptance: 4 (Fin(0)&Inf(1)) | (Fin(2)&Inf(3))" in lines
    lines = export_hoa(_product(parse("G(F p & F q)"))).splitlines()
    assert "acc-name: generalized-Rabin 8 0 0 1 1 1 1 2 2" in lines
    assert ("Acceptance: 16 (Fin(0)) | (Fin(1)) | (Fin(2)&Inf(3)) | "
            "(Fin(4)&Inf(5)) | (Fin(6)&Inf(7)) | (Fin(8)&Inf(9)) | "
            "(Fin(10)&Inf(11)&Inf(12)) | (Fin(13)&Inf(14)&Inf(15))") in lines
    marks = [[int(k) for k in re.findall(r"\d+", m)]
             for m in re.findall(r"^State: .*\{([\d ]*)\}$",
                                 "\n".join(lines), re.M)]
    assert marks and all(m == sorted(m) for m in marks)


def test_hoa_over_no_proposition():
    # one letter, the empty one: the AP: line names nothing and each state
    # has one successor
    auto = translate(parse("tt"))
    text = export_hoa(auto)
    assert text.splitlines()[:8] == [
        "HOA: v1", "States: 1", "Start: 0", "AP: 0",
        "acc-name: generalized-Rabin 1 0", "Acceptance: 1 (Fin(0))",
        "properties: implicit-labels state-acc deterministic complete",
        "--BODY--"]
    back = parse_hoa(text)
    assert (back.ap, back.init, back.trans, back.labels, back.acc) == (
        (), 0, [[0]], [""], auto.acc)


def test_dot_export_mentions_all_states():
    # an unnamed state shows its number and acceptance sets alone
    auto = translate(parse("F p"))
    dot = export_dot(auto)
    assert dot.startswith("digraph")
    for q in range(auto.n_states()):
        assert re.search(r'^  q%d \[shape=\w+,label="%d( \[[\d,]+\])?"\];$'
                         % (q, q), dot, re.M), q


def test_dot_labels_are_escaped():
    # a backslash or a quote in a label is escaped as in HOA, so the DOT
    # string ends where the label does
    auto = parse_hoa(r'''HOA: v1
States: 2
Start: 0
AP: 1 "p"
acc-name: Rabin 1
Acceptance: 2 Fin(0)&Inf(1)
--BODY--
State: 0 "x\\" {1}
0 1
State: 1 "say \"hi\""
1 1
--END--
''')
    assert auto.labels == ["x\\", 'say "hi"']
    lines = export_dot(auto).splitlines()
    assert r'  q0 [shape=doublecircle,label="0 [1]\nx\\"];' in lines
    assert r'  q1 [shape=circle,label="1\nsay \"hi\""];' in lines


def test_random_agreement():
    rng = random.Random(33)
    for _ in range(40):
        phi = random_formula_bounded(rng, ("p", "q"), max_size=4, max_past=1)
        auto = translate(phi, ["p", "q"])
        for _ in range(20):
            w = random_lasso(rng, ("p", "q"))
            assert accepts(auto, w) == holds(phi, w, 0), (phi, w)
