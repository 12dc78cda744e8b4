"""Translation of formulas to deterministic Rabin automata.

The construction is the product of a single shared bed automaton -- which
tracks, per enumerated past set, the canonical derivative of the formula
rewritten under that set -- with one runner per guess (M, N) of the
least-fixpoint subformulas that recur and the greatest-fixpoint subformulas
that eventually hold forever.  Each runner contributes one Rabin pair; the
union over all guesses is taken at the runner level so the bed is never
duplicated.
"""

from __future__ import annotations

from itertools import combinations

from . import formula as F
from . import proplogic as P
from .after import af_class, af_loc
from .automata import (BedAutomaton, OmegaAutomaton, Runner,
                       StateLimitExceeded, cascade, letters_for)
from .rewrites import (enumerate_past_sets, is_saturated, rewrite_mu_limit,
                       rewrite_nu_limit, rewrite_set, rewrite_under, wc)

DEFAULT_MAX_STATES = 200000


class TranslationContext:
    """Shared tables for one formula: past sets, saturation, the bed."""

    def __init__(self, phi, ap=None, max_states=DEFAULT_MAX_STATES):
        self.phi = phi
        self.ap = tuple(sorted(set(F.props(phi)) | set(ap or ())))
        self.max_states = max_states
        self.past_sets = enumerate_past_sets(phi)
        self.k = len(self.past_sets)
        self.refining = [tuple(j for j in range(self.k)
                               if is_saturated(self.past_sets[j],
                                               self.past_sets[i], phi))
                         for i in range(self.k)]
        # Per (i, j): C_i rewritten under C_j, and the weakening conditions
        # owed by the members of C_i after that rewrite.
        self._ij_sets = {}
        self._ij_wcs = {}
        for i in range(self.k):
            ci = F.sorted_set(self.past_sets[i])
            for j in self.refining[i]:
                cj = self.past_sets[j]
                self._ij_sets[i, j] = rewrite_set(self.past_sets[i], cj)
                self._ij_wcs[i, j] = tuple(wc(rewrite_under(x, cj))
                                           for x in ci)
        self.mu = F.sorted_set(F.mu_subformulas(phi))
        self.nu = F.sorted_set(F.nu_subformulas(phi))
        self._rc_memo = {}
        self._derive_memo = {}
        self._bed = None

    def _derive(self, b, sigma, c):
        """``b`` derived by ``sigma`` under ``c``, atom by atom on the diagram.

        ``af_loc`` distributes over ``&``/``|`` for a fixed past set and
        reads only the past subformulas of its argument, so each atom is
        derived under its own part of ``c``.
        """
        memo = self._derive_memo.get((sigma, c))
        if memo is None:
            memo = self._derive_memo[sigma, c] = {}
        return P.map_atoms(b, lambda a: af_loc(a, sigma, c & F.psf(a)), memo)

    def rc(self, state, sigma):
        """Bed transition: component i re-derives from every refining j."""
        sigma = frozenset(sigma)
        key = (tuple(b.uid for b in state), sigma)
        out = self._rc_memo.get(key)
        if out is not None:
            return out
        parts = []
        for i in range(self.k):
            acc = P.FALSE_B
            for j in self.refining[i]:
                cij = self._ij_sets[i, j]
                term = self._derive(state[j], sigma, cij)
                for owed in self._ij_wcs[i, j]:
                    if term is P.FALSE_B:
                        break
                    term = P.conj(term, P.canonicalize(
                        af_loc(owed, sigma, cij)))
                acc = P.disj(acc, term)
            parts.append(acc)
        out = tuple(parts)
        self._rc_memo[key] = out
        return out

    @property
    def bed(self):
        if self._bed is None:
            self._bed = build_wc_automaton(self)
        return self._bed


def _bed_label(state):
    return "<%s>" % ", ".join(str(P.to_formula(b)) for b in state)


def build_wc_automaton(ctx):
    """The bed: one canonical-derivative track per enumerated past set."""
    init = (P.TRUE_B,) + (P.FALSE_B,) * (ctx.k - 1)
    from .automata import _explore
    order, _, trans = _explore(ctx.ap, init, ctx.rc, ctx.max_states)
    return BedAutomaton(ctx.ap, 0, trans,
                        [_bed_label(s) for s in order], list(order))


def _limit_cache(rewriter, rw_sets):
    """Memoized (b, i) -> b with every atom rewritten by its limit under
    ``rw_sets[i]``."""
    fns = [lambda a, s=s: rewriter(a, s) for s in rw_sets]
    memos = [{} for _ in rw_sets]

    def apply(b, i):
        return P.map_atoms(b, fns[i], memos[i])
    return apply


def build_recurrence_runner(ctx, psi, N):
    """Büchi runner demanding that psi (premise 2) is fulfilled recurrently."""
    rw = [rewrite_set(N, c) for c in ctx.past_sets]
    mu_of = _limit_cache(rewrite_nu_limit, rw)
    restart = [F.ev(rewrite_nu_limit(rewrite_under(psi, ctx.past_sets[i]),
                                     rw[i]))
               for i in range(ctx.k)]
    restart_b = [P.canonicalize(f) for f in restart]

    def step(zeta, bed_state, sigma):
        if zeta is P.TRUE_B:
            out = P.FALSE_B
            for i in range(ctx.k):
                out = P.disj(out, P.conj(restart_b[i],
                                         mu_of(bed_state[i], i)))
            return out
        return af_class(zeta, sigma)

    init = P.canonicalize(F.ev(rewrite_nu_limit(psi, N)))
    return Runner(init, step, "buchi",
                  accepting=lambda z: z is P.TRUE_B,
                  label=lambda z: "F:%s" % P.to_formula(z))


def build_persistence_runner(ctx, psi, M):
    """Co-Büchi runner demanding that psi (premise 3) eventually stays true."""
    rw = [rewrite_set(M, c) for c in ctx.past_sets]
    nu_of = _limit_cache(rewrite_mu_limit, rw)
    restart = [F.alw(rewrite_mu_limit(rewrite_under(psi, ctx.past_sets[i]),
                                      rw[i]))
               for i in range(ctx.k)]
    restart_b = [P.canonicalize(f) for f in restart]

    def step(zeta, bed_state, sigma):
        if zeta is P.FALSE_B:
            out = P.FALSE_B
            for i in range(ctx.k):
                out = P.disj(out, P.conj(restart_b[i],
                                         nu_of(bed_state[i], i)))
            return out
        return af_class(zeta, sigma)

    init = P.canonicalize(F.alw(rewrite_mu_limit(psi, M)))
    return Runner(init, step, "cobuchi",
                  accepting=lambda z: z is P.FALSE_B,
                  label=lambda z: "G:%s" % P.to_formula(z))


def build_safety_runner(ctx, M):
    """Co-Büchi runner for premise 1: the derivative of the formula itself,
    paired with its least-fixpoint-resolved shadow that re-guesses whenever
    it runs empty.
    """
    rw = [rewrite_set(M, c) for c in ctx.past_sets]
    nu_of = _limit_cache(rewrite_mu_limit, rw)

    def step(q, bed_state, sigma):
        psi, zeta = q
        psi2 = af_class(psi, sigma)
        if zeta is P.FALSE_B:
            out = P.FALSE_B
            for i in range(ctx.k):
                out = P.disj(out, P.conj(nu_of(psi2, i),
                                         nu_of(bed_state[i], i)))
            return (psi2, out)
        return (psi2, af_class(zeta, sigma))

    init = (P.canonicalize(ctx.phi),
            P.canonicalize(rewrite_mu_limit(ctx.phi, M)))
    return Runner(init, step, "cobuchi",
                  accepting=lambda q: q[1] is P.FALSE_B,
                  label=lambda q: "%s / %s" % (P.to_formula(q[0]),
                                               P.to_formula(q[1])))


class _ConjRunner(Runner):
    """Lockstep product of one branch's runners with a round-robin watcher
    over its Büchi components; contributes a single Rabin pair.
    """

    def __init__(self, cobuchis, buchis, name):
        self.cobuchis = cobuchis
        self.buchis = buchis
        self.name = name
        init = (tuple(r.init for r in cobuchis + buchis), 0,
                not buchis)

        def step(state, bed_state, sigma):
            qs, rr, _ = state
            rs = cobuchis + buchis
            qs2 = tuple(r.step(q, bed_state, sigma)
                        for r, q in zip(rs, qs))
            if not buchis:
                return (qs2, 0, True)
            rr2, tick = rr, False
            if buchis[rr].accepting(qs[len(cobuchis) + rr]):
                rr2 = (rr + 1) % len(buchis)
                tick = rr2 == 0
            return (qs2, rr2, tick)

        def avoid(state):
            qs = state[0]
            return any(r.accepting(q) for r, q in zip(cobuchis, qs))

        def meet(state):
            return state[2]

        super().__init__(init, step, "rabin", pairs=[(avoid, meet)],
                         label=self._fmt)

    def _fmt(self, state):
        qs = state[0]
        rs = self.cobuchis + self.buchis
        return "%s{%s}" % (self.name,
                           "; ".join(r.label(q) for r, q in zip(rs, qs)))


def _branch_runner(ctx, M, N):
    cobuchis = [build_safety_runner(ctx, M)]
    cobuchis += [build_persistence_runner(ctx, psi, M) for psi in N]
    buchis = [build_recurrence_runner(ctx, psi, N) for psi in M]
    name = "M=%s N=%s " % ([str(m) for m in M], [str(n) for n in N])
    return _ConjRunner(cobuchis, buchis, name)


def build_rabin_component(ctx, M, N, max_states=None):
    """One branch as an explicit single-pair Rabin automaton."""
    M = F.sorted_set(M)
    N = F.sorted_set(N)
    return cascade(ctx.bed, _branch_runner(ctx, M, N),
                   max_states or ctx.max_states)


def _subsets(items):
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield list(combo)


def translate(phi, ap=None, max_states=DEFAULT_MAX_STATES):
    """Deterministic Rabin automaton for ``phi``; one pair per (M, N) guess.

    Raises :class:`StateLimitExceeded` when exploration would pass the cap.
    """
    ctx = TranslationContext(phi, ap, max_states)
    branches = [_branch_runner(ctx, M, N)
                for M in _subsets(ctx.mu)
                for N in _subsets(ctx.nu)]

    def step(qs, bed_state, sigma):
        return tuple(b.step(q, bed_state, sigma)
                     for b, q in zip(branches, qs))

    pairs = []
    for i, b in enumerate(branches):
        avoid, meet = b.pairs[0]
        pairs.append((lambda qs, i=i, p=avoid: p(qs[i]),
                      lambda qs, i=i, p=meet: p(qs[i])))

    union = Runner(tuple(b.init for b in branches), step, "rabin",
                   pairs=pairs,
                   label=lambda qs: " || ".join(
                       b.label(q) for b, q in zip(branches, qs)))
    return cascade(ctx.bed, union, max_states)


def translation_stats(phi, auto):
    n, m = F.size(phi)
    return {
        "states": auto.n_states(),
        "pairs": len(auto.acc[1]),
        "past_sets": 1 << len(F.psf(phi)),
        "ap": len(auto.ap),
        "n": n,
        "m": m,
    }
