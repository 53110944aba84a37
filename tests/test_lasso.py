import random
from fractions import Fraction
from math import lcm

import pytest

import qpa.lasso as lasso
from qpa.core import Acceptance, Automaton, LassoWord
from qpa.errors import InputError
from qpa.lasso import (
    lasso_acceptance_probability,
    lasso_jet_decomposition,
    simulate_runs,
)
from qpa.semantics import chain_analysis, propagate, support_step

from conftest import lasso_closed_set, random_automaton
from oracles import LassoOracle, olasso_verdict

XBAAX = LassoWord((), ("x", "b", "a", "a", "x"))


def one_state() -> Automaton:
    return Automaton(
        ["q0"],
        ["a"],
        [((Fraction(1),),)],
        [Fraction(1)],
        Acceptance.buchi({"q0"}),
    )


# -- acceptance probabilities ------------------------------------------------


def test_buchi_probability_intersection_gadget(hrd):
    assert lasso_acceptance_probability(hrd, XBAAX) == 1


def test_buchi_probability_gadget_rejecting_periods(hrd):
    # "b" is in neither language, "aba" only in the first
    assert lasso_acceptance_probability(hrd, LassoWord((), ("x", "b", "x"))) == 0
    assert lasso_acceptance_probability(hrd, LassoWord((), ("x", "a", "b", "a", "x"))) == 0


def test_parity_probability_alternating(ex1):
    a = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 0}))
    assert lasso_acceptance_probability(a, LassoWord((), ("a", "b"))) == 1


def test_buchi_probability_fractional(ex2):
    a = ex2.with_acceptance(Acceptance.buchi({"2"}))
    assert lasso_acceptance_probability(a, LassoWord(("a",), ("b",))) == Fraction(3, 4)


def test_reach_probability(ex2):
    a = ex2.with_acceptance(Acceptance.reach({"2"}))
    assert lasso_acceptance_probability(a, LassoWord(("a",), ("b",))) == Fraction(3, 4)
    b = ex2.with_acceptance(Acceptance.reach({"3"}))
    assert lasso_acceptance_probability(b, LassoWord((), ("a",))) == 1


def test_safety_probability(ex1, ex2):
    a = ex1.with_acceptance(Acceptance.safety({"s"}))
    assert lasso_acceptance_probability(a, LassoWord((), ("b",))) == 1
    assert lasso_acceptance_probability(a, LassoWord((), ("a", "b"))) == 0
    b = ex2.with_acceptance(Acceptance.safety({"1", "2", "3"}))
    assert lasso_acceptance_probability(b, LassoWord(("a",), ("b",))) == Fraction(3, 4)


def test_safety_initial_outside(ex1):
    # no run can be safe when the initial support misses F entirely
    a = ex1.with_acceptance(Acceptance.safety({"u"}))
    assert lasso_acceptance_probability(a, LassoWord((), ("b",))) == 0


def test_probability_requires_acceptance(ex1):
    with pytest.raises(InputError):
        lasso_acceptance_probability(ex1, LassoWord((), ("a",)))


def test_probability_matches_oracle_random():
    rng = random.Random(20260815)
    kinds = ["safety", "reach", "buchi", "cobuchi", "parity"]
    checked = 0
    for trial in range(150):
        a = random_automaton(rng, rng.randrange(2, 5), acceptance=kinds[trial % 5])
        prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
        period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        p = lasso_acceptance_probability(a, LassoWord(prefix, period))
        almost, positive = olasso_verdict(a, prefix, period)
        assert (p == 1) == almost
        assert (p > 0) == positive
        checked += 1
    assert checked == 150


# -- chain structure ----------------------------------------------------------


def test_chain_shape(ex1):
    w = LassoWord((), ("a", "b"))
    assert propagate(ex1, ex1.initial, w.prefix) == {"s": Fraction(1)}
    analysis = chain_analysis(ex1, lasso_closed_set(ex1, w), w.period)
    assert analysis.closed_set == ex1.mask("s u")
    assert analysis.classes == (ex1.mask("u"),)


# -- jet decompositions --------------------------------------------------------


def test_jets_single_absorbing_state():
    d = lasso_jet_decomposition(one_state(), LassoWord((), ("a",)))
    assert len(d.jets) == 1
    assert d.lambda_bound == 1
    assert d.jets[0].at(d.stabilization_index) == 1


def test_jets_absorbing_branch(ex2):
    d = lasso_jet_decomposition(ex2, LassoWord((), ("a",)))
    assert d.stabilization_index == 2
    assert d.lambda_bound == Fraction(1, 2)
    assert len(d.jets) == 1
    assert d.jets[0].at(2) == ex2.mask("3")
    assert d.jets[0].at(17) == ex2.mask("3")
    assert d.j0.at(2) == ex2.mask("1 2 4")
    assert d.j0_mass(2) == Fraction(1, 4)
    assert d.j0_mass(10) == Fraction(1, 2) ** 10


def test_jets_alternating(ex1):
    d = lasso_jet_decomposition(ex1, LassoWord((), ("a", "b")))
    assert d.stabilization_index == 4
    assert d.lambda_bound == Fraction(1, 2)
    assert len(d.jets) == 1
    assert d.jets[0].at(4) == ex1.mask("u")
    assert d.jets[0].at(5) == ex1.mask("t")
    assert d.jets[0].at(6) == ex1.mask("u")
    assert d.j0.at(4) == ex1.mask("s t")
    assert d.j0.at(5) == ex1.mask("s u")
    assert d.j0.at(0) == ex1.full_mask


def test_jet_distribution_rejects_a_negative_step(ex2):
    d = lasso_jet_decomposition(ex2, LassoWord(("a", "a", "b"), ("a",)))
    assert d.distribution(0) == ex2.initial
    for n in (-1, -7):
        with pytest.raises(InputError, match="nonnegative"):
            d.distribution(n)


def test_jets_solve_no_absorption_system(monkeypatch, ex2):
    # the jets read the product chain alone
    def refused(*args):
        raise AssertionError("absorption system solved for the jets")

    monkeypatch.setattr(lasso, "chain_analysis", refused)
    monkeypatch.setattr(lasso, "solve_linear", refused)
    d = lasso_jet_decomposition(ex2, LassoWord((), ("a",)))
    assert d.jets[0].at(2) == ex2.mask("3")
    assert d.lambda_bound == Fraction(1, 2)


def test_jet_horizon(ex2):
    d = lasso_jet_decomposition(ex2, LassoWord((), ("a",)))
    n = d.horizon(Fraction(1, 10**6))
    assert n == 20
    assert d.j0_mass(n) < Fraction(1, 10**6)
    with pytest.raises(InputError):
        d.horizon(Fraction(0))


def _letter_at(a: Automaton, w: LassoWord, n: int) -> tuple[int, ...]:
    prefix = a.word(w.prefix)
    period = a.word(w.period)
    if n < len(prefix):
        return (prefix[n],)
    return (period[(n - len(prefix)) % len(period)],)


@pytest.mark.parametrize("seed", range(12))
def test_jet_invariants_random(seed):
    rng = random.Random(900 + seed)
    a = random_automaton(rng, rng.randrange(2, 6), acceptance="parity")
    prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
    period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
    w = LassoWord(prefix, period)
    d = lasso_jet_decomposition(a, w)
    assert 1 <= len(d.jets) <= len(a.states)
    assert d.lambda_bound > 0
    assert len(d.jets) == len(chain_analysis(a, lasso_closed_set(a, w), period).classes)
    n0 = d.stabilization_index
    window = 2 * lcm(len(period), len(d.j0.cycle))
    for n in range(n0 + window):
        masks = [d.j0.at(n)] + [jet.at(n) for jet in d.jets]
        union = 0
        for mask in masks:
            assert union & mask == 0
            union |= mask
        assert union == a.full_mask
    for n in range(n0, n0 + window):
        for jet in d.jets:
            assert support_step(a, jet.at(n), _letter_at(a, w, n)) == jet.at(n + 1)
    prev = d.j0_mass(n0)
    for n in range(n0 + 1, n0 + window):
        cur = d.j0_mass(n)
        assert cur <= prev
        prev = cur
    for n in range(n0, n0 + window):
        vec = d.distribution(n)
        for jet in d.jets:
            for i in range(len(a.states)):
                if jet.at(n) >> i & 1:
                    assert vec[i] >= d.lambda_bound


def test_jets_follow_chain_class_order():
    # jet i is absorbed by the chain's class i: both come ordered by least
    # state; a spread initial distribution often reaches several classes
    rng = random.Random(1107)
    several = 0
    for _ in range(60):
        a = random_automaton(rng, rng.randrange(3, 8), acceptance="parity", dirac_initial=False)
        prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
        period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        w = LassoWord(prefix, period)
        d = lasso_jet_decomposition(a, w)
        classes = chain_analysis(a, lasso_closed_set(a, w), period).classes
        assert len(d.jets) == len(classes)
        for jet, cls in zip(d.jets, classes):
            mask = jet.at(d.stabilization_index)
            assert mask and mask & ~cls == 0
        several += len(classes) > 1
    assert several >= 10


# -- Monte Carlo ---------------------------------------------------------------


def test_simulate_gadget_certain(hrd):
    out = simulate_runs(hrd, XBAAX, 10000, seed=7)
    assert out["accept_fraction"] == 1.0
    assert 0 < out["half_width_95"] < 0.02


def test_simulate_probability_zero(hrd):
    out = simulate_runs(hrd, LassoWord((), ("x", "b", "x")), 2000, seed=7)
    assert out["accept_fraction"] == 0.0


def test_simulate_alternating(ex1):
    a = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 0}))
    out = simulate_runs(a, LassoWord((), ("a", "b")), 2000, seed=3)
    assert abs(out["accept_fraction"] - 1.0) <= out["half_width_95"]


def test_simulate_fractional(ex2):
    a = ex2.with_acceptance(Acceptance.buchi({"2"}))
    out = simulate_runs(a, LassoWord(("a",), ("b",)), 10000, seed=11)
    assert abs(out["accept_fraction"] - 0.75) <= 4 * out["half_width_95"]


def test_simulate_safety(ex2):
    a = ex2.with_acceptance(Acceptance.safety({"1", "2", "3"}))
    out = simulate_runs(a, LassoWord(("a",), ("b",)), 10000, seed=11)
    assert abs(out["accept_fraction"] - 0.75) <= 4 * out["half_width_95"]


def test_simulate_deterministic(ex2):
    a = ex2.with_acceptance(Acceptance.reach({"2"}))
    w = LassoWord(("a",), ("b",))
    assert simulate_runs(a, w, 500, seed=5) == simulate_runs(a, w, 500, seed=5)


def test_simulate_rejects_bad_input(ex1, ex2):
    with pytest.raises(InputError):
        simulate_runs(ex1, LassoWord((), ("a",)), 10, seed=0)
    a = ex2.with_acceptance(Acceptance.buchi({"2"}))
    with pytest.raises(InputError):
        simulate_runs(a, LassoWord((), ("a",)), 0, seed=0)


@pytest.mark.parametrize("seed", range(12))
def test_simulate_tracks_exact_probability(seed):
    rng = random.Random(4100 + seed)
    kind = ["buchi", "cobuchi", "parity", "safety"][seed % 4] if seed < 8 else "reach"
    a = random_automaton(rng, rng.randrange(2, 5), acceptance=kind)
    prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
    period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
    w = LassoWord(prefix, period)
    p = lasso_acceptance_probability(a, w)
    out = simulate_runs(a, w, 2000, seed=seed)
    assert abs(out["accept_fraction"] - float(p)) <= 4 * out["half_width_95"]


def test_oracle_sweep_agrees_with_probability(ex2):
    a = ex2.with_acceptance(Acceptance.buchi({"4"}))
    found = LassoOracle(a).sweep(3, 3)
    assert found["positive"] is not None
    prefix, period = found["positive"]
    assert lasso_acceptance_probability(a, LassoWord(prefix, period)) > 0
