"""Monomial ideals: membership, saturation, finiteness decisions."""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsionlab import monomial
from torsionlab.cli import VARIABLE_CAP, execute, render_json
from torsionlab.errors import TailDisciplineViolation, TheoremViolation
from torsionlab.monomial import (
    DecisionBudget,
    Monomial,
    MonomialIdeal,
    PrincipalMultSet,
    TailFamily,
    VariablePattern,
    almost_jansian_principal,
    classify_prime,
    cohen_scan,
    in_filter,
    member,
    monomial_ideal,
    s_finite_decide,
    saturation,
    scale,
)

MAX_ORACLE_VAR = 30


def mono(**kwargs) -> Monomial:
    """mono(x1=2, x3=1) -> x1^2*x3."""
    return Monomial.from_mapping(
        {int(name.lstrip("x")): exp for name, exp in kwargs.items()}
    )


def truncate(ideal: MonomialIdeal, max_var: int = MAX_ORACLE_VAR) -> list[Monomial]:
    """Finite generator list: the actual generators plus family instances."""
    out = list(ideal.gens)
    for fam in ideal.families:
        v = fam.start
        while v <= max_var:
            out.append(fam.instance(v))
            v += fam.step
    return out


def member_oracle(ideal: MonomialIdeal, m: Monomial) -> bool:
    assert m.max_var() <= MAX_ORACLE_VAR
    return any(g.divides(m) for g in truncate(ideal))


# -- strategies -----------------------------------------------------------------

small_monomials = st.dictionaries(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    max_size=4,
).map(Monomial.from_mapping)


@st.composite
def disciplined_ideals(draw):
    gens = draw(st.lists(small_monomials, max_size=4))
    families = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        base = draw(small_monomials)
        floor = max(
            [g.max_var() for g in gens] + [base.max_var()] + [0]
        )
        start = floor + draw(st.integers(min_value=1, max_value=3))
        step = draw(st.integers(min_value=1, max_value=3))
        exponent = draw(st.integers(min_value=1, max_value=3))
        families.append(TailFamily(base, start, step, exponent))
    return monomial_ideal(gens, families)


test_points = st.dictionaries(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
    max_size=5,
).map(Monomial.from_mapping)


# -- the restart rule ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(disciplined_ideals(), st.integers(min_value=-2, max_value=MAX_ORACLE_VAR - 1))
def test_peel_matches_truncate_oracle(ideal, floor):
    for fam in ideal.families:
        peeled, rest = fam.peel(floor)
        assert (rest.base, rest.step, rest.exponent) == (fam.base, fam.step, fam.exponent)
        # the new start is the first aligned variable past the floor
        assert fam.aligned(rest.start) and rest.start > floor
        assert rest.start == fam.start or rest.start - fam.step <= floor
        whole = MonomialIdeal(families=(fam,))
        split = MonomialIdeal(gens=tuple(peeled), families=(rest,))
        assert sorted(truncate(split), key=Monomial.sort_key) == sorted(
            truncate(whole), key=Monomial.sort_key
        )


# -- membership -------------------------------------------------------------------


def test_member_examples():
    ideal = monomial_ideal([mono(x1=2, x2=1), mono(x2=5)])
    assert member(ideal, mono(x1=2, x2=3))
    assert not member(monomial_ideal([mono(x1=1)]), Monomial.one())
    tail = monomial_ideal(families=[TailFamily(Monomial.one(), 2, 1, 1)])
    assert member(tail, mono(x7=1))
    assert not member(tail, mono(x1=3))


@settings(max_examples=200, deadline=None)
@given(disciplined_ideals(), test_points)
def test_member_matches_oracle(ideal, point):
    assert member(ideal, point) == member_oracle(ideal, point)


def test_member_merged_instance_exponent():
    # base shares the instance variable after scaling: exponents must merge
    fam = TailFamily(mono(x2=1), 3, 1, 2)
    ideal = MonomialIdeal(families=(fam,))
    assert member(ideal, mono(x2=1, x5=2))
    assert not member(ideal, mono(x2=1, x5=1))


def test_contains_discipline_enforced():
    with pytest.raises(TailDisciplineViolation):
        MonomialIdeal(
            gens=(mono(x5=1),), families=(TailFamily(Monomial.one(), 3, 1, 1),)
        ).validate()


# -- scale -------------------------------------------------------------------------


def test_scale_examples():
    assert scale(monomial_ideal([mono(x2=1)]), mono(x1=1)).gens == (mono(x1=1, x2=1),)
    fam = TailFamily(Monomial.one(), 2, 1, 1)
    scaled = scale(MonomialIdeal(families=(fam,)), mono(x1=1))
    assert scaled.families == (TailFamily(mono(x1=1), 2, 1, 1),)
    ideal = monomial_ideal([mono(x1=1)], [fam])
    assert scale(ideal, Monomial.one()) == ideal


def test_scale_splits_overlap():
    fam = TailFamily(Monomial.one(), 1, 1, 1)
    scaled = scale(MonomialIdeal(families=(fam,)), mono(x1=1))
    assert mono(x1=2) in scaled.gens
    assert scaled.families == (TailFamily(mono(x1=1), 2, 1, 1),)
    scaled.validate()


@settings(max_examples=80, deadline=None)
@given(disciplined_ideals(), small_monomials, test_points)
def test_scale_membership_semantics(ideal, m, point):
    scaled = scale(ideal, m)
    scaled.validate()
    if m.max_var() <= MAX_ORACLE_VAR and point.max_var() <= MAX_ORACLE_VAR - 6:
        assert member(scaled, point.mul(m)) or not member(ideal, point)


# -- filter membership ----------------------------------------------------------------


def test_in_filter_examples():
    found, n = in_filter(monomial_ideal([mono(x1=2, x2=1)]), PrincipalMultSet(mono(x1=1, x2=1)))
    assert found and n == 2
    found, _ = in_filter(monomial_ideal([mono(x1=2, x2=1)]), PrincipalMultSet(mono(x1=1)))
    assert not found
    found, n = in_filter(monomial_ideal([Monomial.one()]), PrincipalMultSet(mono(x1=3)))
    assert found and n == 0


def test_in_filter_through_family():
    tail = MonomialIdeal(families=(TailFamily(Monomial.one(), 1, 1, 2),))
    found, n = in_filter(tail, PrincipalMultSet(mono(x3=1)))
    assert found and n == 2  # x3^2 is a family instance dividing s^2


@settings(max_examples=100, deadline=None)
@given(disciplined_ideals(), small_monomials)
def test_in_filter_matches_power_membership(ideal, s):
    found, n = in_filter(ideal, PrincipalMultSet(s))
    if found:
        assert member(ideal, s.power(n))
        if n > 0:
            assert not member(ideal, s.power(n - 1))


# -- saturation ------------------------------------------------------------------------


def test_saturation_examples():
    got = saturation(
        monomial_ideal([mono(x1=2, x2=1), mono(x1=1, x2=3)]), PrincipalMultSet(mono(x2=1))
    )
    assert got == monomial_ideal([mono(x1=1)])
    unchanged = saturation(monomial_ideal([mono(x1=1)]), PrincipalMultSet(mono(x2=1)))
    assert unchanged == monomial_ideal([mono(x1=1)])
    unit = saturation(monomial_ideal([Monomial.one()]), PrincipalMultSet(mono(x1=1)))
    assert unit == monomial_ideal([Monomial.one()])


def test_saturation_collapses_overlapping_family():
    fam = TailFamily(mono(x1=1), 2, 1, 1)
    got = saturation(MonomialIdeal(families=(fam,)), PrincipalMultSet(mono(x3=1)))
    # x3 is in the tail: the zeroed base x1 becomes a generator, family absorbed
    assert got == monomial_ideal([mono(x1=1)])


# x2*x[3+k] collapses to x2 under s = x1*x3, which reaches the start of x[2+2k]
TAIL_CLASH = MonomialIdeal(
    families=(TailFamily(Monomial.one(), 2, 2, 1), TailFamily(mono(x2=1), 3, 1, 1))
)


def test_saturation_peels_leading_instances():
    # Unpeeled, each saturation below breaks the tail rule (the query-mix
    # reports once read <x2*x4^2,x[3+2k]> and <x3^2,x[3+2k]>); the peeled
    # presentation keeps the rule and has the same members.
    odd_tail = TailFamily(Monomial.one(), 3, 2, 1)
    cases = [
        (TAIL_CLASH, mono(x1=1, x3=1),
         MonomialIdeal((mono(x2=1),), (TailFamily(Monomial.one(), 2, 2, 1),)),
         "<x2,x[4+2k]>"),
        (MonomialIdeal(families=(TailFamily(mono(x2=1, x4=2), 5, 1, 1), odd_tail)),
         mono(x1=2, x6=2), MonomialIdeal((mono(x2=1, x4=2),), (odd_tail,)),
         "<x3,x2*x4^2,x[5+2k]>"),
        (MonomialIdeal(families=(odd_tail, TailFamily(mono(x3=2), 6, 2, 1))),
         mono(x4=1, x6=2), MonomialIdeal((mono(x3=2),), (odd_tail,)), "<x3,x[5+2k]>"),
    ]
    grid = [
        Monomial.from_mapping({v + 1: e for v, e in enumerate(exps) if e})
        for exps in itertools.product(range(3), repeat=8)
    ]
    for ideal, s, unpeeled, label in cases:
        sat = saturation(ideal, PrincipalMultSet(s))
        sat.validate()
        assert sat.label == label
        assert all(member(sat, m) == member(unpeeled, m) for m in grid)


@settings(max_examples=100, deadline=None)
@given(disciplined_ideals(), small_monomials, test_points)
@example(TAIL_CLASH, mono(x1=1, x3=1), Monomial.one())
def test_saturation_is_power_quotient(ideal, s, point):
    mult = PrincipalMultSet(s)
    sat = saturation(ideal, mult)
    # extensive and idempotent
    assert all(member(sat, g) for g in truncate(ideal))
    assert saturation(sat, mult) == sat
    # membership characterization against the oracle at low powers
    if point.max_var() <= MAX_ORACLE_VAR - 24 and s.max_var() <= 6:
        pushed = any(member(ideal, point.mul(s.power(n))) for n in range(9))
        if pushed:
            assert member(sat, point)
    if member(sat, point) and not s.support & point.support:
        assert any(member(ideal, point.mul(s.power(n))) for n in range(13))


# -- finiteness decisions -----------------------------------------------------------------


def test_decide_golden_certified():
    everything = MonomialIdeal(families=(TailFamily(Monomial.one(), 1, 1, 1),))
    got = s_finite_decide(everything, PrincipalMultSet(mono(x1=1)))
    assert got.verdict == "certified"
    assert got.power == 1
    assert got.prefix == (mono(x1=1),)


def test_decide_golden_refuted():
    shifted = MonomialIdeal(families=(TailFamily(Monomial.one(), 2, 1, 1),))
    got = s_finite_decide(shifted, PrincipalMultSet(mono(x1=1)))
    assert got.verdict == "refuted"
    assert "family" in got.reason


def test_minimalization_counts_divisions_linearly(monkeypatch):
    # s = x_v scales <x1, x[2+1k]> into about v peeled instances; minimalizing
    # them tests each only against kept generators under its own variables
    v, calls = 2000, 0
    divides = Monomial.divides

    def counting(self, other):
        nonlocal calls
        calls += 1
        return divides(self, other)

    monkeypatch.setattr(Monomial, "divides", counting)
    ideal = monomial_ideal([mono(x1=1)], [TailFamily(Monomial.one(), 2)])
    got = s_finite_decide(ideal, PrincipalMultSet(Monomial.variable(v)))
    assert (got.verdict, got.power) == ("certified", 1)
    assert got.prefix == (mono(x1=1), Monomial.variable(v))
    assert calls < 10 * v


def test_decide_at_the_cap_peels_nothing(monkeypatch):
    # the certificate is re-checked on the finite generators and family
    # bases, so the variable index of s costs nothing
    peels, divisions = 0, 0
    peel, divides = TailFamily.peel, Monomial.divides

    def counting_peel(self, floor):
        nonlocal peels
        peels += 1
        return peel(self, floor)

    def counting_divides(self, other):
        nonlocal divisions
        divisions += 1
        return divides(self, other)

    monkeypatch.setattr(TailFamily, "peel", counting_peel)
    monkeypatch.setattr(Monomial, "divides", counting_divides)
    ideal = monomial_ideal([mono(x1=1)], [TailFamily(Monomial.one(), 2)])
    got = s_finite_decide(ideal, PrincipalMultSet(Monomial.variable(VARIABLE_CAP)))
    assert (got.verdict, got.power) == ("certified", 1)
    assert peels == 0
    assert divisions < 50


@pytest.mark.parametrize(
    "ideal, s",
    [
        (monomial_ideal([mono(x1=1)], [TailFamily(Monomial.one(), 2)]), mono(x1=1)),
        (monomial_ideal([mono(x1=1)], [TailFamily(Monomial.one(), 2)]),
         Monomial.variable(VARIABLE_CAP)),
        (monomial_ideal([mono(x1=3)], [TailFamily(mono(x2=1), 3, 2, 2)]), mono(x1=1)),
    ],
)
def test_decide_self_check_catches_short_power(monkeypatch, ideal, s):
    # planted: every absorber reports one power less than it needs
    absorbers = monomial._absorbers
    monkeypatch.setattr(
        monomial, "_absorbers",
        lambda ideal, base, s: [(n - 1, c) for n, c in absorbers(ideal, base, s)],
    )
    with pytest.raises(TheoremViolation, match="fails to absorb the scaled ideal"):
        s_finite_decide(ideal, PrincipalMultSet(s))


def test_decide_finitely_generated_is_trivial():
    ideal = monomial_ideal([mono(x1=1, x2=2), mono(x3=1)])
    got = s_finite_decide(ideal, PrincipalMultSet(mono(x5=2)))
    assert got.verdict == "certified" and got.power == 0
    assert set(got.prefix) == set(ideal.gens)


def test_decide_exhausted_on_tiny_budget():
    everything = MonomialIdeal(families=(TailFamily(Monomial.one(), 1, 1, 4),))
    tight = DecisionBudget(max_power=1, max_prefix=32)
    got = s_finite_decide(everything, PrincipalMultSet(mono(x1=1)), tight)
    assert got.verdict == "exhausted"
    roomy = DecisionBudget(max_power=8, max_prefix=32)
    again = s_finite_decide(everything, PrincipalMultSet(mono(x1=1)), roomy)
    assert again.verdict == "certified" and again.power == 4
    # exponents past a float's exact range, or any float's, need the exact
    # power: x1^e is in the filter of s = x1 at power e, and <x1^e, x[2+1k]>
    # is exhausted by the default budget (2^53 + 1 once read as 2^53, which
    # the self-check rejected; 10^400 once overflowed)
    for e in (2**53 + 1, 10**400):
        gens, tail = [{"vars": {"1": e}}], [{"base": {"vars": {}}, "start": 2}]
        for op, ideal, key, value in (
            ("in_filter", {"gens": gens}, "power", e),
            ("decide", {"gens": gens, "families": tail}, "verdict", "exhausted"),
        ):
            params = {"op": op, "mult_set": {"s": {"vars": {"1": 1}}}, "ideal": ideal}
            report, code = execute({"task": "monomial-decide", "params": params})
            assert (report["results"][key], code) == (value, 0)


@settings(max_examples=60, deadline=None)
@given(disciplined_ideals(), small_monomials)
def test_decide_monotone_in_budget(ideal, s):
    mult = PrincipalMultSet(s)
    small_budget = DecisionBudget(max_power=1, max_prefix=4)
    big_budget = DecisionBudget(max_power=12, max_prefix=64)
    first = s_finite_decide(ideal, mult, small_budget)
    second = s_finite_decide(ideal, mult, big_budget)
    if first.verdict == "certified":
        assert second.verdict == "certified"
    if first.verdict == "refuted":
        assert second.verdict == "refuted"


@settings(max_examples=60, deadline=None)
@given(disciplined_ideals(), small_monomials)
def test_certified_decisions_reverify(ideal, s):
    mult = PrincipalMultSet(s)
    got = s_finite_decide(ideal, mult, DecisionBudget(max_power=20, max_prefix=128))
    if got.verdict == "certified":
        prefix_ideal = monomial_ideal(got.prefix)
        assert all(member_oracle(ideal, p) for p in got.prefix)
        # exact: the oracle horizon lies past every prefix variable
        scaled = scale(ideal, s.power(got.power))
        assert all(member_oracle(prefix_ideal, g) for g in truncate(scaled))


# -- prime classification and the scan ------------------------------------------------------


def test_classify_prime_examples():
    s = PrincipalMultSet(mono(x1=1))
    assert classify_prime(VariablePattern(finite=frozenset({1})), s) == "Z"
    assert classify_prime(VariablePattern(finite=frozenset({2})), s) == "K"
    assert classify_prime(VariablePattern(tail_start=2), s) == "K"


def test_classify_prime_consistent_with_filter():
    s = PrincipalMultSet(mono(x1=1, x3=2))
    for pattern in (
        VariablePattern(finite=frozenset({1})),
        VariablePattern(finite=frozenset({2})),
        VariablePattern(finite=frozenset({2}), tail_start=5, tail_step=2),
        VariablePattern(tail_start=3),
    ):
        side = classify_prime(pattern, s)
        found, _ = in_filter(pattern.to_ideal(), s)
        assert (side == "Z") == found


def test_pattern_to_ideal_discipline():
    pattern = VariablePattern(finite=frozenset({5}), tail_start=2, tail_step=2)
    ideal = pattern.to_ideal()
    ideal.validate()
    assert member(ideal, mono(x5=1))
    assert member(ideal, mono(x2=1)) and member(ideal, mono(x8=1))
    assert not member(ideal, mono(x3=1))


def test_cohen_scan_golden():
    s = PrincipalMultSet(mono(x1=1))
    report = cohen_scan(
        s,
        [
            VariablePattern(finite=frozenset({1})),
            VariablePattern(finite=frozenset({2})),
            VariablePattern(tail_start=2),
        ],
    )
    assert [e.side for e in report.entries] == ["Z", "K", "K"]
    assert report.entries[1].decision.verdict == "certified"
    assert report.entries[2].decision.verdict == "refuted"
    assert report.verdict == "not-totally-noetherian"
    assert report.cross_check is not None and report.consistent


def test_cohen_scan_trivial_mult_set():
    report = cohen_scan(PrincipalMultSet(Monomial.one()), [VariablePattern(tail_start=1)])
    assert report.entries[0].side == "K"
    assert report.verdict == "not-totally-noetherian"


def test_cohen_scan_vacuous():
    report = cohen_scan(PrincipalMultSet(mono(x1=1)), [VariablePattern(finite=frozenset({1}))])
    assert report.verdict == "vacuous-pass"


def test_cohen_scan_inconclusive():
    # a K-prime the budget can neither certify nor refute leaves the scan
    # inconclusive, with the prime's decision exhausted
    report = cohen_scan(
        PrincipalMultSet(mono(x1=1)),
        [VariablePattern(finite=frozenset({2, 3, 4, 5, 6}))],
        DecisionBudget(max_power=8, max_prefix=4),
    )
    assert report.verdict == "inconclusive"
    assert [e.decision.verdict for e in report.entries] == ["exhausted"]
    assert report.cross_check is None


def test_almost_jansian_principal():
    assert almost_jansian_principal(PrincipalMultSet(Monomial.one())).holds
    got = almost_jansian_principal(PrincipalMultSet(mono(x1=1)))
    assert not got.holds and got.witness == monomial_ideal([mono(x1=1)])
    assert not almost_jansian_principal(PrincipalMultSet(mono(x1=2, x2=1))).holds


# -- pinned reports -------------------------------------------------------------------


def pinned_monomial_specs() -> list[dict]:
    """A fixed grid of monomial-decide documents over all five ops."""
    monos = [{}, {"1": 1}, {"2": 2}, {"1": 1, "3": 1}, {"3": 2, "4": 1}]
    gen_lists = [[], [{"1": 2}], [{"1": 1, "2": 3}, {"4": 1}]]
    ideals = []
    for gens, base, start, step, e in itertools.product(
        gen_lists, monos, (2, 4, 5), (1, 2), (1, 2)
    ):
        floor = max(int(v) for g in gens + [base, {"0": 1}] for v in g)
        if start > floor:
            fam = {"base": {"vars": base}, "start": start, "step": step, "e": e}
            ideals.append({"gens": [{"vars": g} for g in gens], "families": [fam]})
    # two tails, the second one starting where the first one's base collapses;
    # a tail that needs power 9, past the default budget
    ideals += [
        {"families": [{"base": {"vars": {}}, "start": 2, "step": 2},
                      {"base": {"vars": {"2": 1}}, "start": 3}]},
        {"families": [{"base": {"vars": {"2": 1, "4": 2}}, "start": 5},
                      {"base": {"vars": {}}, "start": 3, "step": 2}]},
        {"families": [{"base": {"vars": {}}, "start": 1}]},
        {"families": [{"base": {"vars": {}}, "start": 1, "e": 9}]},
    ]
    patterns = [[{"finite": [1]}, {"finite": [2]}, {"tail": {"start": 2}}],
                [{"finite": [2, 5], "tail": {"start": 3, "step": 2}}],
                [{"tail": {"start": 1, "step": 3}}, {"finite": [4]}]]
    specs = []
    for s in monos[:4]:
        mult = {"s": {"vars": s}}
        for op in ("decide", "saturate", "in_filter"):
            specs += [{"op": op, "mult_set": mult, "ideal": ideal} for ideal in ideals]
        specs += [{"op": "cohen", "mult_set": mult, "primes": p} for p in patterns]
        specs.append({"op": "almost_jansian", "mult_set": mult})
    return [{"task": "monomial-decide", "params": p, "format": "json"} for p in specs]


def test_monomial_reports_are_pinned():
    # Byte-identity gate for the monomial lab, taken before the restart rule
    # and the absorption test were each written once.
    specs = pinned_monomial_specs()
    assert len(specs) == 1360
    data = b"".join(render_json(execute(doc)[0]).encode("utf-8") for doc in specs)
    assert len(data) == 1263931
    assert hashlib.sha256(data).hexdigest() == (
        "941efdc21fb7bd11be8831fdfba2fa2164ef247d9f70ff8176e655984a7c517f"
    )
