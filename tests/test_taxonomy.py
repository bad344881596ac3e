import itertools

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formdec.cohomology import verify_triple
from formdec.taxonomy import (
    GROUPS,
    M_PARITY,
    _RULES,
    InfeasibleGroupError,
    admissible_groups,
    random_params,
    solve_draws,
)

ADMISSIBLE = [(g, s) for g in GROUPS for s in (0, 1) if g in admissible_groups(M_PARITY[g], s)]


def test_admissible_groups():
    for m, s in itertools.product(range(4), repeat=2):
        if m % 2:
            expected = ["S2.1.3"]
        elif s % 2:
            expected = ["S2.1.1", "S2.2.2"]
        else:
            expected = ["S2.1.1", "S2.1.2", "S2.2.1", "S2.2.2"]
        assert admissible_groups(m, s) == expected, (m, s)
    # the --group choices and the seeds of test_random_draw_battery follow this order
    assert GROUPS == ("S2.1.1", "S2.1.2", "S2.1.3", "S2.2.1", "S2.2.2")
    assert M_PARITY == {"S2.1.1": 0, "S2.1.2": 0, "S2.1.3": 1, "S2.2.1": 0, "S2.2.2": 0}


def test_rotation_family_example():
    sol = solve_draws("S2.1.3", [{"E12": 1, "lam11": 1, "lam12": 0}], 0)[0]
    assert np.allclose(sol.T, [[0, 1], [-1, 0]])
    assert np.allclose(sol.E, [[0, 1], [-1, 0]])
    assert np.allclose(sol.Lambda, np.eye(2))
    assert abs(sol.det_T - 1.0) < 1e-14
    assert sol.constraints_residual < 1e-14


def test_antidiagonal_group_odd_s():
    sol = solve_draws("S2.1.1", [{"E12": 1, "lam11": 1}], 1)[0]
    assert abs(sol.Lambda[1, 1] + 1.0) < 1e-14  # lam22 forced to -1
    assert abs(sol.det_T - 1.0) < 1e-14


def test_forced_entries_even_s():
    sol = solve_draws("S2.1.1", [{"E12": 2, "lam11": 4}], 0)[0]
    assert abs(sol.Lambda[1, 1] - 1.0) < 1e-14  # lam22 = E12^2/lam11
    assert abs(sol.det_T + 1.0) < 1e-14


def test_odd_s_infeasible_groups():
    rng = np.random.default_rng(5)
    for group, s in itertools.product(GROUPS, range(4)):
        params = random_params(group, s, rng)
        if group in admissible_groups(M_PARITY[group], s):
            assert solve_draws(group, [params], s)[0].constraints_residual <= 1e-12
        else:
            with pytest.raises(InfeasibleGroupError, match=f"{group} is infeasible for s parity 1"):
                solve_draws(group, [params], s)[0]


@pytest.mark.parametrize(
    "group,params,key",
    [
        ("S2.1.3", {"E12": 1, "lam11": 1, "lam12": float("inf")}, "lam12"),
        ("S2.1.3", {"E12": float("inf"), "lam11": 1}, "E12"),
        ("S2.1.3", {"E12": float("nan"), "lam11": 1}, "E12"),
        ("S2.1.1", {"E12": 1, "lam11": float("-inf")}, "lam11"),
        ("S2.2.2", {"E11": 1, "E22": float("nan")}, "E22"),
        ("S2.1.1", {"E12": 10**400, "lam11": 1}, "E12"),
        ("S2.1.1", {"E12": None, "lam11": 1}, "E12"),
    ],
)
def test_non_finite_parameters_are_refused(group, params, key):
    with pytest.raises(ValueError, match=f"group {group} needs a finite number for '{key}'"):
        solve_draws(group, [params], 0)[0]


@pytest.mark.parametrize(
    "group,params,key",
    [
        ("S2.1.2", {"E12": 1, "sign": 1.5}, "sign"),
        ("S2.1.2", {"E12": 1, "sign": -1.9}, "sign"),
        ("S2.1.2", {"E12": 1, "sign": float("nan")}, "sign"),
        ("S2.2.1", {"E11": 1, "E22": 1, "sign2": 0}, "sign2"),
        ("S2.2.2", {"E11": 1, "E22": 1, "sign": 3}, "sign"),
    ],
)
def test_signs_must_be_plus_or_minus_one(group, params, key):
    with pytest.raises(InfeasibleGroupError, match=f"group {group} needs the parameter '{key}'"):
        solve_draws(group, [params], 0)[0]
    for sign in (1, -1, 1.0, -1.0):
        assert solve_draws(group, [{**params, key: sign}], 0)[0].constraints_residual <= 1e-12


def test_mixed_group_infeasible_parameters():
    # s even with lam12^2 > E11*E22 makes the square root negative
    with pytest.raises(InfeasibleGroupError) as exc:
        solve_draws("S2.2.2", [{"E11": 1, "E22": 1, "lam12": 2}], 0)[0]
    assert "< 0" in str(exc.value)


def test_degenerate_parameters_rejected():
    with pytest.raises(InfeasibleGroupError):
        solve_draws("S2.1.1", [{"E12": 0, "lam11": 1}], 0)[0]
    with pytest.raises(InfeasibleGroupError):
        solve_draws("S2.1.3", [{"E12": 1, "lam11": 0}], 0)[0]
    with pytest.raises(InfeasibleGroupError):
        solve_draws("S2.2.1", [{"E11": 1, "E22": 0}], 0)[0]


def test_unknown_parameter_refused():
    # a misspelled key is not read as its default: lam21 would leave lam12 at 0
    with pytest.raises(ValueError) as exc:
        solve_draws("S2.1.3", [{"E12": 1, "lam11": 1, "lam21": 5}], 0)[0]
    assert type(exc.value) is ValueError
    assert str(exc.value) == (
        "group S2.1.3 has no parameter 'lam21'; its parameters are ['E12', 'lam11', 'lam12']"
    )


@pytest.mark.parametrize("group", _RULES)
def test_rules_row_is_the_parameter_spec(group):
    kinds = _RULES[group][3]
    params = random_params(group, 0, np.random.default_rng(3))
    for key, kind in kinds.items():
        left_out = {k: v for k, v in params.items() if k != key}
        if kind == "nonzero":
            with pytest.raises(ValueError, match=f"needs the parameter '{key}'") as exc:
                solve_draws(group, [left_out], 0)[0]
            assert type(exc.value) is ValueError
            with pytest.raises(InfeasibleGroupError, match=f"{key} != 0"):
                solve_draws(group, [{**params, key: 0}], 0)[0]
        elif kind == "sign":
            for sign in (0, 2):
                with pytest.raises(InfeasibleGroupError, match=f"'{key}' = \\+1 or -1"):
                    solve_draws(group, [{**params, key: sign}], 0)[0]
            for sign in (1, -1, 1.0, -1.0):
                assert solve_draws(group, [{**params, key: sign}], 0)[0].constraints_residual <= 1e-12
        else:
            assert kind == "real"
            a = solve_draws(group, [left_out], 0)[0]
            b = solve_draws(group, [{**params, key: 0}], 0)[0]
            for M in ("E", "T", "Lambda"):
                assert np.array_equal(getattr(a, M), getattr(b, M)), (key, M)
    rng = np.random.default_rng(4)
    for s in range(4):
        if group in admissible_groups(M_PARITY[group], s):
            assert list(random_params(group, s, rng)) == list(kinds)


def reference_params(group, s, rng):
    """random_params with every sign drawn by rng.choice, the slower draw of the same stream."""
    draws = {
        "nonzero": lambda: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
        "real": lambda: float(rng.uniform(-2, 2)),
        "sign": lambda: int(rng.choice([-1, 1])),
    }
    if group != "S2.2.2":
        return {key: draws[kind]() for key, kind in _RULES[group][3].items()}
    E11 = draws["nonzero"]()
    if s % 2:
        E22 = -math.copysign(float(rng.uniform(0.5, 2.0)), E11)
        lam12 = float(
            rng.choice([-1.0, 1.0]) * math.sqrt(abs(E11 * E22)) * rng.uniform(1.0, 2.0)
        )
    else:
        E22 = math.copysign(float(rng.uniform(0.5, 2.0)), E11)
        lam12 = float(rng.uniform(-1.0, 1.0) * math.sqrt(abs(E11 * E22)))
    return {"E11": E11, "E22": E22, "lam12": lam12, "sign": draws["sign"]()}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    draws=st.lists(st.tuples(st.sampled_from(GROUPS), st.integers(0, 3)), min_size=1, max_size=8),
)
def test_random_params_draw_the_reference_stream(seed, draws):
    # interleaved groups and s share one generator, so any drift in the
    # stream shows in every later draw
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for group, s in draws:
        got, ref = random_params(group, s, rng), reference_params(group, s, ref_rng)
        assert repr(got) == repr(ref)
        assert [type(x) for x in got.values()] == [type(x) for x in ref.values()]


def test_unknown_group_refused():
    with pytest.raises(ValueError):
        solve_draws("S9.9.9", [{}], 0)[0]


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("group", GROUPS)
def test_random_draw_battery(group, s):
    m_parity = 1 if group == "S2.1.3" else 0
    if group not in admissible_groups(m_parity, s):
        pytest.skip("group not admissible for this s parity")
    rng = np.random.default_rng(10 * GROUPS.index(group) + s)
    dets = set()
    for _ in range(100):
        sol = solve_draws(group, [random_params(group, s, rng)], s)[0]
        assert sol.constraints_residual <= 1e-12
        dets.add(round(sol.det_T, 6))
    if group == "S2.2.1":
        assert dets <= {1.0, -1.0}
    else:
        assert len(dets) == 1


@pytest.mark.parametrize(
    "group,s,expected",
    [
        ("S2.1.1", 0, -1.0),
        ("S2.1.1", 1, 1.0),
        ("S2.1.2", 0, 1.0),
        ("S2.1.3", 0, 1.0),
        ("S2.1.3", 1, -1.0),
        ("S2.2.2", 0, -1.0),
        ("S2.2.2", 1, 1.0),
    ],
)
def test_determinant_table(group, s, expected):
    rng = np.random.default_rng(99)
    sol = solve_draws(group, [random_params(group, s, rng)], s)[0]
    assert abs(sol.det_T - expected) < 1e-12


def test_odd_s_mixed_group_needs_indefinite_E():
    # for odd s a feasible draw must have E11*E22 < 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_params("S2.2.2", 1, rng)
        assert p["E11"] * p["E22"] < 0
        assert p["lam12"] ** 2 >= abs(p["E11"] * p["E22"])


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(ADMISSIBLE), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
def test_stacked_check_matches_each_draw(case, seed, count):
    # one verify_triple on the stack gives each draw's CheckReport bit for bit,
    # and solve_draws of the stack each draw's solve_draws of one
    group, s = case
    rng = np.random.default_rng(seed)
    draws = [random_params(group, s, rng) for _ in range(count)]
    sols = [solve_draws(group, [params], s)[0] for params in draws]
    D = (M_PARITY[group] + s) % 2
    E, T, Lam = (np.stack([getattr(sol, M) for sol in sols]) for M in ("E", "T", "Lambda"))
    stacked = verify_triple(E, T, Lam, D, T)
    each = [verify_triple(sol.E, sol.T, sol.Lambda, D, sol.T) for sol in sols]
    for field in dataclasses.fields(stacked):
        got = getattr(stacked, field.name)
        assert got.shape == (count,)
        assert bits(got) == bits([getattr(chk, field.name) for chk in each]), field.name
    assert all(type(getattr(chk, f.name)) is float for chk in each for f in dataclasses.fields(chk))
    for got, ref in zip(solve_draws(group, draws, s), sols, strict=True):
        for M in ("E", "T", "Lambda", "det_T", "constraints_residual"):
            assert bits(getattr(got, M)) == bits(getattr(ref, M)), M


@pytest.mark.parametrize(
    "group,bad,error,match",
    [
        ("S2.1.1", {"E12": 0, "lam11": 1}, InfeasibleGroupError, "E12 != 0"),
        ("S2.2.2", {"E11": 1, "E22": 1, "lam12": 2}, InfeasibleGroupError, "< 0"),
        ("S2.1.3", {"E12": 1, "lam11": 1, "lam21": 5}, ValueError, "has no parameter 'lam21'"),
        ("S2.1.1", {"E12": 1e300, "lam11": 1}, ValueError, "E, T or Lambda overflows"),
        ("S2.1.1", {"E12": 1e-300, "lam11": 1}, ValueError, "det T = 0.0 misses the group's -1.0"),
    ],
)
def test_solve_draws_names_the_draw_that_failed(group, bad, error, match):
    # the error solve_draws gives for that draw alone: the stacked checks
    # (overflow, det T) find it among the others and name its parameters
    with pytest.raises(error, match=match) as one:
        solve_draws(group, [bad], 0)[0]
    rng = np.random.default_rng(8)
    draws = [random_params(group, 0, rng) for _ in range(5)]
    draws.insert(3, bad)
    with pytest.raises(error) as many:
        solve_draws(group, draws, 0)
    assert type(many.value) is type(one.value)
    assert str(many.value) == str(one.value)


def test_a_singular_E_anywhere_in_the_stack_raises():
    # E = diag(1e-200, 1e200): E / max|E| has det 1e-400, which underflows
    with pytest.raises(np.linalg.LinAlgError, match="singular E matrix"):
        solve_draws("S2.2.1", [{"E11": 1, "E22": 1}, {"E11": 1e-200, "E22": 1e200}], 0)
