"""Matrix-level classifier and generator for the beta_m = 2 solution
families of middle-dimension cohomology triples (E, T, Lambda).

Independent of any mesh: everything here is 2x2 linear algebra, exact
where the free parameters are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cohomology import verify_triple

# Each group's rules: the parity of m, the admissible parities of s, k with det T =
# (-1)^(s+k) (None where it is free; S2.1.2 admits even s only, so its det T is 1), and
# the free parameters in order by kind: "nonzero" is required and refused at 0, "real"
# defaults to 0, and "sign" is +1 or -1 and defaults to 1.
_RULES = {
    "S2.1.1": (0, (0, 1), 1, {"E12": "nonzero", "lam11": "nonzero"}),
    "S2.1.2": (0, (0,), 0, {"E12": "nonzero", "sign": "sign"}),
    "S2.1.3": (1, (0, 1), 0, {"E12": "nonzero", "lam11": "nonzero", "lam12": "real"}),
    "S2.2.1": (
        0, (0,), None, {"E11": "nonzero", "E22": "nonzero", "sign1": "sign", "sign2": "sign"}
    ),
    "S2.2.2": (0, (0, 1), 1, {"E11": "nonzero", "E22": "nonzero", "lam12": "real", "sign": "sign"}),
}
GROUPS = tuple(_RULES)
M_PARITY = {group: rule[0] for group, rule in _RULES.items()}


class InfeasibleGroupError(ValueError):
    """Raised when a parameter set violates the group's sign constraints."""


@dataclass
class TaxonomySolution:
    group_label: str
    E: np.ndarray
    T: np.ndarray
    Lambda: np.ndarray
    det_T: float
    constraints_residual: float


def admissible_groups(m_parity, s_parity):
    """Groups allowed for the given parities of m and s."""
    m_parity, s_parity = m_parity % 2, s_parity % 2
    return [g for g, (m, s_pars, *_) in _RULES.items() if m == m_parity and s_parity in s_pars]


def _exactify(x):
    """Keep ints/Fractions exact; pass floats through; refuse a bool or a non-number."""
    if isinstance(x, float):
        return float(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not a number: {x!r}")


def _param(params, group, key, kind):
    """params[key] through _exactify, 0 when a "real" one is missing; refuses it not a
    finite number, or a missing "nonzero" one."""
    if key not in params and kind == "nonzero":
        raise ValueError(f"group {group} needs the parameter {key!r}, got {sorted(params)}")
    value = params.get(key, 0)
    try:
        x = _exactify(value)
        if math.isfinite(x):
            return x
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"group {group} needs a finite number for {key!r}, got {value!r}")


def _sign(params, group, key):
    """params[key], 1 when it is missing; anything but the number +1 or -1 is refused."""
    sign = params.get(key, 1)
    if isinstance(sign, bool) or sign not in (1, -1):
        raise InfeasibleGroupError(
            f"group {group} needs the parameter {key!r} = +1 or -1, got {sign!r}"
        )
    return int(sign)


def solve_group(group, params, s):
    """Exact (E, T, Lambda) triple for one taxonomy group: solve_draws of one draw."""
    return solve_draws(group, [params], s)[0]


def solve_draws(group, draws, s):
    """Exact (E, T, Lambda) triples for a non-empty list of parameter draws of one group.

    Each draw holds the free parameters that the group's _RULES row names;
    _triple validates it and forces the other entries, draw by draw.  The
    stacked triples are then checked to be finite, by one verify_triple and
    for the group's det T, and an error there names the first draw that fails.

    Raises InfeasibleGroupError for an s parity the group does not admit,
    a sign other than +-1, a required parameter at 0 or a violated
    inequality, and ValueError naming a parameter that is missing, unknown
    to the group or non-finite, or parameters for which a forced entry (or
    E11 E22 in S2.2.2) overflows or underflows, so that the triple is not
    finite or misses the group's det T.
    """
    E, T, Lam = map(np.array, zip(*[_triple(group, params, s) for params in draws]))
    overflow = ~np.isfinite(np.concatenate((E, T, Lam), axis=-1)).all(axis=(1, 2))
    if overflow.any():
        bad = draws[np.argmax(overflow)]
        raise ValueError(f"{group}: a forced entry of E, T or Lambda overflows for {bad}")
    m_parity, _, det_k, _ = _RULES[group]
    s = int(s) % 2
    chk = verify_triple(E, T, Lam, (m_parity + s) % 2, T)  # D(m) parity for n = 2m: m + s
    expected = None if det_k is None else (-1.0) ** (s + det_k)
    # holds to rounding for finite entries; only one that under- or overflowed misses it
    missed = np.zeros(len(draws), bool) if det_k is None else np.abs(chk.det_T - expected) > 1e-10
    if missed.any():
        i = int(np.argmax(missed))
        raise ValueError(
            f"{group}: det T = {float(chk.det_T[i])} misses the group's {expected} in floating "
            f"point: a forced entry under- or overflows for {draws[i]}"
        )
    rows = zip(E, T, Lam, chk.det_T, chk.max_residual())
    return [TaxonomySolution(group, e, t, lam, float(d), float(r)) for e, t, lam, d, r in rows]


def _triple(group, params, s):
    """(E, T, Lambda) of one draw of a group, its parameters validated as solve_draws says."""
    if group not in GROUPS:
        raise ValueError(
            f"unknown group {group!r}: only the beta_m = 2 groups "
            f"{GROUPS} are classified (beta_m > 2 is not supported)"
        )
    m_parity, s_parities, _, kinds = _RULES[group]
    s = int(s) % 2
    if s not in s_parities:
        raise InfeasibleGroupError(
            f"{group} is infeasible for s parity {s}; the groups for m parity "
            f"{m_parity} and s parity {s} are {admissible_groups(m_parity, s)}"
        )
    for key in params:
        if key not in kinds:
            raise ValueError(
                f"group {group} has no parameter {key!r}; its parameters are {list(kinds)}"
            )
    p = {
        key: _sign(params, group, key) if kind == "sign" else _param(params, group, key, kind)
        for key, kind in kinds.items()
    }
    nonzero = [key for key, kind in kinds.items() if kind == "nonzero"]
    if any(p[key] == 0 for key in nonzero):
        raise InfeasibleGroupError(f"{group} needs " + " and ".join(f"{k} != 0" for k in nonzero))
    sgn_s = 1 if s == 0 else -1

    if group == "S2.1.1":
        E12, lam11 = p["E12"], p["lam11"]
        lam22 = sgn_s * E12 * E12 / lam11
        E = np.array([[0, E12], [E12, 0]], dtype=float)
        Lam = np.array([[lam11, 0], [0, lam22]], dtype=float)
        T = np.array([[0, lam11 / E12], [lam22 / E12, 0]], dtype=float)

    elif group == "S2.1.2":
        E12, lam12 = p["E12"], p["sign"] * p["E12"]
        E = np.array([[0, E12], [E12, 0]], dtype=float)
        Lam = np.array([[0, lam12], [lam12, 0]], dtype=float)
        a = lam12 / E12
        T = np.array([[a, 0], [0, a]], dtype=float)

    elif group == "S2.1.3":
        E12, lam11, lam12 = p["E12"], p["lam11"], p["lam12"]
        # lam12^2 - lam11 lam22 = (-1)^{s+1} E12^2
        lam22 = (lam12 * lam12 + sgn_s * E12 * E12) / lam11
        E = np.array([[0, E12], [-E12, 0]], dtype=float)
        Lam = np.array([[lam11, lam12], [lam12, lam22]], dtype=float)
        T = np.array([[-lam12, lam11], [-lam22, lam12]], dtype=float) / float(E12)

    elif group == "S2.2.1":
        E11, E22, sign1, sign2 = p["E11"], p["E22"], p["sign1"], p["sign2"]
        E = np.array([[E11, 0], [0, E22]], dtype=float)
        Lam = np.array([[sign1 * E11, 0], [0, sign2 * E22]], dtype=float)
        T = np.array([[sign1, 0], [0, sign2]], dtype=float)

    else:  # S2.2.2
        E11, E22, lam12, sign = p["E11"], p["E22"], p["lam12"], p["sign"]
        if E11 * E22 == 0:
            raise ValueError(f"{group}: E11 * E22 underflows to 0 for {params}")
        val = sgn_s - lam12 * lam12 / (E11 * E22)
        if val < 0:
            raise InfeasibleGroupError(
                "S2.2.2 infeasible: (lam11/E11)^2 = (-1)^s - "
                f"lam12^2/(E11*E22) = {float(val):.6g} < 0"
            )
        A = sign * math.sqrt(float(val))
        lam11 = A * float(E11)
        lam22 = -A * float(E22)
        E = np.array([[E11, 0], [0, E22]], dtype=float)
        Lam = np.array([[lam11, lam12], [lam12, lam22]], dtype=float)
        T = np.array([[A, float(lam12) / float(E22)], [float(lam12) / float(E11), -A]])

    return E, T, Lam


_DRAWS = {
    "nonzero": lambda rng: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
    "real": lambda rng: float(rng.uniform(-2, 2)),
    "sign": lambda rng: int(rng.choice([-1, 1])),
}


def random_params(group, s, rng):
    """A feasible draw for solve_group: by kind, but S2.2.2's E22 and lam12 as it admits."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if group != "S2.2.2":
        return {key: _DRAWS[kind](rng) for key, kind in _RULES[group][3].items()}
    E11 = _DRAWS["nonzero"](rng)
    if s % 2:
        # needs E11*E22 < 0 and lam12^2 >= |E11*E22|
        E22 = -math.copysign(float(rng.uniform(0.5, 2.0)), E11)
        lam12 = float(rng.choice([-1.0, 1.0]) * math.sqrt(abs(E11 * E22)) * rng.uniform(1.0, 2.0))
    else:
        E22 = math.copysign(float(rng.uniform(0.5, 2.0)), E11)
        lam12 = float(rng.uniform(-1.0, 1.0) * math.sqrt(abs(E11 * E22)))
    return {"E11": E11, "E22": E22, "lam12": lam12, "sign": _DRAWS["sign"](rng)}
