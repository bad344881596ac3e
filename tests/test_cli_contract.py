"""The command line's output contract over generated argument lists.

Arguments are drawn from the parser's option space: every subcommand and
suite, dims 1-4, even grids of at most 16 points per axis (8 at dim 4),
log-uniform radii over 1e-160..1e160, charges, taxonomy parameters and
any seed.  For every draw cli.main returns 0, 1 or 2 without raising.  On
0 or 1 stdout is strict JSON and the code says whether a check failed; on
2 (a usage error) stdout is empty and stderr starts with "error:".
Options are passed as --name=value, so that a value starting with "-" is
not read as an option.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from formdec import cli, taxonomy

from test_settable_values import OPTIONS

EVEN_GRIDS = {dim: st.sampled_from(range(4, 17 if dim < 4 else 9, 2)) for dim in range(1, 5)}
RADII = st.floats(-160.0, 160.0).map(lambda e: 10.0**e)
NUMBERS = st.one_of(
    st.integers(-3, 3), st.floats(), st.sampled_from([10**400, True, "1", None])
)


def charge(draw):
    q = draw(st.one_of(st.floats(-1e160, 1e160), st.integers(-3, 3)))
    i, j = draw(st.sampled_from([(0, 1), (0, 2), (1, 3), (2, 3), (1, 0), (4, 5)]))
    return f"{q}@{i}{j}"


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    opts = {"seed": draw(st.integers(-(2**63), 2**64))}
    dim = {"torus2": 2, "decompose": 2, "em": 4}.get(command)
    if command == "verify":
        opts["suite"] = draw(st.sampled_from(sorted(cli.VERIFY_SUITES)))
        dim = opts["dim"] = draw(st.integers(1, 4))
        opts["metric"] = draw(st.sampled_from(["flat", "embedded-torus"]))
    if command == "torus2":
        opts["mode"] = draw(st.sampled_from(sorted(cli.TORUS2_METRICS)))
    if command in ("verify", "torus2") and draw(st.booleans()):
        opts["R"], opts["r"] = draw(RADII), draw(RADII)
    if command != "taxonomy":
        opts["grid"] = draw(EVEN_GRIDS[dim])
    if command == "decompose":
        opts["preset"] = draw(st.sampled_from(["mixed-t2", "exact-t2", "random"]))
    if command == "em":
        opts["preset"] = draw(st.sampled_from(["topological", "exact", "mixed"]))
        if draw(st.booleans()):
            opts["charges"] = ",".join(charge(draw) for _ in range(draw(st.integers(1, 3))))
    if command == "taxonomy":
        opts["s"] = draw(st.integers(0, 3))
        if draw(st.booleans()):
            opts["m-parity"] = draw(st.integers(0, 1))
        if draw(st.booleans()):
            group = opts["group"] = draw(st.sampled_from(taxonomy.GROUPS))
            keys = [*taxonomy._RULES[group][3], "lam21"]
            if draw(st.booleans()):
                params = draw(st.dictionaries(st.sampled_from(keys), NUMBERS, max_size=5))
                opts["params"] = json.dumps(params)
            else:
                opts["draws"] = draw(st.integers(1, 20))
    return [command] + [f"--{key}={value}" for key, value in opts.items()]


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
# subnormal coefficients of star: refused as a degenerate metric
@example(argv=["torus2", "--mode=embedded", "--grid=6", "--R=1.3e154", "--r=1.6e-154"])
# a fast diagonalization that does not converge: a failed green_solve check
@example(
    argv=["verify", "--suite=decompose", "--metric=embedded-torus", "--grid=8", "--R=1e100",
          "--r=1e-100"]
)
def test_every_argument_list_keeps_the_output_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        return

    def refuse(token):
        raise AssertionError(f"{token} in a report")

    doc = json.loads(out.getvalue(), parse_constant=refuse)
    assert code == (0 if all(c["pass"] for c in doc["checks"]) else 1)
