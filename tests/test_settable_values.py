"""Every value a caller can set on the library's public names, itemised.

The walk covers the public functions, the public methods of public classes
and the defaulted fields of public dataclasses that each module defines.
A new keyword default or dataclass default shows up as a diff of SETTABLE.
"""

import dataclasses
import importlib
import inspect

MODULES = ("calculus", "cli", "cohomology", "decompose", "em", "fields", "mesh", "taxonomy")

SETTABLE = [
    "calculus.green_solve(tol)",
    "cli.main(argv)",
    "cohomology.verify_triple(T_p)",
    "em.action(c)",
    "em.action(mu0)",
    "em.assemble_F(c)",
    "em.charges(c)",
    "em.charges(mu0)",
    "em.currents(mu0)",
    "em.maxwell_residuals(mu0)",
    "fields.em_preset(c)",
    "fields.em_preset(charge_list)",
    "fields.em_preset(mu0)",
    "mesh.GridSpec.R",
    "mesh.GridSpec.metric",
    "mesh.GridSpec.r",
    "taxonomy.solve_group(s)",
]


def _defaults(fn):
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def _has_default(f):
    return f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING


def test_settable_values_are_itemised():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"formdec.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found += [f"{name}.{attr}({p})" for p in _defaults(obj)]
            elif inspect.isclass(obj):
                dataclass = dataclasses.is_dataclass(obj)
                if dataclass:  # its generated __init__ takes the fields
                    found += [
                        f"{name}.{attr}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.init and _has_default(f)
                    ]
                for meth, fn in vars(obj).items():
                    public = meth == "__init__" and not dataclass or not meth.startswith("_")
                    if public and inspect.isfunction(fn):
                        found += [f"{name}.{attr}.{meth}({p})" for p in _defaults(fn)]
    assert sorted(found) == SETTABLE
