"""Every value a caller can set on the library's public names, and every
option of the command line, itemised.

The walk covers the public functions, the public methods of public classes
and the defaulted fields of public dataclasses that each module defines.
A new keyword default or dataclass default shows up as a diff of SETTABLE,
and a new or deleted `--flag` as a diff of OPTIONS.
"""

import argparse
import dataclasses
import importlib
import inspect

from formdec import cli

MODULES = ("calculus", "cli", "cohomology", "decompose", "em", "fields", "mesh", "taxonomy")

SETTABLE = [
    "cli.main(argv)",
    "mesh.GridSpec.R",
    "mesh.GridSpec.metric",
    "mesh.GridSpec.r",
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


COMMON = ["--seed", "--json-out", "--timings"]

OPTIONS = {
    "verify": ["--suite", "--dim", "--metric", "--R", "--r", "--grid", *COMMON],
    "torus2": ["--mode", "--R", "--r", "--grid", *COMMON],
    "taxonomy": ["--m-parity", "--s", "--group", "--params", "--draws", *COMMON],
    "decompose": ["--preset", "--grid", *COMMON],
    "em": ["--preset", "--charges", "--grid", *COMMON],
}


def test_cli_options_are_itemised():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        command: [
            a.option_strings[0]
            for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
        for command, parser in sub.choices.items()
    }
    assert found == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 35
