"""The benchmark's tracer wraps every function and method named in its
``TRACED`` table and puts the originals back when uninstalled, so a rename
or removal of a traced name fails here rather than only in a traced
benchmark run (``bench/run.py --trace 1``)."""

import importlib
import inspect
import sys
from pathlib import Path

import polyanet  # noqa: F401  (loads every submodule)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def namespaces():
    """Every attribute of every polyanet module and of every class that
    polyanet defines, keyed by (owner, name)."""
    mods = [m for k, m in sys.modules.items() if k == "polyanet" or k.startswith("polyanet.")]
    out = {}
    for mod in mods:
        for key, val in vars(mod).items():
            out[mod.__name__, key] = val
            if inspect.isclass(val) and val.__module__.startswith("polyanet"):
                for meth, fn in vars(val).items():
                    out[f"{val.__module__}.{val.__qualname__}", meth] = fn
    return out


def test_tracer_wraps_every_traced_name_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    before = namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for modname, attrs in tracing.TRACED.values():
            mod = sys.modules[f"polyanet.{modname}"]
            for attr in attrs:
                owner, _, name = attr.rpartition(".")
                fn = vars(getattr(mod, owner))[name] if owner else getattr(mod, attr)
                key = f"{mod.__name__}.{owner}" if owner else mod.__name__
                assert fn.__wrapped__ is before[key, name], attr
    finally:
        tracer.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
