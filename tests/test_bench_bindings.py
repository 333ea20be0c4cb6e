"""The names the benchmark's span recorder binds in torsionlab still exist.

``perfbench/spans.py`` times layers by swapping module attributes and
stages a suite's lattice arithmetic through ``SubmoduleLattice`` methods,
so removing one of those names breaks only the traced benchmark runs.
This test loads the recorder by path, without importing the benchmark as
a package, and checks each name here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from torsionlab.modules import SubmoduleLattice

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the lattice methods Tracer.stage_suite and installed() call or wrap
STAGED_METHODS = ("inclusion_pairs", "maximal_chains", "covers", "colon_row", "pair_colon", "sum")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_bindings_resolve():
    bindings = _load_spans().LAYER_BINDINGS
    missing = [
        (mod, attr)
        for pairs in bindings.values()
        for mod, attr in pairs
        if not hasattr(importlib.import_module(f"torsionlab.{mod}"), attr)
    ]
    assert not missing


def test_staged_lattice_methods_exist():
    assert [name for name in STAGED_METHODS if not callable(getattr(SubmoduleLattice, name, None))] == []
