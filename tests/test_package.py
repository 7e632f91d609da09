"""Static guards on the package: one implementation per formula.

A public function of a kernel module that no other package module calls
is a twin that only tests exercise; it can drift from the code the
allocator actually runs, so it fails here. The drop-generation modules
(channel, scenario) build every drop through their own helpers, so there
a caller in the same module counts.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nomadas

PKG = Path(nomadas.__file__).resolve().parent
KERNEL_MODULES = ("waterfill", "mutual_sic", "solver", "optimal_pa")
DROP_MODULES = ("channel", "scenario")


def _tree(module):
    return ast.parse((PKG / f"{module}.py").read_text())


def _public_functions(module):
    return [node.name for node in _tree(module).body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _names_used(module):
    """Every name a module reads, bare or as an attribute."""
    used = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("module", KERNEL_MODULES + DROP_MODULES)
def test_public_kernels_have_a_package_caller(module):
    callers = [p.stem for p in PKG.glob("*.py") if p.stem != "__init__"
               and (p.stem != module or module in DROP_MODULES)]
    used = set().union(*(_names_used(m) for m in callers))
    unused = [f for f in _public_functions(module) if f not in used]
    assert not unused, f"{module}: only tests call {unused}"


def test_assignment_state_stays_in_allocators():
    """Only allocators reads the state's occupancy and cursor arrays;
    every other module lists the assignment through state.links()."""
    private = {"owner", "by_gain", "cursor", "weakest", "sole_slots"}
    leaks = {p.stem: sorted(private & _names_used(p.stem))
             for p in PKG.glob("*.py") if p.stem != "allocators"}
    assert not any(leaks.values()), leaks


def test_exported_names_resolve():
    assert len(set(nomadas.__all__)) == len(nomadas.__all__)
    missing = [n for n in nomadas.__all__ if not hasattr(nomadas, n)]
    assert not missing


def test_import_loads_no_process_pool():
    """Importing the package leaves concurrent.futures unloaded: only a
    pooled run_monte_carlo call imports it."""
    path = os.pathsep.join(filter(None, (str(PKG.parent),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nomadas; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
