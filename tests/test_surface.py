"""Guard against test-only library surface: every public module-level
function in the package must be referenced from the package itself or from
the bench harness.

References are read from the syntax tree (names and attribute accesses),
not from the source text, so a mention in a docstring or comment does not
count as a caller, and neither does an import: a name that is only
imported or re-exported, as from the package's __init__, has no caller.
A function that only tests need belongs in tests/util.py; a function that
states a paper inequality which a test asserts, but which no code path
evaluates, is named in ALLOWED with that claim.

The package root is a docstring alone, so importing a counting module
loads no module of the package that it does not use; the command line
imports the modules of a verb in that verb, so counting and the shape
checks run without mpmath.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stableseq"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    # criterion 7: the weighted sum of F_lam over small subsets of one class
    # is at most exp((lam/2)(2/(1+lam))^d + d^2 lam^2 (1+lam)^2 2^d/(1+lam)^(2d))
    "cube_estimates.small_sum_dominates",
    # criterion 7: the weighted sum over small 2-linked sets of size >= k is
    # at most e^(k-1) d^(2k-2) 2^d F_lam(k, kd - 2k(k-1))
    "cube_estimates.linked_sum_dominates",
    # four-case argument: the one-step drop h(t,t) - h(t+1,t+1) is at most
    # h(t,t) 2(d-1)/(2^(d-1) - t)
    "cube_estimates.step_weight_drop_bound",
    # four-case argument: exp(h(t,t) - h(t+1,t+1)) <= 1 + tol on the mid
    # (tol 0.76^d) and top (tol d^2/2^d) ranges of t
    "cube_estimates.consecutive_ratio_aux_holds",
    # regular-case step theorem: a 2n-vertex d-regular bipartite graph is
    # s-step increasing on [0, (1-eps)n/2] for the scanned step s
    "bounds.step_bound_regular",
}


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _public_functions() -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_every_public_function_has_a_caller_outside_tests():
    referenced = set().union(*map(_references, CALLERS))
    orphans = [
        name for name in _public_functions()
        if name not in ALLOWED
        and name.partition(".")[2] not in referenced
        # cli.main dispatches the verbs through globals()
        and not name.startswith("cli.cmd_")
    ]
    assert not orphans, (
        "public functions with no caller in src/stableseq or perfbench; move "
        "each to tests/util.py, delete it, or name the paper claim it states: "
        f"{orphans}")


def test_allowlist_names_existing_functions():
    assert ALLOWED <= set(_public_functions())


def test_package_root_is_a_docstring_alone():
    # library code imports from the modules; the root re-exports nothing
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr) \
        and isinstance(body[0].value.value, str)


def _modules_after(code: str) -> set[str]:
    """The modules loaded after code runs in a fresh interpreter, which
    must exit 0."""
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ,
                                              PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module, loads", [
    ("graphs", {"graphs"}),
    ("exact", {"exact", "graphs"}),
])
def test_counting_modules_load_only_what_they_use(module, loads):
    # the package root loads no module of its own, so counting never loads
    # numerics (and with it mpmath), bounds, percolation, seqshape, cube or
    # the CLI
    loaded = _modules_after(f"import stableseq.{module}")
    assert {m for m in loaded if m.startswith("stableseq.")} == \
        {"stableseq." + m for m in loads}
    assert "mpmath" not in loaded


@pytest.mark.parametrize("argv", [
    ["count", "--graph", "qd:3"],
    ["check", "--graph", "qd:3", "--property", "unimodal"],
    ["check", "--graph", "qd:3", "--property", "final-third"],
    ["check", "--graph", "qd:3", "--property", "bgs"],
    ["percolate", "--base", "knn:4,4", "--p", "1/2", "--trials", "2"],
])
def test_counting_verbs_load_no_mpmath(argv):
    # percolate's step rule is exact in floats and integers, so it loads
    # percolation but neither numerics nor bounds
    loaded = _modules_after(
        f"from stableseq import cli; assert cli.main({argv!r}) == 0")
    own = {"stableseq.percolation"} if argv[0] == "percolate" else set()
    assert not loaded & ({"mpmath", "stableseq.numerics", "stableseq.bounds",
                          "stableseq.cube", "stableseq.cube_estimates",
                          "stableseq.percolation"} - own)


def test_percolate_loads_no_cube():
    loaded = _modules_after(
        "from stableseq import cli; assert cli.main(['percolate', '--base', "
        "'knn:4,4', '--p', '1/2', '--trials', '1']) == 0")
    assert "stableseq.percolation" in loaded
    assert not loaded & {"stableseq.cube", "stableseq.cube_estimates"}
