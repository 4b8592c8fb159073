"""The budget rule has one home: `errors.check_budget` and its default.

This reads the library's source with `ast`, so a second copy of the
gate, a second default or a hand-written budget error fails here even
when its message happens to match.  The fixed caps (the subset vertex
cap, the orientation oracle's edge limit and the series order cap) are
limits, not budgets, and keep their own raises.  The checks `verify`
makes before a suite's first case are the enumerators' own.  The orbit
listers of `knm` size their output by a closed orbit count and name no
orbit-type DP.  The `%` templates of the `enumerate` records have one
copy, in `knm`, and D has one walker, `knm._runs`, behind the two set
walkers.
"""

import ast
from pathlib import Path

import pytest

from breakpark import knm, verify
from breakpark.errors import BudgetExceededError

SRC = Path(__file__).resolve().parent.parent / "src" / "breakpark"

CAPS = {
    ("multigraph", "_require_subset_cap"),
    ("multigraph", "orientable_bruteforce"),
    ("counting", "_substituted_tree_series"),
}


def scopes():
    """(module, enclosing function or None, node) for every node of every
    library module."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, None)]
        while stack:
            node, function = stack.pop()
            yield path.stem, function, node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            stack.extend((child, function) for child in ast.iter_child_nodes(node))


def assigned_names(node):
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_one_default_and_one_gate_both_in_errors():
    defaults = [(module, name) for module, _, node in scopes()
                for name in assigned_names(node)
                if name.startswith("DEFAULT_") and name.endswith("_BUDGET")]
    gates = [module for module, _, node in scopes()
             if isinstance(node, ast.FunctionDef) and node.name == "check_budget"]
    assert defaults == [("errors", "DEFAULT_SET_BUDGET")]
    assert gates == ["errors"]


def test_budget_errors_are_raised_only_by_the_gate_and_the_caps():
    raisers = set()
    for module, function, node in scopes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "BudgetExceededError":
                raisers.add((module, function))
    assert raisers == {("errors", "check_budget")} | CAPS


ORBIT_LISTERS = ("break_orbit_reps", "parking_orbit_reps")
ORBIT_TYPE_DPS = {"break_orbit_types", "parking_orbit_types",
                  "count_break_types"}


def test_orbit_listers_name_no_orbit_type_dp():
    listers, named = set(), set()
    for module, function, node in scopes():
        if module != "knm":
            continue
        if isinstance(node, ast.FunctionDef) and node.name in ORBIT_LISTERS:
            listers.add(node.name)
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if function in ORBIT_LISTERS and name in ORBIT_TYPE_DPS:
            named.add((function, name))
    assert listers == set(ORBIT_LISTERS)
    assert named == set()


SET_FIELDS = (knm.break_fields, knm.parking_fields, knm.residue_fields,
              knm.class_fields)


def test_set_templates_have_one_copy_in_knm():
    """The `%` templates of the break, park, residue and classes records are
    declared once, next to their walkers in `knm`: none is a string
    literal of `cli`."""
    templates = {template for fields in SET_FIELDS for n in range(1, 9)
                 for _, template in fields(knm.KnmParams(2, n))}
    literals = {node.value for module, _, node in scopes()
                if module == "cli" and isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    assert len(templates) > 5
    assert templates & literals == set()


def test_only_the_two_set_walkers_read_the_runs_of_d():
    """Every route to D and its shift classes goes through
    `enumerate_residue_tuples` or `shift_classes`, so each is checked
    against its budget and no second walk of the runs sits beside them:
    no other top-level function of the library names `knm._runs`."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "_runs"
                        or isinstance(node, ast.Attribute) and node.attr == "_runs"):
                    readers.add((path.stem, top.name))
    assert readers == {("knm", "enumerate_residue_tuples"), ("knm", "shift_classes")}


# A suite and the one case of m = 1, n <= N over budget, with the
# enumerator whose check that case fails first.
UP_FRONT = [
    ("cardinalities", 8, knm.enumerate_residue_tuples),
    ("shift-classes", 8, knm.shift_classes),
    ("module-isomorphisms", 8, knm.enumerate_residue_tuples),
    ("characters", 9, knm.enumerate_break),
]


@pytest.mark.parametrize("suite, n, enumerator", UP_FRONT,
                         ids=[suite for suite, _, _ in UP_FRONT])
def test_verify_fails_up_front_with_the_enumerators_error(suite, n, enumerator):
    with pytest.raises(BudgetExceededError) as exc:
        enumerator(knm.KnmParams(1, n))
    assert verify.run_suites(only=[suite], m_max=1, n_max=n) == [
        (suite, False, f"over budget: {exc.value}")
    ]
