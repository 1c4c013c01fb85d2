"""Every name eqm_lab exports is read by the package or the benchmark, or is listed here with why.

The package modules and the benchmark's files are parsed, not imported: a
name counts as read where it appears as a Name or an Attribute.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "eqm_lab"

# Exported names that nothing in the package or the benchmark reads, and why each stays.
PLANNED = {  # a suite row is planned to call it (ROADMAP item)
    "poisson_bracket": "item 9: the precondition row of a symmetry that is not a Wigner map",
    "fd_differential_residual": "item 2: the orbit row replaces it, and then it goes",
    "expectation": "item 14: the rows of a mixture read as a measure",
    "pushforward_state": "item 14: the rows of a mixture read as a measure",
    "convergence_order": "item 17: the integrator_order row on mean-field-qubit",
}
REFERENCES = {  # a Tier-1 test compares the kernel against it, in these files
    "unitary_exponential": ("test_flow.py",),  # the linear step, full and partial
    "spectrum": ("test_flow.py",),  # the per-record spectrum-drift monitor
    "inner_product": ("test_koopman.py",),  # the norm along an orbit, the Gaussian's pi
    "heisenberg_transform": ("test_observables.py", "test_properties.py",
                             "test_acceptance.py"),  # the T_t automorphism and the duality
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _read_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_idle_export_is_listed_and_no_listed_one_is_read():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    read = _read_names(sources)
    exported = _exported()
    assert len(exported) == len(set(exported)) > 0
    idle = {name for name in exported if name not in read}
    listed = PLANNED.keys() | REFERENCES.keys()
    assert idle - listed == set(), "exported, read by nothing, and not listed"
    assert listed - idle == set(), "listed, but now read: take it off the list"


def test_each_reference_is_read_where_it_says():
    for name, files in REFERENCES.items():
        for file in files:
            assert name in _read_names([TESTS / file]), (name, file)


def test_no_package_module_reads_trajectory_states():
    # Trajectory.states builds a checked copy of every record; the package
    # reads the checked stacks instead, so the benchmark is its only reader.
    # Once perfbench/ reads traj.rho too, the property can go (ROADMAP item 16).
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "states"]
    assert readers == []
