"""Where the public names live, what the I/O layer imports, and that no
module of the package keeps an import it does not use.

``MomentProfile`` lives in ``fpdata`` beside ``FixedPointData``, and
``localization_consistent`` in ``localize`` beside the engine, whose
partition walk, ``_walk``, it shares with the Chern-number grid. Both names
stay bound in ``solver``, which uses them, so ``hamfp.solver.X`` and a
pickle made when they were defined there still resolve.

Only ``localize``, which builds Chern tables, and ``basis``, which expands
the Chern classes from one, name ``chern_table``: every other module hands
over the dataset, so a table made for other data cannot reach the engine.

A name that a module imports only so that the benchmark tracer
(``perfbench/tracing.py``) can wrap it there counts as used when the
tracer's ``SITES`` lists that module for it.
"""

import ast
import importlib.util
import pickle
from pathlib import Path

import pytest

import hamfp
import hamfp.dataio
import hamfp.fpdata
import hamfp.localize
import hamfp.solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize(
    "name, home",
    [("MomentProfile", hamfp.fpdata), ("localization_consistent", hamfp.localize)],
)
def test_moved_names_are_one_object(name, home):
    obj = getattr(home, name)
    assert obj.__module__ == home.__name__
    assert getattr(hamfp, name) is obj
    assert getattr(hamfp.solver, name) is obj


def test_a_pickle_naming_the_solver_module_loads():
    profile = hamfp.MomentProfile(2, (-2, -1, 1, 2))
    pickled = pickle.dumps(profile, protocol=4)
    assert b"hamfp.fpdata" in pickled
    # both module names have 12 bytes, so the pickle's length prefixes hold
    older = pickled.replace(b"hamfp.fpdata", b"hamfp.solver")
    assert pickle.loads(older) == profile


def test_dataio_imports_nothing_from_the_solver():
    # hamfp/__init__ loads every module, so sys.modules cannot show this
    tree = ast.parse(Path(hamfp.dataio.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "fpdata" in imported
    assert not [name for name in imported if "solver" in name.split(".")]


def test_every_relative_import_is_used_or_traced():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unused = []
    for path in sorted(Path(hamfp.__file__).parent.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {
            span.split(".")[1]
            for span, sites in tracing.SITES.items()
            if module in sites
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                bound = (alias.asname or alias.name for alias in node.names)
                unused += [f"{module}.{name}" for name in bound if name not in names]
    assert unused == []


def test_only_localize_and_basis_name_chern_table():
    naming = []
    for path in sorted(Path(hamfp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        if "chern_table" in names:
            naming.append(path.stem)
    assert naming == ["basis", "localize"]
