"""Where the public names live, and what the I/O layer imports.

``MomentProfile`` lives in ``fpdata`` beside ``FixedPointData``, and
``localization_consistent`` in ``localize`` beside the engine it asks. Both
names stay bound in ``solver``, which uses them, so ``hamfp.solver.X`` and a
pickle made when they were defined there still resolve.
"""

import ast
import pickle
from pathlib import Path

import pytest

import hamfp
import hamfp.dataio
import hamfp.fpdata
import hamfp.localize
import hamfp.solver


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
