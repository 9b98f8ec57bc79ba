"""The names the benchmark reads from the library still exist there.

``perfbench/spans.py`` swaps library functions for timing wrappers by
``(module, attribute)``.  A name it lists that the library no longer has
makes every traced benchmark run fail, so this checks the list against the
package without running the tracer.  ``perfbench/make_references.py``
regenerates the benchmark's reference values; a name it imports that the
library no longer has breaks that, so its imports are checked too, from
its syntax tree, without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from oamphoton.hamiltonians import HamiltonianMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_library_patch_target_exists():
    missing = [(module, attribute)
               for module, attribute, *_ in _spans().LIBRARY_PATCHES
               if not hasattr(importlib.import_module(module), attribute)]
    assert missing == []


def test_matrix_counts_read_the_storage_view():
    # The tracer's matrix counts read these two attributes.
    assert hasattr(HamiltonianMatrix, "is_dense")
    assert hasattr(HamiltonianMatrix, "data")


def test_every_reference_generator_import_exists():
    tree = ast.parse((PERFBENCH / "make_references.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "oamphoton"
               for alias in node.names]
    assert imports
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
