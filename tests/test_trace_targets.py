"""The names the benchmark's tracer patches still exist in the library.

``perfbench/spans.py`` swaps library functions for timing wrappers by
``(module, attribute)``.  A name it lists that the library no longer has
makes every traced benchmark run fail, so this checks the list against the
package without running the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

from oamphoton.hamiltonians import HamiltonianMatrix

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
