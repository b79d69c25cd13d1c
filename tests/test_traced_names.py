"""Every function the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py``'s ``Tracer.install`` looks each name in
``SPANNED`` and ``LEAVES`` up with ``getattr``, so deleting or renaming one
of them breaks the benchmark. The perfbench tests are not part of this
suite, so this guard is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()


@pytest.mark.parametrize("qualname", tracing.SPANNED + tracing.LEAVES)
def test_traced_name_is_a_package_callable(qualname):
    module_name, func_name = qualname.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    assert callable(getattr(module, func_name, None)), qualname
