"""The benchmark's tracer patches orthostab functions by name.

``perfbench/tracing.py`` lists, in ``_SPANS``, the (module, name) pairs
it replaces by timing wrappers in the modules that call them.  A name
that is renamed, removed or no longer imported there would otherwise
show up only as a ``KeyError`` in a traced benchmark round.  The file
is read, not imported, so that nothing is written next to it.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _span_targets():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return [(span, module, name)
            for span, targets in namespace["_SPANS"].items()
            for module, name in targets]


@pytest.mark.parametrize("span, module, name", _span_targets(),
                         ids=str)
def test_span_target_is_a_module_attribute(span, module, name):
    mod = importlib.import_module(f"orthostab.{module}")
    assert callable(getattr(mod, name, None)), (
        f"span {span!r} wraps orthostab.{module}.{name}, which is missing")
