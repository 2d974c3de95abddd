"""README names library functions and modules in backticks.  A name that
fp4sim no longer defines leaves the README describing code that is gone, so
this test resolves every backticked call form `name(` and every
`fp4sim.<module>` path against the package."""

import importlib
import os
import re

import fp4sim

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _resolves(dotted: str) -> bool:
    """Whether a dotted name, read from fp4sim down, names an attribute of
    the package or of one of its modules; submodules are imported."""
    parts = dotted.split(".")
    obj, name = fp4sim, "fp4sim"
    for part in parts[1:] if parts[0] == "fp4sim" else parts:
        name = f"{name}.{part}"
        if not hasattr(obj, part):
            try:
                importlib.import_module(name)
            except ImportError:
                return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def test_readme_names_resolve():
    with open(README) as f:
        text = f.read()
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(", text)
    modules = re.findall(r"`(fp4sim(?:\.\w+)+)", text)
    assert calls and modules
    assert [n for n in calls + modules if not _resolves(n)] == []
