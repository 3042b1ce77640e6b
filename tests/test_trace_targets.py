"""The benchmark's tracer (perfbench/tracer.py) wraps symcrys functions and
methods by name.  Each of its targets must stay where it looks: a module
attribute of its module, or a method defined in its own class body (the
tracer reads `Class.__dict__[name]` and does not follow inheritance)."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(modname, attr) for modname, attr, *_ in tracer.TARGETS]


def test_every_trace_target_resolves():
    missing = []
    targets = _targets()
    for modname, attr in targets:
        module = importlib.import_module("symcrys." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert targets
    assert missing == []
