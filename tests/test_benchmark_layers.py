"""The benchmark tracer's layer names resolve to library callables.

perfbench/tracer.py rebinds every (module, name) in its LAYERS table and
fails a traced run when one is missing; this keeps a rename from going
unnoticed until then.  The tracer file is only read.
"""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def test_every_layer_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module, name, _, _ in tracer.LAYERS:
        namespace = vars(importlib.import_module(f"devissage.{module}"))
        if "." in name:
            # a method is rebound on its class, so the class must define it
            cls_name, name = name.split(".")
            namespace = vars(namespace[cls_name])
        assert callable(namespace.get(name)), f"{module}.{name}"
