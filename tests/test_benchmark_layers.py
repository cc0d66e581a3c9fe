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


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_layer_name_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.LAYERS
    for module, name, _, _ in tracer.LAYERS:
        namespace = vars(importlib.import_module(f"devissage.{module}"))
        if "." in name:
            # a method is rebound on its class, so the class must define it
            cls_name, name = name.split(".")
            namespace = vars(namespace[cls_name])
        assert callable(namespace.get(name)), f"{module}.{name}"


def test_algebra_seeds_layers_are_called(monkeypatch):
    """One algebra-seeds operation reaches every layer traced on it.

    Inlining a traced function into its callers, or calling it through a
    name the tracer does not rebind, leaves its counter at zero and fails
    the traced benchmark run; this catches it in the test suite.
    Functions are counted in every devissage module that holds them, as
    the tracer rebinds them.
    """
    from devissage import cli

    tracer = load_tracer(monkeypatch)
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("devissage.") and mod is not None}
    calls = {}

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, homes, _ in tracer.LAYERS:
        if tracer.AS not in homes:
            continue
        assert "." not in name, "a method layer needs a class rebinding"
        label = f"{module}.{name}"
        calls[label] = 0
        original = vars(modules[f"devissage.{module}"])[name]
        wrapper = counting(label, original)
        for mod in modules.values():
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    assert {"lprimary.box", "lprimary.torsbis_maps"} <= set(calls)
    # one benchmark operation: run, then render the report
    code, report = cli.run(cli.RunConfig(
        input_path=os.path.join(os.path.dirname(TRACER), os.pardir,
                                "fixtures", "g1_swap.json"),
        suites=("boxcalc", "torsionlevels"), seed=0))
    assert code == 0
    cli.render_json(report)
    assert all(calls.values()), calls
