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


def count_layer_calls(monkeypatch, workload, suites):
    """Calls into every traced layer during one operation, and the labels
    of the layers traced on workload.

    The operation is one run of suites on the g1_swap fixture at seed 0,
    then rendering its report.  Functions are counted in every devissage
    module that holds them and methods on their class, as the tracer
    rebinds them.
    """
    from devissage import cli

    tracer = load_tracer(monkeypatch)
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("devissage.") and mod is not None}
    calls = {}
    homes = set()

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, workloads, _ in tracer.LAYERS:
        label = f"{module}.{name}"
        calls[label] = 0
        if workload in workloads:
            homes.add(label)
        home = modules[f"devissage.{module}"]
        if "." in name:
            cls_name, attr = name.split(".")
            owner = vars(home)[cls_name]
            monkeypatch.setattr(owner, attr,
                                counting(label, vars(owner)[attr]))
            continue
        original = vars(home)[name]
        wrapper = counting(label, original)
        for mod in modules.values():
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    code, report = cli.run(cli.RunConfig(
        input_path=os.path.join(os.path.dirname(TRACER), os.pardir,
                                "fixtures", "g1_swap.json"),
        suites=suites, seed=0))
    assert code == 0
    cli.render_json(report)
    return calls, homes


def test_algebra_seeds_layers_are_called(monkeypatch):
    """One algebra-seeds operation reaches every layer traced on it.

    Inlining a traced function into its callers, or calling it through a
    name the tracer does not rebind, leaves its counter at zero and fails
    the traced benchmark run; this catches it in the test suite.
    """
    calls, homes = count_layer_calls(monkeypatch, "algebra-seeds",
                                     ("boxcalc", "torsionlevels"))
    assert {"lprimary.box", "lprimary.torsbis_maps"} <= homes
    assert all(calls[label] for label in homes), calls
    # the reuse the workload's speed rests on: box(B, C) once per boxcalc
    # triple, box_power(A, n) in n - 1 products from A, no kernel,
    # preimage or Smith form at the left end of a complex, and one
    # exactness proof of the witness sequence for both of its probes;
    # these counts do not depend on the seed
    assert (calls["lprimary.box"], calls["exactlin.solve_integer"],
            calls["exactlin.smith_with_inverses"]) == (881, 3, 27)


def test_graph_scale_layers_are_called(monkeypatch):
    """One run of the graph-scale suites reaches every layer traced there,
    the IntMatrix.det method among them."""
    calls, homes = count_layer_calls(
        monkeypatch, "graph-scale", ("graph", "splitting", "devissage", "bhn"))
    assert {"dualgraph.build_psi", "sequences.lambda_structure",
            "exactlin.IntMatrix.det"} <= homes
    assert all(calls[label] for label in homes), calls
    # the bhn report reads the instance's cached rho for the dual lattice
    # check rather than reducing M - 1 once more, and dual_fixed_rank takes
    # the one generator's det once, as its unimodularity check and as the
    # sign of its inverse, so the Smith forms and determinants are pinned
    assert (calls["exactlin.smith_with_inverses"],
            calls["exactlin.IntMatrix.det"]) == (70, 5)
    # the splitting suite proves its combined section once over Z, from
    # g1_swap's one orbit, and every level reads it
    assert (calls["dualgraph.build_psi"],
            calls["dualgraph.bezout_combine"]) == (1, 1)


def test_fixture_all_layers_are_called(monkeypatch):
    """The README quickstart run, every suite on g1_swap, reaches every
    layer traced on fixture-all, the Frobenius-object layers among them."""
    calls, homes = count_layer_calls(monkeypatch, "fixture-all", ("all",))
    assert {"procyclic._kernel_corank", "lprimary.box_frob_power",
            "lprimary.FrobObject.__post_init__"} <= homes
    assert all(calls[label] for label in homes), calls
