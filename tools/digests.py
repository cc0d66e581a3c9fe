"""Print the exit code and report digest of a fixed set of runs.

Usage, from the root of a source checkout:

    python3 tools/digests.py > digests.txt

Each line is one JSON object: the instance, the suites, the seed, the
exit code of ``devissage.cli.run`` and the SHA-256 of its ``render_json``
report.  The runs are

* the three shipped fixtures with every suite, at seeds 0 and 3;
* the six graph-scale files of ``perfbench/graphs.py`` at seeds 0, 3 and
  1000, with the graph-scale suites, written to a temporary directory;
  each report's ``input`` is set to the file name, so the digest does not
  depend on that directory;
* ``boxcalc,torsionlevels`` on ``g1_swap.json`` at seeds 0, 20, ..., 180;
* ``g1_swap.json`` with both components of genus 1 swapped by the action
  and one jacobian on a component orbit of size 2 (so its block is
  induced with a cyclic wrap), with ``bhn`` and with every suite at seed
  0, written to the temporary directory as ``g1_jacobian_orbit.json``;
* a four-component graph whose splitting suite combines three tree
  orbits, of sizes 2, 2 and 1, to reach m = 1, with ``splitting`` and
  with every suite at seed 0, written there as ``three_orbits.json``.

Two checkouts print the same lines exactly when they give the same exit
codes and byte-identical reports on these runs, so comparing a change
with its parent is one ``diff`` of the two outputs.  Only the standard
library is used besides the program itself; nothing under ``perfbench/``
is written.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = ("g1_swap.json", "g2_tree.json", "banana4_divisors.json")
GRAPH_SUITES = ("graph", "splitting", "devissage", "bhn")
ALGEBRA_SUITES = ("boxcalc", "torsionlevels")
JACOBIAN_ORBIT = {
    "components": [{"id": "u", "genus": 1}, {"id": "v", "genus": 1}],
    "action": [[["u", "v"]]],
    "jacobians": [{"orbit_rep": "u", "charpoly": [1, -2, 25], "q": 25,
                   "f": 2}],
}
THREE_ORBITS = {
    "schema": "devissage/1",
    "components": [{"id": "c1"}, {"id": "c2"}, {"id": "c3"}, {"id": "c4"}],
    "nodes": ["n1", "n2", "n3", "n4", "n5"],
    "edges": [["c1", "n1"], ["c1", "n5"], ["c2", "n1"], ["c2", "n2"],
              ["c2", "n3"], ["c2", "n4"], ["c2", "n5"], ["c3", "n2"],
              ["c3", "n4"], ["c4", "n3"]],
    "action": [[["c1", "c3"], ["n1", "n2"], ["n4", "n5"]]],
    "ell": 3,
    "q": 5,
}


def digest(cli, name, config):
    code, report = cli.run(config)
    report["input"] = name
    text = cli.render_json(report)
    return json.dumps({"instance": name, "suites": ",".join(config.suites),
                       "seed": config.seed, "exit": code,
                       "sha256": hashlib.sha256(text.encode()).hexdigest()})


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import graphs
    from devissage import cli

    fixtures = os.path.join(ROOT, "fixtures")
    g1_swap = os.path.join(fixtures, "g1_swap.json")
    for name in FIXTURES:
        for seed in (0, 3):
            config = cli.RunConfig(input_path=os.path.join(fixtures, name),
                                   seed=seed)
            print(digest(cli, name, config))
    with tempfile.TemporaryDirectory() as work:
        for seed in (0, 3, 1000):
            files = graphs.write_instances(os.path.join(work, str(seed)), seed)
            for name, path, cap in files:
                extra = {} if cap is None else {"tree_cap": cap}
                config = cli.RunConfig(input_path=path, suites=GRAPH_SUITES,
                                       seed=seed, **extra)
                print(digest(cli, f"{name}.json", config))
        with open(g1_swap, encoding="utf-8") as fh:
            jacobian_orbit = {**json.load(fh), **JACOBIAN_ORBIT}
        for name, raw, first in (
                ("g1_jacobian_orbit.json", jacobian_orbit, "bhn"),
                ("three_orbits.json", THREE_ORBITS, "splitting")):
            path = os.path.join(work, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            for suites in ((first,), ("all",)):
                config = cli.RunConfig(input_path=path, suites=suites,
                                       seed=0)
                print(digest(cli, name, config))
    for seed in range(0, 200, 20):
        config = cli.RunConfig(input_path=g1_swap, suites=ALGEBRA_SUITES,
                               seed=seed)
        print(digest(cli, "g1_swap.json", config))


if __name__ == "__main__":
    main()
