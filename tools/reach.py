"""List the functions of ``src/devissage`` that no check suite enters.

Usage, from the root of a source checkout:

    python3 tools/reach.py [INSTANCE.json ...] [--seed N]

Every instance (the three shipped fixtures by default) is run through
``devissage.cli.run`` with every suite, and the report through
``render_json``, under ``sys.setprofile``; the import of the package is
profiled as well.  The script then prints each function or method
defined in ``src/devissage`` that was never entered, with its line count
from ``def`` to the end of its body, and a total.  A last line gives the
line count of the package, the number ``cat src/devissage/*.py | wc -l``
prints.  Only the standard library is used besides the program itself.
"""

import argparse
import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "devissage")
FIXTURES = [os.path.join(ROOT, "fixtures", name)
            for name in ("g1_swap.json", "g2_tree.json",
                         "banana4_divisors.json")]


def definitions():
    """(path, first line, qualified name, lines) for every def in the package.

    The first line is the one a code object reports as co_firstlineno: the
    first decorator's line for a decorated function, else the def line.
    """
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        stack = [(tree, name[:-3])]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    qual = f"{prefix}.{child.name}"
                    out.append((path, first, qual,
                                child.end_lineno - child.lineno + 1))
                    stack.append((child, qual))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}.{child.name}"))
    return out


def package_lines():
    """Newlines in src/devissage/*.py, counted as ``wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def entered_code(paths, seed):
    """(filename, first line) of every Python code object the runs enter."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, SRC)
    sys.setprofile(profile)
    try:
        # the import is profiled too: module-level constants call functions
        from devissage.cli import RunConfig, render_json, run

        for path in paths:
            _, report = run(RunConfig(input_path=path, suites=("all",),
                                      seed=seed))
            render_json(report)
    finally:
        sys.setprofile(None)
    return seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instances", nargs="*", default=FIXTURES)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    seen = {(os.path.realpath(f), n)
            for f, n in entered_code(args.instances, args.seed)}
    missed = [(qual, lines) for path, first, qual, lines in definitions()
              if (os.path.realpath(path), first) not in seen]
    for qual, lines in sorted(missed):
        print(f"{lines:5d}  {qual}")
    print(f"{sum(n for _, n in missed):5d}  total in {len(missed)} "
          f"functions never entered")
    print(f"{package_lines():5d}  lines in src/devissage/*.py")


if __name__ == "__main__":
    main()
