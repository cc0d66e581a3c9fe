"""Outside-in tracer: times calls into each devissage module's functions.

The program is not modified.  Each traced function is replaced by a
wrapper in every ``devissage.*`` module namespace that holds it (``cli``
and ``sequences`` import names directly), and the two methods are
replaced on their classes.  A wrapper counts calls, adds its wall time to
``total_s`` (outermost call only, so recursion is not counted twice) and
its own time minus the time of traced callees to ``self_s``.
"""

import sys
from time import perf_counter

WORKLOADS = ("fixture-all", "graph-scale", "algebra-seeds")
FA, GS, AS = WORKLOADS


def _poly(P):
    return (P.coefficients, P.q)


def _matrix_bits(A):
    return max((abs(x).bit_length() for row in A.data for x in row),
               default=0)


# (module, function or Class.method, workloads that must call it,
#  distinct-key function or None)
LAYERS = (
    ("procyclic", "eigenproduct_poly", {FA}, lambda P, j: (_poly(P), j)),
    ("procyclic", "_kernel_corank", {FA},
     lambda P, ell, j, r: (_poly(P), j, r)),
    ("procyclic", "weil_weight_check", {FA}, _poly),
    ("procyclic", "vanishing_probe", {FA}, None),
    ("procyclic", "duality_crosscheck", {FA}, None),
    ("lprimary", "box", {AS}, None),
    ("lprimary", "tor_box", {AS}, None),
    ("lprimary", "tors_level_check", {AS}, None),
    ("lprimary", "torsbis_maps", {AS}, None),
    ("lprimary", "box_frob_power", {FA}, None),
    ("lprimary", "FrobObject.__post_init__", {FA}, None),
    ("exactlin", "smith_with_inverses", {FA, GS, AS}, None),
    ("exactlin", "integer_kernel_basis", {FA, GS}, None),
    ("exactlin", "kernel", {GS}, None),
    ("exactlin", "cokernel", {GS}, None),
    ("exactlin", "canonicalize_with_maps", {GS}, None),
    ("exactlin", "solve_integer", {GS}, None),
    ("exactlin", "IntMatrix.det", {FA, GS}, None),
    ("dualgraph", "spanning_trees", {GS}, None),
    ("dualgraph", "tree_orbits", {GS}, None),
    ("dualgraph", "h1_lattice", {GS}, None),
    ("dualgraph", "build_xi", {GS}, None),
    ("dualgraph", "build_psi", {GS}, None),
    ("dualgraph", "bezout_combine", {GS}, None),
    ("sequences", "upsilon_structure", {GS}, None),
    ("sequences", "lambda_structure", {GS}, None),
    ("sequences", "devissage", {GS}, None),
    ("sequences", "bhn_finite_field_report", {GS}, None),
    ("cli", "load_raw", set(WORKLOADS), None),
    ("cli", "build_instance", set(WORKLOADS), None),
    ("cli", "render_json", set(WORKLOADS), None),
)

# metric suffix -> unit
UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
         "distinct": "count", "distinct_ratio": "ratio", "max_dim": "count",
         "max_entry_bits": "bits", "trees": "count", "cap_hits": "count"}

# counters that must repeat exactly between two traced passes
EXACT = ("calls", "distinct", "distinct_ratio", "max_dim", "max_entry_bits",
         "trees", "cap_hits")


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "active", "keys", "max_dim",
                 "max_entry_bits", "trees", "cap_hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.keys = set()
        self.max_dim = 0
        self.max_entry_bits = 0
        self.trees = 0
        self.cap_hits = 0


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` after."""

    def __init__(self):
        self.stats = {}
        self._children = []   # traced time of callees, one slot per frame
        self._undo = []       # (owner, attribute, original)

    # -- installation --------------------------------------------------

    def __enter__(self):
        modules = {name[len("devissage."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("devissage.") and mod is not None}
        self._cap_error = modules["errors"].EnumerationCapExceeded
        unbound = []
        for module, name, _, keyfunc in LAYERS:
            label = f"{module}.{name}"
            self.stats[label] = Stat()
            if "." in name:
                # a method: replace it on its class
                cls_name, attr = name.split(".")
                owner = getattr(modules[module], cls_name)
                owners = [owner] if attr in vars(owner) else []
            else:
                # a function: replace it in every module that imported it
                attr = name
                original = vars(modules[module]).get(name)
                owners = [mod for mod in modules.values()
                          if original is not None
                          and vars(mod).get(name) is original]
            if not owners:
                unbound.append(label)
                continue
            wrapper = self._wrap(vars(owners[0])[attr], label, keyfunc)
            for owner in owners:
                self._undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
        if unbound:
            self.__exit__(None, None, None)
            raise RuntimeError(f"tracer could not rebind {unbound}")
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, label, keyfunc):
        stat = self.stats[label]
        children = self._children
        cap_error = self._cap_error
        is_smith = label == "exactlin.smith_with_inverses"
        is_trees = label == "dualgraph.spanning_trees"

        def traced(*args, **kwargs):
            stat.calls += 1
            if keyfunc is not None:
                stat.keys.add(keyfunc(*args, **kwargs))
            if is_smith:
                A = args[0] if args else kwargs["A"]
                stat.max_dim = max(stat.max_dim, A.rows, A.cols)
                stat.max_entry_bits = max(stat.max_entry_bits,
                                          _matrix_bits(A))
            stat.active += 1
            children.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cap_error:
                if is_trees:
                    stat.cap_hits += 1
                raise
            finally:
                elapsed = perf_counter() - started
                stat.self_s += elapsed - children.pop()
                stat.active -= 1
                if not stat.active:
                    stat.total_s += elapsed
                if children:
                    children[-1] += elapsed
            if is_trees:
                stat.trees += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------

    def metrics(self):
        """{metric name: value} for every traced function."""
        out = {}
        for (module, name, _, keyfunc) in LAYERS:
            label = f"{module}.{name}"
            st = self.stats[label]
            out[f"{label}.calls"] = st.calls
            out[f"{label}.self_s"] = st.self_s
            out[f"{label}.total_s"] = st.total_s
            if keyfunc is not None:
                out[f"{label}.distinct_ratio"] = (
                    len(st.keys) / st.calls if st.calls else 0.0)
                out[f"{label}.distinct"] = len(st.keys)
        smith = self.stats["exactlin.smith_with_inverses"]
        out["exactlin.smith_with_inverses.max_dim"] = smith.max_dim
        out["exactlin.smith_with_inverses.max_entry_bits"] = (
            smith.max_entry_bits)
        trees = self.stats["dualgraph.spanning_trees"]
        out["dualgraph.spanning_trees.trees"] = trees.trees
        out["dualgraph.spanning_trees.cap_hits"] = trees.cap_hits
        return out


def unit(name):
    return UNITS[name.rsplit(".", 1)[-1]]


def exact_counts(metrics):
    """The counters that two traced passes must reproduce exactly."""
    return {k: v for k, v in metrics.items()
            if k.rsplit(".", 1)[-1] in EXACT}


def self_check(workload, metrics):
    """Names of traced functions that recorded no call on their workload."""
    return [f"{module}.{name}" for module, name, homes, _ in LAYERS
            if workload in homes and not metrics[f"{module}.{name}.calls"]]
