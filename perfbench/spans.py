"""Outside-in tracing of ucycle.

Every public function of the library modules, and ``ucycle.cli.main``, is
replaced by a timing wrapper wherever a ucycle module namespace binds it
(``ucycle.lift.verify_cover`` as well as ``ucycle.core.verify_cover``), so
calls between modules and within one module are both seen.  Private helpers
are not wrapped: their time is part of their caller's self time.  Spans stay
in memory and are written out when the run ends.
"""
import functools
import inspect
import json
import time

LAYERS = ("core", "search", "lift", "galois", "decomp", "approx", "cli")
MAX_SPANS = 200_000


def traced_name(obj):
    """`layer.function` for a function the tracer wraps, else None."""
    if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
        return None
    package, _, layer = (obj.__module__ or "").partition(".")
    if package != "ucycle" or layer not in LAYERS:
        return None
    if layer == "cli" and obj.__name__ != "main":
        return None  # subcommand bodies count as cli.main self time
    return f"{layer}.{obj.__name__}"


class Tracer:
    """Per-function calls, self time and total time, plus the counters the
    per-layer metrics need: search nodes and verifier windows."""

    def __init__(self):
        self.stats = {}          # name -> [calls, self_s, total_s]
        self.nodes = 0           # sum of nodes_explored over decide_valid
        self.op_nodes = {}       # operation id -> nodes
        self.windows = 0         # sum of string lengths given to verify_cover
        self.op_self = {}        # (operation id, name) -> self time
        self.op_root = {}        # operation id -> time in outermost spans
        self.spans = []          # (id, name, start, end, parent id, op id)
        self.dropped = 0
        self.op_id = None
        self._next_id = 0
        self._stack = []         # frames [span id, start, child time]
        self._saved = []

    def install(self, modules):
        """Wrap every traced function bound in each of `modules`."""
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                name = traced_name(obj)
                if name is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - frame[1]
                own = total - frame[2]
                stats[0] += 1
                stats[1] += own
                stats[2] += total
                key = (self.op_id, name)
                self.op_self[key] = self.op_self.get(key, 0.0) + own
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += total
                else:
                    self.op_root[self.op_id] = (
                        self.op_root.get(self.op_id, 0.0) + total)
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, frame[1], end,
                                       parent[0] if parent else None,
                                       self.op_id))
                else:
                    self.dropped += 1
            self._observe(name, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _observe(self, name, args, result):
        if name == "search.decide_valid":
            self.nodes += result.nodes_explored
            self.op_nodes[self.op_id] = (self.op_nodes.get(self.op_id, 0)
                                         + result.nodes_explored)
        elif name == "core.verify_cover":
            self.windows += len(args[0])

    def get(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def table(self, op_wall_s):
        """One row per wrapped function that ran, by self time."""
        rows = sorted(((v[1], k, v) for k, v in self.stats.items() if v[0]),
                      reverse=True)
        lines = [f"{'function':42} {'calls':>9} {'self_s':>10} "
                 f"{'total_s':>10} {'self%':>6}"]
        for self_s, name, (calls, _, total) in rows:
            share = 100 * self_s / op_wall_s if op_wall_s else 0.0
            lines.append(f"{name:42} {calls:9d} {self_s:10.4f} "
                         f"{total:10.4f} {share:6.1f}")
        return lines

    def op_breakdown(self, labels):
        """For each operation label, summed over its calls, the wrapped
        function with the most self time, as a share of the label's traced
        time."""
        root, own = {}, {}
        for op, t in self.op_root.items():
            label = labels.get(op, "setup")
            root[label] = root.get(label, 0.0) + t
        for (op, name), t in self.op_self.items():
            key = (labels.get(op, "setup"), name)
            own[key] = own.get(key, 0.0) + t
        lines = []
        for label, total in root.items():
            mine = {name: t for (lb, name), t in own.items() if lb == label}
            if not mine or not total:
                continue
            name, t = max(mine.items(), key=lambda kv: kv[1])
            lines.append(f"{label:44} {total:9.4f}s  "
                         f"top: {name} {100 * t / total:5.1f}%")
        return lines
