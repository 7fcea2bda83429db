"""Spans around davkit's layers, recorded from outside the library.

``install`` replaces each layer's public functions with a timing wrapper
in every davkit module that holds them, so calls are caught wherever the
calling module looks the function up, nested calls included.  Spans
(name, start, end, parent, counts) stay in memory until the run ends.
A span's self time is its length minus its children's.

The one private function wrapped is ``search._run_search``: the listing
functions return no statistics, so the search counts are read from it.
"""

from __future__ import annotations

import json
import resource
import sys
import time

# (span name, module that defines the functions, functions)
LAYERS = [
    ("core.parse", "davkit.core", ["parse_ground_set", "parse_sequence"]),
    ("core.enumerate", "davkit.core", ["enumerate_elements"]),
    ("bounds", "davkit.bounds", ["ground_bounds", "group_davenport", "interval_davenport",
                                 "hypercube_bounds", "product_bounds", "box_upper", "square_upper"]),
    # the proven bound that sizes the search depth lives in search.py
    ("bounds", "davkit.search", ["length_bound"]),
    ("search", "davkit.search", ["davenport", "atoms_of_length", "all_atoms", "max_atoms",
                                 "_run_search"]),
    ("zerosum", "davkit.zerosum", ["is_minimal", "find_proper_zero_subsum", "is_zero_sum",
                                   "atoms_brute"]),
    ("constructions", "davkit.constructions", ["hypercube_atom", "group_box_atom",
                                               "two_element_atom", "interval_max_atom",
                                               "power_subsequence_check"]),
    ("inverse", "davkit.inverse", ["verify_inverse", "classify_interval_max",
                                   "classify_symmetric_max", "classify_symmetric_submax"]),
    ("reorder", "davkit.reorder", ["nyctalopic_extend", "containment_check", "greedy_box_reorder"]),
    ("cli", "davkit.cli", ["main"]),
    ("cli.render", "davkit.cli", ["render"]),
]


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = counts
        self._stack.pop()

    def wrap(self, layer: str, fn):
        searching = fn.__name__ == "_run_search"

        def wrapper(*args, **kwargs):
            idx = self.begin(layer)
            cpu0 = (_cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)) if searching else None
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = _counts(layer, fn.__name__, args, kwargs, result, cpu0)
                return result
            finally:
                self.end(idx, counts)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "davkit"]
        for layer, mod, names in LAYERS:
            for name in names:
                orig = getattr(sys.modules[mod], name)
                wrapper = self.wrap(layer, orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps([name, start, end, parent, counts]) + "\n")


def _counts(layer, fname, args, kwargs, result, cpu0) -> dict | None:
    if fname == "_run_search":
        stats = result[4]
        threads = kwargs.get("threads", args[4] if len(args) > 4 else 1)
        return {
            "depth": args[1] if len(args) > 1 else kwargs["depth_cap"],
            "threads": max(1, threads),
            "nodes": stats.nodes,
            "prunes": stats.prunes,
            "closures": stats.closures,
            "atoms": len(result[3]),
            "cpu_self": _cpu(resource.RUSAGE_SELF) - cpu0[0],
            "cpu_children": _cpu(resource.RUSAGE_CHILDREN) - cpu0[1],
        }
    if layer == "core.enumerate":
        return {"elements": len(result)}
    if layer == "bounds":
        return {"upper": result if isinstance(result, int) else result.upper}
    if fname == "is_minimal":
        return {"certified": int(bool(result))}
    return None


COUNTS = ("core.elements", "bounds.depth_sum", "bounds.upper_sum", "search.nodes",
          "search.prunes", "search.closures", "search.atoms", "zerosum.certified")


def round_metrics(spans: list[list], first: int) -> dict:
    """Per-layer figures of one round from its spans: the tracer's spans
    from index ``first``, the round's root, to the round's end."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = s[3] - first
        if 0 <= p < len(spans):
            child[p] += dur[i]
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        self_s[s[0]] = self_s.get(s[0], 0.0) + dur[i] - child[i]

    def top(i: int) -> bool:
        p = spans[i][3] - first
        return not (0 <= p < len(spans)) or spans[p][0] != spans[i][0]

    m = dict.fromkeys(COUNTS, 0)
    search_wall = cpu = cpu_children = thread_wall = 0.0
    for i, (name, _, _, _, c) in enumerate(spans):
        if not c:
            continue
        if "nodes" in c:
            m["bounds.depth_sum"] += c["depth"]
            for k in ("nodes", "prunes", "closures", "atoms"):
                m[f"search.{k}"] += c[k]
            search_wall += dur[i]
            cpu += c["cpu_self"] + c["cpu_children"]
            cpu_children += c["cpu_children"]
            thread_wall += c["threads"] * dur[i]
        elif top(i) and "elements" in c:
            m["core.elements"] += c["elements"]
        elif top(i) and "upper" in c:
            m["bounds.upper_sum"] += c["upper"]
        elif top(i) and "certified" in c:
            m["zerosum.certified"] += c["certified"]
    m.update({
        "core.parse_s": self_s.get("core.parse", 0.0),
        "core.enumerate_s": self_s.get("core.enumerate", 0.0),
        "bounds.s": self_s.get("bounds", 0.0),
        "search.self_s": self_s.get("search", 0.0),
        "search.nodes_per_s": m["search.nodes"] / search_wall if search_wall else 0.0,
        "search.prune_ratio": m["search.prunes"] / m["search.nodes"] if m["search.nodes"] else 0.0,
        "search.pool_cpu_s": cpu_children,
        "search.pool_efficiency": cpu / thread_wall if thread_wall else 0.0,
        "zerosum.s": self_s.get("zerosum", 0.0),
        "constructions.self_s": self_s.get("constructions", 0.0),
        "inverse.self_s": self_s.get("inverse", 0.0),
        "reorder.s": self_s.get("reorder", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.render_s": self_s.get("cli.render", 0.0),
    })
    return m

