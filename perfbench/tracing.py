"""In-memory spans around the package's public functions.

Only the traced run installs the wrappers; the untraced run calls the
package untouched.  A wrapper replaces a function under every name that a
`livsic` module binds it to, so a call from one module into another (for
example `abelian` calling `build_block_graph`) is a nested span, and a
layer's self time is its span time minus the time of the spans it caused.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import workloads

WRAPPED = (
    ("cli", "main"),
    ("serialization", "parse_system_document"),
    ("serialization", "parse_solution_document"),
    ("serialization", "solution_to_doc"),
    ("serialization", "canonical_json"),
    ("sft", "build_block_graph"),
    ("sft", "enumerate_periodic_orbits"),
    ("skew", "build_product_graph"),
    ("skew", "check_transitivity"),
    ("skew", "frobenius_class"),
    ("groups", "subgroup_rank_and_index"),
    ("groups", "smith_diagonal"),
    ("abelian", "solve_free_abelian"),
    ("abelian", "solve_finite_gamma"),
    ("abelian", "verify_solution"),
    ("abelian", "verify_vanishing"),
    ("matrix", "estimate_distortion"),
    ("matrix", "solve_matrix_finite"),
    ("matrix", "verify_matrix_solution"),
)
SELF_TIMES = ("abelian.solve_free_abelian", "abelian.solve_finite_gamma", "matrix.solve_matrix_finite")


def words_walked(spec, max_period: int) -> int:
    """Words the orbit enumerator visits: from each start s, the paths of
    length 1..max_period that stay on symbols >= s.  Computed from the
    transition matrix, not counted inside the enumerator."""
    k = spec.k
    total = 0
    for s in range(1, k + 1):
        vec = [1 if a == s else 0 for a in range(1, k + 1)]
        for _ in range(max_period):
            total += sum(vec)
            vec = [
                sum(vec[a - 1] for a in range(s, k + 1) if spec.allows(a, b)) if b >= s else 0
                for b in range(1, k + 1)
            ]
    return total


class Tracer:
    """Spans are (name, start, end, parent index, op id); counts are exact."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list = []

    def _after(self, name, args, result):
        c = self.counts
        if name == "sft.build_block_graph":
            c["sft.blocks"] += len(result.vertices)
            c["sft.block_edges"] += len(result.edges)
        elif name == "sft.enumerate_periodic_orbits":
            c["sft.orbits"] += len(result)
            c["sft.words_walked"] += words_walked(args[0], args[1])
        elif name == "skew.build_product_graph":
            c["skew.product_states"] += result.n_vertices
        elif name == "skew.check_transitivity" and not args[0].group.is_finite:
            c["skew.lattice_checks"] += 1
            c["skew.lattice_decided"] += result.status != "unknown"
        elif name == "serialization.canonical_json":
            c["serialization.bytes_out"] += len(result.encode())
        elif name == "matrix.estimate_distortion":
            cocycle, n_max = args[0], args[1]
            rows = cocycle.sft.transitions
            c["matrix.distortion_words"] += sum(
                workloads.word_count(rows, n) for n in range(1, n_max + cocycle.block_range + 1)
            )

    def _solver_rows(self, name, args):
        if name == "abelian.solve_free_abelian":
            system, cocycle = args[0], args[1]
            rows, r = system.sft.transitions, cocycle.effective_block_length
            blocks = workloads.word_count(rows, r)
            self.counts["abelian.nontree_rows"] += workloads.word_count(rows, r + 1) - blocks + 1

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
                self._solver_rows(name, args)
            self._after(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "livsic" or n.startswith("livsic.")]
        for module_name, fn_name in WRAPPED:
            original = getattr(sys.modules[f"livsic.{module_name}"], fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                if module.__name__ == "livsic.oracles":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_metrics(self, op_time_s: float, passes: int,
                      scales: list[float]) -> dict[str, float]:
        """Span times, self times and counts per traced pass, and ratios.

        Every pass runs the same op list, so a per-pass figure does not
        depend on how many passes fitted into the run.  A span's time is
        reference-scaled by its op's factor in `scales`, as `op_time_s` is."""
        total: dict[str, float] = defaultdict(float)
        children: dict[str, float] = defaultdict(float)
        top = 0.0
        for name, start, end, parent, op in self.spans:
            seconds = (end - start) * scales[op]
            total[name] += seconds
            if parent >= 0:
                children[self.spans[parent][0]] += seconds
            else:
                top += seconds
        out = {f"{m}.{f}_s": total[f"{m}.{f}"] / passes for m, f in WRAPPED}
        for name in SELF_TIMES:
            out[f"{name}_self_s"] = (total[name] - children[name]) / passes
        c = self.counts
        for key in ("sft.blocks", "sft.block_edges", "sft.orbits", "skew.product_states",
                    "abelian.nontree_rows", "matrix.distortion_words", "serialization.bytes_out"):
            out[key] = c[key] / passes
        out["sft.orbit_yield"] = c["sft.orbits"] / c["sft.words_walked"] if c["sft.words_walked"] else 0.0
        out["skew.decided_ratio"] = (
            c["skew.lattice_decided"] / c["skew.lattice_checks"] if c["skew.lattice_checks"] else 0.0
        )
        out["trace.op_coverage"] = top / op_time_s if op_time_s else 0.0
        out["trace.spans"] = len(self.spans) / passes
        return out
