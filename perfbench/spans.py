"""Layer spans around nilzeta's coarse public functions.

`install` rebinds module attributes: every name in a `nilzeta` module that
refers to a listed function is pointed at a timing wrapper, so calls made
through `from .x import f` copies are traced too.  Nothing under `src/`
changes.  Per-element kernels (`hnf_contains`, `_bracket_vectors`,
`_lattice_basis`) are deliberately left unwrapped: their call counts would
make the wrapper cost dominate what it measures.

Layers are named after the modules.  A layer's self time is the time its
spans cover minus the part covered by their child spans; time under
`cli.main` that no span covers is reported as an explicit unattributed
remainder, so that per op the layer self times plus the remainder equal the
traced wall time.
"""

from __future__ import annotations

import functools
import sys
from math import factorial
from time import perf_counter

# (module, attribute, span name); the layer is the part before the dot.
SPANS = (
    ("igusa", "igusa_permutation", "igusa.permutation"),
    ("igusa", "igusa_subset", "igusa.subset"),
    ("igusa", "igusa_middle", "igusa.subset"),
    ("zetas", "ideal_zeta", "zetas.assemble"),
    ("zetas", "graded_ideal_zeta", "zetas.assemble"),
    ("zetas", "rep_zeta", "zetas.assemble"),
    ("zetas", "topological_ideal_zeta", "zetas.assemble"),
    ("zetas", "reduced_ideal_zeta", "zetas.assemble"),
    ("zetas", "analytic_invariants", "zetas.assemble"),
    ("zetas", "zeta_report", "zetas.assemble"),
    ("zetas", "check_functional_equation", "zetas.assemble"),
    ("zetas", "check_zero_behaviour", "zetas.assemble"),
    ("rational", "rf_series_coeffs", "rational.series"),
    ("rational", "rf_limit_t1", "rational.limit_t1"),
    ("rational", "rf_equal", "rational.equal"),
    ("rational", "rf_invert_vars", "rational.invert"),
    ("liering", "build_structure", "liering.build"),
    ("liering", "b_matrix_direct", "liering.build"),
    ("liering", "b_matrix_recursive", "liering.build"),
    ("liering", "full_commutator_matrix", "liering.build"),
    ("liering", "specialize", "liering.build"),
    ("liering", "rank_mod", "liering.rank_mod"),
    ("oracle", "dirichlet_counts", "oracle.enumerate"),
    ("oracle", "snf_valuations", "oracle.snf"),
    ("oracle", "verify_dirichlet", "oracle.check"),
    ("oracle", "congruence_index_check", "oracle.check"),
    ("oracle", "rep_matrix_check", "oracle.check"),
    ("cli", "render_rational", "cli.render"),
    ("cli", "render_linear_rational", "cli.render"),
    ("cli", "render_report", "cli.render"),
    ("cli", "poly_text", "cli.render"),
    ("cli", "_dumps", "cli.render"),
)
# Methods, rebound on their class: (module, class, method, span name).
METHOD_SPANS = (("laurent", "LaurentPoly", "value_at_q", "laurent.eval"),)

LAYERS = ("igusa", "zetas", "rational", "laurent", "liering", "oracle", "cli")


class Tracer:
    """Spans of one op, kept in memory: [name, parent index, start, end, outer].

    `outer` is true when no enclosing span has the same name, so summing the
    durations of outer spans gives a name's inclusive time without counting
    nested calls twice.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.counts = {"igusa.census_degrees": set(), "rational.series_terms": 0,
                       "oracle.enumerations": []}

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, not active.get(name)]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = active.get(name, 0) + 1
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                active[name] -= 1
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def summary(self, wall_s: float, t0: float) -> dict:
        """Per-op layer figures; raises if the accounting does not close."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        roots = 0.0
        for i, (name, parent, start, end, outer) in enumerate(self.spans):
            self_s[name.split(".")[0]] += end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
            if outer:
                inclusive[name] = inclusive.get(name, 0.0) + end - start
            if parent < 0:
                roots += end - start
        unattributed = wall_s - roots
        closing = sum(self_s.values()) + unattributed - wall_s
        if unattributed < 0 or abs(closing) > 1e-6:
            raise AssertionError(
                f"span accounting does not close: remainder {unattributed}, error {closing}"
            )
        return {
            "wall_s": wall_s,
            "self_s": self_s,
            "unattributed_s": unattributed,
            "inclusive_s": inclusive,
            "calls": calls,
            "counts": _final_counts(self.counts),
            "spans": [[n, p, s - t0, e - t0] for n, p, s, e, _ in self.spans],
        }


def _observe_permutation(counts, args, result):
    counts["igusa.census_degrees"].add(args[0].n)


def _observe_series(counts, args, result):
    counts["rational.series_terms"] += sum(len(poly) for poly in result)


def _observe_enumeration(counts, args, result):
    struct, p, upto = args[:3]
    counts["oracle.enumerations"].append((struct.dims.d, struct.dims.n, p, upto))


_OBSERVERS = {
    "igusa.permutation": _observe_permutation,
    "rational.series": _observe_series,
    "oracle.enumerate": _observe_enumeration,
}


def _final_counts(counts) -> dict[str, int]:
    """Work counts from public functions: n! per cold descent census, and the
    U lattices and (U, T) pair tests of each enumeration from `hnf_count`."""
    from nilzeta.oracle import hnf_count

    u_lattices = pair_tests = 0
    for d, n, p, upto in counts["oracle.enumerations"]:
        for ku in range(upto):
            u = hnf_count(d, p, ku)
            u_lattices += u
            pair_tests += u * sum(hnf_count(n, p, kt) for kt in range(1, upto - ku + 1))
    return {
        # Each op runs in a fresh interpreter, so the census cache is cold
        # and each distinct degree n costs one pass over S_n.
        "igusa.perms": sum(factorial(n) for n in counts["igusa.census_degrees"]),
        "rational.series_terms": counts["rational.series_terms"],
        "oracle.u_lattices": u_lattices,
        "oracle.pair_tests": pair_tests,
    }


def install(tracer: Tracer) -> None:
    """Point every nilzeta reference to a listed function at its wrapper."""
    import nilzeta.cli  # noqa: F401  (loads every module that gets spans)

    modules = [m for name, m in sys.modules.items() if name == "nilzeta" or name.startswith("nilzeta.")]
    for module, attr, name in SPANS:
        original = getattr(sys.modules[f"nilzeta.{module}"], attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapped)
    for module, cls_name, method, name in METHOD_SPANS:
        cls = getattr(sys.modules[f"nilzeta.{module}"], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
