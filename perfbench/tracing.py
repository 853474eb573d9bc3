"""Spans around hamfp's public functions, for the benchmark's traced run.

The wrappers are installed from outside, at the names that callers import:
for example ``hamfp.cli.chern_number``, ``hamfp.solver.localization_consistent``
and ``hamfp.localize.elementary_symmetric``. Nothing under src/ changes. A
function called through a binding that is not listed here, or that is not a
public function, counts toward the self time of the span that called it:
``point_invariants`` inside ``integrate``, say, or the option building and
joins inside ``enumerate_candidates``.

Spans stay in memory and are written out when the run ends. Self times,
counts and outcomes are summed as spans close, so the metrics do not depend
on how many spans are kept.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Span name (defining module.function) -> hamfp modules whose binding of
# that name is wrapped. Every function of another module that verify and
# classify call from cli is wrapped at cli, except the generator
# ``partitions``, so that cli.self_s is the time spent in cli's own code.
SITES: dict[str, tuple[str, ...]] = {
    "cli.main": ("cli",),
    "dataio.load_document": ("dataio",),
    "dataio.data_from_document": ("dataio",),
    "dataio.profile_from_document": ("dataio",),
    "dataio.data_to_document": ("dataio",),
    "fpdata.validate": ("cli", "solver"),
    "fpdata.point_invariants": ("cli",),
    "exactnum.elementary_symmetric": ("localize",),
    "localize.symplectic_class": ("cli", "solver"),
    "localize.chern_number": ("cli",),
    "localize.chern_restriction": ("cli", "localize", "solver", "grassring"),
    "localize.integrate": ("cli", "localize", "solver"),
    "localize.pairing_matrix": ("cli",),
    "basis.build_basis": ("cli",),
    "basis.express_in_basis": ("cli", "grassring"),
    "grassring.ring_make": ("cli",),
    "grassring.ordinary_chern": ("cli",),
    "grassring.ring_mul": ("cli",),
    "grassring.ring_integral": ("cli",),
    "grassring.basis_images": ("cli",),
    "grassring.betti": ("cli",),
    "solver.classify": ("cli",),
    "solver.check_symmetry": ("cli",),
    "solver.enumerate_candidates": ("solver",),
    "solver.predicted_products": ("solver",),
    "solver.localization_consistent": ("solver",),
}

# How a span's result counts as passed, for the functions whose outcome a
# metric needs.
OUTCOMES: dict[str, Callable[[Any], bool]] = {
    "fpdata.validate": lambda report: report.passed,
    "solver.localization_consistent": bool,
}

MODULES = ("cli", "dataio", "fpdata", "exactnum", "localize", "basis", "grassring", "solver")
SEARCH = "solver.enumerate_candidates"
CALLS, SELF, INCL, RAISED, PASSED = range(5)


class Tracer:
    """Records spans (id, name, start, end, parent id, op id) and sums them.

    ``stats`` maps (span name, parent span name) to the totals indexed by
    CALLS, SELF, INCL (seconds, children included), RAISED and PASSED.
    """

    def __init__(self, span_cap: int) -> None:
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.next_id = 0
        self.op = 0
        self.stack: list[list[Any]] = []  # [id, name, child seconds] per open span
        self.stats: dict[tuple[str, str | None], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0, 0, 0]
        )
        # (module, attribute, original, wrapper) for every wrapped binding
        self.bindings: list[tuple[Any, str, Any, Any]] = []
        for name, sites in SITES.items():
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"hamfp.{module_name}"), attr)
            wrapper = self.wrap(name, original)
            for site in sites:
                module = importlib.import_module(f"hamfp.{site}")
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"hamfp.{site}.{attr} is not {name}")
                self.bindings.append((module, attr, original, wrapper))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [self.next_id, name, 0.0]
            self.next_id += 1
            self.stack.append(frame)
            raised = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                parent = self.stack[-1] if self.stack else None
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                stat = self.stats[name, parent[1] if parent else None]
                stat[CALLS] += 1
                stat[SELF] += duration - frame[2]
                stat[INCL] += duration
                stat[RAISED] += raised
                if outcome is not None and not raised:
                    stat[PASSED] += outcome(result)
                if frame[0] < self.span_cap:
                    self.spans.append(
                        (frame[0], name, start, end, parent[0] if parent else None, self.op)
                    )

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def total(self, name: str, field: int, parent: str | None = "*") -> float:
        return sum(
            stat[field]
            for (span, caller), stat in self.stats.items()
            if span == name and (parent == "*" or caller == parent)
        )

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self seconds (``_s``), calls and raises per
        traced op, and ratios."""

        def own(*names: str) -> tuple[float, str]:
            return sum(self.total(name, SELF) for name in names) / ops, "s/op"

        def calls(name: str, parent: str | None = "*") -> tuple[float, str]:
            return self.total(name, CALLS, parent) / ops, "calls/op"

        def raised(name: str) -> tuple[float, str]:
            return self.total(name, RAISED) / ops, "raises/op"

        def ratio(num: float, den: float) -> tuple[float, str]:
            return (num / den if den else 0.0), "ratio"

        validated = self.total("fpdata.validate", CALLS)
        filtered = self.total("fpdata.validate", CALLS, SEARCH)
        return {
            "cli.self_s": own("cli.main"),
            "dataio.load_s": own(
                "dataio.load_document", "dataio.data_from_document", "dataio.profile_from_document"
            ),
            "dataio.load.calls": calls("dataio.load_document"),
            "fpdata.validate_s": own("fpdata.validate"),
            "fpdata.validate.calls": calls("fpdata.validate"),
            "fpdata.validate.fail_ratio": ratio(
                validated - self.total("fpdata.validate", PASSED), validated
            ),
            "exactnum.elementary_symmetric_s": own("exactnum.elementary_symmetric"),
            "exactnum.elementary_symmetric.calls": calls("exactnum.elementary_symmetric"),
            "localize.chern_number_s": own("localize.chern_number"),
            "localize.chern_number.calls": calls("localize.chern_number"),
            "localize.chern_restriction_s": own("localize.chern_restriction"),
            "localize.chern_restriction.calls": calls("localize.chern_restriction"),
            "localize.integrate_s": own("localize.integrate"),
            "localize.integrate.calls": calls("localize.integrate"),
            "localize.integrate.raised": raised("localize.integrate"),
            "localize.pairing_matrix_s": own("localize.pairing_matrix"),
            "basis.build_basis_s": own("basis.build_basis"),
            "basis.build_basis.raised": raised("basis.build_basis"),
            "basis.express_in_basis_s": own("basis.express_in_basis"),
            "basis.express_in_basis.calls": calls("basis.express_in_basis"),
            "grassring.ring_make_s": own("grassring.ring_make"),
            "grassring.ordinary_chern_s": own("grassring.ordinary_chern"),
            "grassring.ring_mul_s": own("grassring.ring_mul"),
            "grassring.ring_mul.calls": calls("grassring.ring_mul"),
            "solver.predicted_products_s": own("solver.predicted_products"),
            # A stage, not a function: validate and localization_consistent
            # as called by the search, children included.
            "solver.final_filter_s": (
                (
                    self.total("fpdata.validate", INCL, SEARCH)
                    + self.total("solver.localization_consistent", INCL, SEARCH)
                )
                / ops,
                "s/op",
            ),
            "solver.final_filter.calls": calls("fpdata.validate", SEARCH),
            "solver.localization_consistent_s": own("solver.localization_consistent"),
            "solver.search_s": own(SEARCH),
            "solver.accept_ratio": ratio(
                self.total("solver.localization_consistent", PASSED, SEARCH), filtered
            ),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def module_shares(self) -> dict[str, float]:
        """Each module's share of the summed self time of all spans."""
        own: dict[str, float] = dict.fromkeys(MODULES, 0.0)
        for (span, _), stat in self.stats.items():
            own[span.split(".")[0]] += stat[SELF]
        whole = sum(own.values()) or 1.0
        return {module: seconds / whole for module, seconds in own.items()}

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                            "recorded": len(self.spans), "total": self.next_id})
                + "\n"
            )
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
