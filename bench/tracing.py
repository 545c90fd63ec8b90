"""In-memory spans around schurcol functions, installed from outside the package.

Each traced function is replaced at every ``schurcol`` module binding that
refers to it, because that binding is what a caller looks up: for example
``schur_state.reduce_to_special_lower_hessenberg`` as well as
``hessenberg.reduce_to_special_lower_hessenberg``.  Only modules already
imported are touched, and :meth:`Tracer.uninstall` puts every original
binding back.  A call that re-enters the function of the innermost open
span (the recursion in ``serialize.dumps_canonical``) is folded into that
span instead of opening one of its own.
"""

from __future__ import annotations

import functools
import sys
import time

# the functions wrapped, as (module under schurcol, function)
TRACED = (
    ("hessenberg", "reduce_to_special_lower_hessenberg"),
    ("schur_state", "colligation_from_schur_parameters"),
    ("schur_state", "closed_form_matrix"),
    ("schur_state", "product_form_matrix"),
    ("schur_state", "schur_algorithm_state_space"),
    ("schur_state", "schur_step"),
    ("schur_state", "_denominator_chain_from_first"),
    ("colligation", "unitarity_residual"),
    ("colligation", "apply_state_gauge"),
    ("colligation", "minimality_report"),
    ("colligation", "find_equivalence"),
    ("colligation", "characteristic_function"),
    ("colligation", "simulate_time_domain"),
    ("rational", "blaschke_to_rational"),
    ("rational", "schur_parameters"),
    ("realization", "model_colligation"),
    ("redheffer", "elementary_schur_section"),
    ("redheffer", "redheffer_product"),
    ("serialize", "dumps_canonical"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{function}" for module, function in TRACED)


def _schurcol_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "schurcol" or name.startswith("schurcol."))
    ]


class Tracer:
    """Spans of one process: name, start, end, parent, problem id, degree, error."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.problem: list[int] = []
        self.n: list[int] = []
        self.error: list[bool] = []
        self.stack: list[int] = []
        self.problem_id = -1
        self.problem_n = 0
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.name)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.problem.append(self.problem_id)
        self.n.append(self.problem_n)
        self.error.append(False)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.name[stack[-1]] == name:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.error[index] = True
                raise
            finally:
                tracer.close(index)

        wrapper.bench_span = name
        return wrapper

    def install(self) -> list[str]:
        """Wrap every traced function already imported; return the names found."""
        modules = {m.__name__: m for m in _schurcol_modules()}
        targets = {}
        for (module_name, function), span in zip(TRACED, SPAN_NAMES):
            module = modules.get(f"schurcol.{module_name}")
            fn = getattr(module, function, None) if module is not None else None
            if fn is not None:
                targets[id(fn)] = (fn, self._wrap(span, fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = targets.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))
        return sorted({fn.bench_span for _, fn in targets.values()})

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def merge(self, spans, parent: int) -> None:
        """Append spans recorded by a child process under the span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so the child's timestamps line up with this process's.
        """
        base = len(self.name)
        for name, start, end, child_parent, error in spans:
            self.name.append(name)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if child_parent < 0 else base + child_parent)
            self.problem.append(self.problem_id)
            self.n.append(self.problem_n)
            self.error.append(bool(error))

    def export(self) -> list:
        return [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.error[i]]
            for i in range(len(self.name))
        ]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own


def leftover_wrappers() -> list[str]:
    """Bindings in imported schurcol modules that still hold a span wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in _schurcol_modules()
        for attr, value in list(vars(module).items())
        if hasattr(value, "bench_span")
    ]
