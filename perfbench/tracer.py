"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module attributes that catax looks up at call time
(``catax.cli.load_table``, ``catax.tca.tsvd_step_iterative``,
``numpy.linalg.svd`` ...) with timing wrappers, so the program itself is not
edited.  Spans are recorded only while a request is open, kept in memory and
written out once the run ends; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


def _svd_flops(result, a, full_matrices=True, compute_uv=True, *args, **kwargs) -> float:
    # Golub & Van Loan, Matrix Computations, Table 5.5.1 (Golub-Reinsch SVD).
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    if full_matrices:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    return 14.0 * m * n * n + 8.0 * n**3


def _eigh_flops(result, a, *args, **kwargs) -> float:
    # Symmetric QR algorithm with eigenvectors, Golub & Van Loan section 8.3.
    return 9.0 * a.shape[-1] ** 3


def _sign_classes(result, residual, *args, **kwargs) -> float:
    return float(1 << (min(residual.shape) - 1))


def _rank(result, *args, **kwargs) -> float:
    return float(result)


# (module, attribute looked up at call time, span name, counter or None);
# a counter maps (result, *args, **kwargs) of one call to a number.
# catax.cli and catax.tca import these names into their own namespace, so
# the wrappers go there; numpy.linalg is looked up as ``np.linalg.svd``.
TARGETS = (
    ("catax.cli", "load_table", "contingency.load_table", None),
    ("catax.cli", "build_model", "contingency.build_model", None),
    ("catax.cli", "numerical_rank", "decomposition.numerical_rank", ("rank", _rank)),
    ("catax.cli", "ca_decompose", "ca.ca_decompose", None),
    ("catax.cli", "tca_decompose", "tca.tca_decompose", None),
    ("catax.cli", "distortion_report", "distortion.distortion_report", None),
    ("catax.cli", "emit_report", "report.emit_report", None),
    ("catax.cli", "report_to_dict", "report.report_to_dict", None),
    ("catax.cli", "emit_map", "svgmap.emit_map", None),
    ("catax.tca", "numerical_rank", "decomposition.numerical_rank", ("rank", _rank)),
    ("catax.tca", "tsvd_step_exhaustive", "tca.tsvd_step_exhaustive", ("classes", _sign_classes)),
    ("catax.tca", "tsvd_step_iterative", "tca.tsvd_step_iterative", None),
    ("numpy.linalg", "svd", "kernel.linalg", ("flops", _svd_flops)),
    ("numpy.linalg", "eigh", "kernel.linalg", ("flops", _eigh_flops)),
)

# The root span the benchmark opens around each ``catax.main`` call.
ROOT = "cli.main"

# Counters reported as a mean per call rather than a total per analysis.
PER_CALL = {"rank"}


class Tracer:
    def __init__(self) -> None:
        # Each span: [id, parent id, request, name, start, end, counts]
        self.spans: list[list] = []
        self.request_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span while a request is open; yields the record or None."""
        if self.request_id is None:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.request_id, name, time.perf_counter(), None, None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, number: int):
        """Open request ``number`` and its root span; spans outside a request
        (set-up, output checks) are not recorded."""
        self.request_id = number
        try:
            with self.span(ROOT):
                yield
        finally:
            self.request_id = None

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, counter))

    def _wrapper(self, original: Callable, name: str, counter) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if counter is not None and record is not None:
                    record[6] = {counter[0]: counter[1](result, *args, **kwargs)}
                return result

        return traced

    def restore(self) -> None:
        """Put back every wrapped attribute; raise if one did not come back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = []
        for sid, _, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children[sid]):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result.append((end - start) - covered)
        return result

    def summary(self, analyses: int) -> dict[str, float]:
        """Per-analysis means of ``<layer>.calls``, ``.s``, ``.self_s`` and of
        each counter; ``PER_CALL`` counters are means per call instead."""
        totals: dict[str, float] = defaultdict(float)
        for (_, _, _, name, start, end, counts), own in zip(self.spans, self.self_times()):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += own
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] += value
        result = {key: value / analyses for key, value in totals.items()}
        for key in result:
            layer, field = key.rsplit(".", 1)
            if field in PER_CALL:
                result[key] = totals[key] / totals[f"{layer}.calls"]
        return result

    def write(self, path: str) -> None:
        """One JSON line per span, with its self time."""
        keys = ("id", "parent", "request", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for record, own in zip(self.spans, self.self_times()):
                entry = dict(zip(keys, record))
                entry["self"] = own
                handle.write(json.dumps(entry) + "\n")
