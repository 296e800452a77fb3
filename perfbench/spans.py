"""Span tracing from outside the package under test.

The tracer swaps the module attributes that the pipeline calls through
(e.g. `seis.metrics.spatial_subspace`) for timing wrappers while a traced
call runs, and puts the originals back afterwards, so untraced calls run
the unmodified code. Spans stay in memory as (name, start, end, parent,
call, measure) and are written out when the run ends.

A target whose module or attribute no longer exists is skipped with a
note: later changes may delete or rename helpers the pipeline uses today.
"""

import importlib
import json
import os
from time import perf_counter


def _shape(args, i=0):
    return getattr(args[i], "shape", None) if len(args) > i else None


def _gram_measure(args, kwargs, result):
    """Computed flop count of the Gram product 2*m^2*p for a (d, n) input."""
    shape = _shape(args)
    if shape is None or len(shape) != 2:
        return None
    m, p = min(shape), max(shape)
    return {"gram_flop": 2.0 * m * m * p}


def _eigh_measure(args, kwargs, result):
    """Order n of the eigenproblem and the 9*n^3 textbook flop estimate for
    a symmetric eigendecomposition with vectors (Golub & Van Loan, 8.3)."""
    shape = _shape(args)
    if shape is None:
        return None
    n = shape[0]
    return {"n": n, "eigh_flop": 9.0 * n**3}


def _read_measure(args, kwargs, result):
    """Bytes read, computed from the file size."""
    try:
        return {"bytes": os.path.getsize(args[0])}
    except (IndexError, OSError, TypeError):
        return None


# (module, attribute path, span name, measure, only inside this parent span).
# Every attribute is the name a pipeline module calls through, so one
# function imported into several modules gets one target per module.
TARGETS = (
    ("seis.harness", "run_validation_suite", "harness.run_validation_suite", None, None),
    ("seis.harness", "gen_synthetic_activations", "harness.gen_synthetic_activations", None, None),
    ("seis.harness", "make_alternate", "harness.make_alternate", None, None),
    ("seis.harness", "apply_affine", "transforms.apply_affine", None, None),
    ("seis.harness", "seis", "metrics.seis", None, None),
    ("seis.cli", "main", "cli.main", None, None),
    ("seis.cli", "load_manifest", "tensor_io.load_manifest", None, None),
    ("seis.cli", "read_tensor", "tensor_io.read_tensor", _read_measure, None),
    ("seis.cli", "seis", "metrics.seis", None, None),
    ("seis.cli", "write_results", "tensor_io.write_results", None, None),
    ("seis.metrics", "seis", "metrics.seis", None, None),
    ("seis.metrics", "validate_tensor", "tensor_io.validate_tensor", None, None),
    ("seis.metrics", "matricize", "matricize.matricize", None, None),
    ("seis.metrics", "center_rows", "matricize.center_rows", None, None),
    ("seis.metrics", "spatial_subspace", "linalg.spatial_subspace", _gram_measure, None),
    ("seis.metrics", "cca", "linalg.cca", None, None),
    ("seis.metrics", "equivariance_score", "metrics.equivariance_score", None, None),
    ("seis.metrics", "invariance_score", "metrics.invariance_score", None, None),
    ("seis.metrics", "row_cosines", "linalg.row_cosines", None, None),
    ("seis.linalg", "row_cosines", "linalg.row_cosines", None, None),
    # numpy.linalg.eigh as seen from seis.linalg only, and only the Gram
    # eigensolve: eigh calls elsewhere stay in their caller's self time
    ("seis.linalg", "np.linalg.eigh", "linalg.eigh", _eigh_measure, "linalg.spatial_subspace"),
    ("seis.matricize", "validate_tensor", "tensor_io.validate_tensor", None, None),
    ("seis.transforms", "validate_tensor", "tensor_io.validate_tensor", None, None),
    ("seis.tensor_io", "validate_tensor", "tensor_io.validate_tensor", None, None),
)


class _Proxy:
    """Forwards attribute reads to `target` except for the given overrides,
    so one module sees a wrapped function that stays untouched elsewhere."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.spans = []  # [name, start, end, parent index, call id, measure]
        self.notes = []
        self.call = 0
        self._stack = []
        self._patches = []  # (module, attribute, replacement, original)
        for module_name, path, name, measure, only_under in targets:
            patch = self._prepare(module_name, path, name, measure, only_under)
            if patch is not None:
                self._patches.append(patch)

    def _prepare(self, module_name, path, name, measure, only_under):
        where = f"{module_name}.{path}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.notes.append(f"skipped {where}: module not found")
            return None
        head, *rest = path.split(".")
        objs = [getattr(module, head, None)]
        for part in rest:
            objs.append(getattr(objs[-1], part, None))
        if any(o is None for o in objs) or not callable(objs[-1]):
            self.notes.append(f"skipped {where}: no such callable")
            return None
        replacement = self._wrap(objs[-1], name, measure, only_under)
        # rebuild the attribute chain from the inside out as proxies
        for obj, part in zip(reversed(objs[:-1]), reversed(rest)):
            replacement = _Proxy(obj, **{part: replacement})
        return module, head, replacement, objs[0]

    def _wrap(self, fn, name, measure, only_under):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if only_under is not None and (parent < 0 or spans[parent][0] != only_under):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, self.call, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        self.call += 1
        for module, attr, replacement, _ in self._patches:
            setattr(module, attr, replacement)
        return self

    def __exit__(self, *exc):
        for module, attr, _, original in self._patches:
            setattr(module, attr, original)
        return False

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds and summed
        measures. Self time is the duration minus the part of it that the
        span's children cover."""
        children = {}
        for i, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(i)
        out = {}
        for i, (name, start, end, _, _, measure) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c in children.get(i, ()):
                lo = max(self.spans[c][1], reach)
                hi = min(self.spans[c][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "measures": {}})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
            for key, value in (measure or {}).items():
                agg["measures"][key] = agg["measures"].get(key, 0.0) + value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call, measure in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call, "measure": measure}) + "\n")
