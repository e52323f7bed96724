"""In-memory span tracer installed around the public calls of breakcurve.

Spans are recorded by wrapping module attributes from outside the package:
every binding of a wrapped function in a ``breakcurve`` module (including
re-exports such as ``breakcurve.fit`` and the names ``cli`` imported from
``files``) is replaced for the traced phase and restored afterwards.

Each span carries a name, start and end (``perf_counter_ns``), its parent
span and the operation id.  Forward-model evaluations are too frequent to
keep one record each: they are "leaf" calls whose count and time are added
to the enclosing span, which is enough for per-fit evaluation counts and for
self time.  Only the standard library is imported here, so a traced CLI child
pays nothing extra at import.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from array import array
from pathlib import Path

# (module, function, kind); kind "leaf" aggregates into the enclosing span
WRAPPED = (
    ("units", "ingest_curve", "span"),
    ("files", "load_conditions", "span"),
    ("files", "dump_json", "span"),
    ("files", "write_csv", "span"),
    ("models", "thomas_forward", "leaf"),
    ("models", "yoon_nelson_forward", "leaf"),
    ("models", "clark_forward", "leaf"),
    ("models", "wolborska_forward", "leaf"),
    ("models", "breakthrough_time", "span"),
    ("estimation", "fit", "span"),
    ("estimation", "fit_fixed_qm", "span"),
    ("estimation", "sensitivity_profile", "span"),
    ("correlation", "predict_kt", "span"),
    ("correlation", "predict_curve", "span"),
    ("correlation", "fit_plane", "span"),
    ("correlation", "average_qm", "span"),
    ("cli", "main", "span"),
)

HULL_WARNING = "outside the source-experiment hull"


def _fit_name(args, kwargs):
    model = args[1] if len(args) > 1 else kwargs.get("model", "thomas")
    return f"estimation.fit.{model}"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Span store: parallel typed arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.leaf_calls = array("q")
        self.leaf_ns = array("q")
        self.value = array("q")  # per-span integer outcome: fit iterations, hull flag, bytes written
        # leaf name -> [calls, ns, calls during the first pass over the inputs]
        self.leaf_totals: dict[str, list[int]] = {}
        self.stack: list[int] = []
        self.current_op = -1
        self.first_pass = 1  # operations with a lower id belong to the first pass
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.leaf_calls.append(0)
        self.leaf_ns.append(0)
        self.value.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def begin_op(self, op_id: int, name: str) -> int:
        self.current_op = op_id
        return self.open(name)

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, label: str, qualname: str):
        namer = {"estimation.fit": _fit_name, "cli.main": _cli_name}.get(label)
        open_, close = self.open, self.close

        if label == "correlation.predict_kt":

            def wrapper(*args, **kwargs):
                idx = open_(label)
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                finally:
                    close(idx)
                for w in caught:
                    if HULL_WARNING in str(w.message):
                        self.value[idx] = 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                return result

        elif label in ("files.dump_json", "files.write_csv"):

            def wrapper(*args, **kwargs):
                idx = open_(label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                self.value[idx] = Path(args[0]).stat().st_size
                return result

        else:

            def wrapper(*args, **kwargs):
                idx = open_(namer(args, kwargs) if namer else label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if label == "estimation.fit":
                    self.value[idx] = int(result.iterations)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__qualname__ = qualname
        return wrapper

    def _leaf_wrapper(self, fn, label: str):
        stack, leaf_calls, leaf_ns, clock = self.stack, self.leaf_calls, self.leaf_ns, time.perf_counter_ns
        tot = self.leaf_totals.setdefault(label, [0, 0, 0])

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if stack:
                    top = stack[-1]
                    leaf_calls[top] += 1
                    leaf_ns[top] += dt
                tot[0] += 1
                tot[1] += dt
                if self.current_op < self.first_pass:
                    tot[2] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each wrapped function in loaded breakcurve modules."""
        modules = [m for name, m in sys.modules.items() if name == "breakcurve" or name.startswith("breakcurve.")]
        for mod_name, fn_name, kind in WRAPPED:
            home = sys.modules.get(f"breakcurve.{mod_name}")
            if home is None:
                continue
            original = getattr(home, fn_name)
            label = f"{mod_name}.{fn_name}"
            wrapped = (
                self._leaf_wrapper(original, label)
                if kind == "leaf"
                else self._span_wrapper(original, label, fn_name)
            )
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- export ------------------------------------------------------------

    def to_records(self) -> dict:
        """Column-oriented dump, the form merged across processes."""
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "leaf_calls": list(self.leaf_calls),
            "leaf_ns": list(self.leaf_ns),
            "value": list(self.value),
            "leaf_totals": self.leaf_totals,
        }

    def merge(self, rec: dict, op_id: int) -> None:
        """Append spans recorded by another process under a new operation id."""
        base = len(self.start)
        for i in range(len(rec["start"])):
            self.name_id.append(self._intern(rec["names"][rec["name_id"][i]]))
            self.start.append(rec["start"][i])
            self.end.append(rec["end"][i])
            p = rec["parent"][i]
            self.parent.append(p + base if p >= 0 else -1)
            self.op.append(op_id)
            self.leaf_calls.append(rec["leaf_calls"][i])
            self.leaf_ns.append(rec["leaf_ns"][i])
            self.value.append(rec["value"][i])
        for name, (calls, ns, _) in rec["leaf_totals"].items():
            tot = self.leaf_totals.setdefault(name, [0, 0, 0])
            tot[0] += calls
            tot[1] += ns
            if op_id < self.first_pass:
                tot[2] += calls


def cli_child(out_path: str) -> int:
    """Traced stand-in for the ``breakcurve`` console script.

    Runs ``breakcurve.cli.main`` on this process's argv with spans for the
    package import and every wrapped call, then writes the spans to
    ``out_path``.  Interpreter start-up before this function is not covered;
    it is measured separately as ``cli.process_start_ms``.
    """
    tracer = Tracer()
    root = tracer.begin_op(0, "op.cli")
    idx = tracer.open("import.breakcurve")
    import breakcurve.cli

    tracer.close(idx)
    tracer.install()
    try:
        code = breakcurve.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.close(root)
    Path(out_path).write_text(json.dumps(tracer.to_records()))
    return code
