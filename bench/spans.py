"""Spans at entwit's module boundaries, recorded from outside the program.

During a traced run the public functions that one entwit module calls in
another are replaced, in every entwit module that holds them, by wrappers
that record a span (name, start, end, parent).  Spans stay in memory and
are written out once, when the run ends.  Nothing here changes what the
wrapped functions compute.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _search_attrs(args, kwargs, result):
    inst, window = args[0], args[1]
    return {
        "candidates": result.candidates_evaluated,
        "tables": (2 * window + 1) ** len(inst.support()),
        "workers": kwargs.get("workers", args[2] if len(args) > 2 else 1),
    }


def _traversal_attrs(args, kwargs, result):
    return {"traversals": result.traversals_checked}


# (module, function, span name, attributes taken from the call and result)
BOUNDARIES = (
    ("entwit.ks", "bundled_basis_set", "ks.load", None),
    ("entwit.ks", "load_basis_set", "ks.load", None),
    ("entwit.ks", "validate_basis_set", "ks.validate", None),
    ("entwit.ks", "verify_ks_property", "ks.traversal", _traversal_attrs),
    ("entwit.channel", "build_ks_channel", "channel.build", None),
    ("entwit.channel", "confusability_graph", "channel.graph", None),
    ("entwit.channel", "independence_number", "channel.alpha", None),
    ("entwit.channel", "verify_zero_error", "channel.zero_error_check", None),
    ("entwit.entangled", "encoder_branches", "entangled.encoder", None),
    ("entwit.entangled", "decoder_decode", "entangled.decode", None),
    ("entwit.entangled", "run_zero_error_quantum", "entangled.zero_error_run", None),
    ("entwit.control", "make_instance", "control.instance", None),
    ("entwit.control", "evaluate_quantum", "control.quantum", None),
    ("entwit.control", "search_deterministic", "control.search", _search_attrs),
    ("entwit.control", "optimal_c2_for_c1", "control.recheck", None),
    ("entwit.control", "evaluate_deterministic", "control.recheck", None),
    ("entwit.bounds", "certify_separation", "bounds.certify", None),
    ("entwit.bounds", "strategy_to_code", "bounds.reduction", None),
)


class Tracer:
    """In-memory span recorder; ``spans`` is a list of dicts."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record.update(attrs(args, kwargs, result))
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Swap every boundary function for its traced wrapper, then restore."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("entwit")]
    swapped = []
    for mod_name, fn_name, span_name, attrs in BOUNDARIES:
        original = getattr(sys.modules[mod_name], fn_name)
        wrapper = tracer.wrap(span_name, original, attrs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    swapped.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(swapped):
            setattr(mod, attr, original)


def duration(span) -> float:
    return span["end"] - span["start"]

