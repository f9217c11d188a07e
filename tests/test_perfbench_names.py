"""The benchmark's tracer (`perfbench/spans.py`) wraps package functions
and methods by name, so a name it lists must stay in the package."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # compiled from its text, so nothing is written next to it
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    missing = []
    for name, owner, attr in namespace["TRACED"]:
        if isinstance(owner, type):
            found = attr in owner.__dict__  # the tracer wraps owner.__dict__
        else:
            found = callable(getattr(importlib.import_module(owner), attr,
                                     None))
        if not found:
            missing.append(name)
    assert missing == []
