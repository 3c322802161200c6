"""The benchmark tracer wraps package functions by name; they must exist.

`perfbench/spans.py` looks up every name of its TRACED table with a bare
`getattr` on the subspec module, so a renamed or deleted function would
crash every traced benchmark run.  This test reads that table without
installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    missing = []
    for span, (module_name, names) in traced.items():
        module = importlib.import_module(f"subspec.{module_name}")
        missing += [f"{span}: subspec.{module_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []
