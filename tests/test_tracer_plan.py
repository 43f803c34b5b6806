"""The traced benchmark run patches package functions by name.

``bench/tracer.py`` lists in ``PLAN`` every (module, attribute) it wraps,
and besides them wraps ``surgreport.cli._caption_pairs`` to label each
caption scope. A refactor that drops or renames one of them would only show
up as a failing traced benchmark run; these tests make it fail here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package():
    plan = _load_tracer().PLAN
    assert plan
    unresolved = []
    for target, attr, _, _ in plan:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"{target}.{attr}")
    assert unresolved == []



def test_the_caption_scope_hook_resolves_with_the_arguments_the_tracer_passes():
    cli = importlib.import_module("surgreport.cli")
    caption_pairs = getattr(cli, "_caption_pairs", None)
    assert callable(caption_pairs)
    # The tracer's wrapper calls it as (generated, reference, kind), by position.
    bound = inspect.signature(caption_pairs).bind("generated.jsonl", "reference.jsonl", "frame")
    assert list(bound.arguments)[-1] == "kind"
