"""The tracer wraps targets where callers look them up and never fails on
a target the program no longer has."""

import sys
import types

import spans


def _fake_program(monkeypatch):
    module = types.ModuleType("fakeprog")

    class Tensor:
        @classmethod
        def build(cls, n):
            return [n]

    def inner(n):
        return Tensor.build(n)

    def outer(n):
        return module.inner(n) + module.inner(n)

    module.Tensor, module.inner, module.outer = Tensor, inner, outer
    module.STAGES = {"run": outer}
    monkeypatch.setitem(sys.modules, "fakeprog", module)
    return module


TARGETS = (
    ("fakeprog", "STAGES[run]", "prog.run", "cli"),
    ("fakeprog", "inner", "prog.inner", "corpus"),
    ("fakeprog", "Tensor.build", "prog.build", "corpus"),
    ("fakeprog", "gone", "prog.gone", "corpus"),
    ("notamodule", "anything", "prog.nothing", "corpus"),
)


def test_spans_nest_and_absent_targets_are_reported(monkeypatch):
    module = _fake_program(monkeypatch)
    tracer = spans.Tracer()
    uninstall = tracer.install(TARGETS)
    assert module.STAGES["run"](3) == [3, 3]
    uninstall()
    assert tracer.absent == ["fakeprog.gone", "notamodule.anything"]
    assert [s["metric"] for s in tracer.spans] == [
        "prog.run", "prog.inner", "prog.build", "prog.inner", "prog.build"]
    assert [s["parent"] for s in tracer.spans] == [-1, 0, 1, 0, 3]
    assert module.Tensor.build(1) == [1] and len(tracer.spans) == 5, "uninstalled"


def test_self_time_subtracts_children():
    def span(metric, layer, start, end, parent):
        return {"metric": metric, "layer": layer, "start": start, "end": end,
                "parent": parent, "kind": "op", "op": 0}

    recorded = [
        span("cli.run", "cli", 0.0, 10.0, -1),
        span("corpus.parse", "corpus", 1.0, 4.0, 0),
        span("corpus.build", "corpus", 2.0, 3.0, 1),
        span("flags.report", "flags", 5.0, 9.0, 0),
    ]
    totals = spans.op_totals(spans.group_by_op(recorded)[("op", 0)])
    assert totals["cli.self_s"] == 3.0
    assert totals["corpus.self_s"] == 3.0
    assert totals["corpus.parse_s"] == 3.0 and totals["corpus.parse_calls"] == 1
    assert totals["flags.self_s"] == 4.0


def test_summary_falls_back_to_setup():
    per_kind = {"op": [{"a": 1.0}, {"a": 3.0}, {"a": 2.0}], "setup": [{"b": 5.0}]}
    assert spans.summarize(per_kind, ["a", "b", "c"]) == {"a": 2.0, "b": 5.0, "c": 0}
