"""The span recorder of the benchmark (bench/tracer.py) against the package.

The recorder rebinds the package's layer functions from outside, by name
and by object identity.  This checks that it still finds every one of its
targets, that a traced run reports exactly what an untraced one does, and
that uninstalling leaves no wrapper behind.
"""

import importlib.util
import sys
from pathlib import Path

import opptypes
from opptypes.kernel import Context

REPO = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", REPO / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of the package's modules and of Context."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "opptypes" or name.startswith("opptypes."):
            for key, value in vars(module).items():
                out[name, key] = value
    for key, value in vars(Context).items():
        out["Context", key] = value
    return out


def _target(owner, attr):
    if owner == "Context":
        return Context.__dict__[attr]
    return getattr(sys.modules[owner], attr)


def _report(text):
    report = opptypes.run(opptypes.parse(text))
    return opptypes.report_text(report), opptypes.report_json(report)


def test_traced_run_reports_the_same_and_unwinds():
    tracer_module = _load_tracer()
    targets = tracer_module.TRACED + tracer_module.COUNTED
    text = (REPO / "scripts" / "golden.ptt").read_text(encoding="utf-8")
    untraced = _report(text)
    before = _bindings()
    originals = [_target(owner, attr) for _, owner, attr in targets]

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = [_target(owner, attr) for _, owner, attr in targets]
        traced = _report(text)
    finally:
        tracer.uninstall()

    # every target was found and wrapped, and the run went through them
    assert [t for t, w, o in zip(targets, wrapped, originals)
            if w is o] == []
    assert tracer.layer("runner.run")[0] == 1
    assert tracer.layer("printer.term_str")[0] > 0
    assert tracer.layer("kernel.context_lookup")[0] > 0
    # Parser tokenizes through the module-level name the tracer rebinds
    assert tracer.counts["parser.tokens"] == len(
        opptypes.parser.tokenize(text))
    assert traced == untraced
    # and nothing is left rebound
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
