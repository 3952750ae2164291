"""The benchmark's span tracer must install against the current package and
leave every module attribute and traced method as it found them.

Tracer.install looks up each traced name with getattr, so deleting or
renaming one of them from irae breaks every traced benchmark run; this test
makes that show up in the unit suite instead.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_uninstall_restores_originals():
    spans = load_spans()
    modules_before = [dict(vars(m)) for m in spans._MODULES]
    methods_before = {(cls, name): cls.__dict__[name] for cls, name, _ in spans._METHODS}

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer._undo, "install patched nothing"
        for (cls, name), fn in methods_before.items():
            assert cls.__dict__[name] is not fn, f"{cls.__name__}.{name} was not patched"
    finally:
        tracer.uninstall()

    for module, before in zip(spans._MODULES, modules_before):
        after = vars(module)
        assert after.keys() == before.keys(), module.__name__
        for attr, value in before.items():
            assert after[attr] is value, f"{module.__name__}.{attr} not restored"
    for (cls, name), fn in methods_before.items():
        assert cls.__dict__[name] is fn, f"{cls.__name__}.{name} not restored"
