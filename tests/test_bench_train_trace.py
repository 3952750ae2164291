"""The contract between train() and the benchmark's span tracer.

bench/spans.py opens a training step when ``model.forward`` runs inside
``train`` in grad mode, and closes it when ``adam_step`` returns; forwards
under ``no_grad`` open none.  ``train`` runs every step on its own worker
threads, with grad mode per thread, so this checks that a traced run whose
batches split into shards on two threads still counts one step per Adam
step, and that the tracer then uninstalls cleanly.
"""

import numpy as np

import irae.train as train_module
from irae.degrade import DegradationSpec
from irae.model import IraeConfig, build
from synthimages import smooth_patches
from test_bench_spans import load_spans


def test_traced_sharded_train_records_one_step_per_adam_step(monkeypatch):
    monkeypatch.setattr(train_module, "_shard_workers", lambda n_shards: 2)
    spans = load_spans()
    modules_before = [dict(vars(m)) for m in spans._MODULES]
    methods_before = {(cls, name): cls.__dict__[name] for cls, name, _ in spans._METHODS}
    # 18 training images at 32x32 (8 per shard), batches of 16 and 2: two
    # Adam steps per epoch; the first epoch's 16-image batch is unsplit
    # because it initializes ActNorm, the second epoch's is two shards
    images = smooth_patches(20, 32, np.random.default_rng(42))
    spec = DegradationSpec(kind="awgn", sigma=25.0)
    model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4, seed=43))

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = "measure"
        _, history = train_module.train(model, images, spec, epochs_max=2, batch_size=16, seed=44)
    finally:
        tracer.phase = None
        tracer.uninstall()

    assert len(history) == 2
    adam_steps = [s for s in tracer.spans if s.name == "train.adam"]
    assert len(adam_steps) == 4
    assert [phase for phase, _ in tracer.steps] == ["measure"] * 4
    assert all(ms > 0 for _, ms in tracer.steps)
    # each epoch ends with a validation forward under no_grad: had it opened
    # a step, that step would still be open here
    assert tracer._step_start is None
    assert tracer.stack == []

    for module, before in zip(spans._MODULES, modules_before):
        after = vars(module)
        assert after.keys() == before.keys(), module.__name__
        for attr, value in before.items():
            assert after[attr] is value, f"{module.__name__}.{attr} not restored"
    for (cls, name), fn in methods_before.items():
        assert cls.__dict__[name] is fn, f"{cls.__name__}.{name} not restored"
