"""perfbench's tracer wraps segtool's callables by name: a name it lists
that segtool no longer has makes every traced benchmark run fail."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "path", [os.path.join(ROOT, "perfbench"), *sys.path])
    import tracer

    sites = [(owner, attr) for targets in tracer.TARGETS.values() for owner, attr in targets]
    before = [getattr(owner, attr) for owner, attr in sites]
    with tracer.Tracer():
        assert all(getattr(o, a) is not f for (o, a), f in zip(sites, before))
    assert all(getattr(o, a) is f for (o, a), f in zip(sites, before))
