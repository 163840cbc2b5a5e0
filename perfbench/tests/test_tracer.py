"""Self-time accounting of the outside-in tracer on toy call trees."""

import types

import pytest

from perfbench.tracer import ROOT, Tracer


class FakeClock:
    """A clock the toy functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def toy_module(clock):
    """A toy program: outer() calls inner() twice and drains gen()."""
    mod = types.SimpleNamespace()

    def inner():
        clock.spend(2.0)

    def gen(n):
        for i in range(n):
            clock.spend(3.0)      # work done while the generator resumes
            yield i
        clock.spend(0.5)          # work after the last item

    def outer():
        clock.spend(1.0)
        mod.inner()
        mod.inner()
        for _ in mod.gen(2):
            clock.spend(10.0)     # the consumer's own work, between resumes
        clock.spend(4.0)

    mod.inner, mod.gen, mod.outer = inner, gen, outer
    return mod


def test_self_times_partition_a_nested_tree_with_a_generator():
    clock = FakeClock()
    mod = toy_module(clock)
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "outer", "outer", "call")
    tracer.patch(mod, "inner", "inner", "call")
    tracer.patch(mod, "gen", "gen", "iter")
    tracer.start()
    clock.spend(0.25)             # before any span: the root's own time
    mod.outer()
    tracer.stop()

    assert tracer.self_s["inner"] == pytest.approx(4.0)
    # Two items at 3.0 each, plus the 0.5 spent reaching StopIteration.
    assert tracer.self_s["gen"] == pytest.approx(6.5)
    # outer's own 1.0 + 4.0, plus the consumer loop's 2 x 10.0: time
    # spent between resumptions belongs to the caller, not the generator.
    assert tracer.self_s["outer"] == pytest.approx(25.0)
    assert tracer.self_s[ROOT] == pytest.approx(0.25)
    assert tracer.total_s == pytest.approx(35.75)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s)
    assert tracer.calls == {"outer": 1, "inner": 2, "gen": 1}


def test_timing_the_generator_call_alone_would_miss_its_work():
    clock = FakeClock()
    mod = toy_module(clock)
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "gen", "gen", "call")   # the wrong hook kind
    tracer.start()
    list(mod.gen(3))
    tracer.stop()
    assert tracer.self_s.get("gen", 0.0) == 0.0
    assert tracer.self_s[ROOT] == pytest.approx(9.5)


def test_same_layer_nested_in_itself_merges_into_one_span():
    clock = FakeClock()
    mod = types.SimpleNamespace()

    def leaf():
        clock.spend(1.0)

    def wrapper():
        clock.spend(1.0)
        mod.leaf()

    mod.leaf, mod.wrapper = leaf, wrapper
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "wrapper", "sink", "call")
    tracer.patch(mod, "leaf", "sink", "call")
    tracer.start()
    mod.wrapper()
    tracer.stop()
    assert tracer.self_s["sink"] == pytest.approx(2.0)
    assert tracer.calls == {"sink": 1}


def test_exception_closes_the_span():
    clock = FakeClock()
    mod = types.SimpleNamespace()

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    mod.boom = boom
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "boom", "boom", "call")
    tracer.start()
    with pytest.raises(ValueError):
        mod.boom()
    tracer.stop()                 # balanced: would raise otherwise
    assert tracer.self_s["boom"] == pytest.approx(1.0)


def test_count_hooks_open_no_span():
    clock = FakeClock()
    mod = types.SimpleNamespace(tick=lambda: clock.spend(1.0))
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "tick", "ticks", "count")
    tracer.start()
    for _ in range(3):
        mod.tick()
    tracer.stop()
    assert tracer.calls == {"ticks": 3}
    assert tracer.self_s == {ROOT: pytest.approx(3.0)}


def test_remove_restores_own_and_inherited_attributes():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    base_run, child_own = Base.run, Child.own
    tracer = Tracer()
    tracer.patch(Child, "run", "child.run", "call")
    tracer.patch(Child, "own", "child.own", "call")
    assert "run" in vars(Child)
    tracer.remove()
    assert "run" not in vars(Child)
    assert Child.run is base_run
    assert Child.own is child_own
    assert Base.run is base_run


def test_install_and_remove_leave_the_program_unmodified():
    import importlib

    from perfbench.tracer import HOOKS

    def snapshot():
        state = {}
        for module_name, path, *_ in HOOKS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            state[(module_name, path)] = (attr in vars(owner),
                                          getattr(owner, attr))
        return state

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.remove()
    assert snapshot() == before
