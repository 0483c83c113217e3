import types

from perfbench.tracing import Patches, Tracer, call_counts, per_op_totals, self_times


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.op(7):                 # 0 .. 100
        clock.advance(10)
        with tracer.span("outer"):     # 10 .. 80
            clock.advance(5)
            with tracer.span("inner"):  # 15 .. 45
                clock.advance(30)
            clock.advance(5)
            with tracer.span("inner"):  # 50 .. 70
                clock.advance(20)
            clock.advance(10)
        clock.advance(20)
    by_name = {s.name: s for s in tracer.spans}
    own = self_times(tracer.spans)
    assert own[by_name["op"].span_id] == 100 - 70
    assert own[by_name["outer"].span_id] == 70 - 30 - 20
    assert per_op_totals(tracer.spans) == {7: {"op": 30, "outer": 20, "inner": 50}}
    assert per_op_totals(tracer.spans, use_self_time=False)[7]["outer"] == 70
    assert call_counts(tracer.spans)[7]["inner"] == 2
    assert all(s.op == 7 for s in tracer.spans)
    assert by_name["outer"].parent == by_name["op"].span_id


def test_recorded_span_is_a_child_of_the_open_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.op(1):
        clock.advance(50)
        tracer.record("timed", 10, 40)
    timed = next(s for s in tracer.spans if s.name == "timed")
    root = next(s for s in tracer.spans if s.name == "op")
    assert timed.parent == root.span_id and timed.op == 1
    assert per_op_totals(tracer.spans)[1] == {"op": 20, "timed": 30}


class Engine:
    def search(self, x):
        return x * 2


class Derived(Engine):
    pass


def test_installed_wrappers_are_removed_afterwards():
    module = types.SimpleNamespace(build=lambda n: n + 1)
    original_build, original_search = module.build, Engine.__dict__["search"]
    tracer = Tracer()
    with tracer.installed([(module, "build", "layer.build"), (Engine, "search", "layer.search")]):
        assert module.build(1) == 2
        assert Derived().search(3) == 6
    assert module.build is original_build
    assert Engine.__dict__["search"] is original_search
    assert [s.name for s in tracer.spans] == ["layer.build", "layer.search"]


def test_patching_an_inherited_method_is_refused():
    patches = Patches()
    try:
        patches.wrap(Derived, "search", lambda fn: fn)
    except AttributeError:
        pass
    else:
        raise AssertionError("inherited attribute was patched")
    assert "search" not in vars(Derived)
