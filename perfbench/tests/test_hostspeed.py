import os

from perfbench import hostspeed, run


def test_slowdown_is_the_median_kernel_time_over_the_nominal_one(monkeypatch):
    times = iter([3.0, 1.0, 2.0, 2.5, 1.5])
    monkeypatch.setattr(hostspeed, "kernel_seconds_per_cpu",
                        lambda: next(times) * hostspeed.NOMINAL_KERNEL_S)
    host = hostspeed.HostSpeed()
    host.sample()
    host.sample(runs=4)
    assert host.slowdown == 2.0


def test_the_kernel_takes_time():
    assert hostspeed.kernel_seconds() > 0.0


def test_a_sample_is_the_mean_over_every_cpu_and_releases_the_thread(monkeypatch):
    cpus = os.sched_getaffinity(0)
    seen = []

    def on_pinned_cpu():
        (cpu,) = os.sched_getaffinity(0)
        seen.append(cpu)
        return float(cpu + 1)

    monkeypatch.setattr(hostspeed, "kernel_seconds", on_pinned_cpu)
    assert hostspeed.kernel_seconds_per_cpu() == sum(c + 1 for c in cpus) / len(cpus)
    assert seen == sorted(cpus)
    assert os.sched_getaffinity(0) == cpus


def test_each_op_is_scaled_by_the_slowdown_around_it():
    notes = {}
    ops = run.nominal_ops([10.0, 20.0, 30.0], [1.0, 2.0, 3.0], notes)
    assert ops == {"op_p50_ms": 10.0, "op_tail_ms": 10.0}
    assert notes["op_p50_ms"] == "raw 20.0000"
    assert notes["op_tail_ms"].endswith("raw 20.0000")


def test_each_setup_is_scaled_by_the_slowdown_around_it(monkeypatch):
    times = iter([1.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0])
    monkeypatch.setattr(hostspeed, "kernel_seconds_per_cpu",
                        lambda: next(times) * hostspeed.NOMINAL_KERNEL_S)
    host = hostspeed.HostSpeed()
    first = run.timed_setup(host, lambda: 6.0)
    second = run.timed_setup(host, lambda: 2.0)
    assert (first, second) == ((6.0, 3.0), (2.0, 2.0))
    notes = {}
    assert run.nominal_setup_s([first, second, (9.0, 1.0)], notes) == 2.0
    assert notes["setup_s"].endswith("raw 6.0000")
