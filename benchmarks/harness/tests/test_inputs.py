"""Seeded inputs: repeatable, seed-sensitive, and clear of flush instants."""

from benchmarks.harness import workloads


def _small(seed):
    return {
        "osaka": workloads.osaka_sim("t", seed, 3, 32, window=32.0),
        "keyed": workloads.keyed_sim("t", seed, 2, 32),
        "free": workloads.osaka_freerun("t", seed, 500),
        "paced": workloads.osaka_openloop("t", seed, 0.05, 0.1),
    }


def test_same_seed_same_inputs():
    first, second = _small(7), _small(7)
    for name in first:
        assert (workloads.fingerprint(first[name])
                == workloads.fingerprint(second[name])), name
        assert first[name].tuples == second[name].tuples


def test_other_seed_other_inputs():
    first, second = _small(7), _small(8)
    for name in first:
        assert (workloads.fingerprint(first[name])
                != workloads.fingerprint(second[name])), name


def test_readings_keep_clear_of_flush_instants():
    for name, inputs in _small(3).items():
        step = inputs.params.get("check", inputs.params.get("join"))
        guard = workloads.OPEN_GUARD * 0.999
        for sensor in inputs.sensors:
            times = [t for t, _ in sensor.readings]
            assert times == sorted(times), (name, sensor.sensor_id)
            for t in times:
                offset = t % step
                assert guard <= offset <= step - guard, (name, t)


def test_batches_are_published_at_their_last_reading():
    inputs = workloads.osaka_sim("t", 1, 3, 32, window=32.0)
    sensor = inputs.sensors[1]
    chunks = inputs.chunks(sensor)
    assert [last - first for _, first, last in chunks] == [32, 32, 32]
    assert chunks[0][0] == sensor.readings[31][0]


def test_open_loop_offers_the_stated_rates():
    inputs = workloads.osaka_openloop("t", 5, 0.2, 1.0)
    assert [s.rate for s in inputs.segments] == list(workloads.RATES)
    times = sorted(t for s in inputs.sensors for t, _ in s.readings)
    for segment in inputs.segments:
        offered = sum(segment.start <= t < segment.end for t in times)
        expected = segment.rate * (segment.end - segment.start)
        assert abs(offered - expected) < 5 * expected ** 0.5
    # Segments do not overlap and leave a drain gap.
    for before, after in zip(inputs.segments, inputs.segments[1:]):
        assert after.start >= before.end + workloads.OPEN_WINDOW


def test_every_named_workload_builds():
    for name in workloads.WHY:
        parts = workloads.build(name, 1, smoke=True)
        assert parts and all(p.tuples > 0 for p in parts.values())
