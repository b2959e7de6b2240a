"""The benchmark's own logic: span arithmetic, the tail-percentile rule,
failure counting and seeded gap injection."""

import signal
import time

import numpy as np
import pytest

from bench.layers import tail_percentiles
from bench.spans import Tracer, self_times
from bench.speed import REFERENCE_PROBE_S, SpeedClock, work_seconds
from bench.workloads import count_failures, failed_share, inject_gaps


class TestSelfTimes:
    def test_nested_chain(self):
        # root [0, 10] > child [1, 5] > grandchild [2, 3]
        own = self_times([0.0, 1.0, 2.0], [10.0, 5.0, 3.0], [-1, 0, 1])
        assert own == pytest.approx([6.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        # children [1, 3] and [2, 5] cover [1, 5]; [8, 12] is clipped to [8, 10]
        own = self_times([0.0, 1.0, 2.0, 8.0], [10.0, 3.0, 5.0, 12.0], [-1, 0, 0, 0])
        assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[1:] == pytest.approx([2.0, 3.0, 4.0])

    def test_siblings_and_leaf(self):
        own = self_times([0.0, 1.0, 4.0], [6.0, 2.0, 5.0], [-1, 0, 0])
        assert own == pytest.approx([4.0, 1.0, 1.0])


class TestSpeedClock:
    def test_work_between_probes_is_rescaled(self):
        ref = REFERENCE_PROBE_S
        # probes at [0, 0.01], [1.01, 1.03], [2.03, 2.04]; probe speeds ref, 3 ref, ref
        samples = [(0.0, 0.01, ref), (1.01, 1.03, 3 * ref), (2.03, 2.04, ref)]
        raw, scaled = work_seconds(samples)
        assert raw == pytest.approx(2.0)
        assert scaled == pytest.approx(2.0 / 2.0)  # both stretches ran at half speed

    def test_samples_during_block_and_restores_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with SpeedClock() as clock:
            time.sleep(0.5)
        assert len(clock.samples) >= 3  # start, at least one tick, end
        assert 0.45 < clock.raw_s < 0.6
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestTracer:
    def test_spans_record_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        with tracer.span("next"):
            pass
        assert tracer.names == ["outer", "inner", "next"]
        assert tracer.parents == [-1, 0, -1]
        assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))

    def test_exception_marks_span_failed_and_propagates(self):
        tracer = Tracer()

        def boom(x):
            raise ValueError(x)

        wrapped = tracer.wrap(boom, "layer.boom")
        with pytest.raises(ValueError):
            wrapped(1)
        assert tracer.names == ["layer.boom.failed"]
        assert tracer._stack == []

    def test_observer_sees_named_arguments(self):
        tracer = Tracer()
        seen = {}

        def observe(tr, index, arguments, result):
            seen.update(arguments, result=result, index=index)

        wrapped = tracer.wrap(lambda a, b=2: a + b, "layer.add", observe)
        assert wrapped(1, b=5) == 6
        assert seen == {"a": 1, "b": 5, "result": 6, "index": 0}

    def test_observer_time_is_off_the_span_clock(self):
        tracer = Tracer()
        wrapped = tracer.wrap(lambda: None, "layer.leaf",
                              lambda *_: time.sleep(0.05))
        with tracer.span("outer"):
            wrapped()
        assert tracer.ends[0] - tracer.starts[0] < 0.01
        assert tracer.names == ["outer", "layer.leaf"]

    def test_patch_covers_every_binding_and_restores(self):
        import wavets
        import wavets.cli
        import wavets.dwt
        import wavets.tokenizer

        original = wavets.dwt.decompose
        tracer = Tracer()
        patched = tracer.patch_function("wavets.dwt", "decompose", "dwt.decompose")
        try:
            assert patched >= 4  # dwt, tokenizer, cli and the package itself
            for module in (wavets, wavets.cli, wavets.dwt, wavets.tokenizer):
                assert module.decompose is not original
            wavets.tokenizer.decompose(np.arange(8.0), wavets.get_family("haar"), 1)
            assert tracer.names == ["dwt.decompose"]
        finally:
            tracer.restore()
        for module in (wavets, wavets.cli, wavets.dwt, wavets.tokenizer):
            assert module.decompose is original


@pytest.mark.parametrize("n, has_p50, has_p80", [
    (0, False, False), (19, False, False), (20, True, False), (49, True, False),
    (50, True, True), (64, True, True),
])
def test_tail_percentiles_keep_ten_samples_beyond(n, has_p50, has_p80):
    p50, p80 = tail_percentiles(np.arange(1.0, n + 1.0))
    assert (p50 > 0, p80 > 0) == (has_p50, has_p80)


class TestFailures:
    def test_counts_error_lines_and_failed_cells_only(self):
        stderr = (
            "error: series 'a': cannot scale a window with no observed values\n"
            "UserWarning: unknown frequency tag\n"
            "cell 0123abcd ({'family': 'haar'}): FAILED: no usable windows\n"
            "  error: indented lines are not reports\n"
            "error: series 'b': boom\n"
        )
        assert count_failures(stderr) == 3
        assert count_failures("") == 0

    def test_failed_share(self):
        assert failed_share(0, 10) == 0.0
        assert failed_share(3, 12) == 0.25
        with pytest.raises(ValueError):
            failed_share(0, 0)


class TestGapInjection:
    def series(self, n=400, length=576):
        return [np.arange(length, dtype=np.float64) + i for i in range(n)]

    def test_repeatable_under_fixed_seed(self):
        a = inject_gaps(self.series(), seed=7)
        b = inject_gaps(self.series(), seed=7)
        assert all(np.array_equal(np.isnan(x), np.isnan(y)) for x, y in zip(a, b))
        c = inject_gaps(self.series(), seed=8)
        assert any(not np.array_equal(np.isnan(x), np.isnan(y)) for x, y in zip(a, c))

    def test_about_half_gappy_and_inputs_untouched(self):
        source = self.series()
        out = inject_gaps(source, seed=3)
        gappy = sum(np.isnan(v).any() for v in out)
        assert 0.4 < gappy / len(out) < 0.6
        assert not any(np.isnan(v).any() for v in source)
        for before, after in zip(source, out):
            observed = ~np.isnan(after)
            assert np.array_equal(before[observed], after[observed])

    def test_no_horizon_is_entirely_missing(self):
        for seed in range(5):
            for values in inject_gaps(self.series(), seed=seed):
                assert np.isfinite(values[-64:]).any()
                assert np.isfinite(values[:-64]).any()
