"""Span recording: nesting, sinks, no-op mode, lazy attrs, carriers."""

import json
import os
import sys
import threading
import time

import pytest

from repro.obs.trace import (
    activate_carrier,
    carrier_from_header,
    carrier_to_header,
    current_carrier,
    trace_sink,
    trace_span,
    tracing,
    tracing_enabled,
)


def _read_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestSpanRecording:
    def test_nested_spans_share_trace_and_chain_parents(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("outer", kind="test"):
                with trace_span("inner"):
                    pass
        spans = {span["name"]: span for span in _read_spans(sink)}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"]["trace_id"] == spans["outer"]["trace_id"]
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        assert spans["outer"]["wall_s"] >= spans["inner"]["wall_s"] >= 0.0
        assert spans["outer"]["attrs"] == {"kind": "test"}

    def test_sibling_spans_get_distinct_ids(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("root"):
                with trace_span("child"):
                    pass
                with trace_span("child"):
                    pass
        spans = _read_spans(sink)
        assert len({span["span_id"] for span in spans}) == 3
        assert len({span["trace_id"] for span in spans}) == 1

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with pytest.raises(ValueError):
                with trace_span("failing"):
                    raise ValueError("boom")
        (span,) = _read_spans(sink)
        assert span["error"] == "ValueError: boom"

    def test_span_set_attaches_mid_block_attrs(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("spanned") as span:
                span.set("result", 42)
        (span,) = _read_spans(sink)
        assert span["attrs"]["result"] == 42

    def test_unserializable_attrs_do_not_lose_the_span(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("odd", payload=object()):
                pass
        (span,) = _read_spans(sink)
        assert span["name"] == "odd"  # default=str rendered the attr


class TestDisabledMode:
    def test_disabled_records_nothing_and_skips_lazy_attrs(self, tmp_path):
        def explode():
            raise AssertionError("lazy attr evaluated while tracing is off")

        assert not tracing_enabled()
        with trace_span("invisible", expensive=explode) as span:
            span.set("ignored", 1)
        assert span.trace_id is None
        assert current_carrier() is None

    def test_lazy_attrs_evaluate_only_at_record_time(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        calls = []
        with tracing(sink):
            with trace_span("lazy", value=lambda: calls.append(1) or "computed"):
                assert calls == []  # not yet rendered
        (span,) = _read_spans(sink)
        assert span["attrs"]["value"] == "computed"
        assert calls == [1]

    def test_failing_lazy_attr_renders_placeholder(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("lazy", bad=lambda: 1 / 0):
                pass
        (span,) = _read_spans(sink)
        assert span["attrs"]["bad"] == "<error>"

    def test_tracing_scope_restores_previous_sink(self, tmp_path):
        outer = str(tmp_path / "outer.jsonl")
        inner = str(tmp_path / "inner.jsonl")
        with tracing(outer):
            with tracing(inner):
                assert trace_sink() == os.path.abspath(inner)
            assert trace_sink() == os.path.abspath(outer)
        assert trace_sink() is None


class TestCarriers:
    def test_carrier_names_open_span_and_sink(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("root") as span:
                carrier = current_carrier()
        assert carrier["trace_id"] == span.trace_id
        assert carrier["span_id"] == span.span_id
        assert carrier["sink"] == os.path.abspath(sink)

    def test_activate_carrier_joins_the_remote_trace(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("sender") as sender:
                carrier = current_carrier()
        # Receiving side: no sink configured, context comes from the carrier.
        with activate_carrier(carrier):
            with trace_span("receiver"):
                pass
        assert trace_sink() is None  # restored after the block
        spans = {span["name"]: span for span in _read_spans(sink)}
        assert spans["receiver"]["trace_id"] == sender.trace_id
        assert spans["receiver"]["parent_id"] == sender.span_id

    def test_adopted_sink_outlives_the_first_thread_to_exit(self, tmp_path):
        """Two threads adopt one carrier; the adopter exits first.

        The second thread's span must still reach the sink, and the sink
        is cleared only once both blocks have exited.
        """
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("sender") as sender:
                carrier = current_carrier()
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        errors: list[BaseException] = []

        def first():
            try:
                with activate_carrier(carrier):
                    first_in.set()
                    assert second_in.wait(10)
                    with trace_span("first"):
                        pass
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)
            finally:
                first_out.set()

        def second():
            try:
                assert first_in.wait(10)
                with activate_carrier(carrier):
                    second_in.set()
                    assert first_out.wait(10)
                    assert trace_sink() == os.path.abspath(sink)
                    with trace_span("second"):
                        pass
            except BaseException as exc:
                errors.append(exc)
            finally:
                second_in.set()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert not errors, errors
        assert trace_sink() is None
        spans = {span["name"]: span for span in _read_spans(sink)}
        assert {"first", "second"} <= set(spans)
        for name in ("first", "second"):
            assert spans[name]["trace_id"] == sender.trace_id
            assert spans[name]["parent_id"] == sender.span_id

    def test_adopted_sink_under_thread_churn(self, tmp_path):
        """Many threads entering and leaving one carrier lose no span."""
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("sender"):
                carrier = current_carrier()
        n_threads, n_rounds = 8, 25
        start = threading.Barrier(n_threads)

        def worker(index):
            start.wait(10)
            for round_ in range(n_rounds):
                with activate_carrier(carrier):
                    time.sleep(0.0005)  # let other threads enter and leave
                    with trace_span(f"w{index}-{round_}"):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,)) for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert trace_sink() is None
        names = {span["name"] for span in _read_spans(sink)} - {"sender"}
        assert len(names) == n_threads * n_rounds

    def test_activate_tolerates_none_and_garbage(self):
        for carrier in (None, {}, {"trace_id": "x"}, "junk", 17):
            with activate_carrier(carrier):
                assert current_carrier() is None

    def test_header_round_trip(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with trace_span("root"):
                carrier = current_carrier()
        header = carrier_to_header(carrier)
        assert carrier_from_header(header) == carrier

    def test_malformed_headers_decode_to_none(self):
        for value in (None, "", "not json", "[1,2]", '{"trace_id": ""}'):
            assert carrier_from_header(value) is None
