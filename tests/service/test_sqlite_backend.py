"""End-to-end: the HTTP service executing against a SqliteStore backend.

The acceptance bar for the sqlite backend: a sweep submitted over HTTP,
executed by a daemon whose result store is a ``SqliteStore`` (resolved from
the ``sqlite:///`` CLI spelling), fetched back through the client, is
content-hash identical to a serial ``Engine(cache_dir=...)`` run of the same
spec -- and the sqlite catalog afterwards answers ``repro query`` over the
sweep's stored parameters.
"""

import threading

import pytest

from repro.api import Engine, SweepSpec
from repro.api.query import parse_predicate, query_entries
from repro.dist import SqliteStore, resolve_store
from repro.service import ServiceClient, make_server, serve_queue

SPEC = SweepSpec.grid(length_um=[1.0, 10.0])


@pytest.fixture()
def service(tmp_path):
    """A live server + client + a sqlite-backed result store."""
    server = make_server(str(tmp_path / "queue"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    store = resolve_store("sqlite:///" + str(tmp_path / "results.db"))
    try:
        yield {
            "server": server,
            "client": ServiceClient(server.url),
            "queue": server.queue,
            "store": store,
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestSqliteBackedService:
    def test_fetched_sweep_matches_serial_local_run(self, service):
        assert isinstance(service["store"], SqliteStore)
        client = service["client"]
        job_id = client.submit_sweep("table_density", SPEC)
        report = serve_queue(service["queue"], service["store"], drain=True)
        assert report.ok

        status = client.wait(job_id, timeout=30.0)
        assert status["state"] == "done"
        fetched = client.fetch_results(job_id)
        serial = Engine().sweep("table_density", SPEC)
        assert fetched == serial
        assert fetched.content_hash == serial.content_hash
        assert status["content_hash"] == serial.content_hash

    def test_store_is_queryable_after_the_sweep(self, service):
        client = service["client"]
        job_id = client.submit_sweep("table_density", SPEC)
        serve_queue(service["queue"], service["store"], drain=True)
        client.wait(job_id, timeout=30.0)

        entries = query_entries(
            service["store"],
            experiment="table_density",
            where=[parse_predicate("length_um>5")],
        )
        assert len(entries) == 1
        assert entries[0].params["length_um"] == 10.0
        assert len(query_entries(service["store"], experiment="table_density")) == 2

    def test_second_drain_is_all_cache_hits(self, service):
        client = service["client"]
        first = client.submit_sweep("table_density", SPEC)
        serve_queue(service["queue"], service["store"], drain=True)
        client.wait(first, timeout=30.0)
        before = {entry.path: entry.mtime for entry in service["store"].entries()}

        second = client.submit_sweep("table_density", SPEC)
        serve_queue(service["queue"], service["store"], drain=True)
        status = client.wait(second, timeout=30.0)
        assert status["state"] == "done"
        after = {entry.path: entry.mtime for entry in service["store"].entries()}
        assert after == before  # nothing re-executed: rows untouched
