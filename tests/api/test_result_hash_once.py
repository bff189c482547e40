"""A ResultSet hashes its data once; every load still verifies its own."""

import repro.api.results as results
from repro.api import ResultSet


def test_hash_is_computed_once_and_every_load_verifies(monkeypatch):
    calls = []
    real = results.content_hash

    def counting(records):
        calls.append(len(records))
        return real(records)

    monkeypatch.setattr(results, "content_hash", counting)
    rs = ResultSet.from_records([{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}])
    digest = rs.content_hash
    text = rs.to_json()
    assert rs.content_hash == digest
    assert len(calls) == 1

    loaded = ResultSet.from_json(text)  # hashes the loaded data to verify it
    assert len(calls) == 2
    assert loaded.content_hash == digest
    assert len(calls) == 2

    rs.meta["note"] = "meta is not hashed"
    assert rs.content_hash == digest
    assert rs.filter(a=1).content_hash != digest
