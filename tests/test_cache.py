"""The orbit cache, driven only through THERMOSHIFT_CACHE."""

import json
import os

import pytest

import thermoshift.cache as cache
from thermoshift import ResourceLimitError, Sft, cached_elementary_orbits, elementary_orbits, get_shift
from thermoshift.cache import CACHE_ENV, atomic_write_text
from thermoshift.cli import main

# full2's entry at k = 1, as schema 2 names and writes it, and as schema 1,
# which held no count, wrote it
FULL2_K1_NAME = "orbits-43eaa739d78ad1ae0c1a6eaa-k1.json"
FULL2_K1 = ('{"count":3,"digest":"43eaa739d78ad1ae0c1a6eaa1b432a78281844effa0e7dfee47810f48ea8db46",'
            '"k":1,"orbits":[[0],[1],[0,1]],"schema":2}')
FULL2_K1_SCHEMA_1 = ('{"digest":"43eaa739d78ad1ae0c1a6eaa1b432a78281844effa0e7dfee47810f48ea8db46",'
                     '"k":1,"orbits":[[0],[1],[0,1]],"schema":1}')


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    return tmp_path


def _forbid(monkeypatch, *names):
    """Makes each named function of the cache module fail: a hit calls none."""
    def fail(*args):
        raise AssertionError("a cache hit enumerated or wrote")
    for name in names:
        monkeypatch.setattr(cache, name, fail)


def _entries(directory):
    return sorted(p.name for p in directory.iterdir())


def _entry(directory):
    (path,) = directory.glob("orbits-*.json")
    return path


def test_round_trip_is_byte_identical(cache_dir, monkeypatch):
    sft = Sft.full(3)
    first = cached_elementary_orbits(sft, 2)
    assert first == elementary_orbits(sft, 2)
    path = _entry(cache_dir)
    blob = path.read_bytes()
    _forbid(monkeypatch, "elementary_orbits", "atomic_write_text")
    assert cached_elementary_orbits(sft, 2) == first
    assert path.read_bytes() == blob


def test_full2_entry_bytes_are_pinned(cache_dir):
    sft = get_shift("full2")
    cached_elementary_orbits(sft, 1)
    assert _entries(cache_dir) == [FULL2_K1_NAME]
    assert (cache_dir / FULL2_K1_NAME).read_text() == FULL2_K1


def test_pinned_entry_is_a_hit(cache_dir, monkeypatch):
    (cache_dir / FULL2_K1_NAME).write_text(FULL2_K1)
    _forbid(monkeypatch, "elementary_orbits", "atomic_write_text")
    sft = get_shift("full2")
    assert cached_elementary_orbits(sft, 1) == elementary_orbits(sft, 1)


def test_a_schema_1_entry_is_rewritten(cache_dir):
    (cache_dir / FULL2_K1_NAME).write_text(FULL2_K1_SCHEMA_1)
    sft = get_shift("full2")
    with pytest.warns(RuntimeWarning, match="unsupported cache schema"):
        assert cached_elementary_orbits(sft, 1) == elementary_orbits(sft, 1)
    assert (cache_dir / FULL2_K1_NAME).read_text() == FULL2_K1


def test_a_truncated_entry_is_no_hit(cache_dir, capsys):
    # an entry cut to its first orbit still reads as orbits of the shift:
    # only its count tells it from a census of one orbit
    argv = ["orbits", "--shift", "golden", "--k", "2"]
    assert main(argv) == 0
    census = json.loads(capsys.readouterr().out)["payload"]
    assert census["count"] == 3
    path = _entry(cache_dir)
    blob = path.read_bytes()
    for count in (3, 2, "1", None):
        entry = json.loads(blob)
        entry["orbits"] = [[0]]
        if count is None:
            del entry["count"]
        else:
            entry["count"] = count
        path.write_text(json.dumps(entry))
        with pytest.warns(RuntimeWarning, match="corrupt orbit cache.*count"):
            assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["payload"] == census
        assert path.read_bytes() == blob


def test_corrupt_entry_recomputes_and_repairs(cache_dir):
    sft = Sft.full(2)
    good = cached_elementary_orbits(sft, 2)
    path = _entry(cache_dir)
    blob = path.read_bytes()
    for text in ('{"schema": 1, "digest": "feed", "k": 2, "orbits": []}',
                 "not json at all", "[1]"):
        path.write_text(text)
        with pytest.warns(RuntimeWarning, match="corrupt orbit cache.*recomputing"):
            assert cached_elementary_orbits(sft, 2) == good
        assert path.read_bytes() == blob


@pytest.mark.parametrize("k, orbits", [(2, [5]), (2, None), (2, [[]]), (2, []), (2, [[0, 7]]),
                                        (2, [["a"]]), (2, "xx"), (1, [[0], [1]])],
                         ids=["int", "null", "empty-orbit", "empty-list", "bad-symbol",
                              "string-symbol", "string", "forbidden-step"])
def test_malformed_orbits_are_repaired_by_the_cli(cache_dir, capsys, k, orbits):
    argv = ["orbits", "--shift", "golden", "--k", str(k)]
    assert main(argv) == 0
    census = json.loads(capsys.readouterr().out)["payload"]
    path = _entry(cache_dir)
    blob = path.read_bytes()
    entry = json.loads(blob)
    entry["orbits"] = orbits
    path.write_text(json.dumps(entry))
    with pytest.warns(RuntimeWarning, match="corrupt orbit cache"):
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["payload"] == census
    assert path.read_bytes() == blob


def test_disabled_cache_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    for off in ("", "0", "off", "none", " OFF ", "None"):
        monkeypatch.setenv(CACHE_ENV, off)
        assert cached_elementary_orbits(Sft.full(2), 2) == elementary_orbits(Sft.full(2), 2)
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_resolution(tmp_path, monkeypatch):
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "sub"))
    cached_elementary_orbits(get_shift("full2"), 1)
    assert _entries(tmp_path / "sub") == [FULL2_K1_NAME]
    assert not home.exists()
    monkeypatch.delenv(CACHE_ENV)
    cached_elementary_orbits(get_shift("full2"), 1)
    assert _entries(home / ".cache" / "thermoshift") == [FULL2_K1_NAME]


def test_cached_entry_still_respects_cap(cache_dir, monkeypatch):
    sft = Sft.full(3)
    cached_elementary_orbits(sft, 2)
    monkeypatch.setattr(cache, "DEFAULT_ORBIT_CAP", 10)
    with pytest.raises(ResourceLimitError, match="over cap 10"):
        cached_elementary_orbits(sft, 2)


def test_digest_depends_on_matrix(cache_dir):
    cached_elementary_orbits(Sft.full(2), 2)
    cached_elementary_orbits(Sft.full(3), 2)
    cached_elementary_orbits(Sft.full(2), 2)
    names = _entries(cache_dir)
    assert len(names) == 2
    assert {json.loads((cache_dir / n).read_text())["digest"][:24] for n in names} \
        == {n[len("orbits-"):-len("-k2.json")] for n in names}


def test_atomic_write_leaves_no_droppings(tmp_path):
    target = tmp_path / "deep" / "entry.json"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    atomic_write_text(target, "replaced")
    assert target.read_text() == "replaced"
    assert os.listdir(target.parent) == ["entry.json"]
