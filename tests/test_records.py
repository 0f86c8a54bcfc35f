"""Semantics of the record types: what equality, hashing, assignment,
keyword construction and pickling do on each of them."""

import pickle

import pytest

from whitewhale import analytics, comb, engine, lp


def _vertex(certificate=None):
    return comb.CanonicalVertex(3, (0, 1, 2), 12, certificate)


def _layer(**counts):
    return engine.LayerRecord(3, 2, (_vertex((1, 2, 3)),), **counts)


# name -> (make a record, make one that differs only in fields equality ignores,
#          make one that differs in a compared field)
RECORDS = {
    "CanonicalVertex": (
        lambda: _vertex((-1, 2, 3)),
        lambda: _vertex(),
        lambda: comb.CanonicalVertex(3, (0, 1, 2), 6),
    ),
    "LayerRecord": (
        lambda: _layer(candidates=5, lp_calls=4, by_simplex=1, pushed=2, seconds=0.5),
        lambda: engine.LayerRecord(3, 2, (_vertex(),)),
        lambda: engine.LayerRecord(3, 2, ()),
    ),
    "RunConfig": (
        lambda: engine.RunConfig(5),
        lambda: engine.RunConfig(d=5, max_layer=15, worker_count=1),
        lambda: engine.RunConfig(5, worker_count=2),
    ),
    "FeasibilityResult": (
        lambda: lp.FeasibilityResult(True, (1, -2)),
        lambda: lp.FeasibilityResult(feasible=True, certificate=(1, -2), by_simplex=True),
        lambda: lp.FeasibilityResult(True, (1, -2), by_simplex=False),
    ),
    "DegreeRecord": (
        lambda: analytics.DegreeRecord(_vertex((1, 2, 3)), 1, 2),
        lambda: analytics.DegreeRecord(canonical=_vertex(), deg_below=1, deg_above=2),
        lambda: analytics.DegreeRecord(_vertex(), 2, 1),
    ),
    "PushSource": (
        lambda: lp.push_source((-3, 1, 2), 1, 3),
        lambda: lp.push_source((-3, 1, 2), 1, 3),
        lambda: lp.push_source((-3, 1, 3), 1, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash_ignore_the_uncompared_fields(name):
    make, alike, other = RECORDS[name]
    a, b, c = make(), alike(), other()
    assert a == b and not a != b
    assert a != c and not a == c
    assert hash(a) == hash(b)
    assert {a, b, c} == {a, c}


def test_uncompared_fields_are_kept():
    assert _vertex((-1, 2, 3)).certificate == (-1, 2, 3)
    layer = _layer(candidates=5, lp_calls=4, by_simplex=1, pushed=2, seconds=0.5)
    assert (layer.candidates, layer.lp_calls, layer.by_simplex, layer.pushed) == (5, 4, 1, 2)
    assert layer.seconds == 0.5
    assert _layer().candidates == 0 and _layer().seconds == 0.0
    assert _layer().orbit_sum == 12


@pytest.mark.parametrize(
    "name", ["CanonicalVertex", "LayerRecord", "RunConfig", "FeasibilityResult", "DegreeRecord"]
)
def test_a_record_equals_only_its_own_type(name):
    a = RECORDS[name][0]()
    assert a != tuple(a) and not a == tuple(a)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip(name):
    record = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record
    assert tuple(back) == tuple(record)  # the uncompared fields too


def test_pickle_keeps_the_certificate():
    back = pickle.loads(pickle.dumps(_layer()))
    assert back.entries[0].certificate == (1, 2, 3)
    assert pickle.loads(pickle.dumps(lp.vertex_feasible(0b101, 3))).certificate is not None


def test_keyword_construction():
    v = comb.CanonicalVertex(subset=3, point=(0, 1, 2), orbit_size=12, certificate=(1, 2, 3))
    assert (v.subset, v.point, v.orbit_size, v.certificate) == (3, (0, 1, 2), 12, (1, 2, 3))
    layer = engine.LayerRecord(d=3, k=2, entries=(v,), pushed=1)
    assert (layer.d, layer.k, layer.entries, layer.pushed) == (3, 2, (v,), 1)
    assert lp.FeasibilityResult(feasible=False).certificate is None
    assert analytics.DegreeRecord(canonical=v, deg_below=1, deg_above=2).degree == 3


def test_run_config_defaults_and_checks():
    cfg = engine.RunConfig(6)
    assert (cfg.d, cfg.max_layer, cfg.worker_count) == (6, 31, 1)
    assert engine.RunConfig(6, max_layer=0).max_layer == 0
    for args in [(1,), (17,), (3, 4), (3, -1), (3, None, 0)]:
        with pytest.raises(ValueError):
            engine.RunConfig(*args)
