import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from epimc.evaluate import Model, evaluate, make_valuation, verify_manifest
from epimc.formulas import parse
from epimc.runs import ModelError, Point
from epimc.views import ViewPolicy
from epimc.scenarios import coordinated_attack, timestamped_demo
from epimc.serialize import (
    SchemaError,
    dump_json,
    dump_manifest,
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    model_from_dict,
    model_to_dict,
    parse_point,
    system_from_dict,
    system_to_dict,
)
from tests.helpers import clock_variants, random_system, random_valuation


def test_system_round_trip_preserves_content():
    system = coordinated_attack(3, 4).model.system
    redone = system_from_dict(load_json(dump_json(system_to_dict(system))))
    assert [r.content_key() for r in redone.runs] == [r.content_key() for r in system.runs]
    assert redone.horizon == system.horizon and redone.n_agents == system.n_agents


def test_random_models_round_trip_to_the_same_history_table():
    rng = random.Random(509)
    for _ in range(40):
        system = clock_variants(random_system(rng))
        model = Model(system, random_valuation(rng, system), ViewPolicy.complete_history())
        loaded = model_from_dict(load_json(dump_json(model_to_dict(model))))
        assert [r.content_key() for r in loaded.system.runs] == [
            r.content_key() for r in system.runs
        ]
        assert dict(loaded.valuation.truth) == dict(model.valuation.truth)
        for mine, theirs in zip(system.history_table, loaded.system.history_table):
            assert theirs.ids == mine.ids
            assert theirs.distinct == mine.distinct


def test_clocked_system_round_trip():
    system = timestamped_demo(1, 1).model.system
    redone = system_from_dict(system_to_dict(system))
    assert [r.clock for r in redone.runs] == [r.clock for r in system.runs]


def test_model_round_trip_evaluates_identically():
    model = coordinated_attack(2, 3).model
    redone = model_from_dict(model_to_dict(model))
    for text in ("C{0,1} both_attack", "K1 sent_1", "Ev{0,1} prefav"):
        assert evaluate(redone, parse(text)) == evaluate(model, parse(text))


def test_manifest_round_trip_verifies():
    manifest = coordinated_attack(2, 3)
    redone = manifest_from_dict(load_json(dump_json(manifest_to_dict(manifest))))
    assert redone.name == manifest.name
    assert redone.expectations == manifest.expectations
    assert not verify_manifest(redone)


def test_dump_is_deterministic():
    manifest = timestamped_demo(1, 1)
    assert dump_json(manifest_to_dict(manifest)) == dump_json(manifest_to_dict(manifest))


def test_point_syntax():
    assert parse_point("c0:hs1>1@2@3") == Point("c0:hs1>1@2", 3)
    with pytest.raises(SchemaError):
        parse_point("no-time-here")


def test_schema_errors_name_the_field():
    with pytest.raises(SchemaError) as err:
        system_from_dict({"schema": 1, "agents": 2, "runs": []})
    assert "horizon" in str(err.value)
    with pytest.raises(SchemaError) as err:
        system_from_dict({"schema": 99, "agents": 2, "horizon": 1, "runs": []})
    assert "schema" in str(err.value)
    with pytest.raises(SchemaError) as err:
        system_from_dict(
            {
                "schema": 1,
                "agents": 1,
                "horizon": 1,
                "runs": [{"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"},
                          "events": [{"time": 0, "agent": 0, "kind": "zap",
                                      "peer": 0, "message": "m"}]}],
            }
        )
    assert "kind" in str(err.value)


_RUN = {"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"}}
_EVENT = {"time": 0, "agent": 0, "kind": "send", "peer": 0, "message": "m"}


def _run(**changes):
    """A ``runs`` entry replacing fields of the one-run document below."""
    return {"runs": [dict(_RUN, **changes)]}


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"horizon": -1}, "system.horizon"),
        ({"agents": -2}, "system.agents"),
        ({"agents": "two"}, "system.agents"),
        ({"horizon": 1.5}, "system.horizon"),
        ({"horizon": True}, "system.horizon"),
        ({"valuation": {"p": [["r", "x"]]}}, "system.valuation.p[0]"),
        ({"valuation": {"p": [["r", 0], ["zz", 9]]}}, "system.valuation.p[1]"),
        ({"valuation": {"q": [["r", 2]]}}, "system.valuation.q[0]"),
        ({"valuation": {"q": [["r", -1]]}}, "system.valuation.q[0]"),
        (_run(wake_up={"0": "x"}), "system.runs[0].wake_up.0"),
        (_run(wake_up={"0": 0.0}), "system.runs[0].wake_up.0"),
        (_run(wake_up=[0]), "system.runs[0].wake_up"),
        (_run(wake_up={"0": 2}), "system.runs[0].wake_up.0"),
        (_run(wake_up={"0": -1}), "system.runs[0].wake_up.0"),
        (_run(events=[dict(_EVENT, time="a")]), "system.runs[0].events[0].time"),
        (_run(events=[dict(_EVENT, time=2)]), "system.runs[0].events[0].time"),
        (_run(events=[dict(_EVENT, agent=True)]), "system.runs[0].events[0].agent"),
        (_run(events=[dict(_EVENT, peer="0")]), "system.runs[0].events[0].peer"),
        (_run(events=[5]), "system.runs[0].events[0]"),
        (_run(clock={"0": [0, "1"]}), "system.runs[0].clock.0[1]"),
        (_run(clock={"0": 5}), "system.runs[0].clock.0"),
        ({"runs": [5]}, "system.runs[0]"),
        ({"valuation": [1]}, "system.valuation"),
        ({"valuation": {"p": 5}}, "system.valuation.p"),
        # an unknown agent is reported only when every field is well formed
        (_run(events=[dict(_EVENT, agent=5), dict(_EVENT, time="a")]),
         "system.runs[0].events[1].time"),
        (_run(events=[dict(_EVENT, agent=5)], clock={"0": [0, "1"]}),
         "system.runs[0].clock.0[1]"),
    ],
)
def test_bad_numbers_and_foreign_points_are_schema_errors(changes, field):
    doc = {
        "schema": 1,
        "agents": 1,
        "horizon": 1,
        "runs": [{"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"}}],
    }
    model_from_dict(doc)
    with pytest.raises(SchemaError) as err:
        model_from_dict(dict(doc, **changes))
    assert str(err.value).startswith(field + ":")


@pytest.mark.parametrize(
    "change, field",
    [
        ({"point": "zz@9", "expected": False}, "manifest.expectations[0].point"),
        ({"point": "c1@99"}, "manifest.expectations[0].point"),
        ({"point": 3}, "manifest.expectations[0].point"),
        ({"point": "bogus"}, "manifest.expectations[0].point"),
        ({"expected": "false"}, "manifest.expectations[0].expected"),
    ],
)
def test_manifest_expectations_are_checked_against_the_system(change, field):
    doc = manifest_to_dict(coordinated_attack(2, 3))
    doc["expectations"] = [dict(doc["expectations"][0], **change)]
    with pytest.raises(SchemaError) as err:
        manifest_from_dict(doc)
    assert str(err.value).startswith(field + ":")


def test_in_process_valuations_ignore_points_outside_the_system():
    # r@2 and r@-1 have slot arithmetic ids of s@0 and of a bit outside
    # the system; neither may land on a point
    system = model_from_dict(
        {"schema": 1, "agents": 1, "horizon": 1,
         "runs": [{"id": rid, "wake_up": {"0": 0}, "initial_state": {"0": "s"}}
                  for rid in ("r", "s")]}
    ).system
    valuation = make_valuation(
        {"p": [Point("r", 1), Point("zz", 9), Point("r", 2), Point("r", -1)]}
    )
    model = Model(system, valuation, ViewPolicy.complete_history())
    assert evaluate(model, parse("p")) == {Point("r", 1)}


@pytest.mark.parametrize("parameters", [[1], "ab", 3])
def test_manifest_parameters_must_be_an_object(parameters):
    doc = manifest_to_dict(coordinated_attack(2, 3))
    doc["parameters"] = parameters
    with pytest.raises(SchemaError) as err:
        manifest_from_dict(doc)
    assert str(err.value).startswith("manifest.parameters:")


def test_load_json_rejects_deep_nesting():
    with pytest.raises(SchemaError, match="not valid JSON: nested too deeply"):
        load_json("[" * 100_000)


# Strings that look like the emitter's joints, to catch a join that
# splits inside a string.
_TEXT = st.text() | st.sampled_from(["\n", "},\n    {", "],\n      [", "\u00e9\x00\u2028"])
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
_KEY = st.text(max_size=3) | st.sampled_from(["system", "a", "b"])
# lists of non-empty flat containers, which the emitter writes in one call
_ROWS = st.lists(
    st.dictionaries(_KEY, _SCALAR, min_size=1, max_size=3)
    | st.lists(_SCALAR, min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)
_JSON = st.recursive(
    _SCALAR | _ROWS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEY, inner, max_size=4),
    max_leaves=12,
)


def _indented(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(_JSON)
def test_dump_json_matches_the_indented_stdlib_encoder(value):
    assert dump_json(value) == _indented(value)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(_KEY, _JSON, max_size=4), _JSON)
def test_dump_manifest_writes_the_system_once_into_the_manifest(doc, system):
    doc["system"] = system
    assert dump_manifest(doc) == (_indented(doc), _indented(system))


def test_load_json_rejects_non_objects():
    with pytest.raises(SchemaError):
        load_json("[1, 2]")
    with pytest.raises(SchemaError):
        load_json("{nope")


def test_short_clock_table_is_reported_before_any_stamp_is_read():
    doc = {"schema": 1, "agents": 1, "horizon": 1,
           "runs": [dict(_RUN, clock={"0": [0]}, events=[dict(_EVENT, time=1)])]}
    with pytest.raises(ModelError) as err:
        system_from_dict(doc)
    assert "clock table has 1 entries, expected 2" in str(err.value)
