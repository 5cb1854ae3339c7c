import io
import itertools
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from epimc.semantics import (
    Expectation,
    Model,
    ScenarioManifest,
    evaluate,
    make_valuation,
    verify_manifest,
)
from epimc.formulas import parse
from epimc.runs import ModelError, Point, make_run, make_system, validate_system
from epimc.views import ViewPolicy
from epimc.scenarios import (
    broadcast_channel,
    coordinated_attack,
    muddy_children,
    timestamped_demo,
)
from epimc.cli import CliError, _read
from epimc import jsontext
from epimc.jsontext import _BATCH, write_json
from epimc.writer import _manifest_doc, _write_split
from epimc.serialize import (
    SchemaError,
    dump_json,
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    model_from_dict,
    model_to_dict,
    parse_point,
    system_from_dict,
    system_to_dict,
    valuation_to_dict,
    write_manifest,
)
from tests.helpers import (
    clock_variants,
    random_model,
    random_policy,
    random_system,
    random_valuation,
)


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
        assert dict(loaded.valuation.masks) == dict(model.valuation.masks)
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
    with pytest.raises(SchemaError):
        parse_point("d111111@\u00b2")  # a digit to str.isdigit, not to int


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
        (_run(clock={"0": [0]}), "system.runs[0].clock.0"),
        (_run(events=[dict(_EVENT, agent=5)]), "system.runs[0].events[0].agent"),
        ({"runs": [_RUN, _RUN]}, "system.runs[1].id"),
        ({"policy": "nope"}, "system.policy"),
        ({"policy": []}, "system.policy"),
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
        ({"point": "c1@\u00b2"}, "manifest.expectations[0].point"),
        ({"formula": 5}, "manifest.expectations[0].formula"),
    ],
)
def test_manifest_expectations_are_checked_against_the_system(change, field):
    doc = manifest_to_dict(coordinated_attack(2, 3))
    doc["expectations"] = [dict(doc["expectations"][0], **change)]
    with pytest.raises(SchemaError) as err:
        manifest_from_dict(doc)
    assert str(err.value).startswith(field + ":")


_SEND = {"time": 0, "agent": 0, "kind": "send", "peer": 1, "message": "m"}
_RECEIVE = {"time": 1, "agent": 1, "kind": "receive", "peer": 0, "message": "m"}


@pytest.mark.parametrize(
    "events, changes, field",
    [
        ([_SEND, _RECEIVE, dict(_RECEIVE, message="ghost")], {}, "system.runs[1].events[2]"),
        ([dict(_SEND, time=2), _RECEIVE], {}, "system.runs[1].events[1]"),
        ([_SEND, dict(_RECEIVE, time=0)], {"wake_up": {"0": 0, "1": 1}},
         "system.runs[1].events[1]"),
        ([_SEND, _RECEIVE, dict(_SEND, peer=2)], {}, "system.runs[1].events[2].peer"),
        ([dict(_SEND, peer=-1), _RECEIVE], {}, "system.runs[1].events[0].peer"),
        ([_SEND, _RECEIVE], {"clock": {"0": [0, 2, 1], "1": [0, 1, 2]}},
         "system.runs[1].clock.0[2]"),
        # a bad type or range is reported before any consistency problem
        ([dict(_RECEIVE, message="ghost"), dict(_SEND, time="a")], {},
         "system.runs[1].events[1].time"),
    ],
    ids=["unmatched", "before-send", "before-wake", "peer", "negative-peer", "clock",
         "type-first"],
)
def test_inconsistent_runs_are_schema_errors(events, changes, field):
    good = {"id": "a", "wake_up": {"0": 0, "1": 0}, "initial_state": {"0": "s", "1": "t"},
            "events": [_SEND, _RECEIVE]}
    doc = {"schema": 1, "agents": 2, "horizon": 2, "runs": [good, dict(good, id="b")]}
    model_from_dict(doc)
    doc["runs"][1] = dict(good, id="b", events=events, **changes)
    with pytest.raises(SchemaError) as err:
        model_from_dict(doc)
    assert str(err.value).startswith(field + ":")


def _mutants(rng: random.Random, doc: dict):
    """(run index, copy of ``doc`` with one mutation of that run) for each
    of: drop a send, move an event earlier, bump a peer, swap two clock
    readings; a mutation with nothing to act on is skipped."""
    for mutation in ("drop", "earlier", "peer", "clock"):
        mutant = json.loads(json.dumps(doc))
        i = rng.randrange(len(mutant["runs"]))
        run = mutant["runs"][i]
        events = run["events"]
        if mutation == "drop":
            sends = [j for j, ev in enumerate(events) if ev["kind"] == "send"]
            if not sends:
                continue
            del events[rng.choice(sends)]
        elif mutation == "earlier":
            late = [ev for ev in events if ev["time"] > 0]
            if not late:
                continue
            ev = rng.choice(late)
            ev["time"] = rng.randrange(ev["time"])
        elif mutation == "peer":
            if not events:
                continue
            rng.choice(events)["peer"] += 1
        else:
            rows = [row for row in run.get("clock", {}).values() if len(row) >= 2]
            if not rows:
                continue
            readings = rng.choice(rows)
            a, b = rng.sample(range(len(readings)), 2)
            readings[a], readings[b] = readings[b], readings[a]
        yield i, mutant


def _built_in_process(doc: dict):
    """``doc``'s system built with ``make_run`` and ``make_system``, which
    check no consistency rule."""
    n, horizon = doc["agents"], doc["horizon"]
    return make_system(n, horizon, [
        make_run(
            run["id"], horizon=horizon,
            wake_up=[run["wake_up"][str(a)] for a in range(n)],
            initial_state=[run["initial_state"][str(a)] for a in range(n)],
            events=[(e["time"], e["agent"], e["kind"], e["peer"], e["message"])
                    for e in run["events"]],
            clock=[run["clock"][str(a)] for a in range(n)] if "clock" in run else None,
        )
        for run in doc["runs"]
    ])


def test_the_loader_rejects_exactly_the_mutants_that_validate_system_flags():
    rng = random.Random(811)
    outcomes = {"loaded": 0, "rejected": 0}
    for k in range(60):
        system = random_system(rng)
        if k % 3 == 0:
            system = clock_variants(system)
        doc = system_to_dict(system)
        assert validate_system(system_from_dict(doc)) == []
        for i, mutant in _mutants(rng, doc):
            built = _built_in_process(mutant)
            try:
                loaded = system_from_dict(mutant)
            except SchemaError as exc:
                assert str(exc).startswith(f"system.runs[{i}]."), str(exc)
                assert validate_system(built) != []
                outcomes["rejected"] += 1
                continue
            assert [r.content_key() for r in loaded.runs] == [
                r.content_key() for r in built.runs
            ]
            assert validate_system(built) == []
            outcomes["loaded"] += 1
    assert min(outcomes.values()) > 20, outcomes


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
    # A valuation of a model over another system, which shares the run id
    # r: r@2 and t@0 have the dense ids there of s@0 and s@1 here
    other = make_system(1, 2, [make_run(rid, horizon=2, wake_up=[0], initial_state=["s"])
                               for rid in ("r", "t")])
    donor = Model(other, make_valuation(
        {"p": [Point("r", 1), Point("r", 2), Point("t", 0)], "q": [Point("t", 1)]}
    ), ViewPolicy.complete_history())
    reused = Model(system, donor.valuation, ViewPolicy.complete_history())
    assert evaluate(reused, parse("p")) == {Point("r", 1)}
    assert evaluate(reused, parse("q")) == frozenset()
    assert evaluate(donor, parse("p")) == {Point("r", 1), Point("r", 2), Point("t", 0)}
    assert model_to_dict(reused)["valuation"] == {"p": [["r", 1]], "q": []}


def test_a_model_naming_points_outside_its_system_round_trips():
    # the writer leaves out the points that evaluation ignores, so the
    # loader accepts what it wrote
    system = make_system(1, 1, [make_run(rid, horizon=1, wake_up=[0], initial_state=["s"])
                                for rid in ("r", "s")])
    valuation = make_valuation({
        "p": [Point("r", 1), Point("zz", 0), Point("r", 5), Point("s", -1)],
        "q": [Point("r", 2)],
    })
    model = Model(system, valuation, ViewPolicy.complete_history())
    doc = load_json(dump_json(model_to_dict(model)))
    assert doc["valuation"] == {"p": [["r", 1]], "q": []}
    loaded = model_from_dict(doc)
    for name in ("p", "q"):
        assert evaluate(loaded, parse(name)) == evaluate(model, parse(name))


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
def test_write_split_writes_the_system_once_into_the_manifest(doc, system):
    doc["system"] = system
    manifest_file, system_file = io.StringIO(), io.StringIO()
    _write_split(doc, manifest_file, system_file)
    assert (manifest_file.getvalue(), system_file.getvalue()) == (
        _indented(doc), _indented(system)
    )


def test_write_manifest_holds_neither_text_whole(tmp_path):
    # the writer streams: no file's text, nor the list of run documents,
    # is held while the two files are written; the files' own buffers are
    # made before tracing starts
    manifest = broadcast_channel(L=1, eps=1, n=4, horizon=6, clocked=True)
    manifest_path, system_path = tmp_path / "m.json", tmp_path / "s.json"
    with manifest_path.open("w") as manifest_file, system_path.open("w") as system_file:
        tracemalloc.start()
        try:
            write_manifest(manifest, manifest_file, system_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    system = system_path.read_text()
    assert manifest_path.read_text() == _indented(manifest_to_dict(manifest))
    assert system == _indented(model_to_dict(manifest.model))
    assert peak < 2 * len(system)


@pytest.mark.parametrize("length", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_dump_json_writes_lists_of_flat_containers_in_batches(length):
    # the writer encodes such a list a batch of items at a time
    dicts = [{"i": i, "s": f"\n{i}\u00e9", "z": None} for i in range(length)]
    lists = [[i, "}, {", True] for i in range(length)]
    for rows in (dicts, lists):
        for value in (rows, {"rows": rows}, [rows, rows]):
            assert dump_json(value) == _indented(value)


@pytest.mark.parametrize("length", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_dump_json_writes_an_iterator_as_the_list_of_its_items(length):
    # a batch of flat items or scalars is one encoder call, and any
    # other batch, one that mixes kinds too, is written item by item
    rows = {
        "dicts": [{"point": f'r"{i}\\\u00e9@{i}', "holds": i % 3 == 0} for i in range(length)],
        "lines": [f"{'TF'[i % 2]}  r{i}@0" for i in range(length)],
        "nested": [{"deep": [i]} for i in range(length)],
        "mixed": [i if i % 7 else {"i": i} for i in range(length)],
        "empty": [{} if i % 5 else {"i": i} for i in range(length)],
    }
    streamed = {name: iter(items) for name, items in rows.items()}
    assert dump_json(streamed) == _indented(rows)
    assert dump_json(iter(rows["dicts"])) == _indented(rows["dicts"])


@pytest.mark.parametrize("deep", [False, True], ids=["flat", "deep"])
def test_write_json_takes_a_stream_a_batch_at_a_time(deep):
    # when an item of a stream is taken, every item before its batch is
    # written, and no item after it
    written: list[str] = []

    def item(i):
        return {"i": [i] if deep else i}

    def items():
        for i in range(2 * _BATCH + 1):
            assert "".join(written).count('"i"') == i - i % _BATCH
            yield item(i)

    write_json(items(), written.append)
    assert "".join(written) == _indented([item(i) for i in range(2 * _BATCH + 1)])


def test_write_manifest_holds_no_list_of_flat_items_whole(tmp_path):
    # 1,600 expectations and the valuation's point lists are encoded a
    # batch at a time: their text is never one string, nor copied whole
    manifest = muddy_children(5, True, 5, True)
    paths = tmp_path / "m.json", tmp_path / "s.json"
    for _ in range(2):  # the first run fills the writer's caches
        with paths[0].open("w") as manifest_file, paths[1].open("w") as system_file:
            tracemalloc.start()
            try:
                write_manifest(manifest, manifest_file, system_file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert paths[0].read_text() == _indented(manifest_to_dict(manifest))
    assert peak <= 1100 * 1024


def _write_peak(manifest) -> int:
    """The traced peak of writing ``manifest`` to /dev/null, after a
    first write has filled the writer's caches."""
    for _ in range(2):
        with open(os.devnull, "w") as manifest_file, open(os.devnull, "w") as system_file:
            tracemalloc.start()
            try:
                write_manifest(manifest, manifest_file, system_file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return peak


def test_write_manifest_makes_the_expectations_objects_a_batch_at_a_time():
    # the 4,736 expectations of the bench's muddy manifest are made into
    # objects as they are written, so they cost the write no more than
    # two batches of objects, where the list of them all holds 18.5
    manifest = muddy_children(6, True, 6, True)
    objects = _manifest_doc(manifest, None)["expectations"]
    tracemalloc.start()
    try:
        batch = list(itertools.islice(objects, _BATCH))
        one_batch = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(batch) == _BATCH and len(manifest.expectations) == 4736
    bare = _write_peak(manifest._replace(expectations=()))
    assert _write_peak(manifest) <= bare + 2 * one_batch


def test_write_manifest_makes_the_valuation_entries_a_batch_at_a_time():
    # the bench broadcast model's truth sets are made into entries as they
    # are written, so they cost the write less than half of what the
    # lists of all their entries hold (1.2 times as much when those lists
    # are made first)
    manifest = broadcast_channel(1, 2, 6, 8, clocked=True)
    model = manifest.model
    tracemalloc.start()
    try:
        lists = valuation_to_dict(model.valuation)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, lists.values())) > 10_000
    del lists
    bare = manifest._replace(model=Model(model.system, make_valuation({}), model.policy))
    assert _write_peak(manifest) <= _write_peak(bare) + held / 2


# Messages the writer must escape: quotes, backslashes, control
# characters, non-ASCII text, and text that looks like its own joints.
_MESSAGE = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\n\t", "\u00e9\u2028\U0001f600", '"},\n      {', ""]
)


def _retexted(system, messages: list[str]):
    """``system`` with each distinct message replaced by one of
    ``messages``, in turn: a receive still matches its send."""
    distinct = sorted({ev.message for run in system.runs for line in run.timeline
                       for _, ev in line})
    text = {m: messages[i % len(messages)] for i, m in enumerate(distinct)}
    runs = [
        make_run(
            run.id, horizon=system.horizon, wake_up=run.wake_up,
            initial_state=run.initial_state, clock=run.clock,
            events=[(t, agent, ev.kind, ev.peer, text[ev.message])
                    for agent, line in enumerate(run.timeline) for t, ev in line],
        )
        for run in system.runs
    ]
    return make_system(system.n_agents, system.horizon, runs)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(_MESSAGE, min_size=1, max_size=5))
def test_write_manifest_matches_the_indented_stdlib_encoder(rng, messages):
    # clocked and clockless runs (clock_variants adds both), runs with no
    # events, and messages that need escaping
    shape = random_model(rng, min_agents=1, min_runs=0, max_runs=3)
    system = clock_variants(_retexted(shape.system, messages))
    system = make_system(system.n_agents, system.horizon, list(system.runs) + [
        make_run("quiet", horizon=system.horizon, wake_up=[0] * system.n_agents,
                 initial_state=messages[:1] * system.n_agents)
    ])
    model = Model(system, random_valuation(rng, system), random_policy(rng))
    manifest = ScenarioManifest(
        messages[0], {"m": messages[-1]}, model,
        (Expectation("p", None, True, messages[0]),
         Expectation("~q", system.points[-1], False)),
    )
    manifest_file, system_file = io.StringIO(), io.StringIO()
    write_manifest(manifest, manifest_file, system_file)
    doc = manifest_to_dict(manifest)
    assert manifest_file.getvalue() == _indented(doc)
    assert system_file.getvalue() == _indented(model_to_dict(model))
    fields = ("time", "agent", "kind", "peer", "message")
    for run in doc["system"]["runs"]:
        rows = [tuple(map(event.get, fields)) for event in run["events"]]
        assert rows == sorted(rows)


def test_write_manifest_encodes_each_distinct_event_once(monkeypatch):
    # Strings are encoded by json.encoder.encode_basestring_ascii, which
    # the C encoder too calls once per string when it is not the C
    # function. Four runs of 62 events name two distinct (agent, kind,
    # peer, message) values, with no valuation and no expectations.
    horizon = 30
    runs = [
        make_run(f"r{i}", horizon=horizon, wake_up=[0, 0], initial_state=["a", "b"],
                 events=[(t, a, kind, 1 - a, "m") for t in range(1, horizon + 1)
                         for a, kind in ((0, "send"), (1, "receive"))])
        for i in range(4)
    ]
    system = make_system(2, horizon, runs)
    model = Model(system, make_valuation({}), ViewPolicy.complete_history())
    manifest = ScenarioManifest("repeated", {}, model, ())
    calls = 0
    encode = json.encoder.encode_basestring_ascii

    def counted(text):
        nonlocal calls
        calls += 1
        return encode(text)

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", counted)
    manifest_file, system_file = io.StringIO(), io.StringIO()
    write_manifest(manifest, manifest_file, system_file)
    monkeypatch.undo()
    assert system_file.getvalue() == _indented(model_to_dict(model))
    distinct = 2  # each encoded once: its kind and its message
    per_run = 8  # the id, and the agents' keys and initial states
    assert calls <= 2 * distinct + per_run * len(runs) + 8


def test_write_manifest_encodes_each_distinct_table_once(monkeypatch):
    # Every string the writer encodes, key or value, goes through
    # json.encoder.encode_basestring_ascii (which the C encoder too calls
    # when it is not the C function) or jsontext's key encoder. The runs
    # share their wake-up, initial states and clock table, so each run
    # past the first costs one string, its id. The tables are the write's
    # own: a second write encodes as much as the first. The valuation is
    # written from the runs' ids, so ``system.points`` is never built.
    calls = 0

    def counted(encode):
        def count(text):
            nonlocal calls
            calls += 1
            return encode(text)

        return count

    def encoded(n_runs: int) -> list[int]:
        nonlocal calls
        runs = [
            make_run(f"r{i}", horizon=3, wake_up=[0, 1], initial_state=["a", "b"],
                     clock=[[0, 1, 2, 3], [5, 5, 6]],
                     events=[(1, 0, "send", 1, "m"), (2, 1, "receive", 0, "m")])
            for i in range(n_runs)
        ]
        system = make_system(2, 3, runs)
        model = Model(system, make_valuation({"p": [Point("r0", 0)]}),
                      ViewPolicy.complete_history())
        manifest = ScenarioManifest("shared", {}, model, ())
        counts = []
        for _ in range(2):
            calls = 0
            manifest_file, system_file = io.StringIO(), io.StringIO()
            write_manifest(manifest, manifest_file, system_file)
            counts.append(calls)
            assert system_file.getvalue() == _indented(model_to_dict(model))
            assert manifest_file.getvalue() == _indented(manifest_to_dict(manifest))
        assert "points" not in vars(system)
        return counts

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        counted(json.encoder.encode_basestring_ascii))
    monkeypatch.setattr(jsontext, "_key", counted(jsontext._key))
    first, second = encoded(4)
    assert first == second
    assert encoded(8)[0] - first == 4


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


def _shared(system) -> bool:
    """Whether the equal events, and the equal (tick, event) pairs, of
    ``system``'s timelines are one object each."""
    pairs = [pair for run in system.runs for line in run.timeline for pair in line]
    events = [event for _, event in pairs]
    return (len({id(p) for p in pairs}), len({id(e) for e in events})) == (
        len(set(pairs)), len(set(events)))


def test_equal_events_and_timeline_pairs_are_one_object(tmp_path):
    # scenario runs built by make_run and by the run explorer share them,
    # and so do the runs of a file, decoded run by run or whole
    built = [broadcast_channel(L=1, eps=1, n=3, horizon=5, clocked=True).model,
             coordinated_attack(3, 4).model, muddy_children(3, True, 3, True).model]
    for model in built:
        assert _shared(model.system)
        path = tmp_path / "model.json"
        path.write_text(dump_json(model_to_dict(model)))
        streamed = _read(str(path), model_from_dict).system
        whole = model_from_dict(load_json(path.read_text())).system
        for system in (streamed, whole):
            assert _shared(system)
            assert [r.content_key() for r in system.runs] == [
                r.content_key() for r in model.system.runs]


# A decode checks each distinct event once, under its run's wake-up times
# and clock tables, and shares the result with the later runs. These
# documents put a valid send and receive in that table with run "a", and
# run "b" repeats them with one change, which ``cli._read`` must report
# with exit code 2 and the message pinned here. True, 1 and 1.0 are equal
# and hash alike, so a hit must not skip a type check.

_TABLE_SEND = {"time": 1, "agent": 0, "kind": "send", "peer": 1, "message": "m"}
_TABLE_RECEIVE = {"time": 1, "agent": 1, "kind": "receive", "peer": 0, "message": "m"}
_TABLE_RUN = {"id": "a", "wake_up": {"0": 0, "1": 0}, "initial_state": {"0": "s", "1": "t"},
              "clock": {"0": [0, 1, 2], "1": [0, 1, 2]}, "events": [_TABLE_SEND, _TABLE_RECEIVE]}


def _table_document(**changes) -> dict:
    """Two runs of two agents over ticks 0..2: "a" as above, and "b" equal
    to it but for ``changes``."""
    return {"schema": 1, "agents": 2, "horizon": 2,
            "runs": [_TABLE_RUN, dict(_TABLE_RUN, id="b", **changes)]}


@pytest.mark.parametrize("changes, message", [
    ({"events": [_TABLE_SEND, dict(_TABLE_RECEIVE, time=True)]},
     "system.runs[1].events[1].time: expected an integer, got True"),
    ({"events": [dict(_TABLE_SEND, time=1.0), _TABLE_RECEIVE]},
     "system.runs[1].events[0].time: expected an integer, got 1.0"),
    ({"events": [_TABLE_SEND, dict(_TABLE_RECEIVE, agent=True)]},
     "system.runs[1].events[1].agent: expected an integer, got True"),
    ({"events": [dict(_TABLE_SEND, peer=1.0), _TABLE_RECEIVE]},
     "system.runs[1].events[0].peer: expected an integer, got 1.0"),
    ({"events": [dict(_TABLE_SEND, kind="Send"), _TABLE_RECEIVE]},
     "system.runs[1].events[0].kind: 'Send' is not send or receive"),
    ({"events": [dict(_TABLE_SEND, agent=2), _TABLE_RECEIVE]},
     "system.runs[1].events[0].agent: run 'b': event names agent 2"),
    ({"events": [dict(_TABLE_SEND, peer=5), _TABLE_RECEIVE]},
     "system.runs[1].events[0].peer: peer 5 is not an agent"),
    ({"wake_up": {"0": 2, "1": 0}, "clock": {"0": [2], "1": [0, 1, 2]}},
     "system.runs[1].events[0]: event before wake-up at 2"),
    ({"events": [_TABLE_RECEIVE]},
     "system.runs[1].events[0]: receive of 'm' has no matching send from agent 0"),
    ({"clock": {"0": [0, True, 2], "1": [0, 1, 2]}},
     "system.runs[1].clock.0[1]: expected an integer, got True"),
    ({"clock": {"0": [0, 2, 1], "1": [0, 2, 1]}},
     "system.runs[1].clock.0[2]: clock is not monotone nondecreasing (1 after 2)"),
], ids=["time-true", "time-float", "agent-true", "peer-float", "kind", "agent-range",
        "peer-range", "before-wake", "no-send", "clock-true", "clock-order"])
def test_a_repeated_event_is_checked_again_in_every_run(tmp_path, changes, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_table_document()))
    _read(str(path), model_from_dict)
    path.write_text(json.dumps(_table_document(**changes)))
    with pytest.raises(CliError) as err:
        _read(str(path), model_from_dict)
    assert (err.value.exit_code, str(err.value)) == (2, f"{path}: {message}")


@pytest.mark.parametrize("first, then", [(1, True), (True, 1), ("m", None), (1, 1.0)])
def test_a_repeated_event_with_a_message_of_another_type_keeps_its_text(tmp_path, first, then):
    def events(message):
        return [dict(_TABLE_SEND, message=message), dict(_TABLE_RECEIVE, message=message)]

    doc = _table_document(events=events(then))
    doc["runs"][0] = dict(_TABLE_RUN, events=events(first))
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    system = _read(str(path), model_from_dict).system
    messages = {run.id: {ev.message for line in run.timeline for _, ev in line}
                for run in system.runs}
    assert messages == {"a": {str(first)}, "b": {str(then)}}
