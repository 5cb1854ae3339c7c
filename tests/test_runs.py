import inspect
import random

import pytest

import epimc.runs as runs
from epimc.runs import (
    EMPTY_HISTORY,
    AgentSetMismatchError,
    Event,
    LocalHistory,
    ModelError,
    Point,
    Run,
    UnknownAgentError,
    UnknownRunError,
    extends,
    history_cover,
    make_run,
    make_system,
    run_history,
    validate_system,
)
from epimc.scenarios import broadcast_channel
from tests.helpers import clock_variants, random_system


def two_run_pair(horizon=3, clocked=False):
    clock = (lambda a, t: t) if clocked else None
    delivered = make_run(
        "del", horizon=horizon, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(0, 0, "send", 1, "m"), (1, 1, "receive", 0, "m")], clock=clock,
    )
    dropped = make_run(
        "drop", horizon=horizon, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(0, 0, "send", 1, "m")], clock=clock,
    )
    return make_system(2, horizon, [delivered, dropped])


def test_history_of_eventless_run_is_initial_state_only():
    run = make_run("r", horizon=2, wake_up=[0], initial_state=["s"])
    system = make_system(1, 2, [run])
    h = system.history(0, Point("r", 0))
    assert h.initial_state == "s"
    assert h.events == ()


def test_history_excludes_events_at_the_query_time():
    run = make_run(
        "r", horizon=5, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(3, 1, "receive", 0, "m"), (3, 0, "send", 1, "m")],
    )
    system = make_system(2, 5, [run])
    assert system.history(1, Point("r", 3)).events == ()
    got = system.history(1, Point("r", 4)).events
    assert len(got) == 1 and got[0].kind == "receive"


def test_history_empty_before_wake_up():
    run = make_run("r", horizon=3, wake_up=[2], initial_state=["s"])
    system = make_system(1, 3, [run])
    assert system.history(0, Point("r", 1)) is EMPTY_HISTORY
    assert system.history(0, Point("r", 2)).awake


def test_history_prefix_property():
    system = two_run_pair()
    for run in system.runs:
        for agent in (0, 1):
            for t in range(system.horizon + 1):
                for u in range(t, system.horizon + 1):
                    a = run_history(run, agent, t)
                    b = run_history(run, agent, u)
                    assert a.is_prefix_of(b)


def test_prefix_of_extension_gives_equal_histories():
    # two runs agreeing through t=5, diverging at t=6
    base_events = [(2, 0, "send", 1, "m"), (2, 1, "receive", 0, "m")]
    r1 = make_run("r1", horizon=8, wake_up=[0, 0], initial_state=["a", "b"],
                  events=base_events)
    r2 = make_run("r2", horizon=8, wake_up=[0, 0], initial_state=["a", "b"],
                  events=base_events + [(6, 0, "send", 1, "n"), (6, 1, "receive", 0, "n")])
    system = make_system(2, 8, [r1, r2])
    for t in range(6):
        for agent in (0, 1):
            assert run_history(r1, agent, t) == run_history(r2, agent, t)
    assert extends(system, r2, Point("r1", 5))
    assert not extends(system, r2, Point("r1", 7))


def test_extends_is_reflexive_and_symmetric():
    system = two_run_pair()
    delivered, dropped = system.runs
    for t in range(system.horizon + 1):
        assert extends(system, delivered, Point("del", t))
    # histories agree exactly up to the delivery tick
    assert extends(system, dropped, Point("del", 1))
    assert extends(system, delivered, Point("drop", 1))
    assert not extends(system, dropped, Point("del", 2))


def test_extends_monotone_in_time():
    system = two_run_pair()
    dropped = system.runs[1]
    for t in range(system.horizon + 1):
        if extends(system, dropped, Point("del", t)):
            for earlier in range(t):
                assert extends(system, dropped, Point("del", earlier))


def test_extends_false_on_different_initial_states():
    r1 = make_run("r1", horizon=2, wake_up=[0], initial_state=["a"])
    r2 = make_run("r2", horizon=2, wake_up=[0], initial_state=["b"])
    system = make_system(1, 2, [r1, r2])
    assert not extends(system, r2, Point("r1", 0))


def test_history_cover_identity_and_superset():
    system = two_run_pair()
    assert history_cover(system, system)
    bigger = make_system(2, 3, list(system.runs) + [
        make_run("extra", horizon=3, wake_up=[0, 0], initial_state=["a", "b"])
    ])
    assert history_cover(system, bigger)


def test_history_cover_fails_when_a_history_is_unique_to_a_dropped_run():
    # with clocks, waiting longer is observable, so the drop run's receiver
    # history at late times exists nowhere in the delivered-only system
    full = two_run_pair(clocked=True)
    sub = make_system(2, 3, [full.run("del")])
    assert not history_cover(full, sub)
    assert history_cover(sub, full)


def test_history_cover_is_transitive():
    rng = random.Random(101)
    triples = 0
    while triples < 30:
        a = random_system(rng, max_agents=2)
        b = random_system(rng, max_agents=2)
        c = random_system(rng, max_agents=2)
        if not (a.n_agents == b.n_agents == c.n_agents):
            continue
        triples += 1
        if history_cover(a, b) and history_cover(b, c):
            assert history_cover(a, c)


def test_history_cover_rejects_mismatched_agent_sets():
    system = two_run_pair()
    other = make_system(1, 2, [make_run("r", horizon=2, wake_up=[0], initial_state=["a"])])
    with pytest.raises(AgentSetMismatchError):
        history_cover(system, other)


def test_validate_clean_system():
    assert validate_system(two_run_pair()) == []
    assert validate_system(two_run_pair(clocked=True)) == []


def test_validate_flags_decreasing_clock():
    run = make_run("r", horizon=2, wake_up=[0], initial_state=["s"],
                   clock=[[5, 4, 3]])
    problems = validate_system(make_system(1, 2, [run]))
    assert any("monotone" in p for p in problems)


def test_validate_reports_a_short_clock_table():
    # built directly, so no constructor checks the table against the stamp
    run = Run("s", (0,), ("a",), (((2, Event("send", 0, "m", 0)),),), ((0, 1),))
    problems = validate_system(make_system(1, 2, [run]))
    assert any("clock table length 2, expected 3" in p for p in problems)


def test_validate_flags_unmatched_receive():
    run = make_run("r", horizon=2, wake_up=[0, 0], initial_state=["a", "b"],
                   events=[(1, 1, "receive", 0, "ghost")])
    problems = validate_system(make_system(2, 2, [run]))
    assert any("no matching send" in p for p in problems)


def test_validate_flags_receive_before_send():
    run = make_run(
        "r", horizon=3, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(2, 0, "send", 1, "m"), (1, 1, "receive", 0, "m")],
    )
    problems = validate_system(make_system(2, 3, [run]))
    assert any("no matching send" in p for p in problems)


def test_lookup_errors():
    system = two_run_pair()
    with pytest.raises(UnknownRunError):
        system.history(0, Point("nope", 0))
    with pytest.raises(UnknownAgentError):
        system.history(7, Point("del", 0))
    with pytest.raises(ModelError):
        system.history(0, Point("del", system.horizon + 1))
    run = system.run("del")
    with pytest.raises(ModelError, match="duplicate run id 'del'"):
        make_system(2, 3, [run, run])
    with pytest.raises(AgentSetMismatchError, match="run 'del' has 2 agents, system has 3"):
        make_system(3, 3, [run])


def test_system_history_matches_run_history():
    rng = random.Random(202)
    for k in range(150):
        system = random_system(rng)
        if k % 5 == 0:
            system = clock_variants(system)
        for run in system.runs:
            for t in range(system.horizon + 1):
                for agent in system.agents:
                    got = system.history(agent, Point(run.id, t))
                    assert got == run_history(run, agent, t)


def test_history_table_interns_equal_histories_to_equal_ids():
    rng = random.Random(203)
    for k in range(150):
        system = random_system(rng)
        if k % 5 == 0:
            system = clock_variants(system)
        for agent, table in zip(system.agents, system.history_table):
            # no history is listed twice, so equal histories share one id
            assert len(set(table.distinct)) == len(table.distinct)
            assert len(table.ids) == len(system.points)
            for i, pt in enumerate(system.points):
                assert system.point_id(pt) == i
                history = run_history(system.run(pt.run_id), agent, pt.time)
                assert table.distinct[table.ids[i]] == history


def test_history_table_reads_one_row_per_distinct_agent_run(monkeypatch):
    # run_history is read at every tick of each distinct (wake-up, initial
    # state, timeline, clock) of an agent; runs sharing one reuse its row
    system = broadcast_channel(1, 2, 3, 6, clocked=True).model.system
    expected = system.history_table
    fresh = make_system(system.n_agents, system.horizon, system.runs)
    calls = []

    def counted(run, agent, time, real=runs.run_history):
        calls.append((run.id, agent, time))
        return real(run, agent, time)

    monkeypatch.setattr(runs, "run_history", counted)
    assert fresh.history_table == expected
    rows = sum(
        len({(r.wake_up[a], r.initial_state[a], r.timeline[a], r.clock[a])
             for r in system.runs})
        for a in system.agents
    )
    assert rows < len(system.runs) * system.n_agents
    assert len(calls) == rows * (system.horizon + 1)


def test_points_and_events_are_values():
    point = Point("r", 1)
    assert point == Point(run_id="r", time=1) and point is not Point("r", 1)
    assert hash(point) == hash(Point("r", 1))
    assert point != Point("r", 2) and point != Point("s", 1)
    assert Point("a", 2) < Point("b", 0) < Point("b", 1)
    assert sorted([Point("b", 0), Point("a", 3), Point("a", 1)]) == [
        Point("a", 1), Point("a", 3), Point("b", 0)
    ]
    assert (point.run_id, point.time) == ("r", 1)
    assert str(point) == "r@1"
    assert repr(point) == "Point(run_id='r', time=1)"
    assert list(inspect.signature(Point).parameters) == ["run_id", "time"]

    event = Event("send", 1, "m")
    assert event == Event(kind="send", peer=1, message="m", clock_stamp=None)
    assert hash(event) == hash(Event("send", 1, "m", None))
    assert event != Event("send", 1, "m", 0) and event != Event("receive", 1, "m")
    assert str(event) == repr(event) == (
        "Event(kind='send', peer=1, message='m', clock_stamp=None)"
    )
    params = inspect.signature(Event).parameters
    assert list(params) == ["kind", "peer", "message", "clock_stamp"]
    assert params["clock_stamp"].default is None
    with pytest.raises(AttributeError):
        point.time = 2
    with pytest.raises(AttributeError):
        event.peer = 0

    history = LocalHistory("a", (event,))
    assert history == LocalHistory("a", (event,), None)
    assert hash(history) == hash(LocalHistory("a", (event,)))
    assert history._replace(events=()) == LocalHistory("a") != history
    assert repr(EMPTY_HISTORY) == (
        "LocalHistory(initial_state=None, events=(), clock_range=None)"
    )
    run = two_run_pair().run("del")
    renamed = run._replace(id="x")
    assert renamed != run and renamed.content_key() == run.content_key()
    with pytest.raises(AttributeError):
        run.id = "x"


def test_a_point_equals_its_plain_tuple():
    assert Point("r", 1) == ("r", 1) and {("r", 1)} == {Point("r", 1)}
    assert Event("send", 1, "m") == ("send", 1, "m", None)
