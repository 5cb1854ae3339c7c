import hashlib
import random
import sys
from functools import lru_cache, partial

import pytest

from epimc.checks import (
    check_ng1,
    check_ng1prime,
    check_ng2,
    check_temporal_imprecision,
)
from epimc.protocols import (
    DROPPED,
    PENDING,
    DeliveryModel,
    InitialConfiguration,
    JointProtocol,
    ScheduleExplosionError,
    close_under_shifts,
    enumerate_runs,
    generate_runs,
    handshake,
    ok_protocol,
    ping_once,
    shift_run,
    silent_protocol,
)
from epimc.runs import ModelError, make_run, make_system, run_history, validate_system
from tests.helpers import (
    clock_variants,
    oracle_ng1,
    oracle_ng1prime,
    oracle_ng2,
    oracle_timp,
    random_system,
)

CFG = InitialConfiguration((0, 0), ("favor", "await"))


def test_silent_protocol_yields_one_run_per_configuration():
    cfgs = [CFG, InitialConfiguration((0, 1), ("favor", "await"))]
    system = generate_runs(silent_protocol(), DeliveryModel.not_guaranteed((1,)), cfgs, 3)
    assert len(system.runs) == 2
    assert all(not any(r.timeline[a] for a in (0, 1)) for r in system.runs)


def test_single_message_drop_or_deliver_gives_two_runs():
    system = generate_runs(ping_once(), DeliveryModel.not_guaranteed((1,)), [CFG], 3)
    assert len(system.runs) == 2
    kinds = sorted(
        tuple(ev.kind for a in (0, 1) for _, ev in r.timeline[a]) for r in system.runs
    )
    assert kinds == [("send",), ("send", "receive")]


def test_handshake_run_count_matches_hand_enumeration():
    # four legs, same-tick delivery or loss, horizon four: one run per
    # dropped leg plus the fully delivered one
    system = generate_runs(handshake(4), DeliveryModel.not_guaranteed((0,)), [CFG], 4)
    assert len(system.runs) == 5
    assert validate_system(system) == []


def test_generation_is_deterministic():
    a = generate_runs(handshake(3), DeliveryModel.not_guaranteed((0,)), [CFG], 4)
    b = generate_runs(handshake(3), DeliveryModel.not_guaranteed((0,)), [CFG], 4)
    assert [r.id for r in a.runs] == [r.id for r in b.runs]
    assert [r.content_key() for r in a.runs] == [r.content_key() for r in b.runs]
    # protocols compare by name, configurations and models by value
    assert handshake(3) == handshake(3) and hash(handshake(3)) == hash(handshake(3))
    assert handshake(3) != handshake(4)
    assert CFG == InitialConfiguration((0, 0), ("favor", "await"))
    assert repr(CFG) == "InitialConfiguration(wake_up=(0, 0), initial_state=('favor', 'await'))"
    assert DeliveryModel.not_guaranteed((0,)) == DeliveryModel("not_guaranteed", (0,))
    for bad in (lambda: InitialConfiguration((0, 0), ("favor",)),
                lambda: CFG._replace(initial_state=("favor",))):
        with pytest.raises(ModelError, match="configuration field lengths differ"):
            bad()
    assert CFG._replace(wake_up=(1, 0)) == InitialConfiguration((1, 0), ("favor", "await"))
    with pytest.raises(AttributeError):
        CFG.wake_up = (1, 1)


def test_generated_runs_validate():
    for delivery in (
        DeliveryModel.not_guaranteed((0, 1)),
        DeliveryModel.unbounded(),
        DeliveryModel.bounded_uncertain(0, 3),
        DeliveryModel.synchronous_broadcast(1, 1),
    ):
        system = generate_runs(ping_once(), delivery, [CFG], 4)
        assert validate_system(system) == [], delivery.kind


def test_generated_timelines_are_canonical_when_a_tick_mixes_sends_and_receives():
    # both agents message each other at every tick, so from tick 1 on each
    # receives the other's last message in the tick it sends its next one
    chatty = JointProtocol("chatty", lambda agent, hist: ((1 - agent, "m"),))
    system = generate_runs(chatty, DeliveryModel.not_guaranteed((1,)), [CFG], 2)
    assert any(
        {ev.kind for t, ev in run.timeline[0] if t == 1} == {"send", "receive"}
        for run in system.runs
    )
    assert validate_system(system) == []


def test_explosion_guard_reports_the_cap():
    with pytest.raises(ScheduleExplosionError):
        generate_runs(
            ok_protocol(5), DeliveryModel.not_guaranteed((0,)), [CFG], 6,
            global_clock=True, max_schedules=10,
        )


def _cfg(wake_up, initial_state=("favor", "await")):
    return InitialConfiguration(wake_up, initial_state)


#: Enumerations and the SHA-256 of ``repr(enumerate_runs(...))``, taken
#: from the recursive enumerator that the explicit stack replaced: run
#: ids, schedules and their order are pinned.
ENUMERATIONS = {
    "handshake6": (
        handshake(6), DeliveryModel.not_guaranteed((0, 1)),
        [CFG, _cfg((0, 0), ("neutral", "await"))], 7, False,
        "a8431892aaff7288b553c8497b16322fe04d105ebdfb71fd6e572387f5665ce7",
    ),
    "handshake3": (
        handshake(3), DeliveryModel.not_guaranteed((0,)), [CFG], 4, False,
        "4f41cd359834146417b78a99718232caab04f055c11121f0dfb216008a059778",
    ),
    "ok_protocol7": (
        ok_protocol(7), DeliveryModel.not_guaranteed((0,), drop_deadline=5),
        [_cfg((0, 0), ("left", "right"))], 8, True,
        "9bca9228f2ca87463fb1589551c235da76095ed9baf479142f023d8c391be35c",
    ),
    "ping_bounded": (
        ping_once(), DeliveryModel.bounded_uncertain(1, 4), [_cfg((0, 2), ("a", "b"))], 6,
        False, "a2cdfb80931d85b0b48ecbed07bb0e6b1efe907f7c08e36977ca3ffb57491d22",
    ),
    "ping_unbounded": (
        ping_once(), DeliveryModel.unbounded(), [_cfg((0, 1), ("a", "b"))], 5, True,
        "d6af880da0fd558b311f29dae226b956491da699c6e98a5b622499033a58a0f0",
    ),
    "handshake4_broadcast": (
        handshake(4), DeliveryModel.synchronous_broadcast(1, 2),
        [_cfg((0, 1)), _cfg((1, 0))], 9, True,
        "3cf1977f0f04c6cacb0651f8095b15f915052a34142e5f6e61458bf56abcb0ef",
    ),
    "silent3": (
        silent_protocol(), DeliveryModel.not_guaranteed((1,)),
        [_cfg((0, 0, 1), ("x", "y", "z"))], 3, False,
        "b3dae3a7c8538d572f6bc50ca30f8555eb0849907a6ae989b4417d84e4c618e9",
    ),
}


@pytest.mark.parametrize("case", sorted(ENUMERATIONS))
def test_enumeration_is_pinned(case):
    protocol, delivery, configs, horizon, clocked, digest = ENUMERATIONS[case]
    pairs = enumerate_runs(protocol, delivery, configs, horizon, global_clock=clocked)
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(ENUMERATIONS))
def test_sends_get_the_history_of_the_run(case):
    # the explorer grows each history tick by tick; at every tick at which
    # an agent is awake the protocol must see exactly run_history there
    protocol, delivery, configs, horizon, clocked, _ = ENUMERATIONS[case]
    seen = set()

    class Recording(JointProtocol):
        def sends(self, agent, history):
            # the tick is the explorer's ``t`` in the calling frame
            seen.add((agent, sys._getframe(1).f_locals["t"], history))
            return super().sends(agent, history)

    pairs = enumerate_runs(Recording(*protocol), delivery, configs, horizon, global_clock=clocked)
    assert seen == {
        (agent, t, run_history(run, agent, t))
        for run, _ in pairs
        for agent in range(run.n_agents)
        for t in range(run.wake_up[agent], horizon + 1)
    }


def test_equal_events_of_one_enumeration_are_one_object():
    # across branches and across configurations, as in a decoded file
    cfgs = [CFG, InitialConfiguration((0, 1), ("favor", "await"))]
    pairs = enumerate_runs(handshake(2), DeliveryModel.not_guaranteed((0,)), cfgs, 3)
    per_config = [
        {ev for run, _ in pairs if run.id.startswith(f"c{ci}")
         for line in run.timeline for _, ev in line}
        for ci in range(len(cfgs))
    ]
    assert per_config[0] & per_config[1]
    events = [ev for run, _ in pairs for line in run.timeline for _, ev in line]
    assert len(set(map(id, events))) == len(set(events))


def test_schedule_entries_respect_model_bounds():
    pairs = enumerate_runs(ping_once(), DeliveryModel.bounded_uncertain(1, 4), [CFG], 6)
    for _, sched in pairs:
        for entry in sched:
            if isinstance(entry.outcome, int):
                assert 2 <= entry.outcome - entry.send_time <= 3
            else:
                assert entry.outcome == PENDING


def test_outcomes_follow_one_rule_for_every_model():
    # (model, send tick, outcomes at horizon 3): a message that cannot be
    # dropped may still be in flight at the horizon, whatever the model
    late_drops = DeliveryModel.not_guaranteed((0, 2), drop_deadline=0)
    table = [
        (late_drops, 2, (2, PENDING)),
        (late_drops, 1, (1, 3)),
        (DeliveryModel.not_guaranteed((0, 2)), 2, (2, DROPPED)),
        (DeliveryModel.not_guaranteed((), drop_deadline=0), 1, (PENDING,)),
        (DeliveryModel.unbounded(), 1, (2, 3, PENDING)),
        (DeliveryModel.bounded_uncertain(1, 4), 1, (3, PENDING)),
        (DeliveryModel.synchronous_broadcast(0, 2), 2, (2, 3, PENDING)),
    ]
    for delivery, send_time, expected in table:
        assert delivery.outcomes(send_time, 3) == expected, (delivery, send_time)
    pairs = enumerate_runs(ping_once(), late_drops, [_cfg((2, 0), ("a", "b"))], 3)
    assert [run.id for run, _ in pairs] == ["c0:m>1@2", "c0:m>1~"]


def test_ng1_and_ng2_pass_on_drop_generated_systems():
    system = generate_runs(handshake(3), DeliveryModel.not_guaranteed((0,)), [CFG], 4)
    assert check_ng1(system).ok
    assert check_ng2(system).ok


def test_ng1_fails_without_the_silent_extension():
    full = generate_runs(handshake(2), DeliveryModel.not_guaranteed((0,)), [CFG], 3)
    delivered_only = make_system(
        2, 3, [r for r in full.runs if sum(len(r.timeline[a]) for a in (0, 1)) == 4]
    )
    report = check_ng1(delivered_only)
    assert not report.ok
    assert any("@0" in v for v in report.violations)


def test_eventless_systems_pass_the_unreliability_checks_vacuously():
    system = generate_runs(silent_protocol(), DeliveryModel.not_guaranteed((1,)), [CFG], 3)
    assert check_ng1(system).ok
    assert check_ng2(system).ok
    assert check_ng1prime(system).ok


def test_unbounded_systems_pass_ng1prime_and_ng2():
    system = generate_runs(ping_once(), DeliveryModel.unbounded(), [CFG], 4)
    assert check_ng1prime(system).ok
    assert check_ng2(system).ok


def test_bounded_uncertain_systems_fail_ng1prime_when_delivery_is_forced():
    system = generate_runs(ping_once(), DeliveryModel.bounded_uncertain(0, 2), [CFG], 4)
    # every schedule delivers one tick after the send, so no extension is
    # silent over a window containing that tick
    report = check_ng1prime(system)
    assert not report.ok


def test_shift_run_zero_is_identity_and_shift_moves_only_one_agent():
    run = make_run(
        "r", horizon=5, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(1, 0, "send", 1, "m"), (3, 1, "receive", 0, "m")],
    )
    assert shift_run(run, 0, 0, horizon=5) is run
    shifted = shift_run(run, 0, 1, horizon=5)
    assert shifted.wake_up == (1, 0)
    assert [t for t, _ in shifted.timeline[0]] == [2]
    assert [t for t, _ in shifted.timeline[1]] == [3]  # receiver untouched


def test_shift_run_respects_delivery_bounds():
    run = make_run(
        "r", horizon=5, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(0, 0, "send", 1, "m"), (2, 1, "receive", 0, "m")],
    )
    bounds = DeliveryModel.bounded_uncertain(0, 3)  # delays 1..2
    shifted = shift_run(run, 0, 1, horizon=5, delivery=bounds)
    assert [t for t, _ in shifted.timeline[0]] == [1]
    with pytest.raises(ModelError):
        shift_run(run, 0, 2, horizon=5, delivery=bounds)  # delay would hit 0
    ghost = make_run(
        "g", horizon=5, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(2, 1, "receive", 0, "m")],
    )
    with pytest.raises(ModelError, match="no matching send"):
        shift_run(ghost, 0, 1, horizon=5, delivery=bounds)
    # a message sent twice: the receive's delay runs from the latest send
    # at or before it, not from the later resend
    resent = make_run(
        "d", horizon=6, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(0, 0, "send", 1, "m"), (3, 0, "send", 1, "m"),
                (1, 1, "receive", 0, "m")],
    )
    shifted = shift_run(resent, 1, 1, horizon=6, delivery=bounds)
    assert [t for t, _ in shifted.timeline[1]] == [2]


def test_shift_run_rejects_horizon_overflow():
    run = make_run(
        "r", horizon=3, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(3, 0, "send", 1, "m")],
    )
    with pytest.raises(ModelError):
        shift_run(run, 0, 1, horizon=3)


def test_shift_images_keep_other_agents_histories():
    from epimc.runs import run_history

    run = make_run(
        "r", horizon=6, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(1, 0, "send", 1, "m"), (3, 1, "receive", 0, "m")],
    )
    shifted = shift_run(run, 0, 1, horizon=6)
    for t in range(7):
        assert run_history(run, 1, t) == run_history(shifted, 1, t)
    for t in range(6):
        assert run_history(run, 0, t) == run_history(shifted, 0, t + 1)


def slack_safe_bounded_system():
    # the receiver's wake-up ladder reaches the horizon, so every probed
    # point has a later-waking witness inside the window
    cfgs = [
        InitialConfiguration((w0, w1), ("favor", "await"))
        for w0 in (0, 1)
        for w1 in (0, 1, 2, 3)
    ]
    delivery = DeliveryModel.bounded_uncertain(1, 4)  # delays 2..3
    return generate_runs(ping_once(), delivery, cfgs, 3), delivery


def test_shift_closed_bounded_system_passes_temporal_imprecision():
    system, delivery = slack_safe_bounded_system()
    closed = close_under_shifts(system, 1, delivery=delivery)
    report = check_temporal_imprecision(closed, 1)
    assert report.ok, report.violations[:3]


def test_lock_step_global_clock_system_fails_temporal_imprecision():
    system = generate_runs(
        ping_once(), DeliveryModel.not_guaranteed((1,)), [CFG], 3, global_clock=True
    )
    report = check_temporal_imprecision(system, 1)
    assert not report.ok


def test_pair_conditions_reject_single_agent_systems():
    lone = make_system(1, 2, [make_run("r", horizon=2, wake_up=[0], initial_state=["s"])])
    with pytest.raises(ModelError):
        check_ng2(lone)
    with pytest.raises(ModelError):
        check_temporal_imprecision(lone, 1)


def test_ok_protocol_requires_clock_histories():
    # without a clock the rule stays silent, so generation yields one run
    system = generate_runs(ok_protocol(2), DeliveryModel.not_guaranteed((0,)), [CFG], 3)
    assert len(system.runs) == 1


@lru_cache(maxsize=None)
def differential_systems():
    """Random systems, clocked ones included, some with runs that differ
    only in their clocks, plus a shift-closed image, drop-generated,
    clocked and delivered-only handshakes, and two runs whose clocks part
    after their first tick."""
    rng = random.Random(404)
    systems = [random_system(rng) for _ in range(200)]
    assert sum(s.has_clocks for s in systems) >= 40
    systems += [clock_variants(random_system(rng, max_runs=2)) for _ in range(20)]
    bounded, delivery = slack_safe_bounded_system()
    closed = close_under_shifts(bounded, 1, delivery=delivery)
    cfgs = [CFG, InitialConfiguration((0, 0), ("oppose", "await"))]
    dropping = generate_runs(handshake(3), DeliveryModel.not_guaranteed((0, 1)), cfgs, 4)
    clocked = generate_runs(
        handshake(2), DeliveryModel.not_guaranteed((0, 1)), cfgs, 3, global_clock=True
    )
    delivered = make_system(2, 4, [r for r in dropping.runs if "!" not in r.id])
    # both runs read clock 0 at tick 0 and part from tick 1 on, so at
    # tick 0 the quiet run has the loud run's histories but not its clocks
    common = dict(horizon=2, wake_up=[0, 0], initial_state=["a", "b"])
    send = (0, 0, "send", 1, "m")
    loud = make_run("loud", **common, clock=[[0, 1, 2]] * 2,
                    events=[send, (1, 1, "receive", 0, "m")])
    quiet = make_run("quiet", **common, clock=[[0, 0, 1]] * 2, events=[send])
    parted = make_system(2, 2, [loud, quiet])
    return systems + [closed, dropping, clocked, delivered, parted]


def test_one_agent_silence_checks_match_their_transcriptions():
    rng = random.Random(505)
    for _ in range(20):
        system = random_system(rng, min_agents=1, max_agents=1)
        assert system.n_agents == 1
        assert check_ng1(system).violations == oracle_ng1(system)
        assert check_ng1prime(system).violations == oracle_ng1prime(system)


def test_ng1_flags_the_points_where_ng1prime_flags_the_horizon():
    flagged = 0
    for system in differential_systems():
        ng1 = [v.rpartition("): ")[0] for v in check_ng1(system).violations]
        last = [
            v.rpartition("): ")[0]
            for v in check_ng1prime(system).violations
            if v.endswith(f",{system.horizon}]")
        ]
        assert ng1 == last
        flagged += len(ng1)
    assert flagged


@pytest.mark.parametrize(
    "check, oracle",
    [
        (check_ng1, oracle_ng1),
        (check_ng2, oracle_ng2),
        (check_ng1prime, oracle_ng1prime),
        (check_temporal_imprecision, oracle_timp),
        (partial(check_temporal_imprecision, delta=2), partial(oracle_timp, delta=2)),
        (partial(check_temporal_imprecision, delta=3), partial(oracle_timp, delta=3)),
    ],
    ids=["ng1", "ng2", "ng1prime", "timp", "timp_delta2", "timp_delta3"],
)
def test_checks_match_their_transcriptions(check, oracle):
    for system in differential_systems():
        assert check(system).violations == oracle(system)
