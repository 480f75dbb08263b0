"""Round engine: delivery timing, legality checks, accounting."""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

from hullroute.errors import (
    IllegalIntroductionError,
    IllegalSendError,
    NotReadyError,
    SimulationAbortError,
)
from hullroute.geometry import Point
from hullroute.ldel import build_udg
from hullroute.simengine import Channel, Message, RoundEngine, canonical_bytes, tally


@pytest.fixture
def line3():
    # 0 -- 1 -- 2, ends out of radio range of each other
    return build_udg({0: Point(0, 0), 1: Point(0.8, 0), 2: Point(1.6, 0)})


def test_adhoc_requires_radio_link(line3):
    eng = RoundEngine(line3)
    eng.send(0, 1, {"x": 1}, channel=Channel.ADHOC)
    with pytest.raises(IllegalSendError):
        eng.send(0, 2, {"x": 1}, channel=Channel.ADHOC)


def test_longrange_requires_knowledge(line3):
    eng = RoundEngine(line3)
    with pytest.raises(IllegalSendError):
        eng.send(0, 2, None, channel=Channel.LONGRANGE)
    line3.learn(0, 2)
    eng.send(0, 2, None, channel=Channel.LONGRANGE)


def test_other_illegal_sends(line3):
    eng = RoundEngine(line3)
    with pytest.raises(IllegalSendError):
        eng.send(0, 0)
    with pytest.raises(IllegalSendError):
        eng.send(0, 99)
    with pytest.raises(IllegalSendError):
        eng.send(0, 1, channel=Channel.META)


def test_auto_channel_picks_radio_when_adjacent(line3):
    eng = RoundEngine(line3)
    assert eng.auto_channel(0, 1) is Channel.ADHOC
    assert eng.auto_channel(0, 2) is Channel.LONGRANGE


def test_introduction_needs_known_id(line3):
    eng = RoundEngine(line3)
    with pytest.raises(IllegalIntroductionError):
        eng.send(1, 0, None, intro_ids=(99,))
    # a node may always introduce itself, and ids it knows
    eng.send(1, 0, None, intro_ids=(1, 2))


def test_delivery_is_next_round_and_teaches_ids(line3):
    eng = RoundEngine(line3)
    eng.send(1, 0, {"n": 7}, intro_ids=(2,))
    assert not line3.node_knows(0, 2)
    eng.step_round()
    assert eng.round_no == 1
    assert line3.node_knows(0, 2)  # introduced
    assert line3.node_knows(0, 1)  # caller id
    # reply over long range is now legal even without a radio link
    eng.send(0, 2, None, channel=Channel.LONGRANGE)


def test_run_phase_round_trip(line3):
    eng = RoundEngine(line3)
    got: list[tuple[int, int, object]] = []

    def handler(engine: RoundEngine, v: int, inbox: list[Message]) -> bool:
        for m in inbox:
            got.append((engine.round_no, v, m.payload))
            if m.payload == "ping":
                engine.send(v, m.src, "pong")
        if engine.round_no == 0 and v == 0:
            engine.send(0, 1, "ping")
        return True

    report = eng.run_sessions("pingpong", {None: (line3.ids, handler, 10)})[None]
    assert got == [(1, 1, "ping"), (2, 0, "pong")]
    assert report.rounds == 2
    assert report.messages_adhoc == 2
    assert report.messages_longrange == 0


def test_run_phase_handler_order_is_ascending(line3):
    order: list[int] = []
    eng = RoundEngine(line3)

    def handler(engine, v, inbox):
        order.append(v)
        return True

    eng.run_sessions("noop", {None: ([2, 0, 1], handler, 1)})
    assert order == [0, 1, 2]


def test_run_phase_aborts_on_overrun(line3):
    eng = RoundEngine(line3)

    def chatty(engine, v, inbox):
        # 0 and 1 start and then answer every message: mail is always in flight
        if v < 2:
            engine.send(v, 1 - v, "again")
        return True

    with pytest.raises(SimulationAbortError):
        eng.run_sessions("chatty", {None: (line3.ids, chatty, 5)})


def test_an_aborted_phase_leaves_no_mail_behind(line3):
    # "chatty" overruns 5 rounds with mail in flight and mail delivered but
    # unread; the abort names no node, and a fresh phase on the same engine
    # runs, in either kind of session, and hears none of that mail
    eng = RoundEngine(line3)

    def chatty(engine, v, inbox):
        if v < 2:
            engine.send(v, 1 - v, "again")
        return True

    with pytest.raises(SimulationAbortError, match="phase 'chatty' exceeded 5 rounds") as ei:
        eng.run_sessions("chatty", {None: (line3.ids, chatty, 5)})
    assert ei.value.node is None and "node" not in str(ei.value)
    seen = []

    def quiet(engine, v, inbox):
        seen.append((v, [m.payload for m in inbox]))
        return True

    for key in (None, "ring"):
        seen.clear()
        reports = eng.run_sessions("after", {key: (line3.ids, quiet, 2)})
        assert seen == [(v, []) for v in line3.ids], key
        assert (reports[key].rounds, reports[key].active) == (0, 0), key
    assert [p.label for p in eng.phase_reports] == ["chatty", "after", "after"]
    # a handler that raises leaves no mail behind either
    def crash(engine, v, inbox):
        if v == 0:
            engine.send(0, 1, "lost")
        if v == 2:
            raise ValueError("boom")
        return True

    with pytest.raises(SimulationAbortError) as ei:
        eng.run_sessions("crash", {"ring": (line3.ids, crash, 2)})
    assert ei.value.node == 2
    seen.clear()
    eng.run_sessions("after", {"ring": (line3.ids, quiet, 2)})
    assert seen == [(v, []) for v in line3.ids]


def test_run_phase_wraps_handler_crash(line3):
    eng = RoundEngine(line3)

    def broken(engine, v, inbox):
        raise ValueError("boom")

    with pytest.raises(SimulationAbortError) as ei:
        eng.run_sessions("broken", {None: (line3.ids, broken, 2)})
    assert ei.value.node == 0


def test_a_handlers_own_abort_passes_through_and_a_crash_keeps_its_exception(line3):
    # an abort the handler raised itself surfaces as it was, not wrapped in
    # a second one; any other exception is wrapped with the exception itself
    eng = RoundEngine(line3)
    own = SimulationAbortError(0, 0, "tree cast reached the node twice")

    def aborts(engine, v, inbox):
        raise own

    with pytest.raises(SimulationAbortError) as ei:
        eng.run_sessions("own", {None: (line3.ids, aborts, 2)})
    assert ei.value is own
    assert str(ei.value) == "handler of node 0 failed in round 0: 'tree cast reached the node twice'"

    def crashes(engine, v, inbox):
        raise KeyError(5)

    with pytest.raises(SimulationAbortError) as ei:
        eng.run_sessions("crash", {"ring": (line3.ids, crashes, 2)})
    assert str(ei.value) == "handler of node 0 failed in round 0: KeyError(5)"
    assert isinstance(ei.value.cause, KeyError) and ei.value.cause is ei.value.__cause__


def test_charge_rounds_advances_clock(line3):
    eng = RoundEngine(line3)
    eng.charge_rounds(25, "setup")
    assert eng.round_no == 25
    meta = [t for t in eng.transcript if t["channel"] == "meta"]
    assert meta and meta[0]["tag"] == "charge:setup:25"


def test_transcript_schema_and_bytes(tmp_path, line3):
    eng = RoundEngine(line3)
    eng.send(0, 1, {"b": 2, "a": 1}, tag="demo")
    eng.step_round()
    path = tmp_path / "t.jsonl"
    eng.write_transcript(path)
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert len(lines) == 1
    rec = lines[0]
    assert set(rec) == {"round", "src", "dst", "channel", "bytes", "intro", "tag", "session"}
    assert rec["src"] == 0 and rec["dst"] == 1 and rec["round"] == 0
    # sent outside any phase; the session is not counted in the bytes
    assert rec["session"] is None
    assert rec["bytes"] == canonical_bytes({"tag": "demo", "data": {"a": 1, "b": 2}, "intro": []})


@pytest.mark.parametrize("tag", ["pj_succ", "href", "hm"])
def test_transcript_bytes_are_envelope_intro_and_data(line3, tag):
    # the envelope follows from the tag alone
    eng, payload = RoundEngine(line3), {"hull": [[0.5, -1.25, 3]], "m": 2}
    eng.send(1, 0, payload, tag=tag, intro_ids=(2, 1))
    (line,) = eng.transcript
    assert line["intro"] == canonical_bytes([1, 2])
    assert line["bytes"] == 25 + len(json.dumps(tag)) + line["intro"] + canonical_bytes(payload)


def test_longrange_per_round_peak(line3):
    line3.learn(0, 2)
    eng = RoundEngine(line3)
    eng.send(0, 2, None, channel=Channel.LONGRANGE)
    eng.send(0, 2, None, channel=Channel.LONGRANGE)
    eng.step_round()
    eng.send(0, 2, None, channel=Channel.LONGRANGE)
    (whole,) = tally(eng.transcript).values()
    assert (whole.messages_longrange, whole.max_longrange_per_node_round) == (3, 2)


def test_charge_ends_the_round_for_the_per_round_count(line3):
    # charged rounds pass like simulated ones: a send after the charge is
    # the first of its round for the peak
    line3.learn(0, 2)
    eng = RoundEngine(line3)
    eng.send(0, 2, None, channel=Channel.LONGRANGE)
    eng.charge_rounds(3, "x")
    eng.send(0, 2, None, channel=Channel.LONGRANGE)
    assert [t["round"] for t in eng.transcript] == [0, 3, 3]
    (whole,) = tally(eng.transcript).values()
    assert whole.max_longrange_per_node_round == 1


def test_longrange_peak_is_per_node_over_the_phase(line3):
    # node 0 sends one long-range and one ad hoc message in each of two
    # sessions of one phase: a session's peak counts its own long-range
    # sends, the phase's sums the sessions, and the ad hoc sends count in
    # neither
    line3.learn(0, 2)
    eng = RoundEngine(line3)

    def handler(engine, v, inbox):
        if engine.round_no == 0 and v == 0:
            engine.send(0, 2, None, channel=Channel.LONGRANGE)
            engine.send(0, 1, None)
        return True

    reports = eng.run_sessions("budget", {"a": ([0, 2], handler, 3), "b": ([0, 2], handler, 3)})
    assert [reports[key].max_longrange_per_node_round for key in "ab"] == [1, 1]
    assert eng.phase_reports[-1].max_longrange_per_node_round == 2


# ---------------------------------------------------------------------------
# sessions: several protocols in one phase


def test_sessions_sharing_nodes_are_demultiplexed(line3):
    eng = RoundEngine(line3)
    got: dict[str, list] = {"a": [], "b": []}

    def pingpong(engine, v, inbox):
        for m in inbox:
            got["a"].append((engine.round_no, v, m.payload, m.session))
            if m.payload == "ping":
                engine.send(v, m.src, "pong")
        if engine.round_no == 0 and v == 0:
            engine.send(0, 1, "ping")
        return True

    def relay(engine, v, inbox):
        # hop count rides along 0 -> 1 -> 2 -> 1 -> 0
        for m in inbox:
            got["b"].append((engine.round_no, v, m.payload, m.session))
            if m.payload < 4:
                engine.send(v, v + 1 if m.payload < 2 else v - 1, m.payload + 1)
        if engine.round_no == 0 and v == 0:
            engine.send(0, 1, 1)
        return True

    reports = eng.run_sessions(
        "shared", {"a": ([1, 0], pingpong, 10), "b": ([0, 1, 2], relay, 10)}
    )
    assert got["a"] == [(1, 1, "ping", "a"), (2, 0, "pong", "a")]
    assert got["b"] == [(1, 1, 1, "b"), (2, 2, 2, "b"), (3, 1, 3, "b"), (4, 0, 4, "b")]
    assert reports["a"].rounds == 2 and reports["b"].rounds == 4
    assert reports["a"].messages_adhoc == 2 and reports["b"].messages_adhoc == 4
    # the start nodes in round 0, then only the node the mail reaches; a
    # start node with no mail that sends nothing is a call, not an active one
    assert (reports["a"].calls, reports["a"].active) == (2 + 2, 1 + 2)
    assert (reports["b"].calls, reports["b"].active) == (3 + 4, 1 + 4)
    phase = eng.phase_reports[-1]
    assert phase.label == "shared"
    assert (phase.rounds, phase.messages_adhoc, phase.calls, phase.active) == (4, 6, 11, 8)
    # each session's own report is kept as it goes quiet
    assert eng.session_reports == [("a", reports["a"]), ("b", reports["b"])]
    assert eng.session is None
    # each line names the session that sent it, and each report's sends
    # are the ledger's count of its session's lines
    assert [(t["round"], t["src"], t["session"]) for t in eng.transcript] == [
        (0, 0, "a"), (0, 0, "b"), (1, 1, "a"), (1, 1, "b"), (2, 2, "b"), (3, 1, "b"),
    ]
    counted = tally(eng.transcript, lambda t: t["session"])
    for key, rep in reports.items():
        mine = tally(t for t in eng.transcript if t["session"] == key)[None]
        assert counted[key] == mine
        assert replace(mine, label="shared", rounds=rep.rounds, calls=rep.calls, active=rep.active) == rep
    (whole,) = tally(eng.transcript).values()
    assert (phase.messages_adhoc, phase.bytes_total) == (whole.messages_adhoc, whole.bytes_total)


def test_sessions_wake_members_and_mail_holders_only(line3):
    # the start node runs in round 0 and, done, not again; node 1 runs
    # when the mail reaches it; node 2 hears nothing and never runs
    eng = RoundEngine(line3)
    calls = []

    def handler(engine, v, inbox):
        calls.append((engine.round_no, v, [m.payload for m in inbox]))
        if engine.round_no == 0:
            engine.send(0, 1, "hi")
        return True

    reports = eng.run_sessions("solo", {"s": ([0], handler, 3)})
    assert calls == [(0, 0, []), (1, 1, ["hi"])]
    assert reports["s"].rounds == 1
    # traffic driven outside run_phase touches neither report
    counted = asdict(eng.phase_reports[0]), asdict(reports["s"])
    eng.send(0, 1, "late")
    eng.step_round()
    assert len(eng.transcript) == 2
    assert (asdict(eng.phase_reports[0]), asdict(reports["s"])) == counted


def test_false_return_brings_the_node_back_with_an_empty_inbox(line3):
    # node 0 asks to run again twice, then is done: the session lasts as
    # long as it keeps asking, though no message is ever sent
    eng = RoundEngine(line3)
    calls = []

    def handler(engine, v, inbox):
        calls.append((engine.round_no, v, list(inbox)))
        return engine.round_no >= 2

    reports = eng.run_sessions("wait", {"s": ([0], handler, 5)})
    assert calls == [(0, 0, []), (1, 0, []), (2, 0, [])]
    assert reports["s"].rounds == 2 and eng.total_messages == 0
    # each waiting call is a call, none is active
    (phase,) = eng.phase_reports
    assert (reports["s"].calls, reports["s"].active) == (phase.calls, phase.active) == (3, 0)


def test_true_return_keeps_the_node_out_until_mail_arrives(line3):
    # node 1 is done at once; node 0 waits two rounds, then mails it,
    # and node 1 runs again only in the round that mail is delivered
    eng = RoundEngine(line3)
    calls = []

    def handler(engine, v, inbox):
        calls.append((engine.round_no, v, [m.payload for m in inbox]))
        if v == 0 and engine.round_no == 2:
            engine.send(0, 1, "late")
        return v == 1 or engine.round_no >= 2

    reports = eng.run_sessions("late", {"s": ([0, 1], handler, 5)})
    assert calls == [(0, 0, []), (0, 1, []), (1, 0, []), (2, 0, []), (3, 1, ["late"])]
    assert reports["s"].rounds == 3


def test_sessions_started_inside_a_phase_are_refused_untouched(line3):
    # a handler that starts a phase, even an empty one, gets NotReadyError
    # and the running phase goes on as if it had never asked
    eng = RoundEngine(line3)
    seen = []

    def nested(engine, v, inbox):
        if v == 0:
            engine.send(0, 1, "nested")
        return True

    def handler(engine, v, inbox):
        state = (engine.round_no, engine.session, len(engine.transcript), len(engine.phase_reports))
        for sessions in ({"n": ([0], nested, 1)}, {}):
            with pytest.raises(NotReadyError):
                engine.run_sessions("nested", sessions)
        seen.append(state == (engine.round_no, engine.session, len(engine.transcript), len(engine.phase_reports)))
        return True

    reports = eng.run_sessions("outer", {"s": ([0, 2], handler, 2)})
    assert seen == [True, True]
    assert reports.keys() == {"s"} and (reports["s"].rounds, reports["s"].calls) == (0, 2)
    assert [p.label for p in eng.phase_reports] == ["outer"] and eng.transcript == []
    # the refusal left no phase marked as running
    assert eng.run_sessions("after", {"n": ([0], nested, 1)})["n"].messages_adhoc == 1


def test_mail_sent_outside_any_phase_is_refused_untouched(line3):
    # "stray" waits in node 1's inbox; no later phase may read it as its own
    eng = RoundEngine(line3)
    eng.send(0, 1, "stray")
    eng.step_round()
    calls = []

    def handler(engine, v, inbox):
        calls.append((v, [m.payload for m in inbox]))
        return True

    state = (eng.round_no, len(eng.transcript), len(eng.phase_reports), len(eng.session_reports))
    for key in (None, "ring"):
        with pytest.raises(IllegalSendError, match="undelivered mail"):
            eng.run_sessions("later", {key: ([2], handler, 3)})
    assert calls == []
    assert (eng.round_no, len(eng.transcript), len(eng.phase_reports), len(eng.session_reports)) == state
    # mail still in flight is refused too
    eng = RoundEngine(line3)
    eng.send(0, 1, "stray")
    with pytest.raises(IllegalSendError):
        eng.run_sessions("later", {None: ([2], handler, 3)})
    assert calls == [] and eng.phase_reports == []


def test_no_sessions_runs_no_phase(line3):
    eng = RoundEngine(line3)
    assert eng.run_sessions("empty", {}) == {}
    assert eng.phase_reports == [] and eng.round_no == 0


def test_running_tallies_by_channel(line3):
    # a window of the transcript holds its sends by channel and sender,
    # and a charge as a meta line the ledger does not count
    line3.learn(0, 2)
    eng = RoundEngine(line3)
    eng.send(0, 1, None)
    start = len(eng.transcript)
    eng.send(0, 2, None, channel=Channel.LONGRANGE)
    eng.send(1, 0, None)
    eng.step_round()
    eng.send(0, 2, None, channel=Channel.LONGRANGE)
    eng.charge_rounds(3, "tree")
    window = eng.transcript[start:]
    assert [(t["src"], t["channel"]) for t in window] == [
        (0, "longrange"),
        (1, "adhoc"),
        (0, "longrange"),
        (None, "meta"),
    ]
    assert window[-1]["tag"] == "charge:tree:3"
    by_src = tally(window, lambda t: t["src"])
    assert [(v, c.messages_longrange, c.messages_adhoc) for v, c in by_src.items()] == [(0, 2, 0), (1, 0, 1)]
    assert tally((t for t in window if t["channel"] == "adhoc"), lambda t: t["src"]).keys() == {1}
