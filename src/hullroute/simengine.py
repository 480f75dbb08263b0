"""Synchronous message-passing engine.

Nodes act in rounds: everything sent in round i sits in flight and is
delivered at the start of round i+1.  Two channels exist.  The ad hoc
channel only spans radio links; the long-range channel reaches any node
whose id the sender currently knows.  Delivering a message teaches the
receiver the sender's id (caller id), and a message may introduce
further ids the sender knows, which the receiver learns on delivery.

Mail is read only inside a phase, which run_sessions starts.  Each ring
(or bay) is a session, and rings run side by side in one phase: their
messages carry the session as a header, so a node on two rings keeps the
conversations apart, and each session reports the round it went quiet.
Each session brings its own round cap, and a session still busy after
it aborts the run in that round, naming the session.  The hull
distribution and each query are one session keyed None.  The protocols
are message-driven, so one wake rule serves every session: after its
first round a node acts only when mail reaches it or when it asked to.

The engine is also the bookkeeper: a send is recorded once, as a
transcript line naming its session (null when keyed None), and tally()
alone turns lines into counts.  When a phase ends, its report and each
session's are counted off the phase's lines (a session's peak off its
own sends only), and each keyed session's report is kept, so round and
message bounds can be checked after a run instead of trusted.  A caller
costs a stretch of the run, such as one build, off the entries of the
transcript and session_reports past the lengths they had when it began.

A transcript line's `bytes` are `canonical_bytes` of {tag, data, intro}
(the sorted ids introduced; the session header, like src and dst, is not
counted): 25 + len(json.dumps(tag)) of envelope, plus its `intro` bytes,
kept on the line, plus the payload's.  The reports also count
`run_phase`'s handler calls, and as `active` those that had mail or sent.
"""

from __future__ import annotations

import json
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping

from .errors import (
    IllegalIntroductionError,
    IllegalSendError,
    NotReadyError,
    SimulationAbortError,
)
from .ldel import HybridTopology, NodeId

log = logging.getLogger(__name__)


class Channel(str, Enum):
    ADHOC = "adhoc"
    LONGRANGE = "longrange"
    META = "meta"


def canonical_bytes(obj: Any) -> int:
    return len(json.dumps(obj, sort_keys=True, separators=(",", ":")))


@dataclass(frozen=True)
class Message:
    src: NodeId
    dst: NodeId
    payload: Any
    tag: str
    intro_ids: tuple[NodeId, ...] = ()
    # header like src/dst: routes the message to its session's handler call
    session: Hashable = None


@dataclass
class PhaseReport:
    """A phase's or session's rounds and handler calls; its sends, counted off the transcript at phase end."""

    label: str
    rounds: int = 0
    # handler calls, and those among them that had mail or sent
    calls: int = 0
    active: int = 0
    messages_adhoc: int = 0
    messages_longrange: int = 0
    bytes_total: int = 0
    max_longrange_per_node_round: int = 0


Handler = Callable[["RoundEngine", NodeId, list[Message]], bool]
"""handler(engine, v, inbox) acts for v; False asks to run next round even without mail."""


def tally(lines: Iterable[dict], key: Callable[[dict], Hashable] = lambda line: None, *,
          into: dict | None = None) -> dict[Hashable, PhaseReport]:
    """Count transcript lines into one report per group key(line), taken from `into` or made.

    A group's ad hoc and long-range messages, their bytes, and its most
    long-range sends by one node in one round, keyed by (round, src).
    Meta lines never count.
    """
    reports = {} if into is None else into
    sent: Counter = Counter()
    for line in lines:
        kind = line["channel"]
        if kind == Channel.META:
            continue
        group = key(line)
        rep = reports.get(group) or reports.setdefault(group, PhaseReport(""))
        rep.bytes_total += line["bytes"]
        if kind == Channel.ADHOC:
            rep.messages_adhoc += 1
        else:
            rep.messages_longrange += 1
            slot = (group, line["round"], line["src"])
            sent[slot] += 1
            rep.max_longrange_per_node_round = max(rep.max_longrange_per_node_round, sent[slot])
    return reports


class RoundEngine:
    def __init__(self, topo: HybridTopology):
        self.topo = topo
        self.round_no = 0
        self.total_messages = 0
        self.total_bytes = 0
        self.phase_reports: list[PhaseReport] = []
        # each keyed session's report, in the order the sessions went quiet
        self.session_reports: list[tuple[Hashable, PhaseReport]] = []
        self.transcript: list[dict] = []
        # the session whose handler runs now; sends and their lines carry it
        self.session: Hashable = None
        self._sessions: Mapping[Hashable, tuple[Iterable[NodeId], Handler, int]] | None = None
        self._outbox: list[Message] = []
        self._inbox: dict[Hashable, dict[NodeId, list[Message]]] = defaultdict(
            lambda: defaultdict(list)
        )

    # -- sending ---------------------------------------------------------

    def auto_channel(self, src: NodeId, dst: NodeId) -> Channel:
        return Channel.ADHOC if dst in self.topo.adhoc.get(src, ()) else Channel.LONGRANGE

    def send(
        self,
        src: NodeId,
        dst: NodeId,
        payload: Any = None,
        *,
        channel: Channel | None = None,
        tag: str = "",
        intro_ids: tuple[NodeId, ...] = (),
    ) -> None:
        topo = self.topo
        if src not in topo.points or dst not in topo.points:
            raise IllegalSendError(f"send {src}->{dst}: unknown endpoint")
        if src == dst:
            raise IllegalSendError(f"node {src} sending to itself")
        if channel is None:
            channel = self.auto_channel(src, dst)
        if channel is Channel.ADHOC:
            if dst not in topo.adhoc[src]:
                raise IllegalSendError(
                    f"round {self.round_no}: {src}->{dst} not a radio link"
                )
        elif channel is Channel.LONGRANGE:
            if not topo.node_knows(src, dst):
                raise IllegalSendError(
                    f"round {self.round_no}: {src} does not know id {dst}"
                )
        else:
            raise IllegalSendError(f"cannot send on channel {channel}")
        for x in intro_ids:
            if x != src and not topo.node_knows(src, x):
                raise IllegalIntroductionError(
                    f"round {self.round_no}: {src} introduces id {x} it does not know"
                )
        msg = Message(src, dst, payload, tag, tuple(intro_ids), self.session)
        self._outbox.append(msg)
        intro = sorted(intro_ids)
        nbytes = canonical_bytes({"tag": tag, "data": payload, "intro": intro})
        self._record(src, dst, channel, nbytes, canonical_bytes(intro), tag)
        self.total_messages += 1
        self.total_bytes += nbytes

    # -- round advancement -------------------------------------------------

    def step_round(self) -> None:
        """Deliver everything in flight and advance the clock."""
        self.round_no += 1
        pending, self._outbox = self._outbox, []
        for m in pending:
            self.topo.learn(m.dst, m.src)
            for x in m.intro_ids:
                self.topo.learn(m.dst, x)
            self._inbox[m.session][m.dst].append(m)

    def charge_rounds(self, n: int, label: str) -> None:
        """Account for a harness-assisted phase without simulating it; its rounds end the current one."""
        self.round_no += n
        self._record(None, None, Channel.META, 0, 0, f"charge:{label}:{n}")

    def _record(self, src: NodeId | None, dst: NodeId | None, channel: Channel, nbytes: int, intro: int, tag: str):
        """Append the transcript line of a send or a charge, with the round and the running session."""
        self.transcript.append({"round": self.round_no, "src": src, "dst": dst, "channel": channel.value,
                                "bytes": nbytes, "intro": intro, "tag": tag, "session": self.session})

    # -- phase driver ------------------------------------------------------

    def run_sessions(
        self,
        label: str,
        sessions: Mapping[Hashable, tuple[Iterable[NodeId], Handler, int]],
    ) -> dict[Hashable, PhaseReport]:
        """Run one phase for several sessions at once.

        Each session is (start, handler, max_rounds): its start nodes are
        the ones that act without mail, and it may take max_rounds rounds
        (run_phase).  A session's handler sees that session's mail only,
        and whatever it sends carries the session.  Returns one report
        per session, counting the rounds until that session went quiet.
        Raises NotReadyError, touching nothing, while a phase runs, and
        IllegalSendError, touching nothing, while mail sent outside any
        phase waits: no session may read it as its own.  An aborted
        phase leaves no mail behind (run_phase).
        """
        if self._sessions is not None:
            raise NotReadyError(f"phase {label!r} started while a phase runs")
        if self._outbox or any(self._inbox.values()):
            raise IllegalSendError(f"phase {label!r} started while undelivered mail waits")
        if not sessions:
            return {}

        def dispatch(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
            return sessions[eng.session][1](eng, v, inbox)

        self._sessions = sessions
        try:
            return self.run_phase(label, dispatch, max(cap for _, _, cap in sessions.values()))
        finally:
            self._sessions = None

    def run_phase(self, label: str, handler: Handler, max_rounds: int) -> dict[Hashable, PhaseReport]:
        """Run the sessions run_sessions set up, round by round, until quiescent.

        The wake rule: in a session's first round its start nodes are
        called; after that a node is called, in ascending id order, when
        it holds mail for the session or when its last call returned
        False.  A session is finished when no node is pending and none
        of its mail is in flight; the phase is finished when every
        session is.  A session still busy after its own max_rounds
        aborts the simulation in that round, naming the session unless
        it is keyed None; max_rounds, the largest session's, bounds the
        loop.  A handler's own SimulationAbortError and illegal sends
        pass through unchanged, and any other exception it raises is
        wrapped with its node and round.  A phase that raises drops the
        mail it left in flight and undelivered.  Returns each session's
        report.
        """
        # each running session's nodes called this round even without mail
        pending = {key: sorted(start) for key, (start, _, _) in self._sessions.items()}
        reports = {key: PhaseReport(label=label) for key in pending}
        start, first = self.round_no, len(self.transcript)
        log.debug("phase %s begins at round %d, %d sessions", label, start, len(pending))
        try:
            for rounds in range(max_rounds + 1):
                for key, due in pending.items():
                    self.session = key
                    rep = reports[key]
                    box = self._inbox.pop(key, {})
                    again = []
                    for v in sorted(box.keys() | due):
                        inbox, sent = box.pop(v, []), self.total_messages
                        try:
                            done = handler(self, v, inbox)
                        except (IllegalSendError, IllegalIntroductionError, SimulationAbortError):
                            raise
                        except Exception as e:
                            raise SimulationAbortError(v, self.round_no, e) from e
                        if not done:
                            again.append(v)
                        rep.calls += 1
                        rep.active += bool(inbox) or self.total_messages != sent
                    pending[key] = again
                self.session = None
                in_flight = {m.session for m in self._outbox}
                for key in [key for key, due in pending.items() if not due and key not in in_flight]:
                    del pending[key]
                    reports[key].rounds = rounds
                    if key is not None:
                        self.session_reports.append((key, reports[key]))
                for key in pending:
                    cap = self._sessions[key][2]
                    if rounds == cap:
                        who = "" if key is None else f" session {key!r}"
                        raise SimulationAbortError(None, self.round_no, f"phase {label!r}{who} exceeded {cap} rounds")
                if not pending:
                    break
                self.step_round()
        except Exception:
            # the phase began with no mail waiting, so all that waits now is
            # its own: drop it, so the engine can run the next phase
            self._outbox.clear()
            self._inbox.clear()
            raise
        finally:
            self.session = None
            calls, active = sum(r.calls for r in reports.values()), sum(r.active for r in reports.values())
            report = PhaseReport(label, self.round_no - start, calls, active)
            window = self.transcript[first:]
            tally(window, into={None: report})
            tally(window, lambda line: line["session"], into=reports)
            self.phase_reports.append(report)
            log.debug(
                "phase %s: %d rounds, %d handler calls, %d active, %d long-range, "
                "%d ad hoc, %d bytes, peak %d long-range per node and round",
                label, report.rounds, report.calls, report.active, report.messages_longrange,
                report.messages_adhoc, report.bytes_total, report.max_longrange_per_node_round,
            )
        return reports

    # -- transcript ----------------------------------------------------------

    def write_transcript(self, path: str | Path) -> None:
        with Path(path).open("w") as fh:
            for line in self.transcript:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
