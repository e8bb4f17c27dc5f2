"""The coordination kernel: model agents, coupling artifacts, event log.

The kernel's control flow knows nothing of the phenomenon it couples:
it reaches the models only through their interface artifacts and the
transformers it is given. Its labels do name the two levels: the payload
kinds the log records (`MicroObservation`, `FlockObservationList`,
`DisplacementList`, `CommandSet`), the agent ids (`A_m`, `A_M`) and the
artifact names (`e`, `i`) that `MultiModel` wires. They are the event
log's format, and stay here so that exported logs stay byte-identical.

Two model agents (one per level) each own a model behind an interface
artifact and exchange timestamped payloads through coupling artifacts.
Both run one cycle through the three interface methods: read, update,
step, observe, write. The run loop executes both agents in lockstep on a
single scheduler, in the only dependency order the data admits:

    micro state @T  ->  macro cycle  ->  commands @T+1..T+r  ->
    micro ticks T+1..T+r  ->  micro state @T+r

A coupling artifact's transformer maps a sequence of raw payloads to the
list of their delivered payloads, in order. A read at tick t delivers the
transformer applied to the one-element list of the payload written at t;
the audit re-applies it to many written payloads at once.

Every read and write is appended to the event log, which can be exported
and audited for causality, coherence and cardinality after the fact.
Artifacts assume this single-threaded lockstep contract: nothing but the
scheduler advances a producer clock, so a read beyond it can never be
satisfied by waiting and fails at once with a DeadlockError. A read of
a tick the producer passed without writing fails with a ProtocolError:
the lockstep schedule writes every tick its consumer reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

__all__ = [
    "ProtocolError",
    "DeadlockError",
    "SimTime",
    "LogRecord",
    "EventLog",
    "CouplingArtifact",
    "InterfaceArtifact",
    "MAgent",
    "MultiModel",
    "run",
]

SimTime = int

# payload kinds the event log records for the e and i artifacts
MICRO_OBSERVATION = "MicroObservation"
FLOCK_OBSERVATIONS = "FlockObservationList"
DISPLACEMENTS = "DisplacementList"
COMMANDS = "CommandSet"


class ProtocolError(RuntimeError):
    """A coordination-protocol violation (e.g. non-monotone write).

    Protocol violations abort the run loudly; the kernel never self-heals.
    """


class DeadlockError(RuntimeError):
    """A read beyond its producer's clock, so no agent can make progress."""


@dataclass(frozen=True)
class LogRecord:
    seq: int
    agent: str
    op: str  # "read" | "write"
    artifact: str
    timestamp: SimTime
    payload_kind: str
    payload_size: int
    payload: Any
    cycle: int | None


class EventLog:
    """Append-only, replayable record of every artifact read and write."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []

    def append(
        self,
        agent: str,
        op: str,
        artifact: str,
        timestamp: SimTime,
        payload_kind: str,
        payload: Any,
        cycle: int | None,
    ) -> None:
        self.records.append(
            LogRecord(
                seq=len(self.records),
                agent=agent,
                op=op,
                artifact=artifact,
                timestamp=timestamp,
                payload_kind=payload_kind,
                payload_size=len(payload),
                payload=payload,
                cycle=cycle,
            )
        )

    def export_lines(self) -> list[str]:
        """Newline-delimited `tick;agent;op;artifact;payload_kind;payload_size`."""
        return [
            f"{r.timestamp};{r.agent};{r.op};{r.artifact};"
            f"{r.payload_kind};{r.payload_size}"
            for r in self.records
        ]

    def __len__(self) -> int:
        return len(self.records)


class CouplingArtifact:
    """Timestamped mailbox between a producer agent and a consumer agent.

    Writes buffer raw payloads under strictly increasing timestamps and
    advance the producer clock, which starts at -1, so no write is at a
    negative tick. A read at tick t delivers
    transformer([payload written at t])[0]; that is the only delivery.
    A read beyond the producer clock raises DeadlockError at once: in the
    lockstep run only the scheduler advances the clock, so waiting could
    not help. A read or peek of a tick the producer passed without
    writing raises ProtocolError. A failed read logs nothing.

    The transformer maps a sequence of raw payloads to the list of their
    delivered payloads, in order; a read or peek applies it to a
    one-element list, and the audit to many at once. It must be a
    deterministic pure function of each payload alone, so repeated reads
    are idempotent and a payload is delivered alike in any batch; it may
    shrink or grow a payload's cardinality. The default delivers every
    payload as written.
    """

    def __init__(
        self,
        name: str,
        transformer: Callable[[list], list] | None = None,
        write_kind: str = "payload",
        read_kind: str = "payload",
        log: EventLog | None = None,
    ) -> None:
        self.name = name
        self.transformer = transformer or list
        self.write_kind = write_kind
        self.read_kind = read_kind
        self.log = log if log is not None else EventLog()
        self.buffer: dict[SimTime, Any] = {}
        self.producer_clock: SimTime = -1

    def write(
        self, t: SimTime, payload: Any, agent: str = "external", cycle: int | None = None
    ) -> None:
        if t <= self.producer_clock:
            raise ProtocolError(
                f"{self.name}: {agent} non-monotone write at t={t} "
                f"(producer clock {self.producer_clock})"
            )
        self.buffer[t] = payload
        self.producer_clock = t
        self.log.append(agent, "write", self.name, t, self.write_kind, payload, cycle)

    def _deliver(self, t: SimTime, what: str) -> Any:
        try:
            payload = self.buffer[t]
        except KeyError:
            raise ProtocolError(
                f"{self.name}: {what} at t={t}, which the producer passed "
                f"without writing (producer clock {self.producer_clock})"
            ) from None
        return self.transformer([payload])[0]

    def read(
        self, t: SimTime, agent: str = "external", cycle: int | None = None
    ) -> Any:
        if t > self.producer_clock:
            raise DeadlockError(
                f"{self.name}: {agent} read at t={t} beyond the producer "
                f"clock {self.producer_clock}"
            )
        payload = self._deliver(t, f"{agent} read")
        self.log.append(agent, "read", self.name, t, self.read_kind, payload, cycle)
        return payload

    def peek(self, t: SimTime) -> Any:
        """Transformed payload at t without logging."""
        if self.producer_clock < t:
            raise ProtocolError(f"{self.name}: peek at t={t} beyond producer clock")
        return self._deliver(t, "peek")


class InterfaceArtifact(Protocol):
    """The whole contract between a model agent and its wrapped model.

    update_model gets the agent's input, or None when unwired;
    observe_model gives the agent's output.
    """

    def update_model(self, data: Any) -> None: ...

    def step_model(self) -> None: ...

    def observe_model(self) -> Any: ...


class MAgent:
    """A model agent: owns one model, cycles read -> update -> step ->
    observe -> write. Either coupling artifact may be None (unwired).
    """

    agent_id: str

    def __init__(
        self,
        interface: InterfaceArtifact,
        input: CouplingArtifact | None,
        output: CouplingArtifact | None,
        ratio: int,
    ) -> None:
        self.interface = interface
        self.input = input
        self.output = output
        self.ratio = ratio
        self.local_clock: SimTime = 0
        self.cycle_index = 0

    def _update(self, t: SimTime) -> None:
        data = None
        if self.input is not None:
            data = self.input.read(t, self.agent_id, self.cycle_index)
        self.interface.update_model(data)


class MicroMAgent(MAgent):
    """Drives the lower-level model one tick per cycle.

    Reads the input for the upcoming tick, steps the model, and writes
    its observation to the output at period boundaries only.
    """

    agent_id = "A_m"

    def publish_initial(self) -> None:
        self.output.write(0, self.interface.observe_model(), self.agent_id, cycle=None)

    def cycle(self) -> None:
        self.cycle_index += 1
        t = self.local_clock + 1
        self._update(t)
        self.interface.step_model()
        self.local_clock = t
        if t % self.ratio == 0:
            self.output.write(
                t, self.interface.observe_model(), self.agent_id, self.cycle_index
            )


class MacroMAgent(MAgent):
    """Drives the upper-level model one period (r lower-level ticks) per cycle.

    Reads the boundary input and updates the model. When an output is
    wired, it also steps the model and writes its observation once per
    lower-level tick of the period; otherwise it only reads.
    """

    agent_id = "A_M"

    def cycle(self) -> None:
        self.cycle_index += 1
        t = self.local_clock
        self._update(t)
        if self.output is not None:
            self.interface.step_model()
            observation = self.interface.observe_model()
            for k in range(1, self.ratio + 1):
                self.output.write(t + k, observation, self.agent_id, self.cycle_index)
        self.local_clock = t + self.ratio


class MultiModel:
    """`MultiModel` is the one place where a run is wired. From the two
    interface artifacts, the emergence transformer, the immergence
    transformer (or None for upward-only coupling), one ratio and the
    horizon, it builds one event log, the `e` and `i` coupling artifacts and
    both model agents. The macro agent steps its model exactly when the `i`
    artifact is wired.
    """

    def __init__(
        self,
        micro: InterfaceArtifact,
        macro: InterfaceArtifact,
        emergence: Callable[[list], list],
        immergence: Callable[[list], list] | None,
        ratio: int,
        horizon: SimTime,
    ) -> None:
        if ratio < 1:
            raise ValueError("both agents share one ratio, which must be >= 1")
        if horizon < 0 or horizon % ratio != 0:
            raise ValueError("horizon must be a non-negative multiple of the ratio")
        self.ratio = ratio
        self.horizon = horizon
        self.log = EventLog()
        self.emergence = CouplingArtifact(
            "e", emergence, MICRO_OBSERVATION, FLOCK_OBSERVATIONS, self.log
        )
        self.immergence = None
        if immergence is not None:
            self.immergence = CouplingArtifact(
                "i", immergence, DISPLACEMENTS, COMMANDS, self.log
            )
        self.micro_agent = MicroMAgent(micro, self.immergence, self.emergence, ratio)
        self.macro_agent = MacroMAgent(macro, self.emergence, self.immergence, ratio)


def run(multi_model: MultiModel) -> EventLog:
    """Execute the multi-model up to its horizon and return the event log.

    The micro model seeds the exchange by publishing its initial state at
    tick 0; each macro period then runs one macro cycle followed by r
    micro cycles. The per-period dependency order is acyclic, so the loop
    always terminates after horizon micro steps.
    """
    mm = multi_model
    mm.micro_agent.publish_initial()
    try:
        for period_start in range(0, mm.horizon, mm.ratio):
            agent, tick = mm.macro_agent, period_start
            agent.cycle()
            for _ in range(mm.ratio):
                agent, tick = mm.micro_agent, mm.micro_agent.local_clock + 1
                agent.cycle()
    except (ProtocolError, DeadlockError):
        raise
    except Exception as exc:
        raise RuntimeError(
            f"interface artifact failure in {agent.agent_id} at tick {tick}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return mm.log
