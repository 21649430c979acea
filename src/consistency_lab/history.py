"""Operation histories: call/response event sequences over a read/write key-value store.

A history is a finite sequence of call and response events.  Each event names a
process, an operation kind (GET or PUT), a key, and -- where applicable -- a
value: a PUT carries its argument on the call event, a GET carries its return
value on the response event.  A call and its response are paired by op_id.

Every key starts at a distinguished initial value (``INITIAL``, rendered as
``-`` in the text format) which a GET may legally return before any PUT.

Text format, one event per line::

    <seq> <process> <call|resp> <GET|PUT> <key> [<value>] <op_id>

The value field is present exactly on PUT calls and GET responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

INITIAL = None
INITIAL_TOKEN = "-"

CALL = "call"
RESP = "resp"
GET = "GET"
PUT = "PUT"


class HistoryError(Exception):
    """Malformed history (unpaired events, bad file syntax, ...)."""


class HistoryEvent(NamedTuple):
    kind: str  # CALL or RESP
    process: str
    op: str  # GET or PUT
    key: str
    value: object  # PUT argument on call, GET return on resp, else None
    op_id: int


@dataclass
class Operation:
    """A call event plus (optionally) its matching response."""

    op_id: int
    process: str
    op: str
    key: str
    value: object  # PUT argument, or GET return value (None while pending)
    call_index: int
    resp_index: int | None = None

    @property
    def complete(self) -> bool:
        return self.resp_index is not None


@dataclass
class History:
    events: list[HistoryEvent] = field(default_factory=list)

    def append(self, ev: HistoryEvent):
        self.events.append(ev)

    def record_call(self, process, op, key, value, op_id):
        self.append(HistoryEvent(CALL, process, op, str(key), value, op_id))

    def record_resp(self, process, op, key, value, op_id):
        self.append(HistoryEvent(RESP, process, op, str(key), value, op_id))

    def __len__(self):
        return len(self.events)

    def operations(self) -> list[Operation]:
        """Pair calls with matching responses, preserving call order.

        Raises HistoryError on a response without a preceding call, on
        mismatched call/response attributes, or on a duplicated op_id.
        """
        ops: dict[int, Operation] = {}
        order: list[Operation] = []
        for i, (kind, process, op, key, value, op_id) in enumerate(self.events):
            if kind == CALL:
                if op_id in ops:
                    raise HistoryError(f"duplicate call for op_id {op_id}")
                o = Operation(op_id, process, op, key, value, i)
                ops[op_id] = o
                order.append(o)
            elif kind == RESP:
                o = ops.get(op_id)
                if o is None:
                    raise HistoryError(f"response without call: op_id {op_id}")
                if o.resp_index is not None:
                    raise HistoryError(f"duplicate response for op_id {op_id}")
                if o.process != process or o.key != key or o.op != op:
                    raise HistoryError(f"response does not match call: op_id {op_id}")
                o.resp_index = i
                if o.op == GET:
                    o.value = value
            else:
                raise HistoryError(f"unknown event kind {kind!r}")
        return order

    def complete_operations(self) -> list[Operation]:
        """The operations of complete(H): calls with a matching response."""
        return [o for o in self.operations() if o.complete]

    def subhistory(self, process: str) -> "History":
        return History([e for e in self.events if e.process == process])

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for i, (kind, process, op, key, value, op_id) in enumerate(self.events):
            has_value = (op == PUT and kind == CALL) or (op == GET and kind == RESP)
            parts = [str(i), process, kind, op, str(key)]
            if has_value:
                parts.append(INITIAL_TOKEN if value is INITIAL else str(value))
            parts.append(str(op_id))
            lines.append(" ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "History":
        events = []
        append = events.append
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                line = line.split("#", 1)[0]
            parts = line.split()
            if not parts:
                continue
            n = len(parts)
            if n != 6 and n != 7:
                raise HistoryError(f"line {lineno}: expected 6 or 7 fields, got {n}")
            _, process, kind, op, key = parts[:5]
            if kind != CALL and kind != RESP:
                raise HistoryError(f"line {lineno}: bad event kind {kind!r}")
            if op != GET and op != PUT:
                raise HistoryError(f"line {lineno}: bad operation {op!r}")
            if (op == PUT) == (kind == CALL):  # PUT call or GET response
                if n != 7:
                    raise HistoryError(f"line {lineno}: missing value field")
                token = parts[5]
                value = INITIAL if token == INITIAL_TOKEN else _parse_value(token)
            else:
                if n != 6:
                    raise HistoryError(f"line {lineno}: unexpected value field")
                value = None
            try:
                op_id = int(parts[-1])
            except ValueError:
                raise HistoryError(f"line {lineno}: bad op_id {parts[-1]!r}") from None
            append(HistoryEvent(kind, process, op, key, value, op_id))
        h = cls(events)
        h.operations()  # validate pairing
        return h


def _parse_value(token: str):
    try:
        return int(token)
    except ValueError:
        return token
