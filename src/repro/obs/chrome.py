"""Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).

The recorder's events map 1:1 onto the Trace Event Format's ``B``/``E``/
``X``/``i``/``C`` phases. Track names — ``("isa", "cpu")``,
``("memory", "L1")``, ``("threads", "core 0")`` — become numbered
pid/tid pairs with ``process_name``/``thread_name`` metadata events, so
each simulator gets its own process lane and each cache level / core /
kernel process its own thread row.

:func:`validate` checks the invariants the acceptance gate (and the CI
smoke job) cares about: every event carries ``ph``/``ts``/``pid``/
``tid``/``name``, ``X`` events carry a non-negative ``dur``, and every
``B`` has a matching ``E`` on the same track (proper nesting, names
matched on close). :func:`validate_file` does the same for a file on
disk and can also require named lanes; it backs the command line::

    python -m repro trace validate cluster.json --lane node0 --lane node1
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable

from repro.errors import ObsError
from repro.obs.recorder import NullRecorder, TraceRecorder

#: keys every exported event must carry (the acceptance-criteria set)
REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")

_VALID_PHASES = {"B", "E", "X", "i", "C", "M"}


def _track_numbers(events) -> tuple[dict[str, int],
                                    dict[tuple[str, str], int]]:
    """Stable pid/tid numbering in order of first appearance."""
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    for ev in events:
        if ev.pid not in pids:
            pids[ev.pid] = len(pids) + 1
        key = (ev.pid, ev.tid)
        if key not in tids:
            tids[key] = len([t for t in tids if t[0] == ev.pid]) + 1
    return pids, tids


def to_chrome(recorder: TraceRecorder | NullRecorder) -> dict[str, Any]:
    """Render the recorder's buffer as a Trace Event Format document."""
    events = recorder.events()
    pids, tids = _track_numbers(events)
    out: list[dict[str, Any]] = []
    # metadata first: name every process and thread lane
    for name, pid in pids.items():
        out.append({"ph": "M", "ts": 0, "pid": pid, "tid": 0,
                    "name": "process_name", "args": {"name": name}})
    for (pname, tname), tid in tids.items():
        out.append({"ph": "M", "ts": 0, "pid": pids[pname], "tid": tid,
                    "name": "thread_name", "args": {"name": tname}})
    for ev in events:
        rec: dict[str, Any] = {
            "ph": ev.ph, "ts": ev.ts, "name": ev.name,
            "pid": pids[ev.pid], "tid": tids[(ev.pid, ev.tid)],
        }
        if ev.ph == "X":
            rec["dur"] = ev.dur
        if ev.ph == "i":
            rec["s"] = "t"          # instant scoped to its thread
        if ev.cat is not None:
            rec["cat"] = ev.cat
        if ev.args is not None:
            rec["args"] = ev.args
        out.append(rec)
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "dropped_events": recorder.dropped,
        },
    }


def validate(doc: dict[str, Any]) -> int:
    """Check a trace document against the trace-event schema subset.

    Returns the number of events validated; raises :class:`ObsError`
    describing the first violation. This is what the CI smoke job runs
    over ``python -m repro trace`` output.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ObsError("trace document must be an object with traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ObsError("traceEvents must be an array")
    open_spans: dict[tuple[Any, Any], list[str]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ObsError(f"event #{i} is not an object")
        for key in REQUIRED_KEYS:
            if key not in ev:
                raise ObsError(f"event #{i} ({ev.get('name')!r}) "
                               f"is missing required key {key!r}")
        ph = ev["ph"]
        if ph not in _VALID_PHASES:
            raise ObsError(f"event #{i} has unknown phase {ph!r}")
        if not isinstance(ev["ts"], (int, float)):
            raise ObsError(f"event #{i} ts must be a number")
        track = (ev["pid"], ev["tid"])
        if ph == "X":
            if "dur" not in ev or not isinstance(ev["dur"], (int, float)):
                raise ObsError(f"X event #{i} ({ev['name']!r}) "
                               "needs a numeric dur")
            if ev["dur"] < 0:
                raise ObsError(f"X event #{i} has negative dur")
        elif ph == "B":
            open_spans.setdefault(track, []).append(ev["name"])
        elif ph == "E":
            stack = open_spans.get(track)
            if not stack:
                raise ObsError(f"E event #{i} ({ev['name']!r}) on track "
                               f"{track} closes nothing")
            opened = stack.pop()
            if opened != ev["name"]:
                raise ObsError(
                    f"E event #{i} closes {ev['name']!r} but "
                    f"{opened!r} is open on track {track}")
    leftovers = {t: s for t, s in open_spans.items() if s}
    if leftovers:
        track, stack = next(iter(leftovers.items()))
        raise ObsError(f"B event {stack[-1]!r} on track {track} "
                       "was never closed")
    return len(events)


def validate_file(path: str, lanes: Iterable[str] = ()) -> int:
    """Load and :func:`validate` a trace file, requiring every lane in
    ``lanes`` to be named by a ``thread_name`` metadata event.

    Returns the number of events validated; raises :class:`ObsError`
    for an unreadable file, an invalid document or a missing lane.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise ObsError(f"cannot read trace {path!r}: {exc}") from exc
    count = validate(doc)
    present = {ev["args"].get("name") for ev in doc["traceEvents"]
               if ev["ph"] == "M" and ev["name"] == "thread_name"
               and isinstance(ev.get("args"), dict)}
    missing = [lane for lane in lanes if lane not in present]
    if missing:
        raise ObsError(f"trace {path!r} has no thread_name lane "
                       f"{', '.join(map(repr, missing))}; lanes: "
                       f"{', '.join(sorted(map(str, present)))}")
    return count


VALIDATE_USAGE = """\
usage: python -m repro trace validate FILE [--lane NAME ...]

Checks FILE against the trace-event schema subset (see
repro.obs.chrome.validate) and, for each --lane, that a thread lane of
that name exists. Prints the event count; exits 1 on an invalid trace."""


def validate_main(argv: list[str]) -> int:
    """``python -m repro trace validate``: 0 valid, 1 invalid, 2 usage."""
    path = None
    lanes: list[str] = []
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in ("-h", "--help"):
            print(VALIDATE_USAGE)
            return 0
        if arg == "--lane":
            if not args:
                print("error: --lane needs a lane name")
                return 2
            lanes.append(args.pop(0))
        elif arg.startswith("-") or path is not None:
            print(f"error: unexpected argument {arg!r}\n{VALIDATE_USAGE}")
            return 2
        else:
            path = arg
    if path is None:
        print(VALIDATE_USAGE)
        return 2
    try:
        count = validate_file(path, lanes)
    except ObsError as exc:
        print(f"error: {exc}")
        return 1
    suffix = f", lanes {', '.join(lanes)} present" if lanes else ""
    print(f"{path}: {count} events valid{suffix}")
    return 0


def write_chrome(recorder: TraceRecorder | NullRecorder,
                 path_or_file: str | IO[str]) -> int:
    """Export, validate, and write the trace; returns the event count."""
    doc = to_chrome(recorder)
    count = validate(doc)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file, indent=1)
    else:
        with open(path_or_file, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return count
