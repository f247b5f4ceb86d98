#!/usr/bin/env python3
"""Validator for the trace-event JSON the simulators emit.

Checks the Chrome trace-event files written by `--trace-out`
(optiplet_serve, lone or rack) without any third-party tooling:

* the file parses as a JSON object with a `traceEvents` array
* every event carries the required keys (`name`, `ph`, `ts`, `pid`,
  `tid`), a known phase (`X` complete / `i` instant / `M` metadata),
  finite non-negative timestamps, and a non-negative `dur` on complete
  spans
* timestamps are monotone non-decreasing within every (pid, tid) track
  (the writer sorts stably by ts; a violation means a corrupted merge)
* per package (pid), the request-span census reconciles with that
  package's `serving_totals` summary instant exactly:
  offered == request spans == completed + shed + abandoned spans (an
  abandoned span is a client whose retry budget ran out — see
  docs/elastic-operation.md), and every shed span is zero-duration with
  a `shed_reason` tag

See docs/observability.md for the span taxonomy. CI's bench-smoke job
runs this on a diurnal-trace artifact; `tests/obs/` covers the same
invariants in-process.

Usage: check_trace_json.py FILE [FILE ...]
Exits non-zero on any violation.
"""

import json
import math
import sys

PHASES = {"X", "i", "M"}
REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def fail(failures, path, message):
    failures.append(f"{path}: {message}")


def check_schema(path, events, failures):
    """Per-event key/type checks; returns only the well-formed events."""
    good = []
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            fail(failures, path, f"{where}: not an object")
            continue
        missing = [k for k in REQUIRED_KEYS if k not in event]
        if missing:
            fail(failures, path, f"{where}: missing keys {missing}")
            continue
        if event["ph"] not in PHASES:
            fail(failures, path, f"{where}: unknown phase {event['ph']!r}")
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            fail(failures, path, f"{where}: bad ts {ts!r}")
            continue
        if event["ph"] == "X":
            dur = event.get("dur")
            if (
                not isinstance(dur, (int, float))
                or not math.isfinite(dur)
                or dur < 0
            ):
                fail(failures, path, f"{where}: bad dur {dur!r}")
                continue
        good.append(event)
    return good


def check_monotone_tracks(path, events, failures):
    """File order must be non-decreasing in ts within every track."""
    last = {}
    for event in events:
        if event["ph"] == "M":
            continue
        track = (event["pid"], event["tid"])
        if track in last and event["ts"] < last[track]:
            fail(
                failures,
                path,
                f"track pid={track[0]} tid={track[1]}: ts {event['ts']} "
                f"after {last[track]}",
            )
        last[track] = event["ts"]


def check_request_reconciliation(path, events, failures):
    """offered == request spans == completed + shed + abandoned, per pid."""
    spans = {}  # pid -> [completed, shed, abandoned]
    totals = {}  # pid -> {offered, completed, shed, abandoned}
    for event in events:
        args = event.get("args", {})
        if event["ph"] == "X" and event["name"] == "request":
            counts = spans.setdefault(event["pid"], [0, 0, 0])
            outcome = args.get("outcome")
            if outcome == "completed":
                counts[0] += 1
            elif outcome == "abandoned":
                counts[2] += 1
            elif outcome == "shed":
                counts[1] += 1
                if event.get("dur", 0) != 0:
                    fail(
                        failures,
                        path,
                        f"pid {event['pid']}: shed request span with "
                        f"nonzero dur {event['dur']}",
                    )
                if not args.get("shed_reason"):
                    fail(
                        failures,
                        path,
                        f"pid {event['pid']}: shed request span without "
                        "a shed_reason tag",
                    )
            else:
                fail(
                    failures,
                    path,
                    f"pid {event['pid']}: request span with outcome "
                    f"{outcome!r}",
                )
        elif event["ph"] == "i" and event["name"] == "serving_totals":
            if event["pid"] in totals:
                fail(
                    failures,
                    path,
                    f"pid {event['pid']}: duplicate serving_totals",
                )
            totals[event["pid"]] = args
    if not totals and spans:
        fail(failures, path, "request spans but no serving_totals instant")
    for pid, args in sorted(totals.items()):
        completed, shed, abandoned = spans.get(pid, [0, 0, 0])
        try:
            offered = int(args["offered"])
            reported_completed = int(args["completed"])
            reported_shed = int(args["shed"])
            # Older traces predate the elastic retry path and carry no
            # abandoned counter; their census has no abandoned spans.
            reported_abandoned = int(args.get("abandoned", 0))
        except (KeyError, TypeError, ValueError):
            fail(failures, path, f"pid {pid}: malformed serving_totals args")
            continue
        if offered != reported_completed + reported_shed + reported_abandoned:
            fail(
                failures,
                path,
                f"pid {pid}: offered {offered} != completed "
                f"{reported_completed} + shed {reported_shed} + abandoned "
                f"{reported_abandoned}",
            )
        if (completed, shed, abandoned) != (
            reported_completed,
            reported_shed,
            reported_abandoned,
        ):
            fail(
                failures,
                path,
                f"pid {pid}: span census ({completed} completed, {shed} "
                f"shed, {abandoned} abandoned) disagrees with "
                f"serving_totals ({reported_completed}, {reported_shed}, "
                f"{reported_abandoned})",
            )


def check_file(path):
    failures = []
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: cannot parse ({error})"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: no traceEvents array"]
    if not events:
        return [f"{path}: empty traceEvents"]
    good = check_schema(path, events, failures)
    check_monotone_tracks(path, good, failures)
    check_request_reconciliation(path, good, failures)
    if not failures:
        packages = {e["pid"] for e in good if e["ph"] != "M"}
        print(
            f"{path}: OK ({len(good)} events, "
            f"{len(packages)} process(es))"
        )
    return failures


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    for path in argv[1:]:
        failures.extend(check_file(path))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
