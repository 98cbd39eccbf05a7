#!/usr/bin/env python3
"""CI smoke check for the observability artifacts.

Usage: check_observability.py TRACE_JSON METRICS_PROM [POSTMORTEM_JSON]
       check_observability.py --merged MERGED_JSON

Validates that a `vlsa_tool loadgen --trace-out ... --metrics-out ...`
run produced (1) a well-formed Chrome trace_event document with the
expected event taxonomy and recovery-span args, (2) a parseable
Prometheus exposition file carrying the service counters, and
(3, optional) a postmortem dump whose records are self-consistent.

With --merged, validates a `vlsa_tool trace --merge` artifact instead:
at least two pids (one per source process), and at least one sampled
request id that appears on a client span (client-send/client-recv) AND
a server span (net-serve) — the distributed-trace join actually joined.
Exits non-zero with a message on the first violation.
"""

import json
import re
import sys

EXPECTED_EVENT_NAMES = {
    "submit",
    "queue-wait",
    "engine-eval",
    "er-check",
    "recovery",
    "complete",
    "net-accept",
    "net-read",
    "net-decode",
    "net-dispatch",
    "net-write",
    "net-close",
    "client-send",
    "client-recv",
    "net-serve",
}

CLIENT_SPANS = {"client-send", "client-recv"}
SERVER_SPANS = {"net-serve"}


def fail(message):
    print(f"check_observability: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)  # raises (and fails the job) on malformed JSON
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")
    seen = set()
    for event in events:
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            fail(f"{path}: unexpected phase {phase!r}")
        if phase == "M":
            continue
        name = event.get("name")
        if name not in EXPECTED_EVENT_NAMES:
            fail(f"{path}: unknown event name {name!r}")
        seen.add(name)
        if not isinstance(event.get("ts"), (int, float)):
            fail(f"{path}: event without numeric ts: {event}")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            fail(f"{path}: complete span without dur: {event}")
        if name == "recovery":
            args = event.get("args", {})
            for key in ("batch", "lane", "k", "er", "chain", "a_lo", "b_lo"):
                if key not in args:
                    fail(f"{path}: recovery span missing arg {key!r}")
            if args["er"] != 1:
                fail(f"{path}: recovery span with er != 1")
            if args["chain"] < args["k"]:
                fail(f"{path}: recovery chain {args['chain']} < k {args['k']}"
                     " (flag fired without a >=k propagate run)")
        if name in CLIENT_SPANS | SERVER_SPANS:
            if "req" not in event.get("args", {}):
                fail(f"{path}: {name} span without a req id (the"
                     " distributed-trace join key)")
    # submit/engine-eval always fire under default sampling; recovery
    # only if the workload flagged, so don't require it here.
    for required in ("submit", "engine-eval", "complete"):
        if required not in seen:
            fail(f"{path}: no {required!r} events recorded")
    print(f"  trace ok: {len(events)} events, names {sorted(seen)}")


# A sample value is an integer, a float, NaN, +Inf, or -Inf (the last
# three appear on empty summary quantiles and histogram bucket bounds).
METRIC_LINE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? (-?[0-9][0-9.eE+-]*|NaN|[+-]Inf)$")


def check_metrics(path):
    required = {
        "vlsa_service_submitted",
        "vlsa_service_completed",
        "vlsa_service_batches",
        "vlsa_drift_windows",
        "vlsa_service_latency_ns_min",
        "vlsa_service_latency_ns_max",
    }
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    if not lines:
        fail(f"{path}: empty metrics file")
    samples = 0
    for line in lines:
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "summary", "histogram"):
                fail(f"{path}: malformed TYPE line: {line}")
            continue
        if line.startswith("#"):
            continue
        if not METRIC_LINE.match(line):
            fail(f"{path}: malformed sample line: {line}")
        samples += 1
        required.discard(line.split("{")[0].split()[0])
    if required:
        fail(f"{path}: missing metrics {sorted(required)}")
    print(f"  metrics ok: {samples} samples")


def check_postmortem(path):
    with open(path) as f:
        doc = json.load(f)
    records = doc.get("records")
    if records is None:
        fail(f"{path}: no records array")
    if len(records) > doc.get("capacity", 0):
        fail(f"{path}: more records than capacity")
    for record in records:
        for key in ("sequence", "a", "b", "k", "chain", "wrong", "batch",
                    "lane"):
            if key not in record:
                fail(f"{path}: record missing {key!r}")
        if record["chain"] < record["k"]:
            fail(f"{path}: record chain {record['chain']} < k {record['k']}")
    print(f"  postmortem ok: {len(records)} records"
          f" of {doc.get('total_recorded')} total")


def check_merged(path):
    """Validate a `vlsa_tool trace --merge` artifact: client and server
    exports stitched into one timeline, joined on sampled request ids."""
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")
    pids = set()
    names = {}  # pid -> process_name label
    client_reqs = set()
    server_reqs = set()
    for event in events:
        pid = event.get("pid")
        if not isinstance(pid, int):
            fail(f"{path}: event without integer pid: {event}")
        pids.add(pid)
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                names[pid] = event.get("args", {}).get("name")
            continue
        name = event.get("name")
        req = event.get("args", {}).get("req")
        if name in CLIENT_SPANS and req is not None:
            client_reqs.add(req)
        if name in SERVER_SPANS and req is not None:
            server_reqs.add(req)
    if len(pids) < 2:
        fail(f"{path}: merged trace has {len(pids)} pid(s); expected one"
             " per source process")
    matched = client_reqs & server_reqs
    if not matched:
        fail(f"{path}: no request id appears on both a client span"
             f" ({len(client_reqs)} client ids) and a server span"
             f" ({len(server_reqs)} server ids) — the merge joined nothing")
    label = ", ".join(f"pid {p} = {names.get(p)!r}" for p in sorted(pids))
    print(f"  merged ok: {len(events)} events across {len(pids)} sources"
          f" ({label}); {len(matched)} request id(s) joined end-to-end")


def main(argv):
    if len(argv) >= 3 and argv[1] == "--merged":
        check_merged(argv[2])
        print("check_observability: OK")
        return 0
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    check_trace(argv[1])
    check_metrics(argv[2])
    if len(argv) > 3:
        check_postmortem(argv[3])
    print("check_observability: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
