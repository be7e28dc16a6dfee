#!/usr/bin/env python3
"""Schema check for the rql server's kStats JSON document (stdlib only).

Usage: check_server_json.py STATS.json
       rql_shell --connect SOCKET --pull-stats | check_server_json.py -

Validates the wire-protocol stats document CI pulls from a live
rql_serverd: the six sections (server, scheduler, scan_cache,
snapshot_cache, store, snapids),
their field types, and the internal invariants a healthy server must
satisfy. Exits non-zero with a path-qualified message on the first
violation.
"""

import json
import sys

SECTIONS = {
    "server": {
        "active_sessions": int,
        "sessions_opened": int,
        "max_sessions": int,
        "runs_completed": int,
    },
    "scheduler": {
        "queued": int,
        "active": int,
        "queue_limit": int,
        "worker_budget": int,
        "admission_rejects": int,
        "completed": int,
        "cancelled": int,
    },
    "scan_cache": {
        "shared_hits": int,
        "misses": int,
        "coalesced_decodes": int,
        "inserts": int,
        "entries": int,
        "bytes": int,
        "retired": int,
    },
    "snapshot_cache": {
        "pages": int,
        "capacity_pages": int,
        "hits": int,
        "misses": int,
        "evictions": int,
        "shards": int,
    },
    "store": {
        "earliest_snapshot": int,
        "latest_snapshot": int,
    },
    "snapids": {
        "rows": int,
        "mirrored_rows": int,
        "rebuilds": int,
    },
}


class SchemaError(Exception):
    pass


def require(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def check_stats(doc):
    require(isinstance(doc, dict), "$", "expected object")
    for section, fields in SECTIONS.items():
        require(section in doc, "$", f"missing section '{section}'")
        obj = doc[section]
        require(isinstance(obj, dict), f"$.{section}", "expected object")
        for name, typ in fields.items():
            require(name in obj, f"$.{section}", f"missing field '{name}'")
            require(
                isinstance(obj[name], typ) and not isinstance(obj[name], bool),
                f"$.{section}.{name}", f"expected {typ.__name__}")

    server = doc["server"]
    require(0 <= server["active_sessions"] <= server["max_sessions"],
            "$.server", "active_sessions outside [0, max_sessions]")
    require(server["sessions_opened"] >= server["active_sessions"],
            "$.server", "fewer sessions opened than active")

    sched = doc["scheduler"]
    require(sched["queued"] >= 0 and sched["active"] >= 0, "$.scheduler",
            "negative queue depth")
    require(sched["queued"] <= sched["queue_limit"], "$.scheduler",
            "queued beyond the admission limit")
    require(sched["cancelled"] <= sched["completed"], "$.scheduler",
            "more cancellations than completions")

    cache = doc["scan_cache"]
    require(cache["inserts"] <= cache["misses"], "$.scan_cache",
            "more publishes than claimed decodes")
    require(cache["entries"] <= cache["inserts"], "$.scan_cache",
            "more resident entries than publishes")
    require((cache["bytes"] > 0) == (cache["entries"] > 0), "$.scan_cache",
            "bytes/entries disagree about residency")
    require(cache["retired"] >= 0, "$.scan_cache.retired", "negative count")

    pool = doc["snapshot_cache"]
    for name, value in pool.items():
        require(value >= 0, f"$.snapshot_cache.{name}", "negative count")
    # capacity_pages 0 means unbounded. Each shard holds ceil(capacity /
    # shards) pages, so the bound is exact only when the shards divide the
    # capacity; otherwise it can be exceeded by up to shards - 1 pages.
    if pool["capacity_pages"] > 0:
        require(pool["shards"] > 0, "$.snapshot_cache.shards",
                "no shards")
        slack = (pool["shards"] - 1
                 if pool["capacity_pages"] % pool["shards"] else 0)
        require(pool["pages"] <= pool["capacity_pages"] + slack,
                "$.snapshot_cache", "more resident pages than the capacity")

    store = doc["store"]
    require(store["earliest_snapshot"] <= store["latest_snapshot"] + 1,
            "$.store", "earliest snapshot beyond latest+1")

    snapids = doc["snapids"]
    for name, value in snapids.items():
        require(value >= 0, f"$.snapids.{name}", "negative count")
    # Session mirrors only rebuild after a truncation moved the canonical
    # log's epoch (or a client ROLLBACK undid mirrored rows).
    if store["earliest_snapshot"] <= 1:
        require(snapids["rebuilds"] <= server["sessions_opened"], "$.snapids",
                "more mirror rebuilds than sessions without a truncation")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        if sys.argv[1] == "-":
            doc = json.load(sys.stdin)
        else:
            with open(sys.argv[1]) as f:
                doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_server_json: cannot load {sys.argv[1]}: {e}",
              file=sys.stderr)
        return 1
    try:
        check_stats(doc)
    except SchemaError as e:
        print(f"check_server_json: {e}", file=sys.stderr)
        return 1
    print(f"check_server_json: ok (sessions={doc['server']['active_sessions']}"
          f", runs_completed={doc['server']['runs_completed']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
