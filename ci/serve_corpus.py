#!/usr/bin/env python3
"""Drive a running tersoff-serve on 127.0.0.1:7171 through the whole corpus.

First posts one scenario asking for 33 threads and expects a 400: no
phase splits into more than 32 chunks, so the server caps what a client may
make it spawn. Then submits every scenarios/*.json, polls every job to an
ok terminal status, replays one NDJSON event stream and sanity-checks
/metrics (whose submitted count also shows the refused post queued nothing).
"""
import glob
import json
import time
import urllib.error
import urllib.request

BASE = "http://127.0.0.1:7171"

def req(method, path, data=None):
    r = urllib.request.Request(BASE + path, data=data, method=method)
    with urllib.request.urlopen(r, timeout=60) as resp:
        return json.loads(resp.read())

# The served thread cap: refused, with the key named, before any job exists.
with open("scenarios/sic_alloy.json") as f:
    spec = json.load(f)
spec["potential"]["threads"] = 33
try:
    req("POST", "/v1/jobs", json.dumps(spec).encode())
    raise AssertionError("a 33-thread scenario was accepted")
except urllib.error.HTTPError as e:
    assert e.code == 400, e.code
    error = json.loads(e.read())["error"]
    assert "potential.threads" in error, error
print("33 threads refused with 400:", error)

ids = []
for path in sorted(glob.glob("scenarios/*.json")):
    with open(path, "rb") as f:
        out = req("POST", "/v1/jobs", f.read())
    print(f"{path}: {len(out['jobs'])} job(s) accepted "
          f"({out['scenario']}, {out['steps']} steps)")
    ids += [job["id"] for job in out["jobs"]]
assert ids, "no jobs accepted"

deadline = time.time() + 1500
terminal = {}
while len(terminal) < len(ids):
    assert time.time() < deadline, \
        f"drain timed out: {len(terminal)}/{len(ids)} terminal"
    for id in ids:
        if id in terminal:
            continue
        status = req("GET", f"/v1/jobs/{id}")
        if status["done"]:
            terminal[id] = status["status"]
    time.sleep(1)
bad = {i: s for i, s in terminal.items() if s != "ok"}
assert not bad, f"non-ok jobs: {bad}"
print(f"all {len(ids)} jobs terminal and ok")

# One event stream must replay the full lifecycle with exact bits.
with urllib.request.urlopen(
    f"{BASE}/v1/jobs/{ids[0]}/events", timeout=60
) as resp:
    events = [json.loads(line) for line in resp.read().splitlines()]
kinds = [e["event"] for e in events]
assert kinds[0] == "queued", kinds
assert kinds[1] == "started", kinds
assert kinds[-1] == "finished", kinds
assert any(e["event"] == "thermo" and "total_energy_bits" in e
           for e in events), kinds
print(f"job {ids[0]} stream: {len(events)} events, lifecycle ok")

# /metrics sanity: one consistent stats snapshot, jobs accounted.
with urllib.request.urlopen(f"{BASE}/metrics", timeout=60) as resp:
    metrics = resp.read().decode()
vals = {}
for line in metrics.splitlines():
    if line.startswith("#") or not line.strip():
        continue
    name, value = line.rsplit(" ", 1)
    vals[name] = float(value)
assert vals["tersoff_engine_workers"] == 2, vals
assert vals["tersoff_jobs_submitted_total"] == len(ids), vals
assert vals["tersoff_jobs_finished_total"] == len(ids), vals
assert vals["tersoff_engine_queue_len"] == 0, vals
assert vals["tersoff_cache_misses_total"] > 0, vals
assert vals["tersoff_cache_hits_total"] > 0, \
    "repeated lattices across the corpus must hit the cache"
assert vals["tersoff_cache_resident_bytes"] > 0, vals
assert vals["tersoff_uptime_seconds"] > 0, vals
assert vals['tersoff_jobs{status="ok"}'] == len(ids), vals
print("metrics sane:", {k: v for k, v in sorted(vals.items())
                        if k.startswith("tersoff_jobs")})
