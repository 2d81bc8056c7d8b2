#!/usr/bin/env python3
"""Assert that an injected NaN is typed as "diverged" by the health guard.

Reads fault_nan/ (a run under TERSOFF_FAULT=nan@5@Ref).
"""
import json
series = json.load(open("fault_nan/BENCH_scenario_silicon_fig5.json"))["series"]
statuses = {e["label"]: e["status"] for e in series}
diverged = [l for l, s in statuses.items() if s == "diverged"]
assert diverged, f"no variant diverged: {statuses}"
assert all("Ref" in l for l in diverged), f"NaN leaked outside Ref: {diverged}"
assert all(s == "ok" for l, s in statuses.items() if "Ref" not in l), statuses
print(f"{len(diverged)} variant(s) typed as diverged by the health guard")
