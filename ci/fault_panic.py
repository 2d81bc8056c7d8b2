#!/usr/bin/env python3
"""Assert that an injected worker panic stays inside its variant.

Compares fault_panic/ (a run under TERSOFF_FAULT=panic@5@Ref) with
fault_baseline/: only Ref variants panicked, every survivor is bitwise intact.
"""
import json
base = {e["label"]: e for e in json.load(open("fault_baseline/BENCH_scenario_silicon_fig5.json"))["series"]}
hurt = {e["label"]: e for e in json.load(open("fault_panic/BENCH_scenario_silicon_fig5.json"))["series"]}
assert set(base) == set(hurt), "variant sets differ"
panicked = [l for l, e in hurt.items() if e["status"] == "panicked"]
assert panicked, "no variant reported as panicked"
assert all("Ref" in l for l in panicked), f"fault leaked outside Ref: {panicked}"
for label, e in hurt.items():
    if e["status"] == "panicked":
        assert "seconds_per_step" not in e, f"{label}: crashed variant carries metrics"
        continue
    assert e["status"] == "ok", f"{label}: {e['status']}"
    for key in ("final_total_energy", "max_drift"):
        assert e[key] == base[label][key], f"{label}: {key} perturbed by the crash"
print(f"{len(panicked)} variant(s) panicked; {len(hurt) - len(panicked)} survived bitwise intact")
