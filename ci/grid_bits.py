#!/usr/bin/env python3
"""Assert that the decomposed fig9 runs reproduce the single-domain bits.

Reads fig9_grid_{1x1x1,2x1x1,2x2x1}/BENCH_scenario_fig9_strong_scaling.json,
written by `tersoff-run scenarios/fig9_strong_scaling.json --grid G`.
"""
import json

def series(d):
    path = f"{d}/BENCH_scenario_fig9_strong_scaling.json"
    return {e["label"]: e for e in json.load(open(path))["series"]}

single = series("fig9_grid_1x1x1")
assert single and all(e["status"] == "ok" for e in single.values()), single
assert all("decomposition" not in e for e in single.values()), \
    "--grid 1,1,1 must force single-domain execution"
for grid, ranks in (("2x1x1", 2), ("2x2x1", 4)):
    dec = series(f"fig9_grid_{grid}")
    assert set(dec) == set(single), "variant sets differ"
    for label, e in dec.items():
        assert e["status"] == "ok", f"{grid} {label}: {e['status']}"
        assert e["final_total_energy"] == single[label]["final_total_energy"], \
            f"{grid} {label}: decomposed energy differs from single-domain"
        d = e["decomposition"]
        assert d["ranks"] == ranks, d
        assert 0.0 < d["comm_fraction"] < 1.0, d
        assert sum(d["atoms_per_rank"]) > 0, d
    print(f"grid {grid}: {len(dec)} variant(s) bitwise identical to single-domain")
