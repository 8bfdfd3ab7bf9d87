"""Measure cli.UNIT_COST, the cost table that splits a verify call in two.

    PYTHONPATH=src python tests/golden/unit_cost.py

Each unit is timed as ``verify --suite all --dim 8 --seed 101 --samples
200`` runs it (default backend), except algebroid.head, which only
``--suite algebroid`` runs.  A run is a fresh interpreter that makes one
warm-up pass over every unit in this process, then five timed passes, and
keeps each unit's median CPU milliseconds (time.process_time).  CPU speed
drifts between runs, so each run is scaled so that the reference unit
costs REFERENCE_MS, and the table is the median of five runs, rounded to
ten.  Each unit's tracemalloc peak comes from one more fresh interpreter
that runs that unit alone, after the imports.  Paste the printed table into
cli.UNIT_COST and quote the output where the change is recorded.
"""

import json
import statistics
import subprocess
import sys
import time
import tracemalloc

RUNS = 5
PASSES = 5
# the unit the runs are scaled to, and its cost: the algebra suite's
# symbolic identities, with the value it had in the table before
REFERENCE = "algebra"
REFERENCE_MS = 50


def units() -> dict:
    """name -> call of every unit of the table, from cli._units."""
    from ohopf import cli

    out = dict(cli._units("all", 8, 101, 200, 1e-9, "float"))
    out["algebroid.head"] = dict(cli._units("algebroid", 8, 101, 200, 1e-9, "float"))["algebroid.head"]
    return out


def one_run() -> dict:
    """Median CPU milliseconds of each unit over PASSES warm passes."""
    table = units()
    for call in table.values():
        call()
    times = {name: [] for name in table}
    for _ in range(PASSES):
        for name, call in table.items():
            start = time.process_time()
            call()
            times[name].append(1000 * (time.process_time() - start))
    return {name: statistics.median(t) for name, t in times.items()}


def peak(name: str) -> float:
    """tracemalloc's peak, in MB, of one call of the unit in this process."""
    call = units()[name]
    tracemalloc.start()
    call()
    top = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return top / 2**20


def _child(*argv):
    done = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main():
    runs = [_child("--run") for _ in range(RUNS)]
    scaled = {
        name: statistics.median(run[name] * REFERENCE_MS / run[REFERENCE] for run in runs) for name in runs[0]
    }
    print("unit                         cost  raw ms (median)  tracemalloc peak MB")
    for name, cost in sorted(scaled.items(), key=lambda kv: -kv[1]):
        raw = statistics.median(run[name] for run in runs)
        print("%-26s %6d  %15.1f  %19.1f" % (name, round(cost, -1), raw, _child("--peak", name)))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        print(json.dumps(one_run()))
    elif sys.argv[1:2] == ["--peak"]:
        print(json.dumps(peak(sys.argv[2])))
    else:
        main()
