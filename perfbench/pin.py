"""Regenerate ``pins.json``: the reference output digests the benchmark checks.

For each seed, one cold ``grid`` regeneration (per-cell digests of the
per-fold accuracies and sampling ratios) and one ``sample-highdim`` pass
(digests of ``sample_indices_`` per dataset and sampler seed).  Run from
the repository root, on the commit whose outputs are the reference::

    python3 perfbench/pin.py --seeds 0-39

Seeds outside the pinned range are still checked, against the run's own
first repetition and the oracles in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from harness import OUT, SRC

sys.path.insert(0, str(SRC))

from workloads import GRID_JOBS, PINS, Grid, HighDim  # noqa: E402


def dump(pins: dict) -> str:
    """JSON with one line per (workload, seed), so a re-pin diffs by seed."""
    blocks = []
    for workload in sorted(pins):
        rows = [
            f"  {json.dumps(seed)}: {json.dumps(pins[workload][seed])}"
            for seed in sorted(pins[workload], key=int)
        ]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-39")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    work = OUT / "work-pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for seed in seeds:
            grid = Grid(seed, work, None)
            grid.setup()
            pins.setdefault("grid", {})[str(seed)] = grid.digests(
                grid.regen(GRID_JOBS)["results"]
            )
            highdim = HighDim(seed, work, None)
            highdim.setup()
            pins.setdefault("sample-highdim", {})[str(seed)] = highdim.digests(
                highdim.one_pass()["samplers"]
            )
            PINS.write_text(dump(pins))
            print(f"pinned seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
