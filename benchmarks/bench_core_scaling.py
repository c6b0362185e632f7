"""Microbenchmarks of the core algorithms (timed over multiple rounds).

These complement the table/figure regenerators: they time RD-GBG and GBABS
themselves (the paper claims linear-ish scaling, §IV-B3) and the sampling
baselines on a common workload.  RD-GBG is also timed against the
full-sort oracle ``tests/core/reference_rdgbg.py``, so the vectorised
engine's speedup stays measurable from change to change, with a bit-parity
check on every workload.

Run as a script from the repository root (the oracle lives in ``tests``)
for the speedup report, written to ``benchmarks/output/core_scaling.txt``::

    PYTHONPATH=src:. python benchmarks/bench_core_scaling.py
    PYTHONPATH=src:. python benchmarks/bench_core_scaling.py --factors 0.01 --rounds 1
"""

import argparse
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import GBABS, RDGBG
from repro.datasets import load_dataset
from repro.sampling import make_sampler
from tests.core.reference_rdgbg import ReferenceRDGBG

#: The timed generators: the full-sort oracle and the vectorised engine.
GENERATORS = {"reference": ReferenceRDGBG, "engine": RDGBG}


@pytest.fixture(scope="module")
def workload():
    x, y = load_dataset("S10", size_factor=0.1, random_state=0)
    return x, y


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_bench_rdgbg_generate(benchmark, workload, name):
    x, y = workload
    result = benchmark(
        lambda: GENERATORS[name](rho=5, random_state=0).generate(x, y)
    )
    assert result.ball_set.is_partition()


def test_bench_gbabs_fit_resample(benchmark, workload):
    x, y = workload
    xs, _ = benchmark(lambda: GBABS(rho=5, random_state=0).fit_resample(x, y))
    assert 0 < xs.shape[0] <= x.shape[0]


@pytest.mark.parametrize("method", ["ggbs", "tomek", "sm"])
def test_bench_baseline_samplers(benchmark, workload, method):
    x, y = workload
    sampler_kwargs = {"random_state": 0} if method != "tomek" else {}
    xs, _ = benchmark(
        lambda: make_sampler(method, **sampler_kwargs).fit_resample(x, y)
    )
    assert xs.shape[0] > 0


@pytest.mark.parametrize("factor", [0.025, 0.05, 0.1])
def test_bench_rdgbg_scaling(benchmark, factor):
    """RD-GBG runtime across dataset sizes (linearity check, §IV-B3)."""
    x, y = load_dataset("S10", size_factor=factor, random_state=0)
    result = benchmark(lambda: RDGBG(rho=5, random_state=0).generate(x, y))
    assert result.ball_set.coverage() > 0.8


def test_bench_engine_speedup_smoke(workload):
    """Engine must beat the oracle on the shared workload (and stay bit-exact)."""
    x, y = workload
    timings = _time_generators(x, y, rounds=2)
    assert timings["parity"]
    assert timings["engine"] < timings["reference"]


# ----------------------------------------------------------------------
# script mode: reference-vs-engine speedup report
# ----------------------------------------------------------------------


def _time_generators(x, y, rounds: int = 3) -> dict:
    """Best-of-``rounds`` wall time per generator plus a bit-parity check."""
    out: dict = {}
    results = {}
    for name, generator in GENERATORS.items():
        best = np.inf
        for _ in range(rounds):
            gen = generator(rho=5, random_state=0)
            t0 = time.perf_counter()
            results[name] = gen.generate(x, y)
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    a, b = results["reference"].ball_set, results["engine"].ball_set
    out["parity"] = bool(
        np.array_equal(a.radii, b.radii)
        and np.array_equal(a.member_indices, b.member_indices)
        and np.array_equal(
            results["reference"].noise_indices, results["engine"].noise_indices
        )
    )
    out["n_balls"] = len(a)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="RD-GBG engine speedup report")
    parser.add_argument(
        "--factors",
        type=float,
        nargs="+",
        default=[0.05, 0.1, 0.25],
        help="S10 size factors to benchmark (largest last)",
    )
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail when the largest workload's speedup drops below this",
    )
    args = parser.parse_args(argv)

    lines = [
        "RD-GBG full-sort reference vs engine (best of "
        f"{args.rounds}, S10 surrogate, rho=5, seed=0)",
        f"{'n':>7s} {'balls':>6s} {'ref [s]':>11s} {'engine [s]':>11s} "
        f"{'speedup':>8s} {'parity':>7s}",
    ]
    last_speedup = None
    for factor in args.factors:
        x, y = load_dataset("S10", size_factor=factor, random_state=0)
        t = _time_generators(x, y, rounds=args.rounds)
        last_speedup = t["reference"] / t["engine"]
        lines.append(
            f"{x.shape[0]:7d} {t['n_balls']:6d} {t['reference']:11.3f} "
            f"{t['engine']:11.3f} {last_speedup:7.2f}x {str(t['parity']):>7s}"
        )
        if not t["parity"]:
            lines.append("PARITY FAILURE: engine and oracle disagree — "
                         "see tests/property/test_engine_parity.py")
            print("\n".join(lines))
            return 1

    report = "\n".join(lines)
    print(report)
    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "core_scaling.txt").write_text(report + "\n")
    print(f"[report saved to {out_dir / 'core_scaling.txt'}]")

    if args.min_speedup is not None and last_speedup < args.min_speedup:
        print(
            f"FAIL: speedup {last_speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x on the largest workload"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
