"""Command-line interface: sample / granulate / inspect CSV datasets.

For users who want the paper's methods without writing Python::

    python -m repro.cli sample data.csv --out sampled.csv
    python -m repro.cli sample data.csv --method ggbs --label-column 0
    python -m repro.cli granulate data.csv --save balls.npz
    python -m repro.cli info data.csv
    python -m repro.cli freeze data.csv --out model.gba
    python -m repro.cli serve model.gba --port 8000
    python -m repro.cli bench table2 --jobs 4
    python -m repro.cli bench --profile full --jobs 0 --no-cache
    python -m repro.cli bench table2 --distributed --workers 4
    python -m repro.cli bench --workers-external --store /mnt/shared/grid

CSV convention: one sample per row, features as floats, the class label in
the last column by default (``--label-column`` overrides).  A header row is
detected and skipped automatically.

``bench`` regenerates the paper's tables/figures: ``--jobs N`` fans the
cross-validation grid over N worker processes (``0`` = all cores,
bit-identical results) with payload resolution pooled and datasets shipped
zero-copy through the shared-memory data plane, completed cells persist
under ``benchmarks/output/cellstore/`` so interrupted runs resume, and
``--no-cache`` disables that disk store.  ``--distributed`` coordinates
standalone worker processes (``python -m repro.experiments.worker``) over
a shared store instead — ``--workers N`` launches them locally,
``--workers-external`` waits for workers started elsewhere (e.g. other
machines sharing ``--store`` over a network filesystem).  ``--store`` /
``--store-url`` takes the store directory (a path or a ``file://`` URL)
behind the claim/lease protocol (see docs/architecture/store-backends.md).

``freeze`` fits a granular-ball classifier once and writes the versioned,
checksummed, mmap-able model artifact; ``serve`` answers ``POST /predict``
over HTTP from that artifact with micro-batching, bit-identical to the
in-memory classifier (see docs/architecture/serving.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core.gbabs import GBABS
from repro.core.rdgbg import RDGBG
from repro.datasets import imbalance_ratio
from repro.preprocessing import check_labels
from repro.sampling import SAMPLER_NAMES, make_sampler

__all__ = ["main", "load_csv", "save_csv"]


def load_csv(path, label_column: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Read a labelled dataset from a CSV file.

    The label column is removed from the feature matrix and returned as an
    integer vector; a non-numeric header line is skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    skip = 0
    with open(path) as handle:
        first = handle.readline()
    try:
        [float(tok) for tok in first.strip().split(",") if tok]
    except ValueError:
        skip = 1
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("need at least one feature column and one label column")
    label_column = label_column % data.shape[1]
    y = data[:, label_column]
    x = np.delete(data, label_column, axis=1)
    return x, check_labels(y)


def save_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    """Write a labelled dataset as CSV with the label in the last column."""
    data = np.column_stack([x, y.astype(np.float64)])
    np.savetxt(path, data, delimiter=",", fmt="%.10g")


def _cmd_sample(args) -> int:
    x, y = load_csv(args.csv, args.label_column)
    kwargs: dict = {"random_state": args.seed}
    if args.method == "gbabs":
        kwargs["rho"] = args.rho
        if args.projection_dims:
            kwargs["projection_dims"] = args.projection_dims
    if args.method in ("srs", "systematic", "stratified"):
        if args.ratio is None:
            raise SystemExit(f"--ratio is required for method {args.method!r}")
        kwargs["ratio"] = args.ratio
    if args.method == "smnc":
        raise SystemExit(
            "smnc needs a categorical-column specification; use the Python API"
        )
    if args.method == "tomek":
        kwargs = {}
    sampler = make_sampler(args.method, **kwargs)
    xs, ys = sampler.fit_resample(x, y)
    save_csv(args.out, xs, ys)
    print(
        f"{args.method}: {x.shape[0]} -> {xs.shape[0]} samples "
        f"({xs.shape[0] / x.shape[0]:.1%}) written to {args.out}"
    )
    if args.method == "gbabs":
        report = sampler.report_
        print(
            f"  balls: {report.n_balls} ({report.n_borderline_balls} borderline), "
            f"noise removed: {report.n_noise_removed}"
        )
    return 0


def _cmd_granulate(args) -> int:
    x, y = load_csv(args.csv, args.label_column)
    result = RDGBG(rho=args.rho, random_state=args.seed).generate(x, y)
    summary = result.ball_set.summary()
    print(f"RD-GBG on {x.shape[0]} samples:")
    for key, value in summary.items():
        print(f"  {key:12s} {value}")
    print(f"  noise        {result.noise_indices.size}")
    if args.save:
        result.ball_set.save(args.save)
        print(f"ball set saved to {args.save}")
    return 0


def _cmd_bench(args) -> int:
    """Forward to the experiment harness (tables/figures regeneration)."""
    from repro.experiments.run_all import main as run_all_main

    argv = list(args.experiments)
    argv += ["--profile", args.profile, "--jobs", str(args.jobs)]
    if args.no_cache:
        argv.append("--no-cache")
    if args.json:
        argv += ["--json", args.json]
    if args.distributed:
        argv += ["--distributed", "--workers", str(args.workers)]
    if args.workers_external:
        argv.append("--workers-external")
    if args.max_restarts is not None:
        argv += ["--max-restarts", str(args.max_restarts)]
    if args.store:
        argv += ["--store", args.store]
    if args.store_codec:
        argv += ["--store-codec", args.store_codec]
    if args.min_workers is not None:
        argv += ["--min-workers", str(args.min_workers)]
    if args.max_workers is not None:
        argv += ["--max-workers", str(args.max_workers)]
    if args.timeout is not None:
        argv += ["--timeout", str(args.timeout)]
    return run_all_main(argv)


def _cmd_freeze(args) -> int:
    from repro.classifiers.gb_classifier import GranularBallClassifier

    x, y = load_csv(args.csv, args.label_column)
    clf = GranularBallClassifier(
        rho=args.rho,
        random_state=args.seed,
        include_orphans=not args.no_orphans,
    ).fit(x, y)
    header = clf.freeze(args.out)
    meta = header["meta"]
    size = Path(args.out).stat().st_size
    print(
        f"froze {x.shape[0]} samples -> {meta['n_balls']} balls "
        f"({clf.compression_ratio():.1%} of the data) in {args.out} "
        f"({size} bytes, crc32 {header['data_crc32']:#010x})"
    )
    return 0


def _parse_model_specs(pairs) -> dict:
    """``NAME=PATH`` tokens from repeated ``--model`` flags, validated."""
    from repro.serving.router import validate_model_name

    specs = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not path:
            raise SystemExit(
                f"serve: --model needs NAME=PATH, got {pair!r}"
            )
        try:
            validate_model_name(name)
        except ValueError as exc:
            raise SystemExit(f"serve: {exc}")
        if name in specs:
            raise SystemExit(f"serve: model {name!r} given twice")
        specs[name] = path
    return specs


def _cmd_serve(args) -> int:
    from repro.serving.server import run_server

    if args.max_pending < 1:
        raise SystemExit("serve: --max-pending must be >= 1")
    if args.poll_interval_s <= 0:
        raise SystemExit("serve: --poll-interval-s must be > 0")
    models = _parse_model_specs(args.model or [])
    if args.artifact is None and not models:
        raise SystemExit(
            "serve: give an artifact path or at least one --model NAME=PATH"
        )
    if args.artifact is not None and models:
        raise SystemExit(
            "serve: pass either a positional artifact or --model "
            "NAME=PATH flags, not both"
        )
    if models:
        default_model = args.default_model
        if default_model is None and len(models) == 1:
            default_model = next(iter(models))
        if default_model is None:
            raise SystemExit(
                "serve: --default-model is required with more than one "
                "--model"
            )
        if default_model not in models:
            raise SystemExit(
                f"serve: --default-model {default_model!r} is not among "
                f"the --model names ({', '.join(sorted(models))})"
            )
    else:
        if args.default_model is not None:
            raise SystemExit(
                "serve: --default-model needs --model NAME=PATH flags"
            )
        default_model = None
    try:
        return run_server(
            args.artifact,
            models=models or None,
            default_model=default_model,
            host=args.host,
            port=args.port,
            verify=not args.no_verify,
            max_pending=args.max_pending,
            request_timeout=(
                None if args.request_timeout_s <= 0
                else args.request_timeout_s
            ),
            poll_interval=args.poll_interval_s,
            binary=not args.no_binary,
            watch=not args.no_reload,
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"serve: {exc}")


def _cmd_info(args) -> int:
    x, y = load_csv(args.csv, args.label_column)
    classes, counts = np.unique(y, return_counts=True)
    print(f"samples:  {x.shape[0]}")
    print(f"features: {x.shape[1]}")
    print(f"classes:  {classes.size} {dict(zip(classes.tolist(), counts.tolist()))}")
    print(f"IR:       {imbalance_ratio(y):.2f}")
    probe = GBABS(rho=args.rho, random_state=args.seed)
    probe.fit_resample(x, y)
    print(f"GBABS sampling ratio at rho={args.rho}: "
          f"{probe.report_.sampling_ratio:.2%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("csv", help="input CSV (label in last column by default)")
        p.add_argument("--label-column", type=int, default=-1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rho", type=int, default=5,
                       help="density tolerance for GB methods")

    p_sample = sub.add_parser("sample", help="resample a dataset")
    common(p_sample)
    p_sample.add_argument("--method", choices=sorted(SAMPLER_NAMES),
                          default="gbabs")
    p_sample.add_argument("--out", required=True, help="output CSV path")
    p_sample.add_argument("--ratio", type=float, default=None,
                          help="kept fraction for srs/systematic/stratified")
    p_sample.add_argument("--projection-dims", type=int, default=None,
                          help="random-projection scan directions (gbabs)")
    p_sample.set_defaults(func=_cmd_sample)

    p_gran = sub.add_parser("granulate", help="run RD-GBG and report the balls")
    common(p_gran)
    p_gran.add_argument("--save", default=None, help="write ball set .npz here")
    p_gran.set_defaults(func=_cmd_granulate)

    p_info = sub.add_parser("info", help="dataset profile + GBABS ratio probe")
    common(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_freeze = sub.add_parser(
        "freeze",
        help="fit a GB classifier and write an mmap-able serving artifact",
    )
    common(p_freeze)
    p_freeze.add_argument("--out", required=True,
                          help="artifact output path (e.g. model.gba)")
    p_freeze.add_argument("--no-orphans", action="store_true",
                          help="drop radius-0 orphan balls from the "
                               "decision rule before freezing")
    p_freeze.set_defaults(func=_cmd_freeze)

    p_serve = sub.add_parser(
        "serve",
        help="serve POST /predict over HTTP from frozen artifacts "
             "(single artifact or --model NAME=PATH multi-model)",
    )
    p_serve.add_argument("artifact", nargs="?", default=None,
                         help="artifact written by `repro freeze` "
                              "(single-model form; or use --model)")
    p_serve.add_argument("--model", action="append", metavar="NAME=PATH",
                         help="serve this artifact under /models/NAME/"
                              "predict (repeatable; mutually exclusive "
                              "with the positional artifact)")
    p_serve.add_argument("--default-model", default=None, metavar="NAME",
                         help="model that plain /predict aliases to "
                              "(required with more than one --model)")
    p_serve.add_argument("--no-binary", action="store_true",
                         help="refuse the binary wire protocol "
                              "(application/x-gbaf-batch gets 415; "
                              "clients fall back to JSON)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="TCP port (0 = ephemeral, printed on start)")
    p_serve.add_argument("--no-verify", action="store_true",
                         help="skip the artifact checksum at load")
    p_serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                         help="admission limit: predicts allowed to wait "
                              "at once before shedding with 503 + "
                              "Retry-After (default: 64)")
    p_serve.add_argument("--request-timeout-s", type=float, default=30.0,
                         metavar="S",
                         help="per-predict deadline; expiry answers 504 "
                              "(0 disables; default: 30)")
    p_serve.add_argument("--poll-interval-s", type=float, default=2.0,
                         metavar="S",
                         help="artifact-change poll interval for hot "
                              "reload (default: 2); SIGHUP and POST "
                              "/admin/reload also trigger a reload")
    p_serve.add_argument("--no-reload", action="store_true",
                         help="disable artifact watching (SIGHUP and "
                              "/admin/reload still reload explicitly)")
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser(
        "bench",
        help="regenerate paper tables/figures (parallel grid + result store)",
    )
    p_bench.add_argument("experiments", nargs="*",
                         help="experiment names, e.g. table2 fig9 (default: all)")
    p_bench.add_argument("--profile", choices=("quick", "medium", "full"),
                         default="quick")
    p_bench.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the CV grid "
                              "(0 = all cores; payloads resolve in the pool, "
                              "datasets ship via shared memory; results "
                              "identical to serial)")
    p_bench.add_argument("--no-cache", action="store_true",
                         help="disable the persistent cell store")
    p_bench.add_argument("--json", metavar="DIR", default=None,
                         help="also dump raw results as JSON files")
    p_bench.add_argument("--distributed", action="store_true",
                         help="split the grid over standalone worker "
                              "processes sharing the cell store")
    p_bench.add_argument("--workers", type=int, default=2, metavar="N",
                         help="workers launched locally in --distributed "
                              "mode (default: 2)")
    p_bench.add_argument("--workers-external", action="store_true",
                         help="distributed, but wait for externally "
                              "launched workers instead of spawning any")
    p_bench.add_argument("--max-restarts", type=int, default=None,
                         metavar="N",
                         help="supervisor restarts per crashed worker slot "
                              "in --distributed mode")
    p_bench.add_argument("--store", "--store-url", dest="store",
                         metavar="DIR_OR_URL", default=None,
                         help="shared cell store for distributed runs: a "
                              "directory or a file:// URL")
    p_bench.add_argument("--store-codec", default=None, metavar="CODEC",
                         help="cell-store payload compression "
                              "(zlib | lzma | none; default: zlib)")
    p_bench.add_argument("--min-workers", type=int, default=None,
                         metavar="N",
                         help="elastic fleet floor in --distributed mode "
                              "(enables queue-depth autoscaling)")
    p_bench.add_argument("--max-workers", type=int, default=None,
                         metavar="N",
                         help="elastic fleet ceiling (default: --workers)")
    p_bench.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="fail a distributed wait after this long")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
