"""Command-line front end.

Subcommands: synth (synthetic sweep), bench (benchmark CSV sweep), tune
(weight tuning for a target distribution), check (Monte-Carlo check suites).
Exit codes: 0 success, 1 runtime or check failure, 2 usage error.  All
output is deterministic given the full flag set; the default seed is 1729.

The parser only splits and converts flag values.  Each subcommand then
builds its value objects (`ExperimentSpec`, `CsvSchema`, the `tune`
marginal), which check them, before it reads a file or runs a fit; a
`ParameterError` raised there is a usage error.  `tune` builds only the
source it reads, so it never checks the flags of the other one.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

import numpy as np

from . import __version__
from .core import ParameterError
from .dataio import CsvSchema, load_csv
from .distributions import gaussian_distribution, uniform_distribution
from .evaluation import (
    COUNTEREXAMPLE_MIN_SAMPLES,
    DEFAULT_SEED,
    LEMMA1_MIN_SAMPLES,
    METHOD_ORDER,
    THEOREM1_MIN_RESAMPLES,
    UNBIASEDNESS_MIN_RESAMPLES,
    ExperimentSpec,
    ResultTable,
    check_counterexample,
    check_lemma1,
    check_theorem1_variance,
    check_unbiasedness,
    run_benchmark,
    run_synthetic,
)
from .risk_approx import tune_weights, tune_weights_empirical

_STD_NOTE = "std convention: sample std over repeats (ddof=1); 0.0 when repeats=1"

# suite -> (its budget flag, the least budget it accepts, its run)
_CHECK_SUITES = {
    "lemma1": (
        "samples",
        LEMMA1_MIN_SAMPLES,
        lambda args: check_lemma1(n_samples=args.samples or 1_000_000, seed=args.seed),
    ),
    "theorem1": (
        "resamples",
        THEOREM1_MIN_RESAMPLES,
        lambda args: check_theorem1_variance(
            resamples=args.resamples or 2000, seed=args.seed
        ),
    ),
    "counterexample": (
        "samples",
        COUNTEREXAMPLE_MIN_SAMPLES,
        lambda args: check_counterexample(
            n_samples=args.samples or 1_000_000, seed=args.seed
        ),
    ),
    "unbiasedness": (
        "resamples",
        UNBIASEDNESS_MIN_RESAMPLES,
        lambda args: check_unbiasedness(resamples=args.resamples or 1000, seed=args.seed),
    ),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text!r}")
    return value


def _split(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in _split(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    # an empty tuple would select ExperimentSpec's full-scale n_r grid
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    return values


def _column(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _column_list(text: str) -> tuple:
    return tuple(_column(part) for part in _split(text))


def _build(args, make, *params, **fields):
    """make(*params, **fields); a ParameterError it raises is a usage error."""
    try:
        return make(*params, **fields)
    except ParameterError as exc:
        args.parser.error(str(exc))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _print_table(table: ResultTable) -> None:
    print(f"{'method':<8}{'n_r':>8}{'mean_mse':>14}{'std_mse':>14}{'repeats':>9}")
    for row in table.rows:
        print(
            f"{row.method:<8}{row.n_r:>8}{row.mean_mse:>14.6g}"
            f"{row.std_mse:>14.6g}{row.repeats:>9}"
        )


def _emit(table: ResultTable, command: str, seed: int, config: str, args) -> None:
    head = (f"uncoupled {__version__} {command}", f"seed: {seed}", f"config: {config}")
    table = ResultTable(rows=table.rows, metadata=(*head, _STD_NOTE, *table.metadata))
    _print_table(table)
    if args.out:
        _write_text(args.out, table.to_csv())
        print(f"wrote {args.out}")
    if args.plot_data:
        _write_text(args.plot_data, table.to_plot_table())
        print(f"wrote {args.plot_data}")


def cmd_synth(args) -> int:
    base = ExperimentSpec.desk() if args.preset == "desk" else ExperimentSpec()
    given = dict(
        methods=args.methods, n_u=args.n_u, n_r_values=args.n_r, repeats=args.repeats,
        noise_std=args.noise_std, dim=args.dim, test_size=args.test_size,
    )
    spec = _build(
        args, dataclasses.replace, base, seed=args.seed,
        **{k: v for k, v in given.items() if v is not None},
    )
    table = run_synthetic(spec, jobs=args.jobs)
    config = (
        f"n_u={spec.n_u} n_r={','.join(map(str, spec.n_r_values))} "
        f"repeats={spec.repeats} dim={spec.dim} noise_std={spec.noise_std!r} "
        f"test_size={spec.test_size} methods={','.join(spec.methods)}"
    )
    _emit(table, "synth", spec.seed, config, args)
    return 0


def cmd_bench(args) -> int:
    schema = _build(
        args, CsvSchema,
        target_column=args.target_col,
        categorical_columns=args.categorical_cols,
        has_header=not args.no_header,
        delimiter=args.delimiter,
    )
    spec = _build(
        args, ExperimentSpec,
        methods=ExperimentSpec.methods if args.methods is None else args.methods,
        n_r_values=args.n_r,
        repeats=args.repeats,
        seed=args.seed,
    )
    data, dropped = load_csv(args.data, schema)
    print(f"loaded {data.n} rows x {data.dim} features ({dropped} dropped)")
    table = run_benchmark(data, spec, jobs=args.jobs, empirical_cdf=args.empirical_cdf)
    config = (
        f"data={args.data} rows={data.n} dropped={dropped} "
        f"n_r={','.join(map(str, spec.n_r_values))} repeats={spec.repeats} "
        f"methods={','.join(spec.methods)} empirical_cdf={args.empirical_cdf}"
    )
    _emit(table, "bench", spec.seed, config, args)
    return 0


def cmd_tune(args) -> int:
    if args.targets_file:
        with warnings.catch_warnings():
            # an empty file is reported below as too few target values
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(args.targets_file, delimiter=",", encoding="utf-8-sig").ravel()
        cfg = tune_weights_empirical(values)
        source = f"targets-file {args.targets_file} (n={values.size})"
    elif args.dist == "uniform":
        cfg = tune_weights(_build(args, uniform_distribution, args.a, args.b))
        source = f"uniform[{args.a:g}, {args.b:g}]"
    else:
        cfg = tune_weights(_build(args, gaussian_distribution, args.mean, args.std))
        source = f"gaussian(mean={args.mean:g}, std={args.std:g})"
    print(f"tuned weights for {source}")
    print(f"w1 = {cfg.w1:.6f}")
    print(f"w2 = {cfg.w2:.6f}")
    print(f"lambda = {cfg.lam:.6f}")
    if args.out:
        _write_text(args.out, f"w1,w2,lambda\n{cfg.w1!r},{cfg.w2!r},{cfg.lam!r}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_check(args) -> int:
    names = [args.only] if args.only else list(_CHECK_SUITES)
    # every chosen suite's budget is checked before the first one runs
    for name in names:
        flag, least, _ = _CHECK_SUITES[name]
        given = getattr(args, flag)
        if given is not None and given < least:
            args.parser.error(f"{name} needs --{flag} >= {least}, got {given}")
    all_passed = True
    for name in names:
        report = _CHECK_SUITES[name][2](args)
        print(report)
        all_passed = all_passed and report.passed
    print("all checks passed" if all_passed else "some checks FAILED")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncoupled",
        description=(
            "Regression from unlabeled features, a target marginal, and "
            "pairwise comparisons."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"uncoupled {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--seed",
            type=int,
            default=DEFAULT_SEED,
            help=f"RNG seed (default {DEFAULT_SEED})",
        )
        p.add_argument("--out", help="write the result CSV to this path")
        p.add_argument(
            "--plot-data", help="write a gnuplot-friendly whitespace table to this path"
        )
        p.add_argument(
            "--jobs", type=_positive_int, default=1, help="worker processes (default 1)"
        )
        p.add_argument(
            "--methods",
            type=_split,
            default=None,
            help=f"comma-separated subset of {','.join(METHOD_ORDER)} (default all)",
        )

    p_synth = sub.add_parser(
        "synth",
        help="repeated synthetic sweep over comparison-set sizes",
        description=(
            "Defaults run the full-scale sweep (n_u=100000, n_r=20..10240 "
            "doubling, 100 repeats). --preset desk uses n_u=20000, "
            "n_r=100,1000,5000, 20 repeats."
        ),
    )
    p_synth.add_argument(
        "--preset", choices=("desk",), default=None, help="small-budget preset"
    )
    p_synth.add_argument("--n-u", type=int, default=None)
    p_synth.add_argument(
        "--n-r", type=_int_list, default=None, help="comma-separated sizes"
    )
    p_synth.add_argument("--repeats", type=int, default=None)
    p_synth.add_argument("--dim", type=int, default=None)
    p_synth.add_argument("--noise-std", type=float, default=None)
    p_synth.add_argument("--test-size", type=int, default=None)
    add_common(p_synth)
    p_synth.set_defaults(func=cmd_synth, parser=p_synth)

    p_bench = sub.add_parser(
        "bench", help="repeated 80/20 benchmark sweep on a labeled CSV dataset"
    )
    p_bench.add_argument("--data", required=True, help="path to the CSV file")
    p_bench.add_argument(
        "--target-col",
        type=_column,
        default=-1,
        help="target column index or header name (default: last column)",
    )
    p_bench.add_argument(
        "--categorical-cols",
        type=_column_list,
        default=(),
        help="comma-separated categorical column indices or names",
    )
    p_bench.add_argument(
        "--no-header", action="store_true", help="the file has no header row"
    )
    p_bench.add_argument("--delimiter", default=",", help="field delimiter")
    p_bench.add_argument(
        "--empirical-cdf",
        action="store_true",
        help=(
            "estimate the target marginal by the empirical CDF instead of "
            "cross-validated KDE"
        ),
    )
    p_bench.add_argument("--n-r", type=_int_list, default=(5000,))
    p_bench.add_argument("--repeats", type=int, default=100)
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)

    p_tune = sub.add_parser(
        "tune", help="tune the (w1, w2) weights for a target distribution"
    )
    group = p_tune.add_mutually_exclusive_group(required=True)
    group.add_argument("--dist", choices=("uniform", "gaussian"))
    group.add_argument(
        "--targets-file",
        help="file of target values (one per line); uses the sample objective",
    )
    p_tune.add_argument("--a", type=float, default=0.0, help="uniform lower bound")
    p_tune.add_argument("--b", type=float, default=1.0, help="uniform upper bound")
    p_tune.add_argument("--mean", type=float, default=0.0, help="gaussian mean")
    p_tune.add_argument("--std", type=float, default=1.0, help="gaussian std")
    p_tune.add_argument("--out", help="write w1,w2,lambda CSV to this path")
    p_tune.set_defaults(func=cmd_tune, parser=p_tune)

    p_check = sub.add_parser(
        "check", help="run the Monte-Carlo check suites", description=(
            "Runs lemma1 (mean identities), theorem1 (variance-optimal "
            "lambda), counterexample (matching-marginals construction), and "
            "unbiasedness (uniform-coupling risk)."
        )
    )
    p_check.add_argument("--only", choices=tuple(_CHECK_SUITES), default=None)
    p_check.add_argument(
        "--samples",
        type=_positive_int,
        default=None,
        help=(
            "sample count for lemma1/counterexample (default 1000000, least "
            f"{LEMMA1_MIN_SAMPLES}/{COUNTEREXAMPLE_MIN_SAMPLES}); their fixed "
            "tolerances are sized for the default, and at 100000 "
            "counterexample fails on Monte-Carlo noise alone"
        ),
    )
    p_check.add_argument(
        "--resamples",
        type=_positive_int,
        default=None,
        help=(
            "resample count for theorem1/unbiasedness (default 2000/1000, "
            f"least {THEOREM1_MIN_RESAMPLES}/{UNBIASEDNESS_MIN_RESAMPLES})"
        ),
    )
    p_check.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_check.set_defaults(func=cmd_check, parser=p_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report, exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
