"""Workloads, timed and traced runs, and output checks of the benchmark.

Each workload drives the package's public sweep entry points from outside:
`run_synthetic`, or `load_csv` followed by `run_benchmark`.  One draw is one
sweep call with repeats=1 and jobs=1; draw k of a run gets a spec seed
derived from (workload seed, k), so the same seed gives the same inputs.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
import uncoupled
from run import BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 3
CSV_FEATURES = 8
SYNTH_NOISE_STD = 0.1  # ExperimentSpec's default; the marginal is N(0, 1 + noise^2)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.  A workload with csv_rows > 0 runs
    `run_benchmark` on a generated CSV; otherwise `run_synthetic`."""

    name: str
    n_r: tuple[int, ...]
    # Draws every run makes whatever its time budget; the MSE means and
    # the traced run use exactly these.
    min_draws: int
    n_u: int = 0
    csv_rows: int = 0
    empirical_cdf: bool = False

    @property
    def synthetic(self) -> bool:
        return self.csv_rows == 0


WORKLOADS = {
    # Desk-preset shape with n_U cut from 20000 to 5000: a draw's time
    # follows the gradient-descent iteration counts of its data, so the
    # mean needs many draws, and a 45 s run holds eight to fifteen.
    "synth_desk": Workload("synth_desk", n_r=(100, 1000, 5000), min_draws=3, n_u=5000),
    # 2000 rows (1600 train targets): the O(n^2) KDE bandwidth search and
    # the bisected inverse CDF still outweigh the fits, at about 3 s a draw
    # instead of 15 s at 5000 rows.
    "bench_kde": Workload("bench_kde", n_r=(5000,), min_draws=3, csv_rows=2000),
}


class TraceMismatch(RuntimeError):
    """The traced sweep's result CSV differs from the untraced one."""


def derived_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence((seed, *keys)).generate_state(1)[0])


def make_csv(rows: int, seed: int) -> bytes:
    """Labeled CSV: 8 standard-normal features and a right-skewed target,
    the exponential of a noisy linear score (log-normal marginal)."""
    rng = np.random.default_rng(derived_seed(seed, 0))
    x = rng.standard_normal((rows, CSV_FEATURES))
    theta = rng.standard_normal(CSV_FEATURES)
    theta /= np.linalg.norm(theta)
    y = np.exp(0.35 * (x @ theta + 0.3 * rng.standard_normal(rows)))
    header = ",".join([f"x{j + 1}" for j in range(CSV_FEATURES)] + ["y"])
    lines = [header]
    lines.extend(",".join(f"{v:.6f}" for v in row) for row in np.column_stack([x, y]))
    return ("\n".join(lines) + "\n").encode("ascii")


class Sweep:
    """One workload at one seed: its input file and one sweep call per draw."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.csv_path = None
        self.csv_sha256 = None
        self.data = None
        if not workload.synthetic:
            content = make_csv(workload.csv_rows, seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            self.csv_path = out_dir / f"{workload.name}-{seed}.csv"
            self.csv_path.write_bytes(content)
            self.csv_sha256 = hashlib.sha256(content).hexdigest()

    def describe(self) -> str:
        if self.csv_path is None:
            return f"synthetic draws, n_U={self.workload.n_u}, n_R={self.workload.n_r}"
        return (f"csv {self.csv_path.name}, {self.workload.csv_rows} rows, "
                f"sha256 {self.csv_sha256}")

    def load(self) -> None:
        if self.csv_path is not None:
            schema = uncoupled.CsvSchema(target_column=-1)
            self.data, _ = uncoupled.load_csv(self.csv_path, schema)

    def target_variance(self) -> float:
        """MSE of the best constant predictor, which every method must beat
        at the largest n_R."""
        if self.workload.synthetic:
            return 1.0 + SYNTH_NOISE_STD**2
        return float(np.var(self.data.targets))

    def draw(self, k: int) -> uncoupled.ResultTable:
        w = self.workload
        spec = uncoupled.ExperimentSpec(
            n_r_values=w.n_r, repeats=1, seed=derived_seed(self.seed, 1, k)
        )
        if w.synthetic:
            spec = dataclasses.replace(spec, n_u=w.n_u, noise_std=SYNTH_NOISE_STD)
            return uncoupled.run_synthetic(spec, jobs=1)
        return uncoupled.run_benchmark(
            self.data, spec, jobs=1, empirical_cdf=w.empirical_cdf
        )


@dataclass(frozen=True)
class Draw:
    wall_s: float
    cpu_s: float  # CPU time of this process: all its threads, not its idle time
    table: uncoupled.ResultTable


def _timed_draw(sweep: Sweep, k: int) -> Draw:
    wall, cpu = time.perf_counter(), time.process_time()
    table = sweep.draw(k)
    return Draw(time.perf_counter() - wall, time.process_time() - cpu, table)


# ---------------------------------------------------------------------------
# machine block and set-up time


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """Name of numpy's BLAS and the thread count it reports, when the
    library exposes OpenBLAS's getter."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*blas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "uncoupled").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_block(seed: int) -> dict:
    blas_name, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# Runs `import uncoupled` (plus load_csv when given a file) in a fresh
# interpreter: the work a user waits for before the first sweep.
_SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import uncoupled
if len(sys.argv) > 2:
    uncoupled.load_csv(sys.argv[2], uncoupled.CsvSchema(target_column=-1))
"""
# Imports only the libraries the package loads at import time.  It does not
# touch the package, so its CPU time, taken right after each set-up sample,
# shows how fast the machine runs at that moment.
_LIBRARY_PROBE = "import numpy, scipy.special, scipy.stats"
# setup_s is the set-up CPU time scaled to a machine on which
# _LIBRARY_PROBE takes this many CPU seconds (1.0 to 1.6 s on the VM of the
# README baseline).
LIBRARY_PROBE_S = 1.0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child_cpu_s(cmd: list[str]) -> float:
    """CPU seconds (user + system) of one child process, start to exit."""
    before = _children_cpu_s()
    subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return _children_cpu_s() - before


def setup_times(csv_path: Path | None, samples: int) -> list[tuple[float, float]]:
    """(set-up, library import) CPU seconds of `samples` pairs of fresh
    interpreters."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC)]
    if csv_path is not None:
        cmd.append(str(csv_path))
    library = [sys.executable, "-c", _LIBRARY_PROBE]
    return [(_child_cpu_s(cmd), _child_cpu_s(library)) for _ in range(samples)]


# ---------------------------------------------------------------------------
# output checks


def check_tables(sweep: Sweep, tables) -> tuple[int, int, list[str]]:
    """Returns (cells attempted, cells failed, problems).  A cell fails when
    its row has no successful repeat; its `error:` line says why."""
    w = sweep.workload
    expected = {(m, n) for m in uncoupled.METHOD_ORDER for n in w.n_r}
    limit = sweep.target_variance()
    attempted = failed = 0
    problems: list[str] = []
    for k, table in enumerate(tables):
        rows = {(r.method, r.n_r): r for r in table.rows}
        if set(rows) != expected:
            problems.append(f"draw {k}: cells {sorted(rows)} != {sorted(expected)}")
        attempted += len(expected)
        for (method, n_r), row in sorted(rows.items()):
            if row.repeats == 0:
                failed += 1
            if not np.isfinite(row.mean_mse):
                problems.append(f"draw {k}: {method} n_r={n_r} mse is {row.mean_mse!r}")
            elif n_r == max(w.n_r) and not row.mean_mse < limit:
                problems.append(
                    f"draw {k}: {method} n_r={n_r} mse {row.mean_mse!r} does not beat "
                    f"the constant predictor ({limit!r})"
                )
        problems.extend(f"draw {k}: {m}" for m in table.metadata if m.startswith("error:"))
    return attempted, failed, problems


def mse_means(sweep: Sweep, tables) -> dict[str, float]:
    """Mean test MSE per method at the largest n_R over the first min_draws
    draws, which every run makes, so the values depend on the seed only."""
    n_r = max(sweep.workload.n_r)
    head = tables[: sweep.workload.min_draws]
    return {
        m: float(np.mean([t.row(m, n_r).mean_mse for t in head]))
        for m in uncoupled.METHOD_ORDER
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# reference kernel

_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((5000, 5))
_REF_Y = _REF_X @ _REF_RNG.standard_normal(5)
_REF_POINTS = np.sort(_REF_RNG.standard_normal(2000))
_REF_QUERIES = np.linspace(-3.0, 3.0, 400)


def reference_cpu_s() -> float:
    """CPU seconds of fixed numpy work that does not touch the package: a
    logistic gradient-descent loop on 5000x5 data and Gaussian-kernel sums
    of 400 queries over 2000 points at twelve bandwidths, the two kinds of
    work the workloads spend their time on.  Run between draws, it measures
    how fast the machine is at that moment."""
    t0 = time.process_time()
    w = np.zeros(_REF_X.shape[1])
    for _ in range(600):
        r = _REF_X @ w - _REF_Y
        g = _REF_X.T @ (-1.0 / (1.0 + np.exp(r))) / r.size
        w -= 0.1 * g
        float(np.logaddexp(0.0, -r).sum())
        float(np.linalg.norm(g))
    for h in np.geomspace(0.05, 1.6, 12):
        z = (_REF_QUERIES[:, None] - _REF_POINTS[None, :]) / h
        float(np.log(np.exp(-0.5 * z * z).sum(axis=1) + 1e-300).sum())
    return time.process_time() - t0


# ---------------------------------------------------------------------------
# runs


def timed_run(
    workload: Workload,
    seed: int,
    seconds: float,
    out_dir: Path = OUT_DIR,
    setup_samples: int = SETUP_SAMPLES,
    log=print,
) -> dict:
    """Untraced run: set-up time, a warm-up draw, then pairs of one
    reference kernel and one draw until the next pair would end past
    `seconds` (at least min_draws draws in all, and one pair).  Returns
    the result object."""
    sweep = Sweep(workload, seed, out_dir)
    log(f"input        {sweep.describe()}")
    setup = setup_times(sweep.csv_path, setup_samples)
    sweep.load()
    start = time.perf_counter()
    # Draw 0 warms lazy imports and caches: it is checked but not timed.
    reference_cpu_s()
    warmup = _timed_draw(sweep, 0)
    refs, draws, pair_wall = [], [], []
    while len(draws) < max(1, workload.min_draws - 1) or (
        time.perf_counter() - start + statistics.fmean(pair_wall) <= seconds
    ):
        t0 = time.perf_counter()
        refs.append(reference_cpu_s())
        draws.append(_timed_draw(sweep, len(draws) + 1))
        pair_wall.append(time.perf_counter() - t0)
    tables = [warmup.table] + [d.table for d in draws]
    cpu = [d.cpu_s for d in draws]
    wall = [d.wall_s for d in draws]
    attempted, failed, problems = check_tables(sweep, tables)
    metrics = {
        "setup_s": _metric(
            statistics.median(t / lib for t, lib in setup) * LIBRARY_PROBE_S, "s"
        ),
        # the reference ran as often as the draws, so this is the ratio of means
        "repeat_rel": _metric(sum(cpu) / sum(refs), "ratio"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    log(f"setup_s      {metrics['setup_s']['value']:.4f} s   median over {len(setup)} fresh "
        f"interpreters of set-up over library-import CPU time, times {LIBRARY_PROBE_S} s")
    log(f"setup cpu    {statistics.median(t for t, _ in setup):.4f} s   median set-up CPU time; "
        f"library import {statistics.median(lib for _, lib in setup):.4f} s")
    log(f"repeat_rel   {metrics['repeat_rel']['value']:.4f}     CPU time of {len(cpu)} draws "
        f"over that of the {len(refs)} reference kernels run between them")
    log(f"cpu          {statistics.fmean(cpu):.4f} s   mean CPU time per draw "
        f"(median {statistics.median(cpu):.3f}, min {min(cpu):.3f}, max {max(cpu):.3f}); "
        f"reference {statistics.fmean(refs):.4f} s")
    log(f"wall         {statistics.fmean(wall):.4f} s   mean wall time per draw "
        f"(median {statistics.median(wall):.3f}, min {min(wall):.3f}, max {max(wall):.3f})")
    log(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    _log_cells(log, attempted, failed, problems)
    for method, value in mse_means(sweep, tables).items():
        log(f"mse.{method:<8} {value!r}   mean of {workload.min_draws} draws at n_R={max(workload.n_r)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced_run(
    workload: Workload,
    seed: int,
    out_dir: Path = OUT_DIR,
    log=print,
) -> dict:
    """min_draws untraced draws, then the same draws traced.  Raises
    TraceMismatch unless both give byte-identical result CSVs."""
    sweep = Sweep(workload, seed, out_dir)
    log(f"input        {sweep.describe()}")
    sweep.load()
    untraced = [_timed_draw(sweep, k) for k in range(workload.min_draws)]

    tracer = tracing.Tracer()
    absent, restore = tracing.install(tracer)
    try:
        sweep.load()  # again, so load_csv gets its span
        traced = []
        for k in range(workload.min_draws):
            with tracer.repeat(k), tracer.span("sweep"):
                traced.append(_timed_draw(sweep, k))
    finally:
        restore()

    csv_untraced = "".join(d.table.to_csv() for d in untraced).encode()
    csv_traced = "".join(d.table.to_csv() for d in traced).encode()
    if csv_traced != csv_untraced:
        raise TraceMismatch(
            f"{workload.name} seed {seed}: traced result CSV differs from the untraced one"
        )
    log(f"result CSV identical traced and untraced "
        f"(sha256 {hashlib.sha256(csv_traced).hexdigest()})")

    tables = [d.table for d in traced]
    attempted, failed, problems = check_tables(sweep, tables)
    metrics, missing = tracing.layer_metrics(tracer, absent, workload.min_draws)
    traced_s = statistics.median(d.wall_s for d in traced)
    # draw k has the same inputs in both passes, so pair them
    overhead_s = statistics.median(t.wall_s - u.wall_s for t, u in zip(traced, untraced))
    metrics["trace.repeat_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(overhead_s, "s")
    metrics["evaluation.cells"] = _metric(attempted / len(tables), "count")
    for method, value in mse_means(sweep, tables).items():
        metrics[f"mse.{method}"] = _metric(value, "mse")

    spans_path = out_dir / f"{workload.name}-{seed}.spans.jsonl"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(spans_path)
    log(f"{len(tracer.spans)} spans written to {spans_path}")
    log(f"tracing overhead {overhead_s:+.4f} s per draw, median over {workload.min_draws} "
        f"paired draws ({traced_s:.4f} s traced)")
    _log_cells(log, attempted, failed, problems)
    for name in sorted(metrics):
        log(f"{name:<34} {metrics[name]['value']!r} {metrics[name]['unit']}")
    if missing:
        log(f"absent (wrapped name missing): {', '.join(missing)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _log_cells(log, attempted: int, failed: int, problems: list[str]) -> None:
    log(f"cells        attempted {attempted}, failed {failed}, fail_frac {failed / attempted:g}")
    for p in problems:
        log(f"CHECK FAILED {p}")
