#!/usr/bin/env python3
"""invborn benchmark: closed-loop CLI runs on fixed workloads, with a per-module trace.

Run from the repository root (no build step; the package is imported from src/):

    python3 bench/run.py --workload invert-default --seed 1 --seconds 30 --trace 0

One client runs one pipeline at a time (a closed loop), the way the CLI is
used.  Every sample is an in-process call of ``invborn.cli.main`` on a fresh
phantom drawn from ``--seed``; its result JSON is checked before the sample
counts as a success, and one seed is repeated to check byte-identical output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the public
functions of every module under ``src/invborn`` (by replacing module
attributes, so internal calls are caught too) and prints the per-layer split.
The last line of standard output is the result object; the line before it
holds the run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CPUS = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, CPUS)
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS reads its thread count when numpy loads, so pin it before that import.
for _var in _BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
NOISE = 1e-3
N_PAIRS = 48 * 48
GEOMETRY = [
    "--k", "1", "--a", "1", "--omega-radius", "2",
    "--n-src", "48", "--n-det", "48", "--tau", "1e-3",
]


@dataclass(frozen=True)
class Workload:
    command: str
    mode: str
    h: float
    order: int
    amplitudes: tuple
    nodes: int
    rank: int | None = None  # retained rank the geometry gives (invert only)


# Work per sample depends only on the geometry, never on the phantom, and every
# sample of a workload shares it.  Each optimisable module does most of the work
# in one workload and almost none in another.
WORKLOADS = {
    # CLI default: the dense (S*D) x V SVD in linearized_operator (~60 %) and
    # the inverse recursion (~28 %); shows factorization and diffuse-dtype work.
    "invert-default": Workload("invert", "diffuse", 1 / 6, 6, (0.05, 1.0), 912, 110),
    # Recursion-bound (~88 %, 1013 born_term calls) in complex arithmetic, so a
    # diffuse-only change must leave it unmoved.
    "invert-high-order": Workload("invert", "scalar", 1 / 4, 10, (0.3, 2.0), 280, 59),
    # Assembly, dense LU and the certificate; never touches inverse, so it is
    # the no-change control for inverse-side work.
    "forward-large": Workload("forward", "diffuse", 1 / 9, 8, (0.05, 1.0), 3112),
}


def sample_args(w: Workload, seed: int, index: int, output: Path) -> list:
    """CLI arguments of one sample: 1-2 balls, centre |c| <= 0.5, radius 0.25-0.5.

    Overlapping balls add up, so with n balls each amplitude is drawn from
    [lo, hi / n]: the phantom's peak contrast stays within the workload's range,
    inside which the series converges and the certificate applies.
    """
    rng = np.random.default_rng([seed, index])
    n_balls = int(rng.integers(1, 3))
    lo, hi = w.amplitudes
    blobs = []
    for _ in range(n_balls):
        direction = rng.normal(size=3)
        center = 0.5 * rng.uniform() ** (1 / 3) * direction / np.linalg.norm(direction)
        blobs.append(
            {
                "center": center.tolist(),
                "radius": rng.uniform(0.25, 0.5),
                "amplitude": rng.uniform(lo, hi / n_balls),
            }
        )
    args = [
        w.command, "--mode", w.mode, "--h", repr(w.h), "--order", str(w.order),
        *GEOMETRY, "--phantom", json.dumps(blobs), "--output", str(output),
    ]
    if w.command == "invert":
        args += ["--noise", repr(NOISE), "--seed", str(int(rng.integers(2**31)))]
    return args


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"non-finite number {name} in result JSON")


def check_output(w: Workload, code: int, text: str) -> dict:
    """Parse a result file strictly and check it; raise CheckFailed otherwise."""
    # invert exits 2 by design: its certified-bound hypothesis is unsatisfiable
    if code not in (0, 2):
        raise CheckFailed(f"exit code {code}")
    out = json.loads(text, parse_constant=_reject_constant)
    if out["grid_nodes"] != w.nodes:
        raise CheckFailed(f"grid_nodes {out['grid_nodes']} != {w.nodes}")
    if w.command == "invert":
        _check_invert(w, out)
    else:
        _check_forward(out)
    return out


# The converged error eta - S_N differs from the unrecoverable part eta - P eta by
# a field d in the retained subspace.  In the weighted 2-norm d is orthogonal to
# that part, so the two norms agree to second order in |d| (measured <= 0.24 %);
# the sup norm has no such orthogonality and they differ to first order
# (measured <= 2.0 % over 153 phantoms of both invert workloads).
RESIDUAL_TOLERANCE = {"2": 0.01, "inf": 0.10}


def _check_invert(w: Workload, out: dict):
    if out["retained_rank"] != w.rank:
        raise CheckFailed(f"retained_rank {out['retained_rank']} != {w.rank}")
    for label, tol in RESIDUAL_TOLERANCE.items():
        rec = out["diagnostics"]["p"][label]
        terms = rec["term_norms"]
        if not terms[-1] <= 1e-3 * terms[0]:
            raise CheckFailed(f"p={label}: last term {terms[-1]:.3e} > 1e-3 x first {terms[0]:.3e}")
        err, lin = rec["measured_error"][-1], rec["linear_residual"]
        if not abs(err - lin) <= tol * lin:
            raise CheckFailed(f"p={label}: error {err:.6e} not within {tol:.0%} of residual {lin:.6e}")


# The remainder bound ignores rounding: at small contrast its late orders fall
# below the double-precision floor of the computed remainder (measured 2.1e-16
# of the data norm against a bound 2.4 times smaller), so the comparison allows
# that floor with a wide margin.
ROUNDOFF_FLOOR = 1e-14


def _check_forward(out: dict):
    records = {rec["p"]: rec for rec in out["certificate"]}
    if set(records) != {"2", "inf"}:
        raise CheckFailed(f"certificate norms {sorted(records)}")
    for label, rec in records.items():
        data = out["data_norms"][label]
        if not rec["applicable"]:
            raise CheckFailed(f"p={label}: certificate not applicable")
        pairs = zip(rec["empirical"], rec["bound"], strict=True)
        if not all(e <= b + ROUNDOFF_FLOOR * data for e, b in pairs):
            raise CheckFailed(f"p={label}: empirical remainder above its bound")
        if not rec["empirical"][-1] <= 1e-8 * data:
            raise CheckFailed(f"p={label}: Born sum disagrees with the direct solve")


# ---------------------------------------------------------------------------
# tracing


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    sample: int
    name: str
    parent: int | None
    start: float
    end: float
    rss_delta_mb: float


# (module, attribute, span name): every call the CLI makes into a layer, and the
# internal calls whose self time matters (inverse_series > born_term,
# residual_certificate > born_series > closed_form_constants).
TRACED = [
    ("invborn.cli", "build_ball_grid", "grid.build"),
    ("invborn.cli", "build_sphere_boundary", "grid.build"),
    ("invborn.cli", "assemble", "greens.assemble"),
    ("invborn.forward", "solve_direct", "forward.solve_direct"),
    ("invborn.forward", "born_series", "forward.born_series"),
    ("invborn.forward", "residual_certificate", "forward.residual_certificate"),
    ("invborn.forward", "born_term", "forward.born_term"),
    ("invborn.inverse", "born_term", "forward.born_term"),
    ("invborn.inverse", "linearized_operator", "inverse.linearized_operator"),
    ("invborn.inverse", "regularize", "inverse.regularize"),
    ("invborn.inverse", "inverse_series", "inverse.inverse_series"),
    ("invborn.inverse", "diagnostics", "inverse.diagnostics"),
    ("invborn.bounds", "closed_form_constants", "bounds.closed_form_constants"),
    ("invborn.cli", "dump_json", "cli.dump_json"),
]
SELF_TIME = ("inverse.inverse_series", "forward.residual_certificate", "forward.born_series")
RSS_DELTA = ("greens.assemble", "forward.solve_direct", "inverse.linearized_operator")


class Tracer:
    """Spans around the public calls of each module, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sample = -1

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            rss0 = _maxrss_mb()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(self._sample, name, parent, start, end, _maxrss_mb() - rss0)

        return traced

    @contextlib.contextmanager
    def active(self, sample: int):
        """Install the wrappers for one sample and restore the originals after it."""
        saved = []
        self._sample = sample
        try:
            for module_name, attr, name in TRACED:
                module = sys.modules[module_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def per_sample(self, sample: int) -> dict:
        """Inclusive time, self time, calls and rss rise per span name for one sample."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.sample == sample]
        child_time = {}
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        out = {}
        for i, s in spans:
            rec = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "rss_delta_mb": 0.0})
            rec["s"] += s.end - s.start
            rec["self_s"] += s.end - s.start - child_time.get(i, 0.0)
            rec["calls"] += 1
            rec["rss_delta_mb"] += s.rss_delta_mb
        return out


# ---------------------------------------------------------------------------
# running samples


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in _BLAS_ENV:
        env[var] = str(threads)
    return env


_ONE_SAMPLE = """
import contextlib, io, json, sys, time
import invborn.cli
args = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = invborn.cli.main(args)
    elapsed = time.perf_counter() - t0
print(json.dumps([code, elapsed]))
"""


class Runner:
    """Runs and checks the samples of one workload, counting failures."""

    def __init__(self, cli_main, workload: Workload, seed: int, workdir: Path):
        self.cli_main = cli_main
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.first_output: dict | None = None

    def _finish(self, index, code, elapsed, path):
        try:
            text = path.read_text(encoding="utf-8")
            out = check_output(self.w, code, text)
        except Exception as exc:  # any missing or malformed result is a failed sample
            self.failures.append(f"sample {index}: {type(exc).__name__}: {exc}")
            return elapsed, None
        if self.first_output is None:
            self.first_output = out
        return elapsed, text

    def sample(self, index: int) -> tuple:
        """One in-process CLI run: (wall seconds, result text or None if it failed)."""
        self.attempted += 1
        path = self.workdir / f"{index}.json"
        args = sample_args(self.w, self.seed, index, path)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli_main(args)
        except Exception as exc:  # a raising sample is counted as failed, not fatal
            self.failures.append(f"sample {index}: raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        return self._finish(index, code, time.perf_counter() - start, path)

    def child_sample(self, index: int, threads: int) -> float | None:
        """One CLI run in a fresh interpreter with BLAS pinned to ``threads``."""
        self.attempted += 1
        path = self.workdir / f"{index}-t{threads}.json"
        args = sample_args(self.w, self.seed, index, path)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _ONE_SAMPLE, json.dumps(args)],
                cwd=ROOT, env=_child_env(threads), capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S, check=True,
            )
            code, elapsed = json.loads(proc.stdout.splitlines()[-1])
        except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
            self.failures.append(f"sample {index} at {threads} BLAS threads: {exc}")
            return None
        elapsed, text = self._finish(index, code, elapsed, path)
        return elapsed if text is not None else None

    def check_repeat(self, first: str | None, repeat: str | None):
        """Reruns of one seed must write byte-identical JSON."""
        if first is not None and repeat is not None and first != repeat:
            self.failures.append("sample 0: rerun output differs from the first run")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import invborn.cli"],
            cwd=ROOT, env=_child_env(BLAS_THREADS), check=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(times: list) -> tuple:
    """Highest order statistic with at least ten samples beyond it: (value, percentile, beyond).

    With ten samples or fewer no such statistic exists; the minimum is returned.
    """
    xs = sorted(times)
    rank = max(len(xs) - 10, 1)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


# ---------------------------------------------------------------------------
# metrics


def end_to_end(runner: Runner, seconds: float) -> tuple:
    _, first = runner.sample(0)  # warm-up: lazy imports and first-touch allocation finish here
    times = []
    index = 0  # the first timed sample repeats seed 0 for the determinism check
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, text = runner.sample(index)
        times.append(elapsed)
        if index == 0:
            runner.check_repeat(first, text)
        index += 1
        if time.perf_counter() >= deadline:
            break
    setup = measure_setup()
    value, pct, beyond = tail(times)
    failed = len(runner.failures)
    metrics = {
        "run_s.p50": (statistics.median(times), "s"),
        "run_s.tail": (value, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (_maxrss_mb(), "MB"),
        "success_ratio": (1.0 - failed / runner.attempted, "1"),
    }
    extra = {
        "timed_samples": len(times),
        "run_s": times,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "failed_ratio": failed / runner.attempted,
    }
    return metrics, extra


def per_layer(runner: Runner, seconds: float) -> tuple:
    tracer = Tracer()
    # rss rises are read from this first sample: later ones stay under its high-water mark
    with tracer.active(0):
        _, first = runner.sample(0)
    traced, untraced = [], []
    index = 0  # untraced repeat of seed 0: tracing must not change the output
    deadline = time.perf_counter() + seconds
    while True:
        is_traced = index % 2 == 1
        with tracer.active(index) if is_traced else contextlib.nullcontext():
            elapsed, text = runner.sample(index)
        (traced if is_traced else untraced).append((index, elapsed))
        if index == 0:
            runner.check_repeat(first, text)
        index += 1
        if time.perf_counter() >= deadline and traced:
            break

    samples = [tracer.per_sample(i) for i, _ in traced]
    cold = tracer.per_sample(0)
    metrics = {}
    for name in dict.fromkeys(n for _, _, n in TRACED):
        metrics[f"{name}_s"] = (statistics.median(s.get(name, {}).get("s", 0.0) for s in samples), "s")
        if name in SELF_TIME:
            metrics[f"{name}.self_s"] = (
                statistics.median(s.get(name, {}).get("self_s", 0.0) for s in samples), "s"
            )
        if name in RSS_DELTA:
            metrics[f"{name}.rss_delta_mb"] = (cold.get(name, {}).get("rss_delta_mb", 0.0), "MB")
    metrics["forward.born_term_calls"] = (
        statistics.median_low(s.get("forward.born_term", {}).get("calls", 0) for s in samples), "count"
    )
    metrics["inverse.retained_rank"] = ((runner.first_output or {}).get("retained_rank", 0), "count")
    traced_p50 = statistics.median(t for _, t in traced)
    untraced_p50 = statistics.median(t for _, t in untraced)
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    # plain single-threaded baseline of the same sample, both in fresh interpreters
    one = runner.child_sample(1, 1)
    many = runner.child_sample(1, BLAS_THREADS)
    speedup = one / many if one and many else 0.0
    metrics["blas.thread_speedup"] = (speedup, "1")
    extra = {
        "traced_samples": len(traced),
        "untraced_samples": len(untraced),
        "run_s.p50_traced": traced_p50,
        "run_s.p50_untraced": untraced_p50,
        "single_thread_run_s": one,
        "blas_threads_run_s": many,
        "born_term_calls_per_sample": sorted({s.get("forward.born_term", {}).get("calls", 0) for s in samples}),
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# metadata and entry point


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def metadata(name: str, w: Workload, runner: Runner) -> dict:
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    out = runner.first_output or {}
    return {
        "workload": name,
        "seed": runner.seed,
        "loop": "closed: 1 client, 1 pipeline at a time",
        "command": w.command,
        "mode": w.mode,
        "V": out.get("grid_nodes"),
        "S*D": N_PAIRS,
        "order": w.order,
        "retained_rank": out.get("retained_rank"),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": CPUS,
        "blas_numpy": blas(np.show_config),
        "blas_scipy": blas(scipy.show_config),
        "blas_threads": BLAS_THREADS,
        "blas_threads_pinned_by": list(_BLAS_ENV),
        "attempted": runner.attempted,
        "failures": runner.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "invborn" / "cli.py").is_file():
        print(f"error: no invborn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import invborn.cli

    w = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="_work-", dir=Path(__file__).resolve().parent) as tmp:
        runner = Runner(invborn.cli.main, w, args.seed, Path(tmp))
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(runner, args.seconds)
    print(json.dumps({**metadata(args.workload, w, runner), **extra}))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
