"""End-to-end benchmark of the ``mbch`` command line, with a traced mode.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each job is one CLI invocation in a fresh interpreter (cold in-process
caches), started through ``perfbench/job.py`` with ``<tree>/src`` on
PYTHONPATH, so the checked-out tree is measured and never an installed
copy.  One benchmark process runs the jobs of a round one after
another: a closed loop with one client.  Whole rounds repeat for about
``--seconds``; an untraced run takes the median of at least two.  The
seed fixes only the job order within each round and the ``kv-solve``
inputs ``--a``/``--g``.

Every job's output is checked: stdout bytes against the sha256 digests
in ``golden.json``, ``verify`` jobs also by their "N of N checks passed"
line, ``kv-solve`` by ``"verified": true`` and the echoed ``--a``.  A
wrong output, a non-zero exit code or a timeout fails the job.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of ``tracer.py``,
taken from traced rounds that alternate with untraced ones.  ``--smoke``
runs every workload at tiny degrees and checks the benchmark itself.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_SCRIPT = HERE / "job.py"
GOLDEN = json.loads((HERE / "golden.json").read_text())

# A run must end within 180 s: jobs are killed at this mark, and no round
# starts that would pass it.
RUN_LIMIT_S = 165.0
JOB_TIMEOUT_S = 120.0
# Untraced runs take the median of at least this many rounds.
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    smoke_degree: int
    check: str = "golden"  # "golden", "verify" (golden + summary line) or "kv"


WORKLOADS = {
    "free-lie": (
        Job("bch-recursive-13", ("bch", "--method", "recursive", "--degree", "13"), 6),
        Job("bch-oracle-12", ("bch", "--method", "oracle", "--degree", "12"), 6),
        Job("bch-dynkin-10", ("bch", "--method", "dynkin", "--degree", "10"), 5),
    ),
    "quotient": (
        Job("goldberg-64", ("goldberg", "--degree", "64"), 8),
        Job("metabelian-64-json", ("metabelian", "--degree", "64", "--format", "json"), 8),
        Job("zassenhaus-64-per-degree", ("zassenhaus", "--degree", "64", "--per-degree"), 8),
        Job("kv-solve-64-json", ("kv-solve", "--degree", "64", "--format", "json"), 8, "kv"),
        Job("deeper-18-csv", ("deeper", "--degree", "18", "--format", "csv"), 6),
    ),
    "cross-check": (
        Job("verify-all-9", ("verify", "--degree", "9"), 5, "verify"),
        Job("verify-deeper-11", ("verify", "--suite", "deeper", "--degree", "11"), 5, "verify"),
        Job("verify-bch-10", ("verify", "--suite", "bch", "--degree", "10"), 5, "verify"),
    ),
}
ALL_JOBS = [job for jobs in WORKLOADS.values() for job in jobs]

END_TO_END_UNITS = {"wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in tracer.MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.errors"] = "count"
    for name in tracer.TERMS_OUT:
        units[f"{name}.terms_out"] = "count"
    units["cli.output_bytes"] = "B"
    for job in ALL_JOBS:
        units[f"job.{job.name}.wall_s"] = "s"
    units["trace_overhead"] = "1"
    return units


PER_LAYER_UNITS = _per_layer_units()


# -- inputs --------------------------------------------------------------------


def kv_inputs(rng: random.Random) -> tuple[Fraction, str]:
    """A seeded rational ``a`` and antisymmetric series ``g`` for kv-solve.

    Each term c x^i y^j (i != j) comes with its partner so that
    g(-y,-x) = -g(x,y), which kv-solve requires of its input.
    """
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    coeffs: dict[tuple[int, int], Fraction] = {}
    for _ in range(3):
        i, j = rng.sample(range(6), 2)
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        coeffs[(i, j)] = coeffs.get((i, j), Fraction(0)) + c
        coeffs[(j, i)] = coeffs.get((j, i), Fraction(0)) - (-1) ** (i + j) * c
    terms = [{"i": i, "j": j, "c": str(c)} for (i, j), c in sorted(coeffs.items()) if c]
    g = {"truncation": max(i + j for i, j in coeffs), "terms": terms}
    return a, json.dumps(g, separators=(",", ":"))


def job_args(job: Job, smoke: bool, kv: tuple[Fraction, str]) -> list[str]:
    args = list(job.argv)
    if smoke:
        args[args.index("--degree") + 1] = str(job.smoke_degree)
    if job.check == "kv":
        args += [f"--a={kv[0]}", f"--g={kv[1]}"]
    return args


# -- one job -------------------------------------------------------------------


@dataclass
class JobResult:
    name: str
    wall_s: float
    setup_s: float | None
    rss_mb: float
    stdout: bytes
    spans: list
    failure: str | None = None


def child_env() -> dict[str, str]:
    """The caller's environment, with only ``<tree>/src`` on the path and no MBCH_ settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "MBCH_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], mode: str, timeout: float) -> JobResult:
    """Run one job; peak RSS comes from this child's own rusage (wait4)."""
    r, w = os.pipe()
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(JOB_SCRIPT), str(w), mode, *args],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(w,),
            env=child_env(),
            cwd=ROOT,
        )
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    pipes: dict[int, list[bytes]] = {out_fd: [], err_fd: [], r: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in pipes:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = start + timeout - time.monotonic()
                if left <= 0 and not timed_out:
                    proc.kill()
                    timed_out = True
                for key, _ in sel.select(None if timed_out else left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        pipes[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(r)
        proc.stdout.close()
        proc.stderr.close()
    setup_s, spans, report_ok = None, [], True
    for line in b"".join(pipes[r]).splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            report_ok = False
            continue
        if "imported" in record:
            setup_s = record["imported"] - start
        spans = record.get("spans", spans)
    stdout = b"".join(pipes[out_fd])
    result = JobResult("", end - start, setup_s, usage.ru_maxrss / 1024, stdout, spans)
    if not report_ok:
        result.failure = "unreadable report from job.py"
    if timed_out:
        result.failure = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        stderr = b"".join(pipes[err_fd]).decode(errors="replace").strip()
        result.failure = f"exit code {proc.returncode}: {stderr[-300:]}"
    return result


def check_output(job: Job, out: bytes, expected: str | None, a: Fraction) -> str | None:
    """Why the job's stdout is wrong, or None when it is right."""
    if job.check == "kv":
        try:
            payload = json.loads(out)
            ok = payload["verified"] is True and payload["element"]["X"] == str(a)
        except (ValueError, KeyError, TypeError):
            ok = False
        return None if ok else "kv-solve output not verified"
    if hashlib.sha256(out).hexdigest() != expected:
        return "stdout differs from the golden digest"
    if job.check == "verify":
        last = out.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
        m = re.fullmatch(r"(\d+) of (\d+) checks passed", last)
        if not m or m.group(1) != m.group(2):
            return f"verify summary line is {last!r}"
    return None


class Runner:
    """Runs and checks jobs, counting attempts and failures."""

    def __init__(self, smoke: bool, kv, goldens: dict[str, str], t0: float):
        self.smoke, self.kv, self.goldens, self.t0 = smoke, kv, goldens, t0
        self.attempted = 0
        self.failures: list[str] = []

    def run_job(self, job: Job, mode: str) -> JobResult:
        timeout = min(JOB_TIMEOUT_S, RUN_LIMIT_S - (time.monotonic() - self.t0))
        result = spawn(job_args(job, self.smoke, self.kv), mode, max(timeout, 1.0))
        result.name = job.name
        if result.failure is None:
            result.failure = check_output(job, result.stdout, self.goldens.get(job.name), self.kv[0])
        self.attempted += 1
        if result.failure is not None:
            self.failures.append(f"{job.name} ({mode}): {result.failure}")
        return result

    def run_round(self, order: list[Job], mode: str) -> list[JobResult]:
        return [self.run_job(job, mode) for job in order]


def round_summary(results: list[JobResult]) -> dict[str, float]:
    return {
        "wall_s": sum(r.wall_s for r in results),
        "slowest_job_s": max(r.wall_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }


def median_of(dicts: list[dict[str, float]], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def end_to_end_metrics(plain: list[list[JobResult]]) -> dict[str, float]:
    rounds = [round_summary(rs) for rs in plain]
    metrics = {k: median_of(rounds, k) for k in ("wall_s", "slowest_job_s", "peak_rss_mb")}
    setups = [r.setup_s for rs in plain for r in rs if r.setup_s is not None]
    metrics["setup_s"] = statistics.median(setups) if setups else 0.0
    return metrics


def per_layer_metrics(plain: list[list[JobResult]], traced: list[list[JobResult]]) -> dict[str, float]:
    """Medians over traced rounds; job wall times from the untraced rounds."""
    layers = []
    for rs in traced:
        layer = tracer.summarize([s for r in rs for s in r.spans])
        layer["cli.output_bytes"] = sum(len(r.stdout) for r in rs)
        layers.append(layer)
    metrics = {k: median_of(layers, k) for k in layers[0]}
    for job in ALL_JOBS:
        walls = [r.wall_s for rs in plain for r in rs if r.name == job.name]
        metrics[f"job.{job.name}.wall_s"] = statistics.median(walls) if walls else 0.0
    traced_wall = median_of([round_summary(rs) for rs in traced], "wall_s")
    metrics["trace_overhead"] = traced_wall / median_of([round_summary(rs) for rs in plain], "wall_s") - 1
    return metrics


# -- environment ---------------------------------------------------------------


def steal_seconds() -> float | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- modes ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = time.monotonic()
    steal0 = steal_seconds()
    rng = random.Random(seed)
    kv = kv_inputs(rng)
    runner = Runner(False, kv, GOLDEN["full"], t0)
    spawn([], "import", JOB_TIMEOUT_S)  # fills the bytecode cache before timing

    plain: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    order = list(WORKLOADS[workload])
    begin = time.monotonic()
    while True:
        rng.shuffle(order)
        started = time.monotonic()
        plain.append(runner.run_round(order, "run"))
        if trace:
            traced.append(runner.run_round(order, "trace"))
        # Stop before a round like the last one would overrun --seconds.
        now = time.monotonic()
        last = now - started
        enough = now - begin + last > seconds and (trace or len(plain) >= MIN_ROUNDS)
        if runner.failures or enough or now - t0 + last > RUN_LIMIT_S:
            break

    for i, rs in enumerate(plain, 1):
        s = round_summary(rs)
        print(
            f"round {i}: wall_s {s['wall_s']:.3f} s, slowest_job_s {s['slowest_job_s']:.3f} s, "
            f"peak_rss_mb {s['peak_rss_mb']:.1f} MB; "
            + ", ".join(f"{r.name} {r.wall_s:.3f} s" for r in rs)
        )
    if trace:
        metrics, units = per_layer_metrics(plain, traced), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(plain), END_TO_END_UNITS

    steal1 = steal_seconds()
    env = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "steal_s": None if steal0 is None or steal1 is None else round(steal1 - steal0, 2),
    }
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {len(plain)} rounds, "
          f"failed_ratio {failed / runner.attempted:.3g} ({failed} of {runner.attempted} jobs)")
    if not trace:
        print("  " + ", ".join(f"{k} {metrics[k]:.4f} {units[k]}" for k in units))
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Check the benchmark itself at tiny degrees; exit 1 on any problem."""
    problems: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end-to-end": ({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS),
        "per-layer": ({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER_UNITS),
    }
    for kind, (want, units) in declared.items():
        if want != units:
            problems.append(f"{kind} metric names or units differ from BENCHMARK.json")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")

    t0 = time.monotonic()
    kv = kv_inputs(random.Random(0))
    for workload, jobs in WORKLOADS.items():
        runner = Runner(True, kv, GOLDEN["smoke"], t0)
        plain = runner.run_round(list(jobs), "run")
        traced = runner.run_round(list(jobs), "trace")
        problems += runner.failures
        for p, t in zip(plain, traced):
            if p.stdout != t.stdout:
                problems.append(f"{workload}: traced stdout of {p.name} differs")
        computed = {
            "end-to-end": end_to_end_metrics([plain]),
            "per-layer": per_layer_metrics([plain], [traced]),
        }
        for kind, metrics in computed.items():
            if set(metrics) != set(declared[kind][0]):
                problems.append(f"{workload}: {kind} metrics printed differ from BENCHMARK.json")
            if not all(isinstance(v, (int, float)) and v == v for v in metrics.values()):
                problems.append(f"{workload}: a {kind} metric is not a number")
        if not computed["per-layer"]["cli.main.calls"]:
            problems.append(f"{workload}: traced run recorded no cli.main span")
        print(f"smoke {workload}: {runner.attempted} jobs, {len(runner.failures)} failed")

    job = WORKLOADS["free-lie"][0]
    corrupted = dict(GOLDEN["smoke"])
    corrupted[job.name] = "0" * 64
    runner = Runner(True, kv, corrupted, t0)
    runner.run_job(job, "run")
    if len(runner.failures) != 1:
        problems.append("a corrupted golden digest was not counted as a failure")

    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the benchmark at tiny degrees")
    ns = parser.parse_args()
    # Turn SIGTERM into SystemExit so that a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "mbch" / "cli.py").is_file():
        print(f"perfbench: no mbch source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if ns.smoke:
        return smoke()
    if ns.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    sys.exit(main())
