"""memsurf benchmark: time to a certified solution on the shipped configs.

Each workload is a shipped config run unmodified except for its ``seed:``
key, which the benchmark sets from ``--seed``.  Load is a closed loop with
one client: one ``memsurf minimize|verify`` process at a time, each in a
fresh throw-away working directory, with BLAS threads capped at the number
of usable cores.  Every invocation is checked by ``gate.py``.  Times are
reported at a fixed CPU speed, measured inside each invocation (see
``end_to_end_metrics``).

    python3 perfbench/run.py --workload all               # end to end
    python3 perfbench/run.py --workload all --trace 1     # traced pass
    python3 perfbench/run.py --workload sphere_cap --seed 7 --seconds 40 --trace 0

The last line printed for a workload is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it, ``record: {...}``, holds the run record.  See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gate
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(HERE, ".work")

# Workload name -> CLI subcommand; the config is configs/<name>.yaml.
WORKLOADS = {
    "sphere_cap": "minimize",
    "plane_affine": "minimize",
    "torus_band": "minimize",
    "verify_default": "verify",
}
# Launch no process that could end after this many seconds of the run.
RUN_LIMIT_S = 150.0
# Mean duration of one speed-probe sample (launch.py) on the 2-core VM
# (Xeon, 2.0 GHz as reported) where the benchmark was built; per invocation
# it ranged from about 0.45 ms to 0.55 ms there.  Times are reported at this
# speed.
PROBE_S = 0.5e-3
# Set-up probes per round.  Set-up times were bimodal (about 0.2 s and
# 0.35 s) on that machine, and their median needs many samples to settle.
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def summarize(values):
    """Sample count, minimum, median and quartiles of a non-empty sample."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "min": values[0],
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def speed_scale(marks, part=None):
    """PROBE_S times the mean probe speed (1 / sample) over one invocation's
    set-up or solve call, or over the whole invocation if that part took no
    sample or ``part`` is None; None if the invocation took none.

    Averaging speeds, not durations, weighs each tick's share of the work
    alike, and a sample stretched by a pause of the machine counts as one
    slow tick rather than dragging the mean."""
    samples = marks.get("probe_s", [])
    if part == "setup":
        samples = samples[: marks.get("probe_at_setup_end", 0)] or samples
    elif part == "solve":
        samples = samples[slice(*marks.get("probe_in_solve", (0, 0)))] or samples
    return PROBE_S * statistics.fmean(1.0 / x for x in samples) if samples else None


def end_to_end_metrics(runs, setups):
    """name -> (samples, unit, value, raw samples) for every end-to-end metric.

    ``runs`` are the full invocations and ``setups`` the set-up probes.  On
    a shared machine the CPU's speed changes by tens of percent from one
    second to the next, so each time is scaled to the speed ``PROBE_S``
    by the speed that the invocation's own probe measured while that part
    of it ran (``launch.py``).  A time reports the median of its scaled
    samples.  A part too short to hold a probe sample (the 10 ms solve of
    ``plane_affine``) takes the scale of its whole invocation, and an
    invocation without any takes the median scale of the others.
    """
    pairs = {"run_s": [], "setup_s": [], "solve_s": []}
    for r in setups + runs:
        if r["setup_s"] is not None:
            pairs["setup_s"].append((r["setup_s"], speed_scale(r["marks"], "setup")))
    for r in runs:
        pairs["run_s"].append((r["wall_s"], speed_scale(r["marks"])))
        if "solve_s" in r["marks"]:
            pairs["solve_s"].append((r["marks"]["solve_s"], speed_scale(r["marks"], "solve")))
    metrics = {}
    for name, timed in pairs.items():
        if not timed:
            continue
        known = [scale for _, scale in timed if scale is not None]
        fill = statistics.median(known) if known else 1.0
        raw = [value for value, _ in timed]
        scaled = [value * (fill if scale is None else scale) for value, scale in timed]
        metrics[name] = (scaled, "s", statistics.median(scaled), raw)
    rss = [r["rss_mb"] for r in runs]
    metrics["peak_rss_mb"] = (rss, "MB", statistics.median(rss), None)
    return metrics


class Runner:
    """Launches and checks the invocations of one workload run."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.command = WORKLOADS[workload]
        self.work = work
        with open(os.path.join(CONFIGS, f"{workload}.yaml")) as fh:
            text = fh.read()
        text, count = re.subn(r"(?m)^seed:.*$", f"seed: {seed}", text)
        out = re.search(r"(?m)^output_dir:\s*(\S+)\s*$", text)
        if count != 1 or out is None:
            raise SystemExit(f"{workload}: config needs one seed: and one output_dir: key")
        self.output_dir = out.group(1)
        self.config = os.path.join(work, "config.yaml")
        with open(self.config, "w") as fh:
            fh.write(text)
        self.env = dict(os.environ)
        self.threads = len(os.sched_getaffinity(0))
        self.env.update(dict.fromkeys(BLAS_THREAD_VARS, str(self.threads)))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def time_left(self):
        return self.deadline - time.monotonic()

    def invoke(self, mode):
        """One process; returns wall time, peak RSS, marks and gate problems."""
        cwd = tempfile.mkdtemp(dir=self.work)
        marks_path = os.path.join(cwd, "marks.json")
        argv = [sys.executable, LAUNCH, mode, SRC, marks_path, "--", self.command, self.config]
        with open(os.path.join(cwd, "stdout.txt"), "w") as out, open(
            os.path.join(cwd, "stderr.txt"), "w"
        ) as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(self.time_left(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall_s = time.monotonic() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        try:
            with open(marks_path) as fh:
                marks = json.load(fh)
        except (OSError, ValueError):
            marks = {}
        if mode == "setup":
            problems = [] if code == 0 else [f"exit code {code}"]
        elif self.command == "minimize":
            problems = gate.check_minimize(
                os.path.join(cwd, self.output_dir), self.workload, code
            )
        else:
            problems = gate.check_verify(os.path.join(cwd, self.output_dir), code)
        needed = {"setup": ("setup_end",), "run": ("setup_end", "solve_s"), "trace": ("spans",)}
        problems += [f"no {key} mark" for key in needed[mode] if key not in marks]
        if problems:
            with open(os.path.join(cwd, "stderr.txt")) as fh:
                tail = fh.read()[-500:].strip()
            if tail:
                problems.append(f"stderr: {tail}")
        shutil.rmtree(cwd, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{mode}: " + "; ".join(problems))
        return {
            "wall_s": wall_s,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": marks["setup_end"] - t0 if "setup_end" in marks else None,
            "marks": marks,
        }

    def rounds(self, modes, seconds, start):
        """Rounds of one invocation per entry of ``modes``: at least one
        round, then more while the next should end within ``seconds`` of
        ``start``.  Returns mode -> results."""
        results = {mode: [] for mode in modes}
        durations = []
        while True:
            t0 = time.monotonic()
            for mode in modes:
                results[mode].append(self.invoke(mode))
            durations.append(time.monotonic() - t0)
            typical = statistics.median(durations)
            elapsed = time.monotonic() - start
            if elapsed + typical > seconds or self.time_left() < 2 * typical:
                return results


def measure(runner, seconds, trace):
    """name -> (samples, unit, reported value, raw samples) for one run."""
    runner.invoke("setup")  # warm-up: byte-compiles the package, fills caches
    start = time.monotonic()
    if not trace:
        # Set-up probes are spread over the run, as the full runs are.
        done = runner.rounds(("setup",) * SETUP_PROBES + ("run",), seconds, start)
        return end_to_end_metrics(done["run"], done["setup"])
    traced = runner.invoke("trace")
    runs = runner.rounds(("run",), seconds, start)["run"]
    untraced_s = min(r["wall_s"] for r in runs)
    metrics = layers.layer_metrics(
        traced["marks"].get("spans", []), traced["wall_s"], untraced_s
    )
    return {name: ([value], unit, value, None) for name, (value, unit) in metrics.items()}


def git_sha():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the package sources, to tie a record to code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "memsurf")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(runner):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": runner.threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": runner.threads,
    }


def run_one(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        runner = Runner(workload, seed, work)
        samples = measure(runner, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stats = {}
    for name, (values, unit, value, raw) in samples.items():
        stats[name] = dict(summarize(values), unit=unit, value=value)
        if raw is not None:
            stats[name]["raw"] = dict(summarize(raw), samples=raw)
    failure_rate = runner.failed / runner.attempted
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for name, s in stats.items():
        spread = "" if s["n"] == 1 else (
            f"median of n={s['n']}  q1={s['q1']:.6g} q3={s['q3']:.6g}"
        )
        if "raw" in s:
            spread += f"  raw median={s['raw']['median']:.6g}"
        print(f"  {name:<44} {s['value']:<14.6g} {s['unit']:<6} {spread}")
    print(
        f"  {'failure_rate':<44} {failure_rate:<14.6g} {'ratio':<6} "
        f"{runner.failed} failed of {runner.attempted} attempted"
    )
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    record = dict(
        workload=workload,
        seed=seed,
        trace=int(trace),
        seconds=seconds,
        **environment(runner),
        attempted=runner.attempted,
        failed=runner.failed,
        failure_rate=failure_rate,
        probe_nominal_s=PROBE_S,
        metrics=stats,
    )
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": s["value"], "unit": s["unit"]}
            for name, s in stats.items()
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (os.path.isfile(os.path.join(SRC, "memsurf", "cli.py")) and os.path.isdir(CONFIGS)):
        print(f"run.py: no memsurf sources at {SRC} or configs at {CONFIGS}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_one(workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
