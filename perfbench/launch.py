"""One benchmark invocation of the memsurf CLI, in its own process.

Usage::

    python3 launch.py MODE SRC MARKS -- memsurf-arguments...

SRC is the source directory that holds the ``memsurf`` package and MARKS the
JSON file this process writes when it ends.  MODE is one of

``run``
    Run the CLI exactly as ``python -m memsurf`` does and record two
    instants: the end of set-up (the first energy evaluation of
    ``minimize``, or the start of the ``verify`` battery) on the system-wide
    monotonic clock, and the duration of the solve call (``minimize`` or
    ``run_all_checks`` as ``memsurf.cli`` imports it).
``setup``
    The same, but exit with code 0 at the end of set-up.
``trace``
    Run the CLI with the module-boundary wrappers of ``tracing.py``
    installed and write every recorded span.

The two marks of ``run`` wrap one name each, so the untraced run pays a
single extra call per mark.

``run`` and ``setup`` also sample the speed of the CPU the process runs on:
every ``PROBE_INTERVAL_S`` a timer signal runs a fixed kernel (a pure-Python
loop and a few small numpy batches, the two kinds of work memsurf does) and
appends its duration to ``probe_s``.  ``probe_at_setup_end`` and
``probe_in_solve`` give the sample indices at the end of set-up and around
the solve call.  On a shared machine the CPU's speed changes from second to
second, and these samples tell ``run.py`` how fast it was while each part
ran.  The probe costs about 2 % of the process's time.
"""

import json
import signal
import sys
import time

MODES = ("run", "setup", "trace")
PROBE_INTERVAL_S = 0.025
PROBE_STEPS = 1500
PROBE_BATCHES = 3


def _start_speed_probe(samples):
    """Time one fixed kernel on every tick of a wall-clock timer."""
    import numpy as np

    F = np.random.default_rng(0).standard_normal((300, 2, 2))

    def probe(signum, frame):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_STEPS):
            x += (i * i) % 7
        for _ in range(PROBE_BATCHES):
            C = np.einsum("nij,nkj->nik", F, F)
            np.sqrt(np.abs(C[:, 0, 0] * C[:, 1, 1] - C[:, 0, 1] * C[:, 1, 0])).sum()
        samples.append(time.perf_counter() - t0)

    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)


def _install_marks(cli, command, mode, marks):
    """Time the solve call and stamp the end of set-up."""
    solve_name = "minimize" if command == "minimize" else "run_all_checks"
    solve = getattr(cli, solve_name)

    def timed_solve(*args, **kwargs):
        first_probe = len(marks["probe_s"])
        t0 = time.monotonic()
        try:
            return solve(*args, **kwargs)
        finally:
            marks["solve_s"] = time.monotonic() - t0
            marks["probe_in_solve"] = [first_probe, len(marks["probe_s"])]

    setattr(cli, solve_name, timed_solve)

    if command == "minimize":
        import memsurf.minimizer as owner

        marker_name = "trial_energy"
    else:
        owner, marker_name = cli, "run_all_checks"
    first = getattr(owner, marker_name)

    def end_of_setup(*args, **kwargs):
        setattr(owner, marker_name, first)
        marks["setup_end"] = time.monotonic()
        marks["probe_at_setup_end"] = len(marks["probe_s"])
        if mode == "setup":
            raise SystemExit(0)
        return first(*args, **kwargs)

    setattr(owner, marker_name, end_of_setup)


def main(argv):
    if len(argv) < 5 or argv[0] not in MODES or argv[3] != "--":
        raise SystemExit(f"usage: launch.py {{{'|'.join(MODES)}}} SRC MARKS -- ARGS...")
    mode, src, marks_path, cli_args = argv[0], argv[1], argv[2], argv[4:]
    sys.path.insert(0, src)
    marks = {}
    try:
        if mode != "trace":
            _start_speed_probe(marks.setdefault("probe_s", []))
        import memsurf.cli as cli

        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            code = tracer.wrap("cli", cli.main)(cli_args)
            marks["spans"] = tracer.spans
        else:
            _install_marks(cli, cli_args[0], mode, marks)
            code = cli.main(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
