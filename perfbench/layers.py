"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the time its child spans cover.
Every span nests inside the root ``cli`` span, so the self times sum to the
root's duration; the rest of the traced wall time (interpreter start-up,
imports and exit) is reported as ``untraced_remainder_s``.
"""

from collections import defaultdict

# The package's modules, in pipeline order; each is one layer.
MODULES = (
    "config",
    "mesh",
    "maps",
    "geometry",
    "constitutive",
    "discretization",
    "minimizer",
    "diagnostics",
    "verification",
    "cli",
)

# The verification.check_<name> functions; tracing.py names their spans
# verification.<name>.
CHECKS = (
    "objectivity",
    "isotropy",
    "midpoint_convexity",
    "negative_control",
    "rank_one",
    "stress_growth",
    "perturbed_stress_bound",
    "growth",
)

PROJECTION_ERRORS = ("NoConvergenceError", "AmbiguousProjectionError")


class _Op:
    """Totals over the spans of one name."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.info = defaultdict(int)
        self.errors = defaultdict(int)


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(spans):
    """Map span name -> _Op with calls, inclusive and self time, summed info."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            child_s[parent] += end - start
    ops = defaultdict(_Op)
    for (name, start, end, parent, info), covered in zip(spans, child_s):
        op = ops[name]
        op.calls += 1
        op.total_s += end - start
        op.self_s += end - start - covered
        if info and "error" in info:
            op.errors[info["error"]] += 1
        elif info:
            for key, value in info.items():
                op.info[key] += int(value)
    return ops


def layer_metrics(spans, traced_run_s, untraced_run_s):
    """Every per-layer metric, as name -> (value, unit).

    ``traced_run_s`` is the wall time of the traced process and
    ``untraced_run_s`` the untraced ``run_s`` of the same run.
    """
    ops = aggregate(spans)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    trial = ops["discretization.trial_energy"]
    minimize = ops["minimizer"]
    iterations = minimize.info["iterations"]
    # One energy evaluation per minimize call precedes the descent; the rest
    # are line-search trials.
    trials = max(trial.calls - minimize.calls, 0)
    put("discretization.trial_energy.calls", trial.calls, "count")
    put("discretization.trial_energy.self_s", trial.self_s, "s")
    put(
        "discretization.trial_energy.elements_per_s",
        _ratio(trial.info["elements"], trial.total_s),
        "1/s",
    )
    gradient = ops["discretization.energy_gradient"]
    put("discretization.energy_gradient.calls", gradient.calls, "count")
    put("discretization.energy_gradient.self_s", gradient.self_s, "s")
    put(
        "discretization.oriented_area_ratios.self_s",
        ops["discretization.oriented_area_ratios"].self_s,
        "s",
    )
    pk1 = ops["constitutive.pk1_batch"]
    put("constitutive.pk1_batch.calls", pk1.calls, "count")
    put("constitutive.pk1_batch.rows", pk1.info["rows"], "count")
    put("constitutive.pk1_batch.self_s", pk1.self_s, "s")

    put("minimizer.iterations", iterations, "count")
    put("minimizer.trials", trials, "count")
    put("minimizer.trials_per_iter", _ratio(trials, iterations), "ratio")
    put("minimizer.accept_ratio", _ratio(iterations, trials), "ratio")
    put("minimizer.infeasible_trials", trial.calls - trial.info["feasible"], "count")
    put("minimizer.self_s", minimize.self_s, "s")
    put("minimizer.ms_per_iter", 1e3 * _ratio(minimize.total_s, iterations), "ms")
    put("minimizer.initialize.self_s", ops["minimizer.initialize"].self_s, "s")

    project = ops["geometry.project"]
    put("geometry.project.calls", project.calls, "count")
    put("geometry.project.points", project.info["points"], "count")
    put("geometry.project.self_s", project.self_s, "s")
    put(
        "geometry.project.failures",
        sum(project.errors[e] for e in PROJECTION_ERRORS),
        "count",
    )
    put("geometry.normal.self_s", ops["geometry.normal"].self_s, "s")
    put("geometry.tangent_project.self_s", ops["geometry.tangent_project"].self_s, "s")
    chart = ops["geometry.chart"]
    put("geometry.chart.builds", chart.calls, "count")
    put("geometry.chart.self_s", chart.self_s, "s")

    inj = ops["diagnostics.injectivity"]
    pairs = inj.info["checked_pairs"]
    put("diagnostics.injectivity.self_s", inj.self_s, "s")
    put("diagnostics.injectivity.checked_pairs", pairs, "count")
    put("diagnostics.injectivity.us_per_pair", 1e6 * _ratio(inj.total_s, pairs), "us")
    put(
        "diagnostics.injectivity.overlapping_pairs",
        inj.info["overlapping_pairs"],
        "count",
    )
    degree = ops["diagnostics.degree"]
    put("diagnostics.degree.calls", degree.calls, "count")
    put("diagnostics.degree.self_s", degree.self_s, "s")
    put("diagnostics.degree.ms_per_target", 1e3 * _ratio(degree.total_s, degree.calls), "ms")
    residual = ops["diagnostics.residual"]
    put("diagnostics.residual.fields", residual.info["fields"], "count")
    put("diagnostics.residual.self_s", residual.self_s, "s")

    for check in CHECKS:
        put(f"verification.{check}.s", ops[f"verification.{check}"].total_s, "s")
    battery = ops["verification"]
    put(
        "verification.samples_per_s",
        _ratio(battery.info["samples"], battery.total_s),
        "1/s",
    )

    put("config.parse.self_s", ops["config.parse"].self_s, "s")
    put("mesh.build.self_s", ops["mesh.build"].self_s, "s")
    put("mesh.triangles", ops["mesh.build"].info["triangles"], "count")
    put("maps.initial_map.self_s", ops["maps.initial_map"].self_s, "s")
    put("mesh.save.self_s", ops["mesh.save"].self_s, "s")
    put("cli.self_s", ops["cli"].self_s, "s")

    per_layer = dict.fromkeys(MODULES, 0.0)
    for name, op in ops.items():
        per_layer[name.split(".")[0]] += op.self_s
    for module in MODULES:
        put(f"layer.{module}.self_s", per_layer[module], "s")
    traced_s = sum(per_layer.values())
    put("trace.spans", len(spans), "count")
    put("trace.run_s", traced_run_s, "s")
    put("trace.layer_self_s", traced_s, "s")
    put("untraced_remainder_s", traced_run_s - traced_s, "s")
    put("trace.overhead_s", traced_run_s - untraced_run_s, "s")
    return m
