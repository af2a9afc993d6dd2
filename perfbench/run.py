"""splitconf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  Workloads (see perfbench/README.md):

* verify-default  - ``splitconf verify --format json`` passes, each run
                    in-process in a fresh interpreter at a fresh seed;
* transform-float - float points through 5-step words from a small pool;
* exact-rational  - Fraction points through fresh 5-step ax..bt words.

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced units of work.
Human-readable lines come first; the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from probe import CLOCK, IntervalProbe, probe_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("verify-default", "transform-float", "exact-rational")
# Fresh interpreters timed for setup_s before the workload; more are
# timed between its blocks (see sample_setup).
SETUP_BEFORE = 8
MIN_VERIFY_PASSES = 4
WARMUP_SECONDS = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_probes": "probe",
    "op_p95_probes": "probe",
    "ops_per_probe": "1/probe",
    "peak_rss_mb": "MB",
}


def die(message):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def warm_caches():
    """Fill the lazy caches every later call relies on (gammas, planes, nilpotent generators)."""
    from splitconf import clifford, conformal, group

    for m in clifford.COORDS:
        clifford.gamma(m)
    for name in group.PLANES:
        group.plane_kind(name)
    for m in conformal.TRANSLATABLE:
        conformal.translation_generator(m)
        conformal.conformal_translation_generator(m)


def run_child(*child_args):
    """Run this script in a fresh interpreter and return the JSON its last line holds."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *child_args],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_setup():
    """In a fresh interpreter: seconds to import splitconf and fill its caches."""
    t0 = CLOCK()
    import splitconf  # noqa: F401

    warm_caches()
    return CLOCK() - t0


def setup_child():
    print(json.dumps(timed_setup()))


def git_commit():
    """The commit of ROOT when ROOT is the top of a git checkout, else None.

    Git is kept from looking above ROOT, so a checkout that is not a git
    repository never reports the commit of a repository around it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "splitconf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, params):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **params,
    }


def quantile95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def block_stats(blocks, relative):
    """(p50, p95, calls per unit of time) of the operations of every block.

    A block is (calls, loop seconds, call times, probe seconds), the last
    the mean time of the probe (probe.py) taken around and during the
    block.  With relative, each time is divided by its block's probe
    time, so it is in units of the probe's time: a ratio of two times
    measured side by side, which the shared machine's drift in speed
    moves much less than either time (see perfbench/README.md).
    """
    def unit(block):
        return block[3] if relative else 1.0

    times = [t / unit(b) for b in blocks for t in b[2]]
    return (
        statistics.median(times),
        quantile95(times),
        sum(b[0] for b in blocks) / sum(b[1] / unit(b) for b in blocks),
    )


def op_metrics(blocks):
    p50, p95, rate = block_stats(blocks, relative=True)
    return {"op_p50_probes": p50, "op_p95_probes": p95, "ops_per_probe": rate}


def fastest_quarter(samples):
    """Median of the fastest quarter of samples of the same work, at least one."""
    return statistics.median(sorted(samples)[: max(1, -(-len(samples) // 4))])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle():
    """Collect garbage and move every surviving object out of the collector's scans."""
    gc.collect()
    gc.freeze()


# ------------------------------------------------------------ verify-default


def load_expected_checks():
    with open(HERE / "expected_checks.json") as fh:
        return json.load(fh)


def record_step_pairs(keys):
    """Append a (kind, generator, angle) key to keys for each group element built."""
    from splitconf import group, matrices
    from tracing import Tracer

    rec = Tracer()

    def recorder(kind):
        def make(fn):
            def wrapper(a, theta):
                keys.append((kind, a if isinstance(a, str) else id(a), theta))
                return fn(a, theta)
            return wrapper
        return make

    rec.patch_function(group, "generator", recorder("plane"))
    rec.patch_function(matrices, "exp_nilpotent", recorder("nilpotent"))
    return rec


def verify_child(seed, record):
    """Body of a fresh interpreter: one `splitconf verify` pass, as a user runs it once.

    The caches are filled first (that is set-up), then the pass is timed
    with the machine-speed probe running every PROBE_SECONDS inside it;
    the probes' own time is taken off the pass.  With record, the pass
    also records its (step, angle) keys, and its time is not used.
    """
    setup = timed_setup()
    import workloads as W

    keys = []
    if record:
        record_step_pairs(keys)
    settle()
    error = None
    with IntervalProbe() as machine:
        t0 = CLOCK()
        try:
            rc, text, _ = W.verify_pass(seed)
        except Exception as exc:  # a failed operation is counted, not fatal
            rc, text, error = None, "", repr(exc)
        wall = CLOCK() - t0
    out = {
        "rc": rc,
        "error": error,
        "pass_s": wall - machine.spent,
        "machine_s": machine.machine_s(),
        "probes": len(machine.samples),
        "peak_rss_mb": peak_rss_mb(),
        "setup": setup,
    }
    if record:
        out["step_pair_repeat_share"] = W.repeat_share(keys)
        out["step_pair_base"] = len(keys)
    out["text"] = text
    print(json.dumps(out))


def verify_workload(args, W, sample_setup):
    expected = load_expected_checks()
    # An untimed pass at the digest seed gives the md5 and the share of
    # repeated (step, angle) group elements within one pass.
    first = run_child("--verify-child", str(W.MD5_SEED), "--record")
    md5_ok = W.verify_ok(first["rc"], first["text"], expected)
    params = {
        "verify_argv": W.verify_argv("S"),
        "md5_seed": W.MD5_SEED,
        "md5": W.md5(first["text"]),
        "md5_pass_ok": md5_ok,
        "step_pair_repeat_share": first["step_pair_repeat_share"],
        "step_pair_base": first["step_pair_base"],
        "expected_checks": len(expected),
    }
    seeds = W.pass_seeds(args.seed)
    if args.trace:
        return verify_traced(args, W, expected, seeds, params)
    # The seed-42 pass is checked too; it is an operation, just an untimed one.
    failed = int(not md5_ok)
    blocks, pass_seeds, rss, probes, errors = [], [], [], [], []
    start, last = CLOCK(), 0.0
    # Each pass runs in a fresh interpreter at a fresh seed, so nothing a
    # pass leaves behind (a cache, a specialised loop) reaches the next.
    while len(blocks) < MIN_VERIFY_PASSES or CLOCK() - start + last <= args.seconds:
        t0 = CLOCK()
        pass_seeds.append(next(seeds))
        res = run_child("--verify-child", str(pass_seeds[-1]))
        last = CLOCK() - t0
        if not W.verify_ok(res["rc"], res["text"], expected):
            failed += 1
            errors.append([pass_seeds[-1], res["rc"], res["error"]])
        blocks.append((1, res["pass_s"], [res["pass_s"]], res["machine_s"]))
        rss.append(res["peak_rss_mb"])
        probes.append(res["probes"])
        # The pass's interpreter timed its own set-up; one more is timed between passes.
        sample_setup(res["setup"])
        sample_setup()
    walls = [b[1] for b in blocks]
    params.update({"pass_seeds": pass_seeds, "pass_s": walls,
                   "pass_machine_s": [b[3] for b in blocks], "pass_probes": probes,
                   "failed_passes": errors})
    p50, p95, rate = block_stats(blocks, relative=False)
    summary = {
        "verify_s": (p50, "s"),
        "verify_p95_s": (p95, "s"),
        "passes_per_s": (rate, "1/s"),
    }
    metrics = op_metrics(blocks)
    metrics["peak_rss_mb"] = max(rss)
    return len(blocks) + 1, failed, metrics, summary, params


def verify_traced(args, W, expected, seeds, params):
    def unit():
        rc, text, wall = W.verify_pass(next(seeds))
        return wall, (rc, text)

    def check(payload):
        return 1, int(not W.verify_ok(*payload, expected))

    return traced(args, unit, check, params)


# ------------------------------------------------------------ transform-*


def transform_workload(args, W, sample_setup):
    exact = args.workload == "exact-rational"
    inputs = W.exact_inputs if exact else W.float_inputs
    params = {
        "word_len": W.WORD_LEN,
        "angle_range": "Fraction(k, 10), 0 < |k| <= 6" if exact else "uniform [-0.6, 0.6]",
        "point_range": "Fraction(k, 10), |k| <= 9" if exact else "uniform [-0.9, 0.9]^4",
        "step_names": "ax..at, bx..bt" if exact else "15 planes, ax..at, bx..bt",
        "word_pool": None if exact else W.FLOAT_POOL,
        "float_tol_relative": None if exact else W.FLOAT_TOL,
    }
    # Untimed warm-up on its own input stream: the interpreter specialises
    # the hot loops first, and the timed loop repeats none of its points.
    W.run_steps(inputs(args.seed, "warmup"), W.StepStats(exact), seconds=WARMUP_SECONDS)
    settle()
    if args.trace:
        n = W.TRACED_POINTS[args.workload]
        source = inputs(args.seed, "traced")
        params["traced_points"] = n

        def unit():
            stats = W.StepStats(exact)
            chunk = list(itertools.islice(source, n))
            records = W.run_steps(iter(chunk), stats, points=n, defer_check=True)
            return stats.busy, (stats, records)

        def check(payload):
            stats, records = payload
            stats.check(records)
            return stats.attempted, stats.failed

        attempted, failed, metrics, summary, params = traced(args, unit, check, params)
        params.update(input_shares(inputs(args.seed, "traced"), n * params["units_run"]))
        return attempted, failed, metrics, summary, params

    stats = W.StepStats(exact)
    W.run_steps(inputs(args.seed, "timed"), stats, seconds=args.seconds,
                cycle=1 if exact else W.FLOAT_POOL, between=sample_setup)
    peak = peak_rss_mb()
    blocks = stats.timed_blocks()
    params.update(input_shares(inputs(args.seed, "timed"), stats.points))
    params.update({
        "points_run": stats.points,
        "steps_at_infinity": stats.at_infinity,
        "worst_relative_dev": None if exact else stats.worst,
        "blocks": len(blocks),
    })
    p50, p95, rate = block_stats(blocks, relative=False)
    summary = {
        "step_p50_us": (p50 * 1e6, "us"),
        "step_p95_us": (p95 * 1e6, "us"),
        "steps_per_s": (rate, "1/s"),
        "steps_timed": (stats.timed, "count"),
    }
    metrics = op_metrics(blocks)
    metrics["peak_rss_mb"] = peak
    return stats.attempted, stats.failed, metrics, summary, params


def input_shares(source, points):
    """Shares of repeated (step, angle) pairs and of repeated words among
    the first `points` points of an input stream (drawn again, untimed)."""
    seen_steps, seen_words = set(), set()
    steps = repeated_steps = repeated_words = 0
    for _, word in itertools.islice(source, points):
        repeated_words += word in seen_words
        seen_words.add(word)
        for step in word:
            steps += 1
            repeated_steps += step in seen_steps
            seen_steps.add(step)
    return {
        "step_pair_repeat_share": repeated_steps / steps if steps else 0.0,
        "step_pair_base": steps,
        "word_repeat_share": repeated_words / points if points else 0.0,
        "word_base": points,
    }


# ------------------------------------------------------------ traced runs

PER_LAYER_COUNTS = (
    "algebra.scalar_mul", "algebra.scalar_add", "algebra.is_exact",
    "matrices.matmul", "matrices.scale_add", "matrices.trace_product",
    "matrices.exp_nilpotent",
    "clifford.build_P", "clifford.extract_coords", "clifford.inner_product",
    "group.generator", "group.so6_matrix",
    "conformal.step_vector", "conformal.apply_conformal_translation",
    "realrep.realify_matrix", "realrep.exp_real_generator",
)
PER_LAYER_SELF = (
    "matrices.matmul", "matrices.scale_add", "matrices.trace_product",
    "matrices.exp_nilpotent",
    "clifford.build_P", "clifford.extract_coords", "clifford.inner_product",
    "group.generator", "group.act_on_P", "group.so6_matrix", "group.compose_so6",
    "conformal.step_vector", "conformal.apply_conformal_translation",
    "conformal.mobius_oracle",
    "realrep.realify_matrix", "realrep.exp_real_generator",
)
SUITE_NAMES = ("clifford", "properties", "group", "conformal", "realrep", "appendix")
ALGEBRA = ("algebra.scalar_mul", "algebra.scalar_add", "algebra.is_exact")


def layer_metrics(tracer):
    """Per-layer metrics of one traced unit of work, by name."""
    totals = tracer.totals()

    def get(layer, k):
        return totals.get(layer, (0, 0.0, 0.0))[k]

    out = {}
    for layer in PER_LAYER_COUNTS:
        out[layer + ".count"] = get(layer, 0)
    for layer in PER_LAYER_SELF:
        out[layer + ".self_s"] = get(layer, 1)
    out["algebra.self_s"] = sum(get(layer, 1) for layer in ALGEBRA)
    at_inf, steps = tracer.at_infinity()
    out["conformal.at_infinity.count"] = at_inf
    out["conformal.at_infinity.base"] = steps
    for key in ("report.checks.count", "report.fail.count"):
        out[key] = tracer.extra.get(key, 0)
    out["cli.self_s"] = get("cli.main", 1)
    for name in SUITE_NAMES:
        out["cli.suite.%s_s" % name] = get("cli.suite." + name, 2)
    return out


def traced(args, unit, check, params):
    """Alternate traced and untraced units of work, each on fresh inputs.

    unit() draws fresh inputs and returns (wall seconds, payload), and
    check(payload) (operations attempted, operations failed); checks run
    with tracing off.  Counts are those of the first traced unit, which
    the seed fixes, so they repeat exactly between runs at one seed;
    times are medians over traced units.  The tracing overhead is the
    median traced minus the median untraced wall time of a unit.
    """
    from tracing import Tracer, install

    tracer = Tracer()
    per_unit, traced_walls, plain_walls = [], [], []
    attempted = failed = 0
    start = CLOCK()
    while True:
        install(tracer)
        tracer.op[0] += 1
        try:
            wall, payload = unit()
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        per_unit.append(layer_metrics(tracer))
        tracer.reset_totals()
        tried, missed = check(payload)
        wall, payload = unit()
        plain_walls.append(wall)
        tried2, missed2 = check(payload)
        attempted += tried + tried2
        failed += missed + missed2
        if CLOCK() - start >= args.seconds:
            break
    metrics = {
        k: (per_unit[0][k] if not k.endswith("_s")
            else statistics.median(u[k] for u in per_unit))
        for k in per_unit[0]
    }
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / ("spans-%s-seed%d.npz" % (args.workload, args.seed))
    tracer.write(span_file)
    plain = statistics.median(plain_walls)
    over = statistics.median(traced_walls) - plain
    params.update({
        "traced_units": len(per_unit),
        "units_run": len(per_unit) + len(plain_walls),
        "counts_same_in_every_unit": all(
            u[k] == per_unit[0][k] for u in per_unit for k in u if not k.endswith("_s")),
        "spans_stored": len(tracer.span_id),
        "span_file": str(span_file.relative_to(ROOT)),
    })
    summary = {
        "untraced_unit_s": (plain, "s"),
        "tracing_overhead_s": (over, "s"),
        "tracing_overhead_share": (over / plain, "ratio"),
    }
    return attempted, failed, metrics, summary, params


# ------------------------------------------------------------ main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    wall_start = CLOCK()
    import splitconf

    if Path(splitconf.__file__).resolve().parent != (SRC / "splitconf").resolve():
        die("imported splitconf from %s, not from %s" % (splitconf.__file__, SRC))
    warm_caches()
    # Set-up samples are taken before the workload and between its blocks,
    # so that they meet the same spells of a shared machine as the blocks.
    setup = []

    def sample_setup(sample=None):
        if not args.trace:
            setup.append(sample or run_child("--setup-child"))

    for _ in range(SETUP_BEFORE):
        sample_setup()
    import workloads as W

    # The probe's time before and after says how fast the shared machine ran.
    probe_before = probe_median(5)
    if args.workload == "verify-default":
        attempted, failed, metrics, summary, params = verify_workload(args, W, sample_setup)
    else:
        attempted, failed, metrics, summary, params = transform_workload(args, W, sample_setup)
    gc.unfreeze()
    params["probe_s"] = [probe_before, probe_median(5)]

    if not args.trace:
        # Every sample is the same work in a fresh interpreter, so the
        # quietest samples are the fastest.  setup_s stays a time in
        # seconds: an import is file and memory traffic, which the probe
        # does not track (samples taken at the quietest probe readings
        # have taken 1.7 to 1.9 times the run's fastest).
        metrics["setup_s"] = fastest_quarter(setup)
        params["setup_samples_s"] = setup
        units = END_TO_END_UNITS
    else:
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}

    summary["failed_frac"] = (failed / attempted, "ratio")
    summary["setup_s"] = (metrics.get("setup_s"), "s")
    summary["peak_rss_mb"] = (metrics.get("peak_rss_mb"), "MB")
    params["run_wall_s"] = CLOCK() - wall_start
    print("provenance " + json.dumps(provenance(args, params), sort_keys=True, default=str))
    for name, (value, unit) in summary.items():
        if value is not None:
            print("%-24s %s %s" % (name, value, unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _bootstrap():
    if not (SRC / "splitconf" / "__init__.py").is_file():
        die("no splitconf sources under %s; run from a source checkout" % SRC)
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    _bootstrap()
    if sys.argv[1:] == ["--setup-child"]:
        setup_child()
    elif sys.argv[1:2] == ["--verify-child"]:
        verify_child(int(sys.argv[2]), sys.argv[3:] == ["--record"])
    else:
        sys.exit(main())
