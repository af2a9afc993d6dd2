"""Seeded inputs, closed-loop runners and oracles for the three workloads.

Every workload runs in one thread and waits on each call before making the
next (a closed loop with one caller).  Inputs come from an endless seeded
stream; each point is drawn before its timing starts, the timed region
holds only the calls into splitconf, and outputs are checked against
their oracle after each block of the loop.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from array import array
from fractions import Fraction

import numpy as np
from probe import CLOCK, PROBE_SECONDS, probe

from splitconf import cli, conformal
from splitconf.clifford import COORDS, metric_form
from splitconf.conformal import (
    AT_INFINITY,
    POINT_COORDS,
    MinkowskiPoint,
    embed_point,
    minkowski_inner,
    minkowski_norm2,
    mobius_oracle,
    q_or_infinity,
)
from splitconf.group import PLANES, TRANSLATION_NAMES, so6_step

# Every step name `splitconf transform` accepts: 15 planes, ax..at, bx..bt.
STEP_NAMES = PLANES + TRANSLATION_NAMES
WORD_LEN = 5
# 23 words of 5 steps hold each of the 23 step names exactly 5 times.
FLOAT_POOL = len(STEP_NAMES)
# Float outputs must match their oracle to this share of the output scale.
FLOAT_TOL = 1e-12
# Step call times kept per run (the latest ones), and loop time per block.
TIME_SLOTS = 1 << 16
BLOCK_SECONDS = 1.0
# Points whose words are traced, per traced unit of work.
TRACED_POINTS = {"transform-float": 2 * FLOAT_POOL, "exact-rational": 20}
# A verify pass at this seed gives the byte-identity digest (ROADMAP gate).
MD5_SEED = 42

_POS = {m: COORDS.index(m) for m in COORDS}


# ---------------------------------------------------------------- oracles


def _direction(m, theta):
    return MinkowskiPoint(**{m: theta})


def expected_step(name, theta, v):
    """What one step must give, from a route other than conjugation.

    A plane step gives the closed-form 6x6 image of v (a numpy vector);
    ax..at give the shifted point, bx..bt the Mobius image of the point.
    """
    if name in PLANES or name[::-1] in PLANES:
        return so6_step(name, theta) @ np.array(v.as_tuple(), dtype=float)
    pt = q_or_infinity(v)
    if name[0] == "a":
        return pt.shifted(name[1], theta)
    return mobius_oracle(pt, _direction(name[1], theta))


def _rel_dev(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def check_float_step(name, theta, v, out):
    """Relative deviation of one float step from its oracle (inf on a miss)."""
    want = expected_step(name, theta, v)
    if isinstance(want, np.ndarray):
        return _rel_dev(out.as_tuple(), want)
    got = q_or_infinity(out)
    if got is AT_INFINITY or want is AT_INFINITY:
        return 0.0 if got is want else math.inf
    return _rel_dev(got.as_tuple(), want.as_tuple())


def check_exact_step(name, theta, v, out):
    """True when an exact step equals its oracle and stays exact and null."""
    return (
        out.is_exact()
        and metric_form(out) == 0
        and q_or_infinity(out) == expected_step(name, theta, v)
    )


# ---------------------------------------------------------------- inputs


def _chart(x, s, r):
    """Six-vector from point part x (t,x,y,z), p + q = s and p - q = r."""
    t, px, py, pz = x
    return (px, py, pz, t, (s + r) / 2, (s - r) / 2)


def _closed_form_step(name, theta, v):
    """The step's image of v, from closed forms only (input conditioning)."""
    if name in PLANES or name[::-1] in PLANES:
        return tuple(so6_step(name, theta) @ np.array(v, dtype=float))
    x = [v[_POS[m]] for m in POINT_COORDS]
    s, r = v[4] + v[5], v[4] - v[5]
    alpha = _direction(name[1], theta)
    xa = minkowski_inner(MinkowskiPoint(*x), alpha)
    a2 = minkowski_norm2(alpha)
    k = POINT_COORDS.index(name[1])
    if name[0] == "a":
        # Translation: x += theta s e_m; s fixed; r = s |Q|^2 follows.
        x[k] = x[k] + theta * s
        return _chart(x, s, r + 2 * xa + a2 * s)
    # Conformal translation: x += theta r e_m; r fixed; s picks up the denominator.
    x[k] = x[k] + theta * r
    return _chart(x, s + 2 * xa + a2 * r, r)


def _well_conditioned(v0, word):
    """Each image stays in the finite chart, away from a small p + q."""
    v = v0
    for name, theta in word:
        v = _closed_form_step(name, theta, v)
        s = v[4] + v[5]
        scale = max(abs(c) for c in v)
        if abs(s) < 0.05 * max(1, scale) or scale > 20 * abs(s) + 20:
            return False
    return True


def _rng(seed, stream):
    """The random source of one input stream; the warm-up and the timed
    loop draw from different streams, so they share no point."""
    return random.Random("%d/%s" % (seed, stream))


def float_inputs(seed, stream):
    """Endless (start vector, word) points, words taken in turn from a pool of FLOAT_POOL.

    The pool holds every step name equally often, and points take the
    words in turn, so any whole number of passes over the pool has the
    same step mix, which sets the latency quantiles.  Every point is new.
    """
    rng = _rng(seed, stream)
    names = list(STEP_NAMES) * WORD_LEN
    rng.shuffle(names)
    pool = [
        tuple((name, rng.uniform(-0.6, 0.6)) for name in names[i:i + WORD_LEN])
        for i in range(0, len(names), WORD_LEN)
    ]
    for word in itertools.cycle(pool):
        while True:
            pt = MinkowskiPoint(*(rng.uniform(-0.9, 0.9) for _ in POINT_COORDS))
            v = embed_point(pt).v
            if _well_conditioned(v.as_tuple(), word):
                break
        yield v, word


def _tenth(rng, lo, hi):
    k = 0
    while k == 0:
        k = rng.randint(lo, hi)
    return Fraction(k, 10)


def exact_inputs(seed, stream):
    """Endless (start vector, word) points; a fresh word of ax..bt per point."""
    rng = _rng(seed, stream)
    while True:
        pt = MinkowskiPoint(*(Fraction(rng.randint(-9, 9), 10) for _ in POINT_COORDS))
        word = tuple(
            (rng.choice(TRANSLATION_NAMES), _tenth(rng, -6, 6)) for _ in range(WORD_LEN)
        )
        v = embed_point(pt).v
        if _well_conditioned(v.as_tuple(), word):
            yield v, word


def repeat_share(keys):
    """Share of keys that already occurred earlier in the sequence."""
    keys = list(keys)
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


# ---------------------------------------------------------------- runners


class StepStats:
    """Totals of one step loop, kept in constant memory.

    Call times go to a fixed buffer (the latest TIME_SLOTS are kept) and
    outputs are checked a block at a time, so the loop's own bookkeeping
    does not grow the process with the number of steps a faster program
    completes.  ``blocks`` holds (first call index, calls, loop seconds,
    mean probe seconds) per block of about BLOCK_SECONDS.
    """

    def __init__(self, exact):
        self.exact = exact
        self.times = array("d", bytes(8 * TIME_SLOTS))
        self.timed = 0
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.at_infinity = 0
        self.points = 0
        self.busy = 0.0
        self.blocks = []

    def timed_blocks(self):
        """(calls, loop seconds, call times, probe seconds) of each block whose
        times are still kept."""
        out = []
        for first, calls, busy, machine in self.blocks:
            if calls and first >= self.timed - TIME_SLOTS:
                idx = [i % TIME_SLOTS for i in range(first, first + calls)]
                out.append((calls, busy, [self.times[i] for i in idx], machine))
        return out

    def check(self, records):
        """Check (name, theta, input, output or exception) records against the oracles."""
        for name, theta, v, out in records:
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                continue
            if q_or_infinity(out) is AT_INFINITY:
                self.at_infinity += 1
            if self.exact:
                self.failed += not check_exact_step(name, theta, v, out)
            else:
                dev = check_float_step(name, theta, v, out)
                self.worst = max(self.worst, dev)
                self.failed += not dev <= FLOAT_TOL


def run_steps(source, stats, seconds=None, points=None, defer_check=False, cycle=1,
              between=None):
    """Push points from `source` through their words until `seconds` of loop time or `points` points.

    Each point is drawn from the input stream before its timing starts,
    and only the calls are timed.  It runs in blocks of about BLOCK_SECONDS that
    end on a multiple of `cycle` points (a whole number of passes over a
    word pool); the machine-speed probe runs every PROBE_SECONDS of loop
    time, between points, and each block is checked after it ends.  With
    defer_check the records are returned unchecked instead (a traced run
    checks them once tracing is off).  A step that raises ends its word.
    between(), when given, runs after each block, untimed.
    """
    # Looked up per run, so a traced run calls the wrapped step_vector.
    step_vector = conformal.step_vector
    times, slots = stats.times, len(stats.times)
    pending = []
    while True:
        records, probes = [], [probe()]
        first, busy, since_probe = stats.timed, 0.0, 0.0
        while True:
            v, word = next(source)
            t_point = CLOCK()
            stats.points += 1
            for name, theta in word:
                t0 = CLOCK()
                try:
                    out = step_vector(name, theta, v)
                except Exception as exc:  # a failed operation is counted, not fatal
                    records.append((name, theta, v, exc))
                    break
                times[stats.timed % slots] = CLOCK() - t0
                stats.timed += 1
                records.append((name, theta, v, out))
                v = out
            dt = CLOCK() - t_point
            busy += dt
            since_probe += dt
            done = points is not None and stats.points >= points
            if done or (busy >= BLOCK_SECONDS and stats.points % cycle == 0):
                break
            if since_probe >= PROBE_SECONDS:
                probes.append(probe())
                since_probe = 0.0
        probes.append(probe())
        stats.busy += busy
        stats.blocks.append((first, stats.timed - first, busy, sum(probes) / len(probes)))
        if defer_check:
            pending.extend(records)
        else:
            stats.check(records)
        if done or (seconds is not None and stats.busy >= seconds):
            return pending
        if between is not None:
            between()


def pass_seeds(seed):
    """Endless distinct verify seeds for the passes of one run, never MD5_SEED."""
    rng = _rng(seed, "passes")
    seen = {MD5_SEED}
    while True:
        s = rng.randrange(1, 10 ** 6)
        if s not in seen:
            seen.add(s)
            yield s


def verify_argv(seed):
    return ["verify", "--format", "json", "--seed", str(seed)]


def verify_pass(seed):
    """One in-process `splitconf verify --format json`: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = CLOCK()
        rc = cli.main(verify_argv(seed))
        wall = CLOCK() - t0
    return rc, buf.getvalue(), wall


def check_statuses(text):
    """{"suite/check_id": status} of a verify JSON document."""
    doc = json.loads(text)
    return {
        "%s/%s" % (rep["suite"], c["check_id"]): c["status"]
        for rep in doc["reports"]
        for c in rep["checks"]
    }


def verify_ok(rc, text, expected):
    """A pass is correct when it exits 0 and its check ids and statuses are the expected ones."""
    if rc != 0:
        return False
    try:
        got = check_statuses(text)
    except (ValueError, KeyError, TypeError):
        return False
    return got == expected and "fail" not in got.values()


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()
