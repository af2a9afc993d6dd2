"""verify_conformal's sampled checks on arrays, against one sample at a time.

verify_conformal runs its seeded samples as numpy rows, from the
embedded start vectors to the reported deviation.  The reference here
is the scalar loop written from the public functions (embed_point,
NullVector, q_from_p, mobius_oracle) and the TensorMatrix step route
(strategies.reference_route, not step_vector, whose float steps run on
the plans the batch runs), which reads the seeded stream one draw at a time;
every deviation must match it in repr, so a reordered sum or a sample
read out of turn shows.
"""

import math
import random

import numpy as np
import pytest

from splitconf import batch, checks, conformal, group
from splitconf.checks import verify_conformal
from splitconf.clifford import Vector6, metric_form
from splitconf.conformal import (
    AT_INFINITY,
    TRANSLATABLE,
    MinkowskiPoint,
    NullVector,
    embed_point,
    minkowski_inner,
    minkowski_norm2,
    mobius_oracle,
    q_from_p,
)
from strategies import reference_route

SAMPLED = (
    ["translation-law[%s]" % m for m in TRANSLATABLE]
    + ["additivity[x]", "dilation-law", "conformal-vs-mobius", "null-preserved"]
    + ["embed-roundtrip", "ratio-identity"]
)


def gap(a, b):
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))


def draw_point(rng):
    return MinkowskiPoint(*(rng.uniform(-0.9, 0.9) for _ in range(4)))


def reference_step(name, theta, v):
    """One step on the TensorMatrix route."""
    return reference_route([(name, theta)], v)


def scalar_reference(seed, samples, step=reference_step):
    """{check id: repr of the deviation} of the sampled checks, one sample at a time."""
    rng = random.Random(seed)
    devs = {}

    def images(name, thetas, starts):
        return [NullVector(step(n, t, s.v)) for n, t, s in zip(name, thetas, starts)]

    for m in TRANSLATABLE:
        draws = [(draw_point(rng), rng.uniform(-0.8, 0.8)) for _ in range(25)]
        outs = images(["a" + m] * 25, [t for _, t in draws],
                      [embed_point(pt) for pt, _ in draws])
        dev = 0.0
        for (pt, theta), out in zip(draws, outs):
            dev = max(dev, gap(q_from_p(out), pt.shifted(m, theta)))
        devs["translation-law[%s]" % m] = dev

    draws = [(draw_point(rng), rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
             for _ in range(25)]
    starts = [embed_point(pt) for pt, _, _ in draws]
    firsts = images(["ax"] * 25, [d[1] for d in draws], starts)
    twos = images(["ax"] * 25, [d[2] for d in draws], firsts)
    ones = images(["ax"] * 25, [d[1] + d[2] for d in draws], starts)
    devs["additivity[x]"] = max(
        [0.0] + [gap(q_from_p(a), q_from_p(b)) for a, b in zip(twos, ones)]
    )

    half_x = q_from_p(step("pq", math.log(2), embed_point(MinkowskiPoint(x=1)).v))
    dev = gap(half_x, MinkowskiPoint(x=0.5))
    draws = [(draw_point(rng), rng.uniform(-0.8, 0.8)) for _ in range(20)]
    outs = images(["pq"] * 20, [t for _, t in draws], [embed_point(pt) for pt, _ in draws])
    for (pt, theta), out in zip(draws, outs):
        dev = max(dev, gap(q_from_p(out), pt.scaled(math.exp(-theta))))
    devs["dilation-law"] = dev

    for _ in range(12):  # the lorentz-on-q points, which stay scalar
        draw_point(rng)

    mob_dev = null_dev = 0.0
    for m in TRANSLATABLE:
        done = 0
        while done < max(1, samples // len(TRANSLATABLE)):
            pt, theta = draw_point(rng), rng.uniform(-0.6, 0.6)
            alpha = MinkowskiPoint(**{m: theta})
            denom = 1 + 2 * minkowski_inner(pt, alpha) + minkowski_norm2(alpha) * (
                minkowski_norm2(pt))
            if abs(denom) < 0.2:
                continue
            out = NullVector(step("b" + m, theta, embed_point(pt).v))
            mob_dev = max(mob_dev, gap(q_from_p(out), mobius_oracle(pt, alpha)))
            scale = float(out.v.max_abs())
            null_dev = max(null_dev, abs(metric_form(out.v)) / max(1.0, scale * scale))
            done += 1
    devs["conformal-vs-mobius"], devs["null-preserved"] = mob_dev, null_dev

    draws = [(draw_point(rng), rng.choice(TRANSLATABLE), rng.uniform(-0.8, 0.8))
             for _ in range(50)]
    starts = [embed_point(pt) for pt, _, _ in draws]
    moves = images(["a" + m for _, m, _ in draws], [t for _, _, t in draws], starts)
    rt_dev = ratio_dev = 0.0
    for (pt, _, _), n, moved in zip(draws, starts, moves):
        rt_dev = max(rt_dev, gap(q_from_p(n), pt))
        for v, point in ((n.v, pt), (moved.v, q_from_p(moved))):
            ratio = (v.p - v.q) / (v.p + v.q)
            ratio_dev = max(ratio_dev, abs(ratio - minkowski_norm2(point)))
    devs["embed-roundtrip"], devs["ratio-identity"] = rt_dev, ratio_dev
    return {k: repr(v) for k, v in devs.items()}


def array_route(seed, samples):
    rep = verify_conformal({"seed": seed, "samples": samples, "tolerance": 1e-12})
    return {c.check_id: c.actual for c in rep.checks if c.check_id in SAMPLED}


class TestAgainstTheScalarLoop:
    # 1,000 samples are 250 per direction, which act_on_coords steps as
    # two chunks of 128 and a part; 520 cross the chunk boundary by two
    # rows, 512 end exactly on it.
    @pytest.mark.parametrize(
        "seed, samples",
        [(42, 1000), (1, 1000), (7, 1000), (1234, 1000), (99, 520), (5, 512), (8, 40)],
    )
    def test_every_deviation_is_the_scalar_one(self, seed, samples):
        assert array_route(seed, samples) == scalar_reference(seed, samples)

    def test_small_chunks_read_the_same_stream(self, monkeypatch):
        monkeypatch.setattr(batch, "BATCH_SIZE", 7)
        assert array_route(3, 120) == scalar_reference(3, 120)

    def test_a_refused_row_takes_the_scalar_step(self, monkeypatch):
        # Every 17th row the kernel returns is marked refused, so it goes
        # through act_on_vector; the deviations cannot move.
        conjugate, fallbacks = batch.conjugate, []
        act_on_vector = group.act_on_vector

        def refusing(coords, steps):
            out, ok = conjugate(coords, steps)
            ok = ok.copy()
            ok[::17] = False
            return out, ok

        def counted(word, v):
            fallbacks.append(word)
            return act_on_vector(word, v)

        monkeypatch.setattr(batch, "conjugate", refusing)
        monkeypatch.setattr(group, "act_on_vector", counted)
        assert array_route(42, 400) == scalar_reference(42, 400)
        assert len(fallbacks) > 20

    def test_an_image_at_infinity_raises(self, monkeypatch):
        # An image's p + q is its Mobius denominator, which the draws hold
        # to at least 0.2, so an image at infinity can only come from a
        # wrong route.  One conformal translation is forced onto p + q = 0
        # on both routes, and both refuse it instead of skipping it.
        act_on_coords, chosen = group.act_on_coords, []
        at_infinity = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0])

        def forcing(words, coords):
            out = act_on_coords(words, coords)
            if not chosen and words[0][0][0][0] == "b":
                out[30] = at_infinity
                chosen.append(words[30][0][1])
            return out

        def forced_step(name, theta, v):
            if name[0] == "b" and theta == chosen[0]:
                return Vector6(*at_infinity.tolist())
            return reference_step(name, theta, v)

        monkeypatch.setattr(group, "act_on_coords", forcing)
        with pytest.raises(ValueError, match="p \\+ q = 0"):
            array_route(42, 200)
        assert len(chosen) == 1
        with pytest.raises(ValueError, match="p \\+ q = 0"):
            scalar_reference(42, 200, step=forced_step)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
class TestRowChecks:
    # The array tests raise the scalar tests' messages, for the first
    # failing row in index order.  numpy warns on the overflowing rows.
    GOOD = embed_point(MinkowskiPoint(0.1, 0.2, -0.3, 0.4)).v.as_tuple()
    BAD = {
        "non-null": (0.0, 0.0, 0.0, 0.0, 1.0, 0.5),
        "non-finite": (math.nan, 0.0, 0.0, 0.0, 1.0, 1.0),
        "infinite": (math.inf, 0.0, 0.0, 0.0, 1.0, 1.0),
        "overflowing": (1e200, 0.0, 0.0, 0.0, 1e200, 1.0),
        "p + q = 0": (1.0, 0.0, 0.0, 1.0, 0.5, -0.5),
    }

    @staticmethod
    def message(fn, *args):
        with pytest.raises(ValueError) as err:
            fn(*args)
        return str(err.value)

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_a_bad_row_raises_the_null_vector_message(self, kind):
        rows = np.array([self.GOOD, self.BAD[kind], self.BAD["non-null"]])
        want = self.message(NullVector, Vector6(*self.BAD[kind]))
        assert self.message(checks._null_rows, rows) == want

    # apply_conformal_translation reads one image through _chart, which
    # refuses a bad image with NullVector's message, or with the chart
    # test's own when a coordinate is not finite.
    CHART_MESSAGE = {
        "non-null": "metric square -0.75 beyond tolerance",
        "non-finite": "coordinates (nan, 0.0, 0.0, 0.0, 1.0, 1.0) are not finite",
        "infinite": "coordinates (inf, 0.0, 0.0, 0.0, 1.0, 1.0) are not finite",
        "overflowing": "metric square nan is not finite",
    }

    @pytest.mark.parametrize("kind", sorted(CHART_MESSAGE))
    def test_a_bad_image_raises_the_chart_message(self, kind):
        assert self.message(conformal._chart, Vector6(*self.BAD[kind])) == (
            self.CHART_MESSAGE[kind]
        )

    def test_an_image_at_infinity_is_a_point_at_infinity_but_a_bad_row(self):
        # One image reads as AT_INFINITY; a sampled row never may, since
        # the sampled checks draw only finite images.
        bad = self.BAD["p + q = 0"]
        assert conformal._chart(Vector6(*bad)) is AT_INFINITY
        rows = np.array([self.GOOD, bad, self.GOOD])
        assert self.message(checks._null_rows, rows) == (
            "p + q = 0: no finite point coordinates"
        )

    def test_good_rows_pass_unchanged(self):
        rows = np.array([self.GOOD] * 3)
        assert checks._null_rows(rows).tolist() == rows.tolist()


def test_a_default_pass_builds_few_null_vectors(monkeypatch):
    # The sampled checks test their rows as arrays.  Before they did, a
    # default pass built 2,463 NullVector objects, one or more per
    # sample; what is left is the scalar lorentz-on-q, classifier,
    # dilation and scale-invariance cases (21).
    init, built = NullVector.__init__, []

    def counted(self, v):
        built.append(v)
        init(self, v)

    monkeypatch.setattr(NullVector, "__init__", counted)
    verify_conformal()
    assert 0 < len(built) <= 50
