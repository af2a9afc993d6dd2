import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import splitconf
from splitconf import batch, cli, clifford, group
from splitconf.group import generator
from splitconf.matrices import TensorMatrix
from splitconf.report import Check, Report


@pytest.fixture(scope="module")
def default_verify_json():
    """The default `splitconf verify --format json` output, run once."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--format", "json"])
    assert code == 0
    return out.getvalue()


# md5 of `splitconf verify --format json --seed S`, by seed.
VERIFY_DIGESTS = {
    42: "94880c4df0368417b49b39e86d87e9fa",
    1: "8e92e27c01a006108de4c49c24ccb227",
    7: "30b38ebb7fa119a8cfe9f01143eec476",
    1234: "73beee223d4f34db7b61214fec26e84f",
}


def verify_digest(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--format", "json", "--seed", str(seed)])
    assert code == 0
    return hashlib.md5(out.getvalue().encode("utf-8")).hexdigest()


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, err = run(["verify", "--suites", "clifford"], capsys)
        assert code == 0
        assert "21 pass" in out
        assert err == ""

    def test_unknown_suite_is_a_usage_error(self, capsys):
        code, out, err = run(["verify", "--suites", "bogus"], capsys)
        assert code == 2
        assert "unknown suite" in err

    @pytest.mark.parametrize("suites", [",", " , ,"])
    def test_a_suite_list_naming_no_suite_is_a_usage_error(self, capsys, suites):
        code, out, err = run(["verify", "--suites", suites], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown suite") and err.count("\n") == 1

    @pytest.mark.parametrize("suites", ["", "all"])
    def test_an_empty_suite_list_or_all_runs_every_suite(self, capsys, suites):
        code, out, _ = run(["verify", "--suites", suites, "--samples", "20",
                            "--format", "json"], capsys)
        assert code == 0
        assert [r["suite"] for r in json.loads(out)["reports"]] == [
            name for name, _ in cli.SUITES]

    def test_json_output_is_deterministic(self, capsys):
        args = ["verify", "--suites", "clifford,appendix", "--format", "json",
                "--seed", "3", "--samples", "40"]
        code1, out1, _ = run(args, capsys)
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert [s["suite"] for s in doc["reports"]] == ["clifford", "appendix"]

    def test_documented_discrepancies_do_not_fail_the_run(self, capsys):
        code, out, _ = run(
            ["verify", "--suites", "appendix", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        statuses = [c["status"] for c in doc["reports"][0]["checks"]]
        assert statuses.count("discrepancy-documented") == 1
        assert "fail" not in statuses

    def test_format_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITCONF_FORMAT", "json")
        code, out, _ = run(["verify", "--suites", "clifford"], capsys)
        assert code == 0
        json.loads(out)

    def test_explicit_format_beats_the_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITCONF_FORMAT", "json")
        code, out, _ = run(
            ["verify", "--suites", "clifford", "--format", "text"], capsys
        )
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_a_failing_check_drives_exit_code_one(self, capsys, monkeypatch):
        def broken(config=None):
            rep = Report("broken", dict(config or {}))
            rep.add("broken[example]", False, "0", "1", "forced failure")
            return rep

        monkeypatch.setattr(cli, "SUITES", (("broken", broken),))
        code, out, err = run(["verify"], capsys)
        assert code == 1

    def test_bad_tolerance_is_a_usage_error(self, capsys):
        code, _, err = run(["verify", "--tolerance", "0"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance_is_a_usage_error(self, capsys, tolerance):
        # An infinite tolerance would pass every bounded check vacuously.
        code, out, err = run(["verify", "--tolerance", tolerance], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be")
        assert err.count("\n") == 1

    def test_bad_samples_is_a_usage_error(self, capsys):
        code, _, err = run(["verify", "--samples", "0"], capsys)
        assert code == 2

    def test_samples_above_the_cap_are_refused_before_any_suite_runs(
        self, capsys, monkeypatch
    ):
        def must_not_run(config=None):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "SUITES", (("guard", must_not_run),))
        assert cli.RunConfig(samples=cli.MAX_SAMPLES).samples == cli.MAX_SAMPLES
        code, out, err = run(["verify", "--samples", "100000000000"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: samples must be at most %d\n" % cli.MAX_SAMPLES

    @pytest.mark.parametrize(
        "option", ["--tolerance=1e-9", "--seed=3", "--samples=2000000"]
    )
    @pytest.mark.parametrize(
        "argv",
        [["transform", "--point", "0,0,0,0", "--word", "ax:1"], ["show", "gamma", "x"]],
    )
    def test_only_verify_takes_the_suite_options(self, capsys, argv, option):
        # transform and show draw no samples and bound no check, so they
        # refuse the three options instead of validating and ignoring them.
        code, out, err = run(argv + [option], capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: %s" % option in err

    def test_default_json_is_byte_identical(self, default_verify_json):
        # The byte-identity gate for refactors: the md5 of the default
        # `splitconf verify --format json` output.  A change that alters
        # the output on purpose updates this digest and names the check
        # ids it changed in CHANGES.md.
        digest = hashlib.md5(default_verify_json.encode("utf-8")).hexdigest()
        assert digest == VERIFY_DIGESTS[42]
        # More seeds sample more float angles, so a reordered float sum
        # in the product kernel shows here too.
        for seed in (1, 7, 1234):
            assert verify_digest(seed) == VERIFY_DIGESTS[seed], seed

    def test_small_batches_give_the_same_bytes(self, monkeypatch):
        # Seven vectors per batch: the sampled loops refill skipped
        # samples and cross chunk boundaries many times per suite.
        monkeypatch.setattr(batch, "BATCH_SIZE", 7)
        for seed, want in VERIFY_DIGESTS.items():
            assert verify_digest(seed) == want, seed

    @staticmethod
    def count_scalar_work(monkeypatch, suite):
        """(scalar extract_coords calls, 4x4 products) of one verify suite."""
        original = clifford.extract_coords
        calls = {"extract": 0, "matmul": 0}

        def counted(*args, **kwargs):
            calls["extract"] += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "splitconf":
                if getattr(module, "extract_coords", None) is original:
                    monkeypatch.setattr(module, "extract_coords", counted)
        matmul = TensorMatrix.__matmul__

        def counted_matmul(self, other):
            calls["matmul"] += 1
            return matmul(self, other)

        monkeypatch.setattr(TensorMatrix, "__matmul__", counted_matmul)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", "--suites", suite, "--format", "json"]) == 0
        return calls["extract"], calls["matmul"]

    def test_conformal_suite_reads_coordinates_in_batches(self, monkeypatch):
        # The sampled loops and the classifier go through the numpy batch
        # path; a silent fallback to one scalar extraction per sample
        # fails here.  What stays scalar: the image table's two adjoints,
        # six exact commutators each (the cache is emptied so they count),
        # and one dilation.  Stepping the table's basis vectors instead
        # would take 18.
        group._adjoint.cache_clear()
        extracted, _ = self.count_scalar_work(monkeypatch, "conformal")
        assert 0 < extracted <= 13

    def test_group_suite_steps_its_words_in_batches(self, monkeypatch):
        # invariance[qform], step-vs-definition and composition step one
        # word per column in numpy; only pi[gamma_p/q] extract on the
        # scalar route, and the 4x4 products left are the generator
        # checks and the plane-table setup.
        extracted, products = self.count_scalar_work(monkeypatch, "group")
        assert 0 < extracted <= 10
        assert 0 < products <= 80

    def test_default_json_carries_no_numpy_reprs(self, default_verify_json):
        # A numpy scalar reaching a report prints as np.float64(...)
        # under numpy 2; every actual must be a plain Python repr.
        doc = json.loads(default_verify_json)
        actuals = [c["actual"] for r in doc["reports"] for c in r["checks"]]
        assert len(actuals) == 495
        assert not [a for a in actuals if a.startswith("np.")]


def reference_json(reports):
    """The verify json document as json.dumps writes it."""
    doc = {"reports": [
        {
            "suite": rep.suite,
            "config": rep.config,
            "counts": rep.counts(),
            "checks": [dict(zip(Check.__slots__, c._fields())) for c in rep.sorted_checks()],
        }
        for rep in reports
    ]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_json(reports):
    out = io.StringIO()
    cli._render_reports_json(reports, out)
    return out.getvalue()


HOSTILE_STRINGS = (
    'a "quoted" word', "back\\slash", "new\nline", "tab\there", "\x00\x01\x1f\x7f",
    "θ = π/2", "astral \U0001d11e", "", "\u2028\u2029\ufeff", "</script>",
)


class TestJsonWriter:
    def test_a_verify_pass_renders_as_json_dumps_does(self):
        config = cli.RunConfig(samples=20, seed=3).suite_config()
        reports = [fn(config) for _, fn in cli.SUITES]
        text = render_json(reports)
        assert len(text) > io.DEFAULT_BUFFER_SIZE  # written in several slices
        assert text == reference_json(reports)

    def test_hostile_strings_render_as_json_dumps_does(self):
        rep = Report("suite \"θ\"\n", {"seed": 1, "tolerance": 1e-12, "samples": 3})
        for i, s in enumerate(HOSTILE_STRINGS):
            rep.add(s, i % 2, s, s[::-1], s)
        rep.add_comparison("empty-context", False, "x", "y")
        reports = [rep, Report("no checks"), Report("no config", {})]
        assert render_json(reports) == reference_json(reports)
        assert render_json([]) == reference_json([]) == '{\n  "reports": []\n}\n'

    @given(
        st.lists(st.tuples(st.text(), st.booleans(), st.text(), st.text(), st.text()), max_size=4),
        st.text(),
    )
    def test_any_strings_render_as_json_dumps_does(self, checks, suite):
        rep = Report(suite, {"seed": 0})
        for check_id, ok, expected, actual, context in checks:
            rep.add(check_id, ok, expected, actual, context)
        assert render_json([rep]) == reference_json([rep])

    def test_a_report_stores_every_field_as_a_string(self):
        rep = Report("s")
        rep.add(("id", 1), True, 2, 3.5, None)
        rep.add_comparison(7, False, [1], {}, 0)
        assert [c._fields() for c in rep.checks] == [
            ("('id', 1)", "pass", "2", "3.5", "None"),
            ("7", "discrepancy-documented", "[1]", "{}", "0"),
        ]


class TestTransformCommand:
    def test_translation_of_the_origin(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "0,0,0,0", "--word", "ax:2",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final"]["kind"] == "point"
        assert doc["final"]["x"] == pytest.approx(2)
        assert doc["final"]["t"] == 0

    def test_dilation_halves_the_point(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "0,1,0,0",
             "--word", "pq:0.6931471805599453", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final"]["x"] == pytest.approx(0.5, abs=1e-12)

    def test_escape_to_infinity(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "0,1,0,0", "--word", "bx:-1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final"] == {"kind": "at-infinity"}

    def test_empty_word_echoes_the_input(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "1,2,3,4", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == []
        assert doc["final"]["t"] == 1
        assert doc["final"]["z"] == 4

    def test_six_component_input_stays_a_vector(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "1,0,0,0,0,0", "--word", "xy:0.5",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final"]["kind"] == "vector"
        assert doc["final"]["p"] == 0

    def test_csv_output_parses(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "0,0,0,0", "--word", "ax:1,ay:2",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        # row 0 echoes the input, then one row per step
        assert len(rows) == 3
        assert rows[0]["step"] == "0"
        assert rows[-1]["name"] == "ay"
        assert float(rows[-1]["y"]) == pytest.approx(2)

    def test_six_component_text_output_prints_vector_lines(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "1,0,0,0,1,0", "--word", "pq:0.5"], capsys
        )
        assert code == 0
        vec = "vector (x, y, z, t, p, q) = (1, 0, 0, 0, %s)"
        image = vec % "1.12762596521, 0.521095305494"
        assert out.splitlines() == [
            "input:  " + vec % "1, 0",
            "step 1  pq:0.5 -> " + image,
            "final:  " + image,
        ]

    def test_text_output_mentions_each_step(self, capsys):
        code, out, _ = run(
            ["transform", "--point", "0,0,0,0", "--word", "ax:1"], capsys
        )
        assert code == 0
        assert "input:" in out
        assert "step 1" in out
        assert "final:" in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_negative_zeros_print_as_zero(self, capsys, fmt):
        # ax:-1 then bx:1 leaves y and z at -0.0 before encoding.
        code, out, _ = run(
            ["transform", "--point", "1,0,0,0", "--word", "ax:-1,bx:1",
             "--format", fmt],
            capsys,
        )
        assert code == 0
        if fmt == "text":
            assert out.splitlines()[-1] == "final:  point (t, x, y, z) = (-1, 1, 0, 0)"
        elif fmt == "json":
            final = json.loads(out)["final"]
            assert [math.copysign(1.0, final[m]) for m in "yz"] == [1.0, 1.0]
            assert "-0.0" not in out
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            assert [rows[-1][m] for m in "tyz"] == ["-1.0", "0.0", "0.0"]

    def test_a_leading_minus_needs_the_equals_form(self, capsys):
        code, out, _ = run(["transform", "--point=-1,0,0,0", "--word", "ax:1"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "final:  point (t, x, y, z) = (-1, 1, 0, 0)"
        # With a space, argparse reads -1,0,0,0 as an option: a usage error.
        code, out, err = run(["transform", "--point", "-1,0,0,0", "--word", "ax:1"], capsys)
        assert code == 2
        assert out == ""
        assert "--point: expected one argument" in err
        assert "Traceback" not in err

    def test_unknown_step_name_is_a_usage_error(self, capsys):
        code, _, err = run(
            ["transform", "--point", "0,0,0,0", "--word", "cx:1"], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_angle_is_a_usage_error(self, capsys):
        code, _, err = run(
            ["transform", "--point", "0,0,0,0", "--word", "ax:wide"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("point, word, message", [
        ("0,0,0,0", "xy", "bad word entry 'xy' (want name:angle)"),
        ("a,0,0,0", "xy:1", "point components must be numbers"),
    ])
    def test_a_malformed_entry_is_named(self, capsys, point, word, message):
        code, out, err = run(["transform", "--point", point, "--word", word], capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("point, word, message", [
        ("0,0,0,0", "aw:1", "step 1 aw:1 failed: unknown step name 'aw'"),
        ("0,0,0,0", "xy:0.3,yx:inf", "step 2 yx:inf failed: angle inf is not finite"),
        ("0,0,0,0", "ax:1,tz:nan", "step 2 tz:nan failed: angle nan is not finite"),
        ("a,0,0,0", "aw:1", "point components must be numbers"),
    ])
    def test_a_bad_step_gets_the_step_tables_message(self, capsys, point, word, message):
        # The word is parsed for its format only; each step's name and
        # angle are refused by group's step table as the step runs.
        code, out, err = run(["transform", "--point", point, "--word", word], capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_an_unknown_env_format_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITCONF_FORMAT", "xml")
        code, out, err = run(["transform", "--point", "0,0,0,0", "--word", "xy:1"], capsys)
        assert (code, out, err) == (2, "", "error: unknown format 'xml'\n")

    def test_wrong_point_arity_is_a_usage_error(self, capsys):
        code, _, err = run(
            ["transform", "--point", "1,2,3", "--word", "ax:1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "point, word",
        [
            ("nan,0,0,0", "ax:1"),
            ("0,inf,0,0", "ax:1"),
            ("0,0,0,0", "ax:inf"),
            ("0,0,0,0", "xy:nan"),
            ("0,1,0,0", "pq:1000"),
            ("1e200,0,0,0", "ax:1"),
            ("0,1.79e308,0,0,0,0", "ax:0.3"),
        ],
        ids=["nan-point", "inf-point", "inf-angle", "nan-angle",
             "overflowing-dilation", "overflowing-embedding",
             "infinite-image"],
    )
    def test_non_finite_input_or_result_is_a_usage_error(
        self, capsys, point, word
    ):
        code, out, err = run(
            ["transform", "--point", point, "--word", word], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "point, word, shown",
        [("1,0,0,0,1,0", "px:710", "px:710"), ("0,1,0,0", "bx:1e308", "bx:1e+308")],
    )
    def test_an_overflowing_step_names_the_overflow(self, capsys, point, word, shown):
        code, out, err = run(["transform", "--point", point, "--word", word], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: step 1 %s failed: matrix coefficient inf is not finite: the "
            "step overflowed or its input was not finite\n" % shown
        )

    @pytest.mark.parametrize("word", ["pq:800", "tx:1500", "zt:-1420.6"])
    def test_a_boost_beyond_the_limit_names_it(self, capsys, word):
        name, angle = word.split(":")
        code, out, err = run(["transform", "--point", "0,0,0,0", "--word", word], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: step 1 %s failed: boost angle %s of %r is beyond "
            "710.4758600739439, the largest whose cosh is finite\n"
            % (word, float(angle), name)
        )

    def test_an_overflowing_embedding_names_its_cause(self, capsys):
        code, out, err = run(
            ["transform", "--point", "1e200,0,0,0", "--word", "ax:1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: cannot embed the point: the Minkowski square of the "
            "point is not finite (-inf)\n"
        )


class TestShowCommand:
    def test_gamma_grid(self, capsys):
        code, out, _ = run(["show", "gamma", "z"], capsys)
        assert code == 0
        assert out.count("\n") >= 4

    def test_dilation_generator_is_diagonal(self, capsys):
        code, out, _ = run(
            ["show", "generator", "pq", "--angle", "1.0"], capsys
        )
        assert code == 0
        assert "1.12763" in out
        assert "L" in out

    def test_real_gamma_csv_has_sixteen_columns(self, capsys):
        code, out, _ = run(
            ["show", "real-gamma", "x", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 16
        assert all(len(r) == 16 for r in rows)

    def test_gamma_csv_lists_each_entry_by_basis(self, capsys):
        code, out, _ = run(["show", "gamma", "x", "--format", "csv"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["i", "j", "1", "K", "KL", "L", "l", "Kl", "KLl", "Ll"]
        assert len(rows) == 17 and all(len(r) == 10 for r in rows)
        # gamma(x) is the anti-diagonal 4x4 of ones.
        assert rows[1 + 4 * 0 + 3] == ["0", "3", "1.0"] + ["0.0"] * 7

    def test_real_gamma_json_is_the_kronecker_form(self, capsys):
        from splitconf.realrep import real_gamma

        code, out, _ = run(["show", "real-gamma", "x", "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert len(doc) == 16 and all(len(r) == 16 for r in doc)
        # sx kron sx kron I kron I: row 0 has its one at column 12.
        assert doc[0] == [0] * 12 + [1, 0, 0, 0]
        assert doc == real_gamma("x").tolist()

    @pytest.mark.parametrize("obj", ["generator", "real-generator"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_negative_zeros_print_as_zero(self, capsys, obj, fmt):
        # cos and sin of the half angle -2 are both negative, so the
        # generator's zero terms come out as -0.0 before printing.
        code, out, _ = run(["show", obj, "xy", "--angle", "-4", "--format", fmt],
                           capsys)
        assert code == 0
        cells = out.replace(",", " ").replace("[", " ").replace("]", " ").split()
        assert not {"-0", "-0.0"} & set(cells)

    def test_unknown_coordinate_is_a_usage_error(self, capsys):
        code, _, err = run(["show", "gamma", "w"], capsys)
        assert code == 2

    def test_unknown_plane_is_a_usage_error(self, capsys):
        code, _, err = run(["show", "generator", "ww"], capsys)
        assert code == 2

    @pytest.mark.parametrize("name", ["ax", "bt", "yx"])
    def test_generator_takes_every_step_name(self, capsys, name):
        code, out, _ = run(["show", "generator", name, "--angle", "1"], capsys)
        want = io.StringIO()
        cli._show_tensor(generator(name, 1.0), cli.RunConfig(), want)
        assert code == 0
        assert out == want.getvalue()

    @pytest.mark.parametrize("argv, message", [
        (["generator", "aw"], "unknown step name 'aw'"),
        (["generator", "tx", "--angle", "nan"], "angle nan is not finite"),
        (["real-generator", "tx", "--angle", "inf"], "angle inf is not finite"),
    ])
    def test_a_bad_generator_gets_the_step_tables_message(self, capsys, argv, message):
        code, out, err = run(["show"] + argv, capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_real_generator_takes_the_planes_only(self, capsys):
        code, out, err = run(["show", "real-generator", "ax"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown plane 'ax' (real-generator takes")

    @pytest.mark.parametrize("obj", ["generator", "real-generator"])
    @pytest.mark.parametrize("angle", ["nan", "inf", "2000"])
    def test_non_finite_or_overflowing_angle_is_a_usage_error(
        self, capsys, obj, angle
    ):
        code, out, err = run(["show", obj, "tx", "--angle", angle], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("plane, angle", [("tx", "1500"), ("tz", "1420.6")])
    def test_an_overflowing_real_generator_names_its_angle(self, capsys, plane, angle):
        # realrep raises OverflowError itself, without a numpy warning.
        code, out, err = run(["show", "real-generator", plane, "--angle", angle], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --angle %s overflows the matrix entries\n" % angle


class TestEntryPoint:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "verify" in out

    @staticmethod
    def package_env():
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(splitconf.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return env

    def test_python_dash_m_runs_the_command_line(self):
        env = self.package_env()
        done = subprocess.run(
            [sys.executable, "-m", "splitconf", "verify", "--suites", "clifford"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "21 pass, 0 fail" in done.stdout
        bad = subprocess.run(
            [sys.executable, "-m", "splitconf", "verify", "--suites", "bogus"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert bad.returncode == 2
        assert "unknown suite" in bad.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_closed_stdout_exits_141_without_a_traceback(self, fmt):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs a pipe whose size can be set")
        # A one-page pipe, read one byte at a time up to the first newline,
        # keeps verify writing when the reader closes it.
        read, write = os.pipe()
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-m", "splitconf", "verify", "--format", fmt, "--samples", "1"],
            stdout=write, stderr=subprocess.PIPE, env=self.package_env(),
        )
        os.close(write)
        line = b""
        while not line.endswith(b"\n"):
            line += os.read(read, 1)
        os.close(read)
        err = proc.communicate(timeout=120)[1]
        assert line == {"text": b"suite clifford (samples=1 seed=42 tolerance=1e-12)\n",
                        "json": b"{\n"}[fmt]
        assert (proc.returncode, err) == (141, b"")

    def test_verify_memory_does_not_grow_with_samples(self):
        # Each child prints its own peak: RUSAGE_CHILDREN would be the
        # largest over every child this process has already waited for.
        # Drawing all of verify_group's words up front peaked 38 MB
        # higher at 100,000 samples.
        pytest.importorskip("resource")
        script = (
            "import contextlib, io, resource, sys\n"
            "from splitconf import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--format', 'json'] + sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in bytes or KB

        def peak_mb(*args):
            done = subprocess.run(
                [sys.executable, "-c", script, *args],
                capture_output=True, text=True, env=self.package_env(), timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return int(done.stdout) * unit / 2**20

        assert peak_mb("--samples", "100000") - peak_mb() < 5

    def test_a_verify_pass_leaves_numpy_ma_unimported(self):
        # numpy.ma costs several ms to import, in every fresh process.
        script = (
            "import contextlib, io, sys\n"
            "from splitconf import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--format', 'json']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=self.package_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    LAZY = ("numpy", "splitconf.batch", "splitconf.realrep")

    def run_script(self, script):
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=self.package_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    BODIES = pytest.mark.parametrize(
        "body",
        [
            "import splitconf\n",
            "import splitconf.cli\n",
            "import contextlib, io\n"
            "from splitconf import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['transform', '--point', '0.1,0.2,0.3,0.4',\n"
            "                     '--word', 'xy:0.3,ax:0.5,bt:-0.2']) == 0\n",
        ],
        ids=["package", "cli", "transform"],
    )

    def loaded(self, body, names):
        """The printed list of those names that body leaves in sys.modules."""
        script = "import sys\n%sprint([m for m in %r if m in sys.modules])\n" % (
            body, names,
        )
        return self.run_script(script)

    @BODIES
    def test_numpy_stays_off_the_import_path(self, body):
        # numpy is most of a fresh process's import time, and the exact
        # 4x4 route of transform needs neither it, realrep nor batch.
        assert self.loaded(body, self.LAZY) == "[]\n"

    @BODIES
    def test_dataclasses_stays_off_the_import_path(self, body):
        # The value classes are plain slotted classes: the stdlib
        # dataclasses module, with the inspect it loads, and the methods
        # it generated were most of the import time with bytecode cached.
        assert self.loaded(body, ("dataclasses", "inspect")) == "[]\n"

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suites", "realrep"], ["show", "real-generator", "tx"]],
        ids=["verify-realrep", "show-real-generator"],
    )
    def test_the_numpy_routes_load_it_on_first_use(self, argv):
        script = (
            "import contextlib, io, sys\n"
            "from splitconf import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = cli.main(%r)\n"
            "print(code, bool(out.getvalue()), [m in sys.modules for m in %r])\n"
        ) % (argv, self.LAZY[::2])
        assert self.run_script(script) == "0 True [True, True]\n"

    def test_every_public_name_resolves_in_a_fresh_process(self):
        script = (
            "import splitconf\n"
            "got = {n: getattr(splitconf, n) for n in splitconf.__all__}\n"
            "from splitconf import realrep\n"
            "lazy = [n for n in realrep.__all__ if n in got]\n"
            "print([n for n in got if got[n] is None],\n"
            "      all(got[n] is getattr(realrep, n) for n in lazy), len(lazy),\n"
            "      hasattr(splitconf, 'no_such_name'), set(got) <= set(dir(splitconf)))\n"
        )
        assert self.run_script(script) == "[] True 5 False True\n"


class TestReportBound:
    def test_bound_records_what_add_would(self):
        for dev, tol in ((3e-16, 1e-12), (2e-9, 1e-9), (0.0, 1e-9), (1.5, 1)):
            a, b = Report("s"), Report("s")
            a.add("c", dev <= tol, "<= %g" % tol, repr(dev), "ctx")
            assert b.bound("c", dev, tol, "ctx") == (dev <= tol)
            assert a.checks == b.checks
        r = Report("s")
        r.bound("c", 1e-10, 1e-9)
        assert r.checks[0].expected == "<= 1e-09"

    def test_match_records_what_add_would(self):
        for ok in (True, False):
            a, b = Report("s"), Report("s")
            a.add("c", ok, "want", "match" if ok else "mismatch", "ctx")
            assert b.match("c", ok, "want", "ctx") is ok
            assert a.checks == b.checks
