"""Command-line surface: verification suites, word transforms, matrix dumps.

Exit codes: 0 when nothing failed (documented discrepancies do not
fail a run), 1 when at least one check failed, 2 for usage errors,
which include non-finite numbers and angles whose matrices overflow,
and 141 (128 + SIGPIPE, as a shell reports it) when standard output
closed before all of it was written.
A ``--word`` is checked here for its format only.  Step names and
angles are refused by ``group``'s step table, with its message: per step
for ``transform``, and for the one step of ``show generator`` and
``show real-generator`` (which first refuses a name that is not a plane).
The json format is deterministic: the same configuration produces
byte-identical output.  numpy loads when ``verify`` or a ``show real-*``
command runs, ``realrep`` only for its suite and ``show real-*``;
``transform`` loads neither.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from operator import attrgetter

from .algebra import BASIS
from .clifford import COORDS, Vector6, sigma, gamma, verify_clifford
from .conformal import (
    AT_INFINITY,
    MinkowskiPoint,
    POINT_COORDS,
    embed_point,
    q_or_infinity,
    step_vector,
    verify_conformal,
)
from .group import (
    appendix_check,
    canonical_plane,
    generator,
    verify_group,
    verify_properties,
)
from .report import SUITE_DEFAULTS, Check

__all__ = ["RunConfig", "UsageError", "SUITES", "MAX_SAMPLES", "main"]

_FORMATS = ("json", "text", "csv")

# Largest --samples accepted; the suites' run time grows linearly with it.
MAX_SAMPLES = 1_000_000


def _verify_realrep(config=None):
    """realrep.verify_realrep, imported on first use."""
    from .realrep import verify_realrep
    return verify_realrep(config)


SUITES = (
    ("clifford", verify_clifford),
    ("properties", verify_properties),
    ("group", verify_group),
    ("conformal", verify_conformal),
    ("realrep", _verify_realrep),
    ("appendix", appendix_check),
)


class UsageError(ValueError):
    pass


class RunConfig:
    def __init__(self, tolerance=SUITE_DEFAULTS["tolerance"], seed=SUITE_DEFAULTS["seed"],
                 samples=SUITE_DEFAULTS["samples"], fmt="text"):
        if not tolerance > 0:
            raise UsageError("tolerance must be positive")
        if not math.isfinite(tolerance):
            raise UsageError("tolerance must be finite")
        if samples < 1:
            raise UsageError("samples must be at least 1")
        if samples > MAX_SAMPLES:
            raise UsageError("samples must be at most %d" % MAX_SAMPLES)
        if fmt not in _FORMATS:
            raise UsageError("unknown format %r" % (fmt,))
        self.tolerance = tolerance
        self.seed = seed
        self.samples = samples
        self.fmt = fmt

    def suite_config(self):
        return {
            "tolerance": self.tolerance,
            "seed": self.seed,
            "samples": self.samples,
        }


def _num(value):
    return "%.12g" % value


def _render_reports_text(reports, out):
    total = {"pass": 0, "fail": 0, "discrepancy-documented": 0}
    for rep in reports:
        cfg = " ".join("%s=%s" % (k, rep.config[k]) for k in sorted(rep.config))
        out.write("suite %s%s\n" % (rep.suite, " (%s)" % cfg if cfg else ""))
        for c in rep.sorted_checks():
            line = "  [%s] %s: expected %s; actual %s" % (
                c.status,
                c.check_id,
                c.expected,
                c.actual,
            )
            if c.context:
                line += "; %s" % c.context
            out.write(line + "\n")
        counts = rep.counts()
        for k in total:
            total[k] += counts[k]
        out.write(
            "  %d pass, %d fail, %d discrepancy-documented\n"
            % (counts["pass"], counts["fail"], counts["discrepancy-documented"])
        )
    out.write(
        "overall: %d pass, %d fail, %d discrepancy-documented\n"
        % (total["pass"], total["fail"], total["discrepancy-documented"])
    )


# A report and a check of the json document at their depths, keys sorted.
_REPORT_JSON = (
    '    {\n      "checks": %s,\n      "config": %s,\n      "counts": %s,\n'
    '      "suite": %s\n    }'
)
_CHECK_FIELDS = sorted(Check.__slots__)
_CHECK_JSON = "        {\n%s\n        }" % ",\n".join(
    '          "%s": %%s' % name for name in _CHECK_FIELDS
)


def _json_list(items, indent):
    return "[\n%s\n%s]" % (",\n".join(items), indent) if items else "[]"


def _render_reports_json(reports, out):
    """json.dumps({"reports": [...]}, sort_keys=True, indent=2), in one pass.

    Strings go through json.dumps' own escaper; only each report's config
    and counts dicts go through json.dumps.  The text goes out in slices
    of io's buffer size: a pipe that closes during one large write cuts it
    short silently, while the slice after it raises BrokenPipeError.
    """
    esc, fields = json.encoder.encode_basestring_ascii, attrgetter(*_CHECK_FIELDS)
    docs = []
    for rep in reports:
        checks = [_CHECK_JSON % tuple(map(esc, fields(c))) for c in rep.sorted_checks()]
        config, counts = (
            json.dumps(d, sort_keys=True, indent=2).replace("\n", "\n      ")
            for d in (rep.config, rep.counts())
        )
        docs.append(_REPORT_JSON % (_json_list(checks, "      "), config, counts, esc(rep.suite)))
    text = '{\n  "reports": %s\n}\n' % _json_list(docs, "  ")
    for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        out.write(text[i:i + io.DEFAULT_BUFFER_SIZE])


def _render_reports_csv(reports, out):
    writer = csv.writer(out)
    writer.writerow(["suite", "check_id", "status", "expected", "actual", "context"])
    for rep in reports:
        for c in rep.sorted_checks():
            writer.writerow(
                [rep.suite, c.check_id, c.status, c.expected, c.actual, c.context]
            )


def _cmd_verify(args, config, out):
    wanted = names = [name for name, _ in SUITES]
    if args.suites not in (None, "", "all"):
        wanted = [s.strip() for s in args.suites.split(",") if s.strip()]
        for s in wanted or [args.suites]:  # "," names no suite
            if s not in names:
                raise UsageError(
                    "unknown suite %r (choose from %s)" % (s, ", ".join(sorted(names)))
                )
    reports = [fn(config.suite_config()) for name, fn in SUITES if name in wanted]
    render = {
        "text": _render_reports_text,
        "json": _render_reports_json,
        "csv": _render_reports_csv,
    }[config.fmt]
    render(reports, out)
    return 0 if all(rep.passed for rep in reports) else 1


def _parse_word(text):
    word = []
    text = (text or "").strip()
    if not text:
        return word
    for item in text.split(","):
        item = item.strip()
        parts = item.split(":")
        if len(parts) != 2:
            raise UsageError("bad word entry %r (want name:angle)" % (item,))
        try:
            angle = float(parts[1])
        except ValueError:
            raise UsageError("bad angle in %r" % (item,))
        word.append((parts[0].strip(), angle))
    return word


def _parse_point(text):
    try:
        comps = [float(c) for c in text.split(",")]
    except ValueError:
        raise UsageError("point components must be numbers")
    if not all(math.isfinite(c) for c in comps):
        raise UsageError("point components must be finite")
    if len(comps) == 4:
        return MinkowskiPoint(*comps)
    if len(comps) == 6:
        return Vector6(*comps)
    raise UsageError("--point takes 4 components (t,x,y,z) or 6 (x,y,z,t,p,q)")


def _encode_state(vec, as_point):
    """A state's coordinates as floats; adding 0.0 folds -0.0 to 0.0."""
    if not as_point:
        return {
            "kind": "vector",
            **{m: float(vec.component(m)) + 0.0 for m in COORDS},
        }
    pt = q_or_infinity(vec)
    if pt is AT_INFINITY:
        return {"kind": "at-infinity"}
    return {
        "kind": "point",
        **{m: float(pt.component(m)) + 0.0 for m in POINT_COORDS},
    }


def _state_text(state):
    if state["kind"] == "at-infinity":
        return "at-infinity"
    if state["kind"] == "point":
        coords = ", ".join(_num(state[m]) for m in POINT_COORDS)
        return "point (t, x, y, z) = (%s)" % coords
    coords = ", ".join(_num(state[m]) for m in COORDS)
    return "vector (x, y, z, t, p, q) = (%s)" % coords


def _cmd_transform(args, config, out):
    word = _parse_word(args.word)
    parsed = _parse_point(args.point)
    as_point = isinstance(parsed, MinkowskiPoint)
    try:
        vec = embed_point(parsed).v if as_point else parsed
    except (ValueError, OverflowError) as exc:
        raise UsageError("cannot embed the point: %s" % (exc,))

    states = [_encode_state(vec, as_point)]
    for i, (name, angle) in enumerate(word, 1):
        try:
            vec = step_vector(name, angle, vec)
        except (ValueError, OverflowError) as exc:
            raise UsageError(
                "step %d %s:%s failed: %s" % (i, name, _num(angle), exc)
            )
        states.append(_encode_state(vec, as_point))

    if config.fmt == "json":
        doc = {
            "input": states[0],
            "steps": [
                {"name": name, "angle": angle, "image": state}
                for (name, angle), state in zip(word, states[1:])
            ],
            "final": states[-1],
        }
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif config.fmt == "csv":
        writer = csv.writer(out)
        cols = ["step", "name", "angle", "kind", "t", "x", "y", "z", "p", "q"]
        writer.writerow(cols)
        names = [("", "")] + list(word)
        for i, state in enumerate(states):
            name, angle = names[i]
            row = [i, name, angle, state["kind"]]
            for m in ("t", "x", "y", "z", "p", "q"):
                row.append(state.get(m, ""))
            writer.writerow(row)
    else:
        out.write("input:  %s\n" % _state_text(states[0]))
        for i, ((name, angle), state) in enumerate(zip(word, states[1:]), 1):
            out.write(
                "step %d  %s:%s -> %s\n" % (i, name, _num(angle), _state_text(state))
            )
        out.write("final:  %s\n" % _state_text(states[-1]))
    return 0


def _floats(s):
    """A scalar's coefficients as floats; adding 0.0 folds -0.0 to 0.0."""
    return [float(c) + 0.0 for c in s.coeffs]


def _show_tensor(mat, config, out):
    if config.fmt == "json":
        doc = [[dict(zip(BASIS, _floats(e))) for e in row] for row in mat.rows]
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif config.fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["i", "j"] + list(BASIS))
        for i, row in enumerate(mat.rows):
            for j, e in enumerate(row):
                writer.writerow([i, j] + _floats(e))
    else:
        out.write(str(mat) + "\n")


def _show_real(arr, config, out):
    rows = (arr + 0).tolist()  # adding 0 folds -0.0 to 0.0 and keeps ints
    if config.fmt == "json":
        out.write(json.dumps(rows, indent=2) + "\n")
    elif config.fmt == "csv":
        csv.writer(out).writerows(rows)
    else:
        for row in rows:
            out.write(" ".join("%6s" % _num(v) for v in row) + "\n")


def _cmd_show(args, config, out):
    kind, ident = args.object, args.id
    if kind in ("sigma", "gamma", "real-gamma"):
        if ident not in COORDS:
            raise UsageError("unknown coordinate %r" % (ident,))
        if kind == "sigma":
            _show_tensor(sigma(ident), config, out)
        elif kind == "gamma":
            _show_tensor(gamma(ident), config, out)
        else:
            from .realrep import real_gamma
            _show_real(real_gamma(ident), config, out)
        return 0
    make, show = generator, _show_tensor
    if kind == "real-generator":
        try:
            canonical_plane(ident)
        except ValueError:
            raise UsageError(
                "unknown plane %r (real-generator takes the fifteen planes only:"
                " it exponentiates a plane's closed Kronecker form)" % (ident,)
            )
        from .realrep import exp_real_generator
        make, show = exp_real_generator, _show_real
    try:
        mat = make(ident, args.angle)
    except OverflowError:
        raise UsageError("--angle %s overflows the matrix entries" % _num(args.angle))
    except ValueError as exc:
        raise UsageError(str(exc))
    show(mat, config, out)
    return 0


# The options only the verify suites read; RunConfig holds their defaults.
_SUITE_OPTIONS = {"tolerance": float, "seed": int, "samples": int}


def _add_format(p):
    p.add_argument("--format", choices=_FORMATS, default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="splitconf",
        description="Verify and explore the bundled matrix structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suites",
        default="all",
        help="comma-separated subset of: %s (default all)"
        % ", ".join(name for name, _ in SUITES),
    )
    _add_format(p_verify)
    for name, kind in _SUITE_OPTIONS.items():
        p_verify.add_argument("--" + name, type=kind, default=argparse.SUPPRESS)

    p_transform = sub.add_parser("transform", help="apply a generator word")
    p_transform.add_argument(
        "--word",
        default="",
        help="comma-separated name:angle steps; names are the fifteen "
        "planes plus ax..at (translations) and bx..bt (conformal)",
    )
    p_transform.add_argument(
        "--point",
        required=True,
        help="4 components t,x,y,z (embedded automatically) or "
        "6 components x,y,z,t,p,q; a leading minus needs the = form, "
        "as in --point=-1,0,0,0",
    )
    _add_format(p_transform)

    p_show = sub.add_parser("show", help="print one matrix")
    p_show.add_argument(
        "object",
        choices=("sigma", "gamma", "generator", "real-gamma", "real-generator"),
    )
    p_show.add_argument("id")
    p_show.add_argument("--angle", type=float, default=1.0)
    _add_format(p_show)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    fmt = args.format
    if fmt is None:
        fmt = os.environ.get("SPLITCONF_FORMAT") or "text"
    try:
        config = RunConfig(
            fmt=fmt, **{k: v for k, v in vars(args).items() if k in _SUITE_OPTIONS}
        )
        handler = {
            "verify": _cmd_verify,
            "transform": _cmd_transform,
            "show": _cmd_show,
        }[args.command]
        code = handler(args, config, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The signal docs' "Note on SIGPIPE": with stdout on devnull, the
        # flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
