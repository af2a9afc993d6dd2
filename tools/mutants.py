"""Named semantic mutants of splitconf, and which tier-1 test kills each.

    python3 tools/mutants.py [mutant id ...]

Run from the root of a source checkout.  The tool copies the tree to a
temporary directory (``src/`` is never edited in place), runs tier-1
there once unmutated, then applies one mutant at a time and runs
tier-1 with ``-x`` under the ``fast`` hypothesis profile and hypothesis
seed 0 (so a rerun records the same first killer), leaving out
``tests/test_mutants.py``, which no mutated tree passes.  It writes
``MUTANTS.json`` at the root: per mutant, ``killed`` and the first
failing test, or ``survived``; the records of mutants not named on the
command line are kept.  A survivor either gets a test that
kills it or its ``why`` says why it is equivalent.  About 30 s per
mutant on a 2-CPU machine; it is not a test and pytest does not
collect it.  ``tests/test_mutants.py`` checks that every old text
still occurs exactly once in ``src/``, and that ``MUTANTS.json`` holds
one record per listed mutant, each survivor's ``why`` starting with
"equivalent".
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "splitconf"

# (id, file under src/splitconf, old text, new text, why it matters)
MUTANTS = (
    ("mul-terms-reversed", "algebra.py",
     "    for i, x in a:\n", "    for i, x in reversed(a):\n",
     "the product kernel's term order fixes how every float sum rounds"),
    ("mul-sign-flip", "algebra.py",
     "((1, 1), (0, -1), (3, -1), (2, 1)),", "((1, 1), (0, -1), (3, 1), (2, 1)),",
     "one wrong structure constant (K * KL = L) is another algebra"),
    ("within-floor-only", "algebra.py",
     "return (a <= tol) | (a <= tol * scale)", "return a <= tol",
     "float checks are relative to the scale above 1"),
    ("span-tol-loose", "algebra.py",
     "SPAN_TOL = 1e-9", "SPAN_TOL = 1e-6",
     "the span tolerance is printed in verify's bounds"),
    ("chart-tol-zero", "algebra.py",
     "CHART_TOL = 1e-12", "CHART_TOL = 0",
     "a point whose p + q is rounding noise is at infinity"),
    ("chart-tol-loose", "algebra.py",
     "CHART_TOL = 1e-12", "CHART_TOL = 1e-6",
     "a finite point near the chart edge must stay finite"),
    ("resolve-drops-orientation", "group.py",
     "return name, kind, theta if orient > 0 else -theta", "return name, kind, theta",
     "a reversed plane name negates the angle"),
    ("appendix-tol-loose", "group.py",
     "if not all(d <= tol for d in diff[8 * cell:8 * cell + 8]):",
     "if not all(d < 10 * tol for d in diff[8 * cell:8 * cell + 8]):",
     "equivalent: the bundled table's discrepancies are of order 1, far"
     " above any tolerance, so the verdicts cannot move"),
    ("term-table-k-reversed", "plans.py",
     "for k in range(4):\n            for a in range(8):",
     "for k in reversed(range(4)):\n            for a in range(8):",
     "the plans add terms in mul_terms' order, ascending k"),
    ("plan-rounds-reversed", "plans.py",
     "    for ia, ib in rounds:\n", "    for ia, ib in reversed(rounds):\n",
     "the scalar kernel adds term r of every output in round r, so its"
     " three-term sums round as the TensorMatrix product's do"),
    ("kernel-inverse-sign", "plans.py",
     "m_inv = [u * c + g * -s for u, g in pairs]",
     "m_inv = [u * c + g * s for u, g in pairs]",
     "the scalar kernel conjugates by M and M^-1 = c I - s G"),
    ("spread-scatters-diagonal", "clifford.py",
     "    for f, c in zip(_block_rows(False), _spread_rows(coords)):\n",
     "    for f, c in zip(_block_rows(True), _spread_rows(coords)):\n",
     "build_P writes the off-diagonal rows, the plans' outputs and the"
     " reader's inputs, back onto the blocks where the gammas have them"),
    ("exact-residual-skips-diagonal", "clifford.py",
     "got = [8 * diagonal, *(8 * c for c in rows)]",
     "got = [0, *(8 * c for c in rows)]",
     "the exact residual covers the diagonal blocks, where no gamma has an"
     " entry, so an exact P with a nonzero diagonal coefficient is refused"),
    ("read-drops-realness", "clifford.py",
     "        if not all(within(c, tol, scale) for c in sym[1:]):\n",
     "        if not all(within(c, tol, scale) for c in sym[:1]):\n",
     "the float reader refuses a symmetric trace whose components 1..7"
     " are not within tol, naming it as not real"),
    ("read-residual-skips-free-rows", "clifford.py",
     "residual = _max_or_nan(map(abs, map(operator.sub, got, [0, *_spread_rows(coords)])))",
     "residual = _max_or_nan([abs(x - y) for x, y in zip(got, [0, *_spread_rows(coords)]) if y])",
     "the residual covers the rows no gamma touches (where the spread"
     " puts 0), which a deviation can reach past the traces' tolerance"),
    ("plan-fold-drops-sign", "plans.py",
     "bytes(n + len(pairs) * neg for n, neg in zip(coefs, negative))",
     "bytes(n for n, neg in zip(coefs, negative))",
     "a subtracted term's index points at the negated coefficient, so both"
     " kernels subtract it"),
    ("batch-negation-dropped", "batch.py",
     "np.concatenate((m, -m))", "np.concatenate((m, m))",
     "the batch's subtracted terms read the negated coefficients"),
    ("batch-gather-negation-dropped", "batch.py",
     "np.concatenate((p, -p))", "np.concatenate((p, p))",
     "the batch reader's subtracted rows read the negated coefficients of P"),
    ("batch-slot-negation-dropped", "batch.py",
     "np.concatenate((coords, -coords))", "np.concatenate((coords, coords))",
     "build_P_batch places a coordinate with gamma(m)'s sign, -c on a -1 slot"),
    ("sparse-product-k-reversed", "matrices.py",
     "            for k, a in arow:\n", "            for k, a in reversed(arow):\n",
     "each output entry adds its terms in ascending k, so float sums round"
     " as the dense loop's do"),
    ("so6-slots-signs-swapped", "group.py",
     "(METRIC[name[1]], METRIC[name[0]])", "(METRIC[name[0]], METRIC[name[1]])",
     "a boost's 6x6 step carries the metric sign of the other coordinate"),
    ("appendix-cell-stride-4", "group.py",
     "diff[8 * cell:8 * cell + 8]", "diff[4 * cell:4 * cell + 8]",
     "each appendix cell is eight flat coefficients; a wrong stride"
     " reports the wrong cells"),
    ("gamma-slots-sign", "clifford.py",
     "k + 6 * (x < 0)", "k + 6 * (x > 0)",
     "the slot table places every coefficient of P with gamma(m)'s sign"),
    ("resolve-kind-swap", "group.py",
     "kind = _plane_data(name)[1]",
     "kind = {\"boost\": \"rotation\", \"rotation\": \"boost\"}[_plane_data(name)[1]]",
     "a plane's kind picks cos or cosh of its angle on every route"),
    ("adjoint-commutator-reversed", "group.py",
     "gen @ gamma(m) - gamma(m) @ gen", "gamma(m) @ gen - gen @ gamma(m)",
     "the adjoint is [G, gamma_n] / 2; the reversed bracket negates every"
     " theta coefficient of the image table"),
    ("extract-lcm-to-product", "clifford.py",
     "d = math.lcm(*(c.denominator for c in flat if c))",
     "d = math.prod(c.denominator for c in flat if c)",
     "equivalent: any common multiple of the denominators gives the same"
     " normalized Fractions, the same integer tests and the same messages;"
     " the lcm only keeps the integers small"),
    ("report-match-inverted", "report.py",
     'return self.add(check_id, ok, expected, "match" if ok else "mismatch", context)',
     'return self.add(check_id, not ok, expected, "match" if ok else "mismatch", context)',
     "an exact verdict must pass exactly when its identity holds"),
    ("pq-sign-flip", "conformal.py",
     "return within(v.p + v.q, 0 if v.is_exact()",
     "return within(v.p - v.q, 0 if v.is_exact()",
     "q_or_infinity puts a point at infinity when p + q vanishes"),
    ("json-escaper-keeps-non-ascii", "cli.py",
     "json.encoder.encode_basestring_ascii", "json.encoder.encode_basestring",
     "verify's json writer escapes non-ASCII text as json.dumps does by default"),
    ("realify-drops-second-unit", "realrep.py",
     "return coeffs[..., u] * a + coeffs[..., v] * b + 0",
     "return coeffs[..., u] * a + 0",
     "each real entry of a realified scalar sums two unit images"),
    ("two-by-two-right-factor-from-m", "group.py",
     "m_inv.blocks()[3]", "m.blocks()[3]",
     "the 2x2 action multiplies on the right by a block of the inverse"
     " element c I - s G"),
    ("classify-dilation-sign", "conformal.py",
     "pt.scaled(math.exp(-theta))", "pt.scaled(math.exp(theta))",
     "the dilation law pq:theta scales a point by exp(-theta)"),
    ("conjugate-resolves-lazily", "group.py",
     "pairs = [exp_pair(*_half_angle(step, theta)) for step, theta in word]",
     "pairs = (exp_pair(*_half_angle(step, theta)) for step, theta in word)",
     "a step's own error comes before any product, so every scalar route"
     " names the same bad step the same way"),
    ("dev-fold-drops-nan", "conformal.py",
     "np.max(np.abs(np.subtract(a.as_tuple(), b.as_tuple())))",
     "np.nanmax(np.abs(np.subtract(a.as_tuple(), b.as_tuple())))",
     "a nan deviation must fail its check, not vanish from the maximum"),
)

_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out",
    "MUTANTS.json",
)


def tier1(tree):
    """(passed, first failing test id or None, last output line) of tier-1 in tree."""
    env = dict(os.environ, HYPOTHESIS_PROFILE="fast", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0",  # the first killer must not move between reruns
         "--ignore", "tests/test_mutants.py"],  # it fails on every mutant by design
        cwd=tree, env=env, capture_output=True, text=True,
    )
    shutil.rmtree(Path(tree) / ".hypothesis", ignore_errors=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", got.stdout, re.M)
    lines = got.stdout.strip().splitlines()
    return got.returncode == 0, failed and failed.group(1), lines[-1] if lines else ""


def main(argv):
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit("unknown mutant ids: %s" % sorted(unknown))
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        passed, _, last = tier1(tree)
        if not passed:
            sys.exit("tier-1 fails on the unmutated copy: %s" % last)
        for ident, name, old, new, why in chosen:
            path = tree / PACKAGE / name
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit("%s: old text occurs %d times in %s" % (ident, text.count(old), name))
            path.write_text(text.replace(old, new))
            try:
                passed, by, last = tier1(tree)
            finally:
                path.write_text(text)
            results.append({
                "id": ident, "file": name, "status": "survived" if passed else "killed",
                "by": by, "why": why,
            })
            print("%-26s %-8s %s" % (ident, results[-1]["status"], by or last), flush=True)
    path = ROOT / "MUTANTS.json"
    kept = {r["id"]: r for r in json.loads(path.read_text())} if path.exists() else {}
    kept.update((r["id"], r) for r in results)
    records = [kept[m[0]] for m in MUTANTS if m[0] in kept]
    path.write_text(json.dumps(records, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
