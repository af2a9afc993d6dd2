"""The mutant list of tools/mutants.py cannot rot silently."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_old_text_occurs_exactly_once_in_src():
    mutants = load_mutants()
    assert len({m[0] for m in mutants}) == len(mutants)
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "splitconf").glob("*.py")}
    for ident, name, old, new, why in mutants:
        assert old != new and why, ident
        counts = {f: text.count(old) for f, text in sources.items() if old in text}
        assert counts == {name: 1}, ident
