"""The mutant list of tools/mutants.py, and its MUTANTS.json records, cannot rot silently."""

import importlib.util
import json
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


def test_mutants_json_holds_one_record_per_listed_mutant():
    mutants = load_mutants()
    records = json.loads((ROOT / "MUTANTS.json").read_text())
    assert len(records) == len({r["id"] for r in records})
    assert {r["id"]: r["file"] for r in records} == {m[0]: m[1] for m in mutants}
    for r in records:
        assert r["status"] in ("killed", "survived"), r["id"]
        if r["status"] == "survived":
            assert r["why"].startswith("equivalent"), r["id"]
