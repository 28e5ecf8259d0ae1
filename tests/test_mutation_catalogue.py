"""The mutation catalogue cannot rot silently: every entry's text occurs
exactly once in its source file, its replacement changes it, and its
selector names a test function that its test file defines, so that a
renamed test fails here and not only in the mutation runner."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "mutation" / "catalogue.json").read_text())


def test_catalogue_entries_apply_once():
    assert CATALOGUE
    for entry in CATALOGUE:
        assert set(entry) == {"file", "text", "replacement", "selector",
                              "reason"}, entry
        assert entry["file"].startswith("src/eaqmds/"), entry
        text = (ROOT / entry["file"]).read_text()
        assert text.count(entry["text"]) == 1, entry
        assert entry["replacement"] != entry["text"], entry
        path, name = entry["selector"].split("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        assert name.split("[")[0] in defined, entry
