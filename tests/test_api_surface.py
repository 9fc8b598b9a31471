"""Every public name in promptrestore has a caller outside the tests.

The public surface is the top-level functions and classes of
src/promptrestore/*.py whose names do not start with "_", plus the public
methods and properties of those classes. A top-level name counts as used
when a loaded `Name` or `Attribute` of that name appears in src/, perfbench/
or tools/; a method or property only when a loaded `Attribute` does, since a
local variable of the same name does not reach it. Either also counts when a
string constant equal to it appears in perfbench/ (perfbench wraps ops by
name).

Matching is by bare name, so it is coarse: one use of a name covers every
definition that shares it. The test catches names nothing calls at all; it
cannot prove that each definition is reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "promptrestore"

# public names kept although only tests call them
ALLOWED = {
    "model.save_checkpoint": "how trained weights leave a process; no trainer calls it yet",
    "model.load_checkpoint": "how trained weights come back; no trainer or evaluator calls it yet",
}


def _public_surface():
    """(qualified name, bare name, is a class member) for every public definition."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((f"{mod}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{mod}.{node.name}.{item.name}", item.name, True) for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def _used_names():
    """(names a top-level definition may be used by, names a member may be used by)"""
    names, attrs = set(), set()
    for top in ("src", "perfbench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attrs.add(node.attr)
                elif top == "perfbench" and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    attrs.add(node.value)
    return names | attrs, attrs


def test_every_public_name_is_used_outside_tests():
    names, attrs = _used_names()
    surface = [(q, name in (attrs if member else names)) for q, name, member in _public_surface()]
    unused = [q for q, used in surface if not used and q not in ALLOWED]
    assert not unused, f"public names used only by tests (or by nothing): {unused}"
    # the allowlist holds only names that exist and still lack a caller
    stale = [q for q, used in surface if q in ALLOWED and used]
    stale += sorted(set(ALLOWED) - {q for q, _ in surface})
    assert not stale, f"allowlist entries that are gone or now used: {stale}"
