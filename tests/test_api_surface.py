"""Every public name in promptrestore has a caller outside the tests.

The public surface is the top-level functions and classes of
src/promptrestore/*.py whose names do not start with "_", plus the public
methods and properties of those classes. A top-level name counts as used
when a loaded `Name` or `Attribute` of that name appears in src/, perfbench/
or tools/. A method or property counts as used only when a loaded
`Attribute` of its name appears there outside the body of the class that
defines it: a local variable of the same name does not reach it, and a
method that only its own class calls is no entry point. Either also counts
when a string constant equal to it appears in perfbench/ (perfbench wraps
ops by name).

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
    "dataset.SampleRecord.present": "the record's present kinds, which a trainer drawing "
                                    "targets from them (ROADMAP item 5b) will read",
}


def _public_surface():
    """(qualified name, bare name, owner) for every public definition, where
    owner is None for a top-level one and (file, class name) for a member."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((f"{mod}.{node.name}", node.name, None))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{mod}.{node.name}.{item.name}", item.name, (path, node.name))
                           for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def _used_names():
    """(loaded names, {attribute name: the (file, top-level class or None)
    places it is loaded in}, perfbench's string constants)"""
    names, attrs, strings = set(), {}, set()
    for top in ("src", "perfbench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        attrs.setdefault(node.attr, set()).add((path, owner))
                    elif top == "perfbench" and isinstance(node, ast.Constant) \
                            and isinstance(node.value, str):
                        strings.add(node.value)
    return names, attrs, strings


def test_every_public_name_is_used_outside_tests():
    names, attrs, strings = _used_names()

    def used(name, owner):
        if name in strings:
            return True
        if owner is None:
            return name in names or name in attrs
        return bool(attrs.get(name, set()) - {owner})

    surface = [(q, used(name, owner)) for q, name, owner in _public_surface()]
    unused = [q for q, used in surface if not used and q not in ALLOWED]
    assert not unused, f"public names used only by tests (or by nothing): {unused}"
    # the allowlist holds only names that exist and still lack a caller
    stale = [q for q, used in surface if q in ALLOWED and used]
    stale += sorted(set(ALLOWED) - {q for q, _ in surface})
    assert not stale, f"allowlist entries that are gone or now used: {stale}"
