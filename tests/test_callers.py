"""Every public top-level name of the package has a caller outside its tests."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names that only the acceptance tests call; they stay public on purpose.
ACCEPTANCE_NAMES = {"decomposition_residuals", "haar_reconstruction", "trace_pairing",
                    "rotate_spec", "make_ks_symbol", "limit_table"}


def _identifiers(tree):
    """Every name a piece of code mentions: variables, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_name_has_a_caller():
    mentions = Counter()
    definitions = []
    for path in sorted((ROOT / "src" / "schurlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        mentions.update(_identifiers(tree))
        definitions += [(path.stem, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        mentions.update(_identifiers(ast.parse(path.read_text())))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))

    unused = [f"{module}.{node.name}" for module, node in definitions
              if node.name not in ACCEPTANCE_NAMES | readme
              and mentions[node.name] == Counter(_identifiers(node))[node.name]]
    assert not unused, f"public names that nothing but their tests call: {unused}"
