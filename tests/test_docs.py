"""The docs cite tests that exist.

Every ``tests/<file>.py`` and ``tests/<file>.py::<name>`` named in the
docs must resolve: the file exists and ``<name>`` is a function defined
in it (found with ``ast``, so nothing is imported or run).
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [*sorted(ROOT.glob("docs/*.md")), ROOT / "DESIGN.md", ROOT / "README.md",
        ROOT / "EXPERIMENTS.md", ROOT / ".claude/skills/verify/SKILL.md"]
CITATION = re.compile(r"\btests/(\w+\.py)(?:::(\w+))?")


def _functions(path: pathlib.Path) -> set:
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_cited_test_files_and_functions_resolve():
    dangling, cited = [], 0
    for doc in DOCS:
        for match in CITATION.finditer(doc.read_text()):
            cited += 1
            path = ROOT / "tests" / match[1]
            where = f"{doc.relative_to(ROOT)}: {match[0]}"
            if not path.is_file():
                dangling.append(where)
            elif match[2] and match[2] not in _functions(path):
                dangling.append(where)
    assert cited > 20, "the citation pattern stopped matching the docs"
    assert not dangling, dangling
