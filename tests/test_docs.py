"""The docs cite tests and modules that exist.

Every ``tests/<file>.py`` and ``tests/<file>.py::<name>`` named in the
docs must resolve: the file exists and ``<name>`` is a function defined
in it (found with ``ast``, so nothing is imported or run).  Every
backticked ``repro.<dotted.name>`` (a call's argument list allowed)
must resolve too: the longest importable module prefix is imported and
the rest is looked up with ``getattr``.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [*sorted(ROOT.glob("docs/*.md")), ROOT / "DESIGN.md", ROOT / "README.md",
        ROOT / "EXPERIMENTS.md", ROOT / ".claude/skills/verify/SKILL.md"]
CITATION = re.compile(r"\btests/(\w+\.py)(?:::(\w+))?")
REFERENCE = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`)]*\))?`")


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


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target


def test_cited_repro_names_resolve():
    dangling, cited = [], 0
    for doc in DOCS:
        for match in REFERENCE.finditer(doc.read_text()):
            cited += 1
            try:
                _resolve(match[1])
            except AttributeError:
                dangling.append(f"{doc.relative_to(ROOT)}: {match[0]}")
    assert cited > 20, "the reference pattern stopped matching the docs"
    assert not dangling, dangling
