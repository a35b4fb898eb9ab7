"""The docs cite tests and modules that exist.

Every ``tests/<file>.py`` and ``tests/<file>.py::<name>`` named in the
docs must resolve: the file exists and ``<name>`` is a function defined
in it (found with ``ast``, so nothing is imported or run).  Every
backticked ``repro.<dotted.name>`` (a call's argument list allowed)
must resolve too: the longest importable module prefix is imported and
the rest is looked up with ``getattr``.  Every ``<pkg>/<file>.py`` path
inside a one-line code span must be a file under the repo root,
``src/repro/`` or one of the top-level code directories, and every
``SimParams.<name>`` in one must be a dataclass field.
"""

import ast
import dataclasses
import importlib
import pathlib
import re

from repro.hw.params import SimParams

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [*sorted(ROOT.glob("docs/*.md")), ROOT / "DESIGN.md", ROOT / "README.md",
        ROOT / "EXPERIMENTS.md", ROOT / ".claude/skills/verify/SKILL.md"]
CITATION = re.compile(r"\btests/(\w+\.py)(?:::(\w+))?")
REFERENCE = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`)]*\))?`")
SPAN = re.compile(r"`[^`\n]+`")
PATH = re.compile(r"(?<![\w/.-])((?:\w+/)+\w+\.py)\b")
FIELD = re.compile(r"\bSimParams\.(\w+)")
PATH_ROOTS = [ROOT, *(ROOT / name for name in (
    "src/repro", "tests", "tools", "benchmarks", "examples", "perfbench"))]


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


def _span_names(text: str):
    """``(cited, dangling)`` over the paths and ``SimParams`` fields
    named in ``text``'s one-line code spans."""
    fields = {field.name for field in dataclasses.fields(SimParams)}
    cited, dangling = 0, []
    for span in SPAN.findall(text):
        for path in PATH.findall(span):
            cited += 1
            if not any((root / path).is_file() for root in PATH_ROOTS):
                dangling.append(path)
        for name in FIELD.findall(span):
            cited += 1
            if name not in fields:
                dangling.append(f"SimParams.{name}")
    return cited, dangling


def test_cited_paths_and_simparams_fields_resolve():
    dangling, cited = [], 0
    for doc in DOCS:
        count, missing = _span_names(doc.read_text())
        cited += count
        dangling += [f"{doc.relative_to(ROOT)}: {name}" for name in missing]
    assert cited > 50, "the span patterns stopped matching the docs"
    assert not dangling, dangling


def test_dangling_span_names_are_caught():
    text = ("`SimParams.lite_ctrl_retries` and `hw/params.py` resolve; "
            "`SimParams.lite_qp_pool_reserve > 0` and `hw/knobs.py` do not")
    assert _span_names(text) == (
        4, ["SimParams.lite_qp_pool_reserve", "hw/knobs.py"])
