"""Figure 20: application implementation effort (LOC using LITE).

The paper's table shows each application needs only tens of lines of
LITE calls (20-49 for Log/MR/Graph) out of hundreds-to-thousands of
application LOC — the networking is fully encapsulated.  We count the
same metric over our implementations.  LITE-Graph-DSM uses *zero* LITE
lines in the paper (it sits purely on DSM loads/stores); ours keeps a
similarly tiny count (barriers only).
"""

import importlib.util

from .figures import ROOT, Figure

PAPER = {
    "LITE-Log": (330, 36),
    "LITE-MR": (600, 49),
    "LITE-Graph": (1400, 20),
    "LITE-DSM": (3000, 45),
    "LITE-Graph-DSM": (1300, 0),
}


def _loc_tool():
    """``tools/loc.py``, loaded by path: ``tools/`` never joins
    ``sys.path`` and the module never enters ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_fig20(_jobs):
    rows = []
    for name, loc, lite_loc in _loc_tool().app_effort_table(ROOT):
        paper_loc, paper_lite = PAPER[name]
        rows.append((name, loc, lite_loc, paper_loc, paper_lite))
    return rows


FIG20 = Figure(
    "fig20", "Figure 20: application implementation effort",
    ["application", "LOC", "LOC using LITE", "paper LOC", "paper LITE LOC"],
    run_fig20,
    claim="Each application needs only tens of lines of LITE calls out of "
          "hundreds to thousands of LOC.",
    checks={
        "every application has code": lambda t: all(r["LOC"] > 0 for r in t),
        "LITE lines are a small fraction (< 30%) of each app": lambda t: all(
            r["LOC using LITE"] < 0.30 * r["LOC"] for r in t),
        # The paper's graph engine needs ~20 LITE lines.
        "LITE-Graph stays within the same order (<= 40 LITE lines)":
            lambda t: t["LITE-Graph"]["LOC using LITE"] <= 40,
        # Paper: 0; the allowance is for explicit barrier calls.
        "Graph-DSM barely touches LITE directly (<= 8 LITE lines)":
            lambda t: t["LITE-Graph-DSM"]["LOC using LITE"] <= 8,
    },
)
