"""The figure registry and its runner: each paper table is one ``Figure``.

Every ``benchmarks/test_*.py`` module declares one :class:`Figure` per
table, whose named checks pin the *shape* the paper reports (who wins, by
roughly what factor, where the knees fall), not absolute numbers::

    python -m benchmarks.figures [ID ...] [--jobs N]

prints each figure's table, a ``digest`` line (the table's sha256), its
checks as pass or FAIL and its wall seconds, and exits non-zero if a
check fails.  With no IDs it runs every figure and rewrites
EXPERIMENTS.md (verdicts from the checks; no wall times, so the file is
deterministic).  ``--jobs N`` (``0`` = one per CPU) is handed to
:func:`repro.sweep.run_sweep`; tables are byte-identical at any N.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python -m benchmarks.figures``.  Absolute numbers come
from the calibrated simulation (DESIGN.md §1/§4); what the reproduction
pins down is each figure's *shape* — who wins, by what factor, where the
knees fall.  A figure is reproduced when every one of its named checks
(``benchmarks/figures.py``) passes on the table printed above them.
"""


class Table:
    """A figure's rows by header name: ``table[key]`` is the row whose first
    cell is ``key`` and iterating yields every row, each a ``{header:
    value}`` dict; ``table.col(header)`` is one column."""

    def __init__(self, headers: Sequence[str], rows: Sequence[Sequence]):
        self.headers, self.rows = list(headers), rows

    def col(self, header: str) -> list:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def __iter__(self):
        return (dict(zip(self.headers, row)) for row in self.rows)

    def __getitem__(self, key) -> dict:
        return next(row for row in self if row[self.headers[0]] == key)


Check = Callable[[Table], bool]


@dataclass(frozen=True)
class Figure:
    """One paper table.  ``rows(jobs)`` computes it (figures without a
    sweep ignore ``jobs``); ``claim`` is the paper's finding and each
    ``checks`` entry maps a check's name to its predicate."""

    id: str
    title: str
    headers: Sequence[str]
    rows: Callable[[int], list]
    claim: str
    checks: Dict[str, Check]
    note: str = ""


def monotone(header: str, keys=None) -> Check:
    """The column never decreases down the table (or over ``keys``' rows)."""
    def check(t):
        values = t.col(header) if keys is None else [t[k][header] for k in keys]
        return values == sorted(values)
    return check


def within(header: str, factor: float) -> Check:
    """The column is flat: its largest value is below ``factor`` times its
    smallest."""
    return lambda t: max(t.col(header)) < factor * min(t.col(header))


def ratio_between(num, den, lo=None, hi=None) -> Check:
    """``lo * den < num < hi * den`` for two ``(row key, header)`` cells; a
    missing bound is not checked."""
    def check(t):
        a, b = t[num[0]][num[1]], t[den[0]][den[1]]
        return (lo is None or a > lo * b) and (hi is None or a < hi * b)
    return check


def crossover(first: str, second: str) -> Check:
    """Lower is better: ``second`` wins the first row, ``first`` the last."""
    def check(t):
        top, bottom = t.rows[0], t.rows[-1]
        a, b = t.headers.index(first), t.headers.index(second)
        return top[b] < top[a] and bottom[a] < bottom[b]
    return check


def knee_between(header: str, flat_until, risen_by, flat: float,
                 rise: float) -> Check:
    """Below ``flat`` times the first row's value in every row keyed up to
    ``flat_until``, and at least ``rise`` times it at ``risen_by``."""
    def check(t):
        base = t.col(header)[0]
        return (all(row[header] < flat * base for row in t
                    if row[t.headers[0]] <= flat_until)
                and t[risen_by][header] >= rise * base)
    return check


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def render(title: str, headers: Sequence[str], rows: Sequence[Sequence],
           note: str = "") -> str:
    """The printed table: a blank line, ``=== title ===``, the aligned
    header and rows, and the note in parentheses."""
    str_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in str_rows)) if str_rows
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    out = [f"\n=== {title} ===", line, "-" * len(line)]
    out += ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in str_rows]
    if note:
        out.append(f"({note})")
    return "\n".join(out) + "\n"


def digest(table: str) -> str:
    """The sha256 of a printed table's text."""
    return hashlib.sha256(table.encode()).hexdigest()


def registry() -> List[Figure]:
    """Every declared figure: the figure modules in name order, the
    ablations last."""
    paths = sorted(Path(__file__).parent.glob("test_*.py"),
                   key=lambda path: (path.stem == "test_ablations", path.stem))
    modules = [importlib.import_module(f"benchmarks.{path.stem}")
               for path in paths if path.stem != "test_figures"]
    return [value for module in modules for value in vars(module).values()
            if isinstance(value, Figure)]


def run(figure: Figure, jobs: int = 1):
    """Compute, print and check one figure; returns the printed table and
    ``{check name: passed}``."""
    start = time.perf_counter()
    rows = figure.rows(jobs)
    text = render(figure.title, figure.headers, rows, figure.note)
    outcomes = {name: bool(check(Table(figure.headers, rows)))
                for name, check in figure.checks.items()}
    print(text + f"digest {digest(text)}")
    for name, passed in outcomes.items():
        print(f"  {'pass' if passed else 'FAIL'}  {name}")
    print(f"wall {time.perf_counter() - start:.1f} s", flush=True)
    return text, outcomes


def report(figures: Sequence[Figure], jobs: int = 1):
    """Run ``figures``; returns the exit status and the EXPERIMENTS.md text."""
    sections, status = [HEADER], 0
    for figure in figures:
        text, outcomes = run(figure, jobs)
        failed = [name for name, passed in outcomes.items() if not passed]
        status |= bool(failed)
        outcome = (f"failed: {'; '.join(failed)}" if failed
                   else f"checks passed: {'; '.join(outcomes)}")
        sections.append(
            f"## {figure.title}\n\n```{text.rstrip()}\n```\n\n"
            f"**Paper:** {figure.claim}\n\n"
            f"**Verdict:** {'NOT ' * bool(failed)}REPRODUCED — {outcome}\n")
    return status, "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="figures to run (default: all, and rewrite "
                             "EXPERIMENTS.md)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="sweep worker processes (0 = one per CPU)")
    args = parser.parse_args(argv)
    by_id = {figure.id: figure for figure in registry()}
    unknown = sorted(set(args.ids) - set(by_id))
    if unknown:
        parser.error(f"unknown figure ids {unknown}; known: {list(by_id)}")
    status, markdown = report(
        [by_id[fid] for fid in args.ids] or list(by_id.values()), args.jobs)
    if not args.ids:
        (ROOT / "EXPERIMENTS.md").write_text(markdown)
    return status


if __name__ == "__main__":
    # Run the importable copy: the figure modules declare their figures
    # with its ``Figure`` class, not with this ``__main__`` one's.
    sys.exit(importlib.import_module("benchmarks.figures").main())
