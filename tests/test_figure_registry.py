"""The figure registry: every verdict in EXPERIMENTS.md comes from the
figure's named checks, and a failing check fails the runner.

Only synthetic figures run here; the registered ones are imported and
inspected, never run (``python -m benchmarks.figures`` runs them).
"""

import sys
from types import SimpleNamespace

from benchmarks import figures
from benchmarks import test_sec24_churn as churn
from benchmarks.figures import Figure, monotone, registry, report


def _probe(rows):
    return Figure(
        "probe", "probe table", ["x", "y"], lambda _jobs: rows,
        claim="y grows with x.",
        checks={"x grows": monotone("x"), "y grows with x": monotone("y")},
    )


def test_failing_check_is_not_reproduced_and_fails_the_runner(
        monkeypatch, capsys):
    probe = _probe([(1, 2.0), (2, 1.0)])
    status, markdown = report([probe])
    assert status != 0
    assert "**Paper:** y grows with x.\n" in markdown
    assert "**Verdict:** NOT REPRODUCED — failed: y grows with x\n" in markdown
    out = capsys.readouterr().out
    assert "  pass  x grows\n  FAIL  y grows with x\n" in out
    monkeypatch.setattr(figures, "registry", lambda: [probe])
    assert figures.main(["probe"]) != 0


def test_passing_checks_are_listed_in_the_verdict():
    status, markdown = report([_probe([(1, 1.0), (2, 2.0)])])
    assert status == 0
    assert ("**Verdict:** REPRODUCED — checks passed: x grows; "
            "y grows with x\n") in markdown


def test_registered_figures_have_checks_and_unique_ids_and_titles():
    registered = registry()
    assert len(registered) == 28
    assert len({figure.id for figure in registered}) == len(registered)
    assert len({figure.title for figure in registered}) == len(registered)
    for figure in registered:
        assert figure.checks, figure.id
        assert figure.claim, figure.id


def test_registry_leaves_the_import_state_alone():
    """Declaring the figures puts no ``tools/`` script on ``sys.path``
    and none in ``sys.modules``: Fig 20 loads ``tools/loc.py`` by path
    when it runs."""
    path = list(sys.path)
    registry()
    assert sys.path == path
    assert not {"loc", "chaos", "unreached"} & set(sys.modules)


def test_missing_churn_samples_print_dashes_and_fail_their_checks(
        monkeypatch, capsys):
    """A churn run with no pooled TTFO at one client count, or no pool
    hit in one MR mode, writes ``None`` cells (printed ``-``) and fails
    the checks that need them instead of raising."""

    def sweep(_fn, points, jobs):
        return [{"clients": n, "pooled": int(pooled), "hits": 4, "misses": 0,
                 "ttfo_hit_med": None if (n, pooled) == (16, True) else 10.0,
                 "ttfo_cold_med": 900.0, "ops_per_ms": 5.0}
                for n, pooled, _seed in points]

    modes = iter([([], None), ([5.0, 6.0], 20.0)])  # lazy, then eager

    def churn_run(*_args, **_kwargs):
        hits, ttfo = next(modes)
        return SimpleNamespace(attach_us={"hit": hits},
                               median_ttfo=lambda _source: ttfo)

    monkeypatch.setattr(churn, "run_sweep", sweep)
    monkeypatch.setattr(churn, "run_churn", churn_run)
    def printed(text):
        return [line.split() for line in text.splitlines()]

    text, ttfo = figures.run(churn.SEC24_CHURN_TTFO)
    assert ["16", "-", "900.00", "-", "4", "0", "5.00", "5.00"] in printed(text)
    assert ttfo == {
        "every client count has a pooled and a cold TTFO": False,
        "pooled attach collapses TTFO by >= 5x at every client count": False,
        "pooled leases cost no steady-state throughput (>= 0.9x cold)": True,
    }
    text, mr = figures.run(churn.SEC24_CHURN_MR)
    assert ["lazy", "-", "-", "-"] in printed(text)
    assert mr["both modes lease from the pool (a hit's attach and TTFO "
              "measured)"] is False
    assert not any(mr.values()), mr
    capsys.readouterr()
