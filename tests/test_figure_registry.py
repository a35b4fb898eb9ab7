"""The figure registry: every verdict in EXPERIMENTS.md comes from the
figure's named checks, and a failing check fails the runner.

Only synthetic figures run here; the registered ones are imported and
inspected, never run (``python -m benchmarks.figures`` runs them).
"""

from benchmarks import figures
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
