"""One pytest entry per registered figure: ``test_figure[ID]`` runs, prints
(``-s``) and checks it as ``python -m benchmarks.figures ID`` does."""

import pytest

from .figures import registry, run


@pytest.mark.parametrize("figure", registry(), ids=lambda figure: figure.id)
def test_figure(figure):
    _text, outcomes = run(figure)
    assert all(outcomes.values()), [
        name for name, passed in outcomes.items() if not passed]
