"""``python -m repro.experiments``: every choice runs at the smallest
scale and prints the rows :mod:`repro.harness.experiments` computes.

The two artifact builders are memoized for this module, so each
artifact is built once and the CLI and the expected rows share it.
"""

import functools

import pytest

from repro import experiments as cli
from repro.harness import experiments as X
from repro.workloads import PRESETS

#: Small enough that every workload runs its 40-iteration minimum.
SCALE = 0.01


@pytest.fixture(scope="module")
def calls():
    """Memoize the artifact builders and record how they were called."""
    seen = []

    def recorded(builder):
        memo = functools.cache(builder)

        def call(*args):
            seen.append((builder.__name__,) + args)
            return memo(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(X, "facebook_leg", recorded(X.facebook_leg))
        patch.setattr(X, "compiler_matrix", recorded(X.compiler_matrix))
        yield seen


def _run(capsys, calls, *argv):
    del calls[:]
    assert cli.main(list(argv) + ["--scale", str(SCALE)]) == 0
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def _pct(value):
    return f"{value:+.1%}"


def test_fig5(capsys, calls):
    lines = _run(capsys, calls, "fig5")
    data = X.figure5(X.facebook_legs(SCALE))
    assert lines[1:] == [
        [name, f"{before:,}", f"{after:,}", _pct(gain)]
        for name, before, after, gain in data["rows"]
    ] + [["GeoMean", _pct(data["geomean"])]]


def test_fig6_honours_the_scale(capsys, calls):
    lines = _run(capsys, calls, "fig6")
    assert calls == [("facebook_leg", "hhvm", SCALE)]
    leg = X.facebook_leg("hhvm", SCALE)
    assert leg.workload.spec.iterations == 40
    assert lines == [[label, _pct(value)]
                     for label, value in X.figure6(leg).items()]


def test_fig7_8(capsys, calls):
    lines = _run(capsys, calls, "fig7-8")
    table = X.figures7and8(X.compiler_matrix(SCALE))
    assert lines[0] == ["input", *X.FDO_CONFIGS]
    assert lines[1:] == [
        [*mix.split(), *(_pct(row[k]) for k in X.FDO_CONFIGS)]
        for mix, row in table.items()
    ]


def test_fig11(capsys, calls):
    lines = _run(capsys, calls, "fig11")
    assert calls == [("facebook_leg", "hhvm", SCALE)]
    data = X.figure11(X.facebook_leg("hhvm", SCALE))
    assert lines[1:] == [[scope, _pct(lbr), _pct(nolbr), _pct(lbr - nolbr)]
                         for scope, (lbr, nolbr) in data.items()]


def test_tab2(capsys, calls):
    lines = _run(capsys, calls, "tab2")
    assert calls == [("compiler_matrix", SCALE)]
    data = X.table2(X.compiler_matrix(SCALE))
    assert lines[1:] == [
        [field, *(_pct(data[column][field])
                  if data[column][field] is not None else "n/a"
                  for column in ("over_baseline", "over_pgo_lto"))]
        for field in sorted(data["over_baseline"])
    ]


def test_scale_is_the_one_sizing_flag(capsys):
    with pytest.raises(SystemExit):
        cli.main(["fig5", "--iterations", "40"])
    assert "unrecognized arguments: --iterations" in capsys.readouterr().err
    full = PRESETS["compiler"].iterations
    assert X.sized("compiler").spec.iterations == full
    assert X.sized("compiler", 0.5).spec.iterations == int(full * 0.5)
    assert X.sized("compiler", SCALE).spec.iterations == 40
