"""The table report's grid labels: no two distinct grid values read alike.

Each axis of the ``analytic`` and ``simulate`` tables is labelled to two
decimals where those tell its values apart, and by each value's shortest
``repr`` otherwise.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipeuq.cli import main
from pipeuq.tables import _labels

# grid values in [0, 1] (a subnormal prevalence is refused), many of them close enough to share two decimals
UNITS = st.one_of(st.floats(0.0, 1.0, allow_subnormal=False), st.integers(0, 1000).map(lambda n: n / 1000))
GRIDS = st.lists(UNITS, min_size=1, max_size=5)


def table(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


@given(values=GRIDS)
@example(values=[0.001, 0.004])
@example(values=[0.1, 0.5, 1.0])
def test_labels_tell_distinct_values_apart(values):
    labels = _labels(values)
    assert sorted(labels) == sorted(set(values))
    assert len(set(labels.values())) == len(labels)
    if len({f"{v:.2f}" for v in values}) == len(set(values)):  # two decimals tell them apart
        assert all(labels[v] == f"{v:.2f}" for v in values)


@settings(max_examples=60, deadline=None)
@given(prevalence=GRIDS, fix_rate=GRIDS)
@example(prevalence=[0.001, 0.004], fix_rate=[0.5])
def test_analytic_table_labels_each_cell_apart(prevalence, fix_rate):
    grid = ["--prevalence", ",".join(map(repr, prevalence)), "--fix-rate", ",".join(map(repr, fix_rate))]
    rows = table(["analytic", *grid]).splitlines()[3:]
    assert len(rows) == len(prevalence) * len(fix_rate)
    cells = {tuple(row.split()[:2]) for row in rows}
    assert len(cells) == len(set(prevalence)) * len(set(fix_rate)), rows


@settings(max_examples=20, deadline=None)
@given(prevalence=GRIDS, fix_rate=GRIDS)
@example(prevalence=[0.001, 0.004], fix_rate=[0.5, 0.501])
def test_simulate_table_labels_each_row_and_column_apart(prevalence, fix_rate):
    grid = ["--prevalence", ",".join(map(repr, prevalence)), "--fix-rate", ",".join(map(repr, fix_rate))]
    lines = table(["simulate", *grid, "--trials", "1", "--n-items", "20", "--mode", "means"]).splitlines()
    first = lines.index("-- final_prevalence (stream means) --")  # one block of the table
    header, *rows = lines[first + 1:first + 2 + len(set(prevalence))]
    assert len(header.split()[3:]) == len(set(header.split()[3:])) == len(set(fix_rate))
    assert len({row.split()[0] for row in rows}) == len(set(prevalence)), rows
