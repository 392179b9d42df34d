import math

import numpy as np
import pytest

from agifl.fedavg import select_clients
from agifl.reports import ROUND_CSV_HEADER, svg_line_chart, write_repeat_csv
from agifl.scenario import ROUND_COLUMNS
from agifl.seeding import rng


def round_metrics(cohorts):
    """A repeat's result for rounds 1, 2, ... over these cohorts, of any sizes."""
    rounds, selected = len(cohorts), [np.asarray(c, dtype=np.int64) for c in cohorts]
    for cohort in selected:
        cohort.flags.writeable = False
    metrics = np.recarray(rounds, ROUND_COLUMNS)
    metrics.duration = 1.5 * np.arange(1, rounds + 1)
    metrics.cum_uav_energy = 2.0 * np.arange(1, rounds + 1)
    metrics.uav_energy, metrics.test_loss, metrics.test_acc = 2.0, math.nan, 0.25
    metrics.budget_total = 0.0
    metrics.selected = np.fromiter(selected, object, rounds)
    return metrics


class TestWriteRepeatCsv:
    def test_no_kept_rounds_writes_the_header_only(self, tmp_path):
        write_repeat_csv(tmp_path / "rep.csv", round_metrics([]))
        assert (tmp_path / "rep.csv").read_text() == ROUND_CSV_HEADER + "\n"

    def test_row_layout(self, tmp_path):
        write_repeat_csv(tmp_path / "rep.csv", round_metrics([[0, 7, 12]]))
        assert (tmp_path / "rep.csv").read_text().splitlines() == [
            ROUND_CSV_HEADER, "1,1.5,2,2,nan,0.25,0;7;12"]

    @pytest.mark.parametrize("num_users", [1, 2, 300, 30_000])
    def test_selected_cell_joins_each_cohort_id(self, num_users, tmp_path):
        # cohorts as select_clients draws them, each also holding the
        # first and the last user
        cohorts = [np.union1d(select_clients(num_users, 0.1, rng(3, rnd, "select")),
                              [0, num_users - 1]) for rnd in range(5)]
        write_repeat_csv(tmp_path / "rep.csv", round_metrics(cohorts))
        rows = (tmp_path / "rep.csv").read_text().splitlines()
        assert rows[0] == ROUND_CSV_HEADER
        assert [row.rsplit(",", 1)[1] for row in rows[1:]] == [
            ";".join(map(str, c.tolist())) for c in cohorts]


class TestSvgLineChart:
    @pytest.mark.parametrize("x", [1e17, 1e308, -1e308, 1.7976931348623157e308])
    def test_single_point_at_any_magnitude(self, x, tmp_path):
        # a one-unit widening vanishes next to x >= 2**53: the span stays 0
        svg_line_chart(tmp_path / "one.svg", [("a", [x], [0.5])], "t", "x", "y")
        text = (tmp_path / "one.svg").read_text()
        assert text.endswith("</svg>\n")
        assert "nan" not in text and "inf" not in text
        point = text.split('points="')[1].split('"')[0]
        assert 70 <= float(point.split(",")[0]) <= 620  # inside the plot
