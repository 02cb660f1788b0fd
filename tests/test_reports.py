"""The CSV row writer: numbers as the csv module formats them, an empty
field for an absent value, "\\n" line endings and UTF-8 text."""

import csv

import numpy as np

from newstag.analysis import CaseStudyRow
from newstag.reports import write_case_study_csv, write_predictions_csv


def read_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_numpy_scalars_are_written_as_plain_numbers(tmp_path):
    path = tmp_path / "p.csv"
    write_predictions_csv({"n1": (np.int64(1), np.float64(0.5)), "n2": (np.int64(-1), np.float64(-0.1))}, path)
    assert path.read_text(encoding="utf-8") == "news_id,predicted_label,score\nn1,1,0.5\nn2,-1,-0.1\n"


def test_absent_value_is_an_empty_field(tmp_path):
    path = tmp_path / "c.csv"
    rows = (
        CaseStudyRow(hashtag="missing", status="absent", c_star=None, c_hat_rescaled=None),
        CaseStudyRow(hashtag="a", status="ok", c_star=0.25, c_hat_rescaled=-1.0),
    )
    write_case_study_csv(rows, path)
    assert path.read_text(encoding="utf-8") == (
        "hashtag,status,c_star,c_hat_rescaled\nmissing,absent,,\na,ok,0.25,-1.0\n"
    )


def test_floats_read_back_bit_exactly(tmp_path):
    rng = np.random.default_rng(5)
    values = [float(v) for v in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)]
    values += [0.1 + 0.2, 1 / 3, 5e-324, 1.7976931348623157e308, -0.0]
    predictions = {f"n{k:03d}": (1, value) for k, value in enumerate(values)}
    path = tmp_path / "p.csv"
    write_predictions_csv(predictions, path)
    read = [float(row[2]) for row in read_rows(path)[1:]]
    assert np.array_equal(np.array(read).view(np.int64), np.array(values).view(np.int64))


def test_line_endings_and_utf8_ids(tmp_path):
    path = tmp_path / "p.csv"
    write_predictions_csv({"désinformation-ü": (1, 0.5), "新闻": (-1, -0.5)}, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.decode("utf-8").splitlines() == [
        "news_id,predicted_label,score",
        "désinformation-ü,1,0.5",
        "新闻,-1,-0.5",
    ]
