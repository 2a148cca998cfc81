"""Dataset file format: exact round-trips, drops, and malformed input."""

import datetime

import pytest

from windemos import ConfigError, DataFormatError, EnsembleForecast, GroupSpec
from windemos.dataio import default_groups_path, read_dataset, write_dataset

DAY = datetime.date(2024, 2, 10)


def _sample_dataset():
    return [
        EnsembleForecast(DAY, "A", (1.1, 2.2, 3.3), obs=2.0),
        EnsembleForecast(DAY, "B", (0.123456789012345, 5.0, 6.7), obs=0.000123),
        EnsembleForecast(
            DAY + datetime.timedelta(days=1), "A", (4.0, 4.0, 4.0), obs=None
        ),
    ]


def test_roundtrip_is_exact(tmp_path):
    path = tmp_path / "data.csv"
    g = GroupSpec((1, 2))
    write_dataset(path, _sample_dataset(), g)
    cases, g2, dropped = read_dataset(path)
    # the obs-less case is dropped on read; the rest round-trip exactly
    assert dropped == 1
    assert cases == _sample_dataset()[:2]
    assert g2 == g


def test_header_and_sidecar_shapes(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(path, _sample_dataset(), GroupSpec((3,)))
    text = path.read_text().splitlines()
    assert text[0] == "date,station,obs,m1,m2,m3"
    assert (tmp_path / "data.csv.groups").read_text() == "3\n"
    assert default_groups_path(path) == f"{path}.groups"


def test_missing_member_rows_are_dropped(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "date,station,obs,m1,m2\n"
        "2024-02-10,A,2.0,1.0,2.0\n"
        "2024-02-10,B,2.0,1.0,\n"
        "2024-02-10,C,,1.0,2.0\n"
    )
    cases, g, dropped = read_dataset(path)
    assert len(cases) == 1 and dropped == 2
    assert g == GroupSpec.singletons(2)  # no sidecar -> distinguishable


def test_missing_groups_file_means_singletons(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(path, _sample_dataset()[:1], GroupSpec((1, 2)))
    (tmp_path / "data.csv.groups").unlink()
    _, g, _ = read_dataset(path)
    assert g == GroupSpec.singletons(3)


def test_groups_size_mismatch_is_config_error(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(path, _sample_dataset()[:1], GroupSpec((3,)))
    (tmp_path / "data.csv.groups").write_text("1,1\n")
    with pytest.raises(ConfigError):
        read_dataset(path)


def test_groups_garbage_is_config_error(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(path, _sample_dataset()[:1], GroupSpec((3,)))
    (tmp_path / "data.csv.groups").write_text("one,two\n")
    with pytest.raises(ConfigError):
        read_dataset(path)


def test_custom_groups_path(tmp_path):
    path = tmp_path / "data.csv"
    gpath = tmp_path / "layout.groups"
    write_dataset(path, _sample_dataset()[:1], GroupSpec((1, 2)), groups_path=gpath)
    _, g, _ = read_dataset(path, groups_path=gpath)
    assert g == GroupSpec((1, 2))


@pytest.mark.parametrize(
    "body,line",
    [
        ("2024-02-10,A,2.0,1.0\n", 2),  # short row
        ("2024-02-10,A,2.0,1.0,2.0,9.9\n", 2),  # long row
        ("2024-13-40,A,2.0,1.0,2.0\n", 2),  # bad date
        ("2024-02-10,A,x,1.0,2.0\n", 2),  # bad obs
        ("2024-02-10,A,2.0,1.0,oops\n", 2),  # bad member
        ("2024-02-10,A,-1.0,1.0,2.0\n", 2),  # negative obs
        ("2024-02-10,A,2.0,-1.0,2.0\n", 2),  # negative member
        ("2024-02-10,A,2.0,1.0,2.0\n2024-02-11,B,inf,1.0,2.0\n", 3),
        # Each field is converted once, by EnsembleForecast: values that
        # parse as floats but are not finite still fail on their line
        ("2024-02-10,A,nan,1.0,2.0\n", 2),  # nan obs
        ("2024-02-10,A,2.0,1.0,2.0\n2024-02-11,B,NaN,1.0,2.0\n", 3),  # NaN obs
        ("2024-02-10,A,2.0,1.0,inf\n", 2),  # inf member
        ("2024-02-10,A,2.0,1.0,2.0\n2024-02-11,B,2.0,1e400,2.0\n", 3),  # overflows to inf
        ("2024-02-10,A,1e400,1.0,2.0\n", 2),  # obs overflows to inf
    ],
)
def test_malformed_rows_carry_line_numbers(tmp_path, body, line):
    path = tmp_path / "data.csv"
    path.write_text("date,station,obs,m1,m2\n" + body)
    with pytest.raises(DataFormatError) as info:
        read_dataset(path)
    assert info.value.line == line


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("station,date,obs,m1\n")
    with pytest.raises(DataFormatError):
        read_dataset(path)
    path.write_text("date,station,obs\n")
    with pytest.raises(DataFormatError):
        read_dataset(path)
    path.write_text("")
    with pytest.raises(DataFormatError):
        read_dataset(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_dataset(tmp_path / "nope.csv")


def test_duplicate_date_station_rows_are_rejected(tmp_path):
    # A second row for the same (date, station) would be counted twice;
    # the error names the line of the repeat
    path = tmp_path / "data.csv"
    path.write_text(
        "date,station,obs,m1,m2\n"
        "2024-02-10,A,2.0,1.0,2.0\n"
        "2024-02-10,B,2.0,1.0,2.0\n"
        "2024-02-11,A,2.0,1.0,2.0\n"
        "2024-02-10,A,3.0,1.5,2.5\n"
    )
    with pytest.raises(DataFormatError) as info:
        read_dataset(path)
    assert info.value.line == 5
    assert "line 2" in str(info.value)
