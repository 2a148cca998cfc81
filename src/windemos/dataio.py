"""Reading and writing the delimited dataset format.

Layout: UTF-8 CSV with header `date,station,obs,m1,...,mM` (ISO-8601
dates), plus a sidecar group map file holding the comma-separated group
sizes in member order (defaults to `<data>.groups`; absent sidecar
means fully distinguishable members).  Rows with any missing member or
observation are dropped and counted; malformed content, including a
second row for the same (date, station), is an error carrying the line
number.
"""

import csv
import datetime
import logging

from .errors import ConfigError, DataFormatError, InvalidParameterError
from .models import EnsembleForecast, GroupSpec

logger = logging.getLogger(__name__)


def default_groups_path(path):
    return f"{path}.groups"


def write_dataset(path, dataset, group_spec, groups_path=None):
    """Write cases plus the group-map sidecar; returns the data path."""
    if groups_path is None:
        groups_path = default_groups_path(path)
    M = group_spec.total
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "station", "obs"] + [f"m{i + 1}" for i in range(M)])
        for case in dataset:
            obs = "" if case.obs is None else repr(case.obs)
            writer.writerow(
                [case.date.isoformat(), case.station, obs]
                + [repr(v) for v in case.members]
            )
    with open(groups_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(str(s) for s in group_spec.sizes) + "\n")
    return path


def _read_groups(groups_path, M):
    try:
        with open(groups_path, encoding="utf-8") as fh:
            text = fh.read().strip()
    except FileNotFoundError:
        return GroupSpec.singletons(M)
    if not text:
        return GroupSpec.singletons(M)
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
        spec = GroupSpec(sizes)
    except (ValueError, InvalidParameterError) as exc:
        raise ConfigError(f"bad group map in {groups_path}: {exc}") from exc
    if spec.total != M:
        raise ConfigError(
            f"group map {groups_path} sums to {spec.total} members, data has {M}"
        )
    return spec


def read_dataset(path, groups_path=None):
    """Parse a dataset file; returns (cases, group spec, dropped-row count)."""
    if groups_path is None:
        groups_path = default_groups_path(path)
    dataset = []
    dropped = 0
    first_line = {}  # (date, station) -> line of its first row
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("file is empty") from None
        header = [h.strip() for h in header]
        M = len(header) - 3
        expected = ["date", "station", "obs"] + [f"m{i + 1}" for i in range(M)]
        if M < 1 or header != expected:
            raise DataFormatError(
                "header must be date,station,obs,m1,...,mM", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + M:
                raise DataFormatError(
                    f"expected {3 + M} fields, got {len(row)}", line=lineno
                )
            fields = list(map(str.strip, row))
            if "" in fields[2:]:
                dropped += 1
                continue
            try:
                date = datetime.date.fromisoformat(fields[0])
            except ValueError:
                raise DataFormatError(f"bad date {fields[0]!r}", line=lineno) from None
            key = (date, fields[1])
            if key in first_line:
                raise DataFormatError(
                    f"duplicate row for date {fields[0]} and station {fields[1]!r} "
                    f"(first on line {first_line[key]})",
                    line=lineno,
                )
            first_line[key] = lineno
            # EnsembleForecast converts each field string once; a bad number
            # or a bad value fails with the line it is on
            try:
                dataset.append(EnsembleForecast(date, fields[1], fields[3:], obs=fields[2]))
            except (ValueError, InvalidParameterError) as exc:
                raise DataFormatError(str(exc), line=lineno) from None
    if dropped:
        logger.info("dropped %d rows with missing observation or members", dropped)
    return dataset, _read_groups(groups_path, M), dropped
