"""Sample handling and reproducible random number streams.

All test statistics in this package operate on the scaled order statistics
Z_i = X_(i) / mean(X) of sort_and_scale, invariant to the unknown rate of the
exponential null and, bit for bit, to the order of the data.  The
pair-minimum Laplace transform weighs them with

    w_i = (2(n - i) + 1) / n**2        (ascending order, 1-based i)

which count how often the i-th order statistic is the minimum over all n**2
ordered pairs.

Every table is written by write_table, as CSV with one header line or as a
JSON list of objects; float_cell writes floats with repr, so they read back
bit for bit, and an empty cell means no value.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RngStream:
    """A splittable random source identified by (seed, stream, key).

    Identical identities reproduce identical variates; distinct stream
    indices or spawn keys yield statistically independent generators.
    Concurrent tasks must each receive their own stream index or substream.
    """

    seed: int
    stream: int = 0
    key: tuple = ()  # substream indices, outermost first

    def __post_init__(self):
        ids = (self.seed, self.stream) + tuple(self.key)
        if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in ids):
            raise DomainError(f"seed, stream and key entries must be non-negative ints: {self}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,) + self.key)
        return np.random.default_rng(ss)

    def substream(self, index: int) -> "RngStream":
        """Derive a child stream; children of distinct indices are independent."""
        return RngStream(self.seed, self.stream, self.key + (int(index),))

    def csv_fields(self) -> dict:
        """The identity as CSV cells: seed, stream index and the spawn key as
        the substream indices joined by ':' (empty for none)."""
        return {"seed": self.seed, "stream": self.stream,
                "key": ":".join(str(k) for k in self.key)}


# read_csv_rows parsers of the RngStream.csv_fields cells; stream and key may be empty
STREAM_PARSERS = {"seed": int, "stream": lambda text: int(text or 0),
                  "key": lambda text: tuple(int(k) for k in text.split(":") if k)}


@lru_cache
def min_pair_weights(n: int) -> np.ndarray:
    """Weights w_i = (2(n-i)+1)/n^2 for ascending order statistics.

    w_i is the fraction of the n^2 ordered pairs (j, k) whose minimum is the
    i-th smallest observation, so that
    (1/n^2) sum_{j,k} e^{-2 t min(Y_j, Y_k)} = sum_i w_i e^{-2 t Z_i}
    with Z the ascending values.  Ties are handled by stable sort order; any
    consistent tie rule gives the same weighted sum.  Cached, so read-only.
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    w = (2.0 * (n - np.arange(1, n + 1)) + 1.0) / n**2
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class ScaledSample:
    """A positive sample divided by its mean, with sorted values and weights."""

    values: np.ndarray
    sorted_values: np.ndarray
    min_weights: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size


def check_positive(x: np.ndarray) -> np.ndarray:
    """Return x, a 1-D sample or a 2-D (replicates, n) batch of samples.

    Raises DomainError if a sample is empty, or naming the first entry that is
    not a positive finite real: by its index in a sample, by row and column
    in a batch.
    """
    if x.shape[-1] == 0:
        raise DomainError("empty sample")
    bad = ~((x > 0) & (x < np.inf))
    if bad.any():
        at = np.unravel_index(np.argmax(bad), x.shape)
        where = f"index {at[0]}" if x.ndim == 1 else f"row {at[0]}, column {at[1]}"
        raise DomainError(f"sample entry at {where} is not a positive real: {float(x[at])!r}")
    return x


def check_tuning(a: float) -> None:
    """Raise DomainError unless the tuning parameter a is a positive finite real."""
    if not 0 < a < np.inf:
        raise DomainError(f"tuning parameter a must be a positive finite real, got {a}")


def sort_and_scale(x: np.ndarray) -> np.ndarray:
    """The samples along the last axis of x sorted, each divided by the mean
    of its sorted values, summed in that order: the one scaling rule of every
    statistic, so a permuted sample gives the same result, bit for bit."""
    z = np.sort(x, axis=-1)
    return z / z.mean(axis=-1, keepdims=True)


def scale_sample(raw) -> ScaledSample:
    """Scale a raw positive sample (checked by check_positive) by
    sort_and_scale; values holds sorted_values in the order of the data."""
    x = check_positive(np.asarray(raw, dtype=float).reshape(-1))
    z = sort_and_scale(x)
    y = np.empty_like(z)
    y[np.argsort(x, kind="stable")] = z
    return ScaledSample(values=y, sorted_values=z, min_weights=min_pair_weights(z.size))


def read_sample(path) -> np.ndarray:
    """Read newline-separated decimal reals; '#' starts a comment line."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: not a decimal real: {text!r}") from exc
    if not values:
        raise DomainError(f"{path}: no data lines")
    return np.asarray(values, dtype=float)


def float_cell(x) -> str:
    """An optional float as a table cell: empty for None, else its repr, which
    optional_float reads back exactly."""
    return "" if x is None else repr(float(x))


def optional_float(text: str):
    """A CSV cell as a float; an empty cell is None (inverse of float_cell)."""
    return float(text) if text else None


def write_table(path, columns, rows, fmt="csv") -> None:
    """Write the cells `columns` of each row (a dict) to the file `path`, or
    to stdout when path is None: as CSV with one header line, or with
    fmt="json" as an indented JSON list of one object per row.  Each cell is
    written as its text, str(value) or empty for None, so a JSON value is
    the string of its CSV cell."""
    rows = [{c: "" if row[c] is None else str(row[c]) for c in columns} for row in rows]
    fh = sys.stdout if path is None else open(path, "w", newline="", encoding="utf-8")
    try:
        if fmt == "json":
            import json
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(row.values() for row in rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


def read_csv_rows(path, parsers, make, optional=()) -> list:
    """[make(row) for each row of a CSV file], the row a dict of its cells in
    the columns of `parsers`, each parsed by its column's parser.  A column
    in `optional` may be missing from the header; its cells then read as
    empty.  DomainError names the file and the first other column that the
    header lacks (or else the first column that it repeats), the file, line
    and column of a cell that is missing (a short row) or that its parser
    rejects, the file and line of a row with more cells than the header, or
    the file and line of a DomainError of make(row) (a cell that parses but
    is out of range)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        wrong = [f"no {c!r} column" for c in parsers if c not in fields and c not in optional]
        wrong += [f"the header repeats {c!r}" for k, c in enumerate(fields) if c in fields[:k]]
        if wrong:
            raise DomainError(f"{path}: {wrong[0]}")

        def cell(row, column):
            text = row.get(column, "")
            if text is None:
                raise DomainError(f"column {column!r}: the row has no such cell")
            try:
                return parsers[column](text)
            except ValueError as exc:
                raise DomainError(f"column {column!r}: {exc}") from None

        def build(row):
            try:
                if None in row:  # DictReader's key for the cells past the header
                    raise DomainError(f"the row has {len(reader.fieldnames) + len(row[None])} "
                                      f"cells, the header {len(reader.fieldnames)}")
                return make({column: cell(row, column) for column in parsers})
            except DomainError as exc:
                raise DomainError(f"{path}:{reader.line_num}: {exc}") from None

        return [build(row) for row in reader]
