"""Prime generation, the prime-counting function, and the regression dataset.

The default dataset pairs the i-th prime with its index i for i = 1..n;
with n = 1000 that spans x = 2 through x = 7919.  The alternative pairs
every integer x in 2..n+1 with the count of primes at or below it.
"""

from __future__ import annotations

import contextlib
import enum
import os
import re
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyDataset,
    FormatError,
    LimitTooLarge,
    LimitTooSmall,
    OutOfTableRange,
    TableTooSmall,
    as_integer,
    check_types,
)

__all__ = ["Dataset", "DatasetMode", "PrimeTable", "build_dataset",
           "prime_pi", "read_dataset", "sieve", "write_dataset"]


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    primes: np.ndarray
    limit: int

    def __post_init__(self):
        arr = np.asarray(self.primes)
        # an empty list reads as floats
        if arr.size and arr.dtype.kind not in "iu":
            raise ConfigError(
                f"primes must hold integers, not {arr.dtype.type.__name__}")
        arr = arr.astype(np.int64, copy=False)
        object.__setattr__(self, "primes", arr)
        object.__setattr__(self, "limit", as_integer(self.limit, "limit"))
        if arr.ndim != 1 or len(arr) == 0:
            raise ConfigError("prime table must be a non-empty 1-d array")
        if np.any(arr[1:] <= arr[:-1]):
            raise ConfigError("prime table must be strictly increasing")

    def __len__(self) -> int:
        return len(self.primes)


def _physical_memory_bytes() -> int | None:
    """The machine's physical memory, or None where the OS does not say."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def sieve(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``limit``.

    A limit whose table of ``limit + 1`` bools cannot fit in physical
    memory raises LimitTooLarge before anything is allocated.
    """
    limit = as_integer(limit, "sieve limit")
    if limit < 2:
        raise LimitTooSmall(f"sieve limit must be at least 2, got {limit}")
    memory = _physical_memory_bytes()
    if memory is not None and limit + 1 > memory:
        raise LimitTooLarge(
            f"sieve limit {limit} needs {limit + 1} bytes, more than the "
            f"{memory} bytes of physical memory")
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, int(limit**0.5) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    primes = np.flatnonzero(~composite)
    return PrimeTable(primes=primes, limit=limit)


def prime_pi(x: int, table: PrimeTable) -> int:
    """Count of primes less than or equal to x."""
    x = as_integer(x, "x")
    check_types(("table", table, PrimeTable))
    if x < 0 or x > table.limit:
        raise OutOfTableRange(
            f"x = {x} outside the table range [0, {table.limit}]"
        )
    return int(np.searchsorted(table.primes, x, side="right"))


_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?"
# the start of every row that is not two numbers joined by one tab; a
# `(?:row\n)*` fullmatch would check the same, on a backtracking stack that
# grows with the file
_MALFORMED_ROW = re.compile(rf"^(?!{_NUMBER}\t{_NUMBER}$)", re.MULTILINE)


class DatasetMode(enum.Enum):
    PRIME_INDEXED = "prime-indexed"
    INTEGER_RANGE = "integer-range"


@dataclass(frozen=True)
class Dataset:
    """Regression points (x, y), strictly increasing in x, all finite."""

    xs: np.ndarray
    ys: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        # text is refused even when it reads as a number
        for name, values in (("xs", xs), ("ys", ys)):
            if values.dtype.kind not in "biuf":
                raise ConfigError(f"{name} must hold real numbers, not "
                                  f"{values.dtype.type.__name__}")
        xs = xs.astype(np.float64, copy=False)
        ys = ys.astype(np.float64, copy=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys):
            raise ConfigError("xs and ys must be 1-d arrays of equal length")
        if len(xs) == 0:
            raise EmptyDataset("dataset has no points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ConfigError("dataset values must be finite")
        # compared, not subtracted: a difference of two finite floats can
        # overflow to inf
        if np.any(xs[1:] <= xs[:-1]):
            raise ConfigError("x values must be strictly increasing")

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.name == other.name
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
        )


def build_dataset(mode: DatasetMode, n: int, table: PrimeTable) -> Dataset:
    """Build the regression dataset in the requested mode."""
    if not isinstance(mode, DatasetMode):
        modes = ", ".join(map(str, DatasetMode))
        raise ConfigError(f"mode must be one of {modes}, got {mode!r}")
    n = as_integer(n, "n")
    check_types(("table", table, PrimeTable))
    if n < 1:
        raise ConfigError("n must be positive")
    if mode is DatasetMode.PRIME_INDEXED:
        if len(table) < n:
            raise TableTooSmall(
                f"need {n} primes, table holds only {len(table)}"
            )
        xs = table.primes[:n].astype(np.float64)
        ys = np.arange(1, n + 1, dtype=np.float64)
        return Dataset(xs, ys, name="prime-indexed")
    # IntegerRange: x = 2 .. n+1 paired with the running prime count
    if table.limit < n + 1:
        raise TableTooSmall(
            f"need prime counts up to {n + 1}, table covers {table.limit}"
        )
    xs = np.arange(2, n + 2, dtype=np.float64)
    ys = np.searchsorted(table.primes, xs, side="right").astype(np.float64)
    return Dataset(xs, ys, name="integer-range")


def _as_path(path) -> str:
    """``path`` as a str, a bytes path decoded; ConfigError if ``path`` is
    no path."""
    try:
        return os.fsdecode(path)
    except TypeError:
        raise ConfigError("path must be a str, bytes or os.PathLike, not "
                          f"{type(path).__name__}") from None


def write_files_atomic(files: Iterable[tuple]) -> None:
    """Write each ``(path, text, encoding)`` of ``files``, ``text`` a str or
    an iterable of str chunks written one at a time, to ``<path>.tmp``, and
    rename each over its path only once all are complete.

    Readers never see a partial write; if writing fails or is interrupted,
    producing a chunk included, the temp files this call created are
    removed and no path is replaced.  Newlines are written as given.
    """
    made = []
    try:
        for path, text, encoding in files:
            path = _as_path(path)
            with open(f"{path}.tmp", "w", encoding=encoding,
                      newline="") as fh:
                made.append(path)
                for chunk in [text] if isinstance(text, str) else text:
                    fh.write(chunk)
        for path in made:
            os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in made:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(f"{path}.tmp")
        raise


def _positional_column(values: np.ndarray) -> list[str]:
    """``np.format_float_positional(v, unique=True, trim="-")`` of each
    value of a float64 array."""
    whole = (np.trunc(values) == values) & (np.abs(values) < 1e16)
    texts = np.empty(len(values), dtype=object)
    # the same digits, through int and float text at less cost per value
    texts[whole] = list(map(int.__repr__,
                            values[whole].astype(np.int64).tolist()))
    texts[whole & (values == 0) & np.signbit(values)] = "-0"
    rest = values[~whole].tolist()
    texts[~whole] = [
        text if "e" not in text
        else np.format_float_positional(value, unique=True, trim="-")
        for value, text in zip(rest, map(float.__repr__, rest))]
    return texts.tolist()


def write_dataset(dataset: Dataset, path) -> None:
    """Write `x<TAB>y` lines under an `x y` header; all-or-nothing on disk.

    Each value is its shortest decimal that reads back to the same float,
    sign of zero included, with no fraction when it is integral.
    """
    check_types(("dataset", dataset, Dataset))
    rows = map("\t".join, zip(_positional_column(dataset.xs),
                              _positional_column(dataset.ys)))
    write_files_atomic([(path, "x y\n" + "\n".join(rows) + "\n", "ascii")])


def read_dataset(path) -> Dataset:
    """Exact inverse of :func:`write_dataset` for files it wrote."""
    path = _as_path(path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except UnicodeDecodeError:
        # latin-1 decodes each byte to one character, so lines split as above
        with open(path, "r", encoding="latin-1") as fh:
            raw = fh.read()
        bad = re.search("[^\x00-\x7f]", raw).start()
        raise FormatError(raw.count("\n", 0, bad) + 1,
                          f"non-ASCII byte 0x{ord(raw[bad]):02x}") from None
    # a final newline ends the last row; it does not open an empty one
    text = raw[:-1] if raw.endswith("\n") else raw
    del raw
    header, newline, body = text.partition("\n")
    del text
    if header.strip() != "x y":
        raise FormatError(1, "expected header 'x y'")
    if not newline:
        raise FormatError(1, "file holds a header but no points")
    values = _whole_values(body)
    if values is None:
        bad = _MALFORMED_ROW.search(body)
        if bad:
            start = bad.start()
            lineno = body.count("\n", 0, start) + 2
            row = body[start:].partition("\n")[0]
            if row.count("\t") != 1:
                raise FormatError(lineno, "expected exactly one tab separator")
            raise FormatError(lineno, f"non-numeric value in {row!r}")
        # every value is a number and the separators tabs and newlines, all
        # of which the whitespace separator takes
        values = np.fromstring(body, sep=" ")
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return Dataset(values[0::2].astype(np.float64),
                       values[1::2].astype(np.float64), name=name)
    except ValueError as exc:
        raise FormatError(1, str(exc)) from None


def _whole_values(body: str) -> np.ndarray | None:
    """Every value of ``body`` as int64 if its rows are all two digit runs
    joined by one tab and each value is below 10**18; None otherwise.

    Such a body is one that `_MALFORMED_ROW` accepts, read without the
    regex and without strtod: an int64 converts to float64 correctly
    rounded, as strtod reads the same digits.  Both dataset modes write
    only such bodies.
    """
    # a sign or a point fails the check below too; this finds it sooner
    if "-" in body or "." in body:
        return None
    separators = body.encode().translate(None, b"0123456789")
    # tab and newline alternate, starting and ending with a tab, and no
    # field is empty
    if (separators != b"\t\n" * (len(separators) // 2) + b"\t"
            or not (body[:1].isdigit() and body[-1:].isdigit())
            or "\t\n" in body or "\n\t" in body):
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    # strtoll saturates at 2**63 - 1, so a value of 19 or more digits is
    # caught here and read by strtod; with no sign none is negative
    if values.max() >= 10**18:
        return None
    return values
