import os
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gramevo.primes
from gramevo import (
    ConfigError,
    Dataset,
    DatasetMode,
    EmptyDataset,
    FormatError,
    LimitTooLarge,
    LimitTooSmall,
    OutOfTableRange,
    TableTooSmall,
    build_dataset,
    prime_pi,
    read_dataset,
    sieve,
    write_dataset,
)
from gramevo.cli import main
from gramevo.primes import _positional_column
from conftest import oracle_prime_pi, trial_division_primes


# --- sieve -------------------------------------------------------------------

def test_sieve_small_values():
    assert sieve(10).primes.tolist() == [2, 3, 5, 7]
    assert sieve(2).primes.tolist() == [2]
    assert sieve(3).primes.tolist() == [2, 3]


def test_sieve_limit_too_small():
    with pytest.raises(LimitTooSmall):
        sieve(1)
    with pytest.raises(LimitTooSmall):
        sieve(0)


@pytest.mark.parametrize("limit, shown", [
    (2.5, "2.5"), ("10", "'10'"), (np.zeros((3, 40)), "array([[0., 0., ")])
def test_sieve_rejects_a_limit_that_is_no_integer(limit, shown):
    # one line, even for a value whose repr spans several
    with pytest.raises(ConfigError) as caught:
        sieve(limit)
    message = str(caught.value)
    assert message.startswith(f"sieve limit must be an integer, got {shown}")
    assert "\n" not in message


def test_sieve_refuses_a_table_past_physical_memory(monkeypatch):
    # only through the check, at a stated memory size: were the check
    # wrong, a limit near the real one would be allocated
    memory = gramevo.primes._physical_memory_bytes()
    assert memory is None or (type(memory) is int and memory > 0)
    monkeypatch.setattr(gramevo.primes, "_physical_memory_bytes", lambda: 100)
    with pytest.raises(LimitTooLarge) as err:
        sieve(100)
    assert str(err.value) == ("sieve limit 100 needs 101 bytes, more than "
                              "the 100 bytes of physical memory")
    # limit + 1 bools fit
    assert sieve(99).primes.tolist()[-1] == 97
    monkeypatch.setattr(gramevo.primes, "_physical_memory_bytes", lambda: None)
    assert len(sieve(10_000)) == 1229


def test_sieve_against_trial_division(oracle_primes_10k):
    assert sieve(10_000).primes.tolist() == oracle_primes_10k


def test_sieve_8000_shape(prime_table):
    assert len(prime_table) == 1007
    assert int(prime_table.primes[999]) == 7919    # the 1000th prime


# --- prime_pi ----------------------------------------------------------------

def test_prime_pi_quoted_points(prime_table):
    assert prime_pi(100, prime_table) == 25
    assert prime_pi(1400, prime_table) == 222


def test_prime_pi_edges(prime_table):
    assert prime_pi(2, prime_table) == 1
    assert prime_pi(1, prime_table) == 0
    assert prime_pi(0, prime_table) == 0


def test_prime_pi_out_of_range(prime_table):
    with pytest.raises(OutOfTableRange):
        prime_pi(8001, prime_table)
    with pytest.raises(OutOfTableRange):
        prime_pi(-1, prime_table)


def test_prime_pi_rejects_an_x_that_is_no_integer(prime_table):
    for x, shown in (("10", "'10'"), (10.5, "10.5"), (None, "None")):
        with pytest.raises(ConfigError) as caught:
            prime_pi(x, prime_table)
        assert str(caught.value) == f"x must be an integer, got {shown}"
    # numpy integers pass
    assert prime_pi(np.int64(100), prime_table) == 25


def test_prime_pi_monotone_and_steps(prime_table, oracle_primes_10k):
    oracle_set = set(oracle_primes_10k)
    previous = 0
    for x in range(2, 1001):
        current = prime_pi(x, prime_table)
        assert current >= previous
        # the count steps up exactly at primes
        assert (current == previous + 1) == (x in oracle_set)
        previous = current


# --- datasets ----------------------------------------------------------------

def test_build_prime_indexed_full(prime_table, pi_dataset, oracle_primes_10k):
    assert len(pi_dataset) == 1000
    assert pi_dataset.points[0] == (2.0, 1.0)
    assert pi_dataset.points[-1] == (7919.0, 1000.0)
    oracle_set = set(oracle_primes_10k)
    for x, y in pi_dataset.points:
        assert int(x) in oracle_set
        assert oracle_prime_pi(int(x), oracle_primes_10k) == int(y)


def test_build_prime_indexed_single(prime_table):
    assert build_dataset(DatasetMode.PRIME_INDEXED, 1, prime_table).points == [
        (2.0, 1.0)
    ]


def test_build_integer_range(prime_table):
    ds = build_dataset(DatasetMode.INTEGER_RANGE, 9, prime_table)
    assert ds.xs.tolist() == [2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert ds.ys.tolist() == [1, 2, 2, 3, 3, 4, 4, 4, 4]


def test_build_dataset_table_too_small():
    small = sieve(10)    # 4 primes
    with pytest.raises(TableTooSmall):
        build_dataset(DatasetMode.PRIME_INDEXED, 5, small)
    with pytest.raises(TableTooSmall):
        build_dataset(DatasetMode.INTEGER_RANGE, 10, small)


def test_build_dataset_rejects_a_count_that_is_no_integer(prime_table):
    with pytest.raises(ConfigError) as caught:
        build_dataset(DatasetMode.PRIME_INDEXED, 2.5, prime_table)
    assert str(caught.value) == "n must be an integer, got 2.5"


def test_build_dataset_rejects_a_mode_that_is_no_member(prime_table):
    # the mode's value names a member, but is not one
    with pytest.raises(ConfigError) as caught:
        build_dataset("prime-indexed", 5, prime_table)
    assert str(caught.value) == (
        "mode must be one of DatasetMode.PRIME_INDEXED, "
        "DatasetMode.INTEGER_RANGE, got 'prime-indexed'")


def test_dataset_validation():
    with pytest.raises(EmptyDataset):
        Dataset(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        Dataset(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.array([1.0, float("nan")]))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0]), np.array([1.0, 2.0]))


# --- file I/O ----------------------------------------------------------------

def test_write_read_round_trip_full(pi_dataset, tmp_path):
    # a bytes path names the same file, and its temp file sits beside it
    for path in (tmp_path / "pi.txt", os.fsencode(tmp_path / "pi.txt")):
        write_dataset(pi_dataset, path)
        back = read_dataset(path)
        assert np.array_equal(back.xs, pi_dataset.xs)
        assert np.array_equal(back.ys, pi_dataset.ys)
        assert back.name == "pi"


def test_write_read_round_trip_fractional(tmp_path):
    ds = Dataset(np.array([0.5, 1.25, 2.0]), np.array([3.5, -1.75, 4.0]),
                 name="frac")
    path = tmp_path / "frac.txt"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.xs, ds.xs)
    assert np.array_equal(back.ys, ds.ys)


def test_file_format_is_exact(tmp_path):
    ds = Dataset(np.array([2.0, 3.5]), np.array([1.0, 2.0]))
    path = tmp_path / "d.txt"
    write_dataset(ds, path)
    raw = path.read_bytes()
    assert raw == b"x y\n2\t1\n3.5\t2\n"


# every raise site of read_dataset: (file bytes, 1-based line, message)
_READ_ERRORS = [
    (b"wrong header\n2\t1\n", 1, "expected header 'x y'"),
    (b"", 1, "expected header 'x y'"),
    (b"\n2\t1\n", 1, "expected header 'x y'"),
    (b"x y\n", 1, "file holds a header but no points"),
    (b"x y", 1, "file holds a header but no points"),
    (b"x y\nabc 1\n", 2, "expected exactly one tab separator"),
    (b"x y\n2 1\n", 2, "expected exactly one tab separator"),
    (b"x y\n2\t1\t9\n", 2, "expected exactly one tab separator"),
    (b"x y\n2\t1\n3\t2\n5\t3\t\n", 4, "expected exactly one tab separator"),
    (b"x y\n2\t1\nabc\t3\n", 3, "non-numeric value in 'abc\\t3'"),
    (b"x y\n2\t1\n3\t\n", 3, "non-numeric value in '3\\t'"),
    (b"x y\n2\t1\n\t\n", 3, "non-numeric value in '\\t'"),
    (b"x y\n\t1\n", 2, "non-numeric value in '\\t1'"),
    (b"x y\n1.\t2\n", 2, "non-numeric value in '1.\\t2'"),
    (b"x y\n.5\t2\n", 2, "non-numeric value in '.5\\t2'"),
    (b"x y\n+1\t2\n", 2, "non-numeric value in '+1\\t2'"),
    (b"x y\n1e5\t2\n", 2, "non-numeric value in '1e5\\t2'"),
    (b"x y\n--1\t2\n", 2, "non-numeric value in '--1\\t2'"),
    (b"x y\n 1\t2\n", 2, "non-numeric value in ' 1\\t2'"),
    (b"x y\n1\t2 \n", 2, "non-numeric value in '1\\t2 '"),
    (b"x y\n2\t1\n2\t2", 1, "x values must be strictly increasing"),
    # \r\n and \r line ends read as \n, and count as lines
    (b"x y\r\n2\t1\r\nabc\t3\r\n", 3, "non-numeric value in 'abc\\t3'"),
    (b"x y\r2\t1\rabc\t3\r", 3, "non-numeric value in 'abc\\t3'"),
    (b"x y\n2\t1\r3\t\r\n", 3, "non-numeric value in '3\\t'"),
    # an empty row in the middle, and a blank line after the last row
    (b"x y\n2\t1\n\n3\t2\n", 3, "expected exactly one tab separator"),
    (b"x y\n2\t1\n3\t2\n\n", 4, "expected exactly one tab separator"),
    (b"x y\n\n", 2, "expected exactly one tab separator"),
    (b"x y\n3\t1\n2\t2\n", 1, "x values must be strictly increasing"),
    (b"x y\n2\t1\n" + b"9" * 400 + b"\t2\n", 1,
     "dataset values must be finite"),
    # 007 reads as 7
    (b"x y\n2\t1\n007\t2\n3\t3\n", 1, "x values must be strictly increasing"),
    (b"x y\n2\t1\n3\t2\xc3\xa9\n", 3, "non-ASCII byte 0xc3"),
    (b"\xffx y\n2\t1\n", 1, "non-ASCII byte 0xff"),
]


def test_read_errors(tmp_path):
    path = tmp_path / "bad.txt"
    mismatches = []
    for raw, line, message in _READ_ERRORS:
        path.write_bytes(raw)
        try:
            read_dataset(path)
        except FormatError as err:
            got = (err.line, str(err))
        else:
            got = None
        if got != (line, f"line {line}: {message}"):
            mismatches.append((raw, got))
    assert not mismatches


def test_read_non_ascii_byte_names_its_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"x y\r\n2\t1\r\n3\t2\r\n5\t3\xc3\xa9\r\n7\t4\r\n")
    with pytest.raises(FormatError) as err:
        read_dataset(p)
    assert err.value.line == 4
    assert str(err.value) == "line 4: non-ASCII byte 0xc3"


_REFERENCE_ROW = re.compile(
    r"^(?!-?[0-9]+(?:\.[0-9]+)?\t-?[0-9]+(?:\.[0-9]+)?$)", re.MULTILINE)


def _reference_read(path) -> Dataset:
    """read_dataset of an ASCII file by its general path alone: the row
    regex, then strtod on every value."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    text = raw[:-1] if raw.endswith("\n") else raw
    header, newline, body = text.partition("\n")
    if header.strip() != "x y":
        raise FormatError(1, "expected header 'x y'")
    if not newline:
        raise FormatError(1, "file holds a header but no points")
    bad = _REFERENCE_ROW.search(body)
    if bad:
        start = bad.start()
        lineno = body.count("\n", 0, start) + 2
        row = body[start:].partition("\n")[0]
        if row.count("\t") != 1:
            raise FormatError(lineno, "expected exactly one tab separator")
        raise FormatError(lineno, f"non-numeric value in {row!r}")
    values = np.fromstring(body, sep=" ")
    try:
        return Dataset(values[0::2].copy(), values[1::2].copy())
    except ValueError as exc:
        raise FormatError(1, str(exc)) from None


def _read_outcome(read, path):
    """(line, message) of the FormatError ``read`` raises, else the float64
    bytes of the columns it reads."""
    try:
        ds = read(path)
    except FormatError as err:
        return err.line, str(err)
    return ds.xs.tobytes(), ds.ys.tobytes()


# bodies at the edges of the integer path: (body, the x it reads or None)
_INTEGER_EDGES = [
    ("1" * 18 + "\t1", float("1" * 18)),
    ("1" * 19 + "\t1", float("1" * 19)),
    ("9" * 19 + "\t1", float("9" * 19)),
    ("1" * 20 + "\t1", float("1" * 20)),
    # both past 2**63 - 1, where strtoll would read them as equal
    ("9" * 19 + "\t1\n" + "1" * 20 + "\t2", float("9" * 19)),
    ("2\t1\n" + "9" * 400 + "\t2", None),    # "dataset values must be finite"
    ("007\t7", 7.0),
    ("-0\t1\n1\t2", -0.0),
    ("2\t1\r\n3\t2\r\n", 2.0),
    ("2\t1\n3\t2\t", None),
    ("2\t1\n\t2", None),
    ("2\t\n3\t4", None),
    ("2\t1\n3\t2\n\n", None),
    ("2\t1\n3\t\n", None),
    ("", None),
]


def test_integer_path_edges_read_as_strtod(tmp_path):
    path = tmp_path / "edge.txt"
    for body, x in _INTEGER_EDGES:
        path.write_bytes(b"x y\n" + body.encode())
        got = _read_outcome(read_dataset, path)
        assert got == _read_outcome(_reference_read, path), body
        if x is not None:
            assert got[0][:8] == np.float64(x).tobytes(), body


_FUZZ_TOKENS = [*"0123456789", "\t", "\n", "-", ".", "a", "", "9" * 20]


def _fuzz_body(rng: random.Random) -> str:
    if rng.random() < 0.4:
        return "".join(rng.choices(_FUZZ_TOKENS, k=rng.randint(0, 12)))
    # increasing integer rows, with up to two characters replaced
    x, rows = 0, []
    for _ in range(rng.randint(1, 5)):
        x += rng.choice([1, 2, 10 ** rng.randint(0, 21)])
        rows.append(f"{x}\t{rng.randrange(10 ** rng.choice([1, 2, 21]))}")
    chars = list("\n".join(rows))
    for _ in range(rng.choice([0, 0, 1, 2])):
        chars[rng.randrange(len(chars))] = rng.choice(_FUZZ_TOKENS)
    return "".join(chars)


def test_integer_path_reads_what_the_row_regex_reads(tmp_path):
    rng = random.Random(1509)
    path = tmp_path / "fuzz.txt"
    mismatches = []
    for _ in range(3000):
        raw = ("x y\n" + _fuzz_body(rng) + rng.choice(["\n", ""])).encode()
        path.write_bytes(raw)
        got = _read_outcome(read_dataset, path)
        if got != _read_outcome(_reference_read, path):
            mismatches.append((raw, got))
    assert not mismatches


class _NoRegex:
    def search(self, body):
        raise AssertionError("an integer body reached the row regex")


@pytest.mark.parametrize("mode", [m.value for m in DatasetMode])
def test_gen_data_files_skip_the_row_regex(tmp_path, monkeypatch, mode):
    monkeypatch.setattr(gramevo.primes, "_MALFORMED_ROW", _NoRegex())
    for n in (1, 2, 1000):
        path = tmp_path / f"{mode}-{n}.txt"
        assert main(["gen-data", "--mode", mode, "--n", str(n),
                     "--out", str(path)]) == 0
        ds = read_dataset(path)
        want = _reference_read(path)
        assert ds.xs.tobytes() == want.xs.tobytes()
        assert ds.ys.tobytes() == want.ys.tobytes()


@example(pairs=[(-0.0, -0.0), (1.0, 0.0)])
# x values whose difference overflows a float64
@example(pairs=[(1.7976931348623157e+308, 0.0),
                (-9.9792015476736e+291, 0.0)])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=40, unique_by=lambda pair: pair[0]))
def test_write_read_round_trip_is_float_of_each_field(tmp_path_factory, pairs):
    pairs.sort()
    ds = Dataset(np.array([x for x, _ in pairs]),
                 np.array([y for _, y in pairs]))
    path = tmp_path_factory.mktemp("round-trip") / "ds.txt"
    write_dataset(ds, path)
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    back = read_dataset(path)
    want_xs = np.array([float(x) for x, _ in rows])
    want_ys = np.array([float(y) for _, y in rows])
    assert back.xs.tobytes() == want_xs.tobytes()
    assert back.ys.tobytes() == want_ys.tobytes()
    assert back.xs.tobytes() == ds.xs.tobytes()
    assert back.ys.tobytes() == ds.ys.tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@example(values=[-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1e16, -1e16, 1e16 + 2, 9999999999999998.0, 2.0**53, 1e-4,
                 9.999999999999999e-05, 1e-5, 1e300, 123.456, -7.0, 0.1])
@settings(max_examples=300, deadline=None)
@given(st.lists(_finite
                | st.floats(-1e-4, 1e-4)                  # subnormals, -0.0
                | st.floats(1e16, 1e308) | st.floats(-1e308, -1e16)
                | st.integers(-2**60, 2**60).map(float),
                min_size=1, max_size=30))
def test_positional_column_is_format_float_positional(values):
    column = np.array(values, dtype=np.float64)
    assert _positional_column(column) == [
        np.format_float_positional(v, unique=True, trim="-") for v in values]


def test_write_failure_leaves_no_partial_file(pi_dataset, tmp_path):
    target = tmp_path / "missing-dir" / "out.txt"
    with pytest.raises(OSError):
        write_dataset(pi_dataset, target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []
