"""Property tests: arbitrary bytes fed to each CLI input reader end in a
documented error (exit code 2 at the command line) or a parsed value, never
in another exception."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walkstitch import cli
from walkstitch.fixtures import cycle_graph
from walkstitch.graph import Graph, GraphError, save_cache

FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Mostly-plausible text: digits, signs, separators, comment marks, the walk
# status words and a byte that is not UTF-8, plus arbitrary bytes. The
# separators include ASCII whitespace other than space and tab, and
# non-ASCII whitespace (U+00A0) and a non-ASCII digit (U+0663), which
# str.split() and int() read but the edge-list grammar rejects.
TEXT_ALPHABET = list("0123456789 -+=#\t\n_.xe\r\x0b\x0c\xa0\u0663") + [
    "ok", "failed@2", "1" * 25, "\xff", "target", "root"]


def _to_bytes(text: str) -> bytes:
    return text.encode().replace("\xff".encode(), b"\xff")  # keep one bad byte


TEXTISH = st.lists(st.sampled_from(TEXT_ALPHABET), max_size=40).map(
    lambda toks: _to_bytes("".join(toks)))
LINES = st.lists(st.lists(st.sampled_from(TEXT_ALPHABET[:10] + TEXT_ALPHABET[-6:]),
                          max_size=6).map(" ".join), max_size=5).map(
    lambda lines: _to_bytes("\n".join(lines)))
INPUT_BYTES = st.one_of(st.binary(max_size=120), TEXTISH, LINES)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@FUZZ
@given(data=INPUT_BYTES)
def test_edge_list(path, data):
    path.write_bytes(data)
    try:
        g = cli.load_graph(str(path))
    except (cli.UsageError, GraphError):
        return
    assert isinstance(g, Graph) and g.m >= 1


def _valid_cache(path) -> bytes:
    save_cache(cycle_graph(6), str(path))
    return path.read_bytes()


@FUZZ
@given(cut=st.one_of(st.none(), st.integers(0, 220)), flips=st.lists(
    st.tuples(st.integers(0, 219), st.integers(0, 255)), max_size=3),
    tail=st.binary(max_size=16))
def test_cache(path, cut, flips, tail):
    data = bytearray(_valid_cache(path)[:cut] + tail)
    for pos, byte in flips:
        if 4 <= pos < len(data):
            data[pos] = byte
    path.write_bytes(bytes(data))
    try:
        g = cli.load_graph(str(path))
    except (cli.UsageError, GraphError):
        return
    assert int(g.degrees.sum()) == 2 * g.m and int(g.neighbors.max()) < g.n


VERTEX = st.sampled_from(["0", "1", "2", "-1", "1" * 25, "x", "\xff"])
WALK_LINES = st.lists(st.tuples(VERTEX, VERTEX, st.sampled_from(["ok", "failed@2", "?"]),
                                st.lists(VERTEX, max_size=4)).map(
    lambda t: " ".join(t[:3] + tuple(t[3]))), max_size=4).map(
    lambda lines: _to_bytes("\n".join(lines)))


@FUZZ
@given(data=st.one_of(INPUT_BYTES, WALK_LINES), root=st.one_of(st.none(), st.integers(-2, 2)))
def test_walk_file(path, data, root):
    path.write_bytes(data)
    try:
        rows = cli.read_walk_file(str(path), root=root)
    except cli.UsageError:
        return
    assert rows.ndim == 2 and rows.shape[0] >= 1


@FUZZ
@given(data=INPUT_BYTES)
def test_budget_file(path, data):
    path.write_bytes(data)
    try:
        budgets = cli.read_budget_file(str(path))
    except cli.UsageError:
        return
    assert all(isinstance(v, int) and isinstance(b, int) for v, b in budgets.items())


CONFIG_KEYS = ["graph", "root", "target", "taget", "param_mode", "param-mode",
               "strict", "timings", "seed", "tau", "config", "help", "func",
               "edge_list", "T", "t", "ta get", ""]
CONFIG_LINE = st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(["=", " = ", "", "=="]),
                        st.sampled_from(["", "5", "-1", "abc", "theory", "thoery",
                                         "true", "1e3", "--seed", "x y", "\xff"]))
CONFIG_TEXT = st.lists(CONFIG_LINE.map("".join), max_size=6).map(
    lambda lines: _to_bytes("\n".join(lines)))


@FUZZ
@given(data=st.one_of(CONFIG_TEXT, INPUT_BYTES),
       command=st.sampled_from(["walks", "ppr", "cluster", "ingest", "oracle-check"]))
def test_config_file(path, data, command, capsys):
    path.write_bytes(data)
    try:
        cli.build_parser().parse_args(cli.splice_config(["--config", str(path), command]))
    except cli.UsageError:
        pass
    except SystemExit as exc:
        assert exc.code == 2
    capsys.readouterr()
