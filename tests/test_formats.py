"""Property tests for the line-based text formats.

Round trips: saved models and written event files read back to the same
objects and re-serialise to the same bytes. Mutations: a valid events,
model, labeled-matrix, agent-truth or points file with a few bytes
replaced, inserted or deleted either parses or raises an ``SmjpError``;
a syntax fault is an ``InputFormatError`` whose line is in range, and no
other exception escapes a reader.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model
from smjp import cli
from smjp.core import (
    Alphabet,
    InputFormatError,
    SmjpError,
    derive_rng,
    index_alphabet,
    read_lines,
    validate_generator,
    write_text,
)
from smjp.events import EventSequence, event_text, parse_event_file
from smjp.switching import SwitchingSMJP, load_model, model_text

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)
FUZZ = settings(max_examples=300, derandomize=True, deadline=None)

# Labels may hold anything the formats can carry: no whitespace, no comma.
LABEL_CHARS = st.characters(codec="utf-8").filter(lambda c: not c.isspace() and c != ",")
KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
VALUES = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=12).map(str.strip)


def alphabets(kind, max_size):
    labels = st.lists(st.text(LABEL_CHARS, min_size=1, max_size=4), min_size=1, max_size=max_size, unique=True)
    return labels.map(lambda ls: Alphabet(kind, tuple(ls)))


def stochastic_rows(rows, cols):
    def normalise(weights):
        m = np.reshape(weights, (rows, cols))
        return m / m.sum(axis=1, keepdims=True)

    return st.lists(st.floats(1e-3, 1e3), min_size=rows * cols, max_size=rows * cols).map(normalise)


@st.composite
def models(draw):
    n, k, o = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    actions, observations = draw(alphabets("action", k)), draw(alphabets("observation", o))
    k, o = len(actions), len(observations)
    gens = []
    for _ in range(k):
        rates = np.reshape(draw(st.lists(st.floats(0.0, 50.0), min_size=n * n, max_size=n * n)), (n, n))
        np.fill_diagonal(rates, 0.0)
        rates[np.diag_indices(n)] = -rates.sum(axis=1)
        gens.append(validate_generator(rates))
    if draw(st.booleans()):
        emission = np.stack([draw(stochastic_rows(n, o)) for _ in range(k)])
    else:
        emission = draw(stochastic_rows(n, o))
    masks = None
    if draw(st.booleans()):
        masks = []
        for _ in range(k):
            m = np.reshape(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), (n, n))
            np.fill_diagonal(m, False)
            masks.append(m)
    model = SwitchingSMJP(index_alphabet("state", n, "s"), actions, observations, tuple(gens), emission,
                          draw(st.floats(1e-3, 1e3)), masks)
    return model, draw(st.dictionaries(KEYS, VALUES, max_size=3))


@st.composite
def sequences(draw):
    obs, act = draw(alphabets("observation", 4)), draw(alphabets("action", 3))
    times = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20, unique=True)))
    n = len(times)
    o = draw(st.lists(st.integers(0, len(obs) - 1), min_size=n, max_size=n))
    a = draw(st.lists(st.integers(0, len(act) - 1), min_size=n, max_size=n))
    seq_id = draw(VALUES)
    return EventSequence(seq_id, times, o, a, obs, act, draw(st.dictionaries(KEYS, VALUES, max_size=3)))


class TestReadLines:
    def test_lines_are_those_of_file_iteration(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, "a\x0cb\x1cc\u2028d\r\ne\rf\n\ng")
        with open(path, errors="replace") as fh:
            expected = [line.removesuffix("\n") for line in fh]
        assert read_lines(path) == read_lines(str(path)) == (str(path), expected)
        assert read_lines(io.StringIO("x\n\ny\x0cz\n")) == ("<stream>", ["x", "", "y\x0cz"])
        assert read_lines(io.StringIO("")) == ("<stream>", [])

    def test_undecodable_bytes_replaced(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xff\xfe\n")
        assert read_lines(path)[1] == ["ok", "\ufffd\ufffd"]


class TestRoundTrip:
    @PROPERTY
    @given(models())
    def test_model_save_load_save_byte_exact(self, drawn):
        model, metadata = drawn
        text = model_text(model, metadata)
        loaded, meta_back = load_model(io.StringIO(text))
        assert meta_back == metadata
        assert model_text(loaded, meta_back) == text
        assert loaded.per_action_emission == model.per_action_emission
        assert np.asarray(loaded.emission).tobytes() == np.asarray(model.emission).tobytes()

    @PROPERTY
    @given(sequences())
    def test_events_write_parse_bit_exact(self, seq):
        back = parse_event_file(io.StringIO(event_text(seq)))
        assert back.id == seq.id and back.metadata == seq.metadata
        assert back.times.tobytes() == seq.times.tobytes()
        assert np.array_equal(back.observations, seq.observations)
        assert np.array_equal(back.actions, seq.actions)
        assert back.observation_alphabet == seq.observation_alphabet
        assert back.action_alphabet == seq.action_alphabet


def _valid_files() -> dict[str, tuple[bytes, object]]:
    rng = derive_rng(5)
    obs, act = Alphabet("observation", ("o0", "o1", "o2")), Alphabet("action", ("a0", "a1"))
    times = np.cumsum(rng.exponential(1.0, size=6))
    seq = EventSequence("seq", times, rng.integers(0, 3, 6), rng.integers(0, 2, 6), obs, act, {"src": "test"})
    model = random_model(rng, 3, 2, 2)
    truth = ["# smjp-agent-truth v1", "# m_bins: 2", "# n_z: 8", "time,z,location,rewarded,belief_bin"]
    truth += [f"{cli._fmt(t)},{z},{z // 4},{z // 2 % 2},{z % 2}" for t, z in zip(times, rng.integers(0, 8, 6))]
    points = ["x,y"] + [f"{cli._fmt(x)},{cli._fmt(y)}" for x, y in rng.normal(size=(6, 2))]
    texts = {
        "events": (event_text(seq), parse_event_file),
        "model": (model_text(model, {"seed": "1"}), load_model),
        "matrix": (cli._matrix_text("joint", rng.dirichlet(np.ones(4), size=3), "abc", "wxyz"),
                   cli.read_labeled_matrix),
        "truth": (cli._lines(truth), cli._read_truth),
        "points": (cli._lines(points), cli._read_points),
    }
    return {kind: (text.encode(), reader) for kind, (text, reader) in texts.items()}


VALID = _valid_files()
# Any byte, or one of the bytes the formats' grammars turn on.
BYTES = st.integers(0, 255) | st.sampled_from(b"\n,.:#- e0123456789")
EDITS = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")), st.integers(0, 1 << 16), BYTES),
                 min_size=1, max_size=4)


def _mutate(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for kind, pos, byte in edits:
        pos %= len(data) + 1
        if kind == "insert":
            data[pos:pos] = bytes([byte])
        elif pos < len(data):
            data[pos:pos + 1] = bytes([byte]) if kind == "replace" else b""
    return bytes(data)


def _stream(blob: bytes) -> io.TextIOWrapper:
    """Decode as a file opened by path is decoded: UTF-8, universal
    newlines, undecodable bytes replaced."""
    return io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", errors="replace")


class TestMutatedInputs:
    @pytest.mark.parametrize("kind", sorted(VALID))
    @FUZZ
    @given(edits=EDITS)
    def test_mutation_parses_or_raises_a_located_error(self, kind, edits):
        blob, reader = VALID[kind]
        mutated = _mutate(blob, edits)
        n_lines = len(list(_stream(mutated)))
        try:
            reader(_stream(mutated))
        except InputFormatError as exc:
            assert exc.line is None or 1 <= exc.line <= n_lines + 1
        except SmjpError:
            pass

    def test_unmutated_files_parse(self):
        for blob, reader in VALID.values():
            reader(_stream(blob))
