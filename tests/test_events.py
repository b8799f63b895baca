import io

import numpy as np
import pytest

from helpers import parse_event_text
from smjp.core import Alphabet, InputFormatError, derive_rng
from smjp.events import EventSequence, event_text, split_chronological

OBS = Alphabet("observation", ("left", "right", "reward"))
ACT = Alphabet("action", ("stay", "press"))


def sample_sequence(n=10, seed=0, metadata=None):
    rng = derive_rng(seed)
    times = np.cumsum(rng.exponential(1.0, size=n))
    obs = rng.integers(0, len(OBS), size=n)
    act = rng.integers(0, len(ACT), size=n)
    return EventSequence("sample", times, obs, act, OBS, ACT, metadata or {})


class TestEventSequence:
    def test_rejects_decreasing_times(self):
        with pytest.raises(Exception):
            EventSequence("x", [1.0, 1.0], [0, 0], [0, 0], OBS, ACT)

    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(Exception):
            EventSequence("x", [1.0, 2.0], [0, 7], [0, 0], OBS, ACT)

    def test_event_rate(self):
        seq = EventSequence("x", [0.0, 1.0, 2.0], [0, 1, 2], [0, 1, 0], OBS, ACT)
        assert seq.event_rate == pytest.approx(1.0)


class TestRoundTrip:
    def test_two_line_file(self):
        text = (
            "# smjp-events v1\n"
            "# observations: left right reward\n"
            "# actions: stay press\n"
            "time,observation,action\n"
            "0.5,left,stay\n"
            "1.25,reward,press\n"
        )
        seq = parse_event_text(text)
        assert len(seq) == 2
        assert list(seq.events()) == [(0.5, "left", "stay"), (1.25, "reward", "press")]

    def test_write_parse_identity(self):
        for seed in range(25):
            rng = derive_rng(seed, 100)
            meta = {"session": f"s{seed}", "note": "free text value"}
            seq = sample_sequence(n=int(rng.integers(1, 40)), seed=seed, metadata=meta)
            back = parse_event_text(event_text(seq))
            assert back.id == seq.id
            assert np.array_equal(back.times, seq.times)
            assert np.array_equal(back.observations, seq.observations)
            assert np.array_equal(back.actions, seq.actions)
            assert back.observation_alphabet.labels == seq.observation_alphabet.labels
            assert back.action_alphabet.labels == seq.action_alphabet.labels
            assert back.metadata == seq.metadata

    def test_float_times_bit_exact(self):
        times = np.array([0.1, 0.2 + 1e-16, 1.0 / 3.0, np.pi])
        seq = EventSequence("x", np.sort(times), [0, 1, 2, 0], [0, 1, 0, 1], OBS, ACT)
        back = parse_event_text(event_text(seq))
        assert np.array_equal(back.times, seq.times)

    def test_empty_sequence_round_trips(self):
        seq = EventSequence("empty", [], [], [], OBS, ACT)
        back = parse_event_text(event_text(seq))
        assert len(back) == 0
        assert back.observation_alphabet.labels == OBS.labels


class TestParseErrors:
    BASE = (
        "# smjp-events v1\n"
        "# observations: left right\n"
        "# actions: stay press\n"
        "time,observation,action\n"
    )

    def test_out_of_order_timestamp_line_number(self):
        text = self.BASE + "1.0,left,stay\n0.5,left,stay\n"
        with pytest.raises(InputFormatError, match=r"^<stream>:6: timestamp 0\.5 not greater than 1\.0$") as err:
            parse_event_text(text)
        assert err.value.line == 6

    def test_unknown_symbol(self):
        text = self.BASE + "1.0,banana,stay\n"
        with pytest.raises(InputFormatError, match="^<stream>:5: observation 'banana' not declared$") as err:
            parse_event_text(text)
        assert err.value.line == 5

    def test_malformed_line(self):
        text = self.BASE + "1.0,left\n"
        with pytest.raises(InputFormatError, match="^<stream>:5: expected 3 comma-separated fields, got 2$") as err:
            parse_event_text(text)
        assert err.value.line == 5

    def test_alphabet_declared_after_column_header(self):
        text = self.BASE + "1.0,left,stay\n# observations: right left\n2.0,left,stay\n"
        with pytest.raises(InputFormatError, match="^<stream>:6: alphabets must be declared before events$") as err:
            parse_event_text(text)
        assert err.value.line == 6

    def test_missing_header(self):
        with pytest.raises(InputFormatError, match="^<stream>:1: expected '# smjp-events v1' header$"):
            parse_event_text("time,observation,action\n1.0,left,stay\n")

    def test_fuzzed_inputs_raise_structured_errors(self):
        rng = derive_rng(99)
        for _ in range(300):
            n = int(rng.integers(0, 120))
            blob = bytes(rng.integers(0, 256, size=n).tolist())
            text = blob.decode("utf-8", errors="replace")
            try:
                parse_event_text(text)
            except InputFormatError:
                pass

    def test_fuzzed_mutations_of_valid_file(self):
        seq = sample_sequence(n=12, seed=3)
        base = event_text(seq)
        rng = derive_rng(100)
        for _ in range(200):
            chars = list(base)
            for _ in range(int(rng.integers(1, 6))):
                pos = int(rng.integers(0, len(chars)))
                chars[pos] = chr(int(rng.integers(32, 127)))
            try:
                parse_event_text("".join(chars))
            except InputFormatError:
                pass

    def test_fuzzed_body_mutations_keep_header(self):
        # Mutations restricted past the header exercise the row parser
        # rather than dying at the format check.
        seq = sample_sequence(n=12, seed=4)
        base = event_text(seq)
        body_start = base.index("time,observation,action")
        rng = derive_rng(101)
        for _ in range(300):
            chars = list(base)
            for _ in range(int(rng.integers(1, 5))):
                pos = int(rng.integers(body_start, len(chars)))
                chars[pos] = chr(int(rng.integers(32, 127)))
            try:
                parse_event_text("".join(chars))
            except InputFormatError:
                pass


class TestSplit:
    def test_chronological_80_20(self):
        seq = sample_sequence(n=100)
        head, tail = split_chronological(seq, 0.2)
        assert len(head) == 80 and len(tail) == 20
        assert head.times[-1] < tail.times[0]
        assert np.array_equal(np.concatenate([head.times, tail.times]), seq.times)

    def test_zero_fraction(self):
        seq = sample_sequence(n=10)
        head, tail = split_chronological(seq, 0.0)
        assert len(head) == 10 and len(tail) == 0

    def test_bad_fraction_rejected(self):
        seq = sample_sequence(n=10)
        with pytest.raises(Exception):
            split_chronological(seq, 1.0)
