"""The one reader of input files: its line and key rules, and every input
format read through them.  A copy of any keyed line of a valid file, a
header included, is one error line naming the format and the file."""
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasim.algebra import ParaSpec
from parasim.circuits import Circuit, Gate, circuit_to_text, read_circuit, xx
from parasim.engine import NoiseModel, ShotSet, read_noise_file, read_shotset, shotset_to_text
from parasim.factorize import GammaVector, gamma_document_text, read_gamma_document
from parasim.mapping import generator_family
from parasim.textfile import keyed, read_file, text_lines

_RATES = st.floats(0.0, 0.4)
_NOISE_FILES = st.builds(
    lambda noise: "".join(f"{f.name} {getattr(noise, f.name)!r}\n" for f in fields(noise)),
    st.builds(NoiseModel, _RATES, _RATES, _RATES, _RATES, _RATES))
_SPECS = st.one_of(  # Q <= 6
    st.builds(lambda p, n: ParaSpec("pb", p, np=n), st.integers(1, 5), st.integers(1, 5)),
    st.builds(lambda h: ParaSpec("pf", 2 * h), st.integers(1, 2)))


@st.composite
def gamma_texts(draw):
    spec = draw(_SPECS)
    labels = generator_family(spec.num_qubits).labels
    finite = st.floats(-10, 10)
    gv = GammaVector(tuple(draw(st.lists(finite, min_size=len(labels), max_size=len(labels)))),
                     draw(st.floats(0, 1)), draw(st.booleans()), labels, draw(st.floats(0, 1)))
    return gamma_document_text(gv, spec, draw(finite))


@st.composite
def shotset_texts(draw):
    q = draw(st.integers(1, 6))
    counts = draw(st.dictionaries(st.text("01", min_size=q, max_size=q),
                                  st.integers(0, 10 ** 6), max_size=6))
    noise = draw(st.one_of(st.none(), st.builds(NoiseModel, eps01=_RATES)))
    return shotset_to_text(ShotSet(counts, sum(counts.values()), draw(st.integers(0, 99))),
                           noise)


@st.composite
def circuit_texts(draw):
    q = draw(st.integers(2, 6))
    qubit, angle = st.integers(0, q - 1), st.floats(-7, 7)
    one = st.builds(lambda kind, a, t: Gate(kind, (a,), t),
                    st.sampled_from(["RX", "RY", "RZ"]), qubit, angle)
    pair = st.builds(lambda ab, t: xx(t, *ab),
                     st.lists(qubit, min_size=2, max_size=2, unique=True), angle)
    return circuit_to_text(Circuit(q, draw(st.lists(st.one_of(one, pair),
                                                    min_size=1, max_size=6))))


# each format: its reader, the name its errors start with, valid texts, and
# the lines of a text that are keyed (a gate line counts: '# gates' counts them)
FORMATS = {
    "noise file": (read_noise_file, _NOISE_FILES, lambda ln: True),
    "gamma document": (read_gamma_document, gamma_texts(), lambda ln: ln[0] != "#"),
    "shot set": (read_shotset, shotset_texts(),
                 lambda ln: ln[0] != "#" or ln.split()[1] in ("seed", "shots")),
    "circuit": (read_circuit, circuit_texts(), lambda ln: not ln.startswith("qubits ")),
}


@pytest.mark.parametrize("what", FORMATS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_copied_keyed_line_is_one_error_naming_the_file(tmp_path_factory, what, data):
    read, texts, is_keyed = FORMATS[what]
    text = data.draw(texts)
    path = tmp_path_factory.mktemp("format") / "file.txt"
    path.write_text(text)
    read(path)  # the program's own text reads
    copied = data.draw(st.sampled_from([ln for ln in text.splitlines() if is_keyed(ln)]))
    path.write_text(text + copied + "\n")
    with pytest.raises(ValueError) as excinfo:
        read(path)
    message = str(excinfo.value)
    assert "\n" not in message and message.startswith(f"{what} {path}: ")
    assert message.endswith(" given twice") or message.endswith(" gate lines follow")


@pytest.mark.parametrize("text,message", [
    ("# seed 1\n# seed 7\n010 3\n", "header '# seed' given twice"),
    ("# shots 5\n# shots 3\n010 3\n", "header '# shots' given twice"),
    ("# seed 1 2\n010 3\n", "bad header line '# seed 1 2': want '# seed <integer>'"),
    ("# shots\n010 3\n", "bad header line '# shots': want '# shots <integer>'"),
])
def test_a_shot_set_header_is_a_key_with_one_integer(tmp_path, text, message):
    path = tmp_path / "shots.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        read_shotset(path)
    assert str(excinfo.value) == f"shot set {path}: {message}"


def test_headers_need_no_space_and_free_comments_are_ignored(tmp_path):
    path = tmp_path / "shots.txt"
    path.write_text("# parasim shot set\n#seed 4\n# parasim shot set\n"
                    "# noise eps01=0.01\n# noise eps01=0.01\n#\n010 3\n")
    assert read_shotset(path) == ShotSet({"010": 3}, 3, seed=4)


@pytest.mark.parametrize("text,message", [
    ("qubits 3\n# gates 1\n# gates 2\nRX 0 0.5\nRX 1 0.5\n", "header '# gates' given twice"),
    ("qubits 3\n# gates 2 3\nRX 0 0.5\n", "bad header line '# gates 2 3': 1 gate lines follow"),
    ("qubits 3\n# gates\nRX 0 0.5\n", "bad header line '# gates': 1 gate lines follow"),
])
def test_a_circuit_gates_header_is_a_key_with_the_count(tmp_path, text, message):
    path = tmp_path / "circuit.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        read_circuit(path)
    assert str(excinfo.value) == f"circuit {path}: {message}"


@pytest.mark.parametrize("what", FORMATS)
def test_an_undecodable_file_is_one_error_naming_it(tmp_path, what):
    path = tmp_path / "file.txt"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ValueError, match=f"^{what} {path}: .*codec can't decode"):
        FORMATS[what][0](path)


class TestTextFile:
    def test_lines_are_stripped_and_blank_ones_dropped(self):
        assert text_lines(" a b \n\n\t\nc\r\n") == ["a b", "c"]

    def test_read_file_names_the_file_in_any_value_error(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("  one \n\ntwo\n")
        assert read_file(path, "thing", list) == ["one", "two"]
        with pytest.raises(ValueError, match=f"^thing {path}: could not convert string"):
            read_file(path, "thing", lambda lines: float(lines[0]))

    def test_keyed_splits_at_the_first_run_of_whitespace(self):
        assert keyed(["a 1", "b\t 2  3", "c"]) == {"a": "1", "b": "2  3", "c": ""}

    def test_keyed_rejects_a_key_given_twice_by_its_name(self):
        with pytest.raises(ValueError, match="^key 'a' given twice$"):
            keyed(["a 1", "b 2", "a 1"])
        with pytest.raises(ValueError, match="^header '# seed' given twice$"):
            keyed(["seed 1", "note", "seed 2"], "header '# {}'", ("seed",))

    def test_keyed_keeps_only_the_keys_asked_for(self):
        assert keyed(["note a", "seed 1", "note b", ""], keys=("seed",)) == {"seed": "1"}
