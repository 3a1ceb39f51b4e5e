"""Fuzzing of the three readers: whatever the text, a KB, stream or path
source either loads or fails with the reader's own domain error, which
the CLI turns into exit 1 with a message."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planmark import KbError, PathError, load_kb, parse_path
from planmark.pipeline import parse_stream

from conftest import FIG31_TEXT, FIXTURE_KB_TEXT

KB = load_kb(FIXTURE_KB_TEXT)

# Arguments drawn from all three formats, so that forms get past the
# reader into every form's checks.
ATOMS = [
    ":isa", ":prior", ":belief",
    "0.001", "0.5", "1", "0", "-1", "2", "1e-300", "1e999", "nan", "inf", "x",
    "a", "b", "9bad", "gen-1", "p1-gen-1",
    "store-", "supermarket", "supermarket-shopping", "shopping", "go",
    "store-of", "go-step",
]

# Whole forms of the fixture base and path, and of the stream format.
FORMS = (FIXTURE_KB_TEXT.strip().split("\n")
         + [form + ")" for form in FIG31_TEXT.split(")") if form]
         + ["(inst a go :belief 0.5)", "(corroborate shopping go-step)"])


def sources(*heads: str):
    """Texts made of forms that start with one of ``heads`` and take up to
    five arguments (or two, a keyword and its value), mixed with whole
    fixture forms, stray parentheses and comments; plus unstructured
    text."""
    head = st.sampled_from(heads + ("x",))
    atom = st.sampled_from(ATOMS)
    form = st.builds(lambda head, args: f"({' '.join([head, *args])})",
                     head, st.lists(atom, max_size=5))
    keyword_form = st.builds(lambda *items: f"({' '.join(items)})",
                             head, atom, atom,
                             st.sampled_from([":isa", ":prior", ":belief"]), atom)
    chunk = st.one_of(form, keyword_form, st.sampled_from(FORMS),
                      st.sampled_from(["(", ")", "()", "; note\n", "\n"]))
    return st.one_of(
        st.lists(chunk, max_size=8).map(" ".join),
        st.text(alphabet="() ;\n\tab-.0e", max_size=40),
        st.text(max_size=40),
    )


PATH_HEADS = ("inst", "role", "role-", "isa", "isa-")

# Path literals whose ends are valid observations reach the link checks.
path_texts = st.one_of(
    sources(*PATH_HEADS),
    sources(*PATH_HEADS).map(lambda middle: f"(inst a supermarket){middle}(inst b go)"),
)

FUZZ = settings(max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(sources("eq-prior", "schema", "role"))
def test_load_kb_raises_only_kb_errors(text):
    try:
        load_kb(text)
    except KbError:
        pass


@FUZZ
@given(sources("inst", "corroborate"))
def test_parse_stream_raises_only_kb_errors(text):
    try:
        parse_stream(text)
    except KbError:
        pass


@FUZZ
@given(path_texts)
def test_parse_path_raises_only_path_errors(text):
    try:
        parse_path(KB, text)
    except PathError:
        pass
