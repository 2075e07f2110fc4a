"""Property tests of the `abd 1` text format: parse_text(write_text(x)) == x
on generated instances (named, unnamed and clashing relations, repeated
scope variables, the 0-ary constants, empty and full relations, H and M
anywhere in 1..n), and a malformed line inserted after the header of a
written instance raises io.ParseError and nothing else.  Derandomized, so
tier-1 stays deterministic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from abductor.core import AbductionInstance, Relation, formula
from abductor.harness import io

from test_search_properties import PROPERTY, relations, scoped

# names the writer keeps, one it rewrites (empty, or not one token) and
# names that clash with the R<i> it generates
NAMES = st.one_of(st.none(), st.sampled_from(["R0", "R1", "R1_2", "NEQ", "", "NE Q"]),
                  st.text(max_size=4))


@st.composite
def named_relations(draw) -> Relation:
    rel = draw(relations())
    return Relation(rel.arity, rel.codes, draw(NAMES))


@st.composite
def instances(draw) -> AbductionInstance:
    n = draw(st.integers(0, 6))
    cons = draw(st.lists(scoped(n, named_relations()), max_size=5))
    var = st.integers(1, n) if n else st.nothing()
    hyp = draw(st.frozensets(var, max_size=n))
    man = draw(st.frozensets(var, max_size=n))
    return AbductionInstance(formula(n, cons), hyp, man)


DIRECTIVES = ["vars", "rel", "con", "hyp", "man"]
TOKENS = st.one_of(
    st.sampled_from(DIRECTIVES + ["abd", "1", "#", "R0", "R1", "NEQ", "e", ".", ";", "01;10",
                                  "0x", "-1", "0", "2", "3"]),
    st.integers(-3, 12).map(str),
    st.text(max_size=3))
# mostly a directive and its fields, sometimes any tokens
LINES = st.builds(lambda head, rest: " ".join([head, *rest]),
                  st.one_of(st.sampled_from(DIRECTIVES), TOKENS),
                  st.lists(TOKENS, max_size=4))


@PROPERTY
@given(instances())
def test_parse_reads_back_what_write_writes(inst):
    assert io.parse_text(io.write_text(inst)) == inst


@PROPERTY
@given(instances(), st.integers(0, 40), LINES)
def test_a_malformed_line_raises_only_parse_error(inst, at, line):
    """A drawn line, inserted after the header of a written instance, either
    parses or raises ParseError."""
    lines = io.write_text(inst).splitlines()
    lines.insert(1 + at % len(lines), line)
    try:
        io.parse_text("\n".join(lines))
    except io.ParseError:
        pass
