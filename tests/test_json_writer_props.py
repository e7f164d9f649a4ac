"""Property test of `jsonout.write_json` against its oracle, `json.dumps`.

For every tree of the types the writer takes, the concatenated writes must
equal json.dumps(tree, indent=2, sort_keys=True) plus a newline, also when
random subtrees are handed to the writer pre-encoded as a `JsonText`, each
rendered for the depth where it stands, and when random lists, empty ones
included, are handed to it as generators.
"""

import json

import pytest

from siegeleis.jsonout import JsonText, write_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

text = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t '),
               max_size=8)
leaves = (st.none() | st.booleans() | st.integers()
          | st.integers(min_value=-2**200, max_value=2**200) | text)
trees = st.recursive(
    leaves,
    lambda kids: (st.lists(text, min_size=2, max_size=4)  # the all-str join
                  | st.lists(kids, max_size=5)
                  | st.dictionaries(text, kids, max_size=5)),
    max_leaves=40,
)


def _written(tree) -> str:
    pieces = []
    write_json(tree, pieces.append)
    return "".join(pieces)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(trees)
def test_write_json_matches_json_dumps(tree):
    assert _written(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


def _pre_encode(tree, draw, depth=0):
    """`tree` with each subtree, drawn at random, replaced by its encoded
    form (json.dumps) rendered for the depth where it stands."""
    if type(tree) is dict:
        spliced = {k: _pre_encode(v, draw, depth + 1) for k, v in tree.items()}
    elif type(tree) is list:
        spliced = [_pre_encode(v, draw, depth + 1) for v in tree]
    else:
        spliced = tree
    if not draw(st.booleans()):
        return spliced
    text = json.dumps(tree, indent=2, sort_keys=True)
    return JsonText(text.replace("\n", "\n" + "  " * depth))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(trees, st.data())
def test_pre_encoded_subtrees_splice_at_any_depth(tree, data):
    spliced = _pre_encode(tree, data.draw)
    assert _written(spliced) == json.dumps(tree, indent=2,
                                           sort_keys=True) + "\n"


def _as_generators(tree, draw):
    """`tree` with each list, drawn at random, replaced by a generator of
    its items, its own subtrees first."""
    if type(tree) is dict:
        return {k: _as_generators(v, draw) for k, v in tree.items()}
    if type(tree) is list:
        items = [_as_generators(v, draw) for v in tree]
        return (v for v in items) if draw(st.booleans()) else items
    return tree


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(trees, st.data())
def test_generators_write_as_lists(tree, data):
    streamed = _as_generators(tree, data.draw)
    assert _written(streamed) == json.dumps(tree, indent=2,
                                            sort_keys=True) + "\n"


@pytest.mark.parametrize("make,plain", [
    (lambda: iter([]), []),
    (lambda: {"a": iter([]), "b": iter([[], iter([])])}, {"a": [], "b": [[], []]}),
    (lambda: [iter([1]), iter(["x", "y"]), (v for v in ())], [[1], ["x", "y"], []]),
], ids=["empty", "nested-empty", "mixed"])
def test_generator_examples(make, plain):
    assert _written(make()) == json.dumps(plain, indent=2, sort_keys=True) + "\n"
