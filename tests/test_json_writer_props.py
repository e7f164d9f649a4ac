"""Property test of `jsonout.write_json` against its oracle, `json.dumps`.

For every tree of the types the writer takes, the concatenated writes must
equal json.dumps(tree, indent=2, sort_keys=True) plus a newline, also when
random subtrees are handed to the writer pre-encoded as a `JsonText`.
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
                  | st.lists(kids, max_size=5).map(tuple)
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


def _pre_encode(tree, draw):
    """`tree` with each subtree, drawn at random, replaced by its encoded
    form, its own subtrees first, so encoded values nest."""
    if type(tree) is dict:
        tree = {k: _pre_encode(v, draw) for k, v in tree.items()}
    elif type(tree) in (list, tuple):
        tree = type(tree)(_pre_encode(v, draw) for v in tree)
    return JsonText(_written(tree)[:-1]) if draw(st.booleans()) else tree


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(trees, st.data())
def test_pre_encoded_subtrees_splice_at_any_depth(tree, data):
    spliced = _pre_encode(tree, data.draw)
    assert _written(spliced) == json.dumps(tree, indent=2,
                                           sort_keys=True) + "\n"
