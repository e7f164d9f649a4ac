"""Property test of `cli.write_json` against its oracle, `json.dumps`.

For every tree of the types the writer takes, the concatenated writes must
equal json.dumps(tree, indent=2, sort_keys=True) plus a newline.
"""

import json

import pytest

from siegeleis.cli import write_json

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


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(trees)
def test_write_json_matches_json_dumps(tree):
    pieces = []
    write_json(tree, pieces.append)
    assert "".join(pieces) == json.dumps(tree, indent=2, sort_keys=True) + "\n"
