"""The exact JSON writer of every JSON output.

`write_json` writes the bytes of json.dumps(obj, indent=2, sort_keys=True)
plus a newline in chunks as it encodes them; an iterator in list position
is written item by item as it yields them.  A caller that renders whole
records itself (hecke.eigen_json and word_rows, cli.cmd_relations,
EisSpace.descriptor, FourierExpansion.rendered) hands them over as
`JsonText`, rendered for the depth where it stands, which write_json
writes as it is; `chunked` cuts a long list of such items into chunks.
A CycNum writes its own text (CycNum.json_text).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str

# Pieces per write, counted after each list item and each closed dict.
_FLUSH_PIECES = 1024
_CHUNK_ITEMS = 1024  # rendered list items per JsonText of `chunked`


class JsonText:
    """A value (a pre-rendered record, say; in a list, several items joined
    by "," and the indentation) as write_json writes it where it stands:
    its caller indents it for that depth."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def chunked(items, depth: int) -> Iterator[JsonText]:
    """The texts of list items standing at `depth` as JsonText chunks of
    _CHUNK_ITEMS items, joined by "," and the indentation: in list position
    write_json writes them as the list of the items, one chunk held."""
    sep = ",\n" + "  " * depth
    items = iter(items)
    while batch := list(islice(items, _CHUNK_ITEMS)):
        yield JsonText(sep.join(batch))


def write_json(obj, write) -> None:
    """Write `obj` as the bytes of json.dumps(obj, indent=2, sort_keys=True)
    plus a newline, through `write` in chunks of about a thousand pieces;
    a JsonText ends its chunk, so a stream of large records is not held.

    Takes dict with str keys, list, str, int, bool and None; an
    iterator, written as the list of its items, each as it comes; and
    JsonText, which stands for the value it encodes.  Raises TypeError
    naming the type of anything else: no `to_json` emits floats or non-str
    keys, so they are rejected rather than emulated.
    """
    out = []
    append = out.append

    def emit(o, pad):
        t = type(o)
        if t is str:
            append(_json_str(o))
        elif t is JsonText:  # a whole record: written out with what precedes it
            append(o.text)
            write("".join(out))
            out.clear()
        elif t is dict:
            if not o:
                append("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            try:
                keys = sorted(o)
            except TypeError:  # a non-str key; the loop names its type
                keys = o
            for k in keys:
                if type(k) is not str:
                    raise TypeError(
                        f"keys must be str, not {type(k).__name__}")
                append(sep + _json_str(k) + ": ")
                emit(o[k], inner)
                sep = "," + inner
            append(pad + "}")
            if len(out) >= _FLUSH_PIECES:
                write("".join(out))
                out.clear()
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif t is int:
            append(int.__repr__(o))
        elif t is list or isinstance(o, Iterator):
            inner = pad + "  "
            sep = "[" + inner
            for v in o:
                append(sep)
                emit(v, inner)
                sep = "," + inner
                if len(out) >= _FLUSH_PIECES:
                    write("".join(out))
                    out.clear()
            append("[]" if sep[0] == "[" else pad + "]")
        else:
            raise TypeError(f"cannot write {t.__name__} as JSON")

    try:
        emit(obj, "\n")
        append("\n")
        write("".join(out))
    finally:
        # break the cycle of emit with itself, which would keep `write` (the
        # caller's stream) and the last pieces alive until a collection
        emit = None
