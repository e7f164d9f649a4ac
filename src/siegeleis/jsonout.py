"""The exact JSON writer of every JSON output.

`write_json` writes the bytes of json.dumps(obj, indent=2, sort_keys=True)
plus a newline in chunks as it encodes them.  `encoded` writes the JSON of
a CycNum or a Partition once as a `JsonText`, which write_json splices in
wherever the value recurs, so an output that repeats a few values encodes
each of them once.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str

# Pieces per write.  A spliced JsonText is one long piece, so 1024 of them
# make writes of about 60 KB in `eigen` output; 4096 raised the command's
# own tracemalloc peak at N=2310 from 4.99 to 5.18 MiB.
_FLUSH_PIECES = 1024


class JsonText:
    """A value written as write_json writes it at the top level, spliced in
    wherever it recurs.  Its only newlines are those of its indentation,
    because an encoded string escapes every newline it holds."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def encoded(obj: dict) -> JsonText:
    """`obj` as write_json writes it at the top level, for write_json to
    splice in at any depth.  It takes the JSON of a CycNum or a Partition
    (str keys; int or list-of-str values) and writes it directly, without
    write_json's walk; any other shape raises TypeError."""
    items = []
    for k in sorted(obj):
        v = obj[k]
        if type(v) is int:
            v = int.__repr__(v)
        elif type(v) is list:
            v = "[\n    " + ",\n    ".join(map(_json_str, v)) + "\n  ]" if v else "[]"
        else:
            raise TypeError(f"cannot encode {type(v).__name__} directly")
        items.append(_json_str(k) + ": " + v)
    return JsonText("{\n  " + ",\n  ".join(items) + "\n}" if items else "{}")


def write_json(obj, write) -> None:
    """Write `obj` as the bytes of json.dumps(obj, indent=2, sort_keys=True)
    plus a newline, in chunks of about a thousand pieces through `write`.

    Takes dict with str keys, list, tuple, str, int, bool and None, and
    JsonText, which stands for the value it encodes: its text goes in with
    every newline followed by the indentation of its depth.  Raises
    TypeError naming the type of anything else: no `to_json` emits floats
    or non-str keys, so they are rejected rather than emulated.
    """
    out = []
    append = out.append

    def emit(o, pad):
        t = type(o)
        if t is str:
            append(_json_str(o))
        elif t is JsonText:
            append(o.text.replace("\n", pad))
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
        elif t is list or t is tuple:
            if not o:
                append("[]")
                return
            inner = pad + "  "
            try:  # all items str: one join; the escaper rejects anything else
                append("[" + inner + ("," + inner).join(map(_json_str, o))
                       + pad + "]")
                return
            except TypeError:
                pass
            sep = "[" + inner
            for v in o:
                append(sep)
                emit(v, inner)
                sep = "," + inner
            append(pad + "]")
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
        else:
            raise TypeError(f"cannot write {t.__name__} as JSON")

    emit(obj, "\n")
    append("\n")
    write("".join(out))
