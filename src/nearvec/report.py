"""Report containers for exhaustive checks, and their JSON form.

``jsonify`` turns a report into plain JSON values: tuples and sets become
lists, sets sorted, and dict keys strings.  ``dumps`` writes a report as
``json.dumps(jsonify(value), indent=2, sort_keys=True)`` would, in one
walk and without the copy.
"""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii


def jsonify(value):
    """Recursively convert tuples/sets to JSON-friendly lists."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    return value


def dumps(value):
    """``json.dumps(jsonify(value), indent=2, sort_keys=True)``, byte for
    byte.  With ``indent`` set, CPython encodes through its pure-Python
    encoder, one generator per container; this walk joins each container
    once, a list of plain ints in one ``str.join``, and a list of
    equal-length rows, a member listing say, in one ``%`` format of its
    row template repeated: plain int cells fill ``%d`` slots, list and
    tuple cells ``%s`` slots, each distinct cell object rendered once
    (``vectors_to_json`` shares one per element).  Other rows take the
    general walk."""
    return _dumps(value, "\n")


def _dumps(value, newline):
    # ``newline`` is "\n" and the indentation of the level ``value`` is at
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = {str(k): v for k, v in value.items()}  # later keys win, as in jsonify
        body = ("," + inner).join([
            f"{encode_basestring_ascii(k)}: {_dumps(items[k], inner)}" for k in sorted(items)
        ])
        return "{" + inner + body + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        body = _flat(value, inner) or ("," + inner).join([_dumps(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, (set, frozenset)):
        return _dumps(jsonify(value), newline)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    # bools, None and floats; anything else raises as json.dumps does
    return json.dumps(value)


def _flat(items, inner):
    # the body of a list written with no call per child, as ``dumps``
    # says, or None
    types = {*map(type, items)}
    if types == {int}:  # bools and int subclasses excluded
        return ("," + inner).join(map(str, items))
    if not types <= {list, tuple} or len({*map(len, items)}) != 1 or not items[0]:
        return None
    cells = [*chain.from_iterable(items)]
    types = {*map(type, cells)}
    cell = inner + "  "
    if types == {int}:
        slot = "%d"
    elif types <= {list, tuple}:
        slot = "%s"
        ids = [*map(id, cells)]
        text = {k: _dumps(c, cell) for k, c in dict(zip(ids, cells)).items()}
        cells = map(text.__getitem__, ids)
    else:
        return None
    row = "[" + cell + ("," + cell).join([slot] * len(items[0])) + inner + "]"
    return ("," + inner).join([row] * len(items)) % (*cells,)


class CheckReport:
    """Named pass/fail verdicts, each with a witness on failure."""

    def __init__(self, entries):
        self.entries = dict(entries)

    @property
    def all_pass(self):
        return all(ok for ok, _ in self.entries.values())

    def failed(self):
        return [name for name, (ok, _) in self.entries.items() if not ok]

    def witness(self, name):
        return self.entries[name][1]

    def to_json(self):
        return {
            name: {"pass": ok, "counterexample": jsonify(cx) if cx is not None else None}
            for name, (ok, cx) in self.entries.items()
        }

    def __repr__(self):
        bad = self.failed()
        status = "all pass" if not bad else f"failed: {', '.join(bad)}"
        return f"CheckReport({status})"
