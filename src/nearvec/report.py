"""Report containers for exhaustive checks, and their JSON form.

``jsonify`` turns a report into plain JSON values: tuples and sets become
lists, sets sorted, and dict keys strings.  ``dumps`` writes a report as
``json.dumps(jsonify(value), indent=2, sort_keys=True)`` would, in one
walk and without the copy.
"""

import json
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
    once, and a list of plain ints in a single ``str.join``."""
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
        if {*map(type, value)} == {int}:  # bools and int subclasses excluded
            body = ("," + inner).join(map(str, value))
        else:
            body = ("," + inner).join([_dumps(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, (set, frozenset)):
        return _dumps(jsonify(value), newline)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    # bools, None and floats; anything else raises as json.dumps does
    return json.dumps(value)


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
