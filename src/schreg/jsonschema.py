"""Validation against the draft-07 subset that the packaged schemas use:
`type` (one name), `properties`, `additionalProperties: false`, `required`,
`items` (one schema), `minItems`, `maxItems`, `uniqueItems`, `minimum`,
`exclusiveMinimum`, `const`, `enum`, `oneOf` and `$ref` into `#/$defs`.
`$schema`, `$defs`, `title` and `description` are ignored; any other
keyword raises SchemaError.  As in draft-07, 2.0 is an integer, true is
not 1, and each keyword skips instances of other types.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from numbers import Number

__all__ = ["SchemaError", "ValidationError", "validate"]

_IGNORED = frozenset(("$schema", "$defs", "title", "description"))

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


class SchemaError(Exception):
    """The schema uses a keyword, or a form of one, outside the subset."""


class ValidationError(Exception):
    """The instance does not satisfy the schema."""

    def __init__(self, message):
        super().__init__(message)
        self.message = message


def _unbool(v):
    return (bool, v) if isinstance(v, bool) else v


def _equal(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return _unbool(a) == _unbool(b)


def _unique(items):
    return not any(_equal(a, b) for i, a in enumerate(items) for b in items[:i])


def _valid(inst, schema, root):
    try:
        _check(inst, schema, root)
    except ValidationError:
        return False
    return True


def _check(inst, schema, root):
    while "$ref" in schema:     # draft-07 ignores a $ref's siblings
        ref = schema["$ref"]
        if not ref.startswith("#/$defs/"):
            raise SchemaError(f"unsupported $ref {ref!r}")
        schema = root["$defs"][ref[len("#/$defs/"):]]
    is_obj, is_arr = isinstance(inst, dict), isinstance(inst, list)
    for key, arg in schema.items():
        if key == "type":
            if not isinstance(arg, str) or arg not in _TYPES:
                raise SchemaError(f"unsupported type {arg!r}")
            if not _TYPES[arg](inst):
                raise ValidationError(f"{inst!r} is not of type {arg!r}")
        elif key == "properties":
            for name, sub in arg.items() if is_obj else ():
                if name in inst:
                    _check(inst[name], sub, root)
        elif key == "additionalProperties":
            if arg is not False:
                raise SchemaError("additionalProperties must be false")
            extra = is_obj and sorted(
                set(inst).difference(schema.get("properties", ())), key=str)
            if extra:
                raise ValidationError(f"unexpected properties {extra!r}")
        elif key == "required":
            for name in arg if is_obj else ():
                if name not in inst:
                    raise ValidationError(f"{name!r} is required")
        elif key == "items":
            if not isinstance(arg, dict):
                raise SchemaError("items must be one schema")
            for i in range(len(inst)) if is_arr else ():
                _check(inst[i], arg, root)
        elif key == "minItems":
            if is_arr and len(inst) < arg:
                raise ValidationError(f"{inst!r} has under {arg} items")
        elif key == "maxItems":
            if is_arr and len(inst) > arg:
                raise ValidationError(f"{inst!r} has over {arg} items")
        elif key == "uniqueItems":
            if arg and is_arr and not _unique(inst):
                raise ValidationError(f"{inst!r} has repeated items")
        elif key == "minimum":
            if _TYPES["number"](inst) and inst < arg:
                raise ValidationError(f"{inst!r} is less than {arg!r}")
        elif key == "exclusiveMinimum":
            if _TYPES["number"](inst) and inst <= arg:
                raise ValidationError(f"{inst!r} is not above {arg!r}")
        elif key == "const":
            if not _equal(inst, arg):
                raise ValidationError(f"{arg!r} was expected")
        elif key == "enum":
            if not any(_equal(each, inst) for each in arg):
                raise ValidationError(f"{inst!r} is not one of {arg!r}")
        elif key == "oneOf":
            n = sum(_valid(inst, sub, root) for sub in arg)
            if n != 1:
                raise ValidationError(f"{inst!r} is valid under {n} of "
                                      f"the {len(arg)} oneOf schemas")
        elif key not in _IGNORED:
            raise SchemaError(f"unsupported keyword {key!r}")


def validate(instance, schema):
    """Raise ValidationError unless `instance` satisfies `schema`."""
    _check(instance, schema, schema)
