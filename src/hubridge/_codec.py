"""The one JSON codec: a document is a ``Record`` of (JSON key, attribute, parser) entries.

A class keeps its record as its ``JSON`` attribute. ``encode`` writes the
entries in order, after ``version`` when the record has one, and ``decode``
builds the object from the parsed entries, so a writer and its reader cannot
drift apart. ``encode`` writes JSON types: INT, BOOL, STR and NUMBER values go
through ``int``, ``bool``, ``str`` and ``float``, so a numpy scalar or a path is
written as a value ``json.dumps`` takes. A decode error is a ValueError naming
the record and key, e.g. ``transform field 'lambda': expected a number, got
None``, with values shown through ``reprlib`` so that it stays short.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._arrays import as_reals


class Parser(NamedTuple):
    parse: Callable | None  # JSON value -> attribute, or TypeError/ValueError; None: never read
    encode: Callable = lambda value: value


def _expected(what: str, value) -> TypeError:
    return TypeError(f"expected {what}, got {reprlib.repr(value)}")


def _kind(cls) -> Parser:
    def parse(value):  # a bool is never an int
        if not isinstance(value, cls) or (isinstance(value, bool) and cls is not bool):
            raise _expected(cls.__name__, value)
        return value
    return Parser(parse, cls)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected("a number", value)
    if not abs(value) <= sys.float_info.max:  # NaN, infinity or an int past float range
        raise _expected("a finite number", value)
    return float(value)


INT, BOOL, STR, NUMBER = _kind(int), _kind(bool), _kind(str), Parser(_number, float)
WRITTEN = Parser(None)  # derived from the other entries


def nullable(item: Parser) -> Parser:
    return Parser(lambda value: None if value is None else item.parse(value),
                  lambda value: None if value is None else item.encode(value))


def list_of(item: Parser) -> Parser:
    def parse(value):
        if not isinstance(value, list):
            raise _expected("list", value)
        return tuple(map(item.parse, value))
    return Parser(parse, lambda value: [item.encode(v) for v in value])


def array(rank: int) -> Parser:
    def parse(value):
        try:
            return as_reals(value, "array", rank)
        except ValueError:  # not numbers, ragged, another rank or not finite
            raise _expected(f"a {rank}-dimensional array of finite numbers", value) from None
    return Parser(parse, np.ndarray.tolist)


class FieldError(ValueError):
    """A JSON document is malformed; the message names the record and the key."""


@dataclass(frozen=True)
class Record:
    """A document; ``make`` (by default the class holding the record) builds its object.

    ``required`` lists the keys it must hold (None: every key read); a record
    with optional keys rejects unknown ones, lest a misspelt key silently
    take its default. ``word`` is what its messages call a key.
    """

    name: str
    entries: tuple[tuple[str, str, Parser], ...]
    make: Callable | None = None
    version: int | None = None
    version_error: str = "unsupported {name} version {version}"
    required: tuple[str, ...] | None = None
    word: str = "field"

    def __set_name__(self, owner, name):
        if self.make is None:
            object.__setattr__(self, "make", owner)

    def encode(self, obj) -> dict:
        """``obj``'s document; a record held as a dict is read by key."""
        get = obj.__getitem__ if isinstance(obj, dict) else lambda attr: getattr(obj, attr)
        head = {} if self.version is None else {"version": self.version}
        return {**head, **{key: p.encode(get(attr)) for key, attr, p in self.entries}}

    def decode(self, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"{self.name} must be a JSON object, got {type(doc).__name__}")
        try:
            return self.parse(doc)
        except KeyError as e:  # a required key is absent
            lacks = self.word if self.required is None else f"required {self.word}"
            raise FieldError(f"{self.name} lacks {lacks} {e.args[0]!r}") from None

    def parse(self, doc):
        """The object of a nested entry's value (of a whole document, through ``decode``)."""
        if not isinstance(doc, dict):
            raise _expected("dict", doc)
        version = doc.get("version")  # an int, as INT parses it: neither true nor 4.0
        if self.version is not None and (type(version) is not int or version != self.version):
            raise ValueError(self.version_error.format(
                name=self.name, version=reprlib.repr(version)))
        known = [key for key, _, _ in self.entries]
        for key in doc:
            if self.required is not None and key not in known and key != "version":
                raise ValueError(f"unknown {self.name} {self.word} {key!r}")
        read = [entry for entry in self.entries if entry[2].parse is not None]
        for key, _, _ in read:
            if key not in doc and (self.required is None or key in self.required):
                raise KeyError(key)
        kwargs = {}
        for key, attr, p in (entry for entry in read if entry[0] in doc):
            try:
                kwargs[attr] = p.parse(doc[key])
            except KeyError as e:  # a nested record lacks a key
                raise FieldError(f"{self.name} lacks {self.word} {e.args[0]!r} in {key!r}") \
                    from None
            except (TypeError, ValueError) as e:
                raise e if isinstance(e, FieldError) else FieldError(
                    f"{self.name} {self.word} {key!r}: {e}") from None
        return self.make(**kwargs)
