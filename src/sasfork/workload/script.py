"""The workload script language: statements, parser, printer.

Scripts are UTF-8 text, one statement per line, ``#`` comments.  All
addressing is symbolic (``handle+offset``): names bind to allocations,
never to absolute addresses, which is what lets a forked child replay
the same symbols against its own region.  A ``fork`` statement nests the
child's statements in braces; the parent resumes after the block behind
an implicit ``wait`` unless ``nowait`` is given.

Grammar::

    layout key=pages ...          # optional, first line only, and the
                                  # word must be exactly ``layout``; keys:
                                  # code got alloc_meta heap stack tls;
                                  # at most MAX_LAYOUT_PAGES in all
    alloc NAME BYTES
    store_int NAME+OFF VALUE
    store_ref NAME+OFF NAME+OFF   # destination offset 16-byte aligned
    load_int NAME+OFF
    load_ref NAME+OFF
    deref [OFF]                   # read through the last loaded ref
    fork [LABEL] [nowait] { ... }
    exit CODE
    wait
    open NAME | close NAME
    read NAME BUF+OFF COUNT | write NAME BUF+OFF COUNT
    yield
    priv
    expect VALUE                  # checks the previous result

Statements are typed named tuples: immutable, and equal only to a
statement of the same type with equal fields, so ``LoadInt("a", 0) !=
LoadRef("a", 0)`` and no statement equals a plain tuple.  A statement
hashes as the tuple of its fields.

The grammar has one owner, the ``_SYNTAX`` table: each statement
type's keyword and the kinds of its argument tokens.  The parser cuts
each line at its comment and splits it once, reads each token kind with
one method, and builds the statement from the fields the readers return
in one step; only ``fork`` and ``deref`` have readers of their own.  The
printer's ``_FORMATTERS`` derives from ``_SYNTAX`` too: a row's keyword
and token kinds make a ``%`` template that the statement, a tuple of its
fields, fills; only ``fork`` and ``deref`` have formatters of their own.

Parsing performs a full semantic pass: undeclared symbols, misaligned
reference stores, a ``deref`` with no prior ``load_ref``, and layout
page counts that :class:`LayoutSpec` would refuse are errors with
line/column positions.  An error in an argument token points at that
token, or at the part of it that is wrong; the column is worked out
from the token's place on the line only when the error is raised.
"""

from __future__ import annotations

import re
import typing
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Union

from ..errors import ParseError
from ..process import LayoutSpec

#: Layout keyword -> :class:`LayoutSpec` field: the field name without
#: its ``_pages`` suffix.
_LAYOUT_KEYS = {f.name.removesuffix("_pages"): f.name for f in fields(LayoutSpec)}

_TOKEN_RE = re.compile(r"\S+")

_tuple_new = tuple.__new__
_tuple_eq = tuple.__eq__

#: Deepest nesting of ``fork`` blocks a script may use.  Parsing,
#: printing and comparing scripts recurse once per level, so the limit
#: keeps every script well inside the interpreter's recursion limit.
MAX_FORK_DEPTH = 100

#: Most pages a layout may give the root process.  Creating the process
#: gives every page a frame, which keeps about 0.6 KiB of host memory until
#: something is written to it (about 80 MB at the limit), so the limit
#: bounds what a layout can claim; ``heap=65536`` fits.
MAX_LAYOUT_PAGES = 1 << 17


class Alloc(NamedTuple):
    name: str
    size: int


class StoreInt(NamedTuple):
    name: str
    offset: int
    value: int


class StoreRef(NamedTuple):
    name: str
    offset: int
    target: str
    target_offset: int


class LoadInt(NamedTuple):
    name: str
    offset: int


class LoadRef(NamedTuple):
    name: str
    offset: int


class Deref(NamedTuple):
    offset: int = 0


class Fork(NamedTuple):
    label: str | None
    nowait: bool
    body: tuple["Statement", ...]


class Exit(NamedTuple):
    code: int


class Wait(NamedTuple):
    pass


class Open(NamedTuple):
    name: str


class Close(NamedTuple):
    name: str


class Read(NamedTuple):
    file: str
    buffer: str
    offset: int
    count: int


class Write(NamedTuple):
    file: str
    buffer: str
    offset: int
    count: int


class Yield(NamedTuple):
    pass


class Priv(NamedTuple):
    pass


class Expect(NamedTuple):
    value: Union[int, str]


Statement = Union[
    Alloc,
    StoreInt,
    StoreRef,
    LoadInt,
    LoadRef,
    Deref,
    Fork,
    Exit,
    Wait,
    Open,
    Close,
    Read,
    Write,
    Yield,
    Priv,
    Expect,
]


def _same_statement(self, other) -> bool:
    return type(other) is type(self) and _tuple_eq(self, other)


def _other_statement(self, other) -> bool:
    return not (type(other) is type(self) and _tuple_eq(self, other))


# A statement equals only a statement of its own type with equal fields,
# never a plain tuple; it hashes as the tuple of its fields.
for _cls in typing.get_args(Statement):
    _cls.__eq__, _cls.__ne__ = _same_statement, _other_statement
del _cls


@dataclass(frozen=True)
class Script:
    body: tuple[Statement, ...]
    layout: dict[str, int] = field(default_factory=dict)

    def layout_spec(self) -> LayoutSpec:
        kwargs = {_LAYOUT_KEYS[k]: v for k, v in self.layout.items()}
        return LayoutSpec(**kwargs)

    def __hash__(self):
        return hash((self.body, tuple(sorted(self.layout.items()))))


# -- syntax and printing ------------------------------------------------------


def _format_fork(stmt: Fork) -> str:
    parts = ["fork"]
    if stmt.label:
        parts.append(stmt.label)
    if stmt.nowait:
        parts.append("nowait")
    return " ".join(parts)


#: The grammar's one owner: each statement type's keyword and the kinds of
#: its argument tokens, in field order.  Each kind names a ``_read_<kind>``
#: method of the parser.  ``deref`` (an optional offset) and ``fork`` (a
#: block) are read by methods of their own.
_SYNTAX = {
    Alloc: ("alloc", ("new_symbol", "size")),
    StoreInt: ("store_int", ("ref", "value")),
    StoreRef: ("store_ref", ("store_slot", "ref")),
    LoadInt: ("load_int", ("ref",)),
    LoadRef: ("load_ref", ("load_slot",)),
    Exit: ("exit", ("exit_code",)),
    Wait: ("wait", ()),
    Open: ("open", ("new_file",)),
    Close: ("close", ("file",)),
    Read: ("read", ("file", "ref", "count")),
    Write: ("write", ("file", "ref", "count")),
    Yield: ("yield", ()),
    Priv: ("priv", ()),
    Expect: ("expect", ("expected",)),
}

#: The token kinds that read two fields, written ``NAME+OFF``.
_REF_KINDS = {"ref", "store_slot", "load_slot"}

#: The one-line text of each statement type; a fork shows its header only.
#: A ``_SYNTAX`` row gives a ``%`` template of the statement's fields, in
#: field order: the keyword, then ``%s`` per token, ``%s+%s`` for a ref.
_FORMATTERS = {
    cls: " ".join(
        [keyword, *("%s+%s" if kind in _REF_KINDS else "%s" for kind in kinds)]
    ).__mod__
    for cls, (keyword, kinds) in _SYNTAX.items()
}
_FORMATTERS[Deref] = lambda s: f"deref {s.offset}" if s.offset else "deref"
_FORMATTERS[Fork] = _format_fork


def format_statement(stmt: Statement) -> str:
    """One-line canonical rendering, shared by the printer and the trace."""
    formatter = _FORMATTERS.get(type(stmt))
    if formatter is None:
        raise TypeError(f"unknown statement {stmt!r}")
    return formatter(stmt)


def print_script(script: Script) -> str:
    """Canonical text; ``parse(print_script(s)) == s``."""
    lines: list[str] = []
    if script.layout:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(script.layout.items()))
        lines.append(f"layout {pairs}")

    def emit(statements, depth):
        pad = "  " * depth
        for stmt in statements:
            if isinstance(stmt, Fork):
                lines.append(pad + format_statement(stmt) + " {")
                emit(stmt.body, depth + 1)
                lines.append(pad + "}")
            else:
                lines.append(pad + format_statement(stmt))

    emit(script.body, 0)
    return "\n".join(lines) + "\n"


# -- parsing -------------------------------------------------------------------


class _Scope:
    """Lexical declarations; children inherit a snapshot of the parent.

    ``depth`` counts the ``fork`` blocks the scope is nested in.
    """

    def __init__(self, parent: "_Scope | None" = None):
        self.depth = parent.depth + 1 if parent else 0
        self.symbols: set[str] = set(parent.symbols) if parent else set()
        self.files: set[str] = set(parent.files) if parent else set()
        self.has_loaded_ref = parent.has_loaded_ref if parent else False


def parse(text: str) -> Script:
    """Parse and semantically check a script; raises :class:`ParseError`."""
    parser = _Parser(text)
    layout = parser._parse_layout()
    body = parser._parse_block(top_level=True)
    return Script(body=tuple(body), layout=layout)


class _BadToken(Exception):
    """An error in one token, raised as ``(message[, offset in the token])``.

    The parser catches it and fails at the token's place on the line.
    """


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.index = 0
        # The statement being read: its line, its scope, and whether a
        # statement before it gave a result for ``expect`` to check.
        self.line_index = 0
        self.scope = _Scope()
        self.have_result = False

    # -- helpers ------------------------------------------------------------

    def _fail(self, message: str, column: int = 0):
        raise ParseError(self.line_index + 1, column + 1, message)

    def _fail_token(self, index: int, message: str, within: int = 0):
        """Fail ``within`` characters into token ``index`` of the current line."""
        starts = _TOKEN_RE.finditer(self.lines[self.line_index])
        for _ in range(index):
            next(starts)
        self._fail(message, next(starts).start() + within)

    def _int(self, token: str, what: str, within: int = 0) -> int:
        try:
            return int(token, 0)
        except ValueError:
            raise _BadToken(f"bad {what}: {token!r}", within) from None

    def _name(self, token: str, what: str) -> str:
        if not (token.isascii() and token.isidentifier()):
            raise _BadToken(f"bad {what}: {token!r}")
        return token

    def _parse_layout(self) -> dict[str, int]:
        while self.index < len(self.lines) and not _tokens(self.lines[self.index]):
            self.index += 1
        if self.index >= len(self.lines):
            return {}
        tokens = _tokens(self.lines[self.index])
        if tokens[0] != "layout":
            return {}
        self.line_index = self.index
        layout: dict[str, int] = {}
        for index, token in enumerate(tokens[1:], 1):
            try:
                key, pages = self._read_layout_item(token, layout)
            except _BadToken as bad:
                self._fail_token(index, *bad.args)
            layout[key] = pages
        if not layout:
            self._fail("empty layout directive")
        try:
            spec = LayoutSpec(**{_LAYOUT_KEYS[key]: count for key, count in layout.items()})
        except ValueError:
            # Fail at the first item the spec refuses on its own, with the
            # other fields at their valid defaults.
            for index, (key, count) in enumerate(layout.items(), 1):
                try:
                    LayoutSpec(**{_LAYOUT_KEYS[key]: count})
                except ValueError as err:
                    self._fail_token(index, str(err))
            raise
        pages = spec.total_pages
        if pages > MAX_LAYOUT_PAGES:
            self._fail_token(0, f"layout of {pages} pages exceeds the limit of {MAX_LAYOUT_PAGES}")
        self.index += 1
        return layout

    def _read_layout_item(self, token: str, layout: dict[str, int]) -> tuple[str, int]:
        """One ``key=pages`` item whose key is new to ``layout``."""
        key, eq, value = token.partition("=")
        if not eq or key not in _LAYOUT_KEYS:
            raise _BadToken(
                f"bad layout item {token!r} (keys: {', '.join(sorted(_LAYOUT_KEYS))})"
            )
        if key in layout:
            raise _BadToken(f"duplicate layout key {key!r}")
        return key, self._int(value, "page count", len(key) + 1)

    # -- statements ------------------------------------------------------------

    def _parse_block(self, *, top_level: bool) -> list[Statement]:
        out: list[Statement] = []
        lines = self.lines
        while self.index < len(lines):
            self.line_index = index = self.index
            raw = lines[index]
            self.index = index + 1
            # ``_tokens(raw)``, inlined: each line is cut and split once.
            if "#" in raw:
                raw = raw[: raw.index("#")]
            tokens = raw.split()
            if not tokens:
                continue
            if tokens[0] == "}" and len(tokens) == 1:
                if top_level:
                    self._fail_token(0, "unmatched '}'")
                return out
            # A fork block starts with the fork's return as its previous result.
            self.have_result = bool(out) or not top_level
            out.append(self._parse_statement(tokens))
        if not top_level:
            raise ParseError(len(lines), 1, "fork block never closed with '}'")
        return out

    def _parse_statement(self, tokens: list[str]) -> Statement:
        op = tokens[0]
        syntax = _STATEMENTS.get(op)
        if syntax is None:
            if op == "fork":
                return self._parse_fork(tokens)
            if op == "deref":
                return self._parse_deref(tokens)
            self._fail_token(0, f"unknown statement {op!r}")
        cls, readers = syntax
        if len(tokens) != len(readers) + 1:
            self._fail(f"{op} takes {len(readers)} argument(s), got {len(tokens) - 1}")
        # Growing a tuple by index measured faster here than a list over zip.
        fields: tuple = ()
        try:
            for index, read in enumerate(readers, 1):
                fields += read(self, tokens[index])
        except _BadToken as bad:
            self._fail_token(index, *bad.args)
        return _tuple_new(cls, fields)

    def _parse_deref(self, tokens: list[str]) -> Deref:
        if len(tokens) > 2:
            self._fail("deref takes at most one offset")
        if not self.scope.has_loaded_ref:
            self._fail("deref before any load_ref in scope")
        try:
            return _tuple_new(Deref, (self._int(tokens[1], "offset") if len(tokens) == 2 else 0,))
        except _BadToken as bad:
            self._fail_token(1, *bad.args)

    def _parse_fork(self, tokens: list[str]) -> Fork:
        if tokens[-1] != "{":
            # At the statement's last character, where the block should open.
            last = len(tokens) - 1
            self._fail_token(last, "fork needs a '{' block", len(tokens[last]) - 1)
        rest = tokens[1:-1]
        nowait = rest[-1:] == ["nowait"]
        if nowait:
            rest.pop()
        try:
            label = self._name(rest[0], "fork label") if rest else None
        except _BadToken as bad:
            self._fail_token(1, *bad.args)
        if len(rest) > 1:
            self._fail("fork takes at most a label and 'nowait'")
        outer = self.scope
        if outer.depth >= MAX_FORK_DEPTH:
            self._fail(f"fork blocks nested deeper than {MAX_FORK_DEPTH}")
        self.scope = _Scope(outer)
        body = self._parse_block(top_level=False)
        self.scope = outer
        return Fork(label=label, nowait=nowait, body=tuple(body))

    # -- token readers ---------------------------------------------------------
    # Each checks one argument token and returns the statement fields it fills.
    # The readers of the common statements check names and integers inline,
    # with the messages of ``_name`` and ``_int``.

    def _read_ref(self, token: str) -> tuple[str, int]:
        name, plus, off = token.partition("+")
        if not (name.isascii() and name.isidentifier()):
            raise _BadToken(f"bad symbol: {name!r}")
        if plus:
            try:
                offset = int(off, 0)
            except ValueError:
                raise _BadToken(f"bad offset: {off!r}", len(name) + 1) from None
            if offset < 0:
                raise _BadToken("negative offset")
        else:
            offset = 0
        if name not in self.scope.symbols:
            raise _BadToken(f"undeclared symbol {name!r}")
        return name, offset

    def _read_store_slot(self, token: str) -> tuple[str, int]:
        name, offset = self._read_ref(token)
        if offset % 16:
            raise _BadToken("reference stores must be 16-byte aligned")
        return name, offset

    def _read_load_slot(self, token: str) -> tuple[str, int]:
        name, offset = self._read_ref(token)
        if offset % 16:
            raise _BadToken("reference loads must be 16-byte aligned")
        self.scope.has_loaded_ref = True
        return name, offset

    def _read_new_symbol(self, token: str) -> tuple[str]:
        name = self._name(token, "symbol")
        if name in self.scope.symbols:
            raise _BadToken(f"symbol {name!r} already allocated")
        self.scope.symbols.add(name)
        return (name,)

    def _read_size(self, token: str) -> tuple[int]:
        size = self._int(token, "size")
        if size <= 0:
            raise _BadToken("alloc size must be positive")
        return (size,)

    def _read_value(self, token: str) -> tuple[int]:
        try:
            return (int(token, 0),)
        except ValueError:
            raise _BadToken(f"bad value: {token!r}") from None

    def _read_exit_code(self, token: str) -> tuple[int]:
        code = self._int(token, "exit code")
        if not 0 <= code <= 255:
            raise _BadToken("exit code must be 0..255")
        return (code,)

    def _read_new_file(self, token: str) -> tuple[str]:
        name = self._name(token, "file name")
        self.scope.files.add(name)
        return (name,)

    def _read_file(self, token: str) -> tuple[str]:
        name = self._name(token, "file name")
        if name not in self.scope.files:
            raise _BadToken(f"file {name!r} never opened")
        return (name,)

    def _read_count(self, token: str) -> tuple[int]:
        count = self._int(token, "count")
        if count < 0:
            raise _BadToken("negative count")
        return (count,)

    def _read_expected(self, token: str) -> tuple[Union[int, str]]:
        if not self.have_result:
            self._fail("expect needs a previous result")
        try:
            return (int(token, 0),)
        except ValueError:
            return (self._name(token, "expected value"),)


def _tokens(line: str) -> list[str]:
    """The tokens of one line, up to its comment."""
    if "#" in line:
        line = line[: line.index("#")]
    return line.split()


#: Keyword -> the statement type and the reader of each argument token,
#: resolved from :data:`_SYNTAX` once.
_STATEMENTS = {
    keyword: (cls, tuple(getattr(_Parser, f"_read_{kind}") for kind in kinds))
    for cls, (keyword, kinds) in _SYNTAX.items()
}
