"""The workload script language: statements, parser, printer.

Scripts are UTF-8 text, one statement per line, ``#`` comments.  All
addressing is symbolic (``handle+offset``): names bind to allocations,
never to absolute addresses, which is what lets a forked child replay
the same symbols against its own region.  A ``fork`` statement nests the
child's statements in braces; the parent resumes after the block behind
an implicit ``wait`` unless ``nowait`` is given.

Grammar::

    layout key=pages ...          # optional, first line only; keys:
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

Parsing performs a full semantic pass: undeclared symbols, misaligned
reference stores, and a ``deref`` with no prior ``load_ref`` are errors
with line/column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from ..errors import ParseError
from ..process import LayoutSpec

_LAYOUT_KEYS = {
    "code": "code_pages",
    "got": "got_pages",
    "alloc_meta": "alloc_meta_pages",
    "heap": "heap_pages",
    "stack": "stack_pages",
    "tls": "tls_pages",
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

#: Deepest nesting of ``fork`` blocks a script may use.  Parsing,
#: printing and comparing scripts recurse once per level, so the limit
#: keeps every script well inside the interpreter's recursion limit.
MAX_FORK_DEPTH = 100

#: Most pages a layout may give the root process.  Creating the process
#: backs every page with a frame, so the limit bounds the host memory a
#: script can claim (512 MiB of frames); ``heap=65536`` fits.
MAX_LAYOUT_PAGES = 1 << 17


@dataclass(frozen=True)
class Alloc:
    name: str
    size: int


@dataclass(frozen=True)
class StoreInt:
    name: str
    offset: int
    value: int


@dataclass(frozen=True)
class StoreRef:
    name: str
    offset: int
    target: str
    target_offset: int


@dataclass(frozen=True)
class LoadInt:
    name: str
    offset: int


@dataclass(frozen=True)
class LoadRef:
    name: str
    offset: int


@dataclass(frozen=True)
class Deref:
    offset: int = 0


@dataclass(frozen=True)
class Fork:
    label: str | None
    nowait: bool
    body: tuple["Statement", ...]


@dataclass(frozen=True)
class Exit:
    code: int


@dataclass(frozen=True)
class Wait:
    pass


@dataclass(frozen=True)
class Open:
    name: str


@dataclass(frozen=True)
class Close:
    name: str


@dataclass(frozen=True)
class Read:
    file: str
    buffer: str
    offset: int
    count: int


@dataclass(frozen=True)
class Write:
    file: str
    buffer: str
    offset: int
    count: int


@dataclass(frozen=True)
class Yield:
    pass


@dataclass(frozen=True)
class Priv:
    pass


@dataclass(frozen=True)
class Expect:
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


@dataclass(frozen=True)
class Script:
    body: tuple[Statement, ...]
    layout: dict[str, int] = field(default_factory=dict)

    def layout_spec(self) -> LayoutSpec:
        kwargs = {_LAYOUT_KEYS[k]: v for k, v in self.layout.items()}
        return LayoutSpec(**kwargs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Script)
            and self.body == other.body
            and self.layout == other.layout
        )

    def __hash__(self):
        return hash((self.body, tuple(sorted(self.layout.items()))))


# -- printing -----------------------------------------------------------------


def _format_fork(stmt: Fork) -> str:
    parts = ["fork"]
    if stmt.label:
        parts.append(stmt.label)
    if stmt.nowait:
        parts.append("nowait")
    return " ".join(parts)


#: The one-line text of each statement type; a fork shows its header only.
_FORMATTERS = {
    Alloc: lambda s: f"alloc {s.name} {s.size}",
    StoreInt: lambda s: f"store_int {s.name}+{s.offset} {s.value}",
    StoreRef: lambda s: f"store_ref {s.name}+{s.offset} {s.target}+{s.target_offset}",
    LoadInt: lambda s: f"load_int {s.name}+{s.offset}",
    LoadRef: lambda s: f"load_ref {s.name}+{s.offset}",
    Deref: lambda s: f"deref {s.offset}" if s.offset else "deref",
    Fork: _format_fork,
    Exit: lambda s: f"exit {s.code}",
    Wait: lambda s: "wait",
    Open: lambda s: f"open {s.name}",
    Close: lambda s: f"close {s.name}",
    Read: lambda s: f"read {s.file} {s.buffer}+{s.offset} {s.count}",
    Write: lambda s: f"write {s.file} {s.buffer}+{s.offset} {s.count}",
    Yield: lambda s: "yield",
    Priv: lambda s: "priv",
    Expect: lambda s: f"expect {s.value}",
}


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
    """Lexical declarations; children inherit a snapshot of the parent."""

    def __init__(self, parent: "_Scope | None" = None):
        self.symbols: set[str] = set(parent.symbols) if parent else set()
        self.files: set[str] = set(parent.files) if parent else set()
        self.has_loaded_ref = parent.has_loaded_ref if parent else False


def parse(text: str) -> Script:
    """Parse and semantically check a script; raises :class:`ParseError`."""
    parser = _Parser(text)
    return parser.parse()


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.index = 0
        self.depth = 0

    def parse(self) -> Script:
        layout = self._parse_layout()
        body = self._parse_block(_Scope(), top_level=True)
        if self.index < len(self.lines):
            self._fail(self.index, 0, "unmatched '}'")
        return Script(body=tuple(body), layout=layout)

    # -- helpers ------------------------------------------------------------

    def _fail(self, line_index: int, column: int, message: str):
        raise ParseError(line_index + 1, column + 1, message)

    def _strip(self, raw: str) -> str:
        if "#" in raw:
            raw = raw[: raw.index("#")]
        return raw.strip()

    def _int(self, token: str, line_index: int, what: str) -> int:
        try:
            return int(token, 0)
        except ValueError:
            self._fail(line_index, self.lines[line_index].find(token), f"bad {what}: {token!r}")

    def _name(self, token: str, line_index: int, what: str) -> str:
        if not _NAME_RE.match(token):
            self._fail(line_index, self.lines[line_index].find(token), f"bad {what}: {token!r}")
        return token

    def _ref(self, token: str, line_index: int) -> tuple[str, int]:
        name, plus, off = token.partition("+")
        name = self._name(name, line_index, "symbol")
        offset = self._int(off, line_index, "offset") if plus else 0
        if offset < 0:
            self._fail(line_index, self.lines[line_index].find(token), "negative offset")
        return name, offset

    def _require_symbol(self, name: str, scope: _Scope, line_index: int, token: str):
        if name not in scope.symbols:
            self._fail(
                line_index,
                self.lines[line_index].find(token),
                f"undeclared symbol {name!r}",
            )

    def _parse_layout(self) -> dict[str, int]:
        while self.index < len(self.lines) and not self._strip(self.lines[self.index]):
            self.index += 1
        if self.index >= len(self.lines):
            return {}
        line = self._strip(self.lines[self.index])
        if not line.startswith("layout"):
            return {}
        tokens = line.split()
        layout: dict[str, int] = {}
        for token in tokens[1:]:
            key, eq, value = token.partition("=")
            if not eq or key not in _LAYOUT_KEYS:
                self._fail(
                    self.index,
                    self.lines[self.index].find(token),
                    f"bad layout item {token!r} (keys: {', '.join(sorted(_LAYOUT_KEYS))})",
                )
            layout[key] = self._int(value, self.index, "page count")
        if not layout:
            self._fail(self.index, 0, "empty layout directive")
        defaults = LayoutSpec()
        pages = sum(layout.get(key, getattr(defaults, name)) for key, name in _LAYOUT_KEYS.items())
        if pages > MAX_LAYOUT_PAGES:
            self._fail(
                self.index,
                self.lines[self.index].find("layout"),
                f"layout of {pages} pages exceeds the limit of {MAX_LAYOUT_PAGES}",
            )
        self.index += 1
        return layout

    # -- statements ------------------------------------------------------------

    def _parse_block(self, scope: _Scope, *, top_level: bool) -> list[Statement]:
        out: list[Statement] = []
        while self.index < len(self.lines):
            line_index = self.index
            line = self._strip(self.lines[line_index])
            self.index += 1
            if not line:
                continue
            if line == "}":
                if top_level:
                    self._fail(line_index, self.lines[line_index].find("}"), "unmatched '}'")
                return out
            # A fork block starts with the fork's return as its previous result.
            stmt = self._parse_statement(line, line_index, scope, bool(out) or not top_level)
            out.append(stmt)
        if not top_level:
            self._fail(len(self.lines) - 1, 0, "fork block never closed with '}'")
        return out

    def _parse_statement(
        self, line: str, line_index: int, scope: _Scope, have_result: bool
    ) -> Statement:
        tokens = line.split()
        op = tokens[0]

        def want(count: int):
            if len(tokens) != count:
                self._fail(
                    line_index, 0, f"{op} takes {count - 1} argument(s), got {len(tokens) - 1}"
                )

        if op == "alloc":
            want(3)
            name = self._name(tokens[1], line_index, "symbol")
            if name in scope.symbols:
                self._fail(
                    line_index,
                    self.lines[line_index].find(name),
                    f"symbol {name!r} already allocated",
                )
            size = self._int(tokens[2], line_index, "size")
            if size <= 0:
                self._fail(line_index, self.lines[line_index].find(tokens[2]), "alloc size must be positive")
            scope.symbols.add(name)
            return Alloc(name, size)

        if op == "store_int":
            want(3)
            name, offset = self._ref(tokens[1], line_index)
            self._require_symbol(name, scope, line_index, tokens[1])
            value = self._int(tokens[2], line_index, "value")
            return StoreInt(name, offset, value)

        if op == "store_ref":
            want(3)
            name, offset = self._ref(tokens[1], line_index)
            self._require_symbol(name, scope, line_index, tokens[1])
            if offset % 16:
                self._fail(
                    line_index,
                    self.lines[line_index].find(tokens[1]),
                    "reference stores must be 16-byte aligned",
                )
            target, target_offset = self._ref(tokens[2], line_index)
            self._require_symbol(target, scope, line_index, tokens[2])
            return StoreRef(name, offset, target, target_offset)

        if op in ("load_int", "load_ref"):
            want(2)
            name, offset = self._ref(tokens[1], line_index)
            self._require_symbol(name, scope, line_index, tokens[1])
            if op == "load_ref":
                if offset % 16:
                    self._fail(
                        line_index,
                        self.lines[line_index].find(tokens[1]),
                        "reference loads must be 16-byte aligned",
                    )
                scope.has_loaded_ref = True
                return LoadRef(name, offset)
            return LoadInt(name, offset)

        if op == "deref":
            if len(tokens) > 2:
                self._fail(line_index, 0, "deref takes at most one offset")
            if not scope.has_loaded_ref:
                self._fail(line_index, 0, "deref before any load_ref in scope")
            offset = self._int(tokens[1], line_index, "offset") if len(tokens) == 2 else 0
            return Deref(offset)

        if op == "fork":
            rest = tokens[1:]
            if not rest or rest[-1] != "{":
                self._fail(line_index, len(self.lines[line_index]) - 1, "fork needs a '{' block")
            rest = rest[:-1]
            nowait = False
            label = None
            if rest and rest[-1] == "nowait":
                nowait = True
                rest = rest[:-1]
            if rest:
                label = self._name(rest[0], line_index, "fork label")
                rest = rest[1:]
            if rest:
                self._fail(line_index, 0, "fork takes at most a label and 'nowait'")
            if self.depth >= MAX_FORK_DEPTH:
                self._fail(line_index, 0, f"fork blocks nested deeper than {MAX_FORK_DEPTH}")
            self.depth += 1
            body = self._parse_block(_Scope(scope), top_level=False)
            self.depth -= 1
            return Fork(label=label, nowait=nowait, body=tuple(body))

        if op == "exit":
            want(2)
            code = self._int(tokens[1], line_index, "exit code")
            if not 0 <= code <= 255:
                self._fail(line_index, self.lines[line_index].find(tokens[1]), "exit code must be 0..255")
            return Exit(code)

        if op == "wait":
            want(1)
            return Wait()

        if op == "open":
            want(2)
            name = self._name(tokens[1], line_index, "file name")
            scope.files.add(name)
            return Open(name)

        if op == "close":
            want(2)
            name = self._name(tokens[1], line_index, "file name")
            if name not in scope.files:
                self._fail(
                    line_index, self.lines[line_index].find(name), f"file {name!r} never opened"
                )
            return Close(name)

        if op in ("read", "write"):
            want(4)
            fname = self._name(tokens[1], line_index, "file name")
            if fname not in scope.files:
                self._fail(
                    line_index, self.lines[line_index].find(fname), f"file {fname!r} never opened"
                )
            buffer, offset = self._ref(tokens[2], line_index)
            self._require_symbol(buffer, scope, line_index, tokens[2])
            count = self._int(tokens[3], line_index, "count")
            if count < 0:
                self._fail(line_index, self.lines[line_index].find(tokens[3]), "negative count")
            cls = Read if op == "read" else Write
            return cls(fname, buffer, offset, count)

        if op == "yield":
            want(1)
            return Yield()

        if op == "priv":
            want(1)
            return Priv()

        if op == "expect":
            want(2)
            if not have_result:
                self._fail(line_index, 0, "expect needs a previous result")
            token = tokens[1]
            try:
                return Expect(int(token, 0))
            except ValueError:
                return Expect(self._name(token, line_index, "expected value"))

        self._fail(line_index, self.lines[line_index].find(op), f"unknown statement {op!r}")
