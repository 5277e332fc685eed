"""Stencil data model, serialization, and maximum bipartite matching.

A stencil is an m x n pattern over {0, *} together with integer-tuple labels
on its rows and columns.  Entries are stored as one bitmask per row (bit j
set means a star in column j+1), which keeps sub-stencil extraction,
permutation, and all the search code in the rest of the package cheap.

External indices are 1-based throughout the public API; the bit-level
representation is an internal detail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Label = tuple[int, ...]


class StencilError(ValueError):
    """Base class for stencil-domain errors."""


class ParseError(StencilError):
    """Base class for stencil parse failures."""


class MalformedHeaderError(ParseError):
    pass


class RaggedRowError(ParseError):
    pass


class IllegalCharacterError(ParseError):
    pass


class DuplicateLabelError(ParseError):
    pass


class SubsetError(StencilError):
    """Out-of-range or duplicate index in a row/column subset."""


def is_json_int(x) -> bool:
    """True for a JSON integer (a Python int that is not a bool)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_json_int_list(x) -> bool:
    """True for a JSON list of integers."""
    return isinstance(x, list) and all(map(is_json_int, x))


def _default_labels(k: int) -> tuple[Label, ...]:
    return tuple((i,) for i in range(1, k + 1))


def _check_labels(labels: tuple[Label, ...], kind: str) -> None:
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError(f"duplicate {kind} labels")
    arities = {len(lab) for lab in labels}
    if len(arities) > 1:
        raise StencilError(f"{kind} label arity is not uniform: {sorted(arities)}")


@dataclass(frozen=True)
class Stencil:
    """An immutable m x n pattern of {0, *} with labeled rows and columns.

    ``rows[i]`` is the star bitmask of row i+1; bit j set means a star at
    column j+1.
    """

    m: int
    n: int
    rows: tuple[int, ...]
    row_labels: tuple[Label, ...]
    col_labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise StencilError("negative dimensions")
        if len(self.rows) != self.m:
            raise StencilError(f"expected {self.m} row masks, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for mask in self.rows:
            if mask & ~full:
                raise StencilError("row mask has bits outside column range")
        if len(self.row_labels) != self.m or len(self.col_labels) != self.n:
            raise StencilError("label count does not match dimensions")
        _check_labels(self.row_labels, "row")
        _check_labels(self.col_labels, "column")

    @staticmethod
    def from_rows(
        masks,
        n: int,
        row_labels=None,
        col_labels=None,
    ) -> "Stencil":
        masks = tuple(int(x) for x in masks)
        m = len(masks)
        rl = tuple(tuple(lab) for lab in row_labels) if row_labels is not None else _default_labels(m)
        cl = tuple(tuple(lab) for lab in col_labels) if col_labels is not None else _default_labels(n)
        return Stencil(m, n, masks, rl, cl)

    @staticmethod
    def from_entries(entries, row_labels=None, col_labels=None) -> "Stencil":
        """Build from a row-major iterable of truthy (star) / falsy (zero) cells."""
        grid = [list(row) for row in entries]
        n = len(grid[0]) if grid else 0
        masks = []
        for row in grid:
            if len(row) != n:
                raise RaggedRowError("ragged entry rows")
            mask = 0
            for j, cell in enumerate(row):
                if cell:
                    mask |= 1 << j
            masks.append(mask)
        return Stencil.from_rows(masks, n, row_labels, col_labels)

    def star(self, i: int, j: int) -> bool:
        """True iff entry (i, j) is a star (1-based)."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise SubsetError(f"entry ({i},{j}) out of range")
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def row_support(self, i: int) -> tuple[int, ...]:
        """1-based columns carrying a star in row i."""
        mask = self.rows[i - 1]
        return tuple(j + 1 for j in range(self.n) if mask >> j & 1)

    def star_count(self) -> int:
        return sum(mask.bit_count() for mask in self.rows)

    def entries(self) -> list[list[bool]]:
        return [[bool(mask >> j & 1) for j in range(self.n)] for mask in self.rows]

    def stars(self) -> list[tuple[int, int]]:
        """All star positions as 1-based (row, col) pairs, row-major."""
        return [
            (i + 1, j + 1)
            for i, mask in enumerate(self.rows)
            for j in range(self.n)
            if mask >> j & 1
        ]

    @property
    def row_arity(self) -> int:
        return len(self.row_labels[0]) if self.m else 0

    @property
    def col_arity(self) -> int:
        return len(self.col_labels[0]) if self.n else 0


@dataclass(frozen=True)
class PermutationPair:
    """A pair of bijections on the rows and columns of a stencil.

    ``row_perm[i-1]`` is the 1-based image of row i.
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def __post_init__(self) -> None:
        for perm in (self.row_perm, self.col_perm):
            if sorted(perm) != list(range(1, len(perm) + 1)):
                raise StencilError(f"not a bijection: {perm}")

    @staticmethod
    def identity(m: int, n: int) -> "PermutationPair":
        return PermutationPair(tuple(range(1, m + 1)), tuple(range(1, n + 1)))


def substencil(H: Stencil, row_subset, col_subset) -> Stencil:
    """Restrict ``H`` to the given 1-based rows and columns, in the given order."""
    rows = list(row_subset)
    cols = list(col_subset)
    for i in rows:
        if not 1 <= i <= H.m:
            raise SubsetError(f"row index {i} out of range")
    for j in cols:
        if not 1 <= j <= H.n:
            raise SubsetError(f"column index {j} out of range")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise SubsetError("duplicate index in subset")
    masks = []
    for i in rows:
        src = H.rows[i - 1]
        mask = 0
        for jj, j in enumerate(cols):
            if src >> (j - 1) & 1:
                mask |= 1 << jj
        masks.append(mask)
    rl = tuple(H.row_labels[i - 1] for i in rows)
    cl = tuple(H.col_labels[j - 1] for j in cols)
    return Stencil(len(rows), len(cols), tuple(masks), rl, cl)


def max_matching_size(H: Stencil) -> int:
    """Maximum bipartite matching of the star pattern.

    Each row first takes the lowest column that no earlier row took, a few
    big-int operations per row; when that matches min(m, n) edges no search
    can add one.  Otherwise one breadth-first augmenting-path search runs
    over the row masks from each row left free.  The columns that a failed
    search saw stay seen until the next flip, since no free column is
    reachable through them; a row with no augmenting path never gains one,
    so one pass over the rows is enough."""
    masks, n = H.rows, H.n
    m = len(masks)
    match_row = [-1] * m
    match_col = [-1] * n
    used = size = 0
    for i, mask in enumerate(masks):
        free = mask & ~used
        if free:
            low = free & -free
            used |= low
            j = low.bit_length() - 1
            match_row[i] = j
            match_col[j] = i
            size += 1
    if size == min(m, n):
        return size
    via = [-1] * n  # the row from which the current search first saw a column
    seen = 0
    for root in range(m):
        if match_row[root] != -1:
            continue
        frontier, end = [root], -1
        while frontier and end == -1:
            step = []
            for i in frontier:
                new = masks[i] & ~seen
                seen |= new
                out = new & ~used
                if out:
                    end = (out & -out).bit_length() - 1
                    via[end] = i
                    break
                while new:
                    low = new & -new
                    j = low.bit_length() - 1
                    via[j] = i
                    step.append(match_col[j])
                    new ^= low
            frontier = step
        if end == -1:
            continue
        j = end
        while j != -1:
            i = via[j]
            match_col[j] = i
            match_row[i], j = j, match_row[i]
        used |= 1 << end
        seen = 0
        size += 1
    return size


# ---------------------------------------------------------------------------
# Serialization: .stn grid format and labeled JSON.

_GRID_CHARS = {"*": True, "0": False}


def parse_stencil(text: str) -> Stencil:
    """Parse a stencil document: .stn grid or labeled JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return stencil_from_json_doc(json.loads(text))
    lines = [ln.rstrip("\r") for ln in text.splitlines()]
    if not any(ln.strip() for ln in lines):
        raise MalformedHeaderError("empty document")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "stencil":
        raise MalformedHeaderError(f"bad header: {lines[0]!r}")
    try:
        m, n = int(header[1]), int(header[2])
    except ValueError:
        raise MalformedHeaderError(f"non-integer dimensions in header: {lines[0]!r}") from None
    if m < 0 or n < 0:
        raise MalformedHeaderError("negative dimensions in header")
    body = lines[1:]
    # Blank lines past the m rows trail; the rows of a 0-column stencil are blank.
    while len(body) > m and not body[-1].strip():
        body.pop()
    if len(body) != m:
        raise RaggedRowError(f"expected {m} rows, got {len(body)}")
    masks = []
    for line in body:
        if len(line) != n:
            raise RaggedRowError(f"row {line!r} does not have {n} characters")
        mask = 0
        for j, ch in enumerate(line):
            if ch not in _GRID_CHARS:
                raise IllegalCharacterError(f"illegal character {ch!r} (only '*' and '0')")
            if _GRID_CHARS[ch]:
                mask |= 1 << j
        masks.append(mask)
    return Stencil.from_rows(masks, n)


def to_grid(H: Stencil) -> str:
    """Canonical .stn text.  Labels are not representable in this format."""
    lines = [f"stencil {H.m} {H.n}"]
    for mask in H.rows:
        lines.append("".join("*" if mask >> j & 1 else "0" for j in range(H.n)))
    return "\n".join(lines) + "\n"


def to_json_doc(H: Stencil) -> dict:
    return {
        "rows": H.m,
        "cols": H.n,
        "row_labels": [list(lab) for lab in H.row_labels],
        "col_labels": [list(lab) for lab in H.col_labels],
        "stars": [[i, j] for i, j in H.stars()],
    }


def stencil_from_json_doc(doc: dict) -> Stencil:
    if not isinstance(doc, dict):
        raise MalformedHeaderError("JSON stencil must be an object")
    m, n = doc.get("rows"), doc.get("cols")
    if not (is_json_int(m) and is_json_int(n) and m >= 0 and n >= 0):
        raise MalformedHeaderError("JSON rows and cols must be nonnegative integers")
    for key, count in (("row_labels", m), ("col_labels", n)):
        labels = doc.get(key)
        if labels is not None and not (
            isinstance(labels, list) and len(labels) == count and all(map(is_json_int_list, labels))
        ):
            raise ParseError(f"JSON {key} must be a list of {count} integer lists")
    stars = doc.get("stars", [])
    if not isinstance(stars, list):
        raise ParseError("JSON stars must be a list of [row, col] pairs")
    masks = [0] * m
    for entry in stars:
        if not (is_json_int_list(entry) and len(entry) == 2):
            raise ParseError(f"star {entry!r} is not a [row, col] pair of integers")
        i, j = entry
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(f"star ({i},{j}) out of range")
        masks[i - 1] |= 1 << (j - 1)
    return Stencil.from_rows(masks, n, doc.get("row_labels"), doc.get("col_labels"))


def write_stencil(H: Stencil, path: str) -> None:
    """Write .json (labeled) or .stn (grid, labels dropped) based on extension."""
    if path.endswith(".json"):
        data = json.dumps(to_json_doc(H), indent=None)
    else:
        data = to_grid(H)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(data)


def read_stencil(path: str) -> Stencil:
    with open(path, "r", encoding="ascii") as fh:
        return parse_stencil(fh.read())
