"""Vertex-weighted trees with an explicit rotation system.

A tree here is more than an adjacency structure: the neighbor lists are
ordered, and that order is the (clockwise) rotation used to build the
closed walk the subtree search slides over.  Two trees with the same edges
but different neighbor orders are different inputs on purpose.

Vertices are dense integers 0..n-1.  Weights are integers >= 1; a weight
of zero would let windows change vertex content without changing weight,
which breaks the search's accounting, so zero is rejected at construction.

Trees are int64 arrays in compressed sparse row (CSR) form, which the
tree, its closed walk and the search share: the dart (directed edge)
offsets[v] + i leaves v along edge i of its rotation, to that index of
neighbors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import FormatError, InstanceTooLargeError, NotATreeError, WeightError

# Totals are kept below 2**62 so results stay inside machine-integer range
# for any port of this code to fixed-width languages.
MAX_TOTAL_WEIGHT = 1 << 62

# An exhaustive oracle run is refused above this many table cells.
ORACLE_CELL_BOUND = 10**8


def _first_non_int(values, lo, hi) -> int | None:
    """Index of the first entry of values that is not an integer in
    [lo, hi), or None.  Integer arrays and numpy integer scalars count as
    integers; bool, numpy bool and float do not."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        bad = np.flatnonzero((values < lo) | (values >= hi))
    elif set(map(type, values)) <= {int} and (
            not len(values) or lo <= min(values) and max(values) < hi):
        return None
    else:
        bad = [i for i, x in enumerate(values)
               if isinstance(x, bool) or not isinstance(x, (int, np.integer))
               or not lo <= x < hi]
    return int(bad[0]) if len(bad) else None


def _check_int(what: str, value, lo=-np.inf) -> int:
    """value as an int; ValueError unless it is an integer (as
    _first_non_int reads it) >= lo."""
    if type(value) is not int and _first_non_int((value,), -np.inf, np.inf) is not None:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{what} must be >= {lo}, got {value}")
    return int(value)


def _weight_array(weights) -> np.ndarray:
    bad = _first_non_int(weights, 1, MAX_TOTAL_WEIGHT)
    if bad is not None:
        raise WeightError(
            f"vertex {bad}: weight {weights[bad]!r} is not an integer in [1, 2**62)"
        )
    return np.array(weights, dtype=np.int64)


class _Rotation:
    """A rotation system in CSR form: read-only int64 offsets (n + 1
    entries) and neighbors (one head per dart), vertex v's neighbors in
    rotation order being neighbors[offsets[v]:offsets[v + 1]]."""

    __slots__ = ("offsets", "neighbors")

    @property
    def n_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex neighbor tuples in rotation order, built on each access."""
        return _csr_rows(self.offsets, self.neighbors)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])


class WeightedTree(_Rotation):
    """Vertex-weighted tree in CSR form.

    weights (each >= 1), offsets (n + 1 entries) and neighbors (2(n - 1)
    dart heads) are read-only int64 arrays: vertex v's neighbors in
    rotation order are neighbors[offsets[v]:offsets[v + 1]].  total_weight
    and max_weight are ints.  WeightedTree(weights, adjacency) takes
    sequences, numpy integers included; bool and float weights are refused.
    Building a tree walks it once, which proves it connected: the darts
    are paired by one sort and the walk from dart 0 is list-ranked.  The
    tree keeps that walk for euler.build_euler_cycle and the walk's
    next-visit gaps for euler.find_subtree, which only reads them.
    """

    __slots__ = ("weights", "total_weight", "max_weight", "_stops", "_gaps")

    def __init__(self, weights, adjacency) -> None:
        weights = _weight_array(weights)
        n = len(weights)
        if len(adjacency) != n:
            raise NotATreeError(f"{n} weights but {len(adjacency)} adjacency rows")
        _csr_tree(weights, *_csr(adjacency, NotATreeError), self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedTree):
            return NotImplemented
        return all(np.array_equal(getattr(self, a), getattr(other, a))
                   for a in ("weights", "offsets", "neighbors"))

    def __repr__(self) -> str:
        return f"WeightedTree({self.weights.tolist()}, {self.adjacency})"


def _csr(rows, error_cls) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets and neighbors of a sequence of neighbor rows; raises
    error_cls for the first neighbor that is not a vertex id."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    flat = list(chain.from_iterable(rows))
    bad = _first_non_int(flat, 0, len(rows))
    if bad is not None:
        v = int(np.searchsorted(offsets, bad, "right")) - 1
        raise error_cls(f"vertex {v}: neighbor {flat[bad]!r} out of range")
    return offsets, np.array(flat, dtype=np.int64)


def _csr_rows(offsets, neighbors) -> tuple[tuple[int, ...], ...]:
    """The neighbor rows of CSR arrays, as tuples of ints."""
    nbrs, off = neighbors.tolist(), offsets.tolist()
    return tuple(tuple(nbrs[a:b]) for a, b in zip(off, off[1:]))


def _csr_tree(weights, offsets, neighbors, tree=None) -> WeightedTree:
    """Validate int64 CSR arrays as a tree and walk it; the arrays and the
    walk go into tree, a new WeightedTree unless given."""
    totals = _totals(weights)
    n = len(weights)
    successor = _successor(offsets, neighbors,
                           _pair_darts(offsets, neighbors, NotATreeError))
    if len(neighbors) != 2 * (n - 1):
        raise NotATreeError(
            f"{len(neighbors) // 2} edges for {n} vertices; a tree has {n - 1}")
    # The walk is the orbit of dart 0 under successor.  With n - 1 edges
    # and no isolated vertex, the graph is a tree iff it covers every dart.
    tour = _orbit_of_zero(successor)
    del successor
    degrees = np.diff(offsets)
    if tour is None or n > 1 and not degrees.all():
        raise NotATreeError("adjacency is disconnected")
    # The walk is closed, so each stop's vertex is the head of the dart
    # before it.
    return _store(tree, totals, weights, offsets, neighbors, neighbors[np.roll(tour, 1)], tour)


# List ranking (Anderson-Miller 1990): about one dart in 2**_RULER_BITS is
# a ruler, and once fewer than _ROUND_WALKERS walkers are left they step
# one at a time, so below about _ROUND_WALKERS * 2**_RULER_BITS darts no
# round runs.  On random trees 6 ruler bits were the fastest of 5 to 8 at
# 3 * 10**5 vertices and below (7 were 10% faster at 10**6), and 64, 128
# or 256 walkers timed alike.
_RULER_BITS = 6
_ROUND_WALKERS = 128


def _is_ruler(darts) -> np.ndarray:
    """Whether each of darts is a ruler: each dart whose multiplicative
    (Fibonacci) hash has its top _RULER_BITS bits clear, dart 0 among
    them, by a rule that no numbering of the darts lines up with a walk."""
    hashed = darts.astype(np.uint32) * np.uint32(0x9E3779B9)
    return hashed < np.uint32(1 << 32 - _RULER_BITS)


def _orbit_of_zero(successor) -> np.ndarray | None:
    """The orbit of dart 0 under the permutation successor, as int32
    darts in walk order; None unless it holds every dart.  Overwrites
    successor.

    The orbit is list-ranked.  From each ruler a walker steps to the next
    ruler, all walkers at once in whole-array rounds; then the rulers are
    chained from dart 0, which gives each stretch between two rulers its
    place in the walk.  successor marks each step onto a ruler by adding
    length, so a walker stops where its dart leaves the range."""
    length = len(successor)
    marked = _is_ruler(successor)
    heads = np.sort(successor[marked])  # successor is a permutation
    successor[marked] += length
    del marked
    walkers = np.arange(len(heads), dtype=np.int32)
    ends = np.empty(len(heads), dtype=np.int64)  # the ruler each walker stops at
    sizes = np.empty(len(heads), dtype=np.int64)  # and how many darts it took
    # Each round's darts and their walkers, one round after another in
    # seen[bounds[r]:bounds[r + 1]] and by[...]; then the last walkers' darts.
    seen, by = np.empty(length + 1, dtype=np.int32), np.empty(length, dtype=np.int32)
    seen[:len(heads)], by[:len(heads)], bounds = heads, walkers, [0, len(heads)]
    darts = successor[heads]
    while len(darts) >= _ROUND_WALKERS:
        stop = darts >= length
        done = walkers[stop]
        ends[done], sizes[done] = darts[stop] - length, len(bounds) - 1
        darts, walkers = darts[~stop], walkers[~stop]
        at = bounds[-1] + len(darts)
        seen[bounds[-1]:at], by[bounds[-1]:at] = darts, walkers
        bounds.append(at)
        darts = successor[darts]
    # The last walkers step one at a time; a walker is done when its
    # dart, a marked ruler, fails to index.
    rounds, at = len(bounds) - 1, bounds[-1]
    out, succ, i, counts = memoryview(seen), memoryview(successor), at, []
    for w, d in zip(walkers.tolist(), darts.tolist()):
        first = i
        try:
            for i in range(first, length + 1):
                out[i] = d
                d = succ[d]
        except IndexError:
            ends[w], sizes[w] = d - length, rounds + i - first
            counts.append(i - first)
    del out, succ

    following, sizes = np.searchsorted(heads, ends).tolist(), sizes.tolist()
    starts, total, w = [0] * len(sizes), 0, 0
    for _ in sizes:  # each ruler of the orbit once, from dart 0 (none if no darts)
        starts[w] = total
        total += sizes[w]
        w = following[w]
        if not w:
            break
    if total < length:
        return None
    tour, starts = np.empty(length, dtype=np.int32), np.array(starts, dtype=np.int64)
    for step in range(rounds):
        a, b = bounds[step], bounds[step + 1]
        tour[starts[by[a:b]] + step] = seen[a:b]
    counts = np.array(counts, dtype=np.int64)
    begin = starts[walkers] + rounds - at - np.cumsum(counts) + counts
    tour[np.repeat(begin, counts) + np.arange(at, i)] = seen[at:i]
    return tour


def _totals(weights) -> tuple[int, int]:
    """The total and the largest of a tree's weights."""
    if len(weights) == 0:
        raise NotATreeError("a tree needs at least one vertex")
    heaviest = int(weights.max())
    # The int64 sum cannot overflow below this bound; above it, sum exactly.
    total = (int(weights.sum()) if heaviest * len(weights) < 1 << 63
             else sum(weights.tolist()))
    if total >= MAX_TOTAL_WEIGHT:
        raise WeightError(f"total weight {total} exceeds 2**62")
    return total, heaviest


def _store(tree, totals, weights, offsets, neighbors, stops, darts) -> WeightedTree:
    """Fill tree (a new WeightedTree if None) with a validated tree's
    totals, its CSR arrays, its walk (the vertex of each stop, int64) and
    the walk's next-visit gaps, built from darts (the dart each stop
    takes), the arrays made read-only."""
    tree = WeightedTree.__new__(WeightedTree) if tree is None else tree
    tree.total_weight, tree.max_weight = totals
    for name, array in (("weights", weights), ("offsets", offsets), ("neighbors", neighbors),
                        ("_stops", stops), ("_gaps", _next_visit_gaps(darts, offsets))):
        array.flags.writeable = False
        setattr(tree, name, array)
    return tree


def _next_visit_gaps(darts, offsets) -> np.ndarray:
    """The next-visit gaps of the walk that takes darts, shifted by one
    stop, as an int32 array: gaps[i + 1] is how many stops after stop i
    its vertex is visited again (the walk's length for a leaf), and
    gaps[0] repeats gaps[length], the last stop's (0 for an empty walk).
    A chunk of stops thus reads its own gaps and those of the stops
    before it as slices.

    A vertex's darts are taken in rotation order, so the visit after the
    stop that takes dart d is the stop that takes the dart after d in the
    rotation."""
    length = len(darts)
    if not length:  # a single vertex
        return np.zeros(1, dtype=np.int32)
    at = np.empty(length + 1, dtype=np.int32)  # 1 + the stop taking each dart
    at[darts] = np.arange(1, length + 1, dtype=np.int32)
    gap = at[1:] - at[:-1]  # in dart order
    last = offsets[1:] - 1  # each vertex's last dart turns to its first
    gap[last] = at[offsets[:-1]] - at[last]
    gap += (gap <= 0) * np.int32(length)
    gaps = np.empty(length + 1, dtype=np.int32)
    gaps[at[:-1]] = gap
    gaps[0] = gaps[length]
    return gaps


def _tails(offsets) -> np.ndarray:
    """The vertex each dart leaves from."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


def _successor(offsets, neighbors, reverse) -> np.ndarray:
    """The face-walk successor of each dart d, the dart after reverse(d) in
    its vertex's rotation; its orbits are the faces (a tree has one, its
    closed walk).  Overwrites reverse with the result."""
    reverse += 1
    wrap = reverse == offsets[neighbors + 1]
    reverse[wrap] = offsets[neighbors[wrap]]
    return reverse


def _pair_darts(offsets, neighbors, error_cls) -> np.ndarray:
    """Check that CSR neighbor lists describe a simple undirected graph:
    ids in range, no self loops or duplicate neighbors, and every edge
    listed by both endpoints.  Returns reverse, where reverse[d] is the
    dart opposite dart d; raises error_cls.

    Sorting the darts by the keys min * n + max, ties in dart order, does
    it all: both darts of an edge share a key, so a valid graph sorts into
    pairs of equal keys with different tails.  Where key << bits | dart
    fits in int64, one plain sort of those packed ints gives that order;
    past that, a stable argsort of the keys does it."""
    n = len(offsets) - 1
    tails = _tails(offsets)
    bad = np.flatnonzero((neighbors < 0) | (neighbors >= n) | (neighbors == tails))
    if bad.size:
        v, u = int(tails[bad[0]]), int(neighbors[bad[0]])
        raise error_cls(f"vertex {v}: self loop" if u == v
                        else f"vertex {v}: neighbor {u} out of range")
    keys = np.minimum(tails, neighbors)
    keys *= n
    keys += np.maximum(tails, neighbors)
    bits = len(keys).bit_length()
    if n * n << bits < 1 << 63:
        keys <<= bits
        keys |= np.arange(len(keys))
        keys.sort()
        order = keys & (1 << bits) - 1
        keys >>= bits
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    tails = tails[order]
    same = keys[1:] == keys[:-1]
    dup = same & (tails[1:] == tails[:-1])
    if dup.any():
        raise error_cls(f"vertex {tails[1:][dup].min()}: duplicate neighbor")
    single = np.ones(len(keys), dtype=bool)
    single[1:] &= ~same
    single[:-1] &= ~same
    if single.any():
        a, b = divmod(int(keys[single][0]), n)
        raise error_cls(f"edge {(a, b)} is not listed by both endpoints")
    reverse = np.empty_like(order)
    reverse[order[0::2]] = order[1::2]
    reverse[order[1::2]] = order[0::2]
    return reverse


def _spans_subtree(tree: WeightedTree, vertices: np.ndarray) -> bool:
    """Whether distinct in-range vertices induce a connected subgraph of
    the tree: in a forest, k vertices are connected iff they span k - 1
    edges."""
    inside = np.zeros(tree.n_vertices, dtype=bool)
    inside[vertices] = True
    tails = np.repeat(inside, np.diff(tree.offsets))
    return int(np.count_nonzero(inside[tree.neighbors] & tails)) == 2 * (len(vertices) - 1)


def path_tree(weights) -> WeightedTree:
    """Path with the given weights, vertex i adjacent to i-1 and i+1.

    Its walk is known in closed form: stops 0, 1, ..., n-1, n-2, ..., 1,
    out along the darts 0, 2, ..., 2n-4 (vertex i to i + 1) and back along
    2n-3, 2n-5, ..., 1 (vertex i to i - 1)."""
    weights = _weight_array(weights)
    totals = _totals(weights)
    n = len(weights)
    darts = np.arange(2 * n - 2, dtype=np.int64)
    offsets = np.clip(2 * np.arange(n + 1) - 1, 0, len(darts))
    stops = n - 1 - np.abs(darts - (n - 1))
    return _store(None, totals, weights, offsets, darts // 2 + 1 - darts % 2,
                  stops, (2 * stops - (darts >= n - 1)).astype(np.int32))


def star_tree(center_weight: int, leaf_weights) -> WeightedTree:
    """Star with center vertex 0 and leaves 1..len(leaf_weights)."""
    n = len(leaf_weights) + 1
    adjacency = [tuple(range(1, n))] + [(0,)] * (n - 1)
    return WeightedTree((center_weight, *leaf_weights), tuple(adjacency))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
#   tree <n>
#   <v>: <weight>: <neighbor> <neighbor> ...
#
# one line per vertex, neighbors in rotation order, '#' starts a comment.

_COMMENT = re.compile(r"#[^\n]*")
_SPACE = re.compile(r"\s*")

# Byte classes of the array reader, as a bytes.translate table.
_END, _COLON, _BLANK, _DIGIT, _SIGN, _OTHER = range(6)
_CLASS_OF = bytearray([_OTHER]) * 256
for _chars, _class in ((b"\n", _END), (b":", _COLON), (b" \t", _BLANK),
                       (b"0123456789", _DIGIT), (b"+-", _SIGN)):
    for _byte in _chars:
        _CLASS_OF[_byte] = _class
_CLASS_OF = bytes(_CLASS_OF)


def _read_header(text: str, keyword: str, min_n: int):
    """Parse the '<keyword> <n>' header, the first content line of an
    instance file.  Returns n, the header's line number, the text with
    comments blanked and '\\n' as its only line break (so line numbers
    keep), and where the line after the header starts in it."""
    if any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"):
        text = "\n".join(text.splitlines())
    if "#" in text:
        text = _COMMENT.sub("", text)
    start = _SPACE.match(text).end()
    if start == len(text):
        raise FormatError("empty input")
    lineno = text.count("\n", 0, start) + 1
    end = text.find("\n", start)
    end = len(text) if end < 0 else end
    header = text[start:end].strip()
    parts = header.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(f"expected '{keyword} <n>' header, got {header!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(f"bad vertex count {parts[1]!r}", lineno) from None
    if n < min_n:
        raise FormatError(f"vertex count must be >= {min_n}, got {n}", lineno)
    return n, lineno, text, end + 1


def _canonical(line: str) -> str:
    """line with each field that int() reads written as plain ASCII digits,
    so that '1_0', non-ASCII digits and Unicode spaces mean what they mean
    to int() and str.split(); a line int() refuses is returned unchanged."""
    *lead, nbrs = line.strip().split(":")
    try:
        return ":".join([str(int(f)) for f in lead]
                        + [" ".join(str(int(tok)) for tok in nbrs.split())])
    except ValueError:
        return line


def _read_rows(text: str, start: int, lineno: int, n: int, lead: int, usage: str):
    """Parse the vertex lines in text[start:], which follow line lineno.

    Each content line is '<v>: ...: <neighbors>' with lead integer fields
    before the neighbors (the second, a tree's weight, must be >= 1), and
    each v in 0..n-1 has one line.  Raises FormatError for the first bad
    line, as a line-by-line reader would, then for the first vertex
    without a line.  Returns the lead fields as an (n, lead) array and the
    CSR offsets and neighbors, all in vertex order.

    The checks run on whole arrays: tokens are the runs of bytes between
    blanks, colons and line ends, and numpy reads them once each is known
    to be an optionally signed run of ASCII digits.  Each intermediate
    array is dropped once used, to keep the peak memory down."""
    raw = (text[start:] + "\n").encode()
    classes = raw.translate(_CLASS_OF)
    if bytes([_OTHER]) in classes:
        raw = ("\n".join(map(_canonical, text[start:].split("\n"))) + "\n").encode()
        classes = raw.translate(_CLASS_OF)
    kind = np.frombuffer(classes, dtype=np.uint8)
    ends = np.flatnonzero(kind == _END)

    def per_line(positions):
        return np.diff(np.searchsorted(positions, ends), prepend=0)

    starts = kind > _BLANK
    starts[1:] &= kind[:-1] <= _BLANK  # the first byte of each token
    # Junk: a byte no integer has, or a sign that does not start a token
    # or is not followed by a digit.
    sign = np.flatnonzero(kind == _SIGN)
    sign = sign[~starts[sign] | (kind[sign + 1] != _DIGIT)]
    junk = per_line(np.sort(np.r_[np.flatnonzero(kind == _OTHER), sign]))
    colon_at = np.flatnonzero(kind == _COLON)
    del classes, kind, sign
    starts = np.flatnonzero(starts)
    colons = per_line(colon_at)
    before = np.searchsorted(starts, ends)  # tokens before each line end
    tokens = np.diff(before, prepend=0)
    # Tokens before each colon, plus a spare entry that keeps the gather
    # below in bounds; each lead field holds exactly one token.
    at_colon = np.append(np.searchsorted(starts, colon_at), 0)
    del starts, colon_at
    lines = np.flatnonzero(colons + tokens)  # the content lines
    count = len(lines)
    first_colon = (np.cumsum(colons) - colons)[lines, None] + np.arange(lead)
    bounds = np.c_[(before - tokens)[lines],
                   at_colon[np.minimum(first_colon, len(at_colon) - 1)]]
    bad = np.flatnonzero((colons[lines] != lead) | (junk[lines] > 0)
                         | (np.diff(bounds, axis=1) != 1).any(axis=1))
    cut = int(bad[0]) if len(bad) else count  # lines before cut read cleanly
    del before, at_colon, first_colon, bounds, junk

    tokens = tokens[lines[:cut]]
    values = np.fromstring(raw.replace(b":", b" "), dtype=np.int64,
                           count=int(tokens.sum()), sep=" ")
    huge = np.flatnonzero((values >= 10**18) | (values <= -10**18))
    if len(huge):  # numpy saturates beyond int64, not always with the sign
        words = raw.replace(b":", b" ").split()
        for i in huge:
            try:
                values[i] = max(-MAX_TOTAL_WEIGHT, min(int(words[i]), MAX_TOTAL_WEIGHT))
            except ValueError:  # more digits than int() reads
                line = lines[np.searchsorted(np.cumsum(tokens), i, "right")]
                raise FormatError("integer token too long", lineno + 1 + int(line)) from None
    at_lead = (np.cumsum(tokens) - tokens)[:, None] + np.arange(lead)
    fields = values[at_lead]
    v = fields[:, 0]
    order = np.argsort(v, kind="stable")
    twice = np.zeros(cut, dtype=bool)
    twice[order[1:]] = v[order[1:]] == v[order[:-1]]
    outside = (v < 0) | (v >= n)
    light = fields[:, -1] < 1 if lead == 2 else np.zeros(cut, dtype=bool)
    late = np.flatnonzero(outside | twice | light)
    if len(late):
        i = int(late[0])
        msg = (f"vertex id {v[i]} out of range 0..{n - 1}" if outside[i]
               else f"vertex {v[i]} defined twice" if twice[i]
               else f"vertex {v[i]}: weight must be >= 1, got {fields[i, 1]}")
        raise FormatError(msg, lineno + 1 + int(lines[i]))
    if cut < count:
        end = int(ends[lines[cut]])
        line = raw[raw.rfind(b"\n", 0, end) + 1:end].decode().strip()
        msg = (f"expected {usage!r}" if colons[lines[cut]] != lead
               else f"non-integer token in {line!r}")
        raise FormatError(msg, lineno + 1 + int(lines[cut]))
    if count < n:  # the first gap in the sorted ids; n may be huge
        gaps = np.flatnonzero(v[order] != np.arange(count))
        raise FormatError(f"no line for vertex {gaps[0] if len(gaps) else count}")

    keep = np.ones(len(values), dtype=bool)
    keep[at_lead] = False
    neighbors, degrees = values[keep], tokens - lead
    del raw, values, keep, at_lead
    if (v != np.arange(n)).any():  # put the lines in vertex order
        neighbors = neighbors[np.argsort(np.repeat(v, degrees), kind="stable")]
        fields, degrees = fields[order], degrees[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return fields, offsets, neighbors


def parse_tree(text: str) -> WeightedTree:
    """Parse the tree file format; raises FormatError with a line number."""
    n, lineno, text, start = _read_header(text, "tree", 1)
    fields, offsets, neighbors = _read_rows(
        text, start, lineno, n, 2, "<v>: <weight>: <neighbors>")
    return _csr_tree(fields[:, 1].copy(), offsets, neighbors)


def serialize_tree(tree: WeightedTree) -> str:
    out = [f"tree {tree.n_vertices}\n"]
    # In blocks of vertices, so that no per-vertex object outlives its block.
    for lo in range(0, tree.n_vertices, 1 << 16):
        hi = min(lo + (1 << 16), tree.n_vertices)
        off = (tree.offsets[lo:hi + 1] - tree.offsets[lo]).tolist()
        nbrs = tree.neighbors[tree.offsets[lo]:tree.offsets[hi]].tolist()
        out.append("".join(
            f"{v}: {w}: {' '.join(map(str, nbrs[a:b]))}".rstrip() + "\n"
            for v, w, a, b in zip(range(lo, hi), tree.weights[lo:hi].tolist(), off, off[1:])))
    return "".join(out)


# ---------------------------------------------------------------------------
# Search window conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Target weight k, slack g, the totals they are checked against, and
    which sufficient conditions for guaranteed search success hold.

    The search finds a subtree with weight in [k-g+1, k] whenever all five
    flags are true.  Each flag false leaves the guarantee void, but the
    search is still run and may succeed anyway.
    """

    k: int
    g: int
    n2: int  # total vertex weight
    h: int  # 2 * n_vertices - n2 (can be negative)
    range_ok: bool  # 1 <= k <= n2
    slack_ok: bool  # g + h > 2
    lower_ok: bool  # 2k - 4g - h + 3 <= n2
    upper_ok: bool  # n2 <= 2k + g + h - 2
    cap_ok: bool  # every vertex weight <= k

    @property
    def overall(self) -> bool:
        return all(self.flags().values())

    def flags(self) -> dict[str, bool]:
        """The five flags by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name.endswith("_ok")}


def check_conditions(tree: WeightedTree, k: int, g: int) -> ConditionReport:
    """Evaluate the five sufficient conditions for the window search."""
    k = _check_int("target k", k)
    g = _check_int("slack g", g, 1)
    n2 = tree.total_weight
    h = 2 * tree.n_vertices - n2
    return ConditionReport(
        k=k, g=g, n2=n2, h=h,
        range_ok=1 <= k <= n2,
        slack_ok=g + h > 2,
        lower_ok=2 * k - 4 * g - h + 3 <= n2,
        upper_ok=n2 <= 2 * k + g + h - 2,
        cap_ok=tree.max_weight <= k,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def achievable_subtree_weights(tree: WeightedTree) -> frozenset[int]:
    """Every weight realized by some connected subgraph, by exhaustive DP.

    For each vertex v (rooted at 0), combine the weight sets of subtrees
    hanging below v that contain v; the answer is the union over all v.
    Weight sets are bitmask integers, so merging a child is a handful of
    shifts.  Deliberately simple and independent of the fast search; used
    to cross-check it.  Refuses instances whose n1 * n2 table would exceed
    ORACLE_CELL_BOUND.
    """
    n = tree.n_vertices
    if n * tree.total_weight > ORACLE_CELL_BOUND:
        raise InstanceTooLargeError(
            f"oracle table {n} * {tree.total_weight} exceeds {ORACLE_CELL_BOUND}"
        )
    adjacency = tree.adjacency
    weights = tree.weights.tolist()

    parent = [-1] * n
    order = [0]
    for v in order:  # grows while iterating: BFS order
        for u in adjacency[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)

    below = [0] * n  # bitmask of weights of subtrees containing v, within v's branch
    result = 0
    for v in reversed(order):
        mask = 1 << weights[v]
        for u in adjacency[v]:
            if parent[u] == v:
                child = below[u]
                combined = mask
                while child:
                    low = child & -child
                    combined |= mask << (low.bit_length() - 1)
                    child ^= low
                mask = combined
        below[v] = mask
        result |= mask

    out = set()
    while result:
        low = result & -result
        out.add(low.bit_length() - 1)
        result ^= low
    return frozenset(out)


# ---------------------------------------------------------------------------
# Tight families: for each, exactly one condition flag fails and no subtree
# has weight in [k-g+1, k], showing the flag cannot be dropped.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightInstance:
    tree: WeightedTree
    k: int
    g: int
    failing_flag: str


TIGHT_FAMILIES = ("star_gh", "path_lower", "path_upper", "star_cap")


def tight_instance(family: str, p: int, q: int | None = None) -> TightInstance:
    """Build a member of one of the four boundary families.

    star_gh(p):       star of order 2p, center weight 1, leaves weight 2;
                      k = 2p, g = 1; only the slack condition fails.
    path_lower(p, q): path of order p + 2q, the middle p vertices weight 1,
                      the rest weight 2; k = p + 2q + 1, g = 1; only the
                      lower bound fails (by exactly one).
    path_upper(p):    path of order 2p + 3, middle vertex weight p + 2
                      flanked by weight 2, the rest weight 1; k = p + 3,
                      g = 1; only the upper bound fails (by exactly one).
    star_cap(p, q):   star of order p + 1, center weight q + 1, leaves
                      weight 1, with 2 < q <= p; k = q, g = 2; only the
                      weight cap fails.
    """
    if p < 2:
        raise ValueError(f"family parameter p must be >= 2, got {p}")

    if family == "star_gh":
        tree = star_tree(1, (2,) * (2 * p - 1))
        return TightInstance(tree, k=2 * p, g=1, failing_flag="slack_ok")

    if family == "path_lower":
        if q is None or q < 1:
            raise ValueError("path_lower needs q >= 1")
        weights = [2] * q + [1] * p + [2] * q
        return TightInstance(path_tree(weights), k=p + 2 * q + 1, g=1,
                             failing_flag="lower_ok")

    if family == "path_upper":
        weights = [1] * (2 * p + 3)
        weights[p] = 2
        weights[p + 1] = p + 2
        weights[p + 2] = 2
        return TightInstance(path_tree(weights), k=p + 3, g=1,
                             failing_flag="upper_ok")

    if family == "star_cap":
        if q is None or not 2 < q <= p:
            # q = p + 1 would also kill the slack condition; keep q <= p so
            # the cap is the single failing flag.
            raise ValueError("star_cap needs 2 < q <= p")
        tree = star_tree(q + 1, (1,) * p)
        return TightInstance(tree, k=q, g=2, failing_flag="cap_ok")

    raise ValueError(f"unknown family {family!r}; choose from {TIGHT_FAMILIES}")
