"""Direct solve of the Newton matrices by block elimination.

The unknowns live on the row-major ni x nj node grid, and every residual
reads a 3 x 3 window of it (``_stencil_windows``), which fixes the matrix
pattern (``_grid_pattern``).  The grid is cut by nested dissection (George,
SIAM J. Numer. Anal. 10, 1973) into a tree of rectangles, and the matrix is
eliminated along that tree with dense fronts: the multifrontal method (Duff &
Reid, ACM TOMS 9, 1983) on numpy's LAPACK.  ``Elimination`` plans the solve of
one matrix pattern once; ``NewtonMatrix`` carries a matrix's values on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

#: leaves of the dissection tree hold at most this many nodes; from 16 up, no
#: cut falls on a grid line next to an edge (see Elimination)
_LEAF_NODES = 16
#: a stack of fronts is assembled and eliminated in batches of at most this
#: many doubles of front, or of one front, so that a solve's working storage
#: stays small beside the fronts Y it keeps
_BATCH_DOUBLES = 2**16


def _stencil_windows(n: int) -> np.ndarray:
    """The 3 consecutive grid lines that each of n lines' derivative stencils
    read, one row per line: centred inside, one-sided at the two ends."""
    return np.clip(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(3)


def _grid_pattern(ni: int, nj: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every entry of the ni x nj grid's 9-point matrix,
    in (i, j, a, b) order: residual (i, j) reads the unknowns in the rows
    ``_stencil_windows(ni)[i]`` x the columns ``_stencil_windows(nj)[j]``."""
    rw, tw = _stencil_windows(ni), _stencil_windows(nj)
    cols = rw[:, None, :, None] * nj + tw[None, :, None, :]
    return np.arange(ni * nj).repeat(9), cols.ravel()


def _dissection_tree(ni: int, nj: int) -> np.ndarray:
    """Nested dissection of the row-major ni x nj node grid.

    One row per tree node, by depth: ``r0, r1, c0, c1``, the rectangle of
    grid nodes in its subtree; ``o0, o1, p0, p1``, the rectangle of those it
    eliminates; its height above the leaves; its parent's row (-1 at the
    root).  A block is cut across its longer side by a
    one-node-wide separator line, which the node eliminates, and the two
    halves become its children, so eliminating a half fills in nothing
    outside it and the separator (George 1973).  Blocks of at most
    ``_LEAF_NODES`` nodes, or with a side shorter than 3, are leaves.
    """
    levels, spans = [], []  # the nodes one depth at a time, and their rows
    block, parent, start = np.array([[0, ni, 0, nj]]), np.array([-1]), 0
    while len(block):
        r0, r1, c0, c1 = block.T
        a, b = r1 - r0, c1 - c0
        cut = (a * b > _LEAF_NODES) & (np.minimum(a, b) >= 3)
        rows = a >= b  # the separator is a row line, else a column line
        k = np.where(rows, r0 + a // 2, c0 + b // 2)
        line = np.where(rows, [k, k + 1, c0, c1], [r0, r1, k, k + 1])
        first = np.where(rows, [r0, k, c0, c1], [r0, r1, c0, k])
        second = np.where(rows, [k + 1, r1, c0, c1], [r0, r1, k + 1, c1])
        levels.append(np.vstack([block.T, np.where(cut, line, block.T), parent]).T)
        spans.append((start, start + len(block)))
        ids = start + np.flatnonzero(cut)
        block, parent = np.hstack([first[:, cut], second[:, cut]]).T, np.concatenate([ids, ids])
        start += len(cut)
    tree = np.vstack(levels)
    height = np.zeros(len(tree), dtype=tree.dtype)
    for lo, hi in spans[:0:-1]:  # children raise their parents, deepest first
        np.maximum.at(height, tree[lo:hi, 8], height[lo:hi] + 1)
    return np.column_stack([tree[:, :8], height, tree[:, 8]])


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Item and index within it of every slot, for items holding ``counts``
    slots one after another; the indices take the dtype of ``counts``."""
    item = np.repeat(np.arange(counts.size), counts)
    at = np.cumsum(counts, dtype=counts.dtype) - counts
    return item, np.arange(item.size, dtype=counts.dtype) - at[item]


def _rect_nodes(rects: np.ndarray, nj: int) -> np.ndarray:
    """The nodes of the rectangles ``(r0, r1, c0, c1)``, each row-major, one
    rectangle after another."""
    r0, r1, c0, c1 = rects.T
    w = c1 - c0
    t, q = _ragged((r1 - r0) * w)
    return (r0[t] + q // w[t]) * nj + c0[t] + q % w[t]


def _dissection_order(ni: int, nj: int) -> np.ndarray:
    """The unknowns of the ni x nj node grid in an order the block
    elimination can remove them: each tree node's own set, by height."""
    tree = _dissection_tree(ni, nj)
    return _rect_nodes(tree[np.argsort(tree[:, 8], kind="stable"), 4:8], nj)


@dataclass(frozen=True, eq=False)
class _Batch:
    """Fronts ``part`` of a stack, eliminated together in one block."""

    part: slice
    sel: np.ndarray  # which matrix values are assembled here
    dst: np.ndarray  # and where, in the flattened (fronts, N, N+1) block
    # extend-adds of child Schur complements: (child stack, its fronts,
    # flattened offsets of their rows here, their columns here)
    updates: list = dc_field(default_factory=list)


@dataclass(frozen=True, eq=False)
class _Stack:
    """Fronts of one tree height and one shape, eliminated in batches.

    Front g eliminates the unknowns ``own[g]`` given their boundary
    ``bnd[g]`` in ancestor separators.  It is an N x (N+1) block, N = o + b,
    whose rows and columns follow ``own`` then ``bnd`` and whose last column
    is the right-hand side.  The fronts are assembled in ``batches`` of at
    most ``_BATCH_DOUBLES`` doubles each, or of one front.
    """

    own: np.ndarray  # (G, o)
    bnd: np.ndarray  # (G, b)
    batches: list
    done: list = dc_field(default_factory=list)  # child stacks used up here


class Elimination:
    """Direct solve of one matrix pattern by block elimination along the
    nested-dissection tree of the node grid: the multifrontal method (Duff &
    Reid 1983) with dense fronts.

    The pattern is the grid's 9-point pattern, the one pattern of a mesh: the
    solver grounds a pinned (pure Neumann) Newton matrix on it.  Each
    subtree's domain is a rectangle of the grid, so its boundary is the
    one-node ring around it: no cut falls on the second or second-to-last
    grid line, so the one-sided end stencils, which reach two lines in, stay
    inside a block or on its separator.  The plan keeps only 1-D position
    maps, and its constructor checks that every matrix entry and every Schur
    complement entry has a place.  It works in int32 and keeps its maps as
    numpy's index type, which indexes fastest.
    """

    def __init__(self, shape: tuple[int, int]):
        ni, nj = self.shape = shape
        self.size = size = ni * nj
        tree = _dissection_tree(ni, nj)
        r0, r1, c0, c1 = tree[:, :4].T
        ring = np.column_stack(  # the block grown by one node where the grid allows
            [np.maximum(r0 - 1, 0), np.minimum(r1 + 1, ni),
             np.maximum(c0 - 1, 0), np.minimum(c1 + 1, nj)]
        )

        def area(rects):
            return (rects[:, 1] - rects[:, 0]) * (rects[:, 3] - rects[:, 2])

        o = area(tree[:, 4:8])
        b = area(ring) - area(tree[:, :4])
        # fronts of one height and shape form a stack; stacks go by height
        # (the key is int64: it passes 2**31 from a 128 x 128 grid)
        _, stack = np.unique((tree[:, 8] * (size + 1) + o) * (size + 1) + b, return_inverse=True)
        # within a stack, fronts go by their parent's stack, then by their
        # parent's place, so that the children of one batch of parents are
        # adjacent; siblings keep their order, and with it every sum
        height, up = tree[:, 8], tree[:, 9]
        seat, levels = np.zeros(len(tree), dtype=np.intp), []
        for h in range(height[0], -1, -1):  # the root, row 0, is highest
            ids = np.flatnonzero(height == h)
            ids = ids[np.lexsort((seat[up[ids]], stack[up[ids]], stack[ids]))]
            seat[ids] = np.arange(ids.size)
            levels.append(ids)
        rank = np.concatenate(levels[::-1])
        i4 = np.int32
        tree, ring, o, b, stack = (a[rank].astype(i4) for a in (tree, ring, o, b, stack))
        parent = np.append(np.argsort(rank), -1)[tree[:, 9]]
        starts = np.searchsorted(stack, np.arange(stack[-1] + 2))
        local = np.arange(rank.size) - starts[stack]
        N = o + b

        # a stack's fronts are eliminated in batches of at most _BATCH_DOUBLES
        # doubles, or of one front: per front, its batch and place there
        fronts, width = np.diff(starts), N[starts[:-1]].astype(np.int64)
        per = np.maximum(_BATCH_DOUBLES // (width * (width + 1)), 1)
        count = -(-fronts // per)
        batch = ((np.cumsum(count) - count)[stack] + local // per[stack]).astype(i4)
        slot = (local % per[stack]).astype(i4)

        # every front's unknowns, front after front: its own set row-major in
        # its rectangle, its boundary in node order
        own = _rect_nodes(tree[:, 4:8], nj)
        owner = np.empty(size, dtype=i4)  # the front eliminating each unknown
        where = np.empty(size, dtype=i4)  # and its row there
        owner[own], where[own] = _ragged(o)

        # the boundary is the ring less the block: the strips above, left of,
        # right of and below it.  Keyed by (front, unknown) and sorted once,
        # the boundary slots list each front's unknowns in node order
        (r0, r1, c0, c1), (e0, e1, d0, d1) = tree[:, :4].T, ring.T
        strips = np.array([[e0, r0, d0, d1], [r0, r1, d0, c0], [r0, r1, c1, d1], [r1, e1, d0, d1]])
        keys = np.repeat(np.arange(rank.size, dtype=np.int64) * size, b)
        keys += _rect_nodes(strips.transpose(2, 0, 1).reshape(-1, 4), nj)
        del strips
        keys.sort()
        bnd_at = np.cumsum(b, dtype=np.int64) - b

        def locate(t: np.ndarray, g: np.ndarray) -> np.ndarray:
            """Row of unknown g in front t, -1 if it has none.  In the
            boundary part, that is where the key of (t, g) is found."""
            pos = where[g]
            far = np.flatnonzero(owner[g] != t)
            t = t[far]
            key = t * np.int64(size) + g[far]  # int64: it passes 2**31 at 512 x 512
            k = np.searchsorted(keys, key)
            pos[far] = (keys.take(k, mode="clip") == key) * (o[t] + k - bnd_at[t] + 1) - 1
            return pos

        # a matrix entry belongs to the front that eliminates the first of its
        # two unknowns (an ancestor always comes later): its batch there, and
        # its offset in the flattened block
        rows, cols = _grid_pattern(ni, nj)
        front = np.minimum(owner[rows], owner[cols])
        r, c = locate(front, rows), locate(front, cols)
        del rows, cols
        if np.any(r < 0) or np.any(c < 0):
            raise AssertionError("matrix entry outside its front")
        m = N[front]
        into, flat = batch[front], (slot[front] * m + r) * (m + 1) + c
        del front, r, c, m
        # a stable sort of 8- or 16-bit keys is a radix sort
        sel = np.argsort(into.astype(np.min_scalar_type(batch[-1])), kind="stable")
        cuts = np.cumsum(np.bincount(into))[:-1]
        del into
        dst = flat[sel].astype(np.intp)
        del flat
        parts = [slice(k, min(k + p, g)) for g, p in zip(fronts, per) for k in range(0, g, p)]
        batches = [_Batch(*a) for a in zip(parts, np.split(sel, cuts), np.split(dst, cuts))]

        # each front's Schur complement is added into its parent's front: the
        # flattened offset of every boundary row there, and the columns,
        # closed by the right-hand side's
        slot_front, bnd = np.divmod(keys, size)
        dad = parent[slot_front]
        pos = locate(dad, bnd)
        if np.any(pos < 0):
            raise AssertionError("Schur complement entry outside the parent front")
        offsets = ((slot[dad] * N[dad] + pos) * (N[dad] + 1)).astype(np.intp)
        cols = np.insert(pos, (bnd_at + b)[:-1], N[parent[:-1]]).astype(np.intp)
        col_at = bnd_at + np.arange(rank.size)
        # the fronts of one stack whose parents share a batch are adjacent,
        # and are added in there together
        to = batch[parent[:-1]]
        run = np.flatnonzero((np.diff(stack[:-1], prepend=-1) != 0) | (np.diff(to, prepend=-1) != 0))
        for lo, hi in zip(run, np.append(run[1:], to.size)):
            g, k = hi - lo, lo - starts[stack[lo]]
            batches[to[lo]].updates.append((
                stack[lo],
                slice(k, k + g),
                offsets[bnd_at[lo] : bnd_at[lo] + g * b[lo]].reshape(g, -1),
                cols[col_at[lo] : col_at[lo] + g * (b[lo] + 1)].reshape(g, -1),
            ))
        own, bnd = own.astype(np.intp), bnd.astype(np.intp)
        own_at, first = np.cumsum(o, dtype=np.int64) - o, np.cumsum(count) - count
        self.stacks = [
            _Stack(
                own=own[own_at[lo] : own_at[lo] + (hi - lo) * o[lo]].reshape(hi - lo, -1),
                bnd=bnd[bnd_at[lo] : bnd_at[lo] + (hi - lo) * b[lo]].reshape(hi - lo, -1),
                batches=batches[f : f + c],
            )
            for lo, hi, f, c in zip(starts[:-1], starts[1:], first, count)
        ]
        last = np.zeros(len(self.stacks), dtype=int)
        np.maximum.at(last, stack[:-1], stack[parent[:-1]])
        for s, up in enumerate(last[:-1]):
            self.stacks[up].done.append(s)

    @property
    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of every matrix value, in storage order."""
        return _grid_pattern(*self.shape)

    @property
    def stored_entries(self) -> int:
        """Doubles kept from elimination to back substitution: every front's
        Y = F11^-1 [F12 | g], own x (bnd + 1) entries."""
        return sum(st.own.size * (st.bnd.shape[1] + 1) for st in self.stacks)

    def solve(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs, where A holds ``data`` on the pattern.

        Stacks go up the tree, each in its batches.  In each batch, one
        stacked LAPACK solve (partial pivoting inside each front) gives
        Y = F11^-1 [F12 | g] and one stacked product the Schur complement
        that the parents add in, written straight into the stack's.  Back
        substitution runs top down as x_own = Y_g - Y_12 x_bnd.  A singular
        front gives NaN, which stops the Newton iteration.
        """
        schur, ys = {}, []
        for s, st in enumerate(self.stacks):
            G, o = st.own.shape
            b = st.bnd.shape[1]
            N = o + b
            z = np.empty((G, b, b + 1))
            for bt in st.batches:
                F = np.zeros((bt.part.stop - bt.part.start, N, N + 1))
                flat = F.reshape(-1)
                flat[bt.dst] = data[bt.sel]
                F[:, :o, N] = rhs[st.own[bt.part]]
                for child, take, rows, cols in bt.updates:
                    idx = rows[:, :, None] + cols[:, None, :]
                    np.add.at(flat, idx.reshape(-1), schur[child][take].reshape(-1))
                try:
                    y = np.linalg.solve(F[:, :o, :o], F[:, :o, o:])
                except np.linalg.LinAlgError:
                    return np.full(self.size, np.nan)
                zb = z[bt.part]
                np.subtract(F[:, o:, o:], np.matmul(F[:, o:, :o], y, out=zb), out=zb)
                ys.append((st.own[bt.part], st.bnd[bt.part], y))
            for child in st.done:
                del schur[child]
            schur[s] = z
        x = np.empty(self.size)
        for own, bnd, y in ys[::-1]:
            b = bnd.shape[1]
            x[own] = y[:, :, b] - (y[:, :, :b] @ x[bnd][:, :, None])[:, :, 0]
        return x


@dataclass(frozen=True, eq=False)
class NewtonMatrix:
    """A Newton matrix as its values on its elimination plan's pattern."""

    plan: Elimination
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.plan.size, self.plan.size))
        out[self.plan.pattern] = self.data
        return out
