"""Packed tree ensembles: every tree of a fitted ensemble in one array.

The object-path ensembles (:class:`~repro.ml.forest.RandomForestRegressor`
and friends) predict by looping over their trees in Python, paying the
numpy dispatch overhead of a full vectorised traversal *per tree* — for
the paper's deep forests that is thousands of tiny-array numpy calls per
prediction, which is exactly the evaluation tax that erases the forest's
speedup in Tables III/IV.

:class:`PackedTrees` concatenates the flat node arrays of all trees into
one address space (per-tree node offsets, children rebased) and traverses
**all trees for all samples simultaneously**: one cursor array of
``n_trees * n_samples`` positions advances level by level, so the number
of numpy calls is ``O(max_depth)`` instead of ``O(sum of depths)`` and
each call touches an array large enough to amortise dispatch overhead.

The walk runs on an interleaved layout derived from the node arrays.  A
cursor holds twice its node's index; ``feature``/``threshold`` are
repeated per child slot and the two children sit side by side, right
then left, so one level is a feature gather from the row-major flattened
``X``, one threshold compare and one child gather at ``cursor +
went_left`` — no ``where`` over both children.  Leaves are packed as
self-loops with a dummy feature index of 0, so a cursor that reaches a
leaf early simply stays there while deeper trees keep walking — no
masking or gather of "active" rows is needed.  Deep, ragged ensembles
(the paper's forests) would then walk mostly parked cursors, so the
levels at which to drop them are planned once per ensemble from its
shape, not checked per level (:meth:`PackedTrees._derive`).  The
per-(tree, sample)
comparisons are the same ``X[i, feature] <= threshold`` the object path
executes against the same float64 node arrays, so packed per-tree
predictions are **bitwise identical** to calling ``tree.predict`` per
tree.
"""

from __future__ import annotations

import numpy as np


class PackedTrees:
    """Concatenated node arrays for an ensemble of regression trees.

    Built from fitted trees via :meth:`from_hist_trees` (the histogram
    ensembles) or :meth:`from_cart` (the exact-greedy decision tree);
    the constructor takes already-rebased arrays.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value",
                 "roots", "is_leaf", "max_depth", "n_trees", "n_nodes",
                 "_feature2", "_threshold2", "_child2", "_live2",
                 "_compact")

    def __init__(self, feature, threshold, left, right, value, roots,
                 max_depth: int):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.roots = np.asarray(roots, dtype=np.int64)
        self.max_depth = int(max_depth)
        self.n_trees = self.roots.size
        self.n_nodes = self.feature.size
        # Leaves carry feature < 0 in the source trees; pack them as
        # self-loops with a harmless feature so traversal needs no mask.
        self.is_leaf = self.feature < 0
        idx = np.arange(self.n_nodes, dtype=np.int64)
        self.left = np.where(self.is_leaf, idx, self.left)
        self.right = np.where(self.is_leaf, idx, self.right)
        self.feature = np.where(self.is_leaf, 0, self.feature)
        self._derive()

    def _derive(self) -> None:
        """Build the interleaved walk layout and the compaction plan.

        Layout (module docstring): slot ``2 * node + went_left`` holds
        the node's feature, threshold and the doubled index of the
        child taken, and whether that slot's node is internal.

        Plan: ``_compact[level]`` says whether the walk drops the
        cursors parked on leaves after that level.  The share of
        cursors still on internal nodes is estimated as if every split
        sent half each way, and the walk compacts wherever that share
        has halved since the last compaction — the rule a per-level
        count would apply, without counting.  Boosted ensembles of
        full shallow trees never compact; deep forests compact most
        levels of their tail.
        """
        self._feature2 = np.repeat(self.feature, 2)
        self._threshold2 = np.repeat(self.threshold, 2)
        self._child2 = 2 * np.column_stack([self.right, self.left]).ravel()
        self._live2 = np.repeat(~self.is_leaf, 2)
        mass = np.zeros(self.n_nodes)
        mass[self.roots] = 1.0 / self.n_trees
        self._compact = []
        kept = 1.0
        for level in range(self.max_depth):
            # Leaves are self-loops, so they keep their mass.
            mass = (np.bincount(self.left, mass / 2, self.n_nodes)
                    + np.bincount(self.right, mass / 2, self.n_nodes))
            live = float(mass[~self.is_leaf].sum())
            compact = 2 * live <= kept and level + 1 < self.max_depth
            self._compact.append(compact)
            kept = live if compact else kept

    @classmethod
    def from_hist_trees(cls, trees) -> "PackedTrees":
        """Pack a list of :class:`~repro.ml._histtree.HistTree`."""
        if not trees:
            raise ValueError("cannot pack an empty ensemble")
        sizes = np.asarray([t.n_nodes for t in trees], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        return cls(
            feature=np.concatenate([t.feature for t in trees]),
            threshold=np.concatenate([t.threshold for t in trees]),
            left=np.concatenate([np.asarray(t.left, dtype=np.int64) + off
                                 for t, off in zip(trees, offsets)]),
            right=np.concatenate([np.asarray(t.right, dtype=np.int64) + off
                                  for t, off in zip(trees, offsets)]),
            value=np.concatenate([t.value for t in trees]),
            roots=offsets[:-1],
            max_depth=max(t.max_depth_ for t in trees),
        )

    @classmethod
    def from_cart(cls, root, max_depth: int) -> "PackedTrees":
        """Flatten a linked :class:`~repro.ml.tree._Node` tree.

        Iterative preorder walk (deep CART trees would blow the Python
        recursion limit) assigning array slots as nodes are visited.
        """
        feature, threshold, left, right, value = [], [], [], [], []
        # Stack of (node, parent_slot, is_left_child); root has no parent.
        stack = [(root, -1, False)]
        while stack:
            node, parent, is_left = stack.pop()
            slot = len(feature)
            if parent >= 0:
                (left if is_left else right)[parent] = slot
            feature.append(node.feature)
            threshold.append(node.threshold)
            value.append(node.value)
            left.append(-1)
            right.append(-1)
            if node.feature >= 0:
                stack.append((node.right, slot, False))
                stack.append((node.left, slot, True))
        return cls(feature=feature, threshold=threshold, left=left,
                   right=right, value=value, roots=[0], max_depth=max_depth)

    # ------------------------------------------------------------------
    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shaped ``(n_trees, n_samples)``.

        Row ``t`` is bitwise what ``trees[t].predict(X)`` returns: the
        traversal follows the same comparisons against the same node
        arrays; only the iteration order over (tree, sample) pairs
        changes, and no arithmetic depends on it.

        One doubled-index cursor per (tree, sample) pair, tree-major,
        walks ``max_depth`` levels; a sample's features are read from
        the row-major flattened ``X`` at its row offset plus the node's
        feature.  At the planned levels the cursors parked on leaves
        are written to the result and dropped from the walk.
        """
        n, width = X.shape
        flat = np.ravel(X)
        rows = np.tile(np.arange(0, n * width, width), self.n_trees)
        cursor = np.repeat(2 * self.roots, n)
        result = where = None   # final cursors; result positions walking
        for compact in self._compact:
            went_left = flat[rows + self._feature2[cursor]] \
                <= self._threshold2[cursor]
            cursor = self._child2[cursor + went_left]
            if compact:
                live = np.flatnonzero(self._live2[cursor])
                if where is None:
                    result, where = cursor, live
                else:
                    result[where] = cursor
                    where = where[live]
                cursor, rows = cursor[live], rows[live]
        if where is not None:
            result[where] = cursor
            cursor = result
        return self.value[cursor >> 1].reshape(self.n_trees, n)

    @property
    def nbytes(self) -> int:
        """Total bytes of the packed node arrays."""
        return sum(getattr(self, name).nbytes for name in
                   ("feature", "threshold", "left", "right", "value",
                    "roots", "is_leaf"))

    def describe(self) -> dict:
        return {"n_trees": self.n_trees, "n_nodes": self.n_nodes,
                "max_depth": self.max_depth, "nbytes": int(self.nbytes)}
