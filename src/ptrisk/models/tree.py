"""Tree growing shared by the DT, the forest and the boosted trees.

Two growers produce the same trees from the same rules.  A tree kind
supplies two additive per-row statistics, a leaf-value rule and a gain
rule; ``forest.py`` holds the CART rules and ``boosting.py`` the Newton
rules, and no rule lives here.  Split candidates are midpoints of
consecutive distinct sorted feature values.  Ties between equally good
splits resolve to the lowest feature index, then the lowest threshold,
giving a fully deterministic tree.

A tree is four arrays over its nodes, numbered in depth-first preorder,
left before right: ``feature`` (< 0 at a leaf), ``threshold``, ``right``
(-1 at a leaf) and ``value``.  An internal node's left child is the next
node, so only the right child is stored.

The rows decide the grower.  ``grow_presorted`` grows one tree whose
rows are unique and ascending: the DT (every row) and each boosting
round (its sorted row draw).  ``grow_tree`` grows the forest's
bootstrap samples, whose rows repeat, in lockstep.

The split search never sorts floats.  ``rank_codes`` gives each feature
column dense integer ranks once per fit (uint8 up to 256 rows, uint16 up
to 65,536).  Codes keep the order and the ties of the values, so the row
order, the running sums and the gains are those of a stable sort of the
floats.  The floats are read only to form the chosen threshold, the
midpoint of the two values at the chosen position, and to partition the
node's rows by ``value <= threshold``: a midpoint of two adjacent floats
can round onto the upper value, so the partition cannot be taken from
the codes.

Both growers evaluate the gain rule only at boundaries: the positions in
a node's stable order of a feature's codes where the code changes, the
only positions where a split can fall, as histogram tree learners do
(Chen & Guestrin, KDD 2016).  Both children of a boundary hold rows, so
no rule divides by an empty child.  A node keeps the first maximum over
(feature, position), and splits if its gain exceeds ``_MIN_GAIN``.

Presorted.  ``rank_codes`` also returns the fit's one stable argsort:
each feature's rows in (code, row) order.  ``grow_presorted`` filters
those lists by the tree's rows at the root, and each split hands its
children the parent's lists through a stable ``compress``, as in SPRINT
(Shafer, Agrawal & Mehta, VLDB 1996), so no node sorts.  The rows are
unique and ascending, so (code, row) order is the (code, slot) order of
``grow_tree``'s keys.  A node takes its totals with one pairwise sum
over its rows in ascending order, the running sums of the two statistics
along each list, and scores its boundaries.  The midpoint and the
``<=`` partition are those of ``grow_tree``.  Every row of X, in the
tree's rows or not, is routed down the same partitions, so the grower
also returns the leaf of each row: a boosting round adds the leaf values
to the raw scores without walking the tree.

Lockstep.  ``grow_tree`` grows a batch of trees together on one matrix
X: the bootstrap samples of a forest.  Each node sorts its block of
codes, each packed with its slot into one unique unsigned key, so one
plain sort gives the stable order.  Each tree keeps one row permutation,
stably partitioned in place at each split, so every node is a slice of
it in ascending sample order.  The two statistics are held as one
C-contiguous (2, rows) array, so a node gathers both with one ``take``.
Each step takes the next depth-first node of every tree that has one, so
every tree creates its nodes in preorder and calls its picker in the
order of a tree grown alone: a forest draws the same RNG stream as its
trees grown one at a time.  Over the step's nodes it computes:

1. the node totals A, B: one sum per node over its slice, in that order,
   the sum a tree grown alone takes (numpy's pairwise sum depends on the
   length and the order, so it is never taken over a padded row).  One
   reduction along the rows of the gathered (2, n) block sums each
   statistic pairwise as its 1-D slice would be;
2. the leaf values and the stop rules, elementwise;
3. the candidate features, from each tree's own picker;
4. the split search, in a few ``_split_block`` calls over (nodes x
   features x rows) blocks of codes.  The nodes are sorted by row count
   and cut into calls whose block holds at most ``_BLOCK_CELLS`` cells,
   by block size alone: a node's search is its own whatever call it
   shares.  A shorter node is padded with the largest code of the dtype;
   the pads sit after every real row and a key's low bits hold its slot,
   so the sort leaves them last even where a real row has that code, and
   the running sums (``cumsum`` from the first sorted row) are those of
   the node alone.  The gains at the boundaries between two real rows
   fill one -inf (nodes x features * positions) array, and one argmax
   per node keeps the first maximum;
5. the midpoint thresholds and the ``<=`` partitions, elementwise, which
   is exact.

``tree_sums`` walks all trees of an ensemble together over row blocks of
at most ``_BLOCK_CELLS`` (trees x rows) node indices, so an ensemble's
prediction holds a bounded block whatever the number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MIN_GAIN = 1e-12
# cells held by one search call (nodes x features x rows) and by one
# prediction block (trees x rows)
_BLOCK_CELLS = 2**13


@dataclass
class TreeArrays:
    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)  # leaf probability / raw score

    def add_node(self, parent: int) -> int:
        """Append a leaf; it is ``parent``'s right child if ``parent >= 0``."""
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.right.append(-1)
        self.value.append(0.0)
        if parent >= 0:
            self.right[parent] = node
        return node

    def finalize(self) -> "FrozenTree":
        return FrozenTree(
            feature=np.asarray(self.feature, dtype=np.intp),
            threshold=np.asarray(self.threshold, dtype=float),
            right=np.asarray(self.right, dtype=np.intp),
            value=np.asarray(self.value, dtype=float),
        )


@dataclass(frozen=True)
class FrozenTree:
    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray


def descend(feature, threshold, right, X, idx):
    """The leaf reached from each node of ``idx`` by the rows of X.

    ``idx`` holds node indices of the flat tree arrays; its last axis
    runs over the rows of X.  It is updated in place and returned.
    """
    while True:
        internal = feature[idx] >= 0
        if not internal.any():
            return idx
        where = np.nonzero(internal)
        node = idx[where]
        go_left = X[where[-1], feature[node]] <= threshold[node]
        idx[where] = np.where(go_left, node + 1, right[node])


def tree_sums(trees, X: np.ndarray) -> np.ndarray:
    """Sum over the trees of each tree's value at each row of X.

    The trees' node arrays are joined once, and all trees are walked
    together over blocks of at most ``_BLOCK_CELLS`` (trees x rows) node
    indices.  Each row's total starts from 0.0 and adds the trees' values
    in tree order.
    """
    X = np.asarray(X, dtype=float)
    sizes = [tree.feature.size for tree in trees]
    offset = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(offset, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    right = np.concatenate([tree.right for tree in trees]) + shift
    value = np.concatenate([tree.value for tree in trees])
    totals = np.zeros(X.shape[0])
    step = max(1, _BLOCK_CELLS // len(trees))
    for lo in range(0, X.shape[0], step):
        block = X[lo : lo + step]
        idx = np.repeat(offset[:, None], block.shape[0], axis=1)
        total = totals[lo : lo + step]
        for values in value[descend(feature, threshold, right, block, idx)]:
            total += values
    return totals


def rank_codes(XT: np.ndarray) -> tuple:
    """Dense rank codes of each row of XT (features x rows), and each
    row's stable sort order.

    Equal values, -0.0 and 0.0 among them, share a code, and a larger
    value has a larger code.  The dtype is the smallest unsigned integer
    that holds the number of rows minus one.  The order is the one stable
    argsort of a fit: row f lists the columns of XT in (code, column)
    order of feature f.
    """
    order = np.argsort(XT, axis=1, kind="stable")
    V = np.take_along_axis(XT, order, axis=1)
    step = np.zeros(XT.shape, dtype=np.min_scalar_type(max(XT.shape[1] - 1, 0)))
    step[:, 1:] = V[:, 1:] > V[:, :-1]
    codes = np.empty_like(step)
    np.put_along_axis(codes, order, np.cumsum(step, axis=1, dtype=step.dtype), axis=1)
    return codes, order


def _split_block(X, codes, ab, perm, start, n, features, A, B, split_gain, L):
    """Best split of each node of one search call, and its partition.

    Node i holds the rows ``perm[start[i]:start[i] + n[i]]`` and searches
    the feature row ``features[i]``; L is the largest row count.  Returns
    the split mask, the chosen feature and threshold, and the left row
    count; the rows of every split node are stably partitioned in place,
    left before right.
    """
    nodes, k = features.shape
    # rows and block: pads (past a node's n rows) hold other nodes' rows
    span = start[:, None] + np.arange(L)
    real = span < (start + n)[:, None]
    rows = perm.take(span, mode="clip")
    block = codes.take(features[:, :, None] * codes.shape[1] + rows[:, None, :])
    np.copyto(block, np.iinfo(block.dtype).max, where=~real[:, None, :])
    # keys are unique, code above slot, so one sort gives the stable order
    shift = (L - 1).bit_length()
    key = block.astype(np.min_scalar_type((1 << (8 * block.itemsize + shift)) - 1))
    key <<= shift
    key |= np.arange(L, dtype=key.dtype)
    key.sort(axis=2)
    order = (key & ((1 << shift) - 1)).astype(np.intp)
    key >>= shift
    # a boundary: the code changes between two real rows
    boundary = ((key[:, :, :-1] < key[:, :, 1:]) & (np.arange(1, L) < n[:, None, None])).reshape(-1).nonzero()[0]
    order += (np.arange(nodes) * L)[:, None, None]  # into rows, flattened
    sums = np.cumsum(ab.take(rows, axis=1).reshape(2, -1).take(order, axis=1)[..., :-1], axis=3)
    AL, BL = sums.reshape(2, -1).take(boundary, axis=1)
    node = boundary // (k * (L - 1))
    gain = np.full((nodes, k * (L - 1)), -np.inf)
    gain.reshape(-1)[boundary] = split_gain(AL, BL, A.take(node), B.take(node), boundary % (L - 1) + 1, n.take(node))
    best = gain.argmax(axis=1)
    best += np.arange(0, nodes * k * (L - 1), k * (L - 1))  # into gain, flattened
    ok = gain.take(best) > _MIN_GAIN
    row = best // (L - 1)
    feature = features.take(row)
    best += row  # into order, flattened
    lo = rows.take(order.take(best))
    hi = rows.take(order.take(best + 1))
    threshold = 0.5 * (X[lo, feature] + X[hi, feature])
    go_left = X[rows, feature[:, None]] <= threshold[:, None]
    go_left &= real
    # the threshold is never below the lower value, so only the right
    # child can be empty: when a midpoint of adjacent floats rounds up
    n_left = go_left.sum(axis=1)
    ok &= n_left < n
    parted = np.argsort(~go_left, axis=1, kind="stable")
    parted += start[:, None]
    parted = perm.take(parted, mode="clip")
    perm[span[real]] = parted[real]
    return ok, feature, threshold, n_left


def _split_nodes(X, codes, ab, perm, start, n, features, A, B, split_gain):
    """``_split_block`` over the searched nodes of a step: the nodes with at
    least two rows, sorted by row count, in calls whose block holds at
    most ``_BLOCK_CELLS`` cells (a larger node alone)."""
    sizes = n.tolist()
    order = sorted((i for i, size in enumerate(sizes) if size >= 2), key=sizes.__getitem__)
    k = features.shape[1]
    ok = np.zeros(len(sizes), dtype=bool)
    feature = np.zeros(len(sizes), dtype=np.intp)
    threshold = np.zeros(len(sizes))
    n_left = np.zeros(len(sizes), dtype=np.intp)
    lo = 0
    for hi in range(1, len(order) + 1):
        if hi < len(order) and (hi - lo + 1) * k * sizes[order[hi]] <= _BLOCK_CELLS:
            continue
        i = np.array(order[lo:hi])
        ok[i], feature[i], threshold[i], n_left[i] = _split_block(
            X, codes, ab, perm, start[i], n[i], features[i], A[i], B[i], split_gain, sizes[order[hi - 1]]
        )
        lo = hi
    return ok, feature, threshold, n_left


def grow_tree(
    X: np.ndarray,
    codes: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    samples: np.ndarray,
    leaf_value,
    split_gain,
    max_depth: int,
    is_leaf,
    pickers,
) -> tuple:
    """Grow one tree per row of ``samples``, all in lockstep.

    Tree t grows on the rows ``samples[t]`` of X (rows x features,
    C-contiguous), in that order, repeats allowed; the rows of ``samples``
    are reordered in place.  ``codes`` is ``rank_codes(X.T)[0]``.  The rules
    see only sums of the per-row statistics ``a``, ``b`` over a node's
    rows, taken in sample order, and apply elementwise to arrays of nodes:
    ``leaf_value(A, B)`` gives the node value, ``is_leaf(A, B, n)`` stops
    a node before its split search, and ``split_gain(AL, BL, A, B,
    n_left, n)`` scores left-child sums, -inf where the split is not
    allowed.  ``pickers[t](X.shape[1])`` gives tree t's candidate
    features, as ascending columns of X; it is called once per searched
    node of tree t, in depth-first order.
    """
    n_trees, m = samples.shape
    perm = samples.reshape(-1)
    ab = np.stack((a, b))
    arrays = [TreeArrays() for _ in range(n_trees)]
    # per tree: (start in perm, rows, depth, parent if a right child else -1);
    # right is pushed before left
    pending = [[(t * m, m, 0, -1)] for t in range(n_trees)]
    active = list(range(n_trees))
    while active:
        nodes = []
        totals = []
        for t in active:
            s, c, depth, parent = pending[t].pop()
            node = arrays[t].add_node(parent)
            totals.append(np.add.reduce(ab.take(perm[s : s + c], axis=1), axis=1))
            nodes.append((t, node, s, c, depth))
        A, B = np.array(totals).T
        n = np.array([node[3] for node in nodes])
        stop = is_leaf(A, B, n).tolist()
        for (t, node, *_), v in zip(nodes, leaf_value(A, B).tolist()):
            arrays[t].value[node] = v
        i = [k for k, node in enumerate(nodes) if node[4] < max_depth and not stop[k]]
        if i:
            searched = np.array([pickers[nodes[k][0]](X.shape[1]) for k in i])
            start = np.array([nodes[k][2] for k in i])
            if len(i) < len(nodes):
                n, A, B = n[i], A[i], B[i]
            ok, f, thr, n_left = _split_nodes(X, codes, ab, perm, start, n, searched, A, B, split_gain)
            for k, ok, f, thr, nl in zip(i, ok.tolist(), f.tolist(), thr.tolist(), n_left.tolist()):
                if ok:
                    t, node, s, c, depth = nodes[k]
                    tree = arrays[t]
                    tree.feature[node] = f
                    tree.threshold[node] = thr
                    pending[t].append((s + nl, c - nl, depth + 1, node))
                    pending[t].append((s, nl, depth + 1, -1))
        active = [t for t in active if pending[t]]
    return tuple(tree.finalize() for tree in arrays)


def grow_presorted(
    XT: np.ndarray,
    codes: np.ndarray,
    order: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    leaf_value,
    split_gain,
    max_depth: int,
    is_leaf,
) -> tuple:
    """Grow one tree on the unique ascending ``rows`` of X, depth-first.

    XT is X.T, C-contiguous (features x rows), and ``codes, order =
    rank_codes(XT)``.  Every node searches the ascending columns
    ``features``; the statistics and the rules are those of ``grow_tree``.
    Returns the tree and the leaf reached by each row of X, ``rows`` or not.

    Each node holds its rows in ascending order, one list per candidate
    feature of those rows in (code, row) order, and the rows of X that
    reach it.  The root filters ``order``; a split passes each child the
    parent's arrays, compressed stably.  No node sorts.
    """
    n = XT.shape[1]
    ab = np.array((a, b))
    k = features.size
    offset = (features * n)[:, None]  # into codes, flattened
    lists = order.take(features, axis=0)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[rows] = True
    lists = lists.compress(in_tree.take(lists).reshape(-1)).reshape(k, rows.size)
    arrays = TreeArrays()
    leaf = np.empty(n, dtype=np.intp)
    # (rows, lists, rows of X reaching the node, depth, parent if a right child else -1)
    pending = [(rows, lists, np.arange(n), 0, -1)]
    while pending:
        rows, lists, reach, depth, parent = pending.pop()
        node = arrays.add_node(parent)
        A, B = np.add.reduce(ab.take(rows, axis=1), axis=1)
        arrays.value[node] = float(leaf_value(A, B))
        m = rows.size
        boundary = np.empty(0, dtype=np.intp)
        if depth < max_depth and not is_leaf(A, B, m):
            # only a position where the code changes can split the node
            listed = codes.take(lists + offset)
            boundary = (listed[:, 1:] != listed[:, :-1]).reshape(-1).nonzero()[0]
        if boundary.size:
            AL, BL = ab.take(lists[:, :-1], axis=1).cumsum(axis=2).reshape(2, -1).take(boundary, axis=1)
            gain = split_gain(AL, BL, A, B, boundary % (m - 1) + 1, m)
            best = int(gain.argmax())
        if not boundary.size or not gain[best] > _MIN_GAIN:
            leaf[reach] = node
            continue
        i, j = divmod(int(boundary[best]), m - 1)
        f = int(features[i])
        x = XT[f]
        threshold = 0.5 * (x[lists[i, j]] + x[lists[i, j + 1]])
        go_left = x.take(rows) <= threshold
        n_left = int(np.count_nonzero(go_left))
        # a midpoint of adjacent floats can round onto the upper value
        if n_left == m:
            leaf[reach] = node
            continue
        arrays.feature[node] = f
        arrays.threshold[node] = float(threshold)
        reach_left = x.take(reach) <= threshold
        lists_left = lists_right = None
        if depth + 1 < max_depth:  # a child at the depth limit searches nothing
            list_left = (x.take(lists) <= threshold).reshape(-1)
            lists_left = lists.compress(list_left).reshape(k, n_left)
            lists_right = lists.compress(~list_left).reshape(k, m - n_left)
        pending.append((rows.compress(~go_left), lists_right, reach.compress(~reach_left), depth + 1, node))
        pending.append((rows.compress(go_left), lists_left, reach.compress(reach_left), depth + 1, -1))
    return arrays.finalize(), leaf
