"""Connected components over duplicate-pair graphs: the step that turns
near-dup PAIRS (minhash/simhash/embedding/jaccard outputs, all shaped
``(id_a, id_b, ...)``) into actual dedup DECISIONS — every node labeled
with its component's minimum id, so "keep one document per duplicate
cluster" becomes ``keep where doc_id == cluster_id`` (transitive closure:
A~B and B~C must drop two of three even when A~C was never emitted as a
pair).

Two methods, pinned equal by tests:

* ``driver`` — the pair table is sparse by the LSH contract (orders of
  magnitude below the corpus), so up to ``max_driver_edges`` the edges are
  collected ONCE as two int64 columns and labeled with vectorized
  min-propagation + pointer jumping (no Python-per-edge union-find loop).
* ``distributed`` — skew-safe min-label rounds (the MapReduce-CC family
  of Kiveris et al. 2014, re-shaped so NO reduce task ever scales with
  component size or node degree): each round computes an exact per-node
  minimum label mu(u) from per-block local-CC partials (a node's reduce
  group is <= #blocks rows), broadcast-resolves edges whose min endpoint
  is HOT (degree >= threshold — the giant-boilerplate-component case a
  web corpus guarantees) map-side with zero shuffle, and re-points the
  cold edges in ONE node-bucketed exchange whose groups are bounded by
  the hot threshold.  Every emission keeps mu in the node's component,
  so connectivity is preserved exactly each round and correctness never
  depends on the round count; the edge set is re-materialized per round
  (16 B/row — derived rows, never the corpus) and convergence is
  detected by an order-independent 64-bit multiset checksum over a
  deterministic per-round output multiset.  Block-local contraction
  (transitive mins) collapses the round count: a 100k-edge path — the
  diameter worst case — converges in ~6 rounds; real near-dup graphs
  are low-diameter and finish in 2-4.

NULL endpoints never form an edge (dropped, matching the repo's
"joins never match null keys" convention); self-loops are ignored;
duplicate and reversed duplicate pairs are harmless (set semantics).
Nodes that appear in no pair are absent from the output — downstream
"keep representatives" treats absent as kept.

reference: no counterpart in /root/reference (python-hll is sketch-only);
builder-brief training-data-pipeline requirement (dedup family closure).
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayhll.functions.hashing import splitmix64
from rayhll.functions.partitioning import TARGET_ROWS_PER_TASK, resolve_num_buckets

logger = logging.getLogger(__name__)

__all__ = [
    "connected_components",
    "connected_components_checkpointed",
    "keep_representatives",
]

#: driver-method edge cap: 2 int64 columns x 32M = 512 MB driver arrays,
#: the same comfort zone as dedup.PREFILTER_MAX_IDS
MAX_DRIVER_EDGES = 32_000_000


def _edge_arrays(pairs, left_col: str, right_col: str, cap: int):
    """Collect the pair table's endpoints as two clean int64 arrays
    (nulls and self-loops dropped).  Driver-method only — one pass over
    compact id pairs; the cap is enforced on the per-block counts BEFORE
    anything concatenates driver-side (blocks live in the object store
    until then), so an over-cap graph raises instead of OOMing."""
    import ray

    def project(t: pa.Table) -> pa.Table:
        a, b = t.column(left_col), t.column(right_col)
        mask = pc.and_(
            pc.and_(pc.is_valid(a), pc.is_valid(b)), pc.not_equal(a, b)
        )
        t = pa.table({"a": a, "b": b}).filter(mask)
        return pa.table(
            {"a": t.column("a").cast(pa.int64()), "b": t.column("b").cast(pa.int64())}
        )

    parts = ray.get(
        pairs.map_batches(project, batch_format="pyarrow").to_arrow_refs()
    )
    parts = [t for t in parts if "a" in t.column_names and t.num_rows]
    total = sum(t.num_rows for t in parts)
    if total > cap:
        raise ValueError(
            f"connected_components(method='driver'): {total} edges exceed "
            f"max_driver_edges={cap}; use method='distributed'"
        )
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    whole = pa.concat_tables(parts)
    return whole.column("a").to_numpy(), whole.column("b").to_numpy()


def _label_edges(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected-component labels for an edge list: returns
    ``(nodes, labels)`` with ``labels[i]`` = min original id reachable from
    ``nodes[i]``.  Shiloach-Vishkin-style root hooking + pointer jumping —
    O(E) numpy work per pass, O(log n) passes on ANY graph shape
    (including paths, the diameter worst case)."""
    nodes, inv = np.unique(np.concatenate((a, b)), return_inverse=True)
    ea, eb = inv[: len(a)], inv[len(a) :]
    # np.unique sorts, so compact-index order == id order: min compact
    # label per component maps back to the min original id.
    # Shiloach-Vishkin-style ROOT hooking: scatter the min into the ROOT
    # slot (lab[lab[u]]), not the node slot — hooking merges whole trees
    # per pass, so effective diameter halves each round (O(log n) passes:
    # a 2M-edge path takes 14).  Scattering into node slots instead moves
    # mins one hop per pass = O(diameter) passes — 52 s vs 0.04 s on a
    # 100k-edge path (PERF_NOTES #44).  lab is fully path-compressed at
    # the top of each pass, so lab[ea] IS the root.
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        prev = lab.copy()
        ra, rb = lab[ea], lab[eb]
        np.minimum.at(lab, ra, rb)
        np.minimum.at(lab, rb, ra)
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        if np.array_equal(lab, prev):
            break
    return nodes, nodes[lab]


def _edge_checksum(src: np.ndarray, dst: np.ndarray) -> np.uint64:
    """Order-independent 64-bit checksum of an edge MULTISET: wrapping SUM
    of splitmix64 over packed (src, dst) — a sum (not xor) so duplicate
    emits of one edge from different star groups cannot cancel.  Two
    consecutive star rounds with equal (count, checksum) have equal edge
    multisets modulo a ~2^-64 collision — the documented
    convergence-detection tolerance."""
    packed = splitmix64(
        src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ dst.astype(np.uint64)
    )
    with np.errstate(over="ignore"):
        return np.uint64(packed.sum(dtype=np.uint64))


def _node_bucket(nodes: np.ndarray, num_buckets: int) -> pa.Array:
    return pa.array(
        (splitmix64(nodes.astype(np.uint64)) % np.uint64(num_buckets)).astype(
            np.int64
        ),
        type=pa.int64(),
    )


def _dedup_edges(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not len(src):
        return src, dst
    order = np.lexsort((dst, src))
    s, d = src[order], dst[order]
    keep = np.concatenate(([True], (s[1:] != s[:-1]) | (d[1:] != d[:-1])))
    return s[keep], d[keep]


def _min_label_round(edges, num_buckets: int, hot_threshold: int, round_stats: dict):
    """One skew-safe min-label round: every node learns an exact
    cross-block minimum label mu(u) and every edge re-points to it —
    with EVERY reduce task bounded regardless of component size or
    degree (the giant-dup-component case a web corpus guarantees:
    boilerplate/empty docs form one huge component whose star root
    would otherwise co-locate O(component) rows in one task, the same
    skew class as the r4 token_budget_sample finding).

    1. partials map (per block): local-CC labels = block-transitive
       min per node, plus the node's block degree — <= 2 compact rows
       per (block, node).
    2. mu reduce (node-bucketed; a node's group is <= #blocks rows):
       exact mu(u) = min of partials, deg(u) = sum of block degrees.
    3. HOT nodes (deg >= hot_threshold, at most 2E/threshold of them)
       broadcast once via ray.put: their edges resolve MAP-SIDE with
       zero shuffle.
    4. cold edges + all mu rows share ONE exchange co-located by the
       edge's min endpoint (cold groups <= threshold edges by
       definition); the reduce emits (max, mu(min)) per cold edge,
       passes hot-resolved rows through, emits each node's parent edge
       (u, mu(u)) exactly once from its mu row, and dedups — a
       deterministic output multiset, so the convergence checksum is
       meaningful.

    Safety: every emission (x, mu) has mu in x's component and mu < x
    (labels only decrease), and every node with mu(u) < u keeps its
    parent edge — connectivity is preserved exactly each round, so
    correctness never depends on the round count."""
    import ray

    def partials(batch: pa.Table) -> pa.Table:
        s = batch.column("_src").to_numpy()
        d = batch.column("_dst").to_numpy()
        nodes, labels = _label_edges(s, d)
        _, counts = np.unique(np.concatenate((s, d)), return_counts=True)
        return pa.table(
            {
                "_node": pa.array(nodes, type=pa.int64()),
                "_pmin": pa.array(labels, type=pa.int64()),
                "_pdeg": pa.array(counts, type=pa.int64()),
                "_bucket": _node_bucket(nodes, num_buckets),
            }
        )

    def reduce_mu(tbl: pa.Table) -> pa.Table:
        n = tbl.column("_node").to_numpy()
        pm = tbl.column("_pmin").to_numpy()
        pdg = tbl.column("_pdeg").to_numpy()
        order = np.lexsort((pm, n))
        n_s, pm_s, pdg_s = n[order], pm[order], pdg[order]
        first = np.concatenate(([True], n_s[1:] != n_s[:-1]))
        starts = np.flatnonzero(first)
        lens = np.diff(np.concatenate((starts, [len(n_s)])))
        deg = np.add.reduceat(pdg_s, starts)
        return pa.table(
            {
                "_node": pa.array(n_s[starts], type=pa.int64()),
                "_mu": pa.array(pm_s[starts], type=pa.int64()),
                "_deg": pa.array(deg, type=pa.int64()),
            }
        )

    mu = (
        edges.map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
        .groupby("_bucket")
        .map_groups(reduce_mu, batch_format="pyarrow")
        .materialize()
    )

    def hot_only(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t.column("_deg"), pa.scalar(hot_threshold))
        return t.filter(keep).select(["_node", "_mu"])

    hot_parts = [
        t
        for t in ray.get(
            mu.map_batches(hot_only, batch_format="pyarrow").to_arrow_refs()
        )
        if "_node" in t.column_names and t.num_rows
    ]
    if hot_parts:
        hot_tbl = pa.concat_tables(hot_parts)
        hn = hot_tbl.column("_node").to_numpy()
        hm = hot_tbl.column("_mu").to_numpy()
        o = np.argsort(hn)
        hot_ref = ray.put((hn[o], hm[o]))
    else:
        hot_ref = None
    round_stats["hot_nodes"] = sum(t.num_rows for t in hot_parts)

    def tag_edges(batch: pa.Table) -> pa.Table:
        s = batch.column("_src").to_numpy()
        d = batch.column("_dst").to_numpy()
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        if hot_ref is not None and len(u):
            hn_s, hm_s = ray.get(hot_ref)  # per-worker deserialization cache
            pos = np.searchsorted(hn_s, u)
            pos[pos == len(hn_s)] = 0
            is_hot = hn_s[pos] == u if len(hn_s) else np.zeros(len(u), bool)
            out_src = np.where(is_hot, v, u)
            out_dst = np.where(is_hot, hm_s[pos], v)
            kind = is_hot.astype(np.int64) * 2
        else:
            out_src, out_dst = u, v
            kind = np.zeros(len(u), dtype=np.int64)
        return pa.table(
            {
                "_src": pa.array(out_src, type=pa.int64()),
                "_dst": pa.array(out_dst, type=pa.int64()),
                "_k": pa.array(kind, type=pa.int64()),
                "_bucket": _node_bucket(out_src, num_buckets),
            }
        )

    def tag_mu(batch: pa.Table) -> pa.Table:
        n = batch.column("_node").to_numpy()
        m = batch.column("_mu").to_numpy()
        return pa.table(
            {
                "_src": pa.array(n, type=pa.int64()),
                "_dst": pa.array(m, type=pa.int64()),
                "_k": pa.array(np.ones(len(n), dtype=np.int64)),
                "_bucket": _node_bucket(n, num_buckets),
            }
        )

    tagged = edges.map_batches(
        tag_edges, batch_format="pyarrow", zero_copy_batch=True
    ).union(mu.map_batches(tag_mu, batch_format="pyarrow"))

    def reparent(tbl: pa.Table) -> pa.Table:
        k = tbl.column("_k").to_numpy()
        s = tbl.column("_src").to_numpy()
        d = tbl.column("_dst").to_numpy()
        mu_mask = k == 1
        mn, mm = s[mu_mask], d[mu_mask]
        o = np.argsort(mn)
        mn, mm = mn[o], mm[o]
        cold = k == 0
        cu, cv = s[cold], d[cold]
        # every cold edge's min endpoint has its mu row in this bucket
        # (same node-hash bucketing on both sides)
        if len(cu):
            pos = np.searchsorted(mn, cu)
            pos_c = np.minimum(pos, len(mn) - 1)
            if not len(mn) or not (mn[pos_c] == cu).all():
                raise AssertionError(
                    "connected_components: cold edge endpoint missing its mu "
                    "row in-bucket (bucketing invariant violated)"
                )
            mu_u = mm[pos_c]
        else:
            mu_u = cu
        resolved = k == 2
        parent = mu_mask & (d != s)  # (u, mu(u)) edges, once per node
        out_src = np.concatenate((cv, s[resolved], s[parent]))
        out_dst = np.concatenate((mu_u, d[resolved], d[parent]))
        # drop self-loops (mu(min) == max can't happen since mu <= min <
        # max, but resolved hot rows keep v > mu by the same ordering)
        out_src, out_dst = _dedup_edges(out_src, out_dst)
        return pa.table(
            {
                "_src": pa.array(out_src, type=pa.int64()),
                "_dst": pa.array(out_dst, type=pa.int64()),
            }
        )

    return tagged.groupby("_bucket").map_groups(reparent, batch_format="pyarrow")


def _witness_round(edges, num_buckets: int):
    """The complementary half-round: group edges at their MAX endpoint
    (the "witness") and contract each bucket's subgraph with local CC —
    a node that knows two smaller nodes merges them, the case the
    mu-round is blind to (mu only pushes the MIN endpoint's knowledge
    up).  Together the two halves kill both freeze classes exactly the
    way large-star/small-star alternation does.

    Group sizes are naturally bounded: a star's root is the MIN of all
    its edges, so a giant component's root never groups its children
    here; a node's larger-endpoint degree is input-bounded (the LSH pair
    producers cap per-node candidates) and non-increasing through
    rounds, and any sustained hub is absorbed by the mu-round's hot
    broadcast on the next iteration."""

    def orient(batch: pa.Table) -> pa.Table:
        s = batch.column("_src").to_numpy()
        d = batch.column("_dst").to_numpy()
        src = np.maximum(s, d)
        dst = np.minimum(s, d)
        return pa.table(
            {
                "_src": pa.array(src, type=pa.int64()),
                "_dst": pa.array(dst, type=pa.int64()),
                "_bucket": _node_bucket(src, num_buckets),
            }
        )

    def contract(tbl: pa.Table) -> pa.Table:
        s = tbl.column("_src").to_numpy()
        d = tbl.column("_dst").to_numpy()
        nodes, labels = _label_edges(s, d)
        child = nodes != labels
        return pa.table(
            {
                "_src": pa.array(nodes[child], type=pa.int64()),
                "_dst": pa.array(labels[child], type=pa.int64()),
            }
        )

    return (
        edges.map_batches(orient, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(contract, batch_format="pyarrow")
    )


def connected_components(
    pairs,
    left_col: str = "id_a",
    right_col: str = "id_b",
    out_node_col: str = "doc_id",
    out_comp_col: str = "cluster_id",
    method: str = "auto",
    max_driver_edges: int | None = None,
    num_buckets: int | None = None,
    approx_edges: int | None = None,
    max_rounds: int = 64,
    hot_degree_threshold: int | None = None,
    stats_out: dict | None = None,
):
    """Label every pair-graph node with its component's minimum id.

    Returns a Dataset of ``(out_node_col, out_comp_col)`` int64 rows, one
    per distinct node appearing in ``pairs`` (nulls/self-loops dropped;
    un-paired corpus ids are absent by construction).

    ``method``: ``"driver"`` collects the edges (error above
    ``max_driver_edges``); ``"distributed"`` runs skew-safe min-label
    rounds (see :func:`_min_label_round`); ``"auto"`` picks driver when
    the pair table's METADATA count (or ``approx_edges``) fits the cap,
    distributed otherwise — sizing never executes the plan, mirroring
    :func:`rayhll.functions.partitioning.resolve_num_buckets`.

    ``hot_degree_threshold`` (default
    :data:`rayhll.functions.partitioning.TARGET_ROWS_PER_TASK`): nodes
    whose current degree reaches it are broadcast-resolved map-side
    instead of co-locating their edges — the giant-dup-component bound.

    ``left_col`` and ``right_col`` must be integer id columns, else
    ``ValueError`` (``dedup.check_integer_ids``: at once when the schema is
    known without running the plan, else from the first map).
    """
    import ray.data as rd

    from rayhll.pipelines.dedup import check_integer_ids

    if method not in ("auto", "driver", "distributed"):
        raise ValueError(f"method={method!r} not in ('auto', 'driver', 'distributed')")
    cap = MAX_DRIVER_EDGES if max_driver_edges is None else int(max_driver_edges)

    if method == "auto":
        try:
            n_edges = pairs._meta_count()
        except Exception:
            n_edges = None
        if n_edges is None:
            n_edges = approx_edges
        method = "driver" if (n_edges is not None and n_edges <= cap) else "distributed"
        if n_edges is None:
            logger.warning(
                "connected_components: pair table has no metadata count and no "
                "approx_edges hint - assuming it may exceed %d edges and taking "
                "the distributed path (correct at any size; pass method='driver' "
                "for small known-sparse graphs)",
                cap,
            )

    if stats_out is not None:
        stats_out["method"] = method
    for col in (left_col, right_col):
        pairs = check_integer_ids(pairs, col, "connected_components")

    if method == "driver":
        a, b = _edge_arrays(pairs, left_col, right_col, cap)
        nodes, labels = _label_edges(a, b)
        if stats_out is not None:
            stats_out["n_edges"] = int(len(a))
            stats_out["n_nodes"] = int(len(nodes))
        return rd.from_arrow(
            pa.table(
                {
                    out_node_col: pa.array(nodes, type=pa.int64()),
                    out_comp_col: pa.array(labels, type=pa.int64()),
                }
            )
        )

    # ---- distributed: skew-safe min-label rounds over materialized edges
    num_buckets = resolve_num_buckets(
        pairs, num_buckets, rows_per_input_row=2.0, approx_rows=approx_edges
    )
    if hot_degree_threshold is not None and hot_degree_threshold < 1:
        raise ValueError("hot_degree_threshold must be >= 1")

    def normalize(batch: pa.Table) -> pa.Table:
        """Clean the block's edges AND contract them to the block-LOCAL
        star forest (the vectorized driver kernel, bounded by block size):
        a combiner that dedups + shrinks every block to <= nodes-1 edges
        before anything crosses the first exchange, without touching
        cross-block connectivity (the star rounds' job)."""
        a, b = batch.column(left_col), batch.column(right_col)
        mask = pc.and_(
            pc.and_(pc.is_valid(a), pc.is_valid(b)), pc.not_equal(a, b)
        )
        t = pa.table({"_src": a, "_dst": b}).filter(mask)
        an = t.column("_src").cast(pa.int64()).to_numpy()
        bn = t.column("_dst").cast(pa.int64()).to_numpy()
        nodes, labels = _label_edges(an, bn)
        child = nodes != labels
        return pa.table(
            {
                "_src": pa.array(nodes[child], type=pa.int64()),
                "_dst": pa.array(labels[child], type=pa.int64()),
            }
        )

    edges = pairs.map_batches(
        normalize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    prev = None
    rounds = 0
    round_stats: dict = {}
    for rounds in range(1, max_rounds + 1):
        edges = _one_round(edges, num_buckets, hot_degree_threshold, round_stats)
        cur = _edge_stats(edges)
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(
            f"connected_components: no convergence in max_rounds={max_rounds} "
            "min-label rounds (pathological graph? raise max_rounds)"
        )

    if stats_out is not None:
        stats_out["rounds"] = rounds
        stats_out["n_edges"] = prev[0]
        stats_out["hot_nodes"] = round_stats.get("hot_nodes", 0)

    return _emit_labels(edges, num_buckets, out_node_col, out_comp_col)


def _one_round(edges, num_buckets: int, hot_degree_threshold, round_stats: dict):
    """One full (mu + witness) round over MATERIALIZED edges, returning
    materialized edges with a pinned block count."""
    if hot_degree_threshold is not None:
        hot_threshold = int(hot_degree_threshold)
    else:
        # auto: a node is hot once its degree exceeds ~2x the average
        # per-bucket load — as components coalesce, a star's whole edge
        # set funnels to its root's bucket in the mu-round (min endpoint
        # == root), so WITHOUT this the last rounds serialize on one task
        # per giant component long before the fixed memory bound bites.
        # Clamped: the floor keeps tiny graphs off the broadcast path,
        # the ceiling keeps the hot set small (<= 2E/threshold rows) and
        # every cold group under TARGET_ROWS_PER_TASK.  edges is
        # materialized, so count() is metadata.
        rows_cur = edges.count()
        hot_threshold = int(
            min(
                TARGET_ROWS_PER_TASK,
                max(4096, (2 * rows_cur) // max(num_buckets, 1)),
            )
        )
    out = _min_label_round(edges, num_buckets, hot_threshold, round_stats)
    # pin the per-round block count: Ray's sort-based groupby emits as
    # many output blocks as it gets input blocks, and the mu-row union
    # adds more — left alone the block count DOUBLES per round and
    # per-block fixed overhead compounds geometrically (measured 128->1024
    # blocks and 5.6->148 s/round by round 4 on a 100k-edge path).
    # repartition(shuffle=False) is a split/merge pass, not an exchange.
    return _witness_round(out, num_buckets).repartition(num_buckets).materialize()


def _edge_stats(ds) -> tuple[int, int]:
    """(count, checksum) of a materialized edge set: one cheap pass over
    compact rows, reduced as a wrapping-sum fold (order-independent)."""
    import ray

    def block_ck(t: pa.Table) -> pa.Table:
        if "_src" not in t.column_names or not t.num_rows:
            return pa.table(
                {
                    "n": pa.array([0], type=pa.int64()),
                    "ck": pa.array([0], type=pa.uint64()),
                }
            )
        s = t.column("_src").to_numpy()
        d = t.column("_dst").to_numpy()
        return pa.table(
            {
                "n": pa.array([len(s)], type=pa.int64()),
                "ck": pa.array([_edge_checksum(s, d)], type=pa.uint64()),
            }
        )

    parts = ray.get(
        ds.map_batches(block_ck, batch_format="pyarrow").to_arrow_refs()
    )
    n, ck = 0, np.uint64(0)
    with np.errstate(over="ignore"):
        for t in parts:
            if "n" not in t.column_names:
                continue
            n += int(pc.sum(t.column("n")).as_py() or 0)
            ck += np.uint64(t.column("ck").to_numpy().sum(dtype=np.uint64))
    return n, int(ck)


def _emit_labels(edges, num_buckets: int, out_node_col: str, out_comp_col: str):
    """Final labels from a fixpoint star forest (child -> component-min
    root): one node-bucketed distinct pass emitting (child, root) plus the
    roots' own (root, root) rows — the self rows dedup'd PER BATCH so a
    giant component's root ships <= #blocks copies, never #children."""

    def emit_labeled(batch: pa.Table) -> pa.Table:
        s = batch.column("_src").to_numpy()
        d = batch.column("_dst").to_numpy()
        roots = np.unique(d)
        node = np.concatenate((s, roots))
        comp = np.concatenate((d, roots))
        return pa.table(
            {
                out_node_col: pa.array(node, type=pa.int64()),
                out_comp_col: pa.array(comp, type=pa.int64()),
                "_bucket": _node_bucket(node, num_buckets),
            }
        )

    def distinct_nodes(tbl: pa.Table) -> pa.Table:
        node = tbl.column(out_node_col).to_numpy()
        comp = tbl.column(out_comp_col).to_numpy()
        order = np.lexsort((comp, node))
        n, c = node[order], comp[order]
        keep = np.concatenate(([True], n[1:] != n[:-1]))
        # at fixpoint every child has exactly one parent and roots map to
        # themselves (comp sorted within node, min kept = root-self rows
        # never shadow a child row because a root has no parent row)
        return pa.table(
            {
                out_node_col: pa.array(n[keep], type=pa.int64()),
                out_comp_col: pa.array(c[keep], type=pa.int64()),
            }
        )

    return (
        edges.map_batches(emit_labeled, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(distinct_nodes, batch_format="pyarrow")
    )


def connected_components_checkpointed(
    pairs,
    out_dir: str,
    left_col: str = "id_a",
    right_col: str = "id_b",
    out_node_col: str = "doc_id",
    out_comp_col: str = "cluster_id",
    num_buckets: int | None = None,
    approx_edges: int | None = None,
    max_rounds: int = 64,
    hot_degree_threshold: int | None = None,
    stats_out: dict | None = None,
):
    """Round-checkpointed distributed connected components: every round's
    edge multiset persists as parquet under ``out_dir``, so a crashed or
    budget-exhausted run resumes from its last completed round instead of
    re-shuffling the whole pair graph (the dedup-family checkpoint story,
    extended to the closure step — a 100-TB pair graph's CC run is hours
    of exchanges).

    Layout::

        out_dir/cc_manifest.json   settings hash, resolved fanout,
                                   per-round (n, checksum), converged flag
        out_dir/round-NNNN/        the round's edge multiset (round 0 =
                                   the normalized, block-contracted input)
        out_dir/result/            final (node, component) labels

    Resume semantics: same ``out_dir`` + same settings skips completed
    rounds (reads the latest round's parquet); a converged run returns the
    stored result without touching ``pairs``.  Exhausting ``max_rounds``
    raises but KEEPS the completed rounds — rerun with a higher budget to
    continue.  Rounds are a pure function of the previous round, writes
    are atomic (``state.checkpoint.atomic_write``; the manifest commits
    AFTER its round directory, so an orphan round dir from a mid-write
    crash is replaced on resume), and only the last two round dirs are
    retained.  Settings changes under the same ``out_dir`` raise
    (``state.checkpoint.check_fingerprint``)."""
    import shutil

    import ray.data as rd

    from rayhll.state import checkpoint

    if hot_degree_threshold is not None and hot_degree_threshold < 1:
        raise ValueError("hot_degree_threshold must be >= 1")
    manifest_path = os.path.join(out_dir, "cc_manifest.json")
    if num_buckets is None:  # a resumed run keeps the fanout it started with
        num_buckets = (checkpoint.read_record(manifest_path) or {}).get("num_buckets")
    num_buckets = resolve_num_buckets(
        pairs, num_buckets, rows_per_input_row=2.0, approx_rows=approx_edges
    )
    settings = ("cc-v1", left_col, right_col, out_node_col, out_comp_col, hot_degree_threshold)
    fingerprint = {
        "settings_hash": checkpoint.settings_fingerprint(settings), "num_buckets": num_buckets
    }
    # recorded with round 0: a run that dies before it claims nothing
    man = checkpoint.check_fingerprint(
        manifest_path, fingerprint, f"connected_components_checkpointed: {out_dir}",
        progress=("rounds", "converged"), record=False,
    )
    man.setdefault("rounds", [])
    man.setdefault("converged", False)

    def _round_dir(i: int) -> str:
        return os.path.join(out_dir, f"round-{i:04d}")

    result_dir = os.path.join(out_dir, "result")
    if man["converged"]:
        if stats_out is not None:
            stats_out["rounds"] = len(man["rounds"]) - 1
            stats_out["resumed_from"] = "result"
        return rd.read_parquet(result_dir)

    if not man["rounds"]:
        # round 0: normalize + block-contract the pair table once
        def normalize(batch: pa.Table) -> pa.Table:
            a, b = batch.column(left_col), batch.column(right_col)
            mask = pc.and_(
                pc.and_(pc.is_valid(a), pc.is_valid(b)), pc.not_equal(a, b)
            )
            t = pa.table({"_src": a, "_dst": b}).filter(mask)
            an = t.column("_src").cast(pa.int64()).to_numpy()
            bn = t.column("_dst").cast(pa.int64()).to_numpy()
            nodes, labels = _label_edges(an, bn)
            child = nodes != labels
            return pa.table(
                {
                    "_src": pa.array(nodes[child], type=pa.int64()),
                    "_dst": pa.array(labels[child], type=pa.int64()),
                }
            )

        edges = pairs.map_batches(
            normalize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        ).materialize()
        checkpoint.atomic_write(_round_dir(0), edges)
        n, ck = _edge_stats(edges)
        man["rounds"].append({"round": 0, "n": n, "ck": ck})
        checkpoint.atomic_write(manifest_path, man)
    else:
        edges = rd.read_parquet(_round_dir(man["rounds"][-1]["round"])).materialize()

    if stats_out is not None:
        stats_out["resumed_from"] = man["rounds"][-1]["round"]

    round_stats: dict = {}
    while True:
        r = man["rounds"][-1]["round"] + 1
        if r > max_rounds:
            raise RuntimeError(
                f"connected_components_checkpointed: round budget "
                f"max_rounds={max_rounds} exhausted before convergence; "
                f"completed rounds are checkpointed under {out_dir} — rerun "
                "with a higher max_rounds to continue"
            )
        edges = _one_round(edges, num_buckets, hot_degree_threshold, round_stats)
        checkpoint.atomic_write(_round_dir(r), edges)
        n, ck = _edge_stats(edges)
        prev = man["rounds"][-1]
        man["rounds"].append({"round": r, "n": n, "ck": ck})
        checkpoint.atomic_write(manifest_path, man)
        stale = _round_dir(r - 2)
        if r >= 2 and os.path.exists(stale):
            shutil.rmtree(stale)
        if (n, ck) == (prev["n"], prev["ck"]):
            break

    labels = _emit_labels(edges, num_buckets, out_node_col, out_comp_col)
    checkpoint.atomic_write(result_dir, labels)
    man["converged"] = True
    checkpoint.atomic_write(manifest_path, man)
    if stats_out is not None:
        stats_out["rounds"] = len(man["rounds"]) - 1
        stats_out["hot_nodes"] = round_stats.get("hot_nodes", 0)
    return rd.read_parquet(result_dir)


def keep_representatives(
    ds,
    components,
    id_col: str = "doc_id",
    node_col: str = "doc_id",
    comp_col: str = "cluster_id",
    method: str = "broadcast",
    max_ids: int | None = None,
    num_buckets: int | None = None,
):
    """Filter the corpus to one representative per duplicate cluster: keep
    rows whose id is its component's minimum OR appears in no component
    (documents with no duplicate pair are always kept).

    ``method="broadcast"`` (default): collect the NON-representative id set
    (``node != component`` — strictly smaller than the duplicated-doc set)
    once, ``ray.put`` it sorted, and drop matches per batch with a
    vectorized ``searchsorted`` — zero corpus shuffle, the decontam
    membership shape.  Errors above ``max_ids`` (default
    :data:`MAX_DRIVER_EDGES`) pointing at ``method="join"``.

    ``method="join"``: bucketed ANTI join against the non-representative
    ids — shuffles the corpus once but scales to any drop-set size.

    Input contract: the corpus ``id_col`` is non-null on the broadcast
    path (a null id raises — loud, matching the other per-document
    pipelines); the join path keeps null-id rows (anti-join null
    semantics: null keys never match).
    """
    import ray

    if method not in ("broadcast", "join"):
        raise ValueError(f"method={method!r} not in ('broadcast', 'join')")

    def drops_only(t: pa.Table) -> pa.Table:
        mask = pc.not_equal(t.column(node_col), t.column(comp_col))
        return pa.table(
            {node_col: t.column(node_col).filter(mask).cast(pa.int64())}
        )

    drop_ds = components.map_batches(drops_only, batch_format="pyarrow")

    if method == "join":
        from rayhll.functions.join import bucket_equi_join

        renamed = drop_ds.map_batches(
            lambda t: t.rename_columns([id_col]), batch_format="pyarrow"
        )
        return bucket_equi_join(ds, renamed, on=id_col, how="anti", num_buckets=num_buckets)

    cap = MAX_DRIVER_EDGES if max_ids is None else int(max_ids)
    parts = ray.get(drop_ds.to_arrow_refs())
    chunks = [
        c
        for t in parts
        if node_col in t.column_names
        for c in t.column(node_col).chunks
    ]
    total = sum(len(c) for c in chunks)
    if total > cap:
        raise ValueError(
            f"keep_representatives(method='broadcast'): {total} drop ids exceed "
            f"max_ids={cap}; use method='join'"
        )
    drops = np.sort(
        pa.concat_arrays(chunks).to_numpy(zero_copy_only=False)
        if chunks
        else np.empty(0, np.int64)
    )
    drops_ref = ray.put(drops)

    def keep(batch: pa.Table) -> pa.Table:
        # a null would turn to_numpy() float64: nulls kept silently and
        # ids above 2**53 rounded
        if batch.column(id_col).null_count:
            raise ValueError(
                f"keep_representatives(method='broadcast'): {id_col} has null "
                "ids; drop them first or use method='join'"
            )
        arr = ray.get(drops_ref)  # per-worker deserialization cache
        if not len(arr) or not batch.num_rows:
            return batch
        ids = batch.column(id_col).to_numpy()
        pos = np.searchsorted(arr, ids)
        pos[pos == len(arr)] = 0
        hit = arr[pos] == ids
        return batch.filter(pa.array(~hit))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
