"""Congruence-closed E-graph with distinctions.

Two nodes are equivalent iff the terms they represent are identical in
value; the equivalence relation is maintained under congruence: if the
arguments of two applications of the same operator are pairwise equivalent,
the applications are merged.  Distinctions (``T != U``) mark pairs of
classes as *uncombinable*; merging such a pair raises
:class:`InconsistentError`, as does merging two distinct constants.

The implementation uses deferred rebuilding (in the style popularised by
egg): :meth:`merge` only unions the classes and enqueues the losing
root's parent nodes for repair; congruence closure runs in
:meth:`rebuild`, which drains that worklist — re-canonicalising exactly
the nodes an argument of which changed class, instead of rescanning the
whole hashcons.  All read operations rebuild lazily, so clients never
observe a non-congruent graph.

Memory layout (see DESIGN.md §2.6): nodes are integer ids into parallel
flat columns — the canonical :class:`ENode` key, the creation class id,
doubly-linked intra-class chain pointers and a liveness byte — while
class ids index a sort byte-column and the head/tail of the class's
node chain.  Class membership is therefore spliced in O(1) on union,
per-op trigger buckets are append-ordered nid lists with lazy dead-slot
compaction, and :meth:`copy` (the substrate of
:class:`EGraphSnapshot`/:meth:`EGraphSnapshot.restore`) is one flat
copy per column.  Columns are plain lists of ints, or bytearrays for
byte-range values, grown and copied with list operations alone.

Incremental-matching support (Simplify's mod-time idea, section 5 of the
paper's substrate): every structural change bumps :attr:`version` and
stamps the touched class in a per-class mod-time table, so
:meth:`changed_since` / :meth:`dirty_cone` let the matcher visit only the
classes that could possibly yield a new match since a previous round.
The matcher's hot loops read the columns directly through
:meth:`flat_view`, so a class walk is pointer-chasing over int lists
with no per-read canonicalisation (alive keys are canonical after
:meth:`rebuild`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.egraph.unionfind import UnionFind
from repro.terms.ops import Sort
from repro.terms.term import Term

_SORT_LIST: Tuple[Sort, ...] = tuple(Sort)
_SORT_INDEX: Dict[Sort, int] = {s: i for i, s in enumerate(_SORT_LIST)}

_NIL = -1  # chain terminator / empty-class head


def sort_code(sort: Sort) -> int:
    """The byte :class:`BuildView.sort_col` stores for ``sort``."""
    return _SORT_INDEX[sort]


class InconsistentError(Exception):
    """Raised when an assertion would make the E-graph inconsistent."""


class ENode(NamedTuple):
    """One node of the E-graph: an operator applied to argument *classes*.

    Constants carry their value in ``value``; inputs carry their name in
    ``name``.  ENodes handed out by the public API are canonicalised
    (argument class ids are union-find roots).
    """

    op: str
    args: Tuple[int, ...]
    value: Optional[int]
    name: Optional[str]

    def pretty(self) -> str:
        if self.op == "const":
            return str(self.value)
        if self.op == "input":
            return str(self.name)
        return "(%s %s)" % (self.op, " ".join("c%d" % a for a in self.args))


class FlatView(NamedTuple):
    """Read-only aliases of the graph's flat columns, post-rebuild.

    Handed to the matcher so its inner loops index the columns directly.
    Callers must not mutate the columns and must not hold the view
    across graph mutations (a rebuild may splice chains and kill nodes).
    """

    node_key: List[ENode]  # nid -> canonical key
    node_class: List[int]  # nid -> class id at creation (find() for root)
    nid_next: List[int]  # nid -> next nid in its class chain, _NIL at end
    cls_head: List[int]  # class id -> first nid of chain (_NIL if merged)
    consts: Dict[int, int]  # class root -> constant value (sparse)


class BuildView(NamedTuple):
    """Aliases of the tables :meth:`EGraph.add_enode` reads, as they stand.

    Unlike :class:`FlatView`, taking one does not rebuild: the hashcons
    may hold keys still awaiting congruence repair, which is exactly
    what ``add_enode`` probes.  The tables are mutated in place, never
    replaced, so the view stays current for the graph's lifetime.
    Callers must not mutate them.
    """

    hashcons: Dict[ENode, int]  # canonical-at-insertion key -> nid
    node_class: List[int]  # nid -> class id at creation
    sort_col: bytearray  # class root -> sort code (see sort_code)
    consts: Dict[int, int]  # class root -> constant value (sparse)
    find: Callable[[int], int]  # the union-find's find


class EGraph:
    """The E-graph proper.

    Typical use::

        eg = EGraph()
        c = eg.add_term(term)          # add a goal term
        eg.merge(c1, c2)               # assert an equality (axiom instance)
        eg.assert_distinct(c1, c2)     # assert a distinction
        for cid in eg.classes(): ...   # enumerate equivalence classes
    """

    def __init__(self) -> None:
        self._uf = UnionFind()
        self._n_classes = 0
        # Per-class columns, indexed by class id (grown by make_set).
        self._sort_col = bytearray()
        self._cls_head: List[int] = []
        self._cls_tail: List[int] = []
        # Sparse per-class facts, keyed by root.
        self._consts: Dict[int, int] = {}
        self._distinct: Dict[int, Set[int]] = {}
        # Per-node columns, indexed by nid.
        self._node_key: List[ENode] = []
        self._node_class: List[int] = []
        self._nid_next: List[int] = []
        self._nid_prev: List[int] = []
        self._node_alive = bytearray()
        # key -> nid; holds exactly the alive nodes.
        self._hashcons: Dict[ENode, int] = {}
        # op -> append-ordered nids (may hold dead slots, counted in
        # _op_dead and compacted once they dominate a bucket).
        self._op_nodes: Dict[str, List[int]] = {}
        self._op_dead: Dict[str, int] = {}
        # class root -> nids using the class as an argument.  May hold
        # dead or duplicate entries (pruned opportunistically); None
        # until first needed (restored copies re-derive lazily).
        self._class_parents: Optional[Dict[int, List[int]]] = {}
        # Congruence-repair worklist: nids whose argument classes lost a
        # union since their key was last canonicalised.
        self._repair: List[int] = []
        self._node_term: Dict[ENode, Term] = {}
        self._term_class: Dict[Term, int] = {}
        self.version = 0  # bumped on every structural change
        self.merges = 0  # successful unions (incl. congruence closure)
        # Mod-time journal: (version, class id) per structural change, in
        # version order, so "what changed since stamp S" is a bisect plus
        # a suffix scan — O(changes since S), not O(classes).
        self._touch_log: List[Tuple[int, int]] = []

    def copy(self) -> "EGraph":
        """An independent graph with the same classes, nodes and facts.

        Terms and enodes are immutable and shared; all mutable structure
        is duplicated with one flat copy per column/table, so mutating
        the copy never affects the original.  The saturation cache
        relies on this to hand out working graphs while keeping a
        pristine master.  Copies are not metered: what they cost shows
        in the process's peak RSS.
        """
        out = EGraph.__new__(EGraph)
        out._uf = self._uf.copy()
        out._n_classes = self._n_classes
        out._sort_col = bytearray(self._sort_col)
        out._cls_head = list(self._cls_head)
        out._cls_tail = list(self._cls_tail)
        out._consts = dict(self._consts)
        out._distinct = {cid: set(s) for cid, s in self._distinct.items()}
        out._node_key = list(self._node_key)
        out._node_class = list(self._node_class)
        out._nid_next = list(self._nid_next)
        out._nid_prev = list(self._nid_prev)
        out._node_alive = bytearray(self._node_alive)
        out._hashcons = dict(self._hashcons)
        out._op_nodes = {op: list(v) for op, v in self._op_nodes.items()}
        out._op_dead = dict(self._op_dead)
        out._class_parents = None
        out._repair = list(self._repair)
        out._node_term = dict(self._node_term)
        out._term_class = dict(self._term_class)
        out.version = self.version
        out.merges = self.merges
        out._touch_log = list(self._touch_log)
        return out

    def snapshot(self) -> "EGraphSnapshot":
        """An immutable image of the rebuilt graph, cheap to re-materialise."""
        self.rebuild()
        return EGraphSnapshot(self)

    # -- introspection ------------------------------------------------------

    def find(self, cid: int) -> int:
        return self._uf.find(cid)

    def classes(self) -> Iterator[int]:
        """All equivalence-class roots."""
        self.rebuild()
        head = self._cls_head
        return iter([cid for cid in range(len(head)) if head[cid] != _NIL])

    def class_nids(self, cid: int) -> List[int]:
        """The node ids of ``cid``'s class, in chain (creation) order."""
        self.rebuild()
        out = []
        append = out.append
        nxt = self._nid_next
        nid = self._cls_head[self._uf.find(cid)]
        while nid != _NIL:
            append(nid)
            nid = nxt[nid]
        return out

    def enodes(self, cid: int) -> List[ENode]:
        """The canonicalised nodes of ``cid``'s class."""
        key = self._node_key
        return [key[nid] for nid in self.class_nids(cid)]

    def class_index(self) -> Dict[int, List[ENode]]:
        """Materialised view: class root -> canonical nodes.

        Built fresh per call from the class chains; prefer
        :meth:`flat_view` plus chain walks on hot paths.
        """
        self.rebuild()
        key = self._node_key
        nxt = self._nid_next
        head = self._cls_head
        index: Dict[int, List[ENode]] = {}
        for cid in range(len(head)):
            nid = head[cid]
            if nid == _NIL:
                continue
            nodes = []
            append = nodes.append
            while nid != _NIL:
                append(key[nid])
                nid = nxt[nid]
            index[cid] = nodes
        return index

    def flat_view(self) -> FlatView:
        """The rebuilt graph's flat columns, for matcher inner loops.

        After :meth:`rebuild`, every alive node's key is canonical
        (argument ids are roots), so consumers can use ``node.args``
        directly without re-canonicalising.
        """
        self.rebuild()
        return FlatView(
            node_key=self._node_key,
            node_class=self._node_class,
            nid_next=self._nid_next,
            cls_head=self._cls_head,
            consts=self._consts,
        )

    def build_view(self) -> BuildView:
        """The raw tables an instance builder probes (no rebuild)."""
        return BuildView(
            hashcons=self._hashcons,
            node_class=self._node_class,
            sort_col=self._sort_col,
            consts=self._consts,
            find=self._uf.find,
        )

    def all_nodes(self) -> Iterator[Tuple[ENode, int]]:
        """All (canonical enode, class root) pairs."""
        self.rebuild()
        find = self._uf.find
        node_class = self._node_class
        for node, nid in self._hashcons.items():
            yield node, find(node_class[nid])

    def op_nids(self, op: str) -> List[int]:
        """Alive node ids applying ``op``, in creation order.

        Returns the graph's own bucket when it has no dead slots —
        callers must treat the result as read-only and must not hold it
        across mutations.
        """
        self.rebuild()
        bucket = self._op_nodes.get(op)
        if bucket is None:
            return []
        if self._op_dead.get(op):
            alive = self._node_alive
            return [nid for nid in bucket if alive[nid]]
        return bucket

    def nodes_with_op(self, op: str) -> List[Tuple[ENode, int]]:
        """All (canonical enode, class root) pairs whose operator is ``op``.

        The returned class ids are roots: rebuild repairs every node an
        argument of which changed, so between rebuilds no entry can go
        stale.
        """
        nids = self.op_nids(op)
        key = self._node_key
        node_class = self._node_class
        roots = self._uf.find_many([node_class[nid] for nid in nids])
        return list(zip((key[nid] for nid in nids), roots))

    def may_have_op(self, op: str) -> bool:
        """False only if no enode applies ``op``; never rebuilds.

        Read off the raw bucket: congruence repair only kills nodes, so
        a bucket with no live node before a rebuild has none after it.
        """
        bucket = self._op_nodes.get(op)
        return bucket is not None and len(bucket) > self._op_dead.get(op, 0)

    def op_count(self, op: str) -> int:
        """How many enodes apply ``op`` (the size of its trigger bucket)."""
        self.rebuild()
        bucket = self._op_nodes.get(op)
        if bucket is None:
            return 0
        return len(bucket) - self._op_dead.get(op, 0)

    def class_sort(self, cid: int) -> Sort:
        return _SORT_LIST[self._sort_col[self._uf.find(cid)]]

    def const_of(self, cid: int) -> Optional[int]:
        """The constant value of the class, if it contains a constant node."""
        return self._consts.get(self._uf.find(cid))

    def witness(self, node: ENode) -> Optional[Term]:
        """A term that was interned as this enode, if any (for display)."""
        return self._node_term.get(node)

    def num_classes(self) -> int:
        self.rebuild()
        return self._n_classes

    def num_enodes(self) -> int:
        self.rebuild()
        return len(self._hashcons)

    def enodes_at_least(self, bound: int) -> bool:
        """Exact ``num_enodes() >= bound``, cheap in the common case.

        Between rebuilds the hashcons may hold not-yet-merged congruent
        twins but never misses a node — repair only removes entries — so
        its raw size is an upper bound on the canonical count.  When
        that bound is already below ``bound`` the answer is settled
        without paying for congruence closure; saturation's per-instance
        budget check lives on this fast path until the graph nears the
        budget.
        """
        if len(self._hashcons) < bound:
            return False
        self.rebuild()
        return len(self._hashcons) >= bound

    def are_equal(self, a: int, b: int) -> bool:
        # Unions are never undone, so an already-equal answer cannot be
        # changed by congruence closure; only a "not equal yet" needs the
        # deferred closure run before it is trustworthy.
        if self._uf.same(a, b):
            return True
        self.rebuild()
        return self._uf.same(a, b)

    def are_distinct(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` are constrained to be unequal."""
        self.rebuild()
        return self._distinct_now(a, b)

    # -- incremental matching support ---------------------------------------

    def changed_since(self, stamp: int) -> Set[int]:
        """Roots of classes directly changed after ``version == stamp``.

        Classes merged away since then are reported through their
        surviving root (``find`` maps dead ids forward).
        """
        self.rebuild()
        log = self._touch_log
        start = bisect_left(log, (stamp + 1, -1))
        return set(self._uf.find_many([cid for _version, cid in log[start:]]))

    def dirty_cone(self, stamp: int) -> Set[int]:
        """Classes whose match sets may have changed since ``stamp``.

        The directly-changed roots plus their ancestor closure: a match
        rooted at class C can only change if C or some class reachable
        from C through argument edges changed, so C is in the cone of the
        change.  Computed once per saturation round, not per touch.
        """
        cone = self.changed_since(stamp)
        self._cone_closure(cone, list(cone), None)
        return cone

    def extend_cone(self, cone: Set[int], stamp: int) -> Set[int]:
        """Grow ``cone`` in place to cover changes after ``version == stamp``.

        Given a cone that was complete as of ``stamp``, adds the roots
        touched since plus their ancestor closure, and returns the classes
        whose contents may differ from what the caller last saw: the
        touched roots (even if already in the cone — a merge can change a
        member's node set) plus every class the closure newly added.
        Merged-away ids are left behind as harmless dead entries.  This
        makes mid-round cone refreshes O(changes since the last refresh),
        not O(cone).
        """
        self.rebuild()
        log = self._touch_log
        start = bisect_left(log, (stamp + 1, -1))
        fresh = set(
            self._uf.find_many([cid for _version, cid in log[start:]])
        )
        if not fresh:
            return fresh
        cone.update(fresh)
        # BFS from every touched root, even ones already in the cone: a
        # merge can graft new parent edges onto an old cone member.
        self._cone_closure(cone, list(fresh), fresh)
        return fresh

    def _cone_closure(
        self, cone: Set[int], work: List[int], fresh: Optional[Set[int]]
    ) -> None:
        """Close ``cone`` upward over parent edges, starting from ``work``.

        Newly added roots are also recorded in ``fresh`` when given.
        Dead parent entries encountered on the walk are swap-removed —
        parent lists carry no order, so the O(1) removal is safe.
        """
        parents = self._ensure_parents()
        find = self._uf.find
        alive = self._node_alive
        node_class = self._node_class
        while work:
            cid = work.pop()
            plist = parents.get(cid)
            if not plist:
                continue
            i = 0
            while i < len(plist):
                pnid = plist[i]
                if not alive[pnid]:
                    # Swap the last entry into slot i and re-read slot i.
                    last = plist.pop()
                    if i < len(plist):
                        plist[i] = last
                    continue
                i += 1
                root = find(node_class[pnid])
                if root not in cone:
                    cone.add(root)
                    if fresh is not None:
                        fresh.add(root)
                    work.append(root)

    # -- construction ------------------------------------------------------

    def add_term(self, term: Term) -> int:
        """Intern ``term`` (and all its subterms); return its class root."""
        cached = self._term_class.get(term)
        if cached is not None:
            return self._uf.find(cached)
        arg_cids = tuple(self.add_term(a) for a in term.args)
        cid = self.add_enode(
            term.op, arg_cids, value=term.value, name=term.name, sort=term.sort
        )
        self._term_class[term] = cid
        node = self._canon(ENode(term.op, arg_cids, term.value, term.name))
        self._node_term.setdefault(node, term)
        return cid

    def add_enode(
        self,
        op: str,
        args: Tuple[int, ...],
        value: Optional[int] = None,
        name: Optional[str] = None,
        sort: Sort = Sort.INT,
    ) -> int:
        """Intern one enode; returns its (possibly pre-existing) class root."""
        find = self._uf.find
        node = self._canon(ENode(op, tuple(args), value, name))
        existing = self._hashcons.get(node)
        if existing is not None:
            return find(self._node_class[existing])
        cid = self._uf.make_set()
        nid = len(self._node_key)
        self._sort_col.append(_SORT_INDEX[sort])
        self._cls_head.append(nid)
        self._cls_tail.append(nid)
        self._node_key.append(node)
        self._node_class.append(cid)
        self._nid_next.append(_NIL)
        self._nid_prev.append(_NIL)
        self._node_alive.append(1)
        self._n_classes += 1
        if op == "const":
            self._consts[cid] = value
        self._hashcons[node] = nid
        self._op_nodes.setdefault(op, []).append(nid)
        parents = self._class_parents
        if parents is not None:
            for arg in set(node.args):
                parents.setdefault(arg, []).append(nid)
        self.version += 1
        self._touch_log.append((self.version, cid))
        return cid

    # -- assertions ----------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Assert ``a = b``.  Congruence closure is deferred to the next read."""
        root = self._union(a, b)
        return root

    def assert_distinct(self, a: int, b: int) -> None:
        """Assert ``a != b`` (their classes become uncombinable)."""
        self.rebuild()
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise InconsistentError(
                "distinction asserted between already-equal classes"
            )
        self._distinct.setdefault(ra, set()).add(rb)
        self._distinct.setdefault(rb, set()).add(ra)
        self.version += 1
        self._touch_log.append((self.version, ra))
        self._touch_log.append((self.version, rb))

    # -- congruence closure --------------------------------------------------

    def rebuild(self) -> None:
        """Drain the repair worklist until congruence closure is reached.

        Each queued nid re-canonicalises its key; keys colliding in the
        hashcons are congruent twins, whose classes are unioned (which
        enqueues *their* argument-users in turn).  Nodes never touched
        by a union are never re-examined — the pass is O(affected), not
        O(graph).
        """
        queue = self._repair
        if not queue:
            return
        find = self._uf.find
        hashcons = self._hashcons
        node_key = self._node_key
        node_class = self._node_class
        alive = self._node_alive
        node_term = self._node_term
        while queue:
            nid = queue.pop()
            if not alive[nid]:
                continue
            node = node_key[nid]
            args = node.args
            changed = False
            canon_args = []
            for a in args:
                r = find(a)
                if r != a:
                    changed = True
                canon_args.append(r)
            if not changed:
                continue
            canon = ENode(node.op, tuple(canon_args), node.value, node.name)
            term = node_term.get(node)
            if term is not None:
                node_term.setdefault(canon, term)
            del hashcons[node]
            other = hashcons.get(canon)
            if other is not None:
                # Congruent twins discovered: merge their classes.
                self._kill_node(nid)
                self._union(node_class[other], node_class[nid])
            else:
                hashcons[canon] = nid
                node_key[nid] = canon
                parents = self._class_parents
                if parents is not None:
                    seen: Set[int] = set()
                    for old_arg, new_arg in zip(args, canon_args):
                        if old_arg != new_arg and new_arg not in seen:
                            seen.add(new_arg)
                            parents.setdefault(new_arg, []).append(nid)

    # -- helpers -------------------------------------------------------------

    def _kill_node(self, nid: int) -> None:
        """Unlink a congruent-twin duplicate from every live structure."""
        self._node_alive[nid] = 0
        root = self._uf.find(self._node_class[nid])
        prv = self._nid_prev[nid]
        nxt = self._nid_next[nid]
        if prv != _NIL:
            self._nid_next[prv] = nxt
        else:
            self._cls_head[root] = nxt
        if nxt != _NIL:
            self._nid_prev[nxt] = prv
        else:
            self._cls_tail[root] = prv
        self._nid_next[nid] = _NIL
        self._nid_prev[nid] = _NIL
        op = self._node_key[nid].op
        dead = self._op_dead.get(op, 0) + 1
        bucket = self._op_nodes[op]
        if 2 * dead > len(bucket):
            alive = self._node_alive
            bucket[:] = [x for x in bucket if alive[x]]
            self._op_dead[op] = 0
        else:
            self._op_dead[op] = dead

    def _ensure_parents(self) -> Dict[int, List[int]]:
        parents = self._class_parents
        if parents is None:
            find = self._uf.find
            parents = {}
            for node, nid in self._hashcons.items():
                for arg in set(node.args):
                    parents.setdefault(find(arg), []).append(nid)
            self._class_parents = parents
        return parents

    def _distinct_now(self, a: int, b: int) -> bool:
        find = self._uf.find
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        da = self._distinct.get(ra)
        if da and any(find(x) == rb for x in da):
            return True
        db = self._distinct.get(rb)
        if db and any(find(x) == ra for x in db):
            return True
        ca = self._consts.get(ra)
        cb = self._consts.get(rb)
        return ca is not None and cb is not None and ca != cb

    def _union(self, a: int, b: int) -> int:
        uf = self._uf
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return ra
        if self._distinct_now(ra, rb):
            raise InconsistentError(
                "merge of classes c%d and c%d violates a distinction" % (ra, rb)
            )
        if self._sort_col[ra] != self._sort_col[rb]:
            raise InconsistentError(
                "merge of classes with different sorts (%s vs %s)"
                % (
                    _SORT_LIST[self._sort_col[ra]].value,
                    _SORT_LIST[self._sort_col[rb]].value,
                )
            )
        # Parent lists must exist before the union: the losing root's
        # list is what seeds the congruence-repair worklist.
        parents = self._ensure_parents()
        new_root = uf.union(ra, rb)
        old_root = rb if new_root == ra else ra
        # Splice the losing class's node chain onto the winner — O(1).
        old_head = self._cls_head[old_root]
        if old_head != _NIL:
            new_tail = self._cls_tail[new_root]
            if new_tail == _NIL:
                self._cls_head[new_root] = old_head
            else:
                self._nid_next[new_tail] = old_head
                self._nid_prev[old_head] = new_tail
            self._cls_tail[new_root] = self._cls_tail[old_root]
            self._cls_head[old_root] = _NIL
            self._cls_tail[old_root] = _NIL
        self._n_classes -= 1
        dropped_const = self._consts.pop(old_root, None)
        if dropped_const is not None:
            self._consts[new_root] = dropped_const
        dropped_distinct = self._distinct.pop(old_root, None)
        if dropped_distinct:
            self._distinct.setdefault(new_root, set()).update(dropped_distinct)
        dropped_parents = parents.pop(old_root, None)
        if dropped_parents:
            # Every node using the losing class as an argument now has a
            # stale key: queue it for repair and move its parent record.
            self._repair.extend(dropped_parents)
            existing = parents.get(new_root)
            if existing is None:
                parents[new_root] = dropped_parents
            else:
                existing.extend(dropped_parents)
        self.version += 1
        self.merges += 1
        self._touch_log.append((self.version, new_root))
        return new_root

    def _canon(self, node: ENode) -> ENode:
        args = tuple(map(self._uf.find, node.args))
        if args == node.args:
            return node
        return ENode(node.op, args, node.value, node.name)


class EGraphSnapshot:
    """An immutable, rebuilt image of an :class:`EGraph`.

    Snapshots decouple the saturation cache from working graphs: the
    pipeline saturates once, snapshots the result, and every later
    compilation :meth:`restore`\\ s an independent working graph with one
    flat copy per column instead of re-running saturation or deep
    per-class reconstruction.  The wrapped master is private and never
    mutated after construction.
    """

    __slots__ = ("_master",)

    def __init__(self, source: EGraph) -> None:
        source.rebuild()
        self._master = source.copy()

    def restore(self) -> EGraph:
        """A fresh, independently mutable graph equal to the snapshot."""
        return self._master.copy()
