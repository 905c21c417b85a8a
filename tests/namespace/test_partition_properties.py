"""Property-based invariants of the namespace partitioning machinery."""

from hypothesis import given, settings, strategies as st

from repro.namespace.directory import Directory
from repro.namespace.dirfrag import name_hash
from repro.namespace.inode import Inode
from repro.namespace.tree import Namespace

names = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1, max_size=10)


class TestFragCoverageProperties:
    @settings(max_examples=40, deadline=None)
    @given(entries=st.lists(names, min_size=1, max_size=60, unique=True),
           bits=st.integers(min_value=1, max_value=4))
    def test_fragmentation_preserves_all_entries(self, entries, bits):
        root = Directory(Inode(name="", is_dir=True), parent=None,
                         split_size=10**9)
        root.set_auth(0)
        for name in entries:
            root.link(Inode(name=name, is_dir=False))
        root.fragment(extra_bits=bits)
        assert root.entry_count() == len(entries)
        for name in entries:
            assert root.lookup(name) is not None

    @settings(max_examples=40, deadline=None)
    @given(entries=st.lists(names, min_size=1, max_size=60, unique=True),
           bits=st.integers(min_value=1, max_value=3),
           more_bits=st.integers(min_value=1, max_value=2))
    def test_nested_fragmentation_still_covers(self, entries, bits,
                                               more_bits):
        root = Directory(Inode(name="", is_dir=True), parent=None,
                         split_size=10**9)
        root.set_auth(0)
        for name in entries:
            root.link(Inode(name=name, is_dir=False))
        root.fragment(extra_bits=bits)
        # Split the biggest child frag again (CephFS splits frags, not
        # whole directories, after the first fragmentation).
        biggest = max(root.frags.values(), key=len)
        root.fragment(frag=biggest, extra_bits=more_bits)
        assert root.entry_count() == len(entries)
        # Every name maps to exactly one frag and lookup agrees.
        for name in entries:
            hashed = name_hash(name)
            owners = [f for f in root.frags.values()
                      if f.frag_id.contains(hashed)]
            assert len(owners) == 1
            assert root.lookup(name) is not None

    @settings(max_examples=30, deadline=None)
    @given(entries=st.lists(names, min_size=1, max_size=40, unique=True),
           auths=st.lists(st.integers(0, 3), min_size=8, max_size=8))
    def test_every_path_has_exactly_one_authority(self, entries, auths):
        namespace = Namespace(split_size=10**9)
        d = namespace.mkdirs("/d")
        for name in entries:
            namespace.create(f"/d/{name}")
        d.fragment(extra_bits=3)
        for frag, auth in zip(d.frags.values(), auths):
            frag.set_auth(auth)
        for name in entries:
            rank = namespace.authority_for_path(f"/d/{name}")
            assert rank in set(auths)
            # And it is the authority of the containing frag.
            frag = d.frag_for_name(name)
            assert frag.authority() == rank


class TestLoadAccountingProperties:
    @settings(max_examples=30, deadline=None)
    @given(hits=st.lists(st.sampled_from(["IRD", "IWR", "READDIR"]),
                         min_size=1, max_size=50))
    def test_root_aggregates_all_descendant_hits(self, hits):
        namespace = Namespace(half_life=10**6)  # negligible decay
        a = namespace.mkdirs("/a")
        b = namespace.mkdirs("/a/b")
        for index, kind in enumerate(hits):
            target = a if index % 2 == 0 else b
            namespace.record_hit(target, None, kind, now=0.0)
        total_at_root = sum(
            namespace.root.load_snapshot(0.0)[kind]
            for kind in ("IRD", "IWR", "READDIR")
        )
        assert round(total_at_root) == len(hits)

    @settings(max_examples=30, deadline=None)
    @given(per_rank=st.lists(st.integers(0, 20), min_size=2, max_size=4))
    def test_metadata_load_partitions_by_rank(self, per_rank):
        """Sum over ranks of metadata_load == total load recorded."""
        namespace = Namespace(half_life=10**6, split_size=10**9)
        for rank, count in enumerate(per_rank):
            d = namespace.mkdirs(f"/r{rank}")
            d.set_auth(rank)
            for _ in range(count):
                namespace.record_hit(d, None, "IWR", now=0.0)
        loads = [
            namespace.metadata_load(rank, lambda s: s["IWR"], now=0.0)
            for rank in range(len(per_rank))
        ]
        assert round(sum(loads)) == sum(per_rank)
        for rank, count in enumerate(per_rank):
            assert round(loads[rank]) == count
