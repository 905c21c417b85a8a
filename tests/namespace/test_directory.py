"""Directories: entries, fragmentation, authority inheritance."""

import pytest

from repro.namespace.directory import Directory
from repro.namespace.inode import Inode
from repro.namespace.tree import Namespace


def make_root(split_size=10, split_bits=3):
    root = Directory(Inode(name="", is_dir=True), parent=None,
                     split_size=split_size, split_bits=split_bits)
    root.set_auth(0)
    return root


def add_child_dir(parent, name):
    inode = Inode(name=name, is_dir=True)
    child = Directory(inode, parent, split_size=parent.split_size,
                      split_bits=parent.split_bits)
    parent.link(inode)
    parent.subdirs[name] = child
    return child


class TestEntries:
    def test_link_and_lookup(self):
        root = make_root()
        inode = Inode(name="f", is_dir=False)
        root.link(inode)
        assert root.lookup("f") is inode
        assert root.entry_count() == 1

    def test_duplicate_link_rejected(self):
        root = make_root()
        root.link(Inode(name="f", is_dir=False))
        with pytest.raises(FileExistsError):
            root.link(Inode(name="f", is_dir=False))

    def test_unlink(self):
        root = make_root()
        root.link(Inode(name="f", is_dir=False))
        root.unlink("f")
        assert root.lookup("f") is None

    def test_unlink_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            make_root().unlink("ghost")

    def test_readdir_spans_frags(self):
        root = make_root(split_size=1000)
        for i in range(50):
            root.link(Inode(name=f"f{i}", is_dir=False))
        root.fragment(extra_bits=3)
        names = {inode.name for inode in root.readdir()}
        assert names == {f"f{i}" for i in range(50)}


class TestFragmentation:
    def test_needs_fragmentation_threshold(self):
        root = make_root(split_size=5)
        for i in range(4):
            root.link(Inode(name=f"f{i}", is_dir=False))
        assert not root.needs_fragmentation()
        root.link(Inode(name="f4", is_dir=False))
        assert root.needs_fragmentation()

    def test_fragment_splits_into_2_pow_bits(self):
        root = make_root(split_bits=3)
        for i in range(40):
            root.link(Inode(name=f"f{i}", is_dir=False))
        root.fragment()
        assert len(root.frags) == 8

    def test_fragment_preserves_entries(self):
        root = make_root()
        for i in range(64):
            root.link(Inode(name=f"f{i}", is_dir=False))
        root.fragment()
        assert root.entry_count() == 64
        for i in range(64):
            assert root.lookup(f"f{i}") is not None

    def test_fragment_redistributes_popularity(self):
        root = make_root()
        for i in range(32):
            root.link(Inode(name=f"f{i}", is_dir=False))
        frag = next(iter(root.frags.values()))
        Namespace.record_frag_hit(frag, "IWR", 10.0, 100.0)
        root.fragment(now=10.0)
        total = sum(f.load_snapshot(10.0)["IWR"] for f in root.frags.values())
        assert total == pytest.approx(100.0, rel=0.01)

    def test_fragment_preserves_decay_clock(self):
        """Regression: splitting at time t must not rewind counters to t=0
        (that made frag loads decay 2^(t/hl)-fold on first read)."""
        root = make_root()
        for i in range(16):
            root.link(Inode(name=f"f{i}", is_dir=False))
        frag = next(iter(root.frags.values()))
        Namespace.record_frag_hit(frag, "IWR", 100.0, 64.0)
        root.fragment(now=100.0)
        total = sum(f.load_snapshot(100.0)["IWR"]
                    for f in root.frags.values())
        assert total == pytest.approx(64.0, rel=0.01)

    def test_fragment_inherits_frag_auth(self):
        root = make_root()
        for i in range(16):
            root.link(Inode(name=f"f{i}", is_dir=False))
        frag = next(iter(root.frags.values()))
        frag.set_auth(3)
        root.fragment()
        assert all(f.explicit_auth == 3 for f in root.frags.values())

    def test_foreign_frag_rejected(self):
        root = make_root()
        other = make_root()
        foreign = next(iter(other.frags.values()))
        with pytest.raises(ValueError):
            root.fragment(frag=foreign)


class TestAuthority:
    def test_children_inherit(self):
        root = make_root()
        child = add_child_dir(root, "a")
        grandchild = add_child_dir(child, "b")
        assert grandchild.authority() == 0

    def test_explicit_auth_creates_boundary(self):
        root = make_root()
        child = add_child_dir(root, "a")
        child.set_auth(2)
        grandchild = add_child_dir(child, "b")
        assert grandchild.authority() == 2
        assert child.is_subtree_root()

    def test_clear_descendant_auth(self):
        root = make_root()
        child = add_child_dir(root, "a")
        grandchild = add_child_dir(child, "b")
        grandchild.set_auth(3)
        child.set_auth(1)
        child.clear_descendant_auth()
        assert grandchild.authority() == 1

    def test_root_requires_auth(self):
        root = make_root()
        with pytest.raises(ValueError):
            root.set_auth(None)


class TestPaths:
    def test_path_construction(self):
        root = make_root()
        a = add_child_dir(root, "a")
        b = add_child_dir(a, "b")
        assert root.path() == "/"
        assert a.path() == "/a"
        assert b.path() == "/a/b"

    def test_depth(self):
        root = make_root()
        a = add_child_dir(root, "a")
        b = add_child_dir(a, "b")
        assert root.depth() == 0
        assert b.depth() == 2

    def test_walk_covers_tree(self):
        root = make_root()
        a = add_child_dir(root, "a")
        add_child_dir(a, "b")
        add_child_dir(root, "c")
        assert {d.path() for d in root.walk()} == {"/", "/a", "/a/b", "/c"}

    def test_ancestors(self):
        root = make_root()
        a = add_child_dir(root, "a")
        b = add_child_dir(a, "b")
        assert [d.path() for d in b.ancestors()] == ["/a", "/"]
