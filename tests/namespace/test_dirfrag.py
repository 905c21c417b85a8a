"""Dirfrags: frag identifiers, hashing coverage, entry management."""

import pytest
from hypothesis import given, strategies as st

from repro.namespace.directory import Directory
from repro.namespace.dirfrag import DirFrag, FragId, name_hash
from repro.namespace.inode import Inode
from repro.namespace.tree import Namespace


def make_dir(split_size=100):
    inode = Inode(name="d", is_dir=True)
    directory = Directory(inode, parent=None, split_size=split_size)
    directory.set_auth(0)
    return directory


class TestFragId:
    def test_root_frag_contains_everything(self):
        root = FragId(0, 0)
        for name in ("a", "zz", "file123"):
            assert root.contains(name_hash(name))

    def test_split_produces_disjoint_cover(self):
        root = FragId(0, 0)
        children = root.split(3)
        assert len(children) == 8
        for name in (f"f{i}" for i in range(200)):
            hashed = name_hash(name)
            owners = [c for c in children if c.contains(hashed)]
            assert len(owners) == 1

    def test_nested_split(self):
        child = FragId(3, 5)
        grandchildren = child.split(1)
        assert len(grandchildren) == 2
        for grandchild in grandchildren:
            assert child.is_ancestor_of(grandchild)

    def test_is_ancestor_of_self(self):
        frag = FragId(2, 1)
        assert frag.is_ancestor_of(frag)

    def test_not_ancestor_of_sibling(self):
        a, b = FragId(1, 0), FragId(1, 1)
        assert not a.is_ancestor_of(b)

    def test_equality_and_hash(self):
        assert FragId(2, 3) == FragId(2, 3)
        assert hash(FragId(2, 3)) == hash(FragId(2, 3))
        assert FragId(2, 3) != FragId(3, 3)

    def test_value_must_fit_bits(self):
        with pytest.raises(ValueError):
            FragId(2, 4)

    def test_split_requires_bits(self):
        with pytest.raises(ValueError):
            FragId(0, 0).split(0)

    @given(bits=st.integers(min_value=1, max_value=6),
           names=st.lists(st.text(min_size=1, max_size=12), min_size=1,
                          max_size=50))
    def test_split_partition_property(self, bits, names):
        """After any split, every name lands in exactly one child frag."""
        children = FragId(0, 0).split(bits)
        for name in names:
            hashed = name_hash(name)
            assert sum(1 for c in children if c.contains(hashed)) == 1


class TestDirFrag:
    def test_add_and_get(self):
        directory = make_dir()
        frag = next(iter(directory.frags.values()))
        inode = Inode(name="f1", is_dir=False)
        frag.add(inode)
        assert frag.get("f1") is inode
        assert len(frag) == 1

    def test_add_wrong_frag_rejected(self):
        directory = make_dir()
        directory.fragment(extra_bits=2)
        frags = list(directory.frags.values())
        inode = Inode(name="somefile", is_dir=False)
        wrong = next(f for f in frags if not f.contains_name("somefile"))
        with pytest.raises(ValueError):
            wrong.add(inode)

    def test_remove(self):
        directory = make_dir()
        frag = next(iter(directory.frags.values()))
        frag.add(Inode(name="f1", is_dir=False))
        removed = frag.remove("f1")
        assert removed.name == "f1"
        assert len(frag) == 0

    def test_authority_inherits_from_directory(self):
        directory = make_dir()
        frag = next(iter(directory.frags.values()))
        assert frag.authority() == 0
        frag.set_auth(2)
        assert frag.authority() == 2
        frag.set_auth(None)
        assert frag.authority() == 0

    def test_record_load(self):
        directory = make_dir()
        frag = next(iter(directory.frags.values()))
        Namespace.record_frag_hit(frag, "IWR", 0.0)
        assert frag.load_snapshot(0.0)["IWR"] == pytest.approx(1.0)

    def test_name_hash_stable(self):
        assert name_hash("kernel") == name_hash("kernel")
        assert name_hash("kernel") != name_hash("kerneL")
