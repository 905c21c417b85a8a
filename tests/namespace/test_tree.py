"""The namespace tree: resolution, mutation, accounting, authority."""

import pytest

from repro.namespace.tree import Namespace, split_path


class TestSplitPath:
    def test_normalisation(self):
        # Returns an immutable tuple: results are memoized and shared.
        assert split_path("/a/b/c") == ("a", "b", "c")
        assert split_path("a//b/") == ("a", "b")
        assert split_path("/") == ()
        assert split_path("") == ()


class TestResolution:
    def test_root(self):
        namespace = Namespace()
        assert namespace.resolve_dir("/") is namespace.root

    def test_mkdirs_and_resolve(self):
        namespace = Namespace()
        namespace.mkdirs("/a/b/c")
        assert namespace.resolve_dir("/a/b/c").path() == "/a/b/c"

    def test_missing_dir_raises(self):
        with pytest.raises(FileNotFoundError):
            Namespace().resolve_dir("/nope")

    def test_file_in_dir_position_raises(self):
        namespace = Namespace()
        namespace.create("/f")
        with pytest.raises(NotADirectoryError):
            namespace.resolve_dir("/f/x")

    def test_resolve_entry_file(self):
        namespace = Namespace()
        namespace.mkdirs("/a")
        inode = namespace.create("/a/f")
        assert namespace.resolve_entry("/a/f") is inode

    def test_exists(self):
        namespace = Namespace()
        namespace.mkdirs("/a")
        assert namespace.exists("/a")
        assert not namespace.exists("/b")


class TestMutation:
    def test_create_updates_counts(self):
        namespace = Namespace()
        namespace.mkdirs("/d")
        namespace.create("/d/f1")
        assert namespace.inode_count == 3  # root + d + f1
        assert namespace.dir_count == 2

    def test_create_in_missing_parent_raises(self):
        with pytest.raises(FileNotFoundError):
            Namespace().create("/missing/f")

    def test_duplicate_create_raises(self):
        namespace = Namespace()
        namespace.create("/f")
        with pytest.raises(FileExistsError):
            namespace.create("/f")

    def test_unlink_file(self):
        namespace = Namespace()
        namespace.create("/f")
        namespace.unlink("/f")
        assert not namespace.exists("/f")
        assert namespace.inode_count == 1

    def test_unlink_directory_updates_dir_count(self):
        namespace = Namespace()
        namespace.mkdirs("/d")
        namespace.unlink("/d")
        assert namespace.dir_count == 1

    def test_mkdirs_idempotent(self):
        namespace = Namespace()
        namespace.mkdirs("/a/b")
        namespace.mkdirs("/a/b")
        assert namespace.dir_count == 3


class TestAccounting:
    def test_record_hit_propagates_to_ancestors(self):
        namespace = Namespace(half_life=5.0)
        d = namespace.mkdirs("/a/b")
        namespace.record_hit(d, "f", "IWR", now=0.0)
        assert d.load_snapshot(0.0)["IWR"] == pytest.approx(1.0)
        a = namespace.resolve_dir("/a")
        assert a.load_snapshot(0.0)["IWR"] == pytest.approx(1.0)
        assert namespace.root.load_snapshot(0.0)["IWR"] == pytest.approx(1.0)

    def test_record_hit_lands_in_right_frag(self):
        namespace = Namespace(split_size=4, split_bits=2)
        d = namespace.mkdirs("/d")
        for i in range(8):
            namespace.create(f"/d/f{i}")
        d.fragment()
        frag = namespace.record_hit(d, "f3", "IRD", now=0.0)
        assert frag.contains_name("f3")
        assert frag.load_snapshot(0.0)["IRD"] == pytest.approx(1.0)

    def test_heat_map(self):
        namespace = Namespace(half_life=5.0)
        d = namespace.mkdirs("/hot")
        namespace.mkdirs("/cold")
        for _ in range(10):
            namespace.record_hit(d, None, "IWR", now=0.0)
        heat = namespace.heat_map(0.0)
        assert heat["/hot"] == pytest.approx(10.0)
        assert heat["/cold"] == 0.0
        assert heat["/"] == pytest.approx(10.0)

    def test_heat_map_depth_limit(self):
        namespace = Namespace()
        namespace.mkdirs("/a/b/c")
        heat = namespace.heat_map(0.0, max_depth=1)
        assert "/a" in heat
        assert "/a/b" not in heat


class TestAuthority:
    def test_root_auth_default(self):
        namespace = Namespace(root_auth=0)
        assert namespace.root.authority() == 0

    def test_subtree_roots(self):
        namespace = Namespace()
        a = namespace.mkdirs("/a")
        a.set_auth(1)
        roots = namespace.subtree_roots()
        assert {d.path() for d in roots} == {"/", "/a"}
        assert [d.path() for d in namespace.subtree_roots(1)] == ["/a"]

    def test_frags_owned_by(self):
        namespace = Namespace()
        a = namespace.mkdirs("/a")
        namespace.mkdirs("/b")
        a.set_auth(1)
        owned = {frag.directory.path() for frag in namespace.frags_owned_by(1)}
        assert owned == {"/a"}
        owned0 = {frag.directory.path()
                  for frag in namespace.frags_owned_by(0)}
        assert owned0 == {"/", "/b"}

    def test_authority_for_path_uses_containing_frag(self):
        namespace = Namespace(split_size=4, split_bits=1)
        d = namespace.mkdirs("/d")
        for i in range(8):
            namespace.create(f"/d/f{i}")
        d.fragment()
        frags = list(d.frags.values())
        frags[0].set_auth(3)
        moved = next(name for name in (f"f{i}" for i in range(8))
                     if frags[0].contains_name(name))
        assert namespace.authority_for_path(f"/d/{moved}") == 3

    def test_rename_moves_inherited_authority(self):
        # Authority memos must not survive a rename that moves a directory
        # under a different owner.
        namespace = Namespace(root_auth=0)
        namespace.mkdirs("/b").set_auth(1)
        x = namespace.mkdirs("/a/x")
        y = namespace.mkdirs("/a/x/y")
        assert (x.authority(), y.authority()) == (0, 0)
        assert x.frag_route().frags == ((0, 0, 0),)
        assert namespace.authority_for_path("/a/x/y") == 0
        namespace.rename("/a/x", "/b/x")
        assert (x.authority(), y.authority()) == (1, 1)
        assert namespace.authority_for_path("/b/x/y") == 1
        assert x.frag_route().frags == ((0, 0, 1),)
        assert x.effective_spread() == 1.0

    def test_metadata_load_sums_owned_frags(self):
        namespace = Namespace(half_life=5.0)
        d = namespace.mkdirs("/d")
        namespace.record_hit(d, None, "IWR", now=0.0)
        namespace.record_hit(d, None, "IWR", now=0.0)
        load = namespace.metadata_load(0, lambda s: s["IWR"], now=0.0)
        assert load == pytest.approx(2.0)
        assert namespace.metadata_load(1, lambda s: s["IWR"], now=0.0) == 0.0
