"""Op kinds and the request type."""

from repro.clients.ops import MetaRequest, OpKind


class TestOpKind:
    def test_write_classification(self):
        assert OpKind.CREATE.is_write
        assert OpKind.MKDIR.is_write
        assert OpKind.UNLINK.is_write
        assert not OpKind.STAT.is_write
        assert not OpKind.READDIR.is_write

    def test_counter_kinds(self):
        assert OpKind.CREATE.counter_kind == "IWR"
        assert OpKind.STAT.counter_kind == "IRD"
        assert OpKind.LOOKUP.counter_kind == "IRD"
        assert OpKind.OPEN.counter_kind == "IRD"
        assert OpKind.READDIR.counter_kind == "READDIR"
        assert OpKind.UNLINK.counter_kind == "IWR"


class TestMetaRequest:
    def test_forwards_counts_extra_hops(self):
        req = MetaRequest(kind=OpKind.STAT, path="/a", client_id=0)
        assert req.hops == 0
        assert req.forwards == 0
        req.hops += 1
        assert req.forwards == 0
        req.hops += 1
        assert req.forwards == 1

    def test_positional_fields(self):
        client = object()
        req = MetaRequest(OpKind.RENAME, "/a/b", 3, client, 0.5, "/a/c",
                          "/a", "b")
        assert (req.kind, req.path, req.client_id, req.client) == (
            OpKind.RENAME, "/a/b", 3, client)
        assert (req.issued_at, req.dst, req.dir_path, req.leaf) == (
            0.5, "/a/c", "/a", "b")
        assert req.leaf_hash is None and req.route is None
        assert not req.done
