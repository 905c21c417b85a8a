"""The client parses each op's path once; the parse must mean exactly what
the per-stop splits it replaced meant, and routing with the carried leaf
hash must pick the dirfrag the leaf name picks."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.clients.client import Client
from repro.clients.ops import MetaRequest, OpKind, parse_op_path
from repro.cluster import SimulatedCluster
from repro.namespace.dirfrag import name_hash
from repro.namespace.tree import split_path
from repro.sim.engine import SimEngine
from tests.conftest import make_config

#: Any spelling: "//", a trailing "/", "/", "" and relative paths.
paths = st.text(alphabet="ab/é", max_size=12) | st.sampled_from(
    ["/", "", "//", "a", "a/", "a//b", "/a/b/", "//a", "/a//b//"])
names = st.text(alphabet="abcdefgh0123456789._-é", min_size=1,
                max_size=12)


def reference_parse(kind, path):
    """``(directory, leaf)`` with the semantics of the old per-stop helpers:
    READDIR maps on ``path.rstrip("/") or "/"``; other ops on
    ``dirname_of`` and the ``parent_and_leaf`` leaf (None for the root)."""
    if kind is OpKind.READDIR:
        return path.rstrip("/") or "/", None
    parts = split_path(path)
    directory = "/" + "/".join(parts[:-1]) if len(parts) > 1 else "/"
    return directory, (parts[-1] if parts else None)


class CaptureNetwork:
    def __init__(self):
        self.sent = []
        self.handlers = []

    def deliver(self, handler, req):
        self.handlers.append(handler)
        self.sent.append(req)


def issued_request(kind, path) -> MetaRequest:
    """The request ``Client._issue`` builds for *kind* on *path*."""
    network = CaptureNetwork()
    client = Client(SimEngine(), 0, network,
                    [SimpleNamespace(receive_request=None)], None, iter([]))
    client._issue(kind, path)
    (req,) = network.sent
    return req


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(OpKind)), path=paths)
def test_client_parse_matches_reference(kind, path):
    expected = reference_parse(kind, path)
    req = issued_request(kind, path)
    assert (req.dir_path, req.leaf) == expected
    assert parse_op_path(kind, path) == expected


def shared_dir_cluster(files=16):
    cluster = SimulatedCluster(make_config(num_mds=2))
    cluster.namespace.mkdirs("/d")
    for i in range(files):
        cluster.namespace.create(f"/d/f{i}")
    return cluster, cluster.namespace.resolve_dir("/d")


def spread(directory):
    for index, frag in enumerate(directory.frags.values()):
        frag.set_auth(index % 2)


@settings(max_examples=150, deadline=None)
@given(leaf=names, carried=st.booleans())
def test_carried_leaf_hash_routes_like_the_name(leaf, carried):
    cluster, parent = shared_dir_cluster()
    mds = cluster.mdss[0]
    req = MetaRequest(kind=OpKind.STAT, path=f"/d/{leaf}", client_id=0)
    if carried:
        req.dir_path, req.leaf = "/d", leaf
        req.leaf_hash = name_hash(leaf)

    def check():
        expected = parent.frag_for_name(leaf)
        assert parent.frag_for_name(leaf, name_hash(leaf)) is expected
        route = mds._route(req)
        assert route[0] is parent and route[1] == leaf
        assert route[2] is expected

    check()  # unsplit
    first = parent.fragment(extra_bits=1)[0]
    spread(parent)
    check()  # split evenly: the masked lookup
    parent.fragment(first, extra_bits=1)
    spread(parent)
    check()  # mixed depths: the scan


@settings(max_examples=150, deadline=None)
@given(leaf=names, shape=st.sampled_from(["unsplit", "even1", "even2",
                                          "mixed"]))
def test_client_fragtree_route_matches_authority(leaf, shape):
    """Unsplit and evenly split fragtrees route through the record's
    masked table, mixed depths through its scan."""
    _cluster, parent = shared_dir_cluster()
    if shape == "mixed":
        first = parent.fragment(extra_bits=1)[0]
        parent.fragment(first, extra_bits=1)
    elif shape != "unsplit":
        parent.fragment(extra_bits=int(shape[-1]))
    spread(parent)
    route = parent.frag_route()
    assert (route.ranks is None) == (shape == "mixed")
    # Each rank's receive_request is its rank number, so the handler the
    # request is delivered to names the rank the client routed to.
    network = CaptureNetwork()
    ranks = [SimpleNamespace(receive_request=rank) for rank in range(2)]
    client = Client(SimEngine(), 0, network, ranks, None, iter([]))
    client.frag_maps["/d"] = route
    client._issue(OpKind.CREATE, f"/d/{leaf}")
    (req,) = network.sent
    assert network.handlers == [parent.frag_for_name(leaf).authority()]
    # The client hashes only against a split fragtree, and carries the
    # leaf's hash.
    assert req.leaf_hash == (None if shape == "unsplit" else name_hash(leaf))
