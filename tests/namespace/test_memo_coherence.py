"""Namespace memos agree with from-scratch walks after every mutation.

Directories memoize their path, resolved authority, route record (frag
map, masked rank table, shared flag), effective spread and name -> frag
lookup; the namespace memoizes path resolution.
The memos key on the tree epoch and the global authority epoch, so every
mutation has to bump the right one.  ``fragment()`` in particular relies
on each new child frag's ``set_auth`` bumping the authority epoch to drop
the memoized frag lookup.

Each example starts from a small tree with two subtree owners and
applies a random sequence of mkdir / create / rename / unlink / set_auth /
frag set_auth / fragment / clear_descendant_auth / dirfrag hit steps.
After every step, every memoized view of every live directory is read
(which also refills the memos) and compared with a reference view
computed here from the raw tree links and explicit auths.  A directory's
load is the sum over the dirfrags now under it, so the same walk checks
it against a from-scratch sum.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import SimulatedCluster
from repro.namespace.counters import OP_KINDS
from repro.namespace.directory import Directory
from repro.namespace.dirfrag import name_hash
from repro.namespace.tree import Namespace
from tests.core.test_balancer import exchange_heartbeats, spill_policy
from tests.conftest import make_config

DIR_NAMES = ("a", "b", "c", "d")
PROBES = tuple(f"p{i}" for i in range(16))
#: Hypothesis favours the first element of ``sampled_from``; the root's
#: rank 0 goes last so that favoured draws actually move authority.
RANKS = (1, 2, 3, 0)
MAX_FRAG_BITS = 5
STEPS = ("mkdir", "mkdir", "create", "rename", "rename", "unlink",
         "set_auth", "set_frag_auth", "fragment", "clear_descendant_auth",
         "hit", "hit", "hit")
#: Simulated seconds per step, at a 0.5 s half-life: a 25-step example
#: spans 150 half-lives and moves the decay landmark twice.
STEP_SECONDS = 3.0


def ref_path(directory) -> str:
    parts = []
    node = directory
    while node.parent is not None:
        parts.append(node.inode.name)
        node = node.parent
    return "/" + "/".join(reversed(parts))


def child_path(parent_path: str, name: str) -> str:
    return parent_path.rstrip("/") + "/" + name


def ref_authority(directory) -> int:
    node = directory
    while node.explicit_auth is None:
        node = node.parent
    return node.explicit_auth


def ref_frag_authority(frag) -> int:
    if frag.explicit_auth is not None:
        return frag.explicit_auth
    return ref_authority(frag.directory)


def ref_frag_for_name(directory, name: str):
    hashed = name_hash(name)
    owners = [frag for frag in directory.frags.values()
              if frag.frag_id.contains(hashed)]
    assert len(owners) == 1
    return owners[0]


def ref_spread(directory) -> float:
    counts: dict[int, int] = {}
    for frag in directory.frags.values():
        rank = ref_frag_authority(frag)
        counts[rank] = counts.get(rank, 0) + 1
    if len(counts) <= 1:
        return 1.0
    total = len(directory.frags)
    return 1.0 / sum((n / total) ** 2 for n in counts.values())


def live_dirs(namespace) -> list:
    """Every directory reachable from the root, ordered by path."""
    found = []
    stack = [namespace.root]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(node.subdirs.values())
    return sorted(found, key=ref_path)


def ref_load(directory, now: float) -> dict[str, float]:
    """Sum of the snapshots of every dirfrag now under *directory*."""
    frags = []
    stack = [directory]
    while stack:
        node = stack.pop()
        frags.extend(node.frags.values())
        stack.extend(node.subdirs.values())
    total = dict.fromkeys(OP_KINDS, 0.0)
    for frag in frags:
        for kind, value in frag.load_snapshot(now).items():
            total[kind] += value
    return total


def check_route(directory) -> None:
    """The route record replies carry equals the fragtree, the masked
    ``value -> rank`` table and the rank set rebuilt from scratch."""
    frags = tuple(
        (frag.frag_id.bits, frag.frag_id.value, ref_frag_authority(frag))
        for frag in directory.frags.values())
    route = directory.frag_route()
    assert route.frags == frags
    depths = {bits for bits, _value, _rank in frags}
    if len(depths) == 1:
        assert route.mask == (1 << depths.pop()) - 1
        assert route.ranks == {value: rank for _bits, value, rank in frags}
    else:
        assert route.ranks is None
    assert route.shared == (len({rank for *_key, rank in frags}) > 1)


def check_views(namespace, gone: set[str], now: float = 0.0) -> None:
    loads: dict[int, dict[str, float]] = {}
    for directory in live_dirs(namespace):
        expected = ref_load(directory, now)
        assert directory.load_snapshot(now) == pytest.approx(expected,
                                                              rel=1e-12)
        assert directory.load_snapshot(now, loads) == pytest.approx(
            expected, rel=1e-12)
        path = ref_path(directory)
        assert namespace.resolve_dir(path) is directory
        assert directory.path() == path
        assert directory.authority() == ref_authority(directory)
        check_route(directory)
        assert directory.effective_spread() == ref_spread(directory)
        names = PROBES + tuple(inode.name for inode in directory.readdir())
        for name in names:
            frag = directory.frag_for_name(name)
            assert frag is ref_frag_for_name(directory, name)
            assert namespace.authority_for_path(child_path(path, name)) \
                == ref_frag_authority(frag)
    live = {ref_path(directory) for directory in live_dirs(namespace)}
    for path in sorted(gone - live):
        with pytest.raises(FileNotFoundError):
            namespace.resolve_dir(path)


def free_name(directory):
    """The first directory name not yet taken in *directory*, or None."""
    return next((name for name in DIR_NAMES
                 if directory.lookup(name) is None), None)


def apply_step(namespace, data, step: str, serial: int,
               now: float = 0.0) -> None:
    dirs = live_dirs(namespace)
    if step in ("rename", "unlink"):
        if len(dirs) == 1:
            return
        dirs = dirs[1:]  # never the root
    target = data.draw(st.sampled_from(dirs))
    path = ref_path(target)
    if step == "mkdir":
        name = free_name(target)
        if name is not None:
            namespace.mkdir(child_path(path, name))
    elif step == "create":
        namespace.create(child_path(path, f"f{serial}"))
    elif step == "rename":
        below = {id(node) for node in target.walk()}
        dst = data.draw(st.sampled_from(
            [node for node in live_dirs(namespace) if id(node) not in below]))
        name = free_name(dst)
        if name is not None:
            namespace.rename(path, child_path(ref_path(dst), name))
    elif step == "unlink":
        namespace.unlink(path)
    elif step == "set_auth":
        choices = RANKS if target.parent is None else RANKS + (None,)
        target.set_auth(data.draw(st.sampled_from(choices)))
    elif step == "set_frag_auth":
        frag = data.draw(st.sampled_from(list(target.frags.values())))
        frag.set_auth(data.draw(st.sampled_from(RANKS + (None,))))
    elif step == "fragment":
        frag = data.draw(st.sampled_from(list(target.frags.values())))
        extra = data.draw(st.integers(1, 2))
        if frag.frag_id.bits + extra <= MAX_FRAG_BITS:
            target.fragment(frag=frag, extra_bits=extra, now=now)
    elif step == "clear_descendant_auth":
        target.clear_descendant_auth()
    elif step == "hit":
        frag = data.draw(st.sampled_from(list(target.frags.values())))
        namespace.record_frag_hit(frag, data.draw(st.sampled_from(OP_KINDS)),
                                  now, data.draw(st.floats(0.0, 100.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_memos_match_reference_walks(data):
    namespace = Namespace(half_life=0.5, split_size=10**9)
    namespace.mkdirs("/a/b/c")
    namespace.mkdirs("/b/a")
    namespace.mkdirs("/c").set_auth(1)
    gone: set[str] = set()
    check_views(namespace, gone)
    for serial in range(data.draw(st.integers(1, 25))):
        now = serial * STEP_SECONDS
        gone |= {ref_path(directory) for directory in live_dirs(namespace)}
        apply_step(namespace, data, data.draw(st.sampled_from(STEPS)),
                   serial, now)
        check_views(namespace, gone, now)


def test_fragment_drops_memoized_frag_lookup():
    namespace = Namespace(split_size=10**9)
    d = namespace.mkdirs("/d")
    for name in PROBES:
        namespace.create(f"/d/{name}")
    assert d.frag_for_name("p0") is next(iter(d.frags.values()))
    d.fragment(extra_bits=2)
    for name in PROBES:
        assert d.frag_for_name(name) is ref_frag_for_name(d, name)
        assert d.lookup(name) is not None


def test_balancer_tick_sums_each_directory_once(monkeypatch):
    """A tick that drills down through a loaded tree reads every
    directory's load from one bottom-up pass: each subtree is summed at
    most once."""
    cluster = SimulatedCluster(make_config(num_mds=2), policy=spill_policy())
    namespace = cluster.namespace
    now = cluster.engine.now
    for path in ("/big/a/x", "/big/a/y", "/big/b/z", "/small"):
        leaf = namespace.mkdirs(path)
        for node in (leaf, leaf.parent):
            for frag in node.frags.values():
                namespace.record_frag_hit(frag, "IWR", now, 40.0)
    for _ in range(300):
        cluster.mdss[0].auth_load.hit("IWR", now)
        cluster.mdss[0].all_load.hit("IWR", now)
    exchange_heartbeats(cluster)
    summed: Counter = Counter()
    original = Directory.load_snapshot

    def counting(self, at, memo=None):
        if memo is None or id(self) not in memo:
            summed[self.path()] += 1
        return original(self, at, memo)

    monkeypatch.setattr(Directory, "load_snapshot", counting)
    decision = cluster.balancer.tick(cluster.mdss[0])
    assert decision.went and decision.exports
    assert {"/", "/big", "/big/a"} <= set(summed)
    assert max(summed.values()) == 1
