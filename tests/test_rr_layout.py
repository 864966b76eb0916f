"""The flat RR-set layout, from the kernel to disk.

:class:`~repro.sampling.collection.RRCollection` stores RR sets as flat
``nodes`` / ``offsets`` chunks and extends its inverted index over the
new entries only; :func:`~repro.serve.index.load_index` wraps the
mapped ``.npy`` halves without a per-set loop.  The properties here
hold the incremental index to a from-scratch full-argsort reference,
the pinned hashes hold the stream and the on-disk bytes where they
were, and the index tests cover saving over a live map and the
structural checks of an O(1) load.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.exceptions import GraphFormatError, ParameterError
from repro.sampling.collection import RRCollection, stable_key_order
from repro.sampling.kernel import RRSampler
from repro.sampling.service import SamplingPool
from repro.serve import SeedQueryEngine
from repro.serve.index import load_index, save_index


def reference_layout(n, sets):
    """The four arrays as a from-scratch build computes them: one
    stable argsort of every entry by node id."""
    sizes = np.array([s.size for s in sets], dtype=np.int64)
    rr_offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=rr_offsets[1:])
    rr_nodes = (
        np.concatenate(sets).astype(np.int32)
        if sets else np.empty(0, dtype=np.int32)
    )
    rr_ids = np.repeat(np.arange(len(sets), dtype=np.int64), sizes)
    order = np.argsort(rr_nodes, kind="stable")
    node_rrs = rr_ids[order]
    node_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rr_nodes, minlength=n), out=node_offsets[1:])
    return rr_nodes, rr_offsets, node_offsets, node_rrs


def assert_layout(collection, sets):
    collection.build()
    expected = reference_layout(collection.n, sets)
    actual = (
        collection.rr_nodes,
        collection.rr_offsets,
        collection.node_offsets,
        collection.node_rrs,
    )
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def flat_of(sets):
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([s.size for s in sets], out=offsets[1:])
    nodes = (
        np.concatenate(sets).astype(np.int32)
        if sets else np.empty(0, dtype=np.int32)
    )
    return nodes, offsets


@st.composite
def rr_set(draw, n):
    size = draw(st.integers(1, min(6, n)))
    nodes = draw(
        st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
    )
    return np.array(nodes, dtype=np.int32)


@st.composite
def operations(draw):
    # n > 65536 takes the wide-key branch of the node order.
    n = draw(st.sampled_from([1, 7, 300, 70_000]))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("bulk"), st.lists(rr_set(n), max_size=8)),
                st.tuples(st.just("one"), rr_set(n)),
                st.tuples(st.just("build")),
            ),
            max_size=14,
        )
    )
    return n, ops


class TestIncrementalIndex:
    @given(operations())
    @settings(max_examples=120)
    def test_interleavings_match_full_rebuild(self, case):
        n, ops = case
        collection = RRCollection(n)
        sets = []
        for op in ops:
            if op[0] == "bulk":
                collection.append_flat(*flat_of(op[1]))
                sets.extend(op[1])
            elif op[0] == "one":
                collection.append(op[1])
                sets.append(op[1])
            else:
                assert_layout(collection, sets)
            assert len(collection) == len(sets)
            assert collection.total_size == sum(s.size for s in sets)
        assert_layout(collection, sets)
        for i, nodes in enumerate(sets):
            assert np.array_equal(collection.get(i), nodes)

    def test_order_around_the_uint16_edge(self):
        n = 70_000
        rng = np.random.default_rng(3)
        high = [65_535, 65_536, 65_537, n - 1]
        sets = [
            np.unique(np.concatenate([rng.integers(0, n, 3), [high[i % 4]]]))
            .astype(np.int32)
            for i in range(200)
        ]
        collection = RRCollection(n)
        collection.append_flat(*flat_of(sets[:120]))
        collection.build()
        collection.append_flat(*flat_of(sets[120:]))
        assert_layout(collection, sets)

    def test_node_coverage_counts(self):
        collection = RRCollection(5)
        collection.append_flat(*flat_of([np.array([0, 3]), np.array([3])]))
        assert collection.node_coverage_counts().tolist() == [1, 0, 0, 2, 0]
        collection.append(np.array([4, 3]))
        assert collection.node_coverage_counts().tolist() == [1, 0, 0, 3, 1]

    def test_get_and_sets_are_views(self):
        collection = RRCollection(10)
        collection.append_flat(*flat_of([np.array([1, 2]), np.array([5])]))
        collection.append(np.array([9, 0, 4]))
        assert collection.get(-1).tolist() == [9, 0, 4]
        assert [s.tolist() for s in collection.sets()] == [[1, 2], [5], [9, 0, 4]]
        nodes, _ = collection.flat()
        assert np.shares_memory(collection.get(1), nodes)
        with pytest.raises(IndexError):
            collection.get(3)

    @pytest.mark.parametrize(
        "nodes, offsets",
        [
            ([1, 2], [0, 1, 1, 2]),  # an empty set
            ([1, 2], [0, 3]),  # offsets past the end
            ([1, 2], [1, 2]),  # offsets not starting at 0
            ([[1, 2]], [0, 2]),  # not 1-D
        ],
    )
    def test_malformed_chunks_rejected(self, nodes, offsets):
        with pytest.raises(ParameterError):
            RRCollection(10).append_flat(np.array(nodes), np.array(offsets))

    @pytest.mark.parametrize("bad", [10, -1, 2**31 - 1])
    def test_build_rejects_ids_outside_the_universe(self, bad):
        collection = RRCollection(10)
        collection.append(np.array([1, 2]))
        collection.build()
        indexed = collection.node_rrs.copy()
        collection.append(np.array([3, bad]))
        with pytest.raises(GraphFormatError, match="outside"):
            collection.build()
        assert np.array_equal(collection.node_rrs, indexed)
        with pytest.raises(GraphFormatError):
            collection.build()


class TestStableKeyOrder:
    @given(
        st.sampled_from([1, 2, 300, 65_536, 65_537, 2**20, 2**31]),
        st.sampled_from([np.int32, np.int64]),
        st.integers(0, 400),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150)
    def test_equals_stable_argsort(self, bound, dtype, size, seed):
        rng = np.random.default_rng(seed)
        # Few distinct keys give long runs of ties to keep in order.
        pool = rng.integers(0, bound, size=max(1, size // 8))
        keys = rng.choice(pool, size=size).astype(dtype)
        order = stable_key_order(keys, bound)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))


# ----------------------------------------------------------------------
# Pinned stream and bytes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pokec():
    return load_dataset("pokec-sim", scale=0.25)


def _file_hashes(directory):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in (
            "r1_nodes.npy", "r1_offsets.npy", "r2_nodes.npy", "r2_offsets.npy"
        )
    }


class TestPinnedBytes:
    """sha256 of the index halves written for fixed streams: a layout
    change must keep every byte.  The index digests are those of the
    batch-seeded ``SamplingPool`` stream (index format 5);
    ``RRSampler``'s own stream is pinned by ``sample_one_then_fill``
    and by ``test_sampling.py``."""

    @staticmethod
    def _pool_index(pokec, model, directory):
        with SamplingPool(pokec, model, workers=1, seed=2018) as pool:
            r1 = pool.new_collection(3000)
            r2 = pool.new_collection(3000)
            state = pool.state()
        save_index(
            directory, pokec, model, r1=r1, r2=r2, sampler_state=state,
            seed=2018,
        )
        return _file_hashes(directory)

    def test_serial_ic_index_files(self, pokec, tmp_path):
        """The in-process (``workers=1``) pool's IC stream."""
        assert self._pool_index(pokec, "IC", tmp_path) == {
            "r1_nodes.npy":
                "20e245de3998513c4704d31c361c2c069b30d0a878c9b224d04ab76f2e1d3805",
            "r1_offsets.npy":
                "5e434fe7c565a4ef28d2e6e0e66dc0357e0feb4f750cc9b5f72a0e0cedec2151",
            "r2_nodes.npy":
                "5a08fca4c5e896e881049701ef59fa5ae5213969b50a8f03522cd849854f1721",
            "r2_offsets.npy":
                "f845f564d73b88fc02a4cb812c148d10548976c797d525c7f4cd9b88b3061632",
        }

    def test_pool_lt_index_files(self, pokec, tmp_path):
        assert self._pool_index(pokec, "LT", tmp_path) == {
            "r1_nodes.npy":
                "ac044fb99bd9d4be02e4a615faa99c1130909ba335ff6dce1dc30514aa4e76f1",
            "r1_offsets.npy":
                "9f13f52c2cd114262c32f73f58cc40ff631177195be691c88368848603c5947d",
            "r2_nodes.npy":
                "302a99d2cdf74d680254a751eea23bea549c7221006a018ad2fe739ae15671f5",
            "r2_offsets.npy":
                "c82ed256c40a043c1602fcebf63ae43068bdd96ed64b8bf2b55eb1681e1211e1",
        }

    @pytest.mark.parametrize(
        "model, expected",
        [
            ("IC", "91a939c78e0ae45a8e0825c7b5fbcc8bcecb151369e8bb394bf728cdd07398e4"),
            ("LT", "d639f9d64c467b004a63c218d471a43f57c4376c9492384a656314851bf4ba45"),
        ],
    )
    def test_sample_one_then_fill_stream(self, pokec, model, expected):
        """``sample_one`` hands out one flat batch through a cursor, and
        ``fill`` drains the rest of it first."""
        sampler = RRSampler(pokec, model, seed=7)
        digest = hashlib.sha256()
        for _ in range(300):
            digest.update(np.asarray(sampler.sample_one(), np.int64).tobytes())
        collection = sampler.new_collection(500)
        collection.build()
        for array in (
            collection.rr_nodes, collection.rr_offsets,
            collection.node_rrs, collection.node_offsets,
        ):
            digest.update(array.tobytes())
        for _ in range(10):
            digest.update(
                np.asarray(sampler.sample_one(root=3), np.int64).tobytes()
            )
        digest.update(
            json.dumps(sampler.rng.bit_generator.state, sort_keys=True).encode()
        )
        assert digest.hexdigest() == expected


# ----------------------------------------------------------------------
# The O(1) warm load
# ----------------------------------------------------------------------
def _answers(engine, script):
    keys = ("seeds", "alpha", "sigma_low", "sigma_up", "num_rr_sets", "sampled")
    replies = [engine.answer(k, alpha_target=target) for k, target in script]
    return [{key: reply[key] for key in keys} for reply in replies]


def _mapped(array):
    base = array
    while base is not None:
        if isinstance(base, (np.memmap, mmap.mmap)):
            return True
        base = getattr(base, "base", None)
    return False


@pytest.fixture
def saved(medium_graph, tmp_path):
    """An IC index of 600 + 600 RR sets on the medium graph."""
    with SeedQueryEngine(medium_graph, "IC", seed=5, index_dir=tmp_path) as eng:
        eng.extend(1200)
        eng.save_index()
    return tmp_path


class TestWarmLoad:
    def test_load_wraps_the_mapped_arrays(self, saved, medium_graph):
        loaded = load_index(saved, medium_graph)
        for half in (loaded.r1, loaded.r2):
            assert type(half.rr_nodes) is np.ndarray
            assert _mapped(half.rr_nodes)
            assert half.rr_nodes.dtype == np.int32
        copied = load_index(saved, medium_graph, mmap=False)
        assert not _mapped(copied.r1.rr_nodes)
        assert np.array_equal(copied.r1.rr_nodes, loaded.r1.rr_nodes)

    def test_save_over_the_live_map_then_reload(
        self, saved, medium_graph, tmp_path_factory
    ):
        script = [(3, 0.3), (6, 0.35), (3, 0.3)]
        pristine = tmp_path_factory.mktemp("pristine")
        shutil.copytree(saved, pristine, dirs_exist_ok=True)
        with SeedQueryEngine(medium_graph, "IC", seed=5, index_dir=pristine) as eng:
            reference = _answers(eng, script)
        assert all(a["sampled"] == 0 for a in reference)
        with SeedQueryEngine(medium_graph, "IC", seed=5, index_dir=saved) as eng:
            # Nothing appended: the halves are rewritten from the very
            # maps they are saved over, and stay readable.
            eng.save_index()
            assert _answers(eng, script) == reference
        assert _file_hashes(saved) == _file_hashes(pristine)
        assert not list(saved.glob("*.tmp"))
        with SeedQueryEngine(medium_graph, "IC", seed=5, index_dir=saved) as eng:
            assert _answers(eng, script[:1]) == reference[:1]

    def test_load_append_save_reload(self, saved, medium_graph, tmp_path_factory):
        grow = [(4, 0.3), (8, 0.7), (8, 0.75), (2, 0.3)]
        fresh_dir = tmp_path_factory.mktemp("fresh")
        with SeedQueryEngine(medium_graph, "IC", seed=5) as eng:
            eng.extend(1200)
            reference = _answers(eng, grow)
            eng.save_index(fresh_dir)
            continued = _answers(eng, [(8, 0.75)])
        assert any(a["sampled"] for a in reference)
        with SeedQueryEngine(medium_graph, "IC", seed=5, index_dir=saved) as eng:
            assert _answers(eng, grow) == reference
            eng.checkpoint()
        assert _file_hashes(saved) == _file_hashes(fresh_dir)
        with SeedQueryEngine(medium_graph, "IC", seed=5, index_dir=saved) as eng:
            assert eng.num_rr_sets == reference[-1]["num_rr_sets"]
            # The reloaded engine answers the next query as the
            # uninterrupted one did, sampling or not.
            assert _answers(eng, [(8, 0.75)]) == continued


class TestLoadValidation:
    """A corrupt half fails loudly with GraphFormatError — never an
    IndexError or a wrong answer."""

    def _rewrite(self, directory, name, array):
        np.save(directory / name, array)

    def test_truncated_nodes_file(self, saved, medium_graph):
        nodes = np.load(saved / "r1_nodes.npy")
        self._rewrite(saved, "r1_nodes.npy", nodes[:-3])
        with pytest.raises(GraphFormatError, match="corrupt r1"):
            load_index(saved, medium_graph)

    @pytest.mark.parametrize("mmap_mode", [True, False])
    def test_nodes_file_cut_short(self, saved, medium_graph, mmap_mode):
        path = saved / "r2_nodes.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with pytest.raises(GraphFormatError, match="r2"):
            load_index(saved, medium_graph, mmap=mmap_mode)

    def test_offsets_past_the_end(self, saved, medium_graph):
        offsets = np.load(saved / "r1_offsets.npy")
        offsets[-1] += 5
        self._rewrite(saved, "r1_offsets.npy", offsets)
        with pytest.raises(GraphFormatError, match="corrupt r1"):
            load_index(saved, medium_graph)

    def test_empty_set(self, saved, medium_graph):
        offsets = np.load(saved / "r2_offsets.npy")
        offsets[5] = offsets[4]
        self._rewrite(saved, "r2_offsets.npy", offsets)
        with pytest.raises(GraphFormatError, match="non-empty"):
            load_index(saved, medium_graph)

    # An id near 2**31 must fail before anything is sized by it.
    @pytest.mark.parametrize("bad", ["n", 2**31 - 1, -1])
    def test_node_id_out_of_range(self, saved, medium_graph, bad):
        nodes = np.load(saved / "r1_nodes.npy")
        nodes[7] = medium_graph.n if bad == "n" else bad
        self._rewrite(saved, "r1_nodes.npy", nodes)
        loaded = load_index(saved, medium_graph)
        with pytest.raises(GraphFormatError, match="outside"):
            loaded.r1.build()
        with SeedQueryEngine(medium_graph, "IC", seed=5, index_dir=saved) as eng:
            with pytest.raises(GraphFormatError, match="outside"):
                eng.answer(3, alpha_target=0.3)

    @pytest.mark.parametrize(
        "name, array",
        [
            ("r1_nodes.npy", lambda a: a.astype(np.int64)),
            ("r1_offsets.npy", lambda a: a.astype(np.int32)),
            ("r1_nodes.npy", lambda a: a.reshape(1, -1)),
        ],
    )
    def test_wrong_dtype_or_shape(self, saved, medium_graph, name, array):
        self._rewrite(saved, name, array(np.load(saved / name)))
        with pytest.raises(GraphFormatError, match="1-D int32"):
            load_index(saved, medium_graph)
