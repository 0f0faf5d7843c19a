"""The seeded generators must keep drawing the same corpora: criterion 3,
the benchmark inputs and the CLI's `gen` all replay them from a seed."""

import contextlib
import hashlib
import io
import json
import random
import time

import pytest

from kjump import cli
from kjump import generators
from kjump.generators import (
    ALPHA_AFTER,
    _clique_cover_size,
    _independence_number,
    _skip_shuffles,
    random_connected_graph,
    random_independent_set,
    random_pair,
    random_split_graph,
)
from kjump.graph import Graph, graph_to_json, is_connected

from conftest import atlas_graphs, complete_graph, cycle_graph, independent_sets


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_random_pair_stream_is_unchanged():
    # The first 500 instances of criterion 3's random corpus and the random
    # state after them, recorded before `random_independent_set` skipped
    # its greedy pass for sizes above a clique cover: the skip must draw
    # every shuffle all the same. sha256 of repr(getstate()), since the
    # state tuple holds None and its hash() differs between processes.
    rng = random.Random(777)
    h = hashlib.sha256()
    for _ in range(500):
        g = random_split_graph(rng.randint(2, 14), rng)
        s, t = random_pair(g, rng, max_size=4)
        h.update(json.dumps([g.n, graph_to_json(g)["edges"], sorted(s), sorted(t)]).encode())
    assert h.hexdigest() == "22fd070ff4968ddc61abe2ff5f4bf7124cdaf285dd091536242578045886c78e"
    assert _sha(repr(rng.getstate())) == (
        "6fed617e8e76df2ec58b409b6db9444373128a908d1f99a5eb2d38a0eb6c1aca"
    )


def test_skip_shuffles_matches_real_shuffles():
    for n in range(21):
        for seed in range(3):
            for tries in (0, 1, 2, 7, 60):
                real, fast = random.Random(seed), random.Random(seed)
                real.random(), fast.random()  # start mid-stream
                verts = list(range(n))
                for _ in range(tries):
                    real.shuffle(verts)
                _skip_shuffles(fast, n, tries)
                assert fast.getstate() == real.getstate(), (n, seed, tries)
    for n in (64, 200, 255):  # the largest top-byte limits
        real, fast = random.Random(n), random.Random(n)
        for _ in range(40):
            real.shuffle(list(range(n)))
        _skip_shuffles(fast, n, 40)
        assert fast.getstate() == real.getstate(), n


def test_skip_shuffles_widens_a_short_window():
    # The first window of words is 25% above the mean the shuffles take,
    # plus 64 words, and a draw rejects a word with probability at most
    # 1/2: no seed a test could search needs a second window. So the first
    # window read here has every word's top byte at 0xff, a rejection for
    # every draw: the skip must widen the window and still advance the
    # stream exactly as the real shuffles do.
    class ShortWindow(random.Random):
        calls = 0

        def getrandbits(self, k):
            bits = super().getrandbits(k)
            self.calls += 1
            if self.calls == 1:
                bits |= int.from_bytes(b"\0\0\0\xff" * (k // 32), "little")
            return bits

    for n, tries in ((2, 1), (9, 5), (40, 3)):
        real, fast = random.Random(n), ShortWindow(n)
        verts = list(range(n))
        for _ in range(tries):
            real.shuffle(verts)
        _skip_shuffles(fast, n, tries)
        assert fast.calls == 3  # the short window, the wide one, the advance
        assert fast.getstate() == real.getstate(), n


def test_random_pair_gives_up_with_an_empty_pair():
    # no graph without vertices has an independent set of size 1 or more
    rng = random.Random(3)
    assert random_pair(Graph(0, []), rng) == (frozenset(), frozenset())


def test_split_graph_rejects_a_negative_n():
    # the graph on no vertices is split: the degree-partition corpus of
    # tests/test_graph.py draws it
    assert random_split_graph(0, random.Random(0)).n == 0
    with pytest.raises(ValueError) as exc:
        random_split_graph(-1, random.Random(0))
    assert str(exc.value) == "n must be nonnegative"


def test_hopeless_sizes_advance_the_stream_as_shuffles_would():
    # A subclass of random.Random is not fast-forwarded: it shuffles, so it
    # gives the stream that real shuffles draw.
    class Shuffling(random.Random):
        pass

    skipped = 0
    # from 256 vertices on, a draw's test reads more than a word's top byte
    for g in [*atlas_graphs(6), complete_graph(255), complete_graph(300)]:
        cover = _clique_cover_size(g)
        for size in (cover + 1, g.n + 2):
            fast, real = random.Random(g.n + size), Shuffling(g.n + size)
            assert random_independent_set(g, size, fast, tries=30) is None
            assert random_independent_set(g, size, real, tries=30) is None
            assert fast.getstate() == real.getstate()
            skipped += g.n >= 2
    assert skipped >= 200


def test_clique_cover_bounds_independence_number():
    for g in atlas_graphs(7):
        alpha = max(len(c) for c in independent_sets(g))
        assert alpha <= _clique_cover_size(g) <= g.n


def test_independence_number_is_exact():
    for g in atlas_graphs(7):
        assert _independence_number(g) == max(len(c) for c in independent_sets(g))


def test_sizes_above_the_independence_number_skip_after_a_few_tries(monkeypatch):
    # C5's greedy clique cover has 3 cliques and its independence number is
    # 2: size 3 passes the cover test and fails every try, so after
    # ALPHA_AFTER real tries the exact test hands the rest to the
    # fast-forward, which leaves the state the shuffles would.
    class Shuffling(random.Random):
        pass

    skips = []
    skip = generators._skip_shuffles

    def counted(rng, n, tries):
        skips.append((n, tries))
        skip(rng, n, tries)

    monkeypatch.setattr(generators, "_skip_shuffles", counted)
    g = cycle_graph(5)
    assert (_clique_cover_size(g), _independence_number(g)) == (3, 2)
    for seed in range(5):
        fast, real = random.Random(seed), Shuffling(seed)
        assert random_independent_set(g, 3, fast) is None
        assert random_independent_set(g, 3, real) is None
        assert fast.getstate() == real.getstate(), seed
    assert skips == [(5, 2000 - ALPHA_AFTER)] * 5


def test_small_connected_graphs_are_unchanged():
    # Graphs of 2..32 vertices, the sizes tests and the benchmark draw, and
    # the random state after them, recorded before the default density was
    # raised above 32 vertices.
    want = {
        0: ("cf02d0041f40704abd0f6e87c992f4783833eba4d9d9aea52c1222627e496722",
            "a6369161776668b60d6dfd22848af74fdc889f2e049571f5b0c0cae7d926d25f"),
        1: ("9067b49a3322c04c7ff512206afdcee5152708bd90bff959af19d579937dbac8",
            "103cb983c70978c3f7f974ccd35bd75403ede1345b9501787102c137c8575836"),
        2: ("c474958dab5c1b3a5290e69fc02a8aa7be0f7cea3a36ab9b479dd7fed3204b61",
            "5050f5e0beb09700fb70c97997e168ae356986477b1bd52b3776b2e43ed76bce"),
    }
    for seed, (graphs, state) in want.items():
        rng = random.Random(seed)
        h = hashlib.sha256()
        for n in range(2, 33):
            g = random_connected_graph(n, rng)
            h.update(json.dumps([g.n, graph_to_json(g)["edges"]]).encode())
        assert (h.hexdigest(), _sha(repr(rng.getstate()))) == (graphs, state), seed


def test_gen_connected_large_n():
    # Mean degree 2.5 is below the connectivity threshold at 300 vertices,
    # where rejection sampling ran for minutes.
    out = io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(out):
        assert cli.run(["gen", "connected", "--n", "300", "--seed", "1"]) == 0
    assert time.process_time() - t0 < 2
    doc = json.loads(out.getvalue())["graph"]
    assert doc["n"] == 300
    for n in (33, 100, 1000):
        assert is_connected(random_connected_graph(n, random.Random(n)))


def test_connected_graph_needs_a_vertex():
    for n in (0, -1):
        with pytest.raises(ValueError) as exc:
            random_connected_graph(n, random.Random(0))
        assert str(exc.value) == "n must be positive"
