"""Unit tests for :mod:`repro.scale` — MinHash/LSH, the sharded blocker,
transitive clustering, cluster quality, and the streamed synthetic corpus —
plus the streaming-substrate edge cases they lean on (ragged CSV rows,
overlap stop-word boundaries)."""

import numpy as np
import pytest

from repro.blocking import OverlapBlocker
from repro.data import (Entity, iter_entity_table, load_csv,
                        load_entity_table, save_entity_table)
from repro.pipeline import MatchDecision
from repro.scale import (MinHasher, ShardedBlocker, TransitiveClusterer,
                         UnionFind, cluster_quality, generate_scale_corpus,
                         jaccard, token_hash, true_assignments,
                         true_cluster_of)
from repro.scale.cluster import canonical_clusters


def _entity(entity_id, name, city="portland", phone=None):
    return Entity(entity_id, {"name": name, "city": city, "phone": phone})


LEFT = [
    _entity("a0", "blue bottle coffee roasters", phone="555 1212"),
    _entity("a1", "stumptown coffee roasters downtown"),
    _entity("a2", "powell books flagship store"),
    _entity("a3", "voodoo doughnut original shop"),
]
RIGHT = [
    _entity("b0", "blue bottle cofee roasters", phone="555 1212"),
    _entity("b1", "stumptown coffee roaster downtown"),
    _entity("b2", "powell books flagship"),
    _entity("b3", "departure rooftop restaurant"),
]


def _id_pairs(pairs):
    return [(p.left.entity_id, p.right.entity_id) for p in pairs]


# --------------------------------------------------------------------------- #
# MinHash / LSH
# --------------------------------------------------------------------------- #

class TestMinHasher:
    def test_cross_instance_determinism(self):
        sets = [{"alpha", "beta"}, {"gamma"}, set()]
        a = MinHasher(bands=8, rows=4, seed=3).signatures(sets)
        b = MinHasher(bands=8, rows=4, seed=3).signatures(sets)
        np.testing.assert_array_equal(a, b)

    def test_chunk_invariance(self):
        sets = [{"alpha", "beta"}, {"gamma", "delta"}, {"epsilon"}]
        hasher = MinHasher(bands=8, rows=4, seed=0)
        whole = hasher.signatures(sets)
        parts = np.vstack([hasher.signatures(sets[:1]),
                           hasher.signatures(sets[1:])])
        np.testing.assert_array_equal(whole, parts)

    def test_seed_changes_signatures(self):
        sets = [{"alpha", "beta", "gamma"}]
        a = MinHasher(bands=8, rows=4, seed=0).signatures(sets)
        b = MinHasher(bands=8, rows=4, seed=1).signatures(sets)
        assert not np.array_equal(a, b)

    def test_identical_sets_collide_in_every_band(self):
        hasher = MinHasher(bands=8, rows=4, seed=0)
        keys = hasher.band_keys(hasher.signatures(
            [{"alpha", "beta"}, {"alpha", "beta"}]))
        np.testing.assert_array_equal(keys[0], keys[1])

    def test_signature_agreement_estimates_jaccard(self):
        rng = np.random.default_rng(0)
        universe = [f"tok{i}" for i in range(200)]
        errors = []
        hasher = MinHasher(bands=32, rows=4, seed=0)
        for __ in range(20):
            a = set(rng.choice(universe, size=40, replace=False))
            b = set(rng.choice(universe, size=40, replace=False))
            sig = hasher.signatures([a, b])
            estimate = float((sig[0] == sig[1]).mean())
            errors.append(abs(estimate - jaccard(a, b)))
        assert np.mean(errors) < 0.05

    def test_threshold_matches_banding_formula(self):
        hasher = MinHasher(bands=32, rows=4, seed=0)
        assert hasher.threshold == pytest.approx((1 / 32) ** 0.25)

    def test_token_hash_is_stable_and_in_range(self):
        assert token_hash("alpha") == token_hash("alpha")
        assert token_hash("alpha") != token_hash("beta")
        assert 0 <= token_hash("alpha") < (1 << 61) - 1


# --------------------------------------------------------------------------- #
# ShardedBlocker
# --------------------------------------------------------------------------- #

class TestShardedMinhashMode:
    def test_near_duplicates_are_candidates(self, tmp_path):
        blocker = ShardedBlocker(bands=16, rows=2, shard_size=2,
                                 spill_dir=tmp_path / "s")
        got = set(_id_pairs(blocker.candidates(LEFT, RIGHT)))
        assert {("a0", "b0"), ("a1", "b1"), ("a2", "b2")} <= got

    def test_order_invariant_across_layouts(self, tmp_path):
        orders = []
        for i, (shard, chunk) in enumerate([(1, 2), (3, 1), (64, 64)]):
            blocker = ShardedBlocker(bands=16, rows=2, shard_size=shard,
                                     chunk_size=chunk,
                                     spill_dir=tmp_path / f"s{i}")
            orders.append(_id_pairs(blocker.candidates(LEFT, RIGHT)))
        assert orders[0] == orders[1] == orders[2]

    def test_order_invariant_from_unit_to_whole_layouts(self, tmp_path):
        orders = []
        for i, (shard, chunk) in enumerate([(1, 1), (2, 3), (100, 100)]):
            blocker = ShardedBlocker(bands=16, rows=2, shard_size=shard,
                                     chunk_size=chunk,
                                     spill_dir=tmp_path / f"s{i}")
            orders.append(_id_pairs(blocker.candidates(LEFT, RIGHT)))
        assert orders[0]
        assert orders[0] == orders[1] == orders[2]

    def test_entities_reconstructed_exactly(self, tmp_path):
        blocker = ShardedBlocker(bands=16, rows=2, shard_size=2,
                                 spill_dir=tmp_path / "s")
        by_id = {e.entity_id: e for e in LEFT}
        for pair in blocker.candidates(LEFT, RIGHT):
            assert pair.left == by_id[pair.left.entity_id]
        # None attributes survive the spill round-trip as None, not "".
        nulls = [p.left.attributes["phone"]
                 for p in blocker.candidates(LEFT, RIGHT)
                 if p.left.entity_id != "a0"]
        assert nulls and all(v is None for v in nulls)

    def test_verify_threshold_only_prunes(self, tmp_path):
        loose = ShardedBlocker(bands=16, rows=2, spill_dir=tmp_path / "a")
        strict = ShardedBlocker(bands=16, rows=2, verify_threshold=0.5,
                                spill_dir=tmp_path / "b")
        all_pairs = set(_id_pairs(loose.candidates(LEFT, RIGHT)))
        kept = set(_id_pairs(strict.candidates(LEFT, RIGHT)))
        assert kept <= all_pairs
        assert ("a0", "b0") in kept  # one-typo near-duplicate survives

    def test_last_stats_records_bounded_shards(self, tmp_path):
        blocker = ShardedBlocker(bands=16, rows=2, shard_size=2,
                                 spill_dir=tmp_path / "s")
        candidates = blocker.candidates(LEFT, RIGHT)
        stats = blocker.last_stats
        assert stats["num_shards"] == 2
        assert stats["max_shard_rows"] == 2
        assert stats["left_rows"] == len(LEFT)
        assert stats["right_rows"] == len(RIGHT)
        assert stats["candidates"] == len(candidates)
        assert stats["spilled_bytes"] > 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardedBlocker(shard_size=0)
        with pytest.raises(ValueError):
            ShardedBlocker(verify_threshold=1.5)


# --------------------------------------------------------------------------- #
# Union-find and transitive clustering
# --------------------------------------------------------------------------- #

class TestUnionFind:
    def test_union_and_find(self):
        dsu = UnionFind()
        dsu.union("a", "b")
        dsu.union("b", "c")
        assert dsu.find("a") == dsu.find("c")
        assert dsu.find("a") != dsu.find("d")
        assert len(dsu) == 4 and "d" in dsu

    def test_canonical_names_are_order_invariant(self):
        edges = [("e3", "e1"), ("e1", "e5"), ("e2", "e4")]
        first, second = UnionFind(), UnionFind()
        for a, b in edges:
            first.union(a, b)
        for a, b in reversed(edges):
            second.union(b, a)
        assert canonical_clusters(first) == canonical_clusters(second)
        assert canonical_clusters(first)["e5"] == "e1"

    def test_components_partition_items(self):
        dsu = UnionFind()
        dsu.union("a", "b")
        dsu.add("c")
        members = sorted(sorted(m) for m in dsu.components().values())
        assert members == [["a", "b"], ["c"]]


def _decision(left, right, probability):
    return MatchDecision(left, right, probability)


class TestTransitiveClusterer:
    def test_threshold_splits_edges(self):
        clusterer = TransitiveClusterer(threshold=0.5)
        clusterer.add_decisions([_decision("a", "b", 0.9),
                                 _decision("b", "c", 0.2)])
        clusters = clusterer.clusters()
        assert clusters.assignments == {"a": "a", "b": "a", "c": "c"}
        assert clusters.merged_edges == 1
        assert clusters.non_match_edges == 1

    def test_review_routing_defers_the_edge(self):
        clusterer = TransitiveClusterer()
        clusterer.add_decision(_decision("a", "b", 0.99), routing="review")
        clusters = clusterer.clusters()
        assert clusters.assignments == {"a": "a", "b": "b"}
        assert clusters.deferred_edges == 1
        assert clusters.deferred_sample == (("a", "b"),)

    def test_routing_overrides_threshold_both_ways(self):
        clusterer = TransitiveClusterer(threshold=0.5)
        clusterer.add_decisions(
            [_decision("a", "b", 0.1), _decision("c", "d", 0.9)],
            routing=["match", "non-match"])
        assignments = clusterer.clusters().assignments
        assert assignments["a"] == assignments["b"]
        assert assignments["c"] != assignments["d"]

    def test_redundant_edges_counted_not_merged_twice(self):
        clusterer = TransitiveClusterer()
        for __ in range(3):
            clusterer.add_decision(_decision("a", "b", 1.0))
        clusters = clusterer.clusters()
        assert clusters.merged_edges == 1
        assert clusters.redundant_edges == 2
        assert clusters.num_clusters == 1

    def test_registered_entities_stay_singletons(self):
        clusterer = TransitiveClusterer()
        clusterer.add_entities(["x", "y"])
        clusterer.add_decision(_decision("a", "b", 0.9))
        describe = clusterer.clusters().describe()
        assert describe["entities"] == 4
        assert describe["clusters"] == 3
        assert describe["singletons"] == 2

    def test_routing_length_mismatch_rejected(self):
        clusterer = TransitiveClusterer()
        with pytest.raises(ValueError):
            clusterer.add_decisions([_decision("a", "b", 0.9)], routing=[])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            TransitiveClusterer(threshold=1.5)


class TestClusterQuality:
    def test_perfect_partition(self):
        truth = {"a": "1", "b": "1", "c": "2"}
        quality = cluster_quality(truth, truth)
        assert quality.precision == quality.recall == quality.f1 == 1.0
        assert quality.true_pairs == quality.common_pairs == 1

    def test_split_cluster_loses_recall_not_precision(self):
        truth = {"a": "1", "b": "1", "c": "1"}
        predicted = {"a": "x", "b": "x", "c": "y"}
        quality = cluster_quality(predicted, truth)
        assert quality.precision == 1.0
        assert quality.recall == pytest.approx(1 / 3)

    def test_disjoint_keys_rejected(self):
        with pytest.raises(ValueError):
            cluster_quality({"a": "1"}, {"b": "1"})


# --------------------------------------------------------------------------- #
# Synthetic scale corpus
# --------------------------------------------------------------------------- #

class TestScaleCorpus:
    def test_deterministic_and_streams_to_disk(self, tmp_path):
        first = generate_scale_corpus(tmp_path / "one", 300, seed=7)
        second = generate_scale_corpus(tmp_path / "two", 300, seed=7)
        assert first.describe() == {**second.describe()}
        assert (first.left_path.read_text()
                == second.left_path.read_text())
        assert first.records >= 300
        assert first.left_rows + first.right_rows == first.records

    def test_true_matches_counts_cross_side_pairs_exactly(self, tmp_path):
        corpus = generate_scale_corpus(tmp_path / "c", 300, seed=1)
        sides = {}
        for path, side in ((corpus.left_path, "a"),
                           (corpus.right_path, "b")):
            for entity in load_entity_table(path):
                cluster = true_cluster_of(entity.entity_id)
                counts = sides.setdefault(cluster, {"a": 0, "b": 0})
                counts[side] += 1
        brute = sum(c["a"] * c["b"] for c in sides.values())
        assert brute == corpus.true_matches > 0

    def test_ids_carry_truth_but_text_does_not(self, tmp_path):
        corpus = generate_scale_corpus(tmp_path / "c", 100, seed=0)
        entity = load_entity_table(corpus.left_path)[0]
        assert true_cluster_of(entity.entity_id) == "00000000"
        assert entity.entity_id not in entity.text()
        assert true_assignments(iter([entity.entity_id])) == {
            entity.entity_id: "00000000"}

    def test_malformed_id_rejected(self):
        with pytest.raises(ValueError):
            true_cluster_of("no-separator-missing".replace("-", ""))

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            generate_scale_corpus(tmp_path, 1)
        with pytest.raises(ValueError):
            generate_scale_corpus(tmp_path, 10, renderings=(3, 2))
        with pytest.raises(ValueError):
            generate_scale_corpus(tmp_path, 10, family_size=0)


# --------------------------------------------------------------------------- #
# Streaming substrate edge cases
# --------------------------------------------------------------------------- #

class TestRaggedRows:
    def test_load_csv_names_file_and_row(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("left_id,left_name,right_id,right_name,label\n"
                        "a,alpha,b,beta,1\n"
                        "a,alpha,b,beta\n")
        with pytest.raises(ValueError, match=r"pairs\.csv row 3"):
            load_csv(path)

    def test_iter_entity_table_names_file_and_row(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("id,name\nr1,alpha\nr2,beta,extra\n")
        with pytest.raises(ValueError, match=r"table\.csv row 3"):
            list(iter_entity_table(path))

    def test_streamed_chunks_concatenate_to_eager_read(self, tmp_path):
        entities = [Entity(f"e{i}", {"name": f"tok{i}", "note": None})
                    for i in range(7)]
        path = tmp_path / "t.csv"
        assert save_entity_table(entities, path) == 7
        chunks = list(iter_entity_table(path, chunk_size=3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [e for c in chunks for e in c] == load_entity_table(path) \
            == entities


class TestOverlapStopWordBoundary:
    def test_single_row_left_table_never_stopwords(self):
        left = [Entity("a0", {"name": "unique coffee tokens"})]
        right = [Entity("b0", {"name": "unique coffee tokens"})]
        blocker = OverlapBlocker(min_overlap=2, stop_fraction=0.2)
        # cutoff floors at one document, every token appears in exactly
        # one, and 1 > 1 is false — nothing is stop-worded.
        assert _id_pairs(blocker.candidates(left, right)) == [("a0", "b0")]

    def test_token_at_exact_cutoff_is_kept(self):
        # "shared" appears in exactly 2 of 10 left rows; with
        # stop_fraction=0.2 the cutoff is 2.0 and the strict > keeps it.
        left = [Entity(f"a{i}", {"name": f"shared row{i}" if i < 2
                                 else f"filler{i} row{i}"})
                for i in range(10)]
        right = [Entity("b0", {"name": "shared elsewhere"})]
        blocker = OverlapBlocker(min_overlap=1, stop_fraction=0.2)
        assert set(_id_pairs(blocker.candidates(left, right))) == {
            ("a0", "b0"), ("a1", "b0")}

    def test_token_just_over_cutoff_is_dropped(self):
        left = [Entity(f"a{i}", {"name": f"shared row{i}" if i < 3
                                 else f"filler{i} row{i}"})
                for i in range(10)]
        right = [Entity("b0", {"name": "shared elsewhere"})]
        blocker = OverlapBlocker(min_overlap=1, stop_fraction=0.2)
        assert blocker.candidates(left, right) == []
