import random

import pytest

from convstruct.corpus import CorpusError
from convstruct.threads import (
    ThreadError,
    ThreadPartition,
    derive_threads,
    link_set,
    thread_events,
)

from conftest import NAMES, random_records, record, table4_records


class TestDeriveThreads:
    def test_two_thread_example(self):
        part = derive_threads(table4_records())
        assert [sorted(c) for c in part.clusters] == [[11, 12], [13, 14]]

    def test_all_self_links_are_singletons(self):
        records = [record(i, "a") for i in range(1, 6)]
        part = derive_threads(records)
        assert [sorted(c) for c in part.clusters] == [[1], [2], [3], [4], [5]]

    def test_chain_is_one_cluster(self):
        records = [record(1, "a")] + [
            record(i, "a", reply_to=i - 1) for i in range(2, 5)
        ]
        part = derive_threads(records)
        assert [sorted(c) for c in part.clusters] == [[1, 2, 3, 4]]

    def test_order_invariant(self):
        rng = random.Random(7)
        for trial in range(50):
            records = random_records(rng, rng.randint(2, 20), NAMES[:4])
            shuffled = list(records)
            rng.shuffle(shuffled)
            assert derive_threads(records) == derive_threads(shuffled)

    def test_cluster_count_for_tree_links(self):
        # parent < child guarantees a forest: |clusters| = n - |links|
        rng = random.Random(11)
        for trial in range(100):
            records = random_records(rng, rng.randint(1, 25), NAMES[:3])
            part = derive_threads(records)
            assert len(part.clusters) == len(records) - len(link_set(records))

    def test_every_cluster_has_exactly_one_root(self):
        rng = random.Random(13)
        for trial in range(50):
            records = random_records(rng, rng.randint(1, 25), NAMES[:3])
            roots = {r.line_idx for r in records if r.is_thread_start}
            for cluster in derive_threads(records).clusters:
                assert len(cluster & roots) == 1

    @pytest.mark.parametrize("reply_to", [3, 9], ids=["forward", "dangling"])
    def test_reply_to_no_earlier_record_raises(self, reply_to):
        records = [record(1, "a"), record(2, "a", reply_to=reply_to), record(3, "a")]
        with pytest.raises(ValueError, match="line 2"):
            derive_threads(records)


class TestLinkSet:
    def test_example_rows(self):
        assert link_set(table4_records()) == {(12, 11), (14, 13)}

    def test_all_self_is_empty(self):
        assert link_set([record(i, "a") for i in range(1, 4)]) == frozenset()

    def test_three_line_chain(self):
        records = [record(1, "a"), record(2, "a", reply_to=1),
                   record(3, "a", reply_to=2)]
        assert link_set(records) == {(2, 1), (3, 2)}


class TestPartition:
    def test_rejects_overlapping_clusters(self):
        with pytest.raises(ValueError):
            ThreadPartition.from_clusters([{1, 2}, {2, 3}])

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            ThreadPartition.from_clusters([{1}, set()])

    def test_ordering_by_min_member(self):
        part = ThreadPartition.from_clusters([{5, 6}, {1, 9}, {2}])
        assert [min(c) for c in part.clusters] == [1, 2, 5]
        assert sum(len(c) for c in part.clusters) == 5
        assert frozenset().union(*part.clusters) == {1, 2, 5, 6, 9}

    @pytest.mark.parametrize("build", [
        lambda: ThreadPartition.from_clusters([{1, 2}, {2, 3}]),
        lambda: ThreadPartition.from_clusters([{1}, set()]),
        lambda: derive_threads([record(1, "a"), record(2, "a", reply_to=5)]),
    ], ids=["overlap", "empty", "dangling"])
    def test_errors_are_corpus_errors(self, build):
        with pytest.raises(ThreadError) as caught:
            build()
        assert isinstance(caught.value, CorpusError)


class TestThreadEvents:
    def test_example_rows(self):
        events = thread_events(table4_records())
        assert [(i, p.canonical_name) for i, p in events.starters] == [(13, "penny")]
        assert [(i, p.canonical_name) for i, p in events.holders] == [
            (12, "leonard hofstadter"), (14, "penny")]

    def test_clip_initial_self_link_is_not_a_start(self):
        records = [record(1, "a"), record(2, "b", reply_to=1)]
        assert thread_events(records).starters == ()

    def test_continuation_is_not_a_hold(self):
        records = [record(1, "a"), record(2, "a", reply_to=1)]
        assert thread_events(records).holders == ()

    def test_nondialogic_lines_excluded_by_default(self):
        records = [
            record(1, "a"),
            record(2, "b", reply_to=2, monologue=True),
            record(3, "c", reply_to=1, extra_diegetic=True),
            record(4, "b", reply_to=3),
        ]
        events = thread_events(records)
        assert events.starters == ()
        assert events.holders == ()  # line 4's parent is flagged
        included = thread_events(records, include_nondialogic=True)
        assert [i for i, _ in included.starters] == [2]
        assert [i for i, _ in included.holders] == [3, 4]

    def test_empty_records(self):
        events = thread_events([])
        assert events.starters == () and events.holders == ()
