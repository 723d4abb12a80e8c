"""Request lists are pure functions of the seed."""

import itertools

from e2ebench import workloads

POOLS = {"course": [f"<http://x/course{i}>" for i in range(400)],
         "protein": [f'"PROT{i}_HUMAN"' for i in range(2000)],
         "place": [f'"Place {i}"' for i in range(1200)],
         "player": [f"<http://x/Player{i}>" for i in range(400)],
         "company": [f'"Comment about company {i}"' for i in range(300)]}


def _first(iterator, count):
    return list(itertools.islice(iterator, count))


def _everything(seed):
    return (_first(workloads.template_rounds(seed, 0), 3),
            _first(workloads.template_rounds(seed, 1), 3),
            _first(workloads.selective_rounds(seed), 3),
            workloads.adhoc_requests(seed, POOLS, 1500),
            _first(workloads.update_batches(seed), 120))


def test_same_seed_same_bytes():
    assert repr(_everything(7)).encode() == repr(_everything(7)).encode()


def test_other_seed_other_requests():
    for one, other in zip(_everything(7), _everything(8)):
        assert one != other


def test_the_two_clients_do_not_share_an_order():
    assert (_first(workloads.template_rounds(7, 0), 3)
            != _first(workloads.template_rounds(7, 1), 3))


def test_every_round_is_the_whole_template_set():
    names = sorted(workloads.templates())
    assert len(names) == 19
    for requests in _first(workloads.template_rounds(3, 0), 5):
        assert sorted(key for key, _ in requests) == names
    for requests in _first(workloads.selective_rounds(3), 5):
        assert sorted(key for key, _ in requests) == sorted(
            workloads.SELECTIVE)


def test_adhoc_queries_never_repeat_a_text():
    requests = workloads.adhoc_requests(11, POOLS, 1500)
    assert len(requests) == 1500
    assert len({text for _, text in requests}) == 1500
    assert ({key for key, _ in requests}
            == {shape[0] for shape in workloads.ADHOC_SHAPES})


def test_adhoc_seeds_reorder_one_set_of_texts():
    # the reference answers are computed once per checkout, not per seed
    one = workloads.adhoc_requests(11, POOLS, 1500)
    other = workloads.adhoc_requests(12, POOLS, 1500)
    assert one != other and sorted(one) == sorted(other)


def test_adhoc_shape_shares_are_unequal():
    # equal shares would put the median of the mix on a shape border
    weights = [shape[3] for shape in workloads.ADHOC_SHAPES]
    assert len(set(weights)) > 1


def test_update_batches_touch_only_benchmark_triples():
    live: set[str] = set()
    for adds, deletes in _first(workloads.update_batches(5), 150):
        assert len(adds) + len(deletes) == workloads.BATCH_TRIPLES
        assert all(line.startswith(f"<{workloads.BENCH_NS}")
                   for line in adds + deletes)
        assert set(deletes) <= live, "deleted a triple it never added"
        assert not set(adds) & live, "added a triple twice"
        live -= set(deletes)
        live |= set(adds)
    # bounded population: the graph does not grow without limit
    assert len(live) <= workloads.LIVE_POPULATION + workloads.BATCH_TRIPLES
