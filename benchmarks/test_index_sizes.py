"""§6.2 index sizes — hybrid compression vs pure run-length encoding.

The paper: "This hybrid compression fetches us as much as 40% reduction
in the index space compared to using only run-length-encoding."  The
index-size report computes the byte size of all ``2|Vp| + |Vs| + |Vo|``
BitMats under both schemes for each dataset.
"""

import os

import pytest

from .conftest import OUT_DIR


@pytest.fixture(scope="module")
def reports(lubm_store, uniprot_store, dbpedia_store):
    """``index_size_report`` once per dataset."""
    return {name: store.index_size_report()
            for name, store in (("lubm", lubm_store),
                                ("uniprot", uniprot_store),
                                ("dbpedia", dbpedia_store))}


@pytest.mark.parametrize("dataset", ["lubm", "uniprot", "dbpedia"])
def test_benchmark_index_size_report(reports, dataset):
    report = reports[dataset]
    assert report["hybrid_total"] <= report["rle_total"]


def test_hybrid_savings_report(reports):
    lines = ["Index sizes — hybrid vs RLE-only (bytes)",
             f"{'Dataset':<10} {'hybrid':>12} {'RLE-only':>12} "
             f"{'saving':>8}"]
    savings = {}
    for name in ("LUBM", "UniProt", "DBPedia"):
        report = reports[name.lower()]
        saving = 1 - report["hybrid_total"] / report["rle_total"]
        savings[name] = saving
        lines.append(f"{name:<10} {report['hybrid_total']:>12,} "
                     f"{report['rle_total']:>12,} {saving:>7.1%}")
    text = "\n".join(lines)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "index_sizes.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text + "\n")
    print("\n" + text)

    # the paper's "as much as 40%" claim: substantial savings on at
    # least one dataset, and the hybrid never loses
    assert max(savings.values()) > 0.25
    assert min(savings.values()) >= 0.0


def test_per_family_sizes(reports):
    report = reports["lubm"]
    for family in ("so", "os", "po", "ps"):
        assert report[f"hybrid_{family}"] > 0
        assert report[f"hybrid_{family}"] <= report[f"rle_{family}"]
