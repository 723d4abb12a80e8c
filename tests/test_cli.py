"""CLI tests via the in-process entry point."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.rdf import ntriples


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "data.nt")
    text = """
<http://ex/jerry> <http://ex/hasFriend> <http://ex/julia> .
<http://ex/jerry> <http://ex/hasFriend> <http://ex/larry> .
<http://ex/julia> <http://ex/actedIn> <http://ex/seinfeld> .
"""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.strip() + "\n")
    return path


QUERY = ("SELECT * WHERE { <http://ex/jerry> <http://ex/hasFriend> ?f "
         "OPTIONAL { ?f <http://ex/actedIn> ?s } }")


class TestInfo:
    def test_info_prints_characteristics(self, data_file, capsys):
        assert main(["info", data_file]) == 0
        out = capsys.readouterr().out
        assert "triples=3" in out


class TestIndexAndQuery:
    def test_index_then_query_store(self, data_file, tmp_path, capsys):
        # `index` is an alias of `freeze`: same handler, same image
        store_path = str(tmp_path / "data.lbrm")
        assert main(["index", data_file, "--out", store_path]) == 0
        assert "froze 3 triples" in capsys.readouterr().out
        assert main(["query", "--store", store_path, "--query", QUERY,
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert "julia" in captured.out
        assert "NULL" in captured.out  # larry has no sitcom
        assert "2 rows" in captured.err
        assert "best-match" in captured.err

    def test_query_data_with_each_engine(self, data_file, capsys):
        for engine in ("lbr", "naive", "columnstore"):
            assert main(["query", "--data", data_file, "--query", QUERY,
                         "--engine", engine]) == 0
            out = capsys.readouterr().out
            assert "seinfeld" in out, engine

    def test_query_limit(self, data_file, capsys):
        assert main(["query", "--data", data_file, "--query", QUERY,
                     "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_explain(self, data_file, capsys):
        assert main(["query", "--data", data_file, "--query", QUERY,
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "branch 1/1" in out
        assert "(P1 OPT P2)" in out

    @pytest.mark.parametrize("engine", ["naive", "columnstore"])
    def test_explain_with_a_baseline_engine(self, data_file, engine,
                                            capsys):
        """--explain prints LBR's plan whatever --engine names."""
        assert main(["query", "--data", data_file, "--query", QUERY,
                     "--engine", engine, "--explain"]) == 0
        assert "(P1 OPT P2)" in capsys.readouterr().out

    def test_query_requires_text(self, data_file, capsys):
        assert main(["query", "--data", data_file]) == 2

    def test_baseline_needs_data_not_store(self, data_file, tmp_path,
                                           capsys):
        store_path = str(tmp_path / "data2.lbrm")
        main(["freeze", data_file, "--out", store_path])
        capsys.readouterr()
        assert main(["query", "--store", store_path, "--query", QUERY,
                     "--engine", "naive"]) == 2

    def test_query_file(self, data_file, tmp_path, capsys):
        query_path = str(tmp_path / "q.rq")
        with open(query_path, "w", encoding="utf-8") as handle:
            handle.write(QUERY)
        assert main(["query", "--data", data_file,
                     "--query-file", query_path]) == 0
        assert "julia" in capsys.readouterr().out


class TestFreeze:
    def test_freeze_from_ntriples(self, data_file, tmp_path, capsys):
        from repro.bitmat import open_store

        out = str(tmp_path / "data.lbrm")
        assert main(["freeze", data_file, "--out", out]) == 0
        message = capsys.readouterr().out
        assert "froze 3 triples" in message
        assert "4096-byte aligned" in message
        store = open_store(out)
        assert store.num_triples == 3
        assert store.cache_stats()["extents"]["materializations"] == 0
        store.close()

    def test_freeze_from_store_image(self, data_file, tmp_path, capsys):
        store_path = str(tmp_path / "first.lbrm")
        frozen_path = str(tmp_path / "data.lbrm")
        assert main(["freeze", data_file, "--out", store_path]) == 0
        assert main(["freeze", store_path, "--out", frozen_path]) == 0
        capsys.readouterr()
        with open(store_path, "rb") as first, \
                open(frozen_path, "rb") as second:
            assert first.read() == second.read()
        # the frozen image answers queries identically to the source
        assert main(["query", "--store", frozen_path,
                     "--query", QUERY]) == 0
        out = capsys.readouterr().out
        assert "julia" in out
        assert "NULL" in out

    def test_info_reads_frozen_image(self, data_file, tmp_path, capsys):
        out = str(tmp_path / "data.lbrm")
        main(["freeze", data_file, "--out", out])
        capsys.readouterr()
        assert main(["info", out]) == 0
        assert "triples=3" in capsys.readouterr().out

    def test_info_sniffs_the_magic_not_the_extension(self, data_file,
                                                     tmp_path, capsys):
        out = str(tmp_path / "lubm.bm")   # the name SKILL.md suggests
        bare = str(tmp_path / "image")
        for path in (out, bare):
            main(["freeze", data_file, "--out", path])
            capsys.readouterr()
            assert main(["info", path]) == 0
            assert "shared=" in capsys.readouterr().out

    def test_store_commands_leak_no_handles(self, data_file, tmp_path):
        """`info` and `query --store` (also on the malformed- and
        unsupported-query edges, which exit 2 with a one-line error
        instead of a traceback) close the image they map: no
        ResourceWarning."""
        image = str(tmp_path / "data.lbrm")
        assert main(["freeze", data_file, "--out", image]) == 0
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for argv, code in (
                (["info", image], 0),
                (["query", "--store", image, "--query", QUERY], 0),
                (["query", "--store", image, "--query",
                  "SELECT * WHERE { ?a ?p ?b }"], 2),
                (["query", "--store", image, "--query",
                  "SELECT WHERE {"], 2)):
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-W",
                 "error::ResourceWarning", "-m", "repro", *argv],
                env=env, capture_output=True, text=True)
            assert done.returncode == code, done.stderr
            assert "ResourceWarning" not in done.stderr, done.stderr
            assert "Traceback" not in done.stderr, done.stderr
            if code == 2:
                assert done.stderr.startswith("error: "), done.stderr


class TestServe:
    def test_serve_speaks_ndjson_and_shuts_down(self, data_file,
                                                tmp_path, capsys):
        import threading
        import time

        from repro.server import ServerClient

        port_file = str(tmp_path / "port")
        exit_codes: list[int] = []

        def run_server() -> None:
            exit_codes.append(main(
                ["serve", "--data", data_file, "--port", "0",
                 "--port-file", port_file, "--workers", "2",
                 "--queue-limit", "8"]))

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.01)
        with open(port_file, encoding="utf-8") as handle:
            port = int(handle.read().strip())

        with ServerClient("127.0.0.1", port) as client:
            assert client.ping()["pong"]
            response = client.query(QUERY)
            assert response["ok"]
            wire_rows = {tuple(row) for row in response["rows"]}
            assert ("<http://ex/julia>",
                    "<http://ex/seinfeld>") in wire_rows
            assert any(row[1] is None for row in response["rows"])
            stats = client.stats()["stats"]
            assert stats["scheduler"]["completed"] >= 1
            assert client.shutdown()["stopping"]
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_codes == [0]
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out

    def test_serve_mmap_store_lazily(self, data_file, tmp_path, capsys):
        import threading
        import time

        from repro.server import ServerClient

        frozen_path = str(tmp_path / "data.lbrm")
        main(["freeze", data_file, "--out", frozen_path])
        port_file = str(tmp_path / "port")
        exit_codes: list[int] = []

        def run_server() -> None:
            exit_codes.append(main(
                ["serve", "--store", frozen_path, "--mmap", "--port", "0",
                 "--port-file", port_file, "--workers", "1"]))

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.01)
        with open(port_file, encoding="utf-8") as handle:
            port = int(handle.read().strip())

        with ServerClient("127.0.0.1", port) as client:
            response = client.query(
                "SELECT * WHERE { ?a <http://ex/actedIn> ?s }")
            assert response["ok"]
            assert response["rows"] == [
                ["<http://ex/julia>", "<http://ex/seinfeld>"]]
            extents = client.stats()["stats"]["store_caches"]["extents"]
            # only the predicate the query touched was decoded
            assert extents["materializations"] == 1
            assert extents["extents"] == 2
            assert client.shutdown()["stopping"]
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_codes == [0]
        assert ", mmap" in capsys.readouterr().out

    def test_serve_rejects_missing_source(self, capsys):
        # --live-dir is a third valid source, so the check moved from
        # argparse into _serve: a plain error exit, not a usage crash
        assert main(["serve"]) == 2
        assert "provide --data, --store, or --live-dir" \
            in capsys.readouterr().err


class TestGenerate:
    def test_generate_lubm(self, tmp_path, capsys):
        out_path = str(tmp_path / "lubm.nt")
        assert main(["generate", "lubm", "--out", out_path,
                     "--scale", "1.0"]) == 0
        graph = ntriples.load(out_path)
        assert len(graph) > 10_000

    def test_generate_with_seed_is_deterministic(self, tmp_path, capsys):
        first = str(tmp_path / "a.nt")
        second = str(tmp_path / "b.nt")
        main(["generate", "uniprot", "--out", first, "--seed", "3",
              "--scale", "0.05"])
        main(["generate", "uniprot", "--out", second, "--seed", "3",
              "--scale", "0.05"])
        with open(first) as handle_a, open(second) as handle_b:
            assert handle_a.read() == handle_b.read()


class TestBench:
    def test_runs_below_one_is_a_usage_error(self, capsys):
        for runs in ("0", "-2"):
            with pytest.raises(SystemExit) as exit_info:
                main(["bench", "uniprot", "--runs", runs])
            assert exit_info.value.code == 2
            assert "error: argument --runs: must be at least 1" \
                in capsys.readouterr().err

    def test_tiny_dataset_prints_the_table(self, monkeypatch, capsys):
        import repro.datasets as datasets
        generate = datasets.generate_uniprot
        monkeypatch.setattr(
            datasets, "generate_uniprot",
            lambda: generate(datasets.UniProtConfig(proteins=10)))
        assert main(["bench", "uniprot", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "UniProt — query processing times" in out
        for token in ("Tinit", "Tprune", "Twarm", "Tcol"):
            assert token in out
        assert all(f"\nQ{n} " in out for n in range(1, 8))
