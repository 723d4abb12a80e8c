"""Static-analysis framework tests (``lbr lint`` / repro.analysis).

Four layers:

* **Rule honesty** — every planted-violation fixture is caught and its
  clean twin stays silent (the selfcheck corpus, parametrized so a
  failing rule names itself).
* **Framework mechanics** — suppression handling (justified silences,
  unjustified is itself a finding), scoping, JSON report schema, CLI
  exit codes, and ``--changed-only`` failing loudly outside git.
* **The repo gate** — the whole tree lints clean: zero unsuppressed
  findings, and the mypy-strict modules carry no untyped defs (the
  container has no mypy; this AST guard keeps the pyproject gate
  honest locally).
* **Pinning tests** — the true findings this checker surfaced stay
  fixed: the atomic-write handle closes on the exception edge, the
  soak compaction storm records failures by name, background
  compaction failures are counted, and an unexpected engine exception
  reaches the client typed as an ``InternalError``.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.analysis import (Finding, LintConfig, Module, all_rules,
                            apply_suppressions, check_source, main,
                            run_lint)
from repro.analysis.framework import RULE_ALLOW_JUSTIFICATION
from repro.analysis.runner import changed_files, load_config
from repro.analysis.selfcheck import FIXTURES, run_selfcheck
from repro.exceptions import InternalError, ReproError, internal_error
from repro.fsio import atomic_write
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Triple, URI
from repro.server import QueryService, ServiceConfig
from repro.server.soak import _compaction_storm
from repro.update import LiveConfig, LiveGraphStore, MemFS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rules_hit(sources: dict[str, str]) -> set[str]:
    modules = [Module.from_source(path, text)
               for path, text in sources.items()]
    from repro.analysis.runner import collect_findings
    return {finding.rule for finding in collect_findings(modules)}


# ----------------------------------------------------------------------
# rule honesty: the planted-violation corpus
# ----------------------------------------------------------------------

class TestSelfCheckCorpus:
    @pytest.mark.parametrize(
        "fixture", FIXTURES,
        ids=[f"{f.rule}-{f.name.replace(' ', '-')}" for f in FIXTURES])
    def test_bad_caught_clean_silent(self, fixture):
        assert fixture.rule in _rules_hit(fixture.bad), \
            f"{fixture.rule} missed its planted violation ({fixture.name})"
        assert fixture.rule not in _rules_hit(fixture.clean), \
            f"{fixture.rule} false-positive on the clean twin " \
            f"({fixture.name})"

    def test_every_rule_has_a_fixture(self):
        covered = {fixture.rule for fixture in FIXTURES}
        assert covered == set(all_rules()), \
            f"rules without fixtures: {set(all_rules()) - covered}"

    def test_run_selfcheck_clean(self):
        assert run_selfcheck() == []


# ----------------------------------------------------------------------
# framework mechanics
# ----------------------------------------------------------------------

BARE_EXCEPT = textwrap.dedent("""
    def run(task):
        try:
            task()
        except:
            pass
""").lstrip()


class TestSuppressions:
    def test_justified_suppression_silences(self):
        source = BARE_EXCEPT.replace(
            "except:",
            "except:  # lbr: allow[exc-bare-except]: test harness")
        module = Module.from_source("mod.py", source)
        from repro.analysis.runner import collect_findings
        kept, used = apply_suppressions(
            collect_findings([module]), [module])
        assert kept == []
        assert len(used) == 1
        assert used[0].justification == "test harness"

    def test_unjustified_suppression_is_a_finding(self):
        source = BARE_EXCEPT.replace(
            "except:", "except:  # lbr: allow[exc-bare-except]")
        module = Module.from_source("mod.py", source)
        from repro.analysis.runner import collect_findings
        kept, _used = apply_suppressions(
            collect_findings([module]), [module])
        rules = {finding.rule for finding in kept}
        # the original finding survives AND the naked allow is flagged
        assert "exc-bare-except" in rules
        assert RULE_ALLOW_JUSTIFICATION in rules

    def test_suppression_covers_line_above(self):
        source = BARE_EXCEPT.replace(
            "    except:",
            "    # lbr: allow[exc-bare-except]: test harness\n"
            "    except:")
        module = Module.from_source("mod.py", source)
        from repro.analysis.runner import collect_findings
        kept, used = apply_suppressions(
            collect_findings([module]), [module])
        assert kept == [] and len(used) == 1

    def test_suppression_does_not_leak_to_other_rules(self):
        source = BARE_EXCEPT.replace(
            "except:",
            "except:  # lbr: allow[det-unsorted-iteration]: wrong rule")
        module = Module.from_source("mod.py", source)
        from repro.analysis.runner import collect_findings
        kept, used = apply_suppressions(
            collect_findings([module]), [module])
        assert {finding.rule for finding in kept} == {"exc-bare-except"}
        assert used == []


class TestScoping:
    CONFIG = LintConfig.from_pyproject(textwrap.dedent("""
        [tool.lbr.lint]
        paths = ["src"]
        [tool.lbr.lint.scopes]
        "det-unsorted-iteration" = ["src/plan/*.py"]
    """))

    def test_scoped_rule_binds_to_glob(self):
        assert self.CONFIG.rule_applies(
            "det-unsorted-iteration", "src/plan/passes.py")
        assert not self.CONFIG.rule_applies(
            "det-unsorted-iteration", "src/server/net.py")

    def test_unscoped_rule_applies_everywhere(self):
        assert self.CONFIG.rule_applies("exc-bare-except",
                                        "src/server/net.py")


class TestReportAndCli:
    def _tree(self, tmp_path, source: str) -> str:
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(source)
        (tmp_path / "pyproject.toml").write_text(
            "[tool.lbr.lint]\npaths = [\"pkg\"]\n")
        return str(tmp_path)

    def test_json_schema(self, tmp_path):
        root = self._tree(tmp_path, BARE_EXCEPT)
        report = run_lint(root)
        payload = report.to_json()
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts_by_rule"] == {"exc-bare-except": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "rule", "message",
                                "checker"}
        assert finding["path"] == "pkg/mod.py"
        assert isinstance(finding["line"], int)
        assert payload["suppressions_used"] == []
        json.dumps(payload)  # must be serializable as-is

    def test_cli_exit_codes_and_out_file(self, tmp_path):
        root = self._tree(tmp_path, BARE_EXCEPT)
        lines: list[str] = []
        out = str(tmp_path / "report.json")
        code = main(["--root", root, "--format", "json", "--out", out],
                    stdout=lines.append)
        assert code == 1
        payload = json.loads(lines[0])
        assert payload["ok"] is False
        with open(out, encoding="utf-8") as handle:
            assert json.load(handle) == payload
        # a clean tree exits 0
        (tmp_path / "pkg" / "mod.py").write_text("VALUE = 1\n")
        assert main(["--root", root], stdout=lambda _line: None) == 0

    def test_parse_error_is_a_finding(self, tmp_path):
        root = self._tree(tmp_path, "def broken(:\n")
        report = run_lint(root)
        assert [finding.rule for finding in report.findings] \
            == ["parse-error"]

    def test_changed_only_outside_git_exits_2(self, tmp_path):
        root = self._tree(tmp_path, BARE_EXCEPT)
        with pytest.raises(RuntimeError):
            changed_files(root)
        code = main(["--root", root, "--changed-only"],
                    stdout=lambda _line: None)
        assert code == 2

    def test_changed_only_scopes_to_touched_files(self, tmp_path):
        root = self._tree(tmp_path, BARE_EXCEPT)
        (tmp_path / "pkg" / "other.py").write_text(BARE_EXCEPT)
        env = {**os.environ,
               "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
        for argv in (["git", "init", "-q"],
                     ["git", "add", "-A"],
                     ["git", "commit", "-qm", "seed"]):
            subprocess.run(argv, cwd=root, env=env, check=True,
                           capture_output=True)
        # nothing changed yet -> nothing linted, exit 0
        report = run_lint(root, changed_only=True)
        assert report.files_checked == 0 and report.ok
        # touch one of the two offending files -> only it is linted
        (tmp_path / "pkg" / "mod.py").write_text(BARE_EXCEPT + "\n")
        report = run_lint(root, changed_only=True)
        assert report.files_checked == 1
        assert {finding.path for finding in report.findings} \
            == {"pkg/mod.py"}

    def test_rule_filter(self, tmp_path):
        root = self._tree(tmp_path, BARE_EXCEPT)
        report = run_lint(root, rules=["det-unsorted-iteration"])
        assert report.ok  # the bare except is filtered out

    def test_module_entrypoint_runs(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        assert completed.returncode == 0
        assert "exc-bare-except" in completed.stdout


# ----------------------------------------------------------------------
# the repo gate
# ----------------------------------------------------------------------

class TestRepoGate:
    def test_repo_lints_clean(self):
        """Zero unsuppressed findings over the whole source tree."""
        report = run_lint(REPO_ROOT)
        rendered = "\n".join(finding.render()
                             for finding in report.findings)
        assert report.ok, f"unsuppressed findings:\n{rendered}"

    def test_every_used_suppression_is_justified(self):
        report = run_lint(REPO_ROOT)
        for suppression in report.suppressions_used:
            assert suppression.justification, \
                f"{suppression.path}:{suppression.line} lacks a reason"

    def test_mypy_strict_modules_have_no_untyped_defs(self):
        """Local stand-in for the CI mypy gate (container has no mypy):
        every def in the pyproject strict modules is fully annotated."""
        targets = ["src/repro/bitmat/backend.py",
                   "src/repro/bitmat/source.py", "src/repro/sync.py",
                   "src/repro/lru.py"]
        targets += sorted(glob.glob(
            os.path.join(REPO_ROOT, "src/repro/plan/*.py")))
        missing: list[str] = []
        for target in targets:
            path = (target if os.path.isabs(target)
                    else os.path.join(REPO_ROOT, target))
            tree = ast.parse(open(path, encoding="utf-8").read())
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                args = node.args
                unannotated = [
                    arg.arg for arg in (args.posonlyargs + args.args
                                        + args.kwonlyargs)
                    if arg.arg not in ("self", "cls")
                    and arg.annotation is None]
                unannotated += [
                    "*" + arg.arg for arg in (args.vararg, args.kwarg)
                    if arg is not None and arg.annotation is None]
                if node.returns is None:
                    unannotated.append("return")
                if unannotated:
                    missing.append(f"{os.path.relpath(path, REPO_ROOT)}"
                                   f":{node.lineno} {node.name}: "
                                   f"{unannotated}")
        assert not missing, "untyped defs in mypy-strict modules:\n" \
            + "\n".join(missing)

    def test_pyproject_scopes_name_real_rules(self):
        config = load_config(REPO_ROOT)
        known = set(all_rules())
        unknown = set(config.scopes) - known
        assert not unknown, f"scoped rules that do not exist: {unknown}"


# ----------------------------------------------------------------------
# pinning tests for the findings this checker surfaced
# ----------------------------------------------------------------------

class _ExplodingHandle:
    def __init__(self):
        self.closed = False

    def write(self, data: bytes) -> int:
        raise OSError("disk full")

    def flush(self) -> None:  # pragma: no cover - not reached
        pass

    def fsync(self) -> None:  # pragma: no cover - not reached
        pass

    def close(self) -> None:
        self.closed = True


class _ExplodingFS:
    def __init__(self):
        self.handle = _ExplodingHandle()

    def open_write(self, path: str):
        return self.handle

    def replace(self, src: str, dst: str) -> None:  # pragma: no cover
        raise AssertionError("replace after failed write")

    def fsync_dir(self, path: str) -> None:  # pragma: no cover
        raise AssertionError("fsync_dir after failed write")


class TestPinnedFixes:
    def test_atomic_write_closes_handle_on_write_failure(self):
        """fsio.py finding: the temp handle leaked if write() raised."""
        fs = _ExplodingFS()
        with pytest.raises(OSError):
            atomic_write(fs, "/x/file.bin", b"payload")
        assert fs.handle.closed

    def test_internal_error_wraps_and_chains(self):
        original = ValueError("boom")
        wrapped = internal_error(original)
        assert isinstance(wrapped, InternalError)
        assert isinstance(wrapped, ReproError)
        assert wrapped.original_type == "ValueError"
        assert wrapped.__cause__ is original
        assert "ValueError" in str(wrapped) and "boom" in str(wrapped)
        # idempotent: wrapping a wrap never buries the original type
        assert internal_error(wrapped) is wrapped

    def test_compaction_storm_records_failure(self):
        """soak.py finding: a failed storm merge exited silently."""
        class _FailingLive:
            def compact(self):
                raise RuntimeError("merge exploded")

        errors: list[str] = []
        _compaction_storm(_FailingLive(), interval=0.0,
                          stop_at=time.monotonic() + 30.0,
                          errors=errors)
        assert len(errors) == 1
        assert "RuntimeError" in errors[0]
        assert "merge exploded" in errors[0]

    def test_background_compaction_failure_is_counted(self):
        """live.py finding: the compactor thread swallowed errors."""
        graph = Graph()
        for index in range(4):
            graph.add(Triple(URI(f"http://x/s{index}"),
                             URI("http://x/p"), Literal(str(index))))
        live = LiveGraphStore.open(
            "/live", fs=MemFS(), initial=graph,
            config=LiveConfig(compact_threshold=None, background=True))
        try:
            live.apply_batch(
                [Triple(URI("http://x/new"), URI("http://x/p"),
                        Literal("v"))], [])

            def explode(base, delta):
                raise RuntimeError("rebuild exploded")

            live._materialize = explode
            live.request_compaction()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if live.stats()["compaction_failures"]:
                    break
                time.sleep(0.01)
            stats = live.stats()
            assert stats["compaction_failures"] >= 1
            assert "RuntimeError" in stats["last_compaction_error"]
        finally:
            live.close()

    def test_unexpected_engine_error_reaches_client_typed(self):
        """scheduler.py finding: broad except now routes through the
        taxonomy — the client sees InternalError + the original type,
        and the soak gate sees worker_errors move."""
        graph = Graph()
        graph.add(Triple(URI("http://x/a"), URI("http://x/knows"),
                         URI("http://x/b")))
        with QueryService.from_graph(
                graph, ServiceConfig(workers=1)) as service:
            snapshot = service.scheduler.snapshots.current()

            class _ExplodingSession:
                last_stats = None

                def execute(self, query_text):
                    raise RuntimeError("engine bug")

            real_session = snapshot.engine.session
            snapshot.engine.session = \
                lambda **kwargs: _ExplodingSession()
            try:
                outcome = service.execute(
                    "SELECT * WHERE { ?s <http://x/knows> ?o }")
            finally:
                snapshot.engine.session = real_session
            assert not outcome.ok
            assert outcome.error_type == "internal"
            assert "InternalError" in outcome.error
            assert "RuntimeError" in outcome.error
            assert service.scheduler.stats()["worker_errors"] == 1
            # the worker thread survived the routed error
            live_outcome = service.execute(
                "SELECT * WHERE { ?s <http://x/knows> ?o }")
            assert live_outcome.ok


# ----------------------------------------------------------------------
# determinism of the lint pass itself
# ----------------------------------------------------------------------

def test_findings_are_ordered_and_deduplicated():
    source = BARE_EXCEPT + "\n" + BARE_EXCEPT.replace("run", "run2")
    first = check_source(source, "mod.py")
    second = check_source(source, "mod.py")
    assert first == second
    assert [finding.line for finding in first] \
        == sorted(finding.line for finding in first)
    assert all(isinstance(finding, Finding) for finding in first)
