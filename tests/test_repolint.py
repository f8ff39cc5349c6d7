"""Tests for tools/repolint — the serving-stack invariant linter.

Every rule gets at least one positive fixture (the violation fires) and one
negative fixture (the idiomatic pattern passes).  The suite also locks in the
suppression-comment contract, the CLI exit codes, and — most importantly —
that the live tree under ``src/repro`` is clean, so a regression in any
serving invariant fails the tier-1 run even on machines without the CI gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from tools.repolint import RULES, Finding, lint_paths, lint_sources

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(source: str, select=None):
    return lint_sources({"snippet.py": textwrap.dedent(source)}, select)


def codes(findings) -> list:
    return [finding.code for finding in findings]


# --------------------------------------------------------------------- #
# RL001 — epoch-bump
# --------------------------------------------------------------------- #
class TestEpochBump:
    def test_mutator_without_bump_fires(self):
        findings = lint_snippet(
            """
            class FlatIndex:
                def __init__(self):
                    self.epoch = 0
                    self._rows = []

                def add(self, row):
                    self._rows.append(row)
            """
        )
        assert codes(findings) == ["RL001"]
        assert "FlatIndex.add" in findings[0].message

    def test_mutator_with_bump_passes(self):
        findings = lint_snippet(
            """
            class FlatIndex:
                def __init__(self):
                    self.epoch = 0
                    self._rows = []

                def add(self, row):
                    self._rows.append(row)
                    self.epoch += 1
            """
        )
        assert findings == []

    def test_branch_that_skips_the_bump_fires(self):
        findings = lint_snippet(
            """
            class FlatIndex:
                def __init__(self):
                    self.epoch = 0
                    self._map = {}

                def update(self, key, row):
                    self._map[key] = row
                    if key is None:
                        return
                    self.epoch += 1
            """
        )
        assert codes(findings) == ["RL001"]

    def test_clean_early_return_before_mutation_passes(self):
        findings = lint_snippet(
            """
            class FlatIndex:
                def __init__(self):
                    self.epoch = 0
                    self._map = {}

                def update(self, key, row):
                    if key not in self._map:
                        return
                    self._map[key] = row
                    self.epoch += 1
            """
        )
        assert findings == []

    def test_delegating_to_a_mutator_counts_as_bumping(self):
        findings = lint_snippet(
            """
            class FlatIndex:
                def __init__(self):
                    self.epoch = 0
                    self._rows = []

                def add(self, row):
                    self._rows.append(row)
                    self.epoch += 1

                def update_batch(self, rows):
                    for row in rows:
                        self.add(row)
            """
        )
        assert findings == []

    def test_non_index_class_is_out_of_scope(self):
        findings = lint_snippet(
            """
            class Formatter:
                def __init__(self):
                    self._parts = []

                def add(self, part):
                    self._parts.append(part)
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RL003 — batch-of-one
# --------------------------------------------------------------------- #
class TestBatchOfOne:
    def test_pure_delegation_passes(self):
        findings = lint_snippet(
            """
            class Index:
                def search_batch(self, queries):
                    return [len(q) for q in queries]

                def search(self, query):
                    return self.search_batch([query])[0]
            """
        )
        assert findings == []

    def test_wrapper_with_its_own_loop_fires(self):
        findings = lint_snippet(
            """
            class Index:
                def search_batch(self, queries):
                    return [len(q) for q in queries]

                def search(self, query):
                    out = []
                    for row in self.search_batch([query]):
                        out.append(row)
                    return out
            """
        )
        assert codes(findings) == ["RL003"]
        assert "for block" in findings[0].message

    def test_wrapper_that_bypasses_the_canonical_fires(self):
        findings = lint_snippet(
            """
            class Drift:
                def search_batch(self, queries):
                    return list(queries)

                def search(self, query):
                    return self._lookup(query)
            """
        )
        assert codes(findings) == ["RL003"]
        assert "never calls self.search_batch" in findings[0].message

    def test_batch_derived_from_single_is_exempt(self):
        # The offline model zoo's fallback direction: an abstract score_items
        # with a default score_items_batch that loops over it.
        findings = lint_snippet(
            """
            class Recommender:
                def score_items(self, user, items):
                    raise NotImplementedError

                def score_items_batch(self, users, items):
                    return [self.score_items(user, items) for user in users]
            """
        )
        assert findings == []

    def test_single_method_without_a_pair_is_out_of_scope(self):
        findings = lint_snippet(
            """
            class Solo:
                def search(self, query):
                    return query.upper()
            """
        )
        assert findings == []

    def test_recommend_is_a_tracked_pair(self):
        findings = lint_snippet(
            """
            class Server:
                def recommend_batch(self, requests):
                    return [[] for _ in requests]

                def recommend(self, user_id, k=50):
                    try:
                        return self.recommend_batch([(user_id, k)])[0]
                    except RuntimeError:
                        return []
            """
        )
        assert codes(findings) == ["RL003"]
        assert "try block" in findings[0].message

    def test_single_row_eq12_beside_score_for_users_fires(self):
        # a second, single-row eq. 12 next to the window-wide one
        findings = lint_snippet(
            """
            class Neighborhood:
                def score_for_users(self, user_ids, user_embeddings=None, histories=None):
                    return self._votes(user_ids, histories)

                def score_for_user(self, user_id, user_embedding, history=None):
                    neighbors = self.neighbors(user_embedding, user_id)
                    return self._scores_from_neighbors(*neighbors)
            """
        )
        assert codes(findings) == ["RL003"]
        assert "Neighborhood.score_for_user" in findings[0].message
        assert "never calls self.score_for_users" in findings[0].message

    def test_score_for_user_delegating_to_score_for_users_passes(self):
        findings = lint_snippet(
            """
            class Neighborhood:
                def score_for_users(self, user_ids, user_embeddings=None, histories=None):
                    return self._votes(user_ids, histories)

                def score_for_user(self, user_id, user_embedding, history=None):
                    return self.score_for_users(
                        [user_id], user_embeddings=user_embedding[None, :], histories=[history]
                    )[0]
            """
        )
        assert findings == []

    def test_frontend_bypassing_held_batch_path_fires(self):
        # A front-end that routes windows through server.recommend_batch must
        # not sneak a per-request helper onto server.recommend.
        findings = lint_snippet(
            """
            class Frontend:
                def _execute(self, window):
                    return self.server.recommend_batch(window)

                async def recommend(self, user_id, k):
                    return self.server.recommend(user_id, k)
            """
        )
        assert codes(findings) == ["RL003"]
        assert "single-path bypass" in findings[0].message
        assert "self.server.recommend" in findings[0].message

    def test_frontend_on_the_coalesced_path_passes(self):
        findings = lint_snippet(
            """
            class Frontend:
                def _execute(self, window):
                    return self.server.recommend_batch(window)

                async def recommend(self, user_id, k):
                    return await self._enqueue((user_id, k))
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RL004 — degraded-not-cached
# --------------------------------------------------------------------- #
class TestDegradedNotCached:
    def test_serve_batch_without_cacheable_fires(self):
        findings = lint_snippet(
            """
            def recommend(layer, keys, tokens, compute):
                return serve_batch(layer, keys, tokens, compute)
            """
        )
        assert codes(findings) == ["RL004"]
        assert "cacheable" in findings[0].message

    def test_serve_batch_with_cacheable_passes(self):
        findings = lint_snippet(
            """
            def recommend(layer, keys, tokens, compute, server):
                return serve_batch(
                    layer, keys, tokens, compute, cacheable=lambda: not server.degraded
                )
            """
        )
        assert findings == []

    def test_unguarded_cache_put_fires(self):
        findings = lint_snippet(
            """
            class Server:
                def remember(self, key, value):
                    self._neighbor_cache.put(key, value)
            """
        )
        assert codes(findings) == ["RL004"]

    def test_guarded_cache_put_passes(self):
        findings = lint_snippet(
            """
            class Server:
                def remember(self, key, value, cacheable):
                    if cacheable:
                        self._neighbor_cache.put(key, value)
            """
        )
        assert findings == []

    def test_guard_via_assigned_flag_passes(self):
        findings = lint_snippet(
            """
            class Server:
                def remember(self, key, value):
                    ok = not self.degraded
                    if ok:
                        self._neighbor_cache.put(key, value)
            """
        )
        assert findings == []

    def test_put_on_a_non_cache_receiver_is_out_of_scope(self):
        findings = lint_snippet(
            """
            def enqueue(queue, item):
                queue.put(item)
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RL005 — unbounded-telemetry
# --------------------------------------------------------------------- #
class TestUnboundedTelemetry:
    def test_list_accumulator_fires(self):
        findings = lint_snippet(
            """
            class Server:
                def __init__(self):
                    self._latency_samples = []
            """
        )
        assert codes(findings) == ["RL005"]

    def test_maxlen_deque_passes(self):
        findings = lint_snippet(
            """
            from collections import deque

            class Server:
                def __init__(self):
                    self._latency_samples = deque(maxlen=256)
            """
        )
        assert findings == []

    def test_unbounded_deque_fires(self):
        findings = lint_snippet(
            """
            from collections import deque

            class Server:
                def __init__(self):
                    self._recent_timings = deque()
            """
        )
        assert codes(findings) == ["RL005"]

    def test_non_telemetry_list_is_out_of_scope(self):
        findings = lint_snippet(
            """
            class Server:
                def __init__(self):
                    self._rows = []
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RL006 — base-exception-swallow
# --------------------------------------------------------------------- #
class TestBaseExceptionSwallow:
    def test_swallowed_base_exception_fires(self):
        findings = lint_snippet(
            """
            def supervise(work):
                try:
                    work()
                except BaseException:
                    pass
            """
        )
        assert codes(findings) == ["RL006"]

    def test_reraised_base_exception_passes(self):
        findings = lint_snippet(
            """
            def supervise(work, log):
                try:
                    work()
                except BaseException:
                    log.error("worker died")
                    raise
            """
        )
        assert findings == []

    def test_plain_exception_handler_is_out_of_scope(self):
        findings = lint_snippet(
            """
            def supervise(work):
                try:
                    work()
                except Exception:
                    return None
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #
SUPPRESSIBLE = """
class Server:
    def __init__(self):
        self._latency_samples = []{comment}
"""


class TestSuppression:
    def test_inline_disable(self):
        source = SUPPRESSIBLE.format(comment="  # repolint: disable=RL005")
        assert lint_snippet(source) == []

    def test_disable_on_line_above(self):
        findings = lint_snippet(
            """
            class Server:
                def __init__(self):
                    # repolint: disable=RL005 -- drained by the flush thread
                    self._latency_samples = []
            """
        )
        assert findings == []

    def test_disable_on_def_line_covers_the_body(self):
        findings = lint_snippet(
            """
            def supervise(work):  # repolint: disable=RL006
                try:
                    work()
                except BaseException:
                    pass
            """
        )
        assert findings == []

    def test_disable_file(self):
        findings = lint_snippet(
            """
            # repolint: disable-file=RL005 -- telemetry fixtures
            class Server:
                def __init__(self):
                    self._latency_samples = []
            """
        )
        assert findings == []

    def test_wrong_code_does_not_suppress(self):
        source = SUPPRESSIBLE.format(comment="  # repolint: disable=RL001")
        assert codes(lint_snippet(source)) == ["RL005"]

    def test_star_suppresses_everything(self):
        source = SUPPRESSIBLE.format(comment="  # repolint: disable=*")
        assert lint_snippet(source) == []


# --------------------------------------------------------------------- #
# RL007 — atomic-snapshot-publish
# --------------------------------------------------------------------- #
class TestAtomicSnapshotPublish:
    def test_bare_write_open_in_snapshot_function_fires(self):
        findings = lint_snippet(
            """
            def save_snapshot(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """
        )
        assert codes(findings) == ["RL007"]

    def test_write_text_in_snapshot_module_fires(self):
        findings = lint_sources(
            {
                "core/snapshot.py": textwrap.dedent(
                    """
                    def _store(path, text):
                        path.write_text(text)
                    """
                )
            }
        )
        assert codes(findings) == ["RL007"]

    def test_atomic_write_helper_is_exempt(self):
        findings = lint_sources(
            {
                "core/snapshot.py": textwrap.dedent(
                    """
                    import os

                    def _atomic_write(path, data):
                        with open(path, "wb") as handle:
                            handle.write(data)
                        os.replace(path, path)
                    """
                )
            }
        )
        assert findings == []

    def test_read_mode_open_passes(self):
        findings = lint_snippet(
            """
            def read_snapshot(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """
        )
        assert findings == []

    def test_non_snapshot_function_out_of_scope(self):
        findings = lint_snippet(
            """
            def export_rows(path, rows):
                with open(path, "w") as handle:
                    handle.write(rows)
            """
        )
        assert findings == []

    def test_tuple_publish_fires(self):
        findings = lint_snippet(
            """
            def publish(self, shadow, journal):
                self.index, self.journal = shadow, journal
            """
        )
        assert codes(findings) == ["RL007"]

    def test_publish_of_inline_construction_fires(self):
        findings = lint_snippet(
            """
            def maintain(self):
                self.index = rebuild(self.index)
            """
        )
        assert codes(findings) == ["RL007"]

    def test_maintenance_helper_is_in_scope(self):
        findings = lint_snippet(
            """
            def poll_shadow_maintenance(self, builds):
                self.index = builds.pop()
            """
        )
        assert codes(findings) == ["RL007"]

    def test_single_name_swap_passes(self):
        findings = lint_snippet(
            """
            def publish(self, shadow):
                self.index = shadow
            """
        )
        assert findings == []

    def test_index_assignment_outside_publish_scope_passes(self):
        findings = lint_snippet(
            """
            def fit(self, vectors):
                self.index = build_index(vectors)
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RL008 — wal-record-codec
# --------------------------------------------------------------------- #
class TestWALRecordCodec:
    def test_raw_write_in_wal_module_fires(self):
        findings = lint_sources(
            {
                "core/wal.py": textwrap.dedent(
                    """
                    class WriteAheadLog:
                        def _write_record(self, payload):
                            self._handle.write(payload)
                    """
                )
            }
        )
        assert codes(findings) == ["RL008"]
        assert "unframed" in findings[0].message

    def test_append_without_fsync_hook_fires(self):
        findings = lint_sources(
            {
                "core/wal.py": textwrap.dedent(
                    """
                    class WriteAheadLog:
                        def append(self, payload):
                            _write_encoded(self._handle, encode_record(1, payload))
                            return 1
                    """
                )
            }
        )
        assert codes(findings) == ["RL008"]
        assert "fsync policy" in findings[0].message

    def test_codec_framed_append_with_hook_passes(self):
        findings = lint_sources(
            {
                "core/wal.py": textwrap.dedent(
                    """
                    def _write_encoded(handle, data):
                        handle.write(data)

                    class WriteAheadLog:
                        def append(self, payload):
                            _write_encoded(self._handle, encode_record(1, payload))
                            self._maybe_sync()
                            return 1
                    """
                )
            }
        )
        assert findings == []

    def test_wal_named_function_outside_module_is_in_scope(self):
        findings = lint_snippet(
            """
            def compact_wal(path, records):
                with open(path, "wb") as handle:
                    handle.write(records)
            """
        )
        assert codes(findings) == ["RL008"]

    def test_direct_encode_record_write_passes(self):
        findings = lint_snippet(
            """
            def repair_wal(handle, seq, payload):
                handle.write(encode_record(seq, payload))
            """
        )
        assert findings == []

    def test_unrelated_writes_out_of_scope_pass(self):
        findings = lint_snippet(
            """
            def export_report(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        )
        assert findings == []

    def test_suppression_comment_silences_deliberate_corruption(self):
        findings = lint_snippet(
            """
            def torn_wal_tail(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)  # repolint: disable=RL008 -- deliberate corruption
            """
        )
        assert findings == []


# --------------------------------------------------------------------- #
# registry, selection, findings
# --------------------------------------------------------------------- #
class TestEngine:
    def test_all_rules_registered(self):
        # codes are stable: RL002 (shm-lifecycle) is retired, not reused
        assert sorted(RULES) == [
            "RL001",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ]
        for rule_obj in RULES.values():
            assert rule_obj.name and rule_obj.description

    def test_select_filters_rules(self):
        source = """
        class Server:
            def __init__(self):
                self._latency_samples = []

        def supervise(work):
            try:
                work()
            except BaseException:
                pass
        """
        assert codes(lint_snippet(source)) == ["RL005", "RL006"]
        assert codes(lint_snippet(source, select=["RL006"])) == ["RL006"]

    def test_finding_rendering(self):
        finding = lint_snippet(SUPPRESSIBLE.format(comment=""))[0]
        assert isinstance(finding, Finding)
        rendered = finding.render()
        assert "snippet.py" in rendered and "RL005" in rendered
        payload = finding.as_dict()
        assert payload["code"] == "RL005" and payload["line"] == finding.line


# --------------------------------------------------------------------- #
# the live tree and the CLI
# --------------------------------------------------------------------- #
class TestLiveTree:
    def test_src_repro_is_clean(self):
        assert lint_paths([str(REPO_ROOT / "src" / "repro")]) == []


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.repolint", *argv],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_clean_tree_exits_zero(self):
        proc = run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_violations_exit_one_with_json(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._latency_samples = []\n",
            encoding="utf-8",
        )
        proc = run_cli(str(bad), "--format=json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [finding["code"] for finding in payload] == ["RL005"]

    def test_missing_path_exits_two(self, tmp_path):
        proc = run_cli(str(tmp_path / "nope"))
        assert proc.returncode == 2

    def test_syntax_error_exits_two(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n", encoding="utf-8")
        proc = run_cli(str(broken))
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("RL001", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008"):
            assert code in proc.stdout


class TestStylecheck:
    def test_repo_is_stylecheck_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.stylecheck", "src/repro", "tests", "benchmarks", "tools"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout
