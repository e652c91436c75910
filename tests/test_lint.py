"""Tests of the ``repro.lint`` static analyzer.

Every bad fixture is modeled on a real historical bug (or the class of
bug a rule exists to prevent): the ``_canonical_repr`` collision and
the window-cursor bug for REP002, the forked engine worker loop's
``except Exception`` for REP004, the E16 tracer-overhead budget for
REP006.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES, Baseline, lint_paths, lint_source
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent

# A relpath inside the engine so path-scoped rules (REP002) apply.
ENGINE_PATH = "src/repro/engine/_fixture.py"


def findings_for(source, rule=None, relpath=ENGINE_PATH):
    found = lint_source(textwrap.dedent(source), relpath=relpath)
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


def rules_hit(source, relpath=ENGINE_PATH):
    return {f.rule for f in lint_source(textwrap.dedent(source), relpath=relpath)}


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        assert {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007", "REP008",
        } <= set(RULES)

    def test_rules_have_severity_and_description(self):
        for rule in RULES.values():
            assert rule.severity in ("error", "warning")
            assert rule.description


class TestRep001DigestPurity:
    def test_bad_wall_clock_into_hash(self):
        # A timestamp hashed into a content digest would differ on every
        # run — the digest contract ResultSet relies on would be gone.
        bad = """
        import hashlib, time

        def digest_row(row):
            stamp = time.time()
            return hashlib.sha256(f"{row}:{stamp}".encode()).hexdigest()
        """
        assert findings_for(bad, "REP001")

    def test_bad_wall_clock_into_digested_runresult_field(self):
        bad = """
        import time

        def run():
            start = time.perf_counter()
            elapsed = time.perf_counter() - start
            return RunResult(rounds=elapsed, seconds=(elapsed,))
        """
        found = findings_for(bad, "REP001")
        assert len(found) == 1  # rounds flagged; seconds is exempt

    def test_good_seconds_and_timings_are_exempt(self):
        good = """
        import time

        def run():
            start = time.perf_counter()
            seconds = []
            seconds.append(time.perf_counter() - start)
            return RunResult(rounds=5, seconds=tuple(seconds), timings={})
        """
        assert not findings_for(good, "REP001")

    def test_good_untainted_hash(self):
        good = """
        import hashlib

        def digest_row(row):
            return hashlib.sha256(repr(row).encode()).hexdigest()
        """
        assert not findings_for(good, "REP001")


class TestRep002DeterministicIteration:
    def test_bad_direct_set_iteration(self):
        # The PR 5 window-cursor bug class: hash-order iteration feeding
        # message scheduling.
        bad = """
        def schedule(pending):
            queue = set(pending)
            order = []
            for vertex in queue:
                order.append(vertex)
            return order
        """
        assert findings_for(bad, "REP002")

    def test_bad_raw_dict_items_in_digest_helper(self):
        # The PR 7 _canonical_repr collision lived in exactly this shape.
        bad = """
        def _canonical_repr(value):
            return tuple((k, v) for k, v in value.items())
        """
        assert findings_for(bad, "REP002")

    def test_bad_order_carrying_conversion(self):
        bad = """
        def neighbours(graph, v):
            seen = {u for u in graph[v]}
            return list(seen)
        """
        assert findings_for(bad, "REP002")

    def test_good_sorted_iteration(self):
        good = """
        def schedule(pending):
            queue = set(pending)
            order = []
            for vertex in sorted(queue):
                order.append(vertex)
            return order
        """
        assert not findings_for(good, "REP002")

    def test_good_order_insensitive_consumers(self):
        good = """
        def summarise(pending):
            queue = set(pending)
            return sum(1 for v in queue), max(queue), len(queue)
        """
        assert not findings_for(good, "REP002")

    def test_good_sorted_dict_items_in_digest_helper(self):
        good = """
        def _canonical_repr(value):
            return tuple(sorted((repr(k), repr(v)) for k, v in value.items()))
        """
        assert not findings_for(good, "REP002")

    def test_rule_is_scoped_to_digest_feeding_packages(self):
        bad = """
        def walk(nodes):
            group = set(nodes)
            return [n for n in group]
        """
        # Same code outside engine/experiments/congest/service: exempt.
        assert not findings_for(bad, "REP002", relpath="src/repro/analysis/viz.py")
        assert findings_for(bad, "REP002", relpath="src/repro/service/extra.py")


class TestRep003SeededRandomness:
    def test_bad_module_level_draw(self):
        bad = """
        import random

        def jitter():
            return random.random()
        """
        assert findings_for(bad, "REP003")

    def test_bad_unseeded_constructors_and_global_seed(self):
        bad = """
        import random
        import numpy as np

        rng_a = random.Random()
        rng_b = np.random.default_rng()
        random.seed(42)
        """
        assert len(findings_for(bad, "REP003")) == 3

    def test_good_seeded_rngs(self):
        good = """
        import random
        import numpy as np

        def make(seed):
            rng = random.Random(seed)
            vec = np.random.default_rng(seed)
            return rng.random(), vec.random()
        """
        assert not findings_for(good, "REP003")


class TestRep004ForkWorkerSafety:
    def test_bad_broad_except_swallows_control_flow(self):
        # Modeled on a forked engine worker loop that once shipped.
        bad = """
        def _shard_worker(conn):
            try:
                step()
            except Exception as exc:
                conn.send(("error", exc))
        """
        assert findings_for(bad, "REP004")

    def test_bad_bare_except(self):
        bad = """
        def drain(conn):
            try:
                conn.recv()
            except:
                pass
        """
        assert findings_for(bad, "REP004")

    def test_good_control_flow_reraised_first(self):
        good = """
        def _shard_worker(conn):
            try:
                step()
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                conn.send(("error", exc))
        """
        assert not findings_for(good, "REP004")

    def test_good_pragma_justification(self):
        good = """
        def teardown(block):
            try:
                block.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        """
        assert not findings_for(good, "REP004")

    def test_good_handler_that_reraises(self):
        good = """
        def run(conn):
            try:
                step()
            except Exception:
                log("failed")
                raise
        """
        assert not findings_for(good, "REP004")

    def test_bad_worker_target_captures_module_lock(self):
        bad = """
        import multiprocessing
        import threading

        _LOCK = threading.Lock()

        def _worker(conn):
            with _LOCK:
                conn.recv()

        def start(ctx):
            return multiprocessing.Process(target=_worker)
        """
        assert findings_for(bad, "REP004")

    def test_good_worker_gets_state_explicitly(self):
        good = """
        import multiprocessing

        def _worker(conn, lock):
            with lock:
                conn.recv()

        def start(ctx, lock):
            return multiprocessing.Process(target=_worker, args=(None, lock))
        """
        assert not findings_for(good, "REP004")


class TestRep005RegistryHygiene:
    def test_bad_parametrised_scenario_without_spec_params(self):
        bad = """
        @register_scenario("drop")
        class Drop:
            def __init__(self, probability):
                self.probability = probability
        """
        assert findings_for(bad, "REP005")

    def test_good_complete_scenario(self):
        good = """
        @register_scenario("drop")
        class Drop:
            def __init__(self, probability):
                self.probability = probability

            def spec_params(self):
                return {"probability": self.probability}

            def transmit_mask(self, r, edges):
                return edges
        """
        assert not findings_for(good, "REP005")

    def test_good_parameterless_scenario_needs_no_spec_params(self):
        good = """
        @register_scenario("clean")
        class Clean:
            def transmits(self, r, e):
                return True
        """
        assert not findings_for(good, "REP005")

    def test_registered_functions_are_skipped(self):
        good = """
        @register_scenario("composed")
        def build_composed(*layers):
            return Composed(layers)
        """
        assert not findings_for(good, "REP005")


class TestRep006TracerHotPath:
    def test_bad_unguarded_event_in_round_loop(self):
        # E16 pins null-tracer overhead <= 3%; this shape breaks it.
        bad = """
        def run(tracer, rounds):
            for r in range(rounds):
                tracer.round_begin(r)
                step(r)
        """
        assert findings_for(bad, "REP006")

    def test_good_enabled_guard(self):
        good = """
        def run(tracer, rounds):
            for r in range(rounds):
                if tracer.enabled:
                    tracer.round_begin(r)
                step(r)
        """
        assert not findings_for(good, "REP006")

    def test_good_hoisted_guard_name(self):
        good = """
        def run(tracer, rounds):
            traced = tracer.enabled
            for r in range(rounds):
                if traced and r % 2 == 0:
                    tracer.round_end(r, delivered=1)
                step(r)
        """
        assert not findings_for(good, "REP006")

    def test_good_guard_outside_loop(self):
        good = """
        def run(tracer, rounds):
            if tracer.enabled:
                for r in range(rounds):
                    tracer.round_begin(r)
        """
        assert not findings_for(good, "REP006")

    def test_good_call_outside_loop_is_fine(self):
        good = """
        def run(tracer):
            tracer.cell_begin("cell")
        """
        assert not findings_for(good, "REP006")

    def test_obs_package_is_exempt(self):
        bad = """
        def replay(tracer, events):
            for event in events:
                tracer.event(event)
        """
        assert not findings_for(bad, "REP006", relpath="src/repro/obs/replay.py")


class TestSuppression:
    def test_blanket_noqa(self):
        src = """
        import random

        x = random.random()  # noqa
        """
        assert not findings_for(src, "REP003")

    def test_scoped_noqa_matches_rule(self):
        src = """
        import random

        x = random.random()  # noqa: REP003
        """
        assert not findings_for(src, "REP003")

    def test_scoped_noqa_other_rule_does_not_suppress(self):
        src = """
        import random

        x = random.random()  # noqa: REP001
        """
        assert findings_for(src, "REP003")

    def test_syntax_error_becomes_parse_finding(self):
        found = lint_source("def broken(:\n", relpath=ENGINE_PATH)
        assert [f.rule for f in found] == ["REP000"]


class TestBaseline:
    BAD = textwrap.dedent(
        """
        import random

        def jitter():
            return random.random()
        """
    )

    def test_round_trip_suppresses_grandfathered_findings(self, tmp_path):
        found = findings_for(self.BAD)
        assert found
        path = tmp_path / "baseline.json"
        Baseline.from_findings(found).save(path)
        loaded = Baseline.load(path)
        visible, suppressed, unused = loaded.apply(found)
        assert visible == []
        assert suppressed == len(found)
        assert unused == {}

    def test_new_finding_is_not_suppressed(self, tmp_path):
        old = findings_for(self.BAD)
        baseline = Baseline.from_findings(old)
        grown = self.BAD + "\n\ndef more():\n    return random.randint(0, 7)\n"
        visible, suppressed, _ = baseline.apply(findings_for(grown))
        assert suppressed == len(old)
        assert [f.snippet for f in visible] == ["return random.randint(0, 7)"]

    def test_extra_occurrence_of_grandfathered_pattern_is_visible(self):
        found = findings_for(self.BAD)
        doubled = found + found
        baseline = Baseline.from_findings(found)
        visible, suppressed, _ = baseline.apply(doubled)
        assert suppressed == len(found)
        assert len(visible) == len(found)

    def test_stale_entries_are_reported(self):
        baseline = Baseline({"REP003:gone.py:x = random.random()": 2})
        visible, suppressed, unused = baseline.apply([])
        assert visible == [] and suppressed == 0
        assert unused == {"REP003:gone.py:x = random.random()": 2}

    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == {}

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="unsupported baseline version"):
            Baseline.load(path)


class TestCli:
    def _write_bad_module(self, tmp_path):
        module = tmp_path / "src" / "repro" / "engine" / "bad.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import random\n\n\ndef jitter():\n    return random.random()\n"
        )
        return module

    def test_clean_module_exits_zero(self, tmp_path, capsys):
        module = tmp_path / "ok.py"
        module.write_text("VALUE = 1\n")
        code = lint_main([str(module), "--root", str(tmp_path), "--no-baseline"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_and_json_shape(self, tmp_path, capsys):
        module = self._write_bad_module(tmp_path)
        code = lint_main(
            [str(module), "--root", str(tmp_path), "--no-baseline",
             "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"]["visible"] == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "REP003"
        assert finding["path"] == "src/repro/engine/bad.py"

    def test_write_baseline_then_gate_is_green(self, tmp_path, capsys):
        module = self._write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [str(module), "--root", str(tmp_path), "--baseline",
                 str(baseline), "--write-baseline"]
            )
            == 0
        )
        capsys.readouterr()
        code = lint_main(
            [str(module), "--root", str(tmp_path), "--baseline", str(baseline)]
        )
        assert code == 0
        assert "1 suppressed by baseline" in capsys.readouterr().out

    def test_output_report_is_written(self, tmp_path, capsys):
        module = self._write_bad_module(tmp_path)
        report = tmp_path / "report.json"
        lint_main(
            [str(module), "--root", str(tmp_path), "--no-baseline",
             "--output", str(report)]
        )
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["counts"]["visible"] == 1

    def test_nonexistent_target_is_a_usage_error(self, tmp_path, capsys):
        # A typo'd path must not produce a green "0 findings" gate.
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tmp_path / "nope"), "--no-baseline"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP006"):
            assert rule_id in out

    def test_rule_selection(self, tmp_path, capsys):
        module = self._write_bad_module(tmp_path)
        code = lint_main(
            [str(module), "--root", str(tmp_path), "--no-baseline",
             "--rules", "REP004"]
        )
        assert code == 0
        capsys.readouterr()


class TestRep007DigestFieldDrift:
    """A RunResult field must be digested (a to_row() key) or excluded."""

    SESSION_PATH = "src/repro/experiments/_fixture.py"

    GOOD = """
    _ROW_EXCLUDED = frozenset({"outputs"})

    class RunResult:
        rounds: int
        outputs: dict | None = None

        def to_row(self):
            return {"rounds": self.rounds}
    """

    def rep007(self, source):
        return findings_for(source, rule="REP007", relpath=self.SESSION_PATH)

    def test_clean_split_between_row_and_exclusions(self):
        assert self.rep007(self.GOOD) == []

    def test_field_missing_from_both_is_drift(self):
        # The real customer: round_stretch added to the dataclass but
        # forgotten in to_row() would silently drift out of every digest.
        bad = self.GOOD.replace(
            "outputs: dict | None = None",
            "outputs: dict | None = None\n        round_stretch: float | None = None",
        )
        found = self.rep007(bad)
        assert len(found) == 1 and "round_stretch" in found[0].message

    def test_field_cannot_be_both_digested_and_excluded(self):
        bad = self.GOOD.replace('{"outputs"}', '{"outputs", "rounds"}')
        found = self.rep007(bad)
        assert len(found) == 1 and "never both" in found[0].message

    def test_stale_exclusion_is_reported(self):
        bad = self.GOOD.replace('{"outputs"}', '{"outputs", "ghost"}')
        found = self.rep007(bad)
        assert len(found) == 1 and "ghost" in found[0].message

    def test_missing_to_row_is_reported(self):
        bad = """
        class RunResult:
            rounds: int
        """
        found = self.rep007(bad)
        assert len(found) == 1 and "to_row" in found[0].message

    def test_digest_deleting_a_nonexistent_row_key_is_reported(self):
        bad = self.GOOD + """
    class ResultSet:
        def digest(self):
            row = {}
            del row["seconds"]
            return row
    """
        found = self.rep007(bad)
        assert len(found) == 1 and "seconds" in found[0].message

    def test_digest_deleting_a_real_row_key_is_fine(self):
        good = self.GOOD + """
    class ResultSet:
        def digest(self):
            row = {}
            del row["rounds"]
            return row
    """
        assert self.rep007(good) == []

    def test_modules_without_run_result_are_ignored(self):
        assert self.rep007("x = 1") == []

    def test_private_fields_are_ignored(self):
        good = self.GOOD.replace(
            "outputs: dict | None = None",
            "outputs: dict | None = None\n        _scratch: int = 0",
        )
        assert self.rep007(good) == []


class TestRep008AdaptiveScenarioContract:
    """observe_round() overriders must be flagged adaptive and replayable."""

    SCENARIO_PATH = "src/repro/engine/_fixture.py"

    GOOD = """
    class AdaptiveCrash:
        is_adaptive = True

        def __init__(self, max_faulty=1):
            self.max_faulty = max_faulty
            self._traffic = {}

        def observe_round(self, stats):
            self._traffic = stats.words_by_vertex

        def spec_params(self):
            return {"max_faulty": self.max_faulty}
    """

    def rep008(self, source):
        return findings_for(source, rule="REP008", relpath=self.SCENARIO_PATH)

    def test_clean_adaptive_scenario(self):
        assert self.rep008(self.GOOD) == []

    def test_missing_is_adaptive_flag(self):
        # The silent failure mode the rule exists for: without the flag,
        # backends never feed traffic stats and the override is dead code.
        bad = self.GOOD.replace("        is_adaptive = True\n\n", "")
        found = self.rep008(bad)
        assert len(found) == 1 and "is_adaptive" in found[0].message

    def test_self_assigned_flag_counts(self):
        good = self.GOOD.replace(
            "        is_adaptive = True\n\n", ""
        ).replace(
            "self.max_faulty = max_faulty",
            "self.max_faulty = max_faulty\n            self.is_adaptive = True",
        )
        assert self.rep008(good) == []

    def test_parameterised_scenario_without_spec_params(self):
        bad = self.GOOD.replace(
            "\n        def spec_params(self):\n"
            "            return {\"max_faulty\": self.max_faulty}\n", "\n"
        )
        found = self.rep008(bad)
        assert len(found) == 1 and "spec_params" in found[0].message

    def test_spec_params_reading_observed_state(self):
        # Serialising mid-run adversary state would make a JSON replay
        # start from a different decision history than the original run.
        bad = self.GOOD.replace(
            'return {"max_faulty": self.max_faulty}',
            'return {"max_faulty": self.max_faulty, "t": self._traffic}',
        )
        found = self.rep008(bad)
        assert len(found) == 1 and "_traffic" in found[0].message

    def test_noop_base_class_hook_is_ignored(self):
        good = """
        class DeliveryScenario:
            def observe_round(self, stats):
                \"\"\"Default hook: oblivious scenarios ignore traffic.\"\"\"
        """
        assert self.rep008(good) == []


class TestRepoIsClean:
    def test_src_repro_lints_clean_against_committed_baseline(self):
        """The CI gate in test form: zero non-baselined findings."""
        report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        visible, _, _ = baseline.apply(report.findings)
        assert visible == [], "\n".join(f.format() for f in visible)
        assert report.files > 60

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src/repro", "--format", "json"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
