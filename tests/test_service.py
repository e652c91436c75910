"""Tests of the experiment service: digests, cache, protocol, server."""

import asyncio
import json
import multiprocessing
import os

import pytest

from repro.experiments import ExperimentSpec, ResultSet, Session
from repro.experiments.session import RunResult, run_cell
from repro.service import (
    CellCache,
    ExperimentServer,
    ExperimentService,
    ProtocolError,
    ServiceClient,
    ServiceError,
    SubmitRequest,
    WorkerPool,
)

_FORK = "fork" in multiprocessing.get_all_start_methods()

SPEC_KWARGS = dict(
    name="svc-unit",
    graph="erdos-renyi",
    graph_params={"n": 24, "avg_degree": 5.0, "seed": 3},
    workload="flood-min",
    backend="reference",
    seeds=(0, 1),
    max_rounds=2_000,
)


def make_spec(**overrides):
    return ExperimentSpec(**{**SPEC_KWARGS, **overrides})


class TestCellDigest:
    def test_digest_is_stable_across_json_round_trip(self):
        spec = make_spec()
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert spec.cell_digest(seed=0) == rebuilt.cell_digest(seed=0)

    def test_spec_name_is_excluded(self):
        # Renamed resubmissions of identical work must share cache entries.
        assert make_spec().cell_digest(seed=0) == make_spec(
            name="renamed"
        ).cell_digest(seed=0)

    def test_every_identity_field_changes_the_digest(self):
        base = make_spec().cell_digest(seed=0)
        assert make_spec().cell_digest(seed=1) != base
        assert make_spec(max_rounds=999).cell_digest(seed=0) != base
        assert make_spec(repeats=2).cell_digest(seed=0) != base
        assert (
            make_spec(graph_params={"n": 25, "avg_degree": 5.0, "seed": 3})
            .cell_digest(seed=0) != base
        )
        assert make_spec().cell_digest(backend="vectorized", seed=0) != base
        assert (
            make_spec().cell_digest(
                scenario=("link-drop", {"drop_probability": 0.1}), seed=0
            ) != base
        )

    def test_none_scenario_equals_clean(self):
        spec = make_spec()
        assert spec.cell_digest(scenario=None, seed=0) == spec.cell_digest(
            scenario="clean", seed=0
        )

    def test_live_objects_are_not_digestable(self):
        import networkx as nx

        spec = make_spec(graph=nx.path_graph(4), graph_params={})
        assert spec.cell_digest(seed=0) is None

    def test_scenario_params_distinguish_cells(self):
        spec = make_spec()
        a = spec.cell_digest(
            scenario=("link-drop", {"drop_probability": 0.1}), seed=0
        )
        b = spec.cell_digest(
            scenario=("link-drop", {"drop_probability": 0.2}), seed=0
        )
        assert a != b


def _row(seed=0, **overrides):
    kwargs = dict(
        spec_name="svc-unit",
        workload="flood-min",
        backend="reference",
        scenario="CleanSynchronous",
        scenario_name=None,
        seed=seed,
        n=4,
        edges=3,
        rounds=3,
        messages=12,
        words=12,
        dropped=0,
        halted=True,
        seconds=(0.001,),
        output_digest="d" * 16,
    )
    kwargs.update(overrides)
    return RunResult(**kwargs)


class TestCellCache:
    def test_hit_miss_counters(self):
        cache = CellCache()
        assert cache.get("a" * 16) is None
        cache.put("a" * 16, _row())
        assert cache.get("a" * 16).seed == 0
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert "a" * 16 in cache
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = CellCache(max_entries=2)
        cache.put("k1", _row(seed=1))
        cache.put("k2", _row(seed=2))
        assert cache.get("k1") is not None  # refresh k1; k2 is now LRU
        cache.put("k3", _row(seed=3))
        assert "k2" not in cache
        assert "k1" in cache and "k3" in cache
        assert cache.stats()["evictions"] == 1

    def test_clear(self):
        cache = CellCache()
        cache.put("k", _row())
        cache.clear()
        assert len(cache) == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            CellCache(max_entries=0)
        with pytest.raises(ValueError, match="spill_bytes"):
            CellCache(spill_bytes=-1)


class TestCellCachePersistence:
    """The digest-keyed on-disk store: restart survival + outputs spill."""

    def test_entries_survive_a_restart(self, tmp_path):
        first = CellCache(cache_dir=tmp_path)
        first.put("aa11", _row(seed=4))
        assert (tmp_path / "aa11.pkl").is_file()
        # A fresh cache over the same directory — the restarted server —
        # re-warms lazily on first touch.
        second = CellCache(cache_dir=tmp_path)
        restored = second.get("aa11")
        assert restored is not None and restored.seed == 4
        stats = second.stats()
        assert stats["hits"] == 1 and stats["disk_hits"] == 1
        assert stats["cache_dir"] == str(tmp_path)
        # Now resident: the next get is a pure memory hit.
        second.get("aa11")
        assert second.stats()["disk_hits"] == 1

    def test_contains_consults_the_disk_store(self, tmp_path):
        CellCache(cache_dir=tmp_path).put("bb22", _row())
        restarted = CellCache(cache_dir=tmp_path)
        assert "bb22" in restarted
        assert "cc33" not in restarted

    def test_eviction_only_drops_the_memory_entry(self, tmp_path):
        cache = CellCache(max_entries=1, cache_dir=tmp_path)
        cache.put("k1", _row(seed=1))
        cache.put("k2", _row(seed=2))  # evicts k1 from memory
        assert cache.stats()["evictions"] == 1
        rewarmed = cache.get("k1")
        assert rewarmed is not None and rewarmed.seed == 1
        assert cache.stats()["disk_hits"] == 1

    def test_large_outputs_spill_to_disk(self, tmp_path):
        big = {v: tuple(range(200)) for v in range(200)}
        cache = CellCache(cache_dir=tmp_path, spill_bytes=1024)
        cache.put("dd44", _row(outputs=big))
        assert cache.stats()["spills"] == 1
        # The memory LRU holds an outputs-free stub...
        assert cache._entries["dd44"].outputs is None
        # ...but a get transparently reads the full result back.
        assert cache.get("dd44").outputs == big
        assert cache.stats()["disk_hits"] == 1

    def test_small_outputs_stay_resident(self, tmp_path):
        cache = CellCache(cache_dir=tmp_path, spill_bytes=1 << 20)
        cache.put("ee55", _row(outputs={0: 1}))
        assert cache.stats()["spills"] == 0
        assert cache.get("ee55").outputs == {0: 1}
        assert cache.stats()["disk_hits"] == 0

    def test_no_spill_without_cache_dir(self):
        big = {v: tuple(range(200)) for v in range(200)}
        cache = CellCache(spill_bytes=16)
        cache.put("ff66", _row(outputs=big))
        assert cache.stats()["spills"] == 0
        assert cache.get("ff66").outputs == big

    def test_torn_disk_file_degrades_to_a_miss(self, tmp_path):
        (tmp_path / "ab12.pkl").write_bytes(b"\x80 not a pickle")
        cache = CellCache(cache_dir=tmp_path)
        assert cache.get("ab12") is None
        assert cache.stats()["misses"] == 1
        # The next put overwrites the torn file atomically.
        cache.put("ab12", _row(seed=9))
        assert CellCache(cache_dir=tmp_path).get("ab12").seed == 9

    def test_unsafe_digests_never_touch_the_filesystem(self, tmp_path):
        cache = CellCache(cache_dir=tmp_path)
        cache.put("../escape", _row())
        assert list(tmp_path.iterdir()) == []
        # Still served from memory.
        assert cache.get("../escape") is not None

    def test_clear_leaves_the_persistent_store_intact(self, tmp_path):
        cache = CellCache(cache_dir=tmp_path)
        cache.put("cd34", _row(seed=6))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("cd34").seed == 6  # re-warmed from disk

    def test_warm_session_grid_replays_across_restart(self, tmp_path):
        spec = make_spec()
        cold = Session(
            name="cold", cache=CellCache(cache_dir=tmp_path)
        ).grid(spec, scenarios=[None])
        restarted = CellCache(cache_dir=tmp_path)
        warm = Session(name="warm", cache=restarted).grid(spec, scenarios=[None])
        assert warm.digest() == cold.digest()
        assert restarted.stats()["disk_hits"] == len(cold)
        assert restarted.stats()["misses"] == 0


class TestCellCacheGc:
    """The persistent store's garbage collector: size and age budgets."""

    def _entry_size(self, tmp_path):
        CellCache(cache_dir=tmp_path / "probe").put("aa11", _row())
        return (tmp_path / "probe" / "aa11.pkl").stat().st_size

    def test_startup_gc_prunes_oldest_beyond_byte_budget(self, tmp_path):
        import os

        writer = CellCache(cache_dir=tmp_path)
        for index, digest in enumerate(("old1", "old2", "new3")):
            writer.put(digest, _row(seed=index))
            os.utime(tmp_path / f"{digest}.pkl", (100.0 * (index + 1),) * 2)
        size = (tmp_path / "new3.pkl").stat().st_size
        restarted = CellCache(cache_dir=tmp_path, gc_bytes=size)
        assert restarted.gc_evictions == 2
        assert sorted(p.name for p in tmp_path.glob("*.pkl")) == ["new3.pkl"]
        assert restarted.get("new3") is not None
        assert restarted.get("old1") is None  # pruned -> future re-execute

    def test_startup_gc_prunes_expired_entries(self, tmp_path):
        import os

        writer = CellCache(cache_dir=tmp_path)
        writer.put("stale", _row(seed=1))
        writer.put("fresh", _row(seed=2))
        week_ago = __import__("time").time() - 7 * 86400.0
        os.utime(tmp_path / "stale.pkl", (week_ago, week_ago))
        restarted = CellCache(cache_dir=tmp_path, gc_days=1.0)
        assert restarted.gc_evictions == 1
        assert restarted.get("stale") is None
        assert restarted.get("fresh").seed == 2

    def test_write_through_gc_keeps_the_entry_just_stored(self, tmp_path):
        import os

        size = self._entry_size(tmp_path)
        cache = CellCache(cache_dir=tmp_path, gc_bytes=size)
        cache.put("first", _row(seed=1))
        os.utime(tmp_path / "first.pkl", (100.0, 100.0))
        cache.put("second", _row(seed=2))
        assert cache.gc_evictions >= 1
        assert not (tmp_path / "first.pkl").exists()
        assert (tmp_path / "second.pkl").exists()
        # The memory LRU still serves the pruned digest; only a restarted
        # server pays the re-execution.
        assert cache.get("first") is not None
        assert CellCache(cache_dir=tmp_path).get("first") is None

    def test_gc_evictions_surface_in_stats(self, tmp_path):
        import os

        writer = CellCache(cache_dir=tmp_path)
        writer.put("gone", _row())
        os.utime(tmp_path / "gone.pkl", (100.0, 100.0))
        restarted = CellCache(cache_dir=tmp_path, gc_days=1.0)
        assert restarted.stats()["gc_evictions"] == 1

    def test_stale_schema_pickle_is_a_miss(self, tmp_path):
        # A pickle persisted before a default-less RunResult field existed
        # must not resurface and crash to_row(); it re-executes.  (Fields
        # added *with* a default — reseats — stay readable through the
        # class default, so old stores keep their value across upgrades.)
        import pickle

        entry = _row(seed=5)
        del entry.__dict__["rounds"]
        (tmp_path / "ag3d.pkl").write_bytes(pickle.dumps(entry, protocol=4))
        cache = CellCache(cache_dir=tmp_path)
        assert cache.get("ag3d") is None
        assert cache.stats()["misses"] == 1
        cache.put("ag3d", _row(seed=6))
        assert CellCache(cache_dir=tmp_path).get("ag3d").seed == 6

    def test_gc_parameters_are_validated(self):
        with pytest.raises(ValueError, match="gc_bytes"):
            CellCache(gc_bytes=-1)
        with pytest.raises(ValueError, match="gc_days"):
            CellCache(gc_days=0)


class TestClientRetry:
    """Bounded reconnect with deterministic backoff in ServiceClient."""

    def test_refused_connection_retries_then_raises(self, monkeypatch):
        import repro.service.client as client_mod

        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        client = ServiceClient(port=1, retries=2, backoff=0.25)
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(sleeps) == 2  # initial attempt + 2 retries
        # Exponential: the second delay is twice the first's base.
        assert sleeps[1] > sleeps[0]

    def test_zero_retries_fails_fast(self, monkeypatch):
        import repro.service.client as client_mod

        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        with pytest.raises(ConnectionRefusedError):
            ServiceClient(port=1).healthz()
        assert sleeps == []

    def test_backoff_schedule_is_deterministic_per_endpoint(self):
        a = ServiceClient(port=1, retries=3, backoff=0.25)
        b = ServiceClient(port=1, retries=3, backoff=0.25)
        other = ServiceClient(port=2, retries=3, backoff=0.25)
        schedule = [a._retry_delay(i) for i in range(3)]
        assert schedule == [b._retry_delay(i) for i in range(3)]
        # Distinct endpoints desynchronise (different jitter), and every
        # delay sits in the [base, 1.5 * base] jitter band.
        assert schedule != [other._retry_delay(i) for i in range(3)]
        for attempt, delay in enumerate(schedule):
            base = 0.25 * 2.0**attempt
            assert base <= delay <= 1.5 * base

    def test_retry_parameters_are_validated(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            ServiceClient(backoff=-0.1)


class TestSessionCache:
    def test_grid_replays_from_cache_with_identical_digest(self):
        spec = make_spec()
        scenarios = [None, ("link-drop", {"drop_probability": 0.1})]
        cache = CellCache()
        cold = Session(name="cold", cache=cache).grid(spec, scenarios=scenarios)
        hits_before = cache.stats()["hits"]
        warm = Session(name="warm", cache=cache).grid(spec, scenarios=scenarios)
        assert cache.stats()["hits"] - hits_before == len(cold)
        assert warm.digest() == cold.digest()
        # And identical to an uncached session's digest.
        direct = Session(name="direct").grid(spec, scenarios=scenarios)
        assert direct.digest() == cold.digest()

    def test_renamed_spec_reuses_cache_and_restamps(self):
        cache = CellCache()
        Session(cache=cache).run(make_spec())
        result = Session(cache=cache).run(make_spec(name="renamed"))
        assert cache.stats()["hits"] == 1
        assert result.spec_name == "renamed"

    def test_replay_restamps_scenario_label_for_equivalent_spelling(self):
        # "clean" and None digest to the same cell, so a replay must carry
        # the *current* axis spelling's label — not the label stamped when
        # the cell originally executed.
        spec = make_spec()
        cache = CellCache()
        named = Session(cache=cache).grid(spec, scenarios=["clean"])
        assert named.results[0].scenario_name == "clean"
        replayed = Session(cache=cache).grid(spec, scenarios=[None])
        assert cache.stats()["hits"] == len(replayed)
        assert all(r.scenario_name is None for r in replayed)
        direct = Session().grid(spec, scenarios=[None])
        assert replayed.digest() == direct.digest()

    def test_keep_outputs_session_treats_outputless_entries_as_miss(self):
        cache = CellCache()
        Session(cache=cache).run(make_spec())  # caches without outputs
        kept = Session(cache=cache, keep_outputs=True).run(make_spec())
        assert kept.outputs is not None  # re-executed, not a blind replay

    def test_live_spec_cells_always_execute(self):
        import networkx as nx

        cache = CellCache()
        spec = make_spec(graph=nx.path_graph(6), graph_params={})
        Session(cache=cache).run(spec)
        Session(cache=cache).run(spec)
        assert len(cache) == 0


class TestRunCell:
    def test_matches_session_run(self):
        spec = make_spec()
        direct = Session().run(spec)
        standalone = run_cell(spec)
        assert standalone.signature() == direct.signature()

    def test_accepts_grid_cell_forms_and_cache(self):
        spec = make_spec()
        cache = CellCache()
        first = run_cell(
            spec,
            backend="reference",
            scenario=("link-drop", {"drop_probability": 0.1}),
            seed=1,
            cache=cache,
        )
        again = run_cell(
            spec,
            backend="reference",
            scenario=("link-drop", {"drop_probability": 0.1}),
            seed=1,
            cache=cache,
        )
        assert cache.stats()["hits"] == 1
        assert again.signature() == first.signature()


class TestProtocol:
    def test_round_trip(self):
        request = SubmitRequest(
            spec=make_spec().to_json(),
            client="tester",
            scenarios=[None, ("link-drop", {"drop_probability": 0.1})],
            timeout=5.0,
        )
        rebuilt = SubmitRequest.from_json(
            json.loads(json.dumps(request.to_json()))
        )
        assert rebuilt.client == "tester"
        assert rebuilt.timeout == 5.0
        assert rebuilt.scenarios == [
            None, ("link-drop", {"drop_probability": 0.1})
        ]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "must be a JSON object"),
            ({}, "missing the 'spec'"),
            ({"spec": 3}, "ExperimentSpec JSON object"),
            ({"spec": {}, "bogus": 1}, "unknown submit fields"),
            ({"spec": {}, "client": ""}, "'client'"),
            ({"spec": {}, "scenarios": []}, "non-empty JSON array"),
            ({"spec": {}, "scenarios": [3]}, "axis entries"),
            ({"spec": {}, "timeout": -1}, "positive number"),
        ],
    )
    def test_validation_errors(self, payload, message):
        with pytest.raises(ProtocolError, match=message):
            SubmitRequest.from_json(payload)

    def test_bad_spec_is_a_protocol_error(self):
        request = SubmitRequest(spec={"name": "x", "bogus": True})
        with pytest.raises(ProtocolError, match="invalid experiment spec"):
            request.build_spec()

    def test_enumerate_cells_matches_grid_order(self):
        spec = make_spec()
        request = SubmitRequest(
            spec=spec.to_json(),
            backends=["reference"],
            scenarios=[None, ("link-drop", {"drop_probability": 0.1})],
        )
        cells = request.enumerate_cells(request.build_spec())
        # scenario-major, then seed, then backend — Session.grid's nesting.
        assert [(c.cell_index, c.seed) for c in cells] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        digests = [c.digest for c in cells]
        assert all(d is not None for d in digests)
        assert len(set(digests)) == len(digests)


class TestWorkerPoolSize:
    @pytest.mark.parametrize("bad", [0, -2, True, 2.5, "2"])
    def test_bad_worker_count_is_rejected_at_construction(self, bad):
        # Constructed only: a rejected pool must never get as far as start().
        with pytest.raises(ValueError, match="num_workers must be an int >= 1"):
            WorkerPool(num_workers=bad)

    def test_default_worker_count_is_the_affinity_mask(self):
        assert WorkerPool().num_workers == len(os.sched_getaffinity(0))


@pytest.fixture(scope="module")
def service_stack():
    if not _FORK:  # pragma: no cover - non-fork platforms
        pytest.skip("forked workers required")
    pool = WorkerPool(num_workers=2, start_method="fork").start()
    service = ExperimentService(pool, CellCache())
    server = ExperimentServer(service).start_in_background()
    client = ServiceClient(port=server.port, timeout=60)
    yield service, server, client
    server.stop()
    pool.close()


class TestServer:
    def test_healthz_and_status(self, service_stack):
        _, _, client = service_stack
        assert client.healthz() == {"ok": True}
        status = client.status()
        assert status["ok"] and status["pool"]["workers"] == 2
        assert "cache" in status

    def test_unknown_route_is_404(self, service_stack):
        _, _, client = service_stack
        with pytest.raises(ServiceError, match="no route"):
            client._json(client._request("GET", "/nope"))

    def test_bad_spec_is_400(self, service_stack):
        _, _, client = service_stack
        with pytest.raises(ServiceError, match="invalid experiment spec"):
            client.submit(SubmitRequest(spec={"name": "x", "bogus": 1}))

    @pytest.mark.parametrize(
        "axes, entry",
        [
            ({"backends": ["sharded"]}, "'sharded'"),
            (
                {"backends": [("vectorized", {"num_workers": 2})]},
                r"\['vectorized', \{'num_workers': 2\}\]",
            ),
            ({"scenarios": ["solar-flare"]}, "'solar-flare'"),
        ],
        ids=["unknown-backend", "bad-backend-params", "unknown-scenario"],
    )
    def test_bad_grid_axis_entry_is_400(self, service_stack, axes, entry):
        """Every axis entry is checked before the 200 header is written."""
        service, _, client = service_stack
        requests = service.requests
        request = SubmitRequest(
            spec=make_spec(name="svc-bad-axis").to_json(), client="pytest", **axes
        )
        with pytest.raises(ServiceError, match=f"invalid \\w+ entry {entry}") as excinfo:
            client.submit(request)
        assert excinfo.value.status == 400
        assert service.requests == requests  # no cell was ever queued

    def test_submit_digest_matches_direct_grid_and_warm_is_cached(
        self, service_stack
    ):
        service, _, client = service_stack
        spec = make_spec(name="svc-server")
        scenarios = [None, ("link-drop", {"drop_probability": 0.1})]
        direct = Session().grid(
            ExperimentSpec.from_json(spec.to_json()), scenarios=scenarios
        )
        request = SubmitRequest(
            spec=spec.to_json(), client="pytest", scenarios=scenarios
        )
        events = []
        cold = client.submit(request, on_event=events.append)
        assert cold["digest"] == direct.digest()
        assert cold["executed"] == len(direct)
        assert cold["failed"] == 0
        kinds = {event["kind"] for event in events}
        assert {"accepted", "cell_begin", "cell_end"} <= kinds

        warm = client.submit(request)
        assert warm["digest"] == cold["digest"]
        assert warm["cached"] == warm["cells"]
        assert warm["executed"] == 0

        # The reply's resultset is the BENCH_*.json shape.
        assert warm["resultset"]["experiment"] == "svc-server"
        assert len(warm["resultset"]["rows"]) == warm["cells"]

    def test_renamed_spec_hits_the_same_cache_entries(self, service_stack):
        _, _, client = service_stack
        spec = make_spec(name="svc-rename-a")
        first = client.submit(
            SubmitRequest(spec=spec.to_json(), client="pytest")
        )
        renamed = make_spec(name="svc-rename-b")
        second = client.submit(
            SubmitRequest(spec=renamed.to_json(), client="pytest")
        )
        assert second["cached"] == second["cells"]
        # Same deterministic rows, different experiment label.
        assert first["digest"] == second["digest"]
        assert second["resultset"]["experiment"] == "svc-rename-b"

    def test_equivalent_scenario_spelling_replays_with_current_label(
        self, service_stack
    ):
        _, _, client = service_stack
        spec = make_spec(name="svc-spelling")
        cold = client.submit(
            SubmitRequest(
                spec=spec.to_json(), client="pytest", scenarios=["clean"]
            )
        )
        warm = client.submit(
            SubmitRequest(
                spec=spec.to_json(), client="pytest", scenarios=[None]
            )
        )
        assert warm["cached"] == warm["cells"]
        assert cold["resultset"]["rows"][0]["scenario_name"] == "clean"
        assert warm["resultset"]["rows"][0]["scenario_name"] is None
        direct = Session(name="svc-spelling").grid(spec, scenarios=[None])
        assert warm["digest"] == direct.digest()

    def test_duplicate_digests_within_one_submission_execute_once(
        self, service_stack
    ):
        service, _, client = service_stack
        # Digest-unique graph params: the module-scope cache must not
        # already hold these cells (spec *names* don't enter digests).
        spec = make_spec(
            name="svc-dedup",
            graph_params={"n": 24, "avg_degree": 5.0, "seed": 77},
        )
        # The same scenario listed twice: per seed, both cells share a
        # digest, so the second must reuse the first's execution.
        scenarios = ["clean", "clean"]
        before = service.cache.stats()["dedup_hits"]
        events = []
        reply = client.submit(
            SubmitRequest(
                spec=spec.to_json(), client="pytest", scenarios=scenarios
            ),
            on_event=events.append,
        )
        seeds = len(SPEC_KWARGS["seeds"])
        assert reply["failed"] == 0
        assert reply["executed"] == seeds
        assert reply["deduped"] == seeds
        assert reply["cells"] == 2 * seeds
        assert len(reply["resultset"]["rows"]) == reply["cells"]
        assert service.cache.stats()["dedup_hits"] == before + seeds
        deduped_ends = [
            event
            for event in events
            if event["kind"] == "cell_end" and event.get("deduped")
        ]
        assert len(deduped_ends) == seeds
        # Deduped rows restamp cell_index/scenario, so the served grid
        # is byte-identical to a direct one that executes every cell.
        direct = Session().grid(
            ExperimentSpec.from_json(spec.to_json()), scenarios=scenarios
        )
        assert reply["digest"] == direct.digest()

    def test_non_streaming_submit(self, service_stack):
        _, _, client = service_stack
        request = SubmitRequest(
            spec=make_spec(name="svc-nostream").to_json(),
            client="pytest",
            stream=False,
        )
        reply = client.submit(request)
        assert reply["kind"] == "result"
        assert reply["failed"] == 0

    def test_service_handle_submit_inline(self, service_stack):
        """The transport-free core works without the HTTP layer."""
        service, _, _ = service_stack
        request = SubmitRequest(
            spec=make_spec(name="svc-inline").to_json(), client="inline"
        )
        seen = []

        async def main():
            async def emit(event):
                seen.append(event)

            return await service.handle_submit(request, emit)

        reply = asyncio.run(main())
        assert reply["kind"] == "result"
        assert seen and seen[0]["kind"] == "accepted"
