"""The robust compiler: codec, erasure code, strategies, end-to-end recovery.

Layered like the subsystem itself:

* the payload <-> 16-bit-symbol codec must round-trip every payload shape
  the engine ships (hypothesis);
* the Cauchy erasure code must reconstruct from *any* ``d`` of ``d + f``
  shares (the MDS guarantee), and the checksum layer must turn corrupt
  shares into erasures;
* both strategies must carry a logical payload through loss and lies;
* the compiled protocol must reproduce the bare algorithm's *clean* outputs
  under crash-stop and Byzantine vertex faults that demonstrably break the
  bare run — on every backend — while reporting its round stretch.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import FloodMinimum
from repro.engine.runner import run_algorithm
from repro.experiments import ExperimentSpec, Session
from repro.graphs import erdos_renyi
from repro.robust import (
    ByzantineVertexScenario,
    CrashStopVertexScenario,
    ErasureCodingStrategy,
    ReplicationStrategy,
    compile_robust,
    replica_graph,
    resolve_strategy,
)
from repro.robust.coding import (
    CodecError,
    decode_payload,
    decode_shares,
    encode_payload,
    encode_shares,
    share_checksum,
)
from repro.robust.strategies import majority_vote

BACKENDS = ["reference", "vectorized"]

# -- codec -------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
    ),
    max_leaves=12,
)


@given(payload=payloads)
@settings(max_examples=200, deadline=None)
def test_codec_round_trips_every_payload_shape(payload):
    symbols = encode_payload(payload)
    assert all(0 <= symbol < (1 << 16) for symbol in symbols)
    decoded = decode_payload(symbols)
    assert decoded == payload
    assert type(decoded) is type(payload)


def test_codec_pickle_fallback_for_exotic_payloads():
    payload = frozenset({1, 2, 3})
    assert decode_payload(encode_payload(payload)) == payload


def test_small_ints_encode_compactly():
    # The dominant CONGEST payload must stay cheap: tag + one varint symbol.
    assert len(encode_payload(7)) == 2
    assert len(encode_payload((1, 2, 3))) <= 8


def test_malformed_streams_raise_codec_error():
    with pytest.raises(CodecError):
        decode_payload([])
    with pytest.raises(CodecError):
        decode_payload([3])  # int tag with no varint body
    with pytest.raises(CodecError):
        decode_payload([999])  # unknown tag
    with pytest.raises(CodecError):
        decode_payload([6, 0x8000])  # runaway container count varint


# -- erasure code ------------------------------------------------------------


@given(
    payload=payloads,
    d=st.integers(min_value=1, max_value=4),
    f=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_any_d_of_k_shares_reconstruct(payload, d, f, data):
    symbols = encode_payload(payload)
    shares = encode_shares(symbols, d, f)
    assert len(shares) == d + f
    assert len({len(chunk) for chunk in shares}) == 1  # equal-length chunks
    subset = data.draw(
        st.sampled_from(list(itertools.combinations(range(d + f), d)))
    )
    survivors = {index: shares[index] for index in subset}
    recovered = decode_shares(survivors, d, f)
    assert recovered is not None
    assert decode_payload(recovered) == payload


def test_too_few_shares_fail_closed():
    shares = encode_shares(encode_payload((1, 2, 3, 4, 5)), 3, 2)
    assert decode_shares({0: shares[0], 4: shares[4]}, 3, 2) is None
    assert decode_shares({}, 3, 2) is None


def test_checksum_binds_share_to_origin_and_position():
    chunk = [17, 4096]
    baseline = share_checksum("v", "tag", 0, chunk)
    assert baseline == share_checksum("v", "tag", 0, list(chunk))
    assert baseline != share_checksum("w", "tag", 0, chunk)
    assert baseline != share_checksum("v", "other", 0, chunk)
    assert baseline != share_checksum("v", "tag", 1, chunk)
    assert baseline != share_checksum("v", "tag", 0, [18, 4096])


# -- strategies --------------------------------------------------------------


def test_majority_vote_breaks_ties_deterministically():
    assert majority_vote([1, 2, 2]) == 2
    assert majority_vote([[1], [1], [2]]) == [1]  # unhashable payloads vote
    assert majority_vote([1, 2]) == 1  # tie -> smallest repr, every replica agrees
    with pytest.raises(ValueError):
        majority_vote([])


@pytest.mark.parametrize(
    "strategy",
    [ReplicationStrategy(f=1), ErasureCodingStrategy(d=2, f=1)],
    ids=["replication", "erasure-coding"],
)
def test_strategy_survives_f_losses_and_f_lies(strategy):
    payload = (42, "label", [1, 2, 3])
    shares = strategy.shares(payload, sender="u", tag="t")
    assert len(shares) == strategy.k
    entries = list(enumerate(shares))
    ok, decoded = strategy.decode(entries, sender="u", tag="t")
    assert ok and decoded == payload
    # Drop one share (crash-stop): still decodes.
    ok, decoded = strategy.decode(entries[1:], sender="u", tag="t")
    assert ok and decoded == payload
    # Corrupt one share (Byzantine): outvoted or checksum-erased.
    corrupt = [(0, _flip(shares[0]))] + entries[1:]
    ok, decoded = strategy.decode(corrupt, sender="u", tag="t")
    assert ok and decoded == payload


def _flip(share):
    if type(share) is tuple:
        return tuple(s ^ 1 if type(s) is int else s for s in share)
    return -1


def test_erasure_strategy_rejects_malformed_and_forged_shares():
    strategy = ErasureCodingStrategy(d=2, f=1)
    shares = strategy.shares(123456, sender="u", tag="t")
    entries = list(enumerate(shares))
    # A forged checksum, a wrong-arity share, an out-of-range index, and a
    # duplicate index are all ignored — decode still succeeds from the rest.
    noise = [(0, (999, 1, 2)), (0, "garbage"), (7, shares[0]), (1, shares[1])]
    ok, decoded = strategy.decode(noise + entries, sender="u", tag="t")
    assert ok and decoded == 123456
    # But only forged shares -> too few survivors -> fail closed.
    forged = [(i, _flip(share)) for i, share in entries]
    ok, decoded = strategy.decode(forged, sender="u", tag="t")
    assert not ok


def test_resolve_strategy_names_and_validation():
    assert isinstance(resolve_strategy("replication", f=2), ReplicationStrategy)
    erasure = resolve_strategy("erasure-coding", d=3, f=2)
    assert erasure.k == 5
    with pytest.raises(ValueError, match="unknown robust strategy"):
        resolve_strategy("raid6")
    with pytest.raises(ValueError, match="params"):
        resolve_strategy(ReplicationStrategy(), f=1)
    with pytest.raises(ValueError):
        ReplicationStrategy(f=-1)
    with pytest.raises(ValueError):
        ErasureCodingStrategy(d=0)


# -- the compiler ------------------------------------------------------------


def test_replica_graph_shape():
    graph = nx.path_graph(4)
    physical = replica_graph(graph, 3)
    assert physical.number_of_nodes() == 12
    # Complete bipartite bundles, no intra-group edges.
    assert physical.number_of_edges() == graph.number_of_edges() * 9
    assert not physical.has_edge((0, 0), (0, 1))
    assert physical.has_edge((0, 0), (1, 2))
    with pytest.raises(ValueError):
        replica_graph(graph, 0)


STRATEGIES = [
    ("replication", {"f": 2}),
    ("erasure-coding", {"d": 2, "f": 2}),
]


def fault_scenarios():
    return [
        CrashStopVertexScenario(max_faulty=2, first_round=1, window=4, seed=3),
        ByzantineVertexScenario(max_faulty=2, seed=3),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,params", STRATEGIES, ids=[s for s, _ in STRATEGIES])
def test_compiled_run_recovers_clean_outputs_under_faults(backend, name, params):
    graph = erdos_renyi(24, 5.0, seed=7)
    clean = run_algorithm(graph, FloodMinimum, backend=backend)
    compiled = compile_robust(FloodMinimum, strategy=name, **params)
    for scenario in fault_scenarios():
        run = compiled.run(graph, backend=backend, scenario=scenario)
        assert run.outputs == clean.outputs
        assert run.halted
        assert run.round_stretch is not None and run.round_stretch <= 4.0


def test_bare_run_breaks_where_the_compiled_run_survives():
    graph = erdos_renyi(24, 5.0, seed=7)
    clean = run_algorithm(graph, FloodMinimum, backend="reference")
    scenario = fault_scenarios()[0]
    bare = run_algorithm(
        graph, FloodMinimum, backend="reference", scenario=scenario
    )
    assert bare.outputs != clean.outputs


def test_strategies_trade_bandwidth_for_group_size():
    graph = nx.path_graph(6)
    replication = compile_robust(FloodMinimum, strategy="replication", f=1)
    erasure = compile_robust(FloodMinimum, strategy="erasure-coding", d=2, f=1)
    rep_run = replication.run(graph, backend="reference")
    era_run = erasure.run(graph, backend="reference")
    clean = run_algorithm(graph, FloodMinimum, backend="reference")
    assert rep_run.outputs == clean.outputs == era_run.outputs
    # k=3 full single-word copies per directed replica pair: exactly k^2
    # times the bare word bill, and byte-identical fragmentation timing
    # (stretch 1).  The coded shares pay checksum + framing words on these
    # tiny payloads, so coding trades extra words and a bounded stretch for
    # the smaller group (k = d + f = 3 tolerates the same f with
    # identified, not outvoted, corruption).
    assert rep_run.metrics.words == 9 * clean.metrics.words
    assert rep_run.round_stretch == 1.0
    assert era_run.metrics.words > rep_run.metrics.words
    assert era_run.round_stretch <= 4.0


def test_compiled_stretch_uses_supplied_baseline():
    graph = nx.path_graph(5)
    compiled = compile_robust(FloodMinimum, strategy="replication", f=1)
    run = compiled.run(graph, backend="reference", baseline_rounds=10)
    assert run.round_stretch == run.rounds / 10


def test_vector_algorithm_compiles_via_its_per_vertex_twin():
    from common import vector_broadcast_workload

    graph = erdos_renyi(18, 4.0, seed=2)
    workload = vector_broadcast_workload(payload_words=4)
    clean = run_algorithm(graph, workload, backend="vectorized")
    compiled = compile_robust(workload, strategy="replication", f=1)
    run = compiled.run(
        graph,
        backend="vectorized",
        scenario=CrashStopVertexScenario(max_faulty=1, first_round=1, seed=5),
    )
    assert run.outputs == clean.outputs


# -- the experiment-registry surface -----------------------------------------


def _robust_spec(**workload_params):
    return ExperimentSpec(
        name="robust-cell",
        graph="erdos-renyi",
        graph_params={"n": 18, "avg_degree": 4.0, "seed": 2},
        workload="robust-compiled",
        workload_params={
            "inner": "flood-min",
            "strategy": "replication",
            "f": 1,
            **workload_params,
        },
        backend="reference",
        seeds=(0,),
    )


def test_robust_compiled_workload_runs_through_the_session_api():
    clean_spec = ExperimentSpec(
        name="bare-cell",
        graph="erdos-renyi",
        graph_params={"n": 18, "avg_degree": 4.0, "seed": 2},
        workload="flood-min",
        backend="reference",
        seeds=(0,),
    )
    session = Session(name="robust")
    clean = session.run(clean_spec)
    compiled = next(
        iter(
            session.grid(
                _robust_spec(),
                scenarios=[("crash-vertices", {"max_faulty": 2, "seed": 3})],
            )
        )
    )
    assert compiled.output_digest == clean.output_digest
    assert compiled.round_stretch is not None
    row = compiled.to_row()
    assert row["round_stretch"] == round(compiled.round_stretch, 4)
    # The stretch participates in the content digest (REP007's customer).
    assert "round_stretch" in row


def test_robust_compiled_rejects_driver_inner_workloads():
    session = Session(name="robust-bad")
    with pytest.raises(Exception, match="vertex workloads only"):
        session.run(_robust_spec(inner="distributed-listing"))
