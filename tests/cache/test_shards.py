"""Work-stealing shard runner: identity, resume, journal, crash recovery."""

import json

import pytest

from repro.cache.incremental import IncrementalExplorer, assemble_point
from repro.cache.journal import ResultJournal
from repro.cache.shards import ShardRunner, explore_space
from repro.cache.space import ParameterSpace
from repro.local_transforms.scripts import STANDARD_LOCAL_SEQUENCE
from repro.resilience.injection import ConfigFaultInjector

SPACE_DOC = {
    "scenarios": [{"workload": "diffeq"}],
    "delays": [{"name": "nominal"}, {"name": "x1.5", "scale": 1.5}],
    "seeds": [9],
    "gt": [[], ["GT1"], ["GT3"], ["GT1", "GT3"]],
    "lt": [[], list(STANDARD_LOCAL_SEQUENCE)],
}  # 2 contexts x 8 points = 16


def make_space() -> ParameterSpace:
    return ParameterSpace.from_dict(SPACE_DOC)


def tiny_space() -> ParameterSpace:
    return ParameterSpace.from_dict(
        {
            "scenarios": [{"workload": "diffeq"}],
            "delays": [{"name": "nominal"}],
            "gt": [[], ["GT1"]],
            "lt": [[]],
        }
    )  # 1 context x 2 points


def canonical(documents) -> str:
    return json.dumps(documents, sort_keys=True)


@pytest.fixture(scope="module")
def baseline_docs():
    """The uninterrupted single-shard sweep every identity test pins to."""
    result = explore_space(make_space(), shards=1)
    assert result.complete
    return result.documents


# ----------------------------------------------------------------------
# identity: shards are a scheduling choice, not a semantic one
# ----------------------------------------------------------------------
def test_two_shards_bit_identical_to_one(baseline_docs):
    live_calls = []
    runner = ShardRunner(
        make_space(),
        shards=2,
        parallelism=2,
        live=lambda done, total, frontier, point: live_calls.append((done, total)),
    )
    result = runner.run()
    assert result.complete
    assert canonical(result.documents) == canonical(baseline_docs)
    assert result.stats["completed_points"] == 16
    assert result.stats["shards"] == 2

    # the live stream saw every point, monotonically
    assert [done for done, __ in live_calls] == list(range(1, 17))
    assert all(total == 16 for __, total in live_calls)

    # the streaming frontier agrees with the end-of-run sort-based one
    signature = lambda p: (p.objectives(), p.global_transforms, p.local_transforms)
    assert {signature(p) for p in runner.frontier.points()} == {
        signature(p) for p in result.pareto_points()
    }
    assert runner.frontier.best().objectives() == min(
        p.objectives() for p in result.pareto_points()
    )


def test_sharded_points_match_the_single_pool_engine(baseline_docs):
    """Point-for-point equality with a plain IncrementalExplorer."""
    space = make_space()
    context = next(space.contexts())  # the nominal-delay context
    explorer = IncrementalExplorer(
        context.cdfg,
        delays=context.delays,
        seed=context.seed,
        golden=context.golden,
    )
    labels = context.labels()
    expected = []
    for gt in space.gt_subsets:
        for lt in space.lt_subsets:
            record = explorer.evaluate_prefix(gt, tuple(lt))
            point = assemble_point(gt, tuple(lt), record, golden_checked=True)
            expected.append({**point.to_dict(), **labels})
    assert baseline_docs[: len(expected)] == expected


# ----------------------------------------------------------------------
# speed independence: the shared trie-edge memo
# ----------------------------------------------------------------------
def _context_explorer(context, **kwargs):
    return IncrementalExplorer(
        context.cdfg,
        delays=context.delays,
        seed=context.seed,
        golden=context.golden,
        **kwargs,
    )


def test_uniform_scale_contexts_share_every_trie_edge():
    """A uniformly-scaled delay model replays the nominal context's edge
    records verbatim: transform decisions (GT3 included) compare *sums*
    of delays, so scaling every interval by one factor preserves each
    decision, oracle verdict and content fingerprint — the paper's
    speed-independence argument, which the worker-global edge memo in
    the shard runner leans on."""
    space = make_space()
    nominal, scaled = space.contexts()
    assert nominal.edge_scope == scaled.edge_scope == "uniform-scale"

    memo = {}
    warm = _context_explorer(nominal, edge_memo=memo, edge_scope=nominal.edge_scope)
    for gt in space.gt_subsets:
        warm.evaluate_prefix(gt, ())
    assert warm.edges_applied > 0 and memo

    peer = _context_explorer(scaled, edge_memo=memo, edge_scope=scaled.edge_scope)
    records = [peer.evaluate_prefix(gt, ()) for gt in space.gt_subsets]
    assert peer.edges_applied == 0  # every edge came from the memo

    # ...and the shortcut is invisible in the results: bit-identical to
    # a cold explorer that recomputes every edge under the scaled model
    cold = _context_explorer(scaled)
    assert records == [cold.evaluate_prefix(gt, ()) for gt in space.gt_subsets]
    assert cold.edges_applied > 0


def test_override_variants_do_not_share_scaled_edges():
    """Per-FU overrides break the uniform-scaling symmetry, so those
    contexts fall back to an exact-delay-fingerprint memo scope."""
    space = ParameterSpace.from_dict(
        {
            "scenarios": [{"workload": "diffeq"}],
            "delays": [
                {"name": "nominal"},
                {"name": "hot-mul", "overrides": [["MUL1", "*", [9.0, 13.0]]]},
            ],
            "gt": [[], ["GT1"]],
            "lt": [[]],
        }
    )
    nominal, hot = space.contexts()
    assert nominal.edge_scope == "uniform-scale"
    assert hot.edge_scope is None  # explorer defaults to the delay fp


# ----------------------------------------------------------------------
# partitioning + stealing (deterministic, no threads)
# ----------------------------------------------------------------------
def test_shards_clamp_to_available_parallelism():
    """Shards beyond hardware parallelism only duplicate cold worker memos,
    so the fleet is clamped; requested vs effective are both reported."""
    runner = ShardRunner(make_space(), shards=8, parallelism=2)
    assert runner.shards == 8
    assert runner.effective_shards == 2
    queues = runner._build_units(list(make_space().contexts()))
    assert len(queues) == 2
    result = ShardRunner(make_space(), shards=8, parallelism=1).run()
    assert result.stats["shards"] == 8
    assert result.stats["effective_shards"] == 1

    # auto-detection never produces an empty fleet
    assert ShardRunner(make_space(), shards=2).effective_shards >= 1


def test_units_are_shared_prefix_subtrees_with_scenario_affinity():
    space = make_space()
    runner = ShardRunner(space, shards=2, parallelism=2)
    contexts = list(space.contexts())
    queues = runner._build_units(contexts)
    # both contexts are delay variants of ONE scenario: they must share
    # shard 0 (and its worker memos); 3 first-pass subtrees per context
    # ("", "GT1", "GT3"), all under the unit size
    assert len(queues[0]) == 6
    assert not queues[1]  # gets its work by stealing
    for unit in queues[0]:
        assert unit.context.scenario_index == 0
        firsts = {gt[0] if gt else "" for gt, __ in unit.items}
        assert len(firsts) == 1  # one trie subtree per unit
        assert len(unit.keys) == len(unit.items)


def test_distinct_scenarios_spread_across_shards():
    space = ParameterSpace.from_dict(
        {
            "scenarios": [{"workload": "diffeq"}, {"random": 1}, {"random": 2}],
            "delays": [{"name": "nominal"}, {"name": "x2", "scale": 2.0}],
            "gt": [[], ["GT1"]],
            "lt": [[]],
        }
    )
    runner = ShardRunner(space, shards=2, parallelism=2)
    queues = runner._build_units(list(space.contexts()))
    owners = {
        shard: {unit.context.scenario_index for unit in queue}
        for shard, queue in enumerate(queues)
    }
    assert owners == {0: {0, 2}, 1: {1}}


def test_idle_shard_cold_steal_adopts_half_the_tail_context_run():
    space = make_space()
    runner = ShardRunner(space, shards=4, parallelism=4)
    queues = runner._build_units(list(space.contexts()))
    # the single scenario fills shard 0; shards 1-3 are idle
    assert not queues[1] and not queues[2] and not queues[3]
    # shard 0's tail holds the x1.5 context's 3-unit run; a cold thief
    # adopts half of it (2 units, rounded up) in canonical order
    run = [unit for unit in queues[0] if unit.context.index == 1]
    assert len(run) == 3
    stolen = runner._next_unit(2, queues)
    assert stolen is run[1]
    assert list(queues[2]) == [run[2]]
    assert runner._stolen == 2
    assert run[1].context.scenario_index in runner._seen[2]
    # the victim still serves its own queue from the head
    head = queues[0][0]
    assert runner._next_unit(0, queues) is head
    # draining everything eventually returns None
    for shard in (2, 3, 1, 0):
        while runner._next_unit(shard, queues) is not None:
            pass
    assert all(not queue for queue in queues)


def test_warm_steal_prefers_contexts_the_thief_has_seen():
    space = ParameterSpace.from_dict(
        {
            "scenarios": [{"workload": "diffeq"}, {"random": 1}, {"random": 2}],
            "delays": [{"name": "nominal"}, {"name": "x2", "scale": 2.0}],
            "gt": [[], ["GT1"]],
            "lt": [[]],
        }
    )
    runner = ShardRunner(space, shards=2, parallelism=2)
    contexts = list(space.contexts())
    queues = runner._build_units(contexts)
    # shard 1 owns scenario 1 only; pretend it already dispatched some
    # diffeq context — warmth is scenario-level (memos are content-
    # keyed), so EVERY diffeq variant is preferred over a cold adoption
    runner._seen[1].add(0)
    queues[1].clear()
    stolen = runner._next_unit(1, queues)
    # the tail of shard 0's queue is scenario 2, but a warm diffeq
    # unit wins — the tail-most one, from the x2 variant context
    assert stolen.context.scenario_index == 0
    assert stolen.context.variant.name == "x2"
    assert runner._stolen == 1


def test_single_context_on_many_shards_still_completes(baseline_docs):
    """End-to-end: shards without native work must steal to finish."""
    result = explore_space(make_space(), shards=3, parallelism=3)
    assert result.complete
    assert canonical(result.documents) == canonical(baseline_docs)


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------
def test_stop_and_resume_is_byte_identical(tmp_path, baseline_docs):
    run_dir = tmp_path / "run"
    partial = explore_space(
        make_space(), shards=2, parallelism=2, run_dir=run_dir, stop_after=5
    )
    assert not partial.complete
    assert partial.stats["stopped_early"]
    assert partial.stats["completed_points"] >= 5
    assert list(run_dir.glob("journal*.jsonl"))  # durable mid-run state

    resumed = explore_space(
        make_space(), shards=2, parallelism=2, run_dir=run_dir, resume=True
    )
    assert resumed.complete
    assert resumed.stats["resumed_points"] >= 5
    assert resumed.stats["resumed_points"] + resumed.stats["completed_points"] == 16
    assert canonical(resumed.documents) == canonical(baseline_docs)

    # clean completion compacted the journals into the mirror
    assert not list(run_dir.glob("journal*.jsonl"))
    assert (run_dir / "space.json").exists()

    # a second resume replays everything from the mirror, recomputing nothing
    replay = explore_space(
        make_space(), shards=2, parallelism=2, run_dir=run_dir, resume=True
    )
    assert replay.stats["resumed_points"] == 16
    assert replay.stats["completed_points"] == 0
    assert canonical(replay.documents) == canonical(baseline_docs)


def test_resume_tolerates_corrupted_journal_lines(tmp_path, baseline_docs):
    run_dir = tmp_path / "run"
    explore_space(
        make_space(), shards=2, parallelism=2, run_dir=run_dir, stop_after=4
    )
    victim = sorted(run_dir.glob("journal*.jsonl"))[0]
    with victim.open("a", encoding="utf-8") as handle:
        handle.write('{"key": "truncated-mid-cra')  # SIGKILL signature

    journal = ResultJournal(run_dir)
    journal.load()
    assert journal.skipped_lines == 1

    resumed = explore_space(
        make_space(), shards=2, parallelism=2, run_dir=run_dir, resume=True
    )
    assert resumed.complete
    assert canonical(resumed.documents) == canonical(baseline_docs)


def test_resume_reattempts_failed_points(tmp_path):
    """Failed records are journaled but never resumed — a resume must
    re-evaluate the crash, mirroring the cache-mirror contract."""
    run_dir = tmp_path / "run"
    injector = ConfigFaultInjector.for_configs([("GT1",)], mode="raise")
    broken = explore_space(
        tiny_space(), shards=1, run_dir=run_dir, fault_injector=injector
    )
    assert broken.complete
    failed = broken.failed_points()
    assert [p.global_transforms for p in failed] == [("GT1",)]
    assert "injected fault" in failed[0].error

    healed = explore_space(tiny_space(), shards=1, run_dir=run_dir, resume=True)
    assert healed.complete
    assert healed.stats["resumed_points"] == 1  # only the ok point carried over
    assert not healed.failed_points()


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
def test_killed_pool_worker_rebuilds_and_reports(tmp_path):
    injector = ConfigFaultInjector.for_configs(
        [("GT1",)], mode="exit", once_marker=str(tmp_path / "crashed-once")
    )
    result = explore_space(tiny_space(), shards=1, fault_injector=injector)
    assert result.complete
    assert result.stats["broken_pools"] >= 1
    assert not result.stats.get("shard_errors")
    by_gt = {p.global_transforms: p for p in result.points}
    assert by_gt[()].status == "ok"
    # the post-crash retry degrades the injector to a plain raise
    assert by_gt[("GT1",)].status == "failed"
    assert "post-crash retry" in by_gt[("GT1",)].error


def test_persistent_crasher_follows_the_retry_policy(monkeypatch):
    """Every pool collapse but the last backs off by the shard's
    RetryPolicy schedule; the last degrades the unit to in-thread."""
    import repro.resilience.pool as pool_module
    from repro.resilience.pool import RetryPolicy

    sleeps = []
    monkeypatch.setattr(pool_module.time, "sleep", sleeps.append)
    retries = 2
    injector = ConfigFaultInjector.for_configs([("GT1",)], mode="exit")
    result = explore_space(
        tiny_space(), shards=1, retries=retries, fault_injector=injector
    )
    assert result.complete
    assert result.stats["broken_pools"] == retries + 1
    assert result.stats["degraded_units"] == 1
    assert sleeps == RetryPolicy(max_retries=retries).schedule()
    by_gt = {p.global_transforms: p for p in result.points}
    assert by_gt[()].status == "ok"
    assert "serial fallback" in by_gt[("GT1",)].error


# ----------------------------------------------------------------------
# journal unit behaviour
# ----------------------------------------------------------------------
def test_journal_round_trip_filters_and_compacts(tmp_path):
    writer = ResultJournal(tmp_path)
    writer.append("k1", {"status": "ok", "x": 1})
    writer.append("k2", {"status": "failed", "error": "boom"})
    writer.close()
    shard_writer = ResultJournal(tmp_path, shard=3)
    shard_writer.append("k3", {"status": "ok", "x": 3})
    shard_writer.close()
    assert (tmp_path / "journal-3.jsonl").exists()

    with (tmp_path / "journal.jsonl").open("a", encoding="utf-8") as handle:
        handle.write("\n{garbled\n[]\n")  # blank, torn, wrong-shape

    journal = ResultJournal(tmp_path)
    records = journal.load()
    assert records == {"k1": {"status": "ok", "x": 1}, "k3": {"status": "ok", "x": 3}}
    assert journal.skipped_lines == 2  # blank lines are not corruption

    journal.compact()
    assert not list(tmp_path.glob("journal*.jsonl"))
    assert (tmp_path / "space.json").exists()
    assert ResultJournal(tmp_path).load() == records


def test_journal_load_on_missing_directory_is_empty(tmp_path):
    assert ResultJournal(tmp_path / "nowhere").load() == {}


# ----------------------------------------------------------------------
# scaling bench (small space; the perf numbers are for `repro bench`)
# ----------------------------------------------------------------------
def test_run_scaling_bench_verdicts():
    from repro.bench import run_scaling_bench

    result = run_scaling_bench(
        shards=2,
        workloads=("diffeq",),
        random_scenarios=0,
        delay_scales=(1.0,),
        check_resume=False,
    )
    assert result["points"] == 64
    assert result["contexts"] == 1
    assert result["identical"] is True  # both shard runs == single-pool, bit for bit
    assert result["memo_gain"] > 0 and result["parallel_gain"] > 0
    assert result["shard_efficiency"] == round(
        result["parallel_gain"] / result["effective_shards"], 3
    )
    assert "speedup" not in result  # split into the two gains above
    assert result["resume_speedup"] > 0
    assert "identical_resume" not in result  # drill skipped on request
