"""Self-tests of the benchmark, on scaled-down copies of its workloads.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from dataclasses import replace

import pytest

from repro.blast.engine import BlastEngine
from repro.core.orion import OrionSearch

from perfbench.endtoend import run_search
from perfbench.harness import OutputCheck, alignment_key
from perfbench.layers import KERNEL_HOOKS, MAIN_HOOKS, run_traced
from perfbench.tracer import Hook, Tracer, instrument
from perfbench.workloads import WORKLOADS

COUNTS = [
    "blast.index_builds",
    "blast.seeds",
    "core.map_tasks",
    "core.merged_pairs",
    "sketch.prune_frac",
]


def small(name: str):
    return WORKLOADS[name].scaled(0.1)


def _counts(workload, seed, tmp_path):
    report = run_traced(workload, workload.inputs(seed), 0.1, tmp_path)
    assert report.correct, report.notes
    return {name: report.metrics[name]["value"] for name in COUNTS}


@pytest.mark.parametrize("name", ["service_burst", "megablast_dense"])
def test_counts_repeat_for_a_seed_and_change_with_another(name, tmp_path):
    workload = small(name)
    first = _counts(workload, 1, tmp_path)
    assert _counts(workload, 1, tmp_path) == first
    assert _counts(workload, 2, tmp_path) != first
    if workload.prune_threshold is not None:
        assert first["sketch.prune_frac"] > 0


def _keys(alignments):
    return [alignment_key(a) for a in alignments]


def test_traced_outputs_are_identical_to_untraced():
    workload = small("megablast_dense")
    inputs = workload.inputs(3)
    query = inputs.query(0)
    engine = BlastEngine(workload.params())
    serial = OrionSearch(inputs.database, **workload.serial_kwargs())
    with OrionSearch(inputs.database, **workload.search_kwargs()) as production:
        untraced = [serial.run(query).alignments, production.run(query).alignments,
                    engine.search(query, inputs.database, strands="both").alignments]
        tracer = Tracer()
        hooks = KERNEL_HOOKS + [h for h in MAIN_HOOKS if h not in KERNEL_HOOKS]
        with instrument(tracer, hooks):
            traced = [serial.run(query).alignments, production.run(query).alignments,
                      engine.search(query, inputs.database, strands="both").alignments]
    assert tracer.named("blast.gapped") and tracer.named("mapreduce.job")
    for before, after in zip(untraced, traced):
        assert _keys(after) == _keys(before)


def test_program_receives_only_the_generated_inputs():
    """The seed reaches the program only through the generated records:
    the configuration is the same for every seed, and every query the
    program sees is one the workload generated."""
    workload = replace(small("megablast_dense"), min_queries=2)
    seen = {}
    for seed in (1, 2):
        inputs = workload.inputs(seed)
        calls = {"init": [], "run": []}

        def record(kind):
            def annotate(span, args, kwargs, out):
                calls[kind].append((args[1:], kwargs))

            return annotate

        hooks = [
            Hook(OrionSearch, "__init__", "init", annotate=record("init")),
            Hook(OrionSearch, "run", "run", annotate=record("run")),
        ]
        with instrument(Tracer(), hooks):
            report = run_search(workload, inputs, 0.0)
        assert report.correct, report.notes
        configs = {repr(sorted(kw.items())) for args, kw in calls["init"]}
        assert len(configs) == 1
        assert all(args == (inputs.database,) for args, _ in calls["init"])
        expected = [inputs.warmup_query()] * workload.setups + [inputs.query(i) for i in range(2)]
        assert [args[0] for args, _ in calls["run"]] == expected
        seen[seed] = configs.pop()
    assert seen[1] == seen[2]


def test_output_check_fails_on_a_changed_alignment():
    workload = small("megablast_dense")
    inputs = workload.inputs(4)
    query = inputs.query(0)
    reference = BlastEngine(workload.params()).search(
        query, inputs.database, strands=workload.strands
    ).alignments
    assert reference
    check = OutputCheck(exact=True)
    check.add(query.seq_id, reference, reference)
    assert check.correct and check.recall == 1.0
    changed = [replace(reference[0], score=reference[0].score - 1)] + reference[1:]
    check.add(query.seq_id, changed, reference)
    assert not check.correct
    assert check.recall < 1.0


def test_tracer_self_time_and_parents():
    tracer = Tracer()
    with tracer.span("outer", query="q") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.span_id and inner.query == "q"
    assert tracer.self_time(outer) == pytest.approx(outer.duration - inner.duration)


def test_benchmark_json_names_the_reported_metrics():
    import json
    from pathlib import Path

    from perfbench.endtoend import END_TO_END
    from perfbench.layers import PER_LAYER, UNITS

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, UNITS[name]) for name in PER_LAYER
    ]


def test_coroutine_spans_do_not_nest_into_each_other():
    import asyncio

    tracer = Tracer()

    async def call(delay):
        with tracer.span("submit", query=str(delay), nest=False):
            await asyncio.sleep(delay)

    async def main():
        await asyncio.gather(call(0.02), call(0.01))
        with tracer.span("after") as after:
            pass
        return after

    after = asyncio.run(main())
    assert [s.parent for s in tracer.named("submit")] == [None, None]
    assert after.parent is None
