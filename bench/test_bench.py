"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They check the aggregation, the oracles, the seeded generator against
relfix's own chain construction, that tracing leaves relfix as it found
it, and that the traced counts are exact and repeat.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _sample(item, wall, setup=0.2, rss=40.0, problems=()):
    return {"item": item, "wall_s": wall, "setup_s": setup, "maxrss_mb": rss,
            "problems": list(problems)}


def test_wall_is_the_sum_of_per_item_medians():
    samples = [_sample("a", w) for w in (1.0, 5.0, 2.0)] + [_sample("b", w) for w in (10.0, 30.0)]
    assert run.wall_sum(samples) == 2.0 + 20.0


def test_end_to_end_aggregation():
    samples = [
        _sample("a", 1.0, setup=0.1, rss=50.0),
        _sample("a", 3.0, setup=0.3, rss=70.0, problems=["x"]),
        _sample("b", 2.0, setup=0.2, rss=60.0),
        _sample("b", 2.0, setup=0.4, rss=60.0),
    ]
    m = run.end_to_end(samples)
    assert m["wall_s"] == {"value": 4.0, "unit": "s"}
    assert m["setup_s"]["value"] == pytest.approx(0.25)
    assert m["peak_rss_mb"]["value"] == 70.0
    assert m["pass_frac"]["value"] == 0.75


def _relate_report(item):
    diag = [[[i, i] for i in range(n)] for n in item.sizes]
    result = {
        "agreement": True, "fixed_point_equation": True, "uniform": True,
        "uniform_witness": None, "depth": item.depth, "sizes": list(item.sizes),
        "kt_iterations": item.depth + 1, "banach_profile": list(range(item.depth + 1)),
        "glued": diag[-1], "family": diag,
    }
    return {"command": "relate", "result": result}


def test_oracle_rejects_one_off_diagonal_glued_pair():
    item = workloads.relate_item("t", workloads.sum_(workloads.ONE, workloads.D), 3)
    good = _relate_report(item)
    assert oracles.problems(item, 0, json.dumps(good).encode(), run.ROOT) == []
    bad = _relate_report(item)
    bad["result"]["glued"] = bad["result"]["glued"] + [[0, 1]]
    assert oracles.problems(item, 0, json.dumps(bad).encode(), run.ROOT) == [
        f"glued is not {good['result']['glued']!r}"
    ]


def test_oracle_checks_exit_code_and_suite_answers():
    item = workloads.Item(name="adjunction", kind="suite", suite="adjunction")
    ok = {"result": {"ok": True, "instances": oracles.ADJUNCTION_INSTANCES}}
    assert oracles.problems(item, 0, json.dumps(ok).encode(), run.ROOT) == []
    assert oracles.problems(item, 1, json.dumps(ok).encode(), run.ROOT)
    short = {"result": {"ok": True, "instances": 7}}
    assert oracles.problems(item, 0, json.dumps(short).encode(), run.ROOT)


def test_adjunction_count_is_derived_independently():
    assert oracles.adjunction_instance_count() == oracles.ADJUNCTION_INSTANCES


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
def test_generated_sizes_match_build_chain(seed):
    from relfix.chain import build_chain
    from relfix.dsl import parse_spec

    for e, depth in (workloads.draw_deep(seed), workloads.draw_wide(seed)):
        spec = parse_spec(workloads.spec_text(e, depth))
        chain = build_chain(spec.functor, spec.depth)
        assert [p.n for p in chain.levels] == workloads.level_sizes(e, depth)


def test_fun_row_sizes_match_build_chain():
    from relfix.chain import build_chain
    from relfix.dsl import parse_spec

    name, text, depth = workloads.FUN_ROW
    chain = build_chain(parse_spec(text).functor, depth)
    assert [p.n for p in chain.levels] == workloads.fun_row_sizes(depth) == [1, 2, 4, 11, 62]


def test_generator_is_deterministic_and_in_band():
    for seed in range(30):
        e, d = workloads.draw_deep(seed)
        assert (e, d) == workloads.draw_deep(seed)
        assert d >= 20 and workloads.DEEP_TOP[0] <= workloads.level_sizes(e, d)[-1] <= workloads.DEEP_TOP[1]
        e, d = workloads.draw_wide(seed)
        assert (e, d) == workloads.draw_wide(seed)
        assert workloads.WIDE_TOP[0] <= workloads.level_sizes(e, d)[-1] <= workloads.WIDE_TOP[1]


def test_tracer_restores_every_rebound_attribute(tmp_path):
    import relfix.cli

    def snapshot():
        return {
            name: dict(vars(mod))
            for name, mod in sys.modules.items()
            if mod is not None and (name == "relfix" or name.startswith("relfix."))
        }

    before = snapshot()
    spec = tmp_path / "s.spec"
    spec.write_text(workloads.spec_text(workloads.lift(workloads.D), 3))
    tracer = tracing.Tracer("t")
    tracer.install()
    assert tracer._rebound
    try:
        assert relfix.cli.main(["relate", "--spec", str(spec), "--report", str(tmp_path / "r")]) == 0
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    for name in before:
        changed = [k for k in before[name] if after[name].get(k) is not before[name][k]]
        assert changed == [], name
    assert tracer.agg["functor.eval_rel"][0] > 0


def _traced(item, times=1):
    """Layer metrics of `times` fresh traced executions of one item."""
    out = []
    for _ in range(times):
        run_dir = tempfile.mkdtemp(prefix=".bench_test_", dir=run.ROOT)
        try:
            runner = run.Runner(run_dir)
            runner.write_specs([item])
            sample = runner.execute(item, 0, trace=True)
            assert sample["problems"] == []
            out.append(tracing.layer_metrics(runner.dumps))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return out


def _counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def test_traced_counts_lazy_nat_d40():
    (m,) = _traced(workloads.relate_item("lazy_nat_d40", workloads.sum_(workloads.ONE, workloads.D), 40))
    assert m["functor.eval_rel_calls"]["value"] == 6640
    assert m["chain.glue_calls"]["value"] == 4


def test_traced_counts_streams_d8():
    streams = workloads.lift(workloads.prod(workloads.const(2), workloads.D))
    (m,) = _traced(workloads.relate_item("streams_d8", streams, 8))
    assert m["relations.inverse_image_calls"]["value"] == 44
    assert m["chain.glue_calls"]["value"] == 4


def test_traced_counts_adjunction():
    (m,) = _traced(workloads.Item(name="adjunction", kind="suite", suite="adjunction"))
    assert m["suites.adjunction_instances"]["value"] == 2_795_737


def test_traced_counts_repeat_exactly():
    a, b = _traced(workloads.Item(name="reflexive", kind="golden"), times=2)
    assert _counts(a) == _counts(b)
    assert a["functor.eval_rel_calls"]["value"] > 0
