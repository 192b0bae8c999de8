"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 bench_e2e/selftest.py

Covers the percentile rule, open-loop lateness and backlog accounting,
the endless closed-loop request stream and the set-up schedule, self time
and cross-process span attachment, the answer checks, wrapper restoration
after a traced run (``is`` identity), and bit-identical plans between a
traced and an untraced run.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import (  # noqa: E402
    OpenLoopRecord,
    RequestSpec,
    SetupSchedule,
    answer,
    build_query,
    check_answer,
    interquartile_mean,
    p50,
    pool_to_dicts,
    seeded_permutation,
    tail,
)
from tracing import (  # noqa: E402
    CLIENT_TARGETS,
    SERVER_TARGETS,
    Installation,
    RequestSpan,
    SpanForest,
    Tracer,
    _resolve,
    load_spans,
)
from repro.bench.traffic import settings_for  # noqa: E402
from repro.query.generator import SteinbrunnGenerator  # noqa: E402
from repro.query.query import JoinGraphKind  # noqa: E402
from repro.service import OptimizerService  # noqa: E402

OUT = HERE.parent / ".bench_e2e_out" / "selftest"


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        from common import END_TO_END
        from layers import PER_LAYER

        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]], END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]], PER_LAYER
        )
        self.assertEqual(
            [w["name"] for w in declared["workloads"]],
            ["mpq-cold", "serve-hot", "net-churn"],
        )


class RequestStreams(unittest.TestCase):
    def mix(self, seed):
        from serve_hot import TrafficMix

        config = json.loads((HERE / "config.json").read_text())["net-churn"]
        return TrafficMix(config, seed, 40)

    def test_closed_stream_outlasts_the_schedule_and_is_seeded(self):
        mix = self.mix(5)
        drawn = list(itertools.islice(mix.closed_specs(), 200))
        self.assertEqual(len({spec.rid for spec in drawn}), 200)
        self.assertEqual(len(mix.open_specs), 40)
        self.assertTrue(any(mix.is_new(spec.pool) for spec in drawn))
        self.assertTrue(all(spec.pool in mix.pool_dicts for spec in drawn))
        again = self.mix(5)
        self.assertEqual(again.open_specs, mix.open_specs)
        self.assertEqual(list(itertools.islice(again.closed_specs(), 200)), drawn)

    def test_set_ups_spread_over_the_segments(self):
        schedule = SetupSchedule({"setup_repeats": 6}, None)
        due = [segment for segment in range(1, 11) if schedule.due(segment / 10)]
        self.assertEqual(due, [2, 4, 6, 8, 10])
        traced = SetupSchedule({"setup_repeats": 6}, object())
        self.assertFalse(any(traced.due(segment / 10) for segment in range(1, 11)))


class PercentileRule(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(tail(values), (90, 90.0, 100))
        self.assertEqual(tail(list(reversed(values)))[0], 90)

    def test_tail_of_eleven_samples_is_the_minimum(self):
        self.assertEqual(tail([5.0] + [9.0] * 10), (5.0, 100 / 11, 11))

    def test_tail_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            tail([1.0] * 10)

    def test_interquartile_mean_drops_a_quarter_at_each_end(self):
        self.assertEqual(interquartile_mean([100, 1, 2, 3, 4, 5, 6, 7, 8, -50]), 4.5)
        self.assertEqual(interquartile_mean([9, 1, 3, 5]), 4)
        self.assertEqual(interquartile_mean([7.5]), 7.5)

    def test_p50_is_nearest_rank(self):
        self.assertEqual(p50([3, 1, 2, 4]), 2)
        self.assertEqual(p50([7]), 7)


class OpenLoopAccounting(unittest.TestCase):
    def record(self) -> OpenLoopRecord:
        record = OpenLoopRecord()
        for due, sent, done in ((0.0, 0.0, 0.001), (0.1, 0.15, 0.2), (0.2, 0.2, None)):
            index = record.add(due)
            record.sent[index] = sent
            record.done[index] = done
        return record

    def test_latency_runs_from_due_time(self):
        record = self.record()
        self.assertEqual(
            [round(record.latency_ms(index), 6) for index in (0, 1)], [1.0, 100.0]
        )

    def test_lateness_is_send_minus_due(self):
        self.assertEqual(
            [round(value, 6) for value in self.record().lateness_ms()], [0.0, 50.0, 0.0]
        )

    def test_backlog_counts_unfinished_requests_due_by_a_time(self):
        record = self.record()
        self.assertEqual(record.backlog(due_by=0.05, at=0.05), 0)
        self.assertEqual(record.backlog(due_by=0.1, at=0.15), 1)
        self.assertEqual(record.backlog(due_by=0.1, at=0.3), 0)
        self.assertEqual(record.backlog(due_by=0.3, at=0.3), 1)


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [
            ("1:0", None, "T1", "request", 0, 100, None),
            ("1:1", "1:0", "T1", "a", 10, 40, None),
            ("1:2", "1:0", "T1", "b", 30, 60, None),
            ("1:3", "1:1", "T1", "c", 15, 20, None),
        ]
        forest = SpanForest(spans)
        self.assertEqual(forest.self_ns("1:0"), 50)
        self.assertEqual(forest.self_ns("1:1"), 25)
        self.assertEqual(forest.per_request_sum_ns("a", "b"), [60])

    def test_other_process_spans_attach_to_innermost_container(self):
        spans = [
            ("1:0", None, "T1", "request", 0, 100, None),
            ("1:1", "1:0", "T1", "net.recv", 10, 90, None),
            ("2:0", None, "T1", "server.handle", 20, 80, None),
            ("2:1", None, "T2", "server.handle", 20, 80, None),
        ]
        forest = SpanForest(spans)
        self.assertEqual(forest.children["1:1"], ["2:0"])
        self.assertEqual(forest.self_ns("1:1"), 20)


class AnswerChecks(unittest.TestCase):
    def setUp(self):
        generator = SteinbrunnGenerator(7, clustered_tables=True)
        self.query = generator.query(6, JoinGraphKind.CYCLE)
        self.pool = pool_to_dicts([self.query])

    def reference(self, feature):
        return OptimizerService(n_workers=1).optimize(self.query, settings_for(feature)).plans

    def test_relabeled_answer_from_partitioned_run_passes(self):
        perm = seeded_permutation(random.Random(3), 6)
        spec = RequestSpec("T1", 0, "orders", 4, perm=perm)
        served = OptimizerService(n_workers=4).optimize(
            build_query(self.pool, spec), settings_for("orders")
        )
        self.assertIsNone(check_answer(answer(served), self.reference("orders"), spec))

    def test_wrong_cost_and_wrong_theta_are_caught(self):
        spec = RequestSpec("T1", 0, "plain", 1)
        costs, best, signatures = answer(
            OptimizerService(n_workers=1).optimize(self.query, settings_for("plain"))
        )
        wrong = ((costs[0][0] * 1.01,),), (best[0] * 1.01,), signatures
        self.assertIsNotNone(check_answer(wrong, self.reference("plain"), spec))
        broken = costs, best, ((0, 0, "full-scan"),)
        self.assertIsNotNone(check_answer(broken, self.reference("plain"), spec))
        theta_spec = RequestSpec("T2", 0, "parametric", 1, theta=0.5)
        reference = self.reference("parametric")
        served = OptimizerService(n_workers=1).optimize(
            self.query, settings_for("parametric").replace(theta=0.5)
        )
        self.assertIsNone(check_answer(answer(served), reference, theta_spec))
        off = ((served.plans[0].cost[0] * 2, served.plans[0].cost[1] * 2),)
        self.assertIsNotNone(
            check_answer((off, off[0], answer(served)[2]), reference, theta_spec)
        )


class TracedRun(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(OUT, ignore_errors=True)
        generator = SteinbrunnGenerator(11, clustered_tables=True)
        self.pool = pool_to_dicts(
            [generator.query(7, kind) for kind in JoinGraphKind]
        )

    def serve(self, tracer):
        service = OptimizerService(n_workers=4)
        answers = []
        for index in range(len(self.pool)):
            for feature in ("plain", "orders", "parametric"):
                spec = RequestSpec(f"T{index}{feature}", index, feature, 4)
                with RequestSpan(tracer, spec.rid):
                    result = service.optimize(
                        build_query(self.pool, spec), settings_for(feature)
                    )
                answers.append(answer(result))
        return answers

    def test_wrappers_restored_and_plans_identical(self):
        targets = list({target[:2]: target for target in SERVER_TARGETS + CLIENT_TARGETS}.values())
        originals = [_resolve(target[0], target[1])[2] for target in targets]
        untraced = self.serve(None)
        tracer = Tracer(str(OUT))
        installation = Installation(tracer, targets)
        try:
            wrapped = [_resolve(target[0], target[1])[2] for target in targets]
            self.assertTrue(all(now is not was for now, was in zip(wrapped, originals)))
            traced = self.serve(tracer)
        finally:
            installation.remove()
        tracer.dump()
        for target, original in zip(targets, originals):
            self.assertIs(_resolve(target[0], target[1])[2], original, target[:2])
        self.assertEqual(installation.restored(), [])
        self.assertEqual(traced, untraced)
        forest = SpanForest(load_spans(str(OUT)))
        roots = forest.named("request")
        self.assertEqual(len(roots), len(untraced))
        self.assertTrue(forest.named("dp.partition"))
        self.assertTrue(all(span[2] is not None for span in forest.named("dp.partition")))


if __name__ == "__main__":
    unittest.main()
