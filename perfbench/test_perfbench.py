"""Tests of the benchmark's own code: span arithmetic and the oracles.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import troplog  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] has children a [1, 3], b [2, 5] (overlapping a) and
        # c [8, 12] (running past root's end); a has a child [1.5, 2].
        trace = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 3.0, 0],
            ["a.child", 1.5, 2.0, 1],
            ["b", 2.0, 5.0, 0],
            ["c", 8.0, 12.0, 0],
        ]
        own = spans.self_times(trace)
        # root is covered on [1, 5] and [8, 10]: 10 - 4 - 2.
        self.assertEqual(own, [4.0, 1.5, 0.5, 3.0, 4.0])

    def test_tracer_records_parents_and_counts(self):
        tracer = spans.Tracer()
        seen = []

        def inner(x):
            return x + 1

        inner_t = tracer.wrap("inner", inner, lambda t, args, result: seen.append((args, result)))

        def outer(x):
            return inner_t(x) * 2

        outer_t = tracer.wrap("outer", outer)
        self.assertEqual(outer_t(3), 8)
        names = [(s[0], s[3]) for s in tracer.spans]
        self.assertEqual(names, [("outer", -1), ("inner", 0)])
        self.assertEqual(seen, [((3,), 4)])
        own = spans.self_times(tracer.spans)
        outer_span, inner_span = tracer.spans
        self.assertAlmostEqual(own[0] + own[1], outer_span[2] - outer_span[1])

    def test_install_and_restore(self):
        original = troplog.tree.canonicalize
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            self.assertIsNot(troplog.moduli.canonicalize, original)
            troplog.build_moduli_complex(5)
        finally:
            tracer.restore()
        self.assertIs(troplog.moduli.canonicalize, original)
        self.assertIs(troplog.tree.canonicalize, original)
        metrics = spans.layer_metrics(tracer)
        self.assertEqual(metrics["tree.types_out"], checks.CONE_COUNTS[5])
        self.assertEqual(metrics["moduli.build_moduli_complex.calls"], 1)
        self.assertGreater(metrics["tree.canonicalize.calls"], 0)


def _sigma(n):
    return (1,) * (n - 1) + (-(n - 1),)


class ModuliOracleTest(unittest.TestCase):
    n = 5

    @classmethod
    def setUpClass(cls):
        cls.sigma = _sigma(cls.n)
        contact = troplog.ContactOrder.of(cls.sigma)
        cls.curve = troplog.build_moduli_complex(cls.n)
        cls.maps = troplog.build_map_moduli(cls.n, contact)
        cls.report = troplog.product_decomposition(cls.n, contact, 1)

    def test_accepts_correct_outputs(self):
        self.assertEqual(checks.check_curve_moduli(self.curve, self.n), [])
        rng = random.Random(0)
        self.assertEqual(checks.check_map_moduli(self.maps, self.n, self.sigma, rng), [])
        self.assertEqual(checks.check_product(self.report, self.n, self.sigma, self.maps.types), [])

    def test_rejects_missing_cone(self):
        cones = dict(self.curve.cones)
        cones.pop(next(iter(cones)))
        bad = dataclasses.replace(self.curve, cones=cones)
        self.assertNotEqual(checks.check_curve_moduli(bad, self.n), [])

    def test_rejects_missing_face_map(self):
        bad = dataclasses.replace(self.curve, face_maps=self.curve.face_maps[1:])
        self.assertNotEqual(checks.check_curve_moduli(bad, self.n), [])

    def test_rejects_wrong_edge_slope(self):
        functions = dict(self.maps.functions)
        for key, f in functions.items():
            if f.edge_slopes:
                slopes = (f.edge_slopes[0] + 1,) + f.edge_slopes[1:]
                functions[key] = dataclasses.replace(f, edge_slopes=slopes)
        bad = dataclasses.replace(self.maps, functions=functions)
        problems = checks.check_map_moduli(bad, self.n, self.sigma, random.Random(0))
        self.assertTrue(any("cut rule" in p for p in problems))

    def test_rejects_bad_certificate(self):
        for change in (
            {"certified": False},
            {"cones_checked": self.report.cones_checked - 1},
            {"cone_maps": {**self.report.cone_maps, next(iter(self.report.cone_maps)): "c + l_e0"}},
        ):
            bad = dataclasses.replace(self.report, **change)
            self.assertNotEqual(checks.check_product(bad, self.n, self.sigma, self.maps.types), [])

    def test_rejects_wrong_witness(self):
        splittings = dict(self.report.distinct_splittings)
        other, witness = next((k, w) for k, w in splittings.items() if w is not None)
        splittings[other] = {**witness, f"splitting_{other}": str(Fraction(witness[f"splitting_{other}"]) + 1)}
        bad = dataclasses.replace(self.report, distinct_splittings=splittings)
        self.assertNotEqual(checks.check_product(bad, self.n, self.sigma, self.maps.types), [])


class SubdivisionOracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        contact = troplog.ContactOrder.of((1, 1, 1, -3))
        cls.sub = troplog.subdivide_map_moduli(4, contact, troplog.Fan.projective_line())
        cls.stats = cls.sub.stats()

    def _with_cells(self, key, cells):
        return dataclasses.replace(self.sub, cells={**self.sub.cells, key: cells})

    def _subdivided_key(self):
        return next(k for k, cs in sorted(self.sub.cells.items()) if len(cs) > 1)

    def test_accepts_correct_outputs(self):
        self.assertEqual(checks.check_subdivision(self.sub, random.Random(1)), [])
        self.assertEqual(checks.check_stats(self.stats, self.sub), [])

    def test_rejects_witness_outside_its_cell(self):
        key = self._subdivided_key()
        first, second = self.sub.cells[key][:2]
        moved = dataclasses.replace(first, witness=second.witness)
        bad = self._with_cells(key, [moved] + self.sub.cells[key][1:])
        self.assertNotEqual(checks.check_subdivision(bad, random.Random(1)), [])

    def test_rejects_missing_cell(self):
        key = self._subdivided_key()
        bad = self._with_cells(key, self.sub.cells[key][1:])
        problems = checks.check_subdivision(bad, random.Random(1), samples=30)
        self.assertTrue(any("0 cells" in p for p in problems))

    def test_rejects_overlapping_cells(self):
        key = self._subdivided_key()
        bad = self._with_cells(key, self.sub.cells[key] + self.sub.cells[key][:1])
        problems = checks.check_subdivision(bad, random.Random(1), samples=30)
        self.assertTrue(any("2 cells" in p for p in problems))

    def test_rejects_broken_euler_identity(self):
        key = self._subdivided_key()
        entry = self.stats["per_cone"][key]
        fv = dict(entry["f_vector"])
        fv[0] = fv.get(0, 0) + 1
        per_cone = {**self.stats["per_cone"], key: {**entry, "f_vector": fv}}
        bad = {**self.stats, "per_cone": per_cone}
        self.assertTrue(any("Euler" in p for p in checks.check_stats(bad, self.sub)))

    def test_rejects_miscounted_cells(self):
        bad = {**self.stats, "total_max_cells": self.stats["total_max_cells"] + 1}
        self.assertNotEqual(checks.check_stats(bad, self.sub), [])

    def test_fan_report(self):
        plane = troplog.Fan.of([[(1, 0)], [(0, 1)], [(-1, -1)], [(1, 0), (0, 1)],
                                [(0, 1), (-1, -1)], [(-1, -1), (1, 0)], []], 2)
        self.assertEqual(checks.check_fan_report(troplog.validate_fan(plane)), [])
        half = troplog.Fan.of([[(1,)], []], 1)
        self.assertNotEqual(checks.check_fan_report(troplog.validate_fan(half)), [])


def _envelope(payload, status="ok"):
    return json.dumps({"payload": payload, "status": status, "timing_ms": 3}) + "\n"


class EnvelopeOracleTest(unittest.TestCase):
    def test_crashes_and_bad_envelopes_fail(self):
        expect = checks.expect_valid(True)
        ok = {"valid": True, "problems": []}
        self.assertEqual(checks.classify_envelope(0, _envelope(ok), expect)[0], "ok")
        self.assertEqual(checks.classify_envelope(1, "", expect)[0], "failed")
        self.assertEqual(checks.classify_envelope(0, _envelope(ok) * 2, expect)[0], "failed")
        self.assertEqual(checks.classify_envelope(0, "{}\n", expect)[0], "failed")

    def test_wrong_exit_code_or_status(self):
        ok = {"valid": True, "problems": []}
        self.assertEqual(checks.classify_envelope(1, _envelope(ok), checks.expect_valid(True))[0], "wrong")
        err = {"error": "ParseError", "message": "x"}
        self.assertEqual(checks.classify_envelope(2, _envelope(err, "ParseError"), ("ParseError",))[0], "ok")
        self.assertEqual(checks.classify_envelope(3, _envelope(err, "ParseError"), ("ParseError",))[0], "wrong")
        self.assertEqual(checks.classify_envelope(6, _envelope(err, "NoSuchLeg"), ("ParseError",))[0], "wrong")
        self.assertEqual(checks.classify_envelope(6, _envelope(err, "NoSuchLeg"), "error")[0], "ok")
        self.assertEqual(checks.classify_envelope(0, _envelope(ok), "error")[0], "wrong")

    def test_digest(self):
        payload = {"a": [1, 2], "b": "3/2"}
        expect = checks.expect_digest(checks.payload_digest(payload), lambda payload: [])
        self.assertEqual(checks.classify_envelope(0, _envelope(payload), expect)[0], "ok")
        changed = {"a": [1, 2], "b": "3/4"}
        self.assertEqual(checks.classify_envelope(0, _envelope(changed), expect)[0], "wrong")

    def test_payload_oracles_reject_corruption(self):
        vertices, edges, legs = ["a", "b"], [("a", "b")], [(1, "a"), (2, "a"), (3, "b")]
        sigma = [2, -1, -1]
        extension = {
            "edge_slopes": [{"from": "a", "to": "b", "slope": -1}],
            "leg_slopes": {"1": 2, "2": -1, "3": -1},
            "base_value": "0",
        }
        expect = checks.expect_extension(vertices, edges, legs, sigma)
        self.assertEqual(expect(extension), [])
        self.assertNotEqual(expect({**extension, "edge_slopes": [{"from": "a", "to": "b", "slope": 1}]}), [])

        expect = checks.expect_multidegree(vertices, edges, [-1], legs, sigma)
        good = {"degrees": {"a": 0, "b": 0}, "total": 0, "balanced": True}
        self.assertEqual(expect(good), [])
        self.assertNotEqual(expect({**good, "balanced": False}), [])

        expect = checks.expect_selfmap(2, Fraction(1, 2), (3, 4))
        good = {"degree": 6, "translation": "17/2", "kernel_order": 6}
        self.assertEqual(expect(good), [])
        self.assertNotEqual(expect({**good, "translation": "9"}), [])

        self.assertNotEqual(checks.expect_valid(False)({"valid": True, "problems": []}), [])
        self.assertNotEqual(checks.expect_cone_count(5)({"complex": {"cones": [{}] * 25}}), [])
        cert = {"complex": {"cones": [{}] * 26},
                "product_decomposition": {"certified": False, "cones_checked": 26}}
        self.assertNotEqual(checks.expect_certificate(5)(cert), [])

        cells = {"K": [{"witness": {"c": "-1", "l_e0": "2"}, "halfspaces": ["-c", "l_e0 - 1/2"]}]}
        self.assertEqual(checks.expect_cells({"cells": cells}), [])
        cells["K"][0]["witness"]["c"] = "1"
        self.assertNotEqual(checks.expect_cells({"cells": cells}), [])

    def test_parse_affine(self):
        self.assertEqual(checks.parse_affine("2*l_e0 - c + 3/2"),
                         (Fraction(3, 2), {"l_e0": Fraction(2), "c": Fraction(-1)}))
        self.assertEqual(checks.parse_affine("-1/2*c - 4"), (Fraction(-4), {"c": Fraction(-1, 2)}))


class ClosedFormTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual([checks.ray_count(n) for n in range(3, 8)], [0, 3, 10, 25, 56])
        self.assertEqual([checks.trivalent_count(n) for n in range(3, 8)], [1, 3, 15, 105, 945])

    def test_cut_rule_is_balanced(self):
        rng = random.Random(5)
        import inputs

        for _ in range(20):
            n = rng.randint(5, 40)
            vertices, edges, _lengths, legs = inputs.random_tree(rng, n)
            sigma = inputs.zero_sum(rng, n)
            slopes = checks.cut_rule_slopes(vertices, edges, legs, {i + 1: s for i, s in enumerate(sigma)})
            t = troplog.Tree.build(vertices, edges, legs)
            f = troplog.extend_from_leg_slopes(t, troplog.ContactOrder.of(sigma))
            self.assertEqual(list(f.edge_slopes), slopes)


class HostSpeedTest(unittest.TestCase):
    def test_factor_scales_to_reference_speed(self):
        ref = hostspeed.REFERENCE_S
        self.assertAlmostEqual(hostspeed.factor([ref, ref]), 1.0)
        # A host at half speed on average: its times are halved.
        self.assertAlmostEqual(hostspeed.factor([1.5 * ref, 2.5 * ref]), 0.5)

    def test_sampler_probes_and_leaves_probe_time_out(self):
        import gc
        import signal
        import time

        handler = signal.getsignal(signal.SIGALRM)
        sampler = hostspeed.Sampler()
        wall, clock = time.perf_counter(), sampler.clock()
        with sampler:
            while time.perf_counter() - wall < 10 * hostspeed.INTERVAL_S:
                sum(range(1000))
        wall, clock = time.perf_counter() - wall, sampler.clock() - clock
        self.assertGreaterEqual(len(sampler.samples), 5)
        self.assertAlmostEqual(wall - clock, sampler.spent, delta=1e-4)
        self.assertGreater(sampler.spent, sum(sampler.samples) * 0.99)
        self.assertTrue(gc.isenabled())
        self.assertEqual(signal.getsignal(signal.SIGALRM), handler)

if __name__ == "__main__":
    unittest.main()
