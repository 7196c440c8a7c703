"""Workload inputs, each built from the seed, and the check for each output.

A library operation is one top-level call on one input. A CLI operation is
one `python -m troplog.cli` invocation. The library inputs are the ones
NOTES.md names; relabelling their legs changes the Fourier-Motzkin
elimination order and so the cost by up to a third, so the seed instead
drives the oracle's sample points. In the CLI mix the seed draws the
trees, slopes and self-maps and the order of the operations.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks

WORKLOADS = ("moduli", "subdivide-line", "subdivide-plane", "cli")

P1_FAN = {"dim": 1, "cones": [{"gens": [[1]]}, {"gens": [[-1]]}, {"gens": []}]}
HALF_FAN = {"dim": 1, "cones": [{"gens": [[1]]}, {"gens": []}]}
PLANE_RAYS = [(1, 0), (0, 1), (-1, -1)]
PLANE_FAN = {
    "dim": 2,
    "cones": [{"gens": [list(r)]} for r in PLANE_RAYS]
    + [{"gens": [list(a), list(b)]} for a, b in zip(PLANE_RAYS, PLANE_RAYS[1:] + PLANE_RAYS[:1])]
    + [{"gens": []}],
}


@dataclass
class Op:
    """One library call. ``run`` and ``check`` get the kept outputs of the
    earlier operations of the pass by name; ``check`` returns the problems
    of the output."""

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], list[str]]
    keep: bool = False  # a later operation or check reads this output


@dataclass
class CliOp:
    """One CLI invocation and what its envelope must hold."""

    name: str
    argv: list[str]
    expect: Any  # see checks.classify_envelope


def sigma_n(n: int) -> tuple[int, ...]:
    return (1,) * (n - 1) + (-(n - 1),)


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


def library_ops(workload: str, seed: int) -> list[Op]:
    import troplog

    rng = random.Random(seed)
    if workload == "moduli":
        return _moduli_ops(troplog, rng)
    if workload == "subdivide-line":
        return _line_ops(troplog, rng)
    if workload == "subdivide-plane":
        return _plane_ops(troplog, rng)
    raise ValueError(f"unknown library workload {workload!r}")


def _moduli_ops(troplog, rng) -> list[Op]:
    ops = []
    for n in range(3, 8):
        sigma = sigma_n(n)
        contact = troplog.ContactOrder.of(sigma)
        sample = random.Random(rng.random())
        ops += [
            Op(
                f"build_moduli_complex n={n}",
                lambda done, n=n: troplog.build_moduli_complex(n),
                lambda cx, done, n=n: checks.check_curve_moduli(cx, n),
            ),
            Op(
                f"build_map_moduli n={n}",
                lambda done, n=n, c=contact: troplog.build_map_moduli(n, c),
                lambda cx, done, n=n, s=sigma, r=sample: checks.check_map_moduli(cx, n, s, r),
                keep=True,
            ),
            Op(
                f"product_decomposition n={n}",
                lambda done, n=n, c=contact: troplog.product_decomposition(n, c, 1),
                lambda rep, done, n=n, s=sigma: checks.check_product(
                    rep, n, s, done[f"build_map_moduli n={n}"].types
                ),
            ),
        ]
    return ops


def _line_ops(troplog, rng) -> list[Op]:
    fan = troplog.Fan.projective_line()
    ops = []
    for sigma in [(1, 1, 1, 1, -4), (2, -1, 1, -3, 1)]:
        contact = troplog.ContactOrder.of(sigma)
        sample = random.Random(rng.random())
        name = f"subdivide_map_moduli n=5 sigma={sigma}"
        ops += [
            Op(
                name,
                lambda done, c=contact: troplog.subdivide_map_moduli(5, c, fan),
                lambda sub, done, r=sample: checks.check_subdivision(sub, r),
                keep=True,
            ),
            Op(
                f"stats sigma={sigma}",
                lambda done, name=name: done[name].stats(),
                lambda stats, done, name=name: checks.check_stats(stats, done[name]),
            ),
        ]
    return ops


def _plane_ops(troplog, rng) -> list[Op]:
    fan = troplog.Fan.of([c["gens"] for c in PLANE_FAN["cones"]], 2)
    sigmas = [troplog.ContactOrder.of(s) for s in [(1, 1, 1, 1, -4), (1, -4, 1, 1, 1)]]
    sample = random.Random(rng.random())
    return [
        Op(
            "validate_fan plane",
            lambda done: troplog.validate_fan(fan),
            lambda report, done: checks.check_fan_report(report),
        ),
        Op(
            "subdivide_map_moduli n=5 plane",
            lambda done: troplog.subdivide_map_moduli(5, sigmas, fan),
            lambda sub, done: checks.check_subdivision(sub, sample),
        ),
    ]


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

# Operations per pass. Heavy commands are kept under a tenth of the mix so
# that op_p90_ms falls among the per-curve commands, whose cost grows
# smoothly with the tree size, and not on the step to a heavy command.
PER_CURVE = 12
SELFMAPS = 4


def random_tree(rng, n: int):
    """A stable tree with legs 1..n: vertices, edges, edge lengths, legs.

    Legs are added one at a time, either on a fresh vertex that splits an
    edge or a leg, or (one time in five) on an existing vertex, which
    makes vertices of higher valence.
    """
    vertices, edges, legs = ["v0"], [], [(1, "v0"), (2, "v0"), (3, "v0")]
    for label in range(4, n + 1):
        roll = rng.random()
        if roll < 0.2:
            legs.append((label, rng.choice(vertices)))
            continue
        new = f"v{len(vertices)}"
        vertices.append(new)
        if edges and roll < 0.6:
            j = rng.randrange(len(edges))
            a, b = edges[j]
            edges[j:j + 1] = [(a, new), (new, b)]
        else:
            j = rng.randrange(len(legs))
            lbl, at = legs[j]
            legs[j] = (lbl, new)
            edges.append((at, new))
        legs.append((label, new))
    lengths = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in edges]
    return vertices, edges, lengths, sorted(legs)


def tree_doc(vertices, edges, lengths, legs) -> dict:
    return {
        "vertices": vertices,
        "edges": [{"ends": list(e), "length": str(x)} for e, x in zip(edges, lengths)],
        "legs": [{"label": lbl, "at": at} for lbl, at in legs],
    }


def tree_sizes(rng) -> list[int]:
    """One leg count from each of PER_CURVE equal slices of 5..200, shuffled.

    Stratified so that every seed has trees of every size: the largest
    trees set op_p90_ms, and uniform draws would let it follow the seed.
    """
    bounds = [5 + 196 * k // PER_CURVE for k in range(PER_CURVE + 1)]
    sizes = [rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(sizes)
    return sizes


def zero_sum(rng, n: int) -> list[int]:
    sigma = [rng.randint(-3, 3) for _ in range(n - 1)]
    return sigma + [-sum(sigma)]


def _write(workdir: str, name: str, doc) -> str:
    """Write an input file; return its name, which the CLI resolves
    relative to ``workdir`` (so no error message holds the checkout path)."""
    with open(os.path.join(workdir, name), "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return name


def fixed_cli_ops(workdir: str, digests: dict) -> list[CliOp]:
    """Commands on fixed inputs, checked against recorded payload digests."""
    p1 = _write(workdir, "p1.fan", P1_FAN)
    half = _write(workdir, "half.fan", HALF_FAN)

    ops = [
        ("moduli n=6 certify", ["moduli", "--n", "6", "--sigma", "1,1,1,1,1,-5",
                                "--certify-product", "1"], checks.expect_certificate(6)),
        ("moduli n=7", ["moduli", "--n", "7"], checks.expect_cone_count(7)),
        ("subdivide n=4 p1", ["subdivide", "--n", "4", "--sigma", "1,1,1,-3", "--fan", p1],
         checks.expect_cells),
        ("validate-fan p1", ["validate-fan", p1], checks.expect_valid(True)),
        ("validate-fan half", ["validate-fan", half], checks.expect_valid(False)),
    ]
    return [
        CliOp(name, argv, checks.expect_digest(digests.get(name, "not recorded"), extra))
        for name, argv, extra in ops
    ]


def cli_ops(seed: int, workdir: str, digests: dict) -> list[CliOp]:
    rng = random.Random(seed)
    ops = fixed_cli_ops(workdir, digests)
    plane = _write(workdir, "plane.fan", PLANE_FAN)
    half = "half.fan"

    sizes = {cmd: tree_sizes(rng) for cmd in ("validate", "extend", "multidegree")}
    for k in range(PER_CURVE):
        n = sizes["validate"][k]
        vertices, edges, lengths, legs = random_tree(rng, n)
        doc = tree_doc(vertices, edges, lengths, legs)
        valid = rng.random() < 0.75
        if not valid and edges:
            doc["edges"][rng.randrange(len(edges))]["length"] = "0"
        elif not valid:
            doc["legs"][0]["label"] = n + 1
        ops.append(CliOp(f"validate #{k}", ["validate", _write(workdir, f"validate{k}.json", doc)],
                         checks.expect_valid(valid)))

        n = sizes["extend"][k]
        vertices, edges, lengths, legs = random_tree(rng, n)
        sigma = zero_sum(rng, n)
        path = _write(workdir, f"extend{k}.json", tree_doc(vertices, edges, lengths, legs))
        ops.append(CliOp(f"extend #{k}", ["extend", path, f"--sigma={','.join(map(str, sigma))}"],
                         checks.expect_extension(vertices, edges, legs, sigma)))

        n = sizes["multidegree"][k]
        vertices, edges, lengths, legs = random_tree(rng, n)
        sigma = zero_sum(rng, n)
        slopes = checks.cut_rule_slopes(vertices, edges, legs, {i + 1: s for i, s in enumerate(sigma)})
        if edges and rng.random() < 0.5:
            slopes[rng.randrange(len(edges))] += rng.choice([-1, 1])
        doc = tree_doc(vertices, edges, lengths, legs)
        doc.update(
            basepoint=legs[0][1],
            base_value="0",
            edge_slopes=[{"from": a, "to": b, "slope": s} for (a, b), s in zip(edges, slopes)],
            leg_slopes={str(i + 1): s for i, s in enumerate(sigma)},
        )
        path = _write(workdir, f"plf{k}.json", doc)
        ops.append(CliOp(f"multidegree #{k}", ["multidegree", path],
                         checks.expect_multidegree(vertices, edges, slopes, legs, sigma)))

    for k in range(SELFMAPS):
        # r = 0 is left out: whether its kernel order should be 0 is an
        # open question of the CLI, so no oracle can judge it yet.
        r = rng.choice([-1, 1]) * rng.randint(1, 5)
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        argv = ["selfmap", "--r", str(r), f"--a={a}"]
        compose = None
        if rng.random() < 0.5:
            compose = (rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(0, 9))
            argv += ["--compose", str(compose[0]), str(compose[1])]
        ops.append(CliOp(f"selfmap #{k}", argv, checks.expect_selfmap(r, a, compose)))

    # Malformed inputs: each must give an error envelope with its code.
    vertices, edges, lengths, legs = random_tree(rng, rng.randint(5, 20))
    tree = _write(workdir, "small.json", tree_doc(vertices, edges, lengths, legs))
    n = len(legs)
    ops += [
        CliOp("malformed json", ["validate", _write(workdir, "junk.json", "{not json")],
              ("ParseError",)),
        CliOp("malformed nonzero sum", ["extend", tree, "--sigma", ",".join(["1"] * n)],
              ("NonZeroSum",)),
        CliOp("malformed slope count", ["extend", tree, "--sigma", ",".join(["0"] * (n - 1))],
              ("LengthMismatch",)),
        CliOp("malformed unstable n", ["moduli", "--n", str(rng.randint(1, 2))],
              ("UnstableRange",)),
        CliOp("malformed incomplete fan",
              ["subdivide", "--n", "3", "--sigma", "1,1,-2", "--fan", half], ("IncompleteFan",)),
    ]

    # Inputs that crash the CLI with a traceback. They stay in the mix and
    # count as failures until the CLI answers them with an envelope.
    bad_edge = tree_doc(vertices, edges, lengths, legs)
    bad_edge["edges"].append({"ends": [vertices[0], "nowhere"], "length": "1"})
    bad_label = tree_doc(vertices, edges, lengths, legs)
    bad_label["legs"][rng.randrange(n)]["label"] = "x"
    ops += [
        CliOp("crash two-target subdivide",
              ["subdivide", "--n", "3", "--sigma", "1,1,-2;1,-2,1", "--fan", plane],
              checks.expect_cells),
        CliOp("crash edge to unknown vertex",
              ["extend", _write(workdir, "bad_edge.json", bad_edge), "--sigma", ",".join(["0"] * n)],
              "error"),
        CliOp("crash leg label x", ["validate", _write(workdir, "bad_label.json", bad_label)],
              "error"),
    ]
    rng.shuffle(ops)
    return ops
