"""Output oracles for the benchmark.

Every check here recomputes what it needs from closed forms, from the
standard library, or from the plain data of the output (trees, slopes,
halfspaces). None of them calls troplog, so a bug in the code under test
cannot hide itself by also breaking its oracle. Each check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# OEIS A000311(n - 1): number of stable genus-0 tree types with n legs.
CONE_COUNTS = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208}

# Exit codes the README documents for each envelope status.
DOCUMENTED_EXIT = {
    "ok": 0,
    "ParseError": 2,
    "NonZeroSum": 3,
    "UnstableRange": 4,
    "IncompleteFan": 5,
    "UnsupportedDimension": 5,
    "NoSuchEdge": 6,
    "NoSuchLeg": 6,
    "LengthMismatch": 6,
}


def ray_count(n: int) -> int:
    """Rays of the moduli of n-pointed rational tropical curves."""
    return 2 ** (n - 1) - n - 1


def trivalent_count(n: int) -> int:
    """(2n - 5)!!, the number of trivalent tree types."""
    out = 1
    for k in range(2 * n - 5, 0, -2):
        out *= k
    return out


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Trees and balanced functions, from plain data
# ---------------------------------------------------------------------------


def _rooted(vertices, edges, root):
    """BFS order, parent map and parent edge index of a tree."""
    adj = {v: [] for v in vertices}
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    order, parent = [root], {root: (None, None)}
    for v in order:
        for w, i in adj[v]:
            if w not in parent:
                parent[w] = (v, i)
                order.append(w)
    return order, parent


def cut_rule_slopes(vertices, edges, legs, sigma):
    """Slope of the balanced function on each edge (a, b), read from a to b.

    ``legs`` is a list of (label, vertex) and ``sigma`` maps a label to its
    outgoing slope. The slope toward b is the sum of the leg slopes on b's
    side of the edge.
    """
    order, parent = _rooted(vertices, edges, vertices[0])
    beyond = {v: 0 for v in vertices}
    for label, at in legs:
        beyond[at] += sigma[label]
    for v in reversed(order[1:]):
        beyond[parent[v][0]] += beyond[v]
    slopes = []
    for a, b in edges:
        slopes.append(beyond[b] if parent[b][0] == a else -beyond[a])
    return slopes


def vertex_values(vertices, edges, lengths, legs, sigma, base):
    """Values of the balanced function that is 0 at vertex ``base``."""
    slopes = cut_rule_slopes(vertices, edges, legs, sigma)
    order, parent = _rooted(vertices, edges, base)
    values = {base: Fraction(0)}
    for v in order[1:]:
        p, i = parent[v]
        step = slopes[i] if edges[i] == (p, v) else -slopes[i]
        values[v] = values[p] + lengths[i] * step
    return values


def _tree_data(tree):
    """(vertices, edges, legs) of a troplog Tree, as plain tuples."""
    return (
        list(tree.vertices),
        [tuple(e.ends) for e in tree.edges],
        [(l.label, l.at) for l in tree.legs],
    )


# ---------------------------------------------------------------------------
# Moduli
# ---------------------------------------------------------------------------


def check_curve_moduli(cx, n: int) -> list[str]:
    problems = []
    dims = [c.dim for c in cx.cones.values()]
    if len(dims) != CONE_COUNTS[n]:
        problems.append(f"n={n}: {len(dims)} cones, expected {CONE_COUNTS[n]}")
    rays = sum(1 for d in dims if d == 1)
    if rays != ray_count(n):
        problems.append(f"n={n}: {rays} rays, expected {ray_count(n)}")
    top = sum(1 for d in dims if d == n - 3)
    if top != trivalent_count(n):
        problems.append(f"n={n}: {top} trivalent cones, expected {trivalent_count(n)}")
    # Every cone is simplicial, so a cone of dimension k has exactly k facets.
    if len(cx.face_maps) != sum(dims):
        problems.append(f"n={n}: {len(cx.face_maps)} face maps, expected {sum(dims)}")
    return problems


def check_map_moduli(cx, n: int, sigma: tuple, rng, samples: int = 40) -> list[str]:
    problems = []
    if len(cx.cones) != CONE_COUNTS[n]:
        problems.append(f"n={n}: {len(cx.cones)} map cones, expected {CONE_COUNTS[n]}")
    slope_of = {i + 1: s for i, s in enumerate(sigma)}
    for key in sorted(cx.cones):
        coords = cx.cones[key].coords
        free = [c.name for c in coords if c.sign == "free"]
        if free != ["c"] or len(coords) != len(cx.types[key].tree.edges) + 1:
            problems.append(f"n={n} cone {key}: coordinates are not lengths plus one free line")
    keys = sorted(cx.cones)
    for key in rng.sample(keys, min(samples, len(keys))):
        vertices, edges, legs = _tree_data(cx.types[key].tree)
        f = cx.functions[key]
        if list(f.edge_slopes) != cut_rule_slopes(vertices, edges, legs, slope_of):
            problems.append(f"n={n} cone {key}: edge slopes break the cut rule")
        if tuple(f.leg_slopes) != tuple(sigma):
            problems.append(f"n={n} cone {key}: leg slopes {f.leg_slopes} != {sigma}")
    return problems


def check_product(report, n: int, sigma: tuple, types, leg: int = 1) -> list[str]:
    """``types`` maps cone keys to tree types, as in ``ConeComplex.types``."""
    problems = []
    if not report.certified or report.failures:
        problems.append(f"n={n}: certificate not certified: {report.failures[:3]}")
    if report.cones_checked != CONE_COUNTS[n]:
        problems.append(f"n={n}: cones_checked {report.cones_checked}, expected {CONE_COUNTS[n]}")
    # Leg 1 carries the basepoint of every cone, so its splitting is c itself.
    if leg == 1 and any(v != "c" for v in report.cone_maps.values()):
        problems.append(f"n={n}: a splitting at leg 1 is not the translation coordinate")
    slope_of = {i + 1: s for i, s in enumerate(sigma)}
    for other, witness in report.distinct_splittings.items():
        if witness is None:
            # With n = 3 every leg sits on the single vertex.
            if n > 3:
                problems.append(f"n={n}: no witness separating legs {leg} and {other}")
            continue
        if witness["cone"] not in types:
            problems.append(f"n={n}: witness names unknown cone {witness['cone']}")
            continue
        vertices, edges, legs = _tree_data(types[witness["cone"]].tree)
        at = dict(legs)
        values = vertex_values(
            vertices, edges, [Fraction(1)] * len(edges), legs, slope_of, at[leg]
        )
        vi, vj = values[at[leg]], values[at[other]]
        if (
            Fraction(witness[f"splitting_{leg}"]) != vi
            or Fraction(witness[f"splitting_{other}"]) != vj
            or vi == vj
        ):
            problems.append(f"n={n}: witness for legs {leg},{other} does not separate them")
    return problems


# ---------------------------------------------------------------------------
# Subdivisions
# ---------------------------------------------------------------------------


def evaluate(expr, point) -> Fraction:
    """Value of an AffineExpr at a point, from its constant and terms."""
    return expr.const + sum(c * point[s] for s, c in expr.terms)


def _sample_point(coords, rng):
    point = {}
    for c in coords:
        value = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3))
        point[c.name] = value if c.sign == "nonneg" or rng.random() < 0.5 else -value
    return point


def check_subdivision(sub, rng, samples: int = 6) -> list[str]:
    """Witnesses lie strictly inside their cells, and generic points of
    each cone lie strictly inside exactly one cell."""
    problems = []
    for key, cells in sorted(sub.cells.items()):
        cone = sub.complex.cones[key]
        if not cells:
            problems.append(f"cone {key}: no cells")
            continue
        for cell in cells:
            point = dict(cell.witness)
            if any(evaluate(h, point) <= 0 for h in cell.halfspaces) or any(
                point[c.name] <= 0 for c in cone.coords if c.sign == "nonneg"
            ):
                problems.append(f"cone {key}: witness {point} not strictly inside its cell")
        for _ in range(samples):
            for _attempt in range(20):
                point = _sample_point(cone.coords, rng)
                values = [[evaluate(h, point) for h in cell.halfspaces] for cell in cells]
                if all(v != 0 for vs in values for v in vs):
                    break
            inside = sum(1 for vs in values if all(v > 0 for v in vs))
            if inside != 1:
                problems.append(f"cone {key}: a sample point lies in {inside} cells")
    return problems


def check_stats(stats, sub) -> list[str]:
    """Euler identity and cell counts of the f-vectors."""
    problems = []
    total = 0
    for key, entry in sorted(stats["per_cone"].items()):
        cells = len(sub.cells[key])
        total += cells
        fv = entry["f_vector"]
        pointed = any(c.sign == "nonneg" for c in sub.complex.cones[key].coords)
        euler = sum((-1) ** d * f for d, f in fv.items())
        if euler != (0 if pointed else -1):
            problems.append(f"cone {key}: Euler characteristic {euler}")
        if entry["max_cells"] != cells or fv.get(entry["dim"], 0) != cells:
            problems.append(f"cone {key}: {fv} does not count its {cells} cells")
    if stats["total_max_cells"] != total:
        problems.append(f"total_max_cells {stats['total_max_cells']} != {total}")
    return problems


def check_fan_report(report) -> list[str]:
    return [] if report.ok else [f"valid fan rejected: {report.problems}"]


# ---------------------------------------------------------------------------
# CLI envelopes
# ---------------------------------------------------------------------------


def parse_affine(text: str):
    """(constant, {symbol: coefficient}) of a printed affine expression."""
    const, terms = Fraction(0), {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        if "*" in chunk:
            coeff, sym = chunk.split("*")
            terms[sym] = sign * Fraction(coeff)
        elif chunk[:1].isalpha() or chunk[:1] == "_":
            terms[chunk] = Fraction(sign)
        else:
            const += sign * Fraction(chunk)
    return const, terms


def _cells_payload_problems(cells: dict) -> list[str]:
    problems = []
    for key, cs in cells.items():
        if not cs:
            problems.append(f"cone {key}: no cells")
        for cell in cs:
            point = {k: Fraction(v) for k, v in cell["witness"].items()}
            for h in cell["halfspaces"]:
                const, terms = parse_affine(h)
                if const + sum(c * point[s] for s, c in terms.items()) <= 0:
                    problems.append(f"cone {key}: witness not strictly inside {h!r}")
    return problems


def classify_envelope(code: int, out: str, expect) -> tuple[str, str]:
    """('ok' | 'failed' | 'wrong', detail) for one CLI invocation.

    'failed' is a crash or a missing, multi-line or malformed envelope;
    'wrong' is an envelope whose exit code or payload is incorrect.
    ``expect`` is either the string 'error' (any documented error status,
    or the listed statuses in a tuple) or a callable checking an ok payload.
    """
    lines = out.splitlines()
    if len(lines) != 1:
        return "failed", f"{len(lines)} output lines, exit {code}"
    try:
        env = json.loads(lines[0])
        status, payload = env["status"], env["payload"]
        env["timing_ms"]
    except (ValueError, KeyError, TypeError) as exc:
        return "failed", f"malformed envelope: {exc}"
    if DOCUMENTED_EXIT.get(status) != code:
        return "wrong", f"status {status} with exit code {code}"
    if callable(expect):
        if status != "ok":
            return "wrong", f"status {status}: {payload}"
        try:
            problems = expect(payload)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"unreadable payload: {type(exc).__name__}: {exc}"]
        return ("wrong", "; ".join(problems[:3])) if problems else ("ok", "")
    if status == "ok":
        return "wrong", "malformed input accepted"
    if isinstance(expect, tuple) and status not in expect:
        return "wrong", f"status {status}, expected one of {expect}"
    return "ok", ""


def expect_digest(digest: str, extra):
    """The payload matches a recorded digest, and ``extra`` accepts it."""

    def check(payload):
        problems = [] if payload_digest(payload) == digest else ["payload digest differs from the recorded one"]
        return problems + extra(payload)

    return check


def expect_cone_count(n: int):
    def check(payload):
        cones = payload["complex"]["cones"]
        return [] if len(cones) == CONE_COUNTS[n] else [f"{len(cones)} cones, expected {CONE_COUNTS[n]}"]

    return check


def expect_certificate(n: int):
    def check(payload):
        cert = payload["product_decomposition"]
        if cert["certified"] and cert["cones_checked"] == CONE_COUNTS[n]:
            return expect_cone_count(n)(payload)
        return [f"certificate {cert['certified']} over {cert['cones_checked']} cones"]

    return check


def expect_cells(payload):
    return _cells_payload_problems(payload["cells"])


def expect_valid(valid: bool):
    def check(payload):
        ok = payload["valid"] is valid and bool(payload["problems"]) is not valid
        return [] if ok else [f"validity {payload}, expected {valid}"]

    return check


def expect_extension(vertices, edges, legs, sigma):
    """Edge slopes of ``extend`` follow the cut rule; leg slopes echo sigma."""
    slope_of = {i + 1: s for i, s in enumerate(sigma)}
    want = cut_rule_slopes(vertices, edges, legs, slope_of)

    def check(payload):
        got = [(tuple((r["from"], r["to"])), r["slope"]) for r in payload["edge_slopes"]]
        problems = []
        if got != list(zip(edges, want)):
            problems.append("edge slopes break the cut rule")
        if payload["leg_slopes"] != {str(k): v for k, v in slope_of.items()}:
            problems.append("leg slopes do not echo sigma")
        if payload["base_value"] != "0":
            problems.append(f"base value {payload['base_value']}")
        return problems

    return check


def expect_multidegree(vertices, edges, slopes, legs, sigma):
    """Per-vertex outgoing slope sums, computed from the input document."""
    deg = {v: 0 for v in vertices}
    for (a, b), s in zip(edges, slopes):
        deg[a] += s
        deg[b] -= s
    for label, at in legs:
        deg[at] += sigma[label - 1]
    want = {
        "degrees": {str(v): d for v, d in deg.items()},
        "total": sum(deg.values()),
        "balanced": all(d == 0 for d in deg.values()),
    }

    def check(payload):
        return [] if payload == want else [f"multidegree {payload} != {want}"]

    return check


def expect_selfmap(r: int, a: Fraction, compose):
    degree, translation = r, a
    if compose is not None:
        r2, a2 = compose
        degree, translation = r * r2, a + r * a2
    want = {"degree": degree, "translation": str(translation), "kernel_order": abs(degree)}

    def check(payload):
        return [] if payload == want else [f"selfmap {payload} != {want}"]

    return check
