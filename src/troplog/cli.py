"""troplog: JSON-in/JSON-out command line front end.

Every command prints a result envelope {"status", "payload", "timing_ms"};
payloads are deterministic (sorted keys, reduced 'p/q' rationals) so
identical inputs produce byte-identical payloads.  Exit codes: 0 ok,
2 parse error, 3 nonzero slope sum, 4 unstable range, 5 fan problem,
6 missing edge/leg or length mismatch, 7 n above the size limit or a
result integer too long to print (over 4 300 digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import affine, errors, moduli, plfunction, selfmap, subdivision, tree

EXIT_CODES = {
    "ok": 0,
    errors.ParseError.code: 2,
    errors.NonZeroSum.code: 3,
    errors.UnstableRange.code: 4,
    errors.IncompleteFan.code: 5,
    errors.UnsupportedDimension.code: 5,
    errors.NoSuchEdge.code: 6,
    errors.NoSuchLeg.code: 6,
    errors.LengthMismatch.code: 6,
    errors.SizeLimit.code: 7,
}

# The largest n that `moduli` and `subdivide` build: the curve complex has
# A000311(n - 1) cones, 39 208 at n = 8 and 660 032 at n = 9.
MAX_N = 8


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers malformed JSON, non-UTF-8 bytes and an integer
    # literal too long to convert.
    except (OSError, ValueError, RecursionError) as exc:
        raise errors.ParseError(f"cannot read JSON from {path!r}: {exc}") from exc


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise errors.SizeLimit(f"n = {n} is above the limit n <= {MAX_N}")


def _sigma(text: str) -> plfunction.ContactOrder:
    try:
        return plfunction.ContactOrder.of(int(x) for x in text.split(","))
    except ValueError as exc:
        raise errors.ParseError(f"bad contact order {text!r}: {exc}") from exc


def cmd_validate(args) -> dict:
    doc = _read_json(args.tree)
    return tree.validate_tree(tree.tree_from_json(doc)).to_json()


def cmd_extend(args) -> dict:
    t = tree.tree_from_json(_read_json(args.tree))
    tree.check_incidence(t)
    sigma = _sigma(args.sigma)
    base_value = affine.AffineExpr.parse(args.base_value)
    basepoint = args.basepoint
    if basepoint is not None and basepoint not in t.vertices:
        # JSON vertex ids may be ints; retry the numeric reading.
        try:
            if int(basepoint) in t.vertices:
                basepoint = int(basepoint)
        except ValueError:
            pass
    f = plfunction.extend_from_leg_slopes(t, sigma, basepoint, base_value)
    return plfunction.plfunction_to_json(f)


def cmd_multidegree(args) -> dict:
    f = plfunction.plfunction_from_json(_read_json(args.plf))
    md = plfunction.multidegree(f)
    return {
        "degrees": {str(v): d for v, d in md.degrees},
        "total": md.total,
        "balanced": md.is_zero,
    }


def cmd_moduli(args) -> dict:
    # Every cheap check runs before the first build, which is exponential in n.
    sigma = None if args.sigma is None else _sigma(args.sigma)
    if sigma is None and args.certify_product is not None:
        raise errors.ParseError("--certify-product requires --sigma")
    if args.certify_product is not None:
        moduli._check_product_args(args.n, sigma, args.certify_product)
    elif sigma is not None:
        moduli._check_contacts(args.n, [sigma])
    _check_size(args.n)
    report = None
    if args.certify_product is not None:
        cx, report = moduli._certified_map_moduli(args.n, sigma, args.certify_product)
    elif sigma is not None:
        cx = moduli.build_map_moduli(args.n, sigma)
    else:
        cx = moduli.build_moduli_complex(args.n)
    payload = {"complex": cx.to_json(), "empty": cx.is_empty}
    if report is not None:
        payload["product_decomposition"] = report.to_json()
    return payload


def cmd_subdivide(args) -> dict:
    fan = subdivision.Fan.from_json(_read_json(args.fan))
    report = subdivision.validate_fan(fan)
    if not report.ok:
        raise errors.IncompleteFan("; ".join(report.problems))
    sigmas = [_sigma(s) for s in args.sigma.split(";")]
    _check_size(args.n)
    sub = subdivision.subdivide_map_moduli(args.n, sigmas if len(sigmas) > 1 else sigmas[0], fan)
    return sub.to_json()


def cmd_validate_fan(args) -> dict:
    fan = subdivision.Fan.from_json(_read_json(args.fan))
    return subdivision.validate_fan(fan).to_json()


def cmd_selfmap(args) -> dict:
    nf = selfmap.classify_self_map(args.r, args.a)
    if args.compose:
        r2, a2 = args.compose
        try:
            r2 = int(r2)
        except ValueError as exc:
            raise errors.ParseError(f"bad --compose degree {r2!r}: {exc}") from exc
        nf = nf.compose(selfmap.classify_self_map(r2, a2))
    return nf.to_json()


class _Parser(argparse.ArgumentParser):
    """Raises ``ParseError`` where argparse would print usage and exit 2."""

    def error(self, message):
        raise errors.ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="troplog", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="validate a tree JSON file")
    q.add_argument("tree", help="tree JSON file, or - for stdin")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("extend", help="unique balanced function from leg slopes")
    q.add_argument("tree")
    q.add_argument("--sigma", required=True, help="comma-separated integer leg slopes")
    q.add_argument("--basepoint", default=None)
    q.add_argument("--base-value", default="0", help="rational or affine, e.g. 0, 3/2, c")
    q.set_defaults(fn=cmd_extend)

    q = sub.add_parser("multidegree", help="per-vertex degrees of a PL function")
    q.add_argument("plf", help="PL function JSON file, or - for stdin")
    q.set_defaults(fn=cmd_multidegree)

    q = sub.add_parser("moduli", help="moduli cone complex (curves, or maps with --sigma)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--sigma", default=None)
    q.add_argument("--certify-product", type=int, default=None, metavar="LEG")
    q.set_defaults(fn=cmd_moduli)

    q = sub.add_parser("subdivide", help="fan-pullback subdivision of map moduli")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--sigma", required=True, help="contact orders; ';' separates target coordinates")
    q.add_argument("--fan", required=True)
    q.set_defaults(fn=cmd_subdivide)

    q = sub.add_parser("validate-fan", help="fan well-formedness and completeness report")
    q.add_argument("fan")
    q.set_defaults(fn=cmd_validate_fan)

    q = sub.add_parser("selfmap", help="normal form of a log-torus self-map")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--a", default="0")
    q.add_argument("--compose", nargs=2, metavar=("R2", "A2"), default=None)
    q.set_defaults(fn=cmd_selfmap)
    return p


def _error(exc: errors.TroplogError) -> tuple[str, dict]:
    return exc.code, {"error": exc.code, "message": str(exc)}


def _output_limit(exc: ValueError) -> errors.SizeLimit:
    """The ``SizeLimit`` for a result integer too long to print; any other
    ``ValueError`` is raised again.

    Python writes an int of at most ``sys.get_int_max_str_digits()`` digits
    (4 300 by default) in decimal. Inputs that long are parse errors, so a
    longer integer here is a result, e.g. a product of two input integers.
    """
    if "integer string conversion" not in str(exc):
        raise exc
    limit = sys.get_int_max_str_digits()
    return errors.SizeLimit(f"a result integer has more than {limit} digits, above the output limit")


def _envelope_line(status: str, payload: dict, elapsed: int) -> str:
    envelope = {"status": status, "payload": payload, "timing_ms": elapsed}
    # One json.dumps (the C encoder) gives the bytes that json.dump would
    # stream through the pure-Python encoder.
    return json.dumps(envelope, sort_keys=True) + "\n"


def main(argv=None) -> int:
    start = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        start = time.monotonic()  # timing_ms covers the command, not the parsing
        try:
            payload = args.fn(args)
        except ValueError as exc:
            raise _output_limit(exc) from exc
        status = "ok"
    except errors.TroplogError as exc:
        status, payload = _error(exc)
    elapsed = int((time.monotonic() - start) * 1000)
    try:
        line = _envelope_line(status, payload, elapsed)
    except ValueError as exc:
        status, payload = _error(_output_limit(exc))
        line = _envelope_line(status, payload, elapsed)
    code = EXIT_CODES.get(status, 1)
    try:
        sys.stdout.write(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
