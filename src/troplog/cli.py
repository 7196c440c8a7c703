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
import functools
import gc
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


def _integer(text: str) -> int:
    """An integer argument, read by the integer form of the rational grammar
    (``affine._INTEGER_RE``): surrounding whitespace, a sign, digits.
    Anything else raises ``ArgumentTypeError``, which argparse reports with
    the argument's name."""
    if affine._INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _integer_in(what: str, text: str) -> int:
    """``_integer`` for a value inside the argument ``what``, which argparse
    does not convert."""
    try:
        return _integer(text)
    except argparse.ArgumentTypeError as exc:
        raise errors.ParseError(f"argument {what}: {exc}") from exc


def _sigma(text: str) -> plfunction.ContactOrder:
    return plfunction.ContactOrder.of([_integer_in("--sigma", x) for x in text.split(",")])


def _sigmas(text: str) -> list[plfunction.ContactOrder]:
    """One contact order per target coordinate, separated by ``;``."""
    return [_sigma(s) for s in text.split(";")]


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
        # JSON vertex ids may be ints; retry the numeric reading, in the
        # grammar of every other integer argument.
        try:
            if _integer(basepoint) in t.vertices:
                basepoint = _integer(basepoint)
        except argparse.ArgumentTypeError:
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


def cmd_moduli(args) -> list[str]:
    # Every cheap check runs before the first build, which is exponential in n.
    sigmas = None if args.sigma is None else _sigmas(args.sigma)
    if args.certify_product is not None:
        if sigmas is None:
            raise errors.ParseError("--certify-product requires --sigma")
        if len(sigmas) > 1:
            raise errors.ParseError("--certify-product takes one contact order, not one per target coordinate")
        moduli._check_product_args(args.n, sigmas[0], args.certify_product)
    elif sigmas is not None:
        moduli._check_contacts(args.n, sigmas)
    _check_size(args.n)
    report = None
    if args.certify_product is not None:
        cx, report = moduli._certified_map_moduli(args.n, sigmas[0], args.certify_product)
    elif sigmas is not None:
        cx = moduli._map_cones(args.n, sigmas)
    else:
        cx = moduli.build_moduli_complex(args.n)
    # The payload {"complex", "empty", "product_decomposition"} as JSON
    # text in pieces: no dict of the complex is built.
    pieces = ['{"complex": ', *moduli._json_pieces(cx), f', "empty": {json.dumps(cx.is_empty)}']
    if report is not None:
        pieces += [', "product_decomposition": ', moduli._report_json(report)]
    pieces.append("}")
    return pieces


def cmd_subdivide(args) -> list[str]:
    # Cheap checks first, as in cmd_moduli: the fan check is quadratic in its cones.
    sigmas = _sigmas(args.sigma)
    moduli._check_contacts(args.n, sigmas)
    _check_size(args.n)
    fan = subdivision.Fan.from_json(_read_json(args.fan))
    subdivision._check_target(fan, len(sigmas))
    if problems := subdivision.validate_fan(fan).problems:
        raise errors.IncompleteFan("; ".join(problems))
    return subdivision._json_pieces(subdivision.subdivide_map_moduli(args.n, sigmas, fan))


def cmd_validate_fan(args) -> dict:
    fan = subdivision.Fan.from_json(_read_json(args.fan))
    return subdivision.validate_fan(fan).to_json()


def cmd_selfmap(args) -> dict:
    nf = selfmap.classify_self_map(args.r, args.a)
    if args.compose:
        r2, a2 = args.compose
        nf = nf.compose(selfmap.classify_self_map(_integer_in("--compose", r2), a2))
    return nf.to_json()


class _Parser(argparse.ArgumentParser):
    """Raises ``ParseError`` where argparse would print usage and exit 2."""

    def error(self, message):
        raise errors.ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call in a process.  Each subcommand
    runs the ``cmd_`` function of its name (``-`` read as ``_``), which
    ``main`` looks up when it runs."""
    p = _Parser(prog="troplog", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="validate a tree JSON file")
    q.add_argument("tree", help="tree JSON file, or - for stdin")

    q = sub.add_parser("extend", help="unique balanced function from leg slopes")
    q.add_argument("tree")
    q.add_argument("--sigma", required=True, help="comma-separated integer leg slopes")
    q.add_argument("--basepoint", default=None)
    q.add_argument("--base-value", default="0", help="rational or affine, e.g. 0, 3/2, c")

    q = sub.add_parser("multidegree", help="per-vertex degrees of a PL function")
    q.add_argument("plf", help="PL function JSON file, or - for stdin")

    q = sub.add_parser("moduli", help="moduli cone complex (curves, or maps with --sigma)")
    q.add_argument("--n", type=_integer, required=True)
    q.add_argument("--sigma", default=None, help="contact orders; ';' separates target coordinates")
    q.add_argument("--certify-product", type=_integer, default=None, metavar="LEG")

    q = sub.add_parser("subdivide", help="fan-pullback subdivision of map moduli")
    q.add_argument("--n", type=_integer, required=True)
    q.add_argument("--sigma", required=True, help="contact orders; ';' separates target coordinates")
    q.add_argument("--fan", required=True)

    q = sub.add_parser("validate-fan", help="fan well-formedness and completeness report")
    q.add_argument("fan")

    q = sub.add_parser("selfmap", help="normal form of a log-torus self-map")
    q.add_argument("--r", type=_integer, required=True)
    q.add_argument("--a", default="0")
    q.add_argument("--compose", nargs=2, metavar=("R2", "A2"), default=None)
    return p


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


def main(argv=None) -> int:
    # A command's builds hold no reference cycles, so reference counting
    # frees them: the cyclic collector is paused for the one command that
    # main runs, and the caller's setting is restored however it ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        try:
            args = build_parser().parse_args(argv)
            start = time.monotonic()  # timing_ms covers the command and its payload's text, not the parsing
            try:
                # A command's payload is its JSON text in pieces, or a dict
                # written here as one json.dumps.
                payload = globals()["cmd_" + args.command.replace("-", "_")](args)
                pieces = payload if isinstance(payload, list) else [json.dumps(payload, sort_keys=True)]
            except ValueError as exc:
                raise _output_limit(exc) from exc
            status = "ok"
        except errors.TroplogError as exc:
            status = exc.code
            pieces = [json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True)]
        elapsed = int((time.monotonic() - start) * 1000)
        code = EXIT_CODES.get(status, 1)
        # The bytes of json.dumps({"status", "payload", "timing_ms"},
        # sort_keys=True) + "\n", written piece by piece.
        try:
            sys.stdout.write('{"payload": ')
            sys.stdout.writelines(pieces)
            sys.stdout.write(f', "status": {json.dumps(status)}, "timing_ms": {elapsed}}}\n')
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout early (e.g. `| head`).  Point stdout at
            # devnull so that the flush at interpreter exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    """The process entry of ``python -m troplog.cli`` and of the ``troplog``
    script: ``main`` with the collector off for the rest of the process.
    It does not return.

    Once both streams are flushed, the process ends with ``os._exit``, with
    no young collection over what the command built and no interpreter
    teardown, so no ``atexit`` handler runs. ``SystemExit`` (``--help``) and
    an unexpected exception leave through the normal interpreter exit.
    """
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
