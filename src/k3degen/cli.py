"""Command-line front end: thin JSON adapters over the library.

Exit codes: 0 success, 1 invalid input, 2 valid input that violates a
mathematical constraint (fiber matches no Kulikov pattern, complex is
non-orientable, fiber configuration cannot exist on a K3) or a corpus
fixture that fails. Reports are JSON on stdout with sorted keys;
diagnostics go to stderr.
"""

from __future__ import annotations

import functools
import gc
import importlib.util
import math
import sys
import types
from _json import encode_basestring_ascii, make_encoder  # the C encoder json.encoder re-exports, without json
from collections.abc import Sequence

from . import Refusal


def _lazy(name: str):
    """The module k3degen.<name>, put in sys.modules and on the package as an import
    would, but run only when one of its attributes is first read (importlib.util.LazyLoader),
    so a cold command runs only the modules it uses; a module already imported is returned
    unchanged. Importing the module by name runs it too, so this module reads library
    names as module.name. LazyLoader takes no lock when a module first runs, so the CLI
    loads modules from one thread."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# no handler reads _linalg; it is registered so that every module of the package but
# _record is in sys.modules once the CLI is imported, for tools that look them up there
_lazy("_linalg")
autorders, corpus, cyclotomic, degeneration, dualcomplex, elliptic, lattice, sncfiber = map(
    _lazy, ("autorders", "corpus", "cyclotomic", "degeneration", "dualcomplex", "elliptic", "lattice", "sncfiber")
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CONSTRAINT = 2


def _argparse():
    """argparse, imported on first use: only help, usage lines and errors need it."""
    import argparse

    return argparse


def _int_literal(text: str) -> int:
    """argparse's type for every integer option: the int that text spells as a JSON integer,
    an optional - then ASCII digits, with no leading zero unless the number is 0."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit() and (digits[0] != "0" or digits == "0"):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise _argparse().ArgumentTypeError(f"invalid int value: {text!r}")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def _read_payload(path: str):
    """The JSON payload at path (- for stdin); NaN, Infinity, overflowing numbers and
    nesting deeper than the decoder's recursion limit are rejected."""
    import json

    try:
        if path == "-":
            return json.load(sys.stdin, parse_constant=_reject_constant, parse_float=_finite_float)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_reject_constant, parse_float=_finite_float)
    except RecursionError:
        raise ValueError("payload nests too deeply") from None


_CONTAINERS = frozenset((dict, list, tuple))
# _FLAT[d] encodes a container of scalars whose items sit at indent level d
_FLAT = []


def _pretty(obj, depth: int = 0) -> str:
    """A str-keyed report as JSON with sorted keys and a two-space indent.

    The bytes are those of the stdlib's json with those settings, which on
    CPython 3.11 runs its pure-Python encoder. Here each container that holds
    only scalars is encoded in one call to the C encoder, with the indent in
    its item separator; the containers above those are joined in Python.
    """
    while len(_FLAT) <= depth + 1:
        _FLAT.append(
            make_encoder(None, None, encode_basestring_ascii, None, ": ", ",\n" + "  " * len(_FLAT), True, False, True)
        )
    kind = type(obj)
    if kind not in _CONTAINERS:
        return _FLAT[0](obj, 0)[0]
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = "  " * (depth + 1)
    if _CONTAINERS.isdisjoint(map(type, obj.values() if kind is dict else obj)):
        body = _FLAT[depth + 1](obj, 0)[0][1:-1]
    elif kind is dict:
        body = (",\n" + inner).join(
            encode_basestring_ascii(key) + ": " + _pretty(value, depth + 1) for key, value in sorted(obj.items())
        )
    else:
        body = (",\n" + inner).join(_pretty(value, depth + 1) for value in obj)
    opening, closing = "{}" if kind is dict else "[]"
    return f"{opening}\n{inner}{body}\n{'  ' * depth}{closing}"


def _echo_surface(surface: sncfiber.SNCSurface) -> str:
    """The fiber as read, exactly as _pretty prints its payload dict at depth 1, from one
    template per cell. from_json_dict lets through only str and int ids and int numbers,
    so each scalar is one encoder call."""
    text = {
        x: encode_basestring_ascii(x) if type(x) is str else int.__repr__(x)
        for x in (*surface.component_ids, *surface.curve_ids, *surface.point_ids)
    }
    i8, i10 = " " * 8, " " * 10
    components = [
        f'{{\n{i8}"b1": {b1!r},'
        + ("" if b2 is None else f'\n{i8}"b2": {b2!r},')
        + f'\n{i8}"id": {text[cid]}'
        + ("" if kind is None else f',\n{i8}"kind": {encode_basestring_ascii(kind)}')
        + "\n      }"
        for cid, b1, b2, kind in zip(surface.component_ids, surface.b1, surface.b2, surface.kinds)
    ]
    ends, on = surface.ends, surface.point_curves
    curves = [
        f'{{\n{i8}"components": [\n{i10}{text[a]},\n{i10}{text[b]}\n{i8}],'
        f'\n{i8}"genus": {g!r},\n{i8}"id": {text[cid]}\n      }}'
        for cid, a, b, g in zip(surface.curve_ids, ends[::2], ends[1::2], surface.genus)
    ]
    points = [
        f'{{\n{i8}"curves": [\n{i10}{text[x]},\n{i10}{text[y]},\n{i10}{text[z]}\n{i8}],'
        f'\n{i8}"id": {text[pid]}\n      }}'
        for pid, x, y, z in zip(surface.point_ids, on[::3], on[1::3], on[2::3])
    ]
    body = ",\n    ".join(
        f'"{key}": [\n      ' + ",\n      ".join(cells) + "\n    ]" if cells else f'"{key}": []'
        for key, cells in (("components", components), ("double_curves", curves), ("triple_points", points))
    )
    return f"{{\n    {body}\n  }}"


def _too_long(result: dict) -> ValueError:
    """The input error for a result holding an int with more digits than str() prints:
    it names the first such field, in report order."""
    for field in sorted(result):
        try:
            _pretty(result[field])
        except ValueError:
            limit = sys.get_int_max_str_digits()
            return ValueError(f"result field {field} has an integer of more than {limit} digits, too long to print")


def _emit(command: str, inputs, result) -> None:
    """Print the report; inputs is a JSON value, or its text as _pretty(inputs, 1) prints it."""
    echo = inputs if type(inputs) is str else _pretty(inputs, 1)
    try:
        body = _pretty(result, 1)
    except ValueError:  # an int with more digits than str() prints
        raise _too_long(result) from None
    command = encode_basestring_ascii(command)
    report = f'{{\n  "command": {command},\n  "input": {echo},\n  "result": {body}\n}}'
    try:
        print(report, flush=True)
    except BrokenPipeError:  # the reader closed stdout early (k3degen ... | head): not bad input
        import os  # stdout's fd goes to devnull, so the flush at exit stays quiet

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _refusal(exc: Exception) -> dict:
    """The result for valid input that violates a mathematical constraint."""
    return {"error": {"constraint": type(exc).__name__, "detail": str(exc)}}


# -- subcommands -----------------------------------------------------------
# Each handler returns (input echo, result, summary, exit code) and prints nothing.


def _cmd_classify_fiber(args):
    surface = sncfiber.SNCSurface.from_json_dict(_read_payload(args.payload))
    inputs = _echo_surface(surface)
    try:
        t, check = sncfiber.crosscheck(surface)
    except Refusal as exc:
        return inputs, _refusal(exc), f"{exc.summary_prefix}{exc}", EXIT_CONSTRAINT
    result = {"type": str(t), "grw": list(degeneration.grw_dims(t)), "crosscheck": check}
    if None not in surface.b2:
        result["e1"] = [{"p": p, "dims": row} for p, row in zip(range(-2, 3), sncfiber.e1_page(surface))]
    return inputs, result, f"Type {t}, grw = {result['grw']}", EXIT_OK


def _cmd_allowed_types(args):
    if args.m is None and args.field is None and args.height is None:
        raise ValueError("provide at least one of --m, --field, --height")
    height = args.height
    if height in ("inf", "infinite"):
        height = degeneration.INFINITE_HEIGHT
    elif height is not None:
        try:
            height = _int_literal(height)
        except _argparse().ArgumentTypeError:  # not an int that int() converts: refused as typed below
            pass
    result = degeneration.combine(m=args.m, e=args.field, h=height, residue_char=args.char)
    inputs = {"m": args.m, "field": args.field, "height": args.height, "char": args.char}
    summary = result["status"] if "status" in result else f"allowed types: {result['allowed']}"
    return inputs, result, summary, EXIT_OK


def _cmd_charpoly(args):
    if args.setting != "char0" and args.p is None:
        raise ValueError(f"setting {args.setting!r} requires --p")
    setting = autorders.CharSetting(args.setting, args.p)
    candidates = autorders.admissible_transcendental_charpolys(args.m, setting, args.t_rank)
    rows = []
    for f in candidates:
        single = len(f.factors) == 1
        row = {
            "factors": {str(m): mult for m, mult in sorted(f.factors.items())},
            "coefficients": list(f.expand().coefficients),
            "single_power": single,
        }
        if setting.kind == autorders.FINITE_HEIGHT and not single:
            row["note"] = "multi-factor candidate, not excluded in the finite-height case"
        rows.append(row)
    inputs = {"m": args.m, "setting": args.setting, "p": args.p, "t_rank": args.t_rank}
    return inputs, {"candidates": rows}, f"{len(rows)} admissible characteristic polynomial(s)", EXIT_OK


def _cmd_orders(args):
    if (args.max_t is None) == (args.phi_bound is None):
        raise ValueError("provide exactly one of --max-t or --phi-bound")
    if args.max_t is not None:
        powers = autorders.wild_prime_powers(args.max_t)
        return {"max_t": args.max_t}, {"prime_powers": powers}, f"{len(powers)} prime powers", EXIT_OK
    orders = cyclotomic.bounded_orders(args.phi_bound)
    result = {"orders": orders, "max": max(orders)}
    return {"phi_bound": args.phi_bound}, result, f"{len(orders)} orders, max {max(orders)}", EXIT_OK


def _cmd_ss_check(args):
    sigma0 = autorders.nygaard_sigma0(args.m, args.p)
    result = {"sigma0": sigma0, "supersingular_possible": bool(sigma0)}
    summary = f"order {args.m} in characteristic {args.p}: " + (
        f"possible for sigma0 in {sigma0}" if sigma0 else "no supersingular surface admits it"
    )
    return {"m": args.m, "p": args.p}, result, summary, EXIT_OK


def _cmd_orient(args):
    payload = _read_payload(args.payload)
    dualcomplex._known_fields(payload, ("vertices", "edges", "triangles", "automorphism"))
    complex_ = dualcomplex.DeltaComplex.from_json_dict(payload)
    inputs = complex_.to_json_dict()
    try:
        orientation = dualcomplex.orient(complex_)
    except Refusal as exc:
        return inputs, _refusal(exc), f"{exc.summary_prefix}{exc}", EXIT_CONSTRAINT
    result = {
        "orientable": True,
        "orientation": [
            {"triangle": tid, "sign": orientation[tid]} for tid in sorted(orientation, key=str)
        ],
    }
    if "automorphism" not in payload:
        return inputs, result, "orientable", EXIT_OK
    g = dualcomplex.ComplexAutomorphism.from_json_dict(complex_, payload["automorphism"])
    result["action"] = dualcomplex.orientation_action(complex_, g)
    maps = {"vertex_map": g.vertex_map, "edge_map": g.edge_map, "triangle_map": g.triangle_map}
    return {"complex": inputs, "automorphism": maps}, result, f"orientable, action {result['action']:+d}", EXIT_OK


def _cmd_euler(args):
    if args.characteristic is not None and not autorders.is_prime(args.characteristic):
        raise ValueError(f"characteristic must be a prime, got {args.characteristic}")
    payload = _read_payload(args.payload)
    if isinstance(payload, dict) and "fibers" in payload:  # else the payload is the multiset itself
        if len(payload) > 1:  # _known_fields' text, without running dualcomplex for it
            raise ValueError(f"payload has unknown field {next(key for key in payload if key != 'fibers')!r}")
        payload = payload["fibers"]
    config = elliptic.FiberConfiguration.from_json(payload)
    inputs = {"fibers": config.to_json_dict(), "characteristic": args.characteristic}
    try:
        rank = config.trivial_lattice_rank()
    except Refusal as exc:
        return inputs, _refusal(exc), f"{exc.summary_prefix}{exc}", EXIT_CONSTRAINT
    result = {
        "euler_sum": config.euler_sum(),
        "is_k3": config.check_k3(),
        "trivial_lattice_rank": rank,
    }
    if args.characteristic is not None and args.characteristic <= 3:
        result["warning"] = (
            "tame arithmetic only: wild fibers in characteristic <= 3 can contribute more"
        )
    try:
        summary = f"Euler sum {result['euler_sum']}, trivial lattice rank {rank}"
    except ValueError:  # an Euler sum with more digits than str() prints
        raise _too_long(result) from None
    return inputs, result, summary, EXIT_OK


def _cmd_lattice(args):
    lat = lattice.direct_sum(*(lattice.standard_lattice(n) for n in args.names))
    if args.rescale is not None:
        lat = lattice.rescale(lat, args.rescale)
    result = {
        "gram": [list(row) for row in lat.gram],
        "rank": lat.rank(),
        "det": lat.det(),
        "signature": list(lat.signature()),
        "even": lat.is_even(),
    }
    try:
        summary = f"rank {result['rank']}, det {result['det']}, signature {result['signature']}"
    except ValueError:  # a det with more digits than str() prints
        raise _too_long(result) from None
    return {"names": args.names, "rescale": args.rescale}, result, summary, EXIT_OK


def _cmd_fixtures(args):
    directory = args.dir if args.dir is not None else corpus.default_corpus_dir()
    results = corpus.run_corpus(directory)
    passed = sum(1 for r in results if r.passed)
    result = {
        "total": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "fixtures": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results]
    summary = "\n".join([*lines, f"{passed}/{len(results)} fixtures passed"])
    code = EXIT_OK if passed == len(results) else EXIT_CONSTRAINT
    return {"directory": str(directory)}, result, summary, code


def _arg(*flags, **options):
    return flags, options


class _FieldClasses(Sequence):
    """--field's choices, the names in degeneration.FIELD_CLASSES. Reading them runs
    degeneration, so they are read only when a parser is built or a --field value checked."""

    def __getitem__(self, index):
        return list(degeneration.FIELD_CLASSES)[index]

    def __len__(self):
        return len(degeneration.FIELD_CLASSES)


# Each subcommand once: name -> (help, handler, arguments), an argument being the
# flags and options of one add_argument call. Both kinds of parser are built from it.
_COMMANDS = {
    "classify-fiber": ("classify a semistable fiber into Kulikov types", _cmd_classify_fiber, (
        _arg("payload", help="path to an SNC surface JSON file, or - for stdin"),
    )),
    "allowed-types": ("degeneration types allowed by given constraints", _cmd_allowed_types, (
        _arg("--m", type=_int_literal, help="order of the action on the 2-forms"),
        _arg("--field", choices=_FieldClasses(), help="Hodge endomorphism field class"),
        _arg("--height", help="formal Brauer height: 1..10 or 'infinite'"),
        _arg("--char", type=_int_literal, help="residue characteristic, if known"),
    )),
    "charpoly": ("admissible transcendental characteristic polynomials", _cmd_charpoly, (
        _arg("--m", type=_int_literal, required=True),
        _arg("--setting", choices=("char0", "finite-field", "finite-height", "liftable"), default="char0"),
        _arg("--p", type=_int_literal, help="residue characteristic (positive-characteristic settings)"),
        _arg("--t-rank", type=_int_literal, required=True, dest="t_rank"),
    )),
    "orders": ("prime-power twists or all orders under a totient bound", _cmd_orders, (
        _arg("--max-t", type=_int_literal, dest="max_t", help="totient bound for prime powers"),
        _arg("--phi-bound", type=_int_literal, dest="phi_bound", help="totient bound for all orders"),
    )),
    "ss-check": ("supersingular order check: m | p^sigma0 + 1", _cmd_ss_check, (
        _arg("--m", type=_int_literal, required=True),
        _arg("--p", type=_int_literal, required=True),
    )),
    "orient": ("orient a Delta-complex, optionally push along a symmetry", _cmd_orient, (
        _arg("payload", help="path to a complex JSON file, or - for stdin"),
    )),
    "euler": ("Euler numbers and trivial lattice rank of a fiber multiset", _cmd_euler, (
        _arg("payload", help="path to a fiber multiset JSON file, or - for stdin"),
        _arg("--characteristic", type=_int_literal, help="residue characteristic, if known"),
    )),
    "lattice": ("invariants of named lattices and their direct sums", _cmd_lattice, (
        _arg("names", nargs="+", help="lattice names: U, E8, K3, A<n>"),
        _arg("--rescale", type=_int_literal, help="multiply the form by a nonzero integer"),
    )),
    "fixtures": ("replay the bundled example corpus", _cmd_fixtures, (
        _arg("--dir", help="corpus directory (default: bundled)"),
    )),
}


@functools.cache
def _parser_class():
    """The CLI's ArgumentParser subclass, made on first use with argparse."""
    argparse = _argparse()

    class Once(argparse.Action):
        """Store an option's value; an option given twice is bad input, not 'the last one wins'.
        Each parse fills a fresh namespace, so the options given so far are recorded there."""

        def __call__(self, parser, namespace, values, option_string=None):
            given = vars(namespace).setdefault("_given", set())
            if self.dest in given:
                raise argparse.ArgumentError(self, "given more than once")
            given.add(self.dest)
            setattr(namespace, self.dest, values)

    class Parser(argparse.ArgumentParser):
        def parse_args(self, args=None, namespace=None):
            namespace = super().parse_args(args, namespace)
            vars(namespace).pop("_given", None)  # Once's record, not an argument
            return namespace

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_BAD_INPUT)

        def add_command(self, name: str):
            """Add subcommand name's arguments from _COMMANDS, each option taken once; return self."""
            _, handler, arguments = _COMMANDS[name]
            for flags, options in arguments:
                self.add_argument(*flags, action=Once if flags[0].startswith("-") else "store", **options)
            self.set_defaults(func=handler)
            return self

    return Parser


# each parser is built once per process: Parser.error looks up sys.stderr only when it reports
@functools.cache
def build_parser():
    """The whole command tree, for -h, no arguments and unknown subcommands."""
    parser = _parser_class()(prog="k3degen", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_).add_command(name)
    return parser


@functools.cache
def _command_parser(name: str):
    """The parser of one subcommand, the same one build_parser adds under that name."""
    return _parser_class()(prog=f"k3degen {name}").add_command(name)


@functools.cache
def _plain_table(name: str):
    """What _read_plain needs of one subcommand, from the table its parser is built from:
    each option string -> (dest, type, choices), the required dests, the positional's
    (dest, nargs) or None (no command takes two), and the namespace of defaults."""
    _, handler, arguments = _COMMANDS[name]
    options, required, positional, defaults = {}, set(), None, {"func": handler}
    for flags, spec in arguments:
        if not flags[0].startswith("-"):
            positional = flags[0], spec.get("nargs")
            continue
        dest = spec.get("dest", flags[0].lstrip("-").replace("-", "_"))
        options[flags[0]] = dest, spec.get("type"), spec.get("choices")
        if spec.get("required"):
            required.add(dest)
        defaults[dest] = spec.get("default")
    return options, required, positional, defaults


def _read_plain(name: str, argv):
    """The namespace _command_parser(name).parse_args(argv) returns, read without argparse,
    or None for any argv that is not plain, which argparse then reads.

    Plain: each option is one of the command's option strings in full, given once, with
    a value that is non-empty, does not start with -, and passes the option's type and
    choices; the positionals are one contiguous run of non-empty words not starting
    with -, as many as the command takes; every required option is given.
    """
    options, required, positional, defaults = _plain_table(name)
    namespace, given, words, closed = dict(defaults), set(), [], False
    tokens = iter(argv)
    for token in tokens:
        if token in options:
            dest, convert, choices = options[token]
            value = next(tokens, "")
            if dest in given or not value or value[0] == "-":
                return None
            if convert is not None:
                try:
                    value = convert(value)
                except (_argparse().ArgumentTypeError, TypeError, ValueError):  # argparse reports it
                    return None
            if choices is not None and value not in choices:
                return None
            given.add(dest)
            namespace[dest] = value
            closed = bool(words)
        elif closed or not token or token[0] == "-":
            return None
        else:
            words.append(token)
    if not required <= given:
        return None
    if positional is None:
        if words:
            return None
    else:
        dest, nargs = positional
        if not words or (len(words) > 1 and nargs != "+"):
            return None
        namespace[dest] = words if nargs == "+" else words[0]
    return types.SimpleNamespace(**namespace)


def run(argv) -> int:
    """Run one subcommand: the report on stdout, the summary or the error on stderr; return the exit code."""
    try:
        if argv and argv[0] in _COMMANDS:
            command, args = argv[0], _read_plain(argv[0], argv[1:])
            if args is None:
                args = _command_parser(command).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
            command = args.subcommand
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_BAD_INPUT
    try:
        inputs, result, summary, code = args.func(args)
        _emit(command, inputs, result)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(summary, file=sys.stderr)
    return code


def main() -> None:
    # One command, then exit: with the imported objects frozen, neither a collection
    # during the command nor the one at interpreter exit walks them.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
