"""Command-line entry point.

Subcommands cover the experiment drivers (census, scan, compare-relaxations,
example), the encoders (encode, transform), the constraint and matrix
catalogs (constraints, matrix, rays), and the dual-cone decomposition
(decompose).

Exit codes: 0 when the command succeeded and any verification passed, 1 when
a verification or certified check failed (the report carries a witness), 2 on
usage or input errors.  Reports go to stdout (or --out); timing goes to
stderr so stdout stays byte-stable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from .constraint import (
    C_FAMILIES,
    ETA_FAMILIES,
    U_FAMILIES,
    DualVector,
    _dual_cone_violation,
    assemble_system,
    conic_decompose,
    supermodular_rays,
    y_of_class,
)
from .digraph import DirectedGraph, is_acyclic
from .encode import (
    char_from_eta,
    characteristic_of,
    eta_of,
    imset_from_json_dict,
    quasi_characteristic_of,
    standard_imset_of,
    u_from_characteristic,
    u_from_eta,
)
from .exactlin import (
    _hnf_check,
    _products_check,
    build_matrix_A,
    build_matrix_B,
    build_matrix_B_bar,
    build_matrix_C,
    build_matrix_D,
    build_matrix_E,
    build_matrix_F,
    is_totally_unimodular_small,
    is_unimodular_full_row_rank,
)
from .setfam import GroundSet, _json_text, _write_text
from .verify import (
    EnumerationBox,
    census_equivalence_classes,
    lattice_scan,
    relaxation_comparison,
    run_example,
)

MATRIX_BUILDERS = {
    "A": build_matrix_A,
    "B": build_matrix_B,
    "C": build_matrix_C,
    "D": build_matrix_D,
    "Bbar": build_matrix_B_bar,
    "E": build_matrix_E,
    "F": build_matrix_F,
}

DEFAULT_FAMILIES = {"eta": ETA_FAMILIES, "u": U_FAMILIES, "c": C_FAMILIES}

KIND_ALIASES = {
    "eta": "eta",
    "u": "standard",
    "standard": "standard",
    "c": "characteristic",
    "characteristic": "characteristic",
}

# characteristic: the super-terminal counts, the characteristic imset when
# the graph is acyclic
_ENCODERS = {
    "eta": eta_of,
    "standard": standard_imset_of,
    "characteristic": quasi_characteristic_of,
}

# (from, to) -> conversion; nothing converts to eta
_CONVERSIONS = {
    ("eta", "standard"): u_from_eta,
    ("eta", "characteristic"): char_from_eta,
    ("standard", "characteristic"): characteristic_of,
    ("characteristic", "standard"): u_from_characteristic,
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(text, out)


def _emit_json(obj, out: str | None) -> None:
    try:
        text = _json_text(obj)
    except ValueError:
        # the interpreter refuses to write an int past its digit limit
        raise ValueError(
            f"the output holds an integer of more than {_max_digits()} digits, "
            "past the interpreter's limit for writing an int"
        ) from None
    _emit(text, out)


def _report_exit(report, out: str | None) -> int:
    _emit(report.to_json(), out)
    return 0 if report.passed else 1


def _ground(args) -> GroundSet:
    return GroundSet.of_size(args.n)


def _box(args, ground: GroundSet) -> EnumerationBox:
    if args.box == "01":
        return EnumerationBox.zero_one(ground)
    return EnumerationBox.default(ground)


def _families(args, framework: str):
    if args.families is None:
        return DEFAULT_FAMILIES[framework]
    families = tuple(f.strip() for f in args.families.split(","))
    if "" in families:
        raise ValueError(f"--families {args.families!r} names an empty family")
    return families


def _max_digits() -> int:
    """The most digits an int may have to convert from or to a string: the
    interpreter's limit, 0 for none (as on an interpreter without one)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _check_digits(text: str) -> None:
    # refused here so that the message names the number
    digits = sum(ch.isdigit() for ch in text.lower().partition("e")[0])
    limit = _max_digits()
    if limit and digits > limit:
        raise ValueError(f"JSON number {text[:20]}… has {digits} digits, more than {limit}")


def _json_int(text: str) -> int:
    _check_digits(text)
    return int(text)


class _JsonDecimal(Fraction):
    """A JSON decimal read as the exact rational it writes, not the nearest
    double; its repr is the text it was written as."""

    __slots__ = ("_text",)

    def __new__(cls, text: str):
        exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
        # the range a double covered; past it Fraction would build an int
        # with as many digits as the exponent says
        if len(exponent) > 3 or int(exponent or 0) > 308:
            raise ValueError(f"JSON number {text} has an exponent outside ±308")
        _check_digits(text)
        self = super().__new__(cls, text)
        self._text = text
        return self

    def __repr__(self) -> str:
        return self._text


def _json_object(pairs) -> dict:
    # a repeated key is refused: json would keep its last value silently
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(
                fh, parse_float=_JsonDecimal, parse_int=_json_int, object_pairs_hook=_json_object
            )
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _cmd_census(args) -> int:
    return _report_exit(census_equivalence_classes(_ground(args)), args.out)


def _cmd_scan(args) -> int:
    ground = _ground(args)
    families = _families(args, args.framework)
    report = lattice_scan(ground, args.framework, families, _box(args, ground))
    return _report_exit(report, args.out)


def _cmd_compare(args) -> int:
    ground = _ground(args)
    return _report_exit(relaxation_comparison(ground, _box(args, ground)), args.out)


def _cmd_example(args) -> int:
    return _report_exit(run_example(args.id), args.out)


def _cmd_encode(args) -> int:
    g = DirectedGraph.from_json_dict(_load_json(args.graph))
    payload = _ENCODERS[args.as_kind](g).to_json_dict()
    payload["acyclic"] = is_acyclic(g)
    _emit_json(payload, args.out)
    return 0


def _cmd_constraints(args) -> int:
    system = assemble_system(_ground(args), args.framework, _families(args, args.framework))
    _emit(system.to_lp() if args.format == "lp" else system.to_json_text(), args.out)
    return 0


def _verdict_check(verdict) -> tuple[bool, dict]:
    """A minor-scan verdict as a check: it passes unless the scan found a
    witness, and its detail is every field of the verdict, the witness
    fields only when they are set."""
    detail = {}
    for f in dataclasses.fields(verdict):
        value = getattr(verdict, f.name)
        if value is not None or not f.name.startswith("witness_"):
            detail[f.name] = list(value) if isinstance(value, tuple) else value
    return verdict.witness_det is None, detail


def _cmd_matrix(args) -> int:
    if args.dummy_row and args.which != "E":
        raise ValueError("--dummy-row applies to matrix E only")
    if args.dummy_row and args.check == "products":
        # the product check reads E with its dummy row whatever the flag says
        raise ValueError("--dummy-row cannot be combined with --check products")
    if args.csv and args.check is not None:
        raise ValueError("--csv cannot be combined with --check")
    ground = _ground(args)
    # only E takes a dummy row, and the flag is refused for the others
    m = MATRIX_BUILDERS[args.which](ground, **({"dummy_row": True} if args.dummy_row else {}))
    if args.check is None:
        if args.csv:
            _emit(m.to_csv(), args.out)
        else:
            _emit_json(
                {
                    "name": args.which,
                    "row_labels": list(m.row_labels),
                    "col_labels": list(m.col_labels),
                    "entries": [list(r) for r in m.entries],
                },
                args.out,
            )
        return 0
    if args.check == "hnf":
        passed, detail = _hnf_check(m)
    elif args.check == "unimodular":
        try:
            verdict = is_unimodular_full_row_rank(m, mode="exhaustive")
        except ValueError:
            verdict = is_unimodular_full_row_rank(m, mode="sampled", samples=1000, seed=0)
        passed, detail = _verdict_check(verdict)
    elif args.check == "tu":
        passed, detail = _verdict_check(is_totally_unimodular_small(m))
    else:
        passed, detail = _products_check(args.which, ground)
    _emit_json(
        {"name": args.which, "n": ground.n, "check": args.check, "passed": passed,
         "detail": detail},
        args.out,
    )
    return 0 if passed else 1


def _cmd_decompose(args) -> int:
    y = DualVector.from_json_dict(_load_json(args.y))
    violation = _dual_cone_violation(y)
    if violation is not None:
        _emit_json({"in_cone": False, "terms": [], "violation": violation}, args.out)
        return 1
    reconstructed = [Fraction(0)] * (1 << y.ground.n)
    terms = []
    for antichain, weight in conic_decompose(y):
        try:
            text = str(weight)
        except ValueError:
            raise ValueError(
                f"the weight of class {antichain.tag()} has more than {_max_digits()} digits, "
                "past the interpreter's limit for writing an int"
            ) from None
        for t, v in enumerate(y_of_class(antichain).values):
            reconstructed[t] += weight * v
        terms.append({"class": antichain.tag(), "weight": text})
    exact = tuple(reconstructed) == tuple(y.values)
    _emit_json({"in_cone": True, "terms": terms, "reconstruction_exact": exact}, args.out)
    return 0 if exact else 1


def _cmd_rays(args) -> int:
    # no --method: the default source per n; dd names the computed rays
    rays = supermodular_rays(_ground(args), {"dd": "computed"}.get(args.method, args.method))
    _emit_json([ray.to_json_dict() for ray in rays], args.out)
    return 0


def _cmd_transform(args) -> int:
    imset = imset_from_json_dict(_load_json(args.infile))
    src = KIND_ALIASES[args.src] if args.src else None
    dst = KIND_ALIASES[args.to]
    actual = imset._kind
    if src is not None and src != actual:
        raise ValueError(f"input file holds a {actual!r} vector, not {src!r}")
    if dst != actual:
        if (actual, dst) not in _CONVERSIONS:
            raise ValueError(f"a {actual} imset does not determine an eta vector")
        imset = _CONVERSIONS[actual, dst](imset)
    _emit_json(imset.to_json_dict(), args.out)
    return 0


def _add_n(p) -> None:
    p.add_argument("--n", type=int, required=True, help="ground-set size")


def _add_box(p) -> None:
    p.add_argument("--box", choices=("01", "default"), default="default")


def _scan_options(p) -> None:
    _add_n(p)
    p.add_argument("--framework", choices=("u", "c"), required=True)
    p.add_argument(
        "--families", help="comma-separated family names (default: all for the framework)"
    )
    _add_box(p)


def _compare_options(p) -> None:
    _add_n(p)
    _add_box(p)


def _example_options(p) -> None:
    p.add_argument("--id", type=int, required=True, choices=range(1, 9), metavar="1..8")


def _encode_options(p) -> None:
    p.add_argument("--graph", required=True, help="JSON file with labels and edges")
    p.add_argument("--as", dest="as_kind", choices=tuple(_ENCODERS), required=True)


def _constraints_options(p) -> None:
    _add_n(p)
    p.add_argument("--framework", choices=("eta", "u", "c"), required=True)
    p.add_argument("--families")
    p.add_argument("--format", choices=("json", "lp"), default="json")


def _matrix_options(p) -> None:
    p.add_argument("--which", choices=tuple(MATRIX_BUILDERS), required=True)
    _add_n(p)
    p.add_argument("--check", choices=("hnf", "unimodular", "tu", "products"))
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument(
        "--dummy-row",
        action="store_true",
        help="append the empty-set balancing row (matrix E only; not with "
        "--check products, which always reads it)",
    )


def _decompose_options(p) -> None:
    p.add_argument("--y", required=True, help="JSON file with labels and entries")


def _rays_options(p) -> None:
    _add_n(p)
    p.add_argument(
        "--method", choices=("builtin", "dd"), help="default: builtin at n = 3, dd otherwise"
    )


def _transform_options(p) -> None:
    p.add_argument(
        "--from",
        dest="src",
        choices=tuple(KIND_ALIASES),
        help="expected kind of the input (validated against the file)",
    )
    p.add_argument("--to", choices=tuple(KIND_ALIASES), required=True)
    p.add_argument("--in", dest="infile", required=True, help="imset JSON file")


# name -> (help, a function adding the options before --out, handler), in
# the order the help lists them; every command takes --out last
COMMANDS = {
    "census": ("count acyclic digraphs and their classes", _add_n, _cmd_census),
    "scan": (
        "enumerate box lattice points satisfying chosen row families",
        _scan_options,
        _cmd_scan,
    ),
    "compare-relaxations": (
        "check the lattice containment between the two u-framework relaxations",
        _compare_options,
        _cmd_compare,
    ),
    "example": ("run a bundled three-variable reference check", _example_options, _cmd_example),
    "encode": ("encode a digraph JSON file as a vector", _encode_options, _cmd_encode),
    "constraints": (
        "emit a constraint system as JSON or LP",
        _constraints_options,
        _cmd_constraints,
    ),
    "matrix": ("emit or check a catalog matrix", _matrix_options, _cmd_matrix),
    "decompose": (
        "decompose a dual vector over extreme class vectors",
        _decompose_options,
        _cmd_decompose,
    ),
    "rays": ("list extreme supermodular rays", _rays_options, _cmd_rays),
    "transform": ("convert one vector encoding to another", _transform_options, _cmd_transform),
}

_PROG = "imsetpoly"


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, add_options, handler = COMMANDS[name]
    add_options(p)
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=handler)
    return p


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command `name` alone; it parses the words after the
    name into a namespace that already holds `command`."""
    return _add_command(argparse.ArgumentParser(prog=f"{_PROG} {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Exact-arithmetic encodings, constraint systems, and "
        "verification experiments for graphical-structure vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """A line whose first word names a command is parsed, and refused, by
    that command's parser alone; any other line by the full parser."""
    if argv and argv[0] in COMMANDS:
        return _command_parser(argv[0]).parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    t0 = time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        # RuntimeError covers ConeViolationError: exit 1 means a failed
        # verification with a witness, never a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
