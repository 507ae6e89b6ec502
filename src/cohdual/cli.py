"""Command-line front end.

Every subcommand prints a JSON document on stdout by default (mode
"document"), or a short plain-text rendering with ``--mode human``.
Every subcommand takes the four common options ``--field``, ``--trunc``,
``--out`` (a file that gets exactly what stdout gets) and ``--mode``, and
every handler ends in ``return session.emit(...)`` (or ``emit_element``),
which writes the output and returns the exit code.
Element arguments are either expression text (parsed against the chosen
shape, box, and field) or ``@path`` pointing at an element document.
Every element written, nested ones included, is over that field; one read
from a document over another field is refused as it meets or is written.

Shapes are spelled ``R`` (all series), ``E`` (all inverse), ``H:i``
(inverse on the first i variables), ``D:i`` (its dual), or an explicit
comma list of roles, which carries its own variable count (``-n`` must
match it); the letter forms take ``-n``, 2 by default.  ``-n`` is at least 1.

A JSON config file named by the ``COHDUAL_CONFIG`` environment variable
may preset the common options (field, trunc, mode, seed); explicit flags
win over the file.

Exit codes: 0 success (or certificate issued), 1 a verification failed,
2 the window was too short to conclude, 64 usage or malformed input,
70 an internal error (any other exception, reported in one line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import (
    INVERSE,
    SERIES,
    ModuleShape,
    TruncationBox,
    derivation_act,
    ring_act,
)
from .exprio import (
    _SIGNED_INT_RE,
    element_from_document,
    new_document,
    parse_element,
    read_document,
    serialize_element,
    to_document,
    write_document,
)
from .fields import field_from_descriptor, mixed_fields

USAGE_EXIT = 64
SOFTWARE_EXIT = 70

# the names of checks.suite_names(), spelled out so that building the parser
# does not import the checks and everything they test
SUITE_NAMES = ("algebra", "cech", "duality", "independence", "io", "all")


def _integer(text: str) -> int:
    """Read a command-line integer in ASCII digits, as the expression reader
    does; ``int`` alone would take digits of any script and underscores."""
    text = text.strip()
    if not _SIGNED_INT_RE.fullmatch(text):
        raise ValueError(f"invalid literal for int(): {text!r}")
    return int(text)


_integer.__name__ = "int"  # argparse names the type in "invalid int value: ..."


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exceptions."""

    def error(self, message):
        raise _UsageError(message)


def _is_role_list(spec: str) -> bool:
    return "," in spec or spec.strip() in (SERIES, INVERSE)


def parse_shape_spec(spec: str, n: int | None = None) -> ModuleShape:
    """Read a shape from its command-line spelling."""
    spec = spec.strip()
    if _is_role_list(spec):
        shape = ModuleShape(tuple(part.strip() for part in spec.split(",")))
        if n is not None and shape.nvars != n:
            raise ValueError(f"shape {spec!r} has {shape.nvars} variables, not {n}")
        return shape
    if n is None:
        raise ValueError(f"shape {spec!r} needs the variable count (-n)")
    if spec == "R":
        return ModuleShape.series_shape(n)
    if spec == "E":
        return ModuleShape.inverse_shape(n)
    if spec.startswith(("H:", "D:")):
        try:
            i = _integer(spec[2:])
        except ValueError:
            raise ValueError(f"cannot read the position in {spec!r}") from None
        shape = ModuleShape.cohomology_shape(n, i)
        return shape.dual() if spec.startswith("D:") else shape
    raise ValueError(f"cannot read shape {spec!r}")


def _integers(spec: str, sep: str, what: str, count: int | None = None) -> tuple[int, ...]:
    """The integers ``sep`` separates in ``spec``, ``count`` of them if given;
    otherwise a ValueError "cannot read ``what`` ``spec``"."""
    parts = spec.split(sep)
    try:
        if count not in (None, len(parts)):
            raise ValueError
        return tuple(map(_integer, parts))
    except ValueError:
        raise ValueError(f"cannot read {what} {spec!r}") from None


def _parse_box_spec(spec: str) -> TruncationBox:
    return TruncationBox(_integers(spec, ",", "box bounds from"))


_CONFIG_KEYS = ("field", "trunc", "mode", "seed")


def _config_defaults() -> dict:
    path = os.environ.get("COHDUAL_CONFIG")
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise _UsageError("config file must hold a JSON object")
    unknown = set(config) - set(_CONFIG_KEYS)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        wanted = str if key in ("field", "mode") else int
        if type(value) is not wanted:  # exact type: a JSON true is not the int 1
            raise _UsageError(f"config key {key!r} needs a JSON "
                              f"{'string' if wanted is str else 'integer'}, got {value!r}")
    return config


class _Session:
    """Resolved common options plus the element-loading helpers."""

    def __init__(self, args, config):
        self.args = args
        self.field_text = args.field or config.get("field", "rational")
        self.field = field_from_descriptor(self.field_text)
        self.trunc = args.trunc if args.trunc is not None else config.get("trunc", 8)
        if self.trunc < 0:
            raise ValueError("truncation bound must be nonnegative")
        self.mode = args.mode or config.get("mode", "document")
        if self.mode not in ("document", "human"):
            raise _UsageError(f"unknown mode {self.mode!r}")
        seed = getattr(args, "seed", None)
        self.seed = seed if seed is not None else config.get("seed")

    def shape_and_box(self):
        """--shape (default D:1) with -n (2 for a letter form); --box, else uniform."""
        spec, n = self.args.shape or "D:1", self.args.nvars
        if n is not None and n < 1:
            raise _UsageError(f"-n must be at least 1, got {n}")
        if n is None and not _is_role_list(spec):
            n = 2
        shape = parse_shape_spec(spec, n)
        box_spec = getattr(self.args, "box", None)
        if box_spec is not None:
            return shape, _parse_box_spec(box_spec)
        return shape, TruncationBox.uniform(shape.nvars, self.trunc)

    def load_element(self, token, shape, box):
        if token.startswith("@"):
            return element_from_document(read_document(token[1:]))
        return parse_element(token, shape, box, self.field)

    def emit(self, doc, human_lines, code: int = 0) -> int:
        """Write the document, or the lines in human mode, to stdout and to
        --out; return the exit code."""
        if self.mode == "document":
            payload = write_document(doc, path=self.args.out)
            sys.stdout.write(payload.decode("ascii"))
        else:
            text = "\n".join(human_lines) + "\n"
            if self.args.out:
                Path(self.args.out).write_text(text)
            sys.stdout.write(text)
        return code

    def check_field(self, element) -> None:
        """Refuse an element, to be written, over another field than the request's."""
        if element.field != self.field:
            raise mixed_fields(element.field, self.field)

    def emit_element(self, element) -> int:
        self.check_field(element)
        return self.emit(to_document(element), [serialize_element(element)])


def _cmd_cohomology(session: _Session) -> int:
    from .cech import verify_realization

    args = session.args
    report = verify_realization(args.nvars, args.index, args.window)
    lines = [
        f"degree {degree}: dims {dims}"
        for degree, dims in report.table.entries
        if any(dims)
    ]
    lines.append(f"nonzero slices: {report.nonzero_count}")
    lines.append("verified: " + ("yes" if report.passed else "no"))
    return session.emit(to_document(report), lines, 0 if report.passed else 1)


def _cmd_dfam(session: _Session) -> int:
    from .independence import make_d

    args = session.args
    box = _parse_box_spec(args.box) if args.box else None
    return session.emit_element(make_d(args.power, args.lmax, box, session.field))


def _cmd_delta(session: _Session) -> int:
    from .independence import delta, fit_shift_form

    args = session.args
    if (args.fit is None) != (args.tail_start is None):
        raise _UsageError("--fit and --tail-start need each other")
    shape, box = session.shape_and_box()
    element = session.load_element(args.element, shape, box)
    window = _integers(args.window, ":", "the window LO:HI from", 2) if args.window else None
    profile = delta(element, window)
    doc = to_document(profile)
    lines = [f"window [{profile.start}, {profile.end}]"]
    lines += [
        f"degree {profile.start + k}: "
        + ("zero coefficient" if v is None else str(v))
        for k, v in enumerate(profile.entries)
    ]
    code = 0
    if args.fit is not None:
        fit = fit_shift_form(profile, args.fit, args.tail_start)
        doc["fit"] = None if fit is None else list(fit)
        doc["fit_power"] = args.fit
        doc["tail_start"] = args.tail_start
        lines.append(f"fit: {fit}")
        code = 1 if fit is None else 0
    return session.emit(doc, lines, code)


def _cmd_act(session: _Session) -> int:
    args = session.args
    shape, box = session.shape_and_box()
    element = session.load_element(args.element, shape, box)
    n = element.shape.nvars
    poly_shape = ModuleShape.series_shape(n)
    poly = session.load_element(args.poly, poly_shape,
                                TruncationBox.uniform(n, session.trunc))
    return session.emit_element(ring_act(poly, element))


def _cmd_derive(session: _Session) -> int:
    args = session.args
    shape, box = session.shape_and_box()
    element = session.load_element(args.element, shape, box)
    return session.emit_element(derivation_act(args.variable, element))


def _cmd_pair(session: _Session) -> int:
    from .duality import matlis_pair

    args = session.args
    shape, box = session.shape_and_box()
    dual = session.load_element(args.dual, shape.dual(), box)
    element = session.load_element(args.element, shape, box)
    out_box = _parse_box_spec(args.out_box) if args.out_box else None
    return session.emit_element(matlis_pair(dual, element, out_box))


def _cmd_gamma(session: _Session) -> int:
    from .duality import gamma_of_shape

    shape, _ = session.shape_and_box()
    gens = _integers(session.args.gens, ",", "the variable indices I,J,... from --gens")
    result = gamma_of_shape(shape, gens)
    doc = new_document("torsion_support", {
        "roles": list(shape.roles),
        "generators": list(gens),
        "result": result,
    })
    return session.emit(doc, [f"torsion support: {result}"])


def _cmd_regular(session: _Session) -> int:
    from .duality import regular_on_dual_check

    args = session.args
    report = regular_on_dual_check(args.nvars, args.index, args.bound)
    lines = [
        f"variable {step.variable}: domain {step.domain_dim}, "
        f"kernel {step.kernel_dim}"
        for step in report.steps
    ]
    lines.append(f"final quotient: roles {report.final_roles}, "
                 f"dimension {report.final_dim}")
    lines.append("verified: " + ("yes" if report.passed else "no"))
    return session.emit(to_document(report), lines, 0 if report.passed else 1)


def _cmd_check(session: _Session) -> int:
    from .checks import DEFAULT_SEED, run_suite

    seed = DEFAULT_SEED if session.seed is None else session.seed
    report = run_suite(session.args.suite, seed)
    lines = []
    for line in report.lines:
        mark = "ok  " if line.passed else "FAIL"
        text = f"{mark} {line.name} ({line.instances} instances)"
        if line.detail:
            text += f": {line.detail}"
        lines.append(text)
    lines.append(f"suite {report.suite} with seed {report.seed}: "
                 + ("all passed" if report.passed else "FAILED"))
    return session.emit(to_document(report), lines, 0 if report.passed else 1)


def _cmd_indep(session: _Session) -> int:
    from .independence import InconclusiveWindowError, independence_certificate

    args = session.args
    shape = ModuleShape.series_shape(2)
    box = TruncationBox.uniform(2, session.trunc)
    r_list = tuple(session.load_element(token, shape, box) for token in args.polys)
    try:
        cert = independence_certificate(r_list, args.lmax)
    except InconclusiveWindowError as exc:
        doc = new_document("inconclusive_window", {
            "lmax": args.lmax,
            "required_lmax": exc.required_lmax,
        })
        return session.emit(doc, [f"inconclusive: {exc}"], 2)
    session.check_field(cert.decomposition.g)
    return session.emit(to_document(cert), [
        f"top index: {cert.m0}",
        f"shifts: a={cert.a}, b={cert.b}",
        f"tail verified from degree {cert.tail_start} to {cert.lmax}",
        "combination is nonzero: yes",
    ])


def _command(commands, name, handler, help):
    """Add the subcommand ``name``, which ``handler`` answers."""
    sub = commands.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    return sub


def _add_element_options(sub) -> None:
    sub.add_argument("-n", "--nvars", type=_integer, help="number of variables")
    sub.add_argument("--shape", help="element shape (default D:1)")
    sub.add_argument("--box", help="comma-separated box bounds")


def build_parser() -> _Parser:
    parser = _Parser(prog="cohdual", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = _command(commands, "cohomology", _cmd_cohomology,
                   "sweep a degree window and verify the support")
    sub.add_argument("-n", "--nvars", type=_integer, required=True)
    sub.add_argument("-i", "--index", type=_integer, required=True)
    sub.add_argument("--window", type=_integer, default=3)

    sub = _command(commands, "dfam", _cmd_dfam, "emit a truncation of the d-family")
    sub.add_argument("--power", type=_integer, required=True)
    sub.add_argument("--lmax", type=_integer, required=True)
    sub.add_argument("--box", help="comma-separated box bounds")

    sub = _command(commands, "delta", _cmd_delta, "minimal-exponent profile of an element")
    sub.add_argument("element", help="expression or @document")
    sub.add_argument("--window", help="degree window LO:HI")
    sub.add_argument("--fit", type=_integer, help="fit the tail against this power")
    sub.add_argument("--tail-start", type=_integer)
    _add_element_options(sub)

    sub = _command(commands, "act", _cmd_act, "act by a polynomial on an element")
    sub.add_argument("poly", help="polynomial expression or @document")
    sub.add_argument("element", help="expression or @document")
    _add_element_options(sub)

    sub = _command(commands, "derive", _cmd_derive, "apply the derivation along one variable")
    sub.add_argument("-j", "--variable", type=_integer, required=True)
    sub.add_argument("element", help="expression or @document")
    _add_element_options(sub)

    sub = _command(commands, "pair", _cmd_pair,
                   "Matlis pairing of a dual element against an element")
    sub.add_argument("dual", help="dual-shape expression or @document")
    sub.add_argument("element", help="expression or @document")
    sub.add_argument("--out-box", help="bounds for the paired result")
    _add_element_options(sub)

    sub = _command(commands, "gamma", _cmd_gamma,
                   "torsion support of a shape under chosen variables")
    sub.add_argument("--shape", required=True)
    sub.add_argument("-n", "--nvars", type=_integer)
    sub.add_argument("--gens", required=True, help="comma-separated variable indices")

    sub = _command(commands, "regular", _cmd_regular,
                   "check the variables form a regular sequence on the dual")
    sub.add_argument("-n", "--nvars", type=_integer, required=True)
    sub.add_argument("-i", "--index", type=_integer, required=True)
    sub.add_argument("--bound", type=_integer, default=4)

    sub = _command(commands, "check", _cmd_check, "run a named verification suite")
    sub.add_argument("--suite", choices=SUITE_NAMES, default="all")
    sub.add_argument("--seed", type=_integer)

    sub = _command(commands, "indep", _cmd_indep,
                   "certify a combination of the d-family is nonzero")
    sub.add_argument("polys", nargs="+", help="coefficient polynomials, lowest power first")
    sub.add_argument("--lmax", type=_integer, default=12)

    for sub in commands.choices.values():  # the common options, last in every --help
        sub.add_argument("--field", help="coefficient field: rational or prime:p")
        sub.add_argument("--trunc", type=_integer,
                         help="uniform truncation bound for parsed expressions")
        sub.add_argument("--out", help="also write the output to this file")
        sub.add_argument("--mode", choices=("document", "human"),
                         help="output as a JSON document (default) or plain text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = _config_defaults()
        args = parser.parse_args(argv)
        session = _Session(args, config)
        return args.handler(session)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    except (ValueError, OSError) as exc:
        # ParseError, SchemaError and DegenerateInputError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return SOFTWARE_EXIT


def entrypoint() -> None:
    sys.exit(main())
