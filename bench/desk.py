"""The ``desk`` workload: one CLI request per fresh interpreter, as a user types them.

Requests come in rounds of 17, shuffled within the round:

* 12 light requests (act, derive, pair, delta, dfam, gamma, small indep,
  and ``act 1 @doc`` re-emits), in both modes and both fields.  Some read
  ``@doc`` files that earlier requests wrote with ``--out``;
* 2 malformed requests, one usage-error class after another: bad syntax,
  an exponent of the wrong sign, an exponent outside the box, a zero
  denominator, non-integer JSON in an element document;
* 1 ``cohomology`` and 1 ``regular`` report, cycling through three fixed sizes each;
* 1 ``check`` of one small suite.

Each request is judged on its exit code, its document kind, the verdict of
report documents, and byte identity wherever a document is re-emitted or
written with ``--out``.

Two usage-error classes hit defects listed in ROADMAP item 2 in some of
their forms: a zero denominator over the rationals escapes as a
``ZeroDivisionError`` traceback, and an element document with ``true``,
``2.5`` or ``"2"`` where an integer belongs can be accepted.  The request
stream draws those classes only in the forms the program rejects (a zero
denominator over GF(p), ``null`` in a document), so no operation fails and
two runs agree on ``failed``.  The defective forms run as a fixed set of
probes after the timed loop (:data:`DEFECT_PROBES`), every run, and the
report line says for each whether the defect is still present or fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SERIES, INVERSE = "series", "inverse"
FIELDS = ("rational", "prime:32003")
NAMES = ("X", "Y", "Z")
COEFFS = ("1", "2", "3", "5", "7", "1/2", "3/4", "2/3")
LIGHT_SLOTS = ("dfam", "act", "act", "derive", "derive", "pair", "pair",
               "delta", "delta_doc", "gamma", "indep", "reemit")
# Report sizes are fixed, so every run carries the same report work and memory peak.
COHOMOLOGY_SIZES = ((6, 4, 2), (7, 3, 1), (8, 8, 1))  # (n, i, window)
REGULAR_SIZES = ((5, 5, 6), (6, 3, 4), (5, 2, 5))  # (n, i, bound)
CHECK_SUITES = ("cech", "independence", "io", "duality")
MALFORMED = ("syntax", "sign", "box", "zero_denominator", "non_integer_json")
BAD_SYNTAX = ("X^", "X +", "3/ X", "X^^2", "2 3", "(X)", "X*", "X -- Y",
              "X^1.5", "W")
# Rejected with exit 64 wherever it stands; other non-integers hit a defect.
NON_INTEGER = None
REPORT_KINDS = ("realization_check", "regularity_check", "check_report")


@dataclass
class Request:
    command: str
    argv: list
    klass: str  # light, report, check or malformed
    kinds: dict  # exit code -> document kind, for the exits that are expected
    writes: str | None = None
    reemits: str | None = None
    human: bool = False


@dataclass
class Doc:
    path: str
    field: str
    roles: tuple
    power: int | None = None  # set for d-family documents
    lmax: int | None = None


@dataclass
class BadDoc:
    path: str
    body: dict


def roles_of(form: str, n: int, i: int) -> tuple:
    if form == "R":
        return (SERIES,) * n
    if form == "E":
        return (INVERSE,) * n
    head, tail = (INVERSE, SERIES) if form == "H" else (SERIES, INVERSE)
    return (head,) * i + (tail,) * (n - i)


def element_doc(fld: str, terms: list, box=None) -> dict:
    return {"schema": "cohdual/1", "kind": "element", "field": fld,
            "shape": [SERIES, INVERSE], "box": box or [4, 4], "names": ["X", "Y"],
            "exact": True, "terms": terms, "text": ""}


# The ROADMAP item 2 defects, one request each: (defect, argv, document or None).
# A document is written to the probe's directory as probe.json first.
DEFECT_PROBES = (
    ("zero_denominator", ["act", "Y", "1/0*X", "--field", "rational"], None),
    ("zero_denominator", ["delta", "3/0", "--field", "rational"], None),
    ("non_integer_json", ["act", "1", "@probe.json", "--field", "rational"],
     element_doc("rational", [{"exponents": [1, -2], "coefficient": "1"}], [True, 4])),
    ("non_integer_json", ["derive", "-j", "1", "@probe.json", "--field", "prime:32003"],
     element_doc("prime:32003", [{"exponents": [2.5, -2], "coefficient": "1"}])),
)


def known_defect(defect: str, proc) -> str | None:
    """Name the ROADMAP item 2 defect an outcome shows, if it shows one."""
    if (defect == "zero_denominator" and proc.returncode == 1
            and b"ZeroDivisionError" in proc.stderr):
        return "zero denominator escapes as a ZeroDivisionError traceback"
    if defect == "non_integer_json" and proc.returncode == 0:
        return "element document with a non-integer JSON value accepted"
    return None


class DeskWorkload:
    in_process = False
    trace_ops = 3 * (len(LIGHT_SLOTS) + 5)  # three rounds

    def __init__(self, ctx):
        self.ctx = ctx
        self.docs: list[Doc] = []
        self.bad_docs: list[BadDoc] = []
        self.reports: list[float] = []

    # ---- generation -------------------------------------------------
    def generate(self, rng) -> list[Request]:
        requests = []
        malformed = 0
        for r in range(40):
            slots = list(LIGHT_SLOTS) + ["malformed", "malformed", "cohomology",
                                         "regular", "check"]
            rng.shuffle(slots)
            for slot in slots:
                if slot == "malformed":
                    requests.append(self.malformed(rng, MALFORMED[malformed % len(MALFORMED)]))
                    malformed += 1
                elif slot in ("cohomology", "regular", "check"):
                    requests.append(getattr(self, slot)(rng, r))
                else:
                    requests.append(getattr(self, "light_" + slot)(rng))
        return requests

    def expression(self, rng, roles, bound, terms=3) -> str:
        cells = []
        for _ in range(rng.randint(1, terms)):
            e = tuple(rng.randint(0, bound) * (1 if role == SERIES else -1) for role in roles)
            if e not in cells:
                cells.append(e)
        out = ""
        for k, e in enumerate(cells):
            coeff = rng.choice(COEFFS)
            factors = [n if v == 1 else f"{n}^{v}" for n, v in zip(NAMES, e) if v]
            body = "*".join(factors if coeff == "1" and factors else [coeff] + factors)
            # the first term stays positive so argparse never reads it as an option
            out += body if k == 0 else f" {rng.choice('+-')} {body}"
        return out

    def random_shape(self, rng, n=None):
        n = n or rng.randint(1, 3)
        form = rng.choice("REHD")
        i = rng.randint(1, n)
        spec = f"{form}:{i}" if form in "HD" else form
        return n, spec, roles_of(form, n, i)

    def common(self, rng, req: Request, fld: str, out_roles=None, doc_extra=None):
        """Add field, mode and maybe --out; register the document it writes."""
        req.argv += ["--field", fld]
        if rng.random() < 0.25:
            req.argv += ["--mode", "human"]
            req.human = True
            req.kinds = {code: None for code in req.kinds}
        elif out_roles is not None and rng.random() < 0.5:
            path = f"d{len(self.docs)}.json"
            req.argv += ["--out", path]
            req.writes = path
            self.docs.append(Doc(path, fld, out_roles, **(doc_extra or {})))
        return req

    def pick_doc(self, rng, want):
        docs = [doc for doc in self.docs if want(doc)]
        return rng.choice(docs) if docs and rng.random() < 0.6 else None

    def element_arg(self, rng, fld, trunc):
        """An element argument: an earlier document or fresh expression text."""
        doc = self.pick_doc(rng, lambda d: d.field == fld)
        if doc is not None:
            return "@" + doc.path, [], doc.roles
        n, spec, roles = self.random_shape(rng)
        return self.expression(rng, roles, trunc), ["-n", str(n), "--shape", spec], roles

    def light_act(self, rng):
        fld, trunc = rng.choice(FIELDS), rng.randint(3, 6)
        element, shape_args, roles = self.element_arg(rng, fld, trunc)
        poly = self.expression(rng, (SERIES,) * len(roles), 2)
        req = Request("act", ["act", poly, element, *shape_args, "--trunc", str(trunc)],
                      "light", {0: "element"})
        return self.common(rng, req, fld, roles)

    def light_derive(self, rng):
        fld, trunc = rng.choice(FIELDS), rng.randint(3, 6)
        element, shape_args, roles = self.element_arg(rng, fld, trunc)
        j = rng.randrange(len(roles))
        req = Request("derive", ["derive", "-j", str(j), element, *shape_args,
                                 "--trunc", str(trunc)], "light", {0: "element"})
        return self.common(rng, req, fld, roles)

    def light_pair(self, rng):
        fld, trunc = rng.choice(FIELDS), rng.randint(2, 5)
        doc = self.pick_doc(rng, lambda d: d.field == fld and d.power is None)
        if doc is not None:
            roles, element = doc.roles, "@" + doc.path
        else:
            _, _, roles = self.random_shape(rng)
            element = self.expression(rng, roles, trunc)
        flipped = tuple(INVERSE if r == SERIES else SERIES for r in roles)
        dual = self.expression(rng, flipped, trunc)
        req = Request("pair", ["pair", dual, element, "-n", str(len(roles)),
                               "--shape", ",".join(roles), "--trunc", str(trunc)],
                      "light", {0: "element"})
        return self.common(rng, req, fld, (INVERSE,) * len(roles))

    def light_delta(self, rng):
        trunc = rng.randint(3, 8)
        argv = ["delta", self.expression(rng, (SERIES, INVERSE), trunc, terms=5),
                "--trunc", str(trunc)]
        if rng.random() < 0.5:
            lo = rng.randint(0, trunc)
            argv += ["--window", f"{lo}:{rng.randint(lo, trunc)}"]
        return self.common(rng, Request("delta", argv, "light", {0: "delta_profile"}),
                           rng.choice(FIELDS))

    def light_delta_doc(self, rng):
        doc = self.pick_doc(rng, lambda d: d.power is not None)
        if doc is None:
            return self.light_delta(rng)
        argv = ["delta", "@" + doc.path]
        if rng.random() < 0.5:
            argv += ["--fit", str(doc.power), "--tail-start",
                     str(rng.randint(1, doc.lmax - 2))]
        return self.common(rng, Request("delta", argv, "light", {0: "delta_profile"}),
                           doc.field)

    def light_dfam(self, rng):
        power, lmax = rng.randint(1, 4), rng.randint(5, 30)
        req = Request("dfam", ["dfam", "--power", str(power), "--lmax", str(lmax)],
                      "light", {0: "element"})
        return self.common(rng, req, rng.choice(FIELDS), (SERIES, INVERSE),
                           {"power": power, "lmax": lmax})

    def light_gamma(self, rng):
        n, spec, _ = self.random_shape(rng, rng.randint(1, 4))
        gens = sorted(rng.sample(range(n), rng.randint(1, n)))
        argv = ["gamma", "--shape", spec, "-n", str(n),
                "--gens", ",".join(map(str, gens))]
        return self.common(rng, Request("gamma", argv, "light", {0: "torsion_support"}),
                           rng.choice(FIELDS))

    def light_indep(self, rng):
        polys = []
        for _ in range(rng.randint(1, 3)):
            cells = [(x, y) for x in range(4) for y in range(4) if x + y <= 3]
            terms = rng.sample(cells, rng.randint(1, 3))
            text = " + ".join(
                "*".join([rng.choice(COEFFS)]
                         + [f"{v}^{e}" for v, e in zip("XY", cell) if e])
                for cell in terms)
            polys.append(text)
        argv = ["indep", *polys, "--lmax", str(rng.randint(10, 40))]
        req = Request("indep", argv, "light",
                      {0: "independence_certificate", 2: "inconclusive_window"})
        return self.common(rng, req, rng.choice(FIELDS))

    def light_reemit(self, rng):
        if not self.docs:
            return self.light_act(rng)
        doc = rng.choice(self.docs)
        return Request("act", ["act", "1", "@" + doc.path, "--field", doc.field],
                       "light", {0: "element"}, reemits=doc.path)

    def cohomology(self, rng, r):
        n, i, window = COHOMOLOGY_SIZES[r % len(COHOMOLOGY_SIZES)]
        argv = ["cohomology", "-n", str(n), "-i", str(i), "--window", str(window),
                "--field", rng.choice(FIELDS)]
        return Request("cohomology", argv, "report", {0: "realization_check"})

    def regular(self, rng, r):
        n, i, bound = REGULAR_SIZES[r % len(REGULAR_SIZES)]
        argv = ["regular", "-n", str(n), "-i", str(i), "--bound", str(bound),
                "--field", rng.choice(FIELDS)]
        return Request("regular", argv, "report", {0: "regularity_check"})

    def check(self, rng, r):
        argv = ["check", "--suite", CHECK_SUITES[r % len(CHECK_SUITES)],
                "--seed", str(rng.randrange(1, 10 ** 6))]
        return Request("check", argv, "check", {0: "check_report"})

    def malformed(self, rng, defect):
        fld = rng.choice(FIELDS)
        if defect == "non_integer_json":
            return self.non_integer_doc(rng, fld)
        if defect == "syntax":
            bad = rng.choice(BAD_SYNTAX)
        elif defect == "sign":
            bad = rng.choice(("X^-2", "Y^2", "X^-1*Y^-1", "3*Y^1"))
        elif defect == "box":
            bad = rng.choice(("X^12", "Y^-15", "2*X^3*Y^-9", "X^20 + Y^-1"))
        else:
            bad = rng.choice(("1/0*X", "3/0", "2/0*Y^-1", "X + 5/0*X^2"))
            fld = FIELDS[1]  # over the rationals this is a known defect (DEFECT_PROBES)
        command = rng.choice(("act", "derive", "delta"))
        argv = {"act": ["act", "Y", bad], "derive": ["derive", "-j", "0", bad],
                "delta": ["delta", bad]}[command]
        return Request(command, argv + ["--field", fld], "malformed", {64: None})

    def non_integer_doc(self, rng, fld):
        """An element document with one integer replaced by another JSON type."""
        path = f"bad{len(self.bad_docs)}.json"
        terms = [{"exponents": [x, -y], "coefficient": "1"}
                 for x, y in {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)}]
        body = element_doc(fld, terms)
        where = body["box"] if rng.random() < 0.5 else rng.choice(terms)["exponents"]
        where[rng.randrange(2)] = NON_INTEGER
        self.bad_docs.append(BadDoc(path, body))
        command = rng.choice(("act", "derive", "delta"))
        argv = {"act": ["act", "1", "@" + path], "derive": ["derive", "-j", "1", "@" + path],
                "delta": ["delta", "@" + path]}[command]
        return Request(command, argv + ["--field", fld], "malformed", {64: None})

    # ---- running ----------------------------------------------------
    def prepare(self, phase_dir) -> None:
        for bad in self.bad_docs:
            Path(phase_dir, bad.path).write_text(json.dumps(bad.body))

    def execute(self, req: Request, phase_dir, trace_file=None):
        proc, seconds = self.ctx.cohdual(req.argv, phase_dir, trace_file)
        failure = self.judge(req, proc, phase_dir)
        if failure is None and req.klass == "report":
            self.reports.append(seconds)
        return seconds, failure

    def judge(self, req: Request, proc, phase_dir) -> str | None:
        """None when the request behaved as documented, else what went wrong."""
        where = " ".join(req.argv)
        if proc is None:
            return f"timed out: {where}"
        if proc.returncode not in req.kinds:
            return f"exit {proc.returncode} from {where}: {proc.stderr[-160:]!r}"
        if b"Traceback" in proc.stderr:
            return f"traceback from {where}"
        kind = req.kinds[proc.returncode]
        if req.human and proc.returncode == 0 and not proc.stdout.strip():
            return f"empty output from {where}"
        if kind is not None:
            try:
                doc = json.loads(proc.stdout)
            except ValueError:
                return f"no JSON document from {where}"
            if doc.get("kind") != kind:
                return f"kind {doc.get('kind')!r}, expected {kind!r}: {where}"
            if kind in REPORT_KINDS and doc.get("passed") is not True:
                return f"verification failed: {where}"
        for path in filter(None, (req.writes, req.reemits)):
            if Path(phase_dir, path).read_bytes() != proc.stdout:
                return f"{path} and stdout differ: {where}"
        return None

    def probe_defects(self, outcome) -> None:
        """Run DEFECT_PROBES; record which defects are present and which fixed.

        A probe that ends neither as documented (exit 64) nor with its
        known defect makes the run incorrect.
        """
        probe_dir = self.ctx.work / "defects"
        probe_dir.mkdir(exist_ok=True)
        probes = []
        for defect, argv, body in DEFECT_PROBES:
            if body is not None:
                Path(probe_dir, "probe.json").write_text(json.dumps(body))
            req = Request(argv[0], list(argv), "malformed", {64: None})
            proc, _ = self.ctx.cohdual(req.argv, probe_dir)
            failure = self.judge(req, proc, probe_dir)
            shown = known_defect(defect, proc) if failure and proc is not None else None
            if failure is not None and shown is None:
                outcome.note(f"defect probe: {failure}")
            probes.append({"argv": argv, "defect": defect,
                           "status": "fixed" if failure is None else
                           "present" if shown else "wrong"})
        outcome.details["known_defects"] = {
            "present": sum(p["status"] == "present" for p in probes),
            "fixed": sum(p["status"] == "fixed" for p in probes),
            "probes": probes,
        }

    def finish(self, outcome) -> None:
        if self.reports:
            outcome.details["report_p50_ms"] = sorted(self.reports)[len(self.reports) // 2] * 1000.0
        self.reports = []
        self.probe_defects(outcome)
