"""Line-oriented text format for rings and modules (the .cmr format).

A document describes a quotient ring ``R = GF(p)[vars] / I`` together with
zero or more finitely presented graded modules over it::

    # comments start with '#' and run to end of line
    field 32003
    ring w x y z
    order grevlex
    ideal
    x^2-w*y
    y^2-x*z
    x*y-w*z
    end
    module M twists 0,1
    [ x , y ]
    [ 0 , z^2 ]
    end

Blocks:

* ``field <p>`` with ``p`` prime.
* ``ring <v1> <v2> ...`` declaring the variables in order.
* ``order grevlex|lex`` (optional; defaults to grevlex).
* ``ideal`` ... ``end``: one homogeneous polynomial per line.
* ``module <NAME> twists <t1,...,tk>`` ... ``end``: the module has k
  generators with degrees t1..tk; each row ``[ p1 , ... , pk ]`` is one
  homogeneous relation among them.

Polynomials use integer coefficients, ``*`` for products, ``^`` for powers
and ``+``/``-`` separators; no parentheses.  All polynomials must be
homogeneous; coefficients are reduced mod p on input.

``parse`` builds an :class:`InputDocument`; ``render`` prints the canonical
form, and parse -> render -> parse is the identity.
"""

from typing import List, Optional, Sequence, Tuple

from .ring import PolyRing, Polynomial, PrimeField
from .groebner import Ideal, QuotientRing
from .freemod import GradedFreeModule, GradedMatrix
from .resolution import PresentedModule

import re

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_OFFSET_RE = re.compile(r" at offset (\d+)")


class CmrError(ValueError):
    """Parse or validation error with 1-based line/column position."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            where += ": "
        super().__init__(where + message)


class ModuleBlock:
    """One named module block: generator twists plus relation rows."""

    __slots__ = ("name", "twists", "rows")

    def __init__(self, name: str, twists: Sequence[int],
                 rows: Sequence[Sequence[Polynomial]]):
        self.name = name
        self.twists = tuple(twists)
        self.rows = tuple(tuple(r) for r in rows)

    def __eq__(self, other):
        if not isinstance(other, ModuleBlock):
            return NotImplemented
        return (self.name == other.name and self.twists == other.twists
                and self.rows == other.rows)

    def __repr__(self):
        return f"<module {self.name} twists {self.twists} rows {len(self.rows)}>"


class InputDocument:
    """Parsed .cmr document: field, ring, ideal and module blocks."""

    __slots__ = ("p", "variables", "order", "ideal_gens", "modules",
                 "_ring", "_quotient")

    def __init__(self, p: int, variables: Sequence[str], order: str,
                 ideal_gens: Sequence[Polynomial],
                 modules: Sequence[ModuleBlock]):
        self.p = p
        self.variables = tuple(variables)
        self.order = order
        self.ideal_gens = tuple(ideal_gens)
        self.modules = tuple(modules)
        names = [m.name for m in self.modules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate module names")
        self._ring = None
        self._quotient = None

    def __eq__(self, other):
        if not isinstance(other, InputDocument):
            return NotImplemented
        return (self.p == other.p and self.variables == other.variables
                and self.order == other.order
                and self.ideal_gens == other.ideal_gens
                and self.modules == other.modules)

    def __repr__(self):
        return (f"<cmr GF({self.p})[{','.join(self.variables)}] "
                f"ideal({len(self.ideal_gens)}) modules({len(self.modules)})>")

    # -- engine objects --------------------------------------------------
    def ring(self) -> PolyRing:
        if self._ring is None:
            self._ring = PolyRing(PrimeField(self.p), self.variables, self.order)
        return self._ring

    def quotient(self) -> QuotientRing:
        """The quotient ring R = Q/I (with I possibly zero)."""
        if self._quotient is None:
            self._quotient = QuotientRing(self.ring(),
                                          Ideal(self.ring(), list(self.ideal_gens)))
        return self._quotient

    def module_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.modules)

    def module(self, name: str) -> PresentedModule:
        """Build the named module over R.

        ``R`` and ``k`` are built-in names (the ring and the residue field)
        unless the document defines blocks with those names.
        """
        base = self.quotient()
        for blk in self.modules:
            if blk.name == name:
                gens = GradedFreeModule(base, blk.twists)
                cols = [gens.vector_from_polys(
                            [base.nf(f) for f in row]) for row in blk.rows]
                col_twists = [gens.vector_degree(c) if c else 0 for c in cols]
                src = GradedFreeModule(base, col_twists)
                return PresentedModule(gens, GradedMatrix(src, gens, cols))
        if name == "R":
            return PresentedModule.ring_module(base)
        if name == "k":
            return PresentedModule.residue_field(base)
        raise KeyError(f"no module named {name!r} in document")


# ---------------------------------------------------------------------------
# parsing


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _poly(ring: PolyRing, text: str, lineno: int, col0: int) -> Polynomial:
    """Parse one polynomial, rebasing parser offsets to document columns."""
    try:
        f = ring.poly(text)
    except ValueError as exc:
        msg = str(exc)
        m = _OFFSET_RE.search(msg)
        col = col0
        if m:
            col = col0 + int(m.group(1))
            msg = msg[:m.start()]
        raise CmrError(msg.strip(), lineno, col) from None
    if not f.is_homogeneous():
        raise CmrError(f"inhomogeneous polynomial {text.strip()!r}",
                       lineno, col0)
    return f


def parse(text: str) -> InputDocument:
    """Parse .cmr text into a validated :class:`InputDocument`."""
    p: Optional[int] = None
    variables: Optional[Tuple[str, ...]] = None
    order: Optional[str] = None
    ring: Optional[PolyRing] = None
    ideal_gens: Optional[List[Polynomial]] = None
    modules: List[ModuleBlock] = []

    lines = text.splitlines()
    i = 0

    def need_ring(lineno: int) -> PolyRing:
        nonlocal ring
        if ring is None:
            if p is None:
                raise CmrError("'field' must come before polynomial blocks", lineno, 1)
            if variables is None:
                raise CmrError("'ring' must come before polynomial blocks", lineno, 1)
            ring = PolyRing(PrimeField(p), variables, order or "grevlex")
        return ring

    while i < len(lines):
        lineno = i + 1
        line = _strip(lines[i])
        i += 1
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "field":
            if p is not None:
                raise CmrError("duplicate 'field' directive", lineno, 1)
            if len(tokens) != 2 or not re.fullmatch(r"\d+", tokens[1]):
                raise CmrError("expected 'field <p>' with a positive integer",
                               lineno, 1)
            try:
                PrimeField(int(tokens[1]))
            except ValueError:
                raise CmrError(f"{tokens[1]} is not prime", lineno,
                               line.index(tokens[1]) + 1) from None
            p = int(tokens[1])

        elif head == "ring":
            if variables is not None:
                raise CmrError("duplicate 'ring' directive", lineno, 1)
            if len(tokens) < 2:
                raise CmrError("expected 'ring <v1> <v2> ...'", lineno, 1)
            for v in tokens[1:]:
                if not _NAME_RE.match(v):
                    raise CmrError(f"bad variable name {v!r}", lineno,
                                   line.index(v) + 1)
            if len(set(tokens[1:])) != len(tokens) - 1:
                raise CmrError("duplicate variable names", lineno, 1)
            variables = tuple(tokens[1:])

        elif head == "order":
            if order is not None:
                raise CmrError("duplicate 'order' directive", lineno, 1)
            if len(tokens) != 2 or tokens[1] not in ("grevlex", "lex"):
                raise CmrError("expected 'order grevlex' or 'order lex'",
                               lineno, 1)
            if ring is not None:
                raise CmrError("'order' must come before polynomial blocks",
                               lineno, 1)
            order = tokens[1]

        elif head == "ideal":
            if len(tokens) != 1:
                raise CmrError("'ideal' takes no arguments", lineno, 1)
            if ideal_gens is not None:
                raise CmrError("duplicate 'ideal' block", lineno, 1)
            rg = need_ring(lineno)
            ideal_gens = []
            closed = False
            while i < len(lines):
                lineno = i + 1
                body = _strip(lines[i])
                i += 1
                if not body:
                    continue
                if body == "end":
                    closed = True
                    break
                col0 = lines[i - 1].index(body[0]) + 1
                f = _poly(rg, body, lineno, col0)
                if not f.is_zero():
                    ideal_gens.append(f)
            if not closed:
                raise CmrError("'ideal' block not terminated by 'end'",
                               len(lines), 1)

        elif head == "module":
            if len(tokens) < 4 or tokens[2] != "twists":
                raise CmrError("expected 'module <NAME> twists <t1,...,tk>'",
                               lineno, 1)
            name = tokens[1]
            if not _NAME_RE.match(name):
                raise CmrError(f"bad module name {name!r}", lineno,
                               line.index(name) + 1)
            if any(m.name == name for m in modules):
                raise CmrError(f"duplicate module name {name!r}", lineno, 1)
            twist_text = "".join(tokens[3:])
            try:
                twists = tuple(int(t) for t in twist_text.split(","))
            except ValueError:
                raise CmrError(f"bad twist list {twist_text!r}", lineno,
                               1) from None
            rg = need_ring(lineno)
            gens = GradedFreeModule(rg, twists)
            rows: List[Tuple[Polynomial, ...]] = []
            closed = False
            while i < len(lines):
                lineno = i + 1
                body = _strip(lines[i])
                i += 1
                if not body:
                    continue
                if body == "end":
                    closed = True
                    break
                if not (body.startswith("[") and body.endswith("]")):
                    raise CmrError("relation row must be '[ p1 , ... , pk ]'",
                                   lineno, lines[i - 1].index(body[0]) + 1)
                inner = body[1:-1]
                base_col = lines[i - 1].index(body) + 2
                parts = inner.split(",")
                if len(parts) != len(twists):
                    raise CmrError(
                        f"row has {len(parts)} entries, module has "
                        f"{len(twists)} generators", lineno, base_col)
                row = []
                col0 = base_col
                for part in parts:
                    lead_ws = len(part) - len(part.lstrip())
                    row.append(_poly(rg, part.strip() or "0", lineno,
                                     col0 + lead_ws))
                    col0 += len(part) + 1
                vec = gens.vector_from_polys(row)
                if not gens.vector_is_homogeneous(vec):
                    raise CmrError("relation row is not homogeneous against "
                                   "the generator twists", lineno, base_col)
                rows.append(tuple(row))
            if not closed:
                raise CmrError(f"module {name!r} not terminated by 'end'",
                               len(lines), 1)
            modules.append(ModuleBlock(name, twists, rows))

        else:
            raise CmrError(f"unknown directive {head!r}", lineno,
                           lines[i - 1].index(head) + 1)

    if p is None:
        raise CmrError("missing 'field' directive")
    if variables is None:
        raise CmrError("missing 'ring' directive")
    doc = InputDocument(p, variables, order or "grevlex",
                        ideal_gens or [], modules)
    doc._ring = ring
    return doc


# ---------------------------------------------------------------------------
# printing


def render(doc: InputDocument) -> str:
    """Canonical text of a document; parse(render(doc)) == doc."""
    out = [f"field {doc.p}",
           "ring " + " ".join(doc.variables),
           f"order {doc.order}",
           "ideal"]
    out.extend(str(f) for f in doc.ideal_gens)
    out.append("end")
    for blk in doc.modules:
        out.append(f"module {blk.name} twists " +
                   ",".join(str(t) for t in blk.twists))
        for row in blk.rows:
            out.append("[ " + " , ".join(str(f) for f in row) + " ]")
        out.append("end")
    return "\n".join(out) + "\n"


def load(path) -> InputDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
