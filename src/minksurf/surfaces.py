"""Surface definitions: the expression-file format, the built-in catalog,
and evaluation of immersions into jets.

A surface is an immersion x(u, v) into Minkowski 4-space given by four
component expressions, a parameter binding, and a sample rectangle.
The text format is line oriented:

    name = my-surface          # optional, at most once
    param a = 1.5              # repeatable, once per name
    domain = [-1,1]x[-1,1]     # at most once, defaults to [-1,1]x[-1,1]
    tags = flat, parallel-h    # optional; accepted and not kept
    x1 = a*cosh(u)
    x2 = a*sinh(u)
    x3 = a*cos(v)
    x4 = a*sin(v)

Statements may also be separated by ';' on a single line.  '#' starts a
comment.  ``tags`` and ``notes`` (free text to the end of its line) are
read and dropped: a spec carries no catalog metadata.
"""

import functools
import math
import re
from collections import namedtuple
from typing import Mapping, NamedTuple, Optional, Union

from . import expr as ex
from .expr import Expr, ParseError, parse_expression
from .jets import Jet, jet_variable

__all__ = [
    "Domain",
    "SurfaceSpec",
    "UnknownSurface",
    "MissingParameter",
    "parse_surface",
    "catalog_lookup",
    "catalog_names",
    "catalog_entry",
    "evaluate_immersion",
    "cell_centers",
]


class UnknownSurface(Exception):
    """Catalog lookup with a name that is not in the catalog."""


class MissingParameter(Exception):
    """A required surface parameter was not supplied."""


class Domain(namedtuple("Domain", "u_min u_max v_min v_max")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a width is finite only if both of its bounds are
        widths = (self.u_max - self.u_min, self.v_max - self.v_min)
        if not all(map(math.isfinite, widths)):
            raise ValueError(f"domain bounds and widths must be finite, "
                             f"got {self.as_tuple()}")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError(f"empty domain {self!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, skip __new__
        return cls(*iterable)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


DEFAULT_DOMAIN = Domain(-1.0, 1.0, -1.0, 1.0)


class SurfaceSpec(namedtuple("SurfaceSpec", "name components params domain",
                             defaults=({}, DEFAULT_DOMAIN))):
    """Four component expressions plus parameters and a sample domain.

    Components are expression plans (see ``expr``) over the coordinates
    u, v and the keys of ``params``.  A spec holds its own dict of the
    parameters, each converted to a finite float.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        name, components, params, domain = super().__new__(cls, *args, **kwargs)
        if len(components) != 4:
            raise ValueError("an immersion needs exactly 4 components")
        numbers = {pname: _parameter(pname, value)
                   for pname, value in params.items()}
        allowed = {"u", "v", *numbers}
        for k, comp in enumerate(components, start=1):
            loose = ex.free_identifiers(comp) - allowed
            if loose:
                raise ex.UnknownIdentifier(
                    f"x{k} references undeclared identifiers {sorted(loose)}", 0, 0)
        return super().__new__(cls, name, components, numbers, domain)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, skip __new__
        return cls(*iterable)


def _parameter(pname: str, value) -> float:
    """The value of parameter ``pname`` as a finite float; u, v and the
    function names are not parameter names."""
    if pname in ("u", "v") or pname in ex.FUNCTION_NAMES:
        raise ValueError(f"reserved parameter name {pname!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"parameter {pname!r} must be a number, "
                         f"got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"parameter {pname!r} must be finite, got {value!r}")
    return number


# -- text format (its patterns compile on first use, in re's cache) --------

def _float_or_error(text: str, what: str, line: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what}: not a number: {text!r}", line, col) from None
    if not math.isfinite(value):
        raise ParseError(f"{what}: not finite: {text!r}", line, col)
    return value


def parse_surface(text: str) -> SurfaceSpec:
    """Parse the surface text format (newline or ';' separated statements)."""
    statements: list[tuple[int, int, str]] = []  # (line, column, stmt)
    # only '\n' ends a line, as in the expression scanner
    for line_no, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        # a line's statements: each starts at a character that is neither
        # ';' nor a blank and runs to the next ';', or on a notes line (free
        # text, where ';' is content) to the end
        notes = body.split("=", 1)[0].strip() == "notes"
        for m in re.finditer(r"\S.*" if notes else r"[^;\s][^;]*", body):
            statements.append((line_no, m.start() + 1, m.group().rstrip()))

    name = "user-surface"
    params: dict[str, float] = {}
    domain: Optional[Domain] = None
    comp_sources: dict[int, tuple[str, int, int]] = {}
    seen: set[str] = set()
    last_line = 1

    for line_no, col, stmt in statements:
        last_line = line_no
        if "=" not in stmt:
            raise ParseError(f"expected 'key = value', found {stmt!r}", line_no, col)
        key, value = stmt.split("=", 1)
        key = key.strip()
        value_col = col + stmt.index("=") + 1 + (len(value) - len(value.lstrip()))
        value = value.strip()
        if not value:
            raise ParseError(f"missing value for {key!r}", line_no, col)
        if key in seen and key in ("name", "domain"):
            raise ParseError(f"duplicate {key} statement", line_no, col)
        seen.add(key)
        if key == "name":
            name = value.strip("\"'")
        elif key.startswith("param"):
            parts = key.split()
            if len(parts) != 2 or parts[0] != "param":
                raise ParseError(f"malformed parameter statement {stmt!r}", line_no, col)
            pname = parts[1]
            if pname in params:
                raise ParseError(f"duplicate parameter {pname!r}", line_no, col)
            params[pname] = _float_or_error(value, f"param {pname}", line_no, value_col)
        elif key == "domain":
            m = re.match(r"^\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]\s*x"
                         r"\s*\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]$", value)
            if not m:
                raise ParseError(
                    f"domain must look like [a,b]x[c,d], found {value!r}",
                    line_no, value_col)
            nums = [_float_or_error(g, "domain bound", line_no, value_col)
                    for g in m.groups()]
            try:
                domain = Domain(*nums)
            except ValueError as err:
                raise ParseError(str(err), line_no, value_col) from None
        elif key in ("tags", "notes"):
            pass  # catalog metadata, which no spec carries
        elif re.fullmatch(r"x[1-4]", key):
            idx = int(key[1])
            if idx in comp_sources:
                raise ParseError(f"duplicate component {key}", line_no, col)
            comp_sources[idx] = (value, line_no, value_col)
        else:
            raise ParseError(f"unknown statement key {key!r}", line_no, col)

    missing = sorted(set(range(1, 5)) - set(comp_sources))
    if missing:
        raise ParseError(
            f"missing component(s) {', '.join('x%d' % m for m in missing)}",
            last_line, 1)

    declared = frozenset(params)
    components = tuple(
        parse_expression(src, declared, line0=line_no, col0=col0)
        for idx, (src, line_no, col0) in sorted(comp_sources.items()))
    return SurfaceSpec(name=name, components=components, params=params,
                       domain=domain or DEFAULT_DOMAIN)


# -- catalog ---------------------------------------------------------------

class _CatalogEntry(NamedTuple):
    name: str
    components: tuple[str, str, str, str]
    float_params: tuple[tuple[str, float], ...] = ()
    # each is a whole component, spliced verbatim, e.g. the graph height
    expr_params: tuple[str, ...] = ()
    domain: Domain = DEFAULT_DOMAIN
    tags: frozenset = frozenset()
    notes: str = ""


_CATALOG: dict[str, _CatalogEntry] = {}


def _register(entry: _CatalogEntry) -> None:
    _CATALOG[entry.name] = entry


_register(_CatalogEntry(
    name="plane",
    components=("0", "u", "v", "0"),
    tags=frozenset({"flat", "maximal", "flat-normal-bundle", "harmonic-gauss-map"}),
    notes="totally geodesic coordinate plane; constant Gauss map",
))

_register(_CatalogEntry(
    name="graph",
    components=("phi", "u", "v", "phi"),
    expr_params=("phi",),
    tags=frozenset(),
    notes="graph over the (u,v) plane inside a degenerate hyperplane; "
          "the induced metric is the identity for every height function",
))

_register(_CatalogEntry(
    name="type-i",
    components=(
        "(1 - b)/2*u^2 + (1 + b)/2*v^2",
        "u",
        "v",
        "(1 - b)/2*u^2 + (1 + b)/2*v^2",
    ),
    float_params=(("b", 0.5),),
    tags=frozenset({"flat", "marginally-trapped", "parallel-h",
                    "harmonic-gauss-map", "biharmonic"}),
))

_register(_CatalogEntry(
    name="type-ii",
    components=("a*cosh(u)", "a*sinh(u)", "a*cos(v)", "a*sin(v)"),
    float_params=(("a", 1.0),),
    tags=frozenset({"flat", "marginally-trapped", "parallel-h",
                    "harmonic-gauss-map"}),
    notes="the quoted one-variable form a(cosh u, sinh u, cos u, sin u) is "
          "a curve; the two-variable surface carrying the stated properties "
          "is implemented",
))

_register(_CatalogEntry(
    name="s31-flat",
    components=(
        "r/2*(u^2 + v^2)",
        "u",
        "v",
        "r/2*(u^2 + v^2) - 1/r",
    ),
    float_params=(("r", 1.0),),
    tags=frozenset({"flat", "marginally-trapped", "parallel-h",
                    "harmonic-gauss-map", "in-s31"}),
))

_register(_CatalogEntry(
    name="h3-flat",
    components=(
        "1/r + r/2*(u^2 + v^2)",
        "u",
        "v",
        "r/2*(u^2 + v^2)",
    ),
    float_params=(("r", 1.0),),
    tags=frozenset({"flat", "marginally-trapped", "parallel-h",
                    "harmonic-gauss-map", "in-h3"}),
))

_register(_CatalogEntry(
    name="example52",
    components=(
        "(u*cosh(sqrt(2)*v))/sqrt(2)",
        "(u*sinh(sqrt(2)*v))/sqrt(2)",
        "(sqrt(2)*sin(sqrt(2)*u) - u*cos(sqrt(2)*u))/sqrt(2)",
        "(sqrt(2)*cos(sqrt(2)*u) + u*sin(sqrt(2)*u))/sqrt(2)",
    ),
    domain=Domain(0.5, 2.0, -1.0, 1.0),
    tags=frozenset({"marginally-trapped", "parallel-h", "flat-normal-bundle",
                    "first-kind-gauss-map"}),
    notes="singular at u = 0, hence the shifted sample domain",
))

_register(_CatalogEntry(
    name="product",
    components=("a*cosh(u)", "a*sinh(u)", "b*cos(v)", "b*sin(v)"),
    float_params=(("a", 1.0), ("b", 2.0)),
    tags=frozenset({"flat", "parallel-h", "flat-normal-bundle",
                    "first-kind-gauss-map"}),
    notes="product of a hyperbola branch and a circle; lies in a quadric "
          "of squared radius b^2 - a^2 when that is nonzero",
))


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog_entry(name: str) -> _CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownSurface(
            f"unknown surface {name!r}; available: {', '.join(catalog_names())}"
        ) from None


@functools.cache
def _entry_plans(name: str) -> tuple[Optional[Expr], ...]:
    # The plan of each component of a catalog entry, parsed once per
    # process, or None for a component that a splice replaces.  Keyed by
    # the entry's name: a key made of plans would conflate ("const", -0.0)
    # with ("const", 0.0), since tuples compare and hash by value.
    entry = _CATALOG[name]
    declared = (frozenset(p for p, _ in entry.float_params)
                | frozenset(entry.expr_params))
    return tuple(None if src in entry.expr_params
                 else parse_expression(src, declared)
                 for src in entry.components)


def catalog_lookup(name: str,
                   params: Optional[Mapping[str, Union[float, str]]] = None,
                   ) -> SurfaceSpec:
    """Instantiate a catalog surface.

    Numeric parameters default per entry when omitted.  The graph entry
    takes its height function as the expression-valued parameter ``phi``
    (a text over u and v, or a number, which is parsed from its repr)
    and has no default: the family is too wide for one representative
    to be silently assumed.  Such a parameter replaces each component
    whose whole text is its name.
    """
    entry = catalog_entry(name)
    supplied = dict(params or {})

    splices: dict[str, Expr] = {}
    for pname in entry.expr_params:
        if pname not in supplied:
            raise MissingParameter(f"surface {name!r} requires parameter {pname!r}")
        raw = supplied.pop(pname)
        if not isinstance(raw, str):
            # every plan constant is a literal the parser made, so the
            # plan survives a round trip through its text
            raw = repr(_parameter(pname, raw))
        splices[pname] = parse_expression(raw, frozenset())

    bound = {pname: supplied.pop(pname, default)
             for pname, default in entry.float_params}
    if supplied:
        raise ValueError(
            f"surface {name!r} does not take parameter(s) {sorted(supplied)}")

    components = tuple(splices[src] if plan is None else plan
                       for src, plan in zip(entry.components,
                                            _entry_plans(name)))
    return SurfaceSpec(name=name, components=components, params=bound,
                       domain=entry.domain)


# -- evaluation -------------------------------------------------------------

def evaluate_immersion(spec: SurfaceSpec, u, v, k: int,
                       ) -> tuple[Jet, Jet, Jet, Jet]:
    """Jets of the four immersion components at base point (u, v), order k.

    u and v are numbers for one point, or equal-shape arrays for a batch
    of points.
    """
    uj = jet_variable("u", u, k)
    vj = jet_variable("v", v, k)
    return tuple(ex.eval_jet(c, uj, vj, spec.params) for c in spec.components)


def cell_centers(domain: Domain, nu: int, nv: int) -> tuple[tuple[float, float], ...]:
    """Grid points at cell centers, row-major in u then v.

    Cell centers keep singular boundary edges (example52 at u = 0 when a
    user widens the domain) out of the sample set.
    """
    if nu < 2 or nv < 2:
        raise ValueError("grid needs at least 2 points per axis")
    du = (domain.u_max - domain.u_min) / nu
    dv = (domain.v_max - domain.v_min) / nv
    return tuple(
        (domain.u_min + (i + 0.5) * du, domain.v_min + (j + 0.5) * dv)
        for i in range(nu) for j in range(nv))
