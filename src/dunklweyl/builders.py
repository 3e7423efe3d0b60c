"""Registry of named operators of the Dunkl oscillator model.

Every operator is parametric in the dimension and the deformation
parameters mu_i.  Six generators are built in code: the coordinate x<k>,
the derivative d<k>, the reflection R<k> and the parameter mu<k> (times
the identity) of each variable, and the scalars i and sqrt2 (times the
identity).  Every other operator is defined once, as a text of the
expression language over earlier names, and evaluated by
``dsl.parse_eval``, which resolves each name it reads through the cached
``build``: composite operators (ladder squares, Schwinger bilinears, Hahn
and superalgebra generators) are assembled by multiplying previously
built parts, never hand-expanded, so the registry itself exercises the
algebra.  A definition writes ^ where it raises to a power and * where it
multiplies, so ``J+^2`` records its base and ``A+1*A-2`` stays factored
(see ``opalg``).

Every name is declared once, as a key of one of five tables: the
generators _GENERATORS (valid in any dimension) and _VARIABLE_GENERATORS
(a kind such as "x", named "x1" .. "x{dims}"), and the definitions
_GLOBAL (valid in any dimension, written for the dimension),
_TWO_VARIABLE (valid only when dims is 2) and _PER_VARIABLE (a kind such
as "A+", whose text names its own variable as {k}).  One table per
dimension, written from those five, maps every valid name to its
generator or its definition text: names() is its keys, the name surface
the expression language looks each word up in, and build() looks every
name up in it, so a name lexes and builds exactly when it is listed.
Adding an operator is adding one entry.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, KeysView, Union

from dunklweyl.opalg import OperatorElement
from dunklweyl.scalars import I, SQRT2, Scalar

OperatorName = str

# The largest dimension any name is built or lexed for: the name table,
# and every operator built, grow with the number of variables.
MAX_DIMS = 16

# The generators valid in every dimension.
_GENERATORS: Dict[OperatorName, Callable[[int], OperatorElement]] = {
    "i": lambda n: I * OperatorElement.identity(n),
    "sqrt2": lambda n: SQRT2 * OperatorElement.identity(n),
}

# The generators of variable k, built from (k - 1, dims).
_VARIABLE_GENERATORS: Dict[str, Callable[[int, int], OperatorElement]] = {
    "x": OperatorElement.x,
    "d": OperatorElement.d,
    "R": OperatorElement.r,
    "mu": lambda i, n: Scalar.parameter(i, n) * OperatorElement.identity(n),
}


def _sum(kind: str, n: int) -> str:
    """The text of sum_k {kind}{k} over n variables."""
    return " + ".join(f"{kind}{k}" for k in range(1, n + 1))


# Names valid in every dimension, each the text written for n variables.
_GLOBAL: Dict[OperatorName, Callable[[int], str]] = {
    "H": lambda n: _sum("H", n),
    # sum_k Q<k>*R<k+1>*...*R<n>
    "Q_susy": lambda n: " + ".join(
        "*".join([f"Q{k}"] + [f"R{j}" for j in range(k + 1, n + 1)])
        for k in range(1, n + 1)),
    "H_susy": lambda n: _sum("H_susy", n),
}

# Names valid in two dimensions only.
_TWO_VARIABLE: Dict[OperatorName, str] = {
    "J+": "A+1*A-2",
    "J-": "A-1*A+2",
    "J0": "H1 - H2",
    "C": "J0*J0 + 2*{J+, J-} + 2*(mu1*R1 + mu2*R2) + 4*mu1*mu2*P",
    "P": "R1*R2",
    "K+": "J+^2",
    "K-": "J-^2",
    "K0": "J0/8",
    "K1": "(K+ + K- + J0^2/2)/8",
    "K2": "[K0, K1]",
    "E0": "J0/8",
    "E1": "(J+^2 + J-^2 + J0^2/2)/8",
    "E2": "(J+^2 - J-^2)/16",
    "F+": "J+",
    "F-": "J-",
    # The fully gauged two-variable oscillator, entered from its explicit
    # display; equality with Htilde1 + Htilde2 is a verified relation,
    # not a definition.
    "Htilde": ("-(1/2)*(d1^2 + d2^2)"
               " + (1/2)*(x1^2 + x2^2 + mu1^2*x1^-2 + mu2^2*x2^-2)"
               " - (1/2)*mu1*x1^-2*R1 - (1/2)*mu2*x2^-2*R2"),
    # The central parts of the cubic and Hahn structure constants; H is
    # central, so these are constants over the center.
    "gamma1": "3 - H*H - 2*mu1^2 - 2*mu2^2",
    "gamma2": "2*mu1^2 - 2*mu2^2",
    "omega1": "gamma1/2",
    "omega2": "gamma2/2",
    "delta": "(H*H - 1)/2",
    # The gauge-frame symmetry generators of the supersymmetric oscillator.
    "Jtilde+": "Atilde+1*Atilde-2",
    "Jtilde-": "Atilde-1*Atilde+2",
    "Jtilde0": "Htilde1 - Htilde2",
    "Ktilde+": "Jtilde+*Jtilde+",
    "Ktilde-": "Jtilde-*Jtilde-",
}

# Kinds named {kind}{k} for each variable k = 1..dims; {k} in the text is
# that variable's number.
_PER_VARIABLE: Dict[str, str] = {
    "D": "d{k} + mu{k}*x{k}^-1*(1 - R{k})",
    "H": "-(1/2)*D{k}*D{k} + (1/2)*x{k}*x{k}",
    "A+": "(x{k} - D{k})/sqrt2",
    "A-": "(x{k} + D{k})/sqrt2",
    "A0": "H{k}",
    "B+": "A+{k}^2/2",
    "B-": "A-{k}^2/2",
    "Htilde": ("(1/2)*(-d{k}*d{k} + x{k}*x{k} + mu{k}^2*x{k}^-1*x{k}^-1"
               " - mu{k}*x{k}^-1*x{k}^-1*R{k})"),
    "Atilde+": "(x{k} - d{k} + mu{k}*x{k}^-1*R{k})/sqrt2",
    "Atilde-": "(x{k} + d{k} - mu{k}*x{k}^-1*R{k})/sqrt2",
    "Qc": "(Atilde-{k} - Atilde+{k})*R{k}/2",
    "Sc": "R{k}*(Atilde+{k} + Atilde-{k})/(2*i)",
    "Hc": "Qc{k}^2",
    "Kc": "Sc{k}^2",
    "Dc": "-(1/2)*acomm(Qc{k}, Sc{k})",
    "Q": "(d{k}*R{k} + x{k} - mu{k}*x{k}^-1)/sqrt2",
    "H_susy": "Q{k}^2",
}


def check_dims(dims: int) -> None:
    """Refuse a dimension outside 1..MAX_DIMS."""
    if dims < 1:
        raise ValueError("dims must be at least 1")
    if dims > MAX_DIMS:
        raise ValueError(f"dims must be at most {MAX_DIMS}")


# One table per dims; it refuses a dims past MAX_DIMS before it is
# cached, so none is ever evicted.
@lru_cache(maxsize=MAX_DIMS)
def _table(dims: int) -> Dict[OperatorName,
                              Union[Callable[[], OperatorElement], str]]:
    """Every name valid at this dimension to its generator bound to its
    variable and dims, or to its definition text."""
    check_dims(dims)
    table = {name: partial(make, dims) for name, make in _GENERATORS.items()}
    table.update((name, text(dims)) for name, text in _GLOBAL.items())
    if dims == 2:
        table.update(_TWO_VARIABLE)
    for k in range(1, dims + 1):
        table.update((f"{kind}{k}", partial(make, k - 1, dims))
                     for kind, make in _VARIABLE_GENERATORS.items())
        table.update((f"{kind}{k}", text.format(k=k))
                     for kind, text in _PER_VARIABLE.items())
    return table


def _build(name: OperatorName, dims: int) -> OperatorElement:
    entry = _table(dims).get(name)
    if entry is None:
        raise KeyError(f"unknown operator name: {name!r}")
    if isinstance(entry, str):
        # Imported here: dsl lexes from names() and resolves through build.
        from dunklweyl.dsl import parse_eval
        return parse_eval(entry, dims)
    return entry()


@lru_cache(maxsize=None)
def build(name: OperatorName, dims: int) -> OperatorElement:
    """Construct a registry operator for the given dimension."""
    return _build(name, dims)


def names(dims: int) -> KeysView[OperatorName]:
    """All registry names valid at this dimension, a view of the one name
    table: the whole name surface of the expression language."""
    return _table(dims).keys()
