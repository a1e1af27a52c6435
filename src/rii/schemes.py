"""Recurrence coefficient schemes and perturbation records.

A scheme supplies the data of the three-term recurrence

    P_{n+1}(z) = rho_n (z - c_n) P_n(z) - lambda_n W_n(z) P_{n-1}(z)

where the weight factor W_n(z) depends on the scheme kind:

* "general": W_n(z) = (z - a_n)(z - b_n) with exact (possibly Gaussian
  rational, conjugate-pair) nodes a_n, b_n;
* "special": a_n = i*omega, b_n = -i*omega for all n, so W_n(z) = z^2 + omega^2
  with real rational coefficients;
* "oprl":    W_n(z) = 1, the classical real-line three-term recurrence.

Coefficients are total functions of the index; they may be passed as a single
constant, a finite table (list — queries past the end raise SchemeIndexError),
or a callable rule.  lambda_n is only ever queried for n >= 1.

A Perturbation optionally shifts one recurrence center (co-recursion,
c_k -> c_k + mu) and/or scales one coefficient (co-dilation,
lambda_kp -> nu * lambda_kp, kp >= 1).  Both may be present, at equal or
different levels, in either order.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import PerturbationError, SchemeIndexError
from .exact import GaussianRational, format_rational, integer, named_rational, rational
from .poly import Poly


def _tabulated(values, name):
    """fn(n) -> values[n]; an index past either end raises SchemeIndexError."""
    def tabulated(n, _t=tuple(values)):
        if n < 0 or n >= len(_t):
            raise SchemeIndexError(name, n, len(_t))
        return _t[n]

    return tabulated


def _entry(name, coerce, value):
    """coerce(value); its TypeError or ValueError is raised again naming the entry."""
    try:
        return coerce(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)("%s: %s" % (name, exc)) from None


def _coefficient(name, value):
    """value as a Fraction: a Fraction as it is, else `_entry(name, rational, value)`."""
    return value if isinstance(value, Fraction) else _entry(name, rational, value)


def as_coeff_fn(spec, name):
    """Normalize a constant / list / callable coefficient spec to fn(n); an
    entry that is not a rational raises TypeError or ValueError naming it."""
    if callable(spec):
        return spec
    if isinstance(spec, (list, tuple)):
        return _tabulated([_coefficient(name, v) for v in spec], name)
    value = _coefficient(name, spec)

    def constant(n, _v=value):
        return _v

    return constant


def _node_value(v):
    """Coerce a node spec entry to Fraction or GaussianRational."""
    if isinstance(v, GaussianRational):
        return v.simplify()
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return GaussianRational(rational(v[0]), rational(v[1])).simplify()
    return rational(v)


def _node_pairs(nodes):
    """fn(n) -> (a_n, b_n) of a list of pairs; any other data raises TypeError
    (or ValueError, for a value that is not a rational) naming the entry."""
    if not isinstance(nodes, (list, tuple)):
        raise TypeError("nodes must be a list of pairs [a_n, b_n], got %r" % (nodes,))
    pairs = []
    for n, pair in enumerate(nodes):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TypeError("nodes[%d] must be a pair [a_n, b_n], got %r" % (n, pair))
        pairs.append(_entry("nodes[%d]" % n, lambda p: tuple(map(_node_value, p)), pair))
    return _tabulated(pairs, "nodes")


class CoefficientScheme:
    """Immutable bundle of recurrence data (rho_n, c_n, lambda_n, W_n).

    It keeps the specs it is given (`as_coeff_fn`'s, and nodes: a callable
    n -> (a_n, b_n) or a list of pairs), so `to_dict` writes them back."""

    def __init__(self, rho, c, lam, kind, omega=None, nodes=None):
        self._specs = (rho, c, lam, nodes)
        self._nodes = nodes if nodes is None or callable(nodes) else _node_pairs(nodes)
        self.rho = as_coeff_fn(rho, "rho")
        self.c = as_coeff_fn(c, "c")
        self.lam = as_coeff_fn(lam, "lambda")
        if kind not in ("general", "special", "oprl"):
            raise ValueError("unknown scheme kind %r" % (kind,))
        self.kind = kind
        self.omega = _entry("omega", rational, omega) if omega is not None else None
        if kind == "special":
            if self.omega is None or self.omega == 0:
                raise ValueError("special form requires a nonzero omega")
        if kind == "general" and nodes is None:
            raise ValueError("general form requires nodes")
        # W_n does not depend on n for these kinds: one shared (immutable) Poly;
        # the general form builds each W_n once, on first use
        self._weight = None
        self._weights = {}
        if kind == "oprl":
            self._weight = Poly.one()
        elif kind == "special":
            self._weight = Poly((self.omega * self.omega, 0, 1))
        # the exact step data of the unperturbed recurrence, which
        # `rii.sequences` fills on first use (`sequences._table`)
        self._table = None

    # --- constructors ---------------------------------------------------
    @staticmethod
    def special(rho, c, lam, omega):
        return CoefficientScheme(rho, c, lam, "special", omega=omega)

    @staticmethod
    def general(rho, c, lam, nodes):
        """nodes: callable n -> (a_n, b_n), or a list of pairs."""
        return CoefficientScheme(rho, c, lam, "general", nodes=nodes)

    @staticmethod
    def oprl(rho, c, lam):
        return CoefficientScheme(rho, c, lam, "oprl")

    # --- weight factor ----------------------------------------------------
    def nodes(self, n):
        """(a_n, b_n) as exact scalars; the special form derives them."""
        if self.kind == "special":
            i = GaussianRational.i()
            return (i * self.omega, -(i * self.omega))
        if self.kind == "oprl":
            raise ValueError("oprl schemes have no quadratic nodes")
        a, b = self._nodes(n)
        return (_node_value(a), _node_value(b))

    def weight_poly(self, n):
        """W_n(z) as a Poly: (z-a_n)(z-b_n), z^2+omega^2, or 1; one Poly per n."""
        if self._weight is not None:
            return self._weight
        weight = self._weights.get(n)
        if weight is None:
            a, b = self.nodes(n)
            weight = self._weights[n] = Poly((a * b, -(a + b), 1))
        return weight

    def weight_at(self, n, z):
        """W_n(z); a float or complex z gives the exact value at the point it
        stores, rounded once."""
        return self.weight_poly(n)(z)

    # --- serialization ------------------------------------------------
    def to_dict(self):
        """The specs as JSON data; a callable (rule-based) spec raises ValueError."""
        rho, c, lam, nodes = self._specs
        out = {"rho": _enc_coeff(rho), "c": _enc_coeff(c), "lambda": _enc_coeff(lam)}
        if self.kind == "special":
            out["omega"] = format_rational(self.omega)
        elif self.kind == "general":
            if callable(nodes):
                raise ValueError("rule-based nodes are not serializable")
            out["nodes"] = [[_enc_node(a), _enc_node(b)] for a, b in nodes]
        else:
            out["kind"] = "oprl"
        return out

    @staticmethod
    def from_dict(data):
        """Inverse of to_dict; data that is not a scheme raises ValueError naming it.

        The kind follows from the fields: omega makes it special, nodes
        general, neither oprl.  A "kind" entry (null counts as absent) must
        name that same kind."""
        if not isinstance(data, dict) or not {"rho", "c", "lambda"} <= data.keys():
            raise ValueError("a scheme is an object with 'rho', 'c' and 'lambda'")
        omega, nodes, kind = data.get("omega"), data.get("nodes"), data.get("kind")
        inferred = "special" if omega is not None else "general" if nodes is not None else "oprl"
        try:
            if omega is not None and nodes is not None:
                raise ValueError("a scheme has omega or nodes, not both")
            if kind is not None and kind != inferred:
                if kind not in ("general", "special", "oprl"):
                    raise ValueError("unknown scheme kind %r" % (kind,))
                raise ValueError("kind %r %s" % (kind, _KIND_FIELDS[kind]))
            return CoefficientScheme(data["rho"], data["c"], data["lambda"], inferred,
                                     omega=omega, nodes=nodes)
        except (TypeError, ValueError) as exc:
            raise ValueError("malformed scheme: %s" % exc) from None

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text):
        return CoefficientScheme.from_dict(json.loads(text))


# what a scheme dict of each kind holds besides rho, c and lambda
_KIND_FIELDS = {"special": "needs omega", "general": "needs nodes",
                "oprl": "takes neither omega nor nodes"}


def _require_fields(record, name, fields):
    """ValueError naming `name` unless record is an object holding every field."""
    if not isinstance(record, dict):
        raise ValueError("%s must be an object with %s, got %r"
                         % (name, " and ".join(fields), record))
    missing = [field for field in fields if field not in record]
    if missing:
        raise ValueError("%s lacks %s" % (name, " and ".join(missing)))


def _enc_coeff(spec):
    if callable(spec):
        raise ValueError("rule-based coefficients are not serializable")
    if isinstance(spec, (list, tuple)):
        return [format_rational(rational(v)) for v in spec]
    return format_rational(rational(spec))


def _enc_node(v):
    value = _node_value(v)
    if isinstance(value, GaussianRational):
        return [format_rational(value.re), format_rational(value.im)]
    return format_rational(value)


def cauchy_scheme():
    """The worked-example scheme: rho=1, c=0, lambda=1/4, omega=1.

    Its first-kind polynomials are orthogonal for the Cauchy density
    1/(pi*(1+x^2)); nodes are cot(j*pi/(n+1)) and calibrated weights 1/(n+1).
    """
    return CoefficientScheme.special(1, 0, Fraction(1, 4), 1)


class Perturbation:
    """Optional co-recursion (k, mu) and co-dilation (kp, nu) records."""

    __slots__ = ("k", "mu", "kp", "nu")

    def __init__(self, k=None, mu=None, kp=None, nu=None):
        if (k is None) != (mu is None):
            raise PerturbationError("co-recursion needs both k and mu")
        if (kp is None) != (nu is None):
            raise PerturbationError("co-dilation needs both kp and nu")
        if k is not None:
            if k < 0:
                raise PerturbationError("co-recursion index k must be >= 0")
            mu = rational(mu)
        if kp is not None:
            if kp < 1:
                raise PerturbationError(
                    "co-dilation index kp must be >= 1 (lambda_n exists for n >= 1)")
            nu = rational(nu)
            if nu <= 0:
                raise PerturbationError("co-dilation factor nu must be positive")
        self.k = k
        self.mu = mu
        self.kp = kp
        self.nu = nu

    # --- constructors ---------------------------------------------------
    @staticmethod
    def none():
        return Perturbation()

    @staticmethod
    def corec(k, mu):
        return Perturbation(k=k, mu=mu)

    @staticmethod
    def codil(kp, nu):
        return Perturbation(kp=kp, nu=nu)

    @staticmethod
    def both(k, mu, kp, nu):
        return Perturbation(k=k, mu=mu, kp=kp, nu=nu)

    # --- queries ----------------------------------------------------------
    def max_level(self):
        """Largest perturbed recurrence index, or -1 when empty."""
        levels = [lvl for lvl in (self.k, self.kp) if lvl is not None]
        return max(levels) if levels else -1

    def center(self, scheme, n):
        """Effective center c_n (+ mu at n = k)."""
        c = scheme.c(n)
        if self.k is not None and n == self.k:
            c = c + self.mu
        return c

    def coefficient(self, scheme, n):
        """Effective lambda_n (* nu at n = kp)."""
        lam = scheme.lam(n)
        if self.kp is not None and n == self.kp:
            lam = lam * self.nu
        return lam

    # --- serialization ------------------------------------------------
    def to_dict(self):
        out = {}
        if self.k is not None:
            out["corec"] = {"k": self.k, "mu": format_rational(self.mu)}
        if self.kp is not None:
            out["codil"] = {"kp": self.kp, "nu": format_rational(self.nu)}
        return out

    @staticmethod
    def from_dict(data, name="perturbation"):
        """Inverse of to_dict; data that is not an object, a part (corec or
        codil) that is not an object with both its fields, a level that is not
        an integer, or a mu or nu that is not a rational, raises ValueError
        naming it (name, name.corec, name.k, name.mu, ...).  A null part is
        an absent one."""
        if not isinstance(data, dict):
            raise ValueError("%s must be an object, got %r" % (name, data))
        k = mu = kp = nu = None
        corec, codil = data.get("corec"), data.get("codil")
        if corec is not None:
            _require_fields(corec, name + ".corec", ("k", "mu"))
            k = integer(corec["k"], name + ".k")
            mu = named_rational(corec["mu"], name + ".mu")
        if codil is not None:
            _require_fields(codil, name + ".codil", ("kp", "nu"))
            kp = integer(codil["kp"], name + ".kp")
            nu = named_rational(codil["nu"], name + ".nu")
        return Perturbation(k=k, mu=mu, kp=kp, nu=nu)

    def __eq__(self, other):
        if not isinstance(other, Perturbation):
            return NotImplemented
        return (self.k, self.mu, self.kp, self.nu) == (other.k, other.mu, other.kp, other.nu)

    def __hash__(self):
        return hash((self.k, self.mu, self.kp, self.nu))

    def __repr__(self):
        bits = []
        if self.k is not None:
            bits.append("k=%d, mu=%s" % (self.k, self.mu))
        if self.kp is not None:
            bits.append("kp=%d, nu=%s" % (self.kp, self.nu))
        return "Perturbation(%s)" % ", ".join(bits)
