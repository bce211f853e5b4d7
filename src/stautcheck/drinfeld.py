"""Module category of the double of the two-element group, exactly.

The underlying algebra is the group algebra of Z2 x Z2 on group-like
generators g (the group part) and b (the character part), with the
quasitriangular structure

    R = 1/2 (1(x)1 + 1(x)g + b(x)1 - b(x)g).

Braiding on modules is swap after the R-action; the canonical twist is the
action of u = 1/2 (1 + g + b - bg).  The structure constants are not taken on
faith: ``verify_hopf_data`` brute-forces the quasitriangularity identities in
the 64-dimensional triple tensor algebra, and the model constructor aborts if
any of them fails.  An object's value is its dimension and character
(tr g, tr b, tr gb), which decides which homs are empty; its action matrices
are built on first use, duals acting through the transpose (the antipode is
the identity on this basis: all four basis elements are involutive).
"""

from fractions import Fraction

from .core import matrices as mx
from .core.morphisms import MorError
from .core.objects import GEN, PAR, TENS
from .linear import LinearModel, Space

HALF = Fraction(1, 2)

# Basis of the algebra: (i, j) stands for b^i g^j; all four are group-like.
BASIS = [(0, 0), (0, 1), (1, 0), (1, 1)]

# R written over basis pairs.
R_COEFFS = {((0, 0), (0, 0)): HALF, ((0, 0), (0, 1)): HALF,
            ((1, 0), (0, 0)): HALF, ((1, 0), (0, 1)): -HALF}

U_COEFFS = {(0, 0): HALF, (0, 1): HALF, (1, 0): HALF, (1, 1): -HALF}


def _mul(x, y):
    return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)


def _tensor_mul(a, b):
    """Multiply elements of a tensor power of the algebra, given as dicts
    mapping basis tuples to coefficients."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(_mul(x, y) for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def _embed(coeffs, legs, arity):
    """Place a tensor-square element into the chosen legs of a higher power."""
    out = {}
    for (x, y), v in coeffs.items():
        k = [(0, 0)] * arity
        k[legs[0]], k[legs[1]] = x, y
        out[tuple(k)] = v
    return out


def verify_hopf_data():
    """Brute-force the quasitriangularity of R; returns the violated identity
    name or None."""
    delta_id = {(x, x, y): v for (x, y), v in R_COEFFS.items()}
    r13r23 = _tensor_mul(_embed(R_COEFFS, (0, 2), 3), _embed(R_COEFFS, (1, 2), 3))
    if delta_id != r13r23:
        return "(coproduct x id)(R) = R13 R23"
    id_delta = {(x, y, y): v for (x, y), v in R_COEFFS.items()}
    r13r12 = _tensor_mul(_embed(R_COEFFS, (0, 2), 3), _embed(R_COEFFS, (0, 1), 3))
    if id_delta != r13r12:
        return "(id x coproduct)(R) = R13 R12"
    for u in BASIS:
        lhs = _tensor_mul({(u, u): Fraction(1)}, _embed(R_COEFFS, (0, 1), 2))
        rhs = _tensor_mul(_embed(R_COEFFS, (0, 1), 2), {(u, u): Fraction(1)})
        if lhs != rhs:
            return "R intertwines the coproduct"
    if _tensor_mul(R_COEFFS, R_COEFFS) != {((0, 0), (0, 0)): Fraction(1)}:
        return "R is involutive"
    # u is group-central (the algebra is commutative) and involutive.
    if _tensor_mul({(k,): v for k, v in U_COEFFS.items()},
                   {(k,): v for k, v in U_COEFFS.items()}) != {((0, 0),): Fraction(1)}:
        return "twist element squares to 1"
    return None


def _check_action(name, act_g, act_b):
    """The dimension and character of the module of these int actions."""
    n = len(act_g)
    eye = mx.identity(n)
    if mx.matmul(act_g, act_g) != eye:
        raise MorError(f"module {name}: g action is not involutive")
    if mx.matmul(act_b, act_b) != eye:
        raise MorError(f"module {name}: b action is not involutive")
    if mx.matmul(act_g, act_b) != mx.matmul(act_b, act_g):
        raise MorError(f"module {name}: g and b actions do not commute")
    return Space(n, tuple(sum(dict(row).get(i, 0) for i, row in enumerate(a))
                          for a in (act_g, act_b, mx.matmul(act_g, act_b))))


class DoubleZ2Model(LinearModel):
    """Finite-dimensional modules of the double, with R-matrix braiding."""

    is_braided = True

    SIMPLE_NAMES = ("s_pp", "s_pm", "s_mp", "s_mm")

    def __init__(self, depth_limit=8):
        bad = verify_hopf_data()
        if bad is not None:
            raise MorError(f"double-of-Z2 construction failed the axiom: {bad}")
        signs = {"s_pp": (1, 1), "s_pm": (1, -1), "s_mp": (-1, 1), "s_mm": (-1, -1)}
        self._gen_actions = {name: {"g": mx.mat([[sg]]), "b": mx.mat([[sb]])}
                             for name, (sg, sb) in signs.items()}
        self._gen_actions["regular"] = {
            letter: mx.mat([[1 if BASIS[r] == _mul(x, BASIS[c]) else 0
                             for c in range(4)] for r in range(4)])
            for letter, x in (("g", (0, 1)), ("b", (1, 0)))}
        super().__init__({name: _check_action(name, a["g"], a["b"])
                          for name, a in self._gen_actions.items()}, depth_limit)
        self._actions = {}
        simples = [self.gen(n) for n in self.SIMPLE_NAMES]
        self.probes = [self.e, self.d] + simples + [self.gen("regular")]

    def describe(self):
        return "double(Z2)-modules"

    # ---------------------------------------------------------------- actions

    def action(self, ref, letter):
        """Matrix of the group-like generator on the module of ``ref``, built
        on first use: an object's value holds its character only."""
        hit = self._actions.get((ref, letter))
        if hit is None:
            hit = self._actions[ref, letter] = self._action_at(ref, letter)
        return hit

    def _action_at(self, ref, letter):
        # tensor and par act through the coproduct of the group-likes, duals
        # through the transpose; both units are the trivial module
        if ref.kind == GEN:
            return self._gen_actions[ref.args[0]][letter]
        if not ref.args:
            return mx.identity(1)
        acts = [self.action(a, letter) for a in ref.args]
        return mx.kron(*acts) if ref.kind in (TENS, PAR) else mx.transpose(*acts)

    def _object_value(self, kind, *vs):
        if kind in (TENS, PAR):   # characters multiply; duals keep them
            (n, a), (k, b) = vs
            return Space(n * k, tuple(x * y for x, y in zip(a, b)))
        return vs[0] if vs else Space(1, (1, 1, 1))

    def mor(self, dom, cod, payload=None):
        """A module map: besides the checks of ``LinearModel.mor``, the
        matrix must commute with the g and b actions."""
        f = super().mor(dom, cod, payload)
        for letter in ("g", "b"):
            if (mx.matmul(payload, self.action(dom, letter))
                    != mx.matmul(self.action(cod, letter), payload)):
                raise MorError(f"{dom} -> {cod} is not a module map: "
                               f"it does not commute with the {letter} action")
        return f

    def hom_span(self, p, q):
        """Basis of the module maps p -> q, by exact commutant solving."""
        def build():
            dp, dq = self.dim(p), self.dim(q)
            # X, flattened row-major, commutes with a letter when
            # (a_q (x) 1 - 1 (x) a_p^T) vec(X) = 0
            rows = ()
            for letter in ("g", "b"):
                left = mx.kron(self.action(q, letter), mx.identity(dp))
                right = mx.kron(mx.identity(dq), mx.transpose(self.action(p, letter)))
                rows += mx.add(left, mx.scale(-1, right)).rows
            return [self.mor(p, q, mx.mat(v[i:i + dp] for i in range(0, dq * dp, dp)))
                    for v in mx.dense(mx.nullspace(mx.Matrix(rows, dq * dp)))]
        return self._structural(("span", p, q), build)

    # ----------------------------------------------------------------- braid

    def braid(self, p, q):
        def build():
            ip, iq = mx.identity(self.dim(p)), mx.identity(self.dim(q))
            r_act = mx.zeros(self.dim(p) * self.dim(q), self.dim(p) * self.dim(q))
            for (x, y), coeff in R_COEFFS.items():
                ax = self.action(p, "b") if x == (1, 0) else ip
                ay = self.action(q, "g") if y == (0, 1) else iq
                r_act = mx.add(r_act, mx.scale(coeff, mx.kron(ax, ay)))
            swap = mx.swap_matrix(self.dim(p), self.dim(q))
            return self.mor(self.tens(p, q), self.tens(q, p), mx.matmul(swap, r_act))
        return self._structural(("br", p, q), build)

    def twist_matrix(self, ref):
        """Action of the canonical twist element on the module of ``ref``."""
        n = self.dim(ref)
        eye, out = mx.identity(n), mx.zeros(n, n)
        b, g = self.action(ref, "b"), self.action(ref, "g")
        for (i, j), coeff in U_COEFFS.items():   # coeff * b^i g^j
            out = mx.add(out, mx.scale(coeff, mx.matmul(b if i else eye, g if j else eye)))
        return out


def build_drinfeld_z2(depth_limit=8):
    """Construct and internally verify the braided module model."""
    return DoubleZ2Model(depth_limit)
