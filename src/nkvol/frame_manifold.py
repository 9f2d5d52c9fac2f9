"""Homogeneous coframe models: structure constants, invariant calculus, manifests.

A model is an invariant coframe e^1..e^n with constant structure coefficients
c^i_{jk}, encoding d e^i = -1/2 c^i_{jk} e^j ^ e^k and the frame brackets
[e_j, e_k] = c^i_{jk} e_i.  All geometry downstream (exterior derivative,
Levi-Civita data, Nijenhuis tensors) reduces to finite linear algebra in these
coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb, inf
from typing import NamedTuple

import numpy as np

from .multilinear import (EPS3, Form, Metric, _tuple_position, index_tuples, substitution,
                          two_form_coeffs)
from .acs import project_to_acs
from .conventions import CATALOG_NAMES, within

__all__ = [
    "CoframeAlgebra",
    "JacobiReport",
    "Manifest",
    "catalog",
    "check_jacobi",
    "covariant_derivative_form",
    "d_invariant",
    "levi_civita",
]


@dataclass(frozen=True)
class CoframeAlgebra:
    """An n-dimensional invariant coframe with structure constants c^i_{jk}."""

    structure_constants: np.ndarray  # shape (n, n, n): c[i, j, k] = c^i_{jk}

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=np.float64)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure constants must have shape (n, n, n)")
        if not np.array_equal(c, -np.swapaxes(c, 1, 2)):
            raise ValueError("structure constants must be exactly antisymmetric in (j, k)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "structure_constants", c)

    @property
    def dimension(self) -> int:
        return self.structure_constants.shape[0]

    @cached_property
    def coframe_differentials(self) -> tuple[Form, ...]:
        """d e^i = -1/2 c^i_{jk} e^j ^ e^k as 2-forms."""
        # only j < k is read; the factor 1/2 cancels against the (j,k)/(k,j) pair
        n = self.dimension
        return tuple(Form(n, 2, a) for a in two_form_coeffs(-self.structure_constants))

    @cached_property
    def d_matrices(self) -> tuple[np.ndarray, ...]:
        """The differential on degree-k coefficient vectors, k = 0..n-1."""
        de = np.array([f.coeffs for f in self.coframe_differentials]).T
        return tuple(substitution(de, 2, k) for k in range(self.dimension))


def d_invariant(alg: CoframeAlgebra, a: Form) -> Form:
    """Maurer-Cartan differential extended as an antiderivation to all degrees."""
    n, k = a.dimension, a.degree
    if n != alg.dimension:
        raise ValueError("form dimension does not match the algebra")
    if k >= n:
        raise ValueError("cannot differentiate a top-degree form")
    return Form(n, k + 1, alg.d_matrices[k] @ a.coeffs)


class JacobiReport(NamedTuple):
    holds: bool
    residual_dd: float      # max_i |d(d e^i)|
    residual_bracket: float  # max over the cyclic bracket sums


def check_jacobi(alg: CoframeAlgebra) -> JacobiReport:
    """Well-posedness gate: d after d annihilates the coframe iff Jacobi holds.

    Both formulations are computed; they must agree (this is asserted by the
    test-suite on valid and invalid constants, not silently assumed here).
    """
    n = alg.dimension
    # for n <= 2 the 2-forms d e^i are top-degree or absent, so d d = 0
    # trivially; np.max, unlike the builtin max, keeps a NaN norm
    dd = [d_invariant(alg, de).norm() for de in alg.coframe_differentials] if n > 2 else []
    res_dd = float(np.max(dd, initial=0.0))
    c = alg.structure_constants
    # sum_m ( c^m_{jk} c^l_{im} + c^m_{ki} c^l_{jm} + c^m_{ij} c^l_{km} )
    cyc = (
        np.einsum("mjk,lim->lijk", c, c)
        + np.einsum("mki,ljm->lijk", c, c)
        + np.einsum("mij,lkm->lijk", c, c)
    )
    res_br = float(np.max(np.abs(cyc))) if cyc.size else 0.0
    return JacobiReport(holds=within(res_dd, "jacobi"), residual_dd=res_dd, residual_bracket=res_br)


def levi_civita(alg: CoframeAlgebra, g: Metric) -> np.ndarray:
    """Koszul connection coefficients Gamma[k, i, j]: nabla_{e_i} e_j = Gamma^k_{ij} e_k.

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j)
    """
    n = alg.dimension
    if g.dimension != n:
        raise ValueError("metric dimension mismatch")
    c = alg.structure_constants
    gm = g.matrix
    # b[i, j, k] = g([e_i, e_j], e_k)
    b = np.einsum("mij,mk->ijk", c, gm)
    rhs = 0.5 * (b - np.einsum("jki->ijk", b) + np.einsum("kij->ijk", b))
    ginv = g.inverse()
    # Gamma^m_{ij} g_{mk} = rhs[i, j, k]
    gamma = np.einsum("km,ijm->kij", ginv, rhs)
    return gamma


def covariant_derivative_form(gamma: np.ndarray, a: Form) -> tuple[Form, ...]:
    """The family (nabla_{e_i} a)_i for an invariant form: pure connection terms."""
    # nabla_{e_i} acts on tangent vectors by the matrix gamma[:, i, :] and on
    # forms by minus the derivation action of its transpose
    n = gamma.shape[1]
    return tuple(Form(n, a.degree, -substitution(gamma[:, i, :].T, 1, a.degree) @ a.coeffs)
                 for i in range(n))


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

_MANIFEST_FIELDS = {"name", "dimension", "structure_constants", "J", "metric", "omega", "Omega3"}


class Manifest(NamedTuple):
    """Serializable model description; see the JSON schema in the README."""

    name: str
    dimension: int
    structure_constants: np.ndarray
    J: np.ndarray | None = None
    metric: np.ndarray | None = None
    omega: Form | None = None
    Omega3: Form | None = None

    def algebra(self) -> CoframeAlgebra:
        return CoframeAlgebra(self.structure_constants)

    # -- serialization -------------------------------------------------------

    @staticmethod
    def from_dict(data: dict) -> "Manifest":
        if not isinstance(data, dict):
            raise ValueError("manifest must be a JSON object")
        unknown = set(data) - _MANIFEST_FIELDS
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        for req in ("name", "dimension", "structure_constants"):
            if req not in data:
                raise ValueError(f"manifest missing required field '{req}'")
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError("field 'name' must be a JSON string")
        n = data["dimension"]
        if not _is_int(n) or not (1 <= n <= 7):
            raise ValueError("dimension must be an integer in 1..7")
        c = np.zeros((n, n, n), dtype=np.float64)
        seen = set()
        for entry in _entries(data["structure_constants"], "structure_constants"):
            keys = set(entry)
            if keys != {"i", "j", "k", "value"}:
                raise ValueError(f"bad structure-constant entry keys: {sorted(keys)}")
            i, j, k = entry["i"], entry["j"], entry["k"]
            v = _number(entry["value"], "structure_constants", entry)
            for ix in (i, j, k):
                if not _is_int(ix) or not (1 <= ix <= n):
                    raise ValueError(f"structure-constant index out of range: {entry}")
            if not j < k:
                raise ValueError(f"structure constants must be stored with j < k: {entry}")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate structure-constant entry ({i}, {j}, {k}): {entry}")
            seen.add((i, j, k))
            c[i - 1, j - 1, k - 1] = v
            c[i - 1, k - 1, j - 1] = -v
        _require_finite(c, "structure_constants")
        J = _read_matrix(data.get("J"), n, "J")
        metric = _read_matrix(data.get("metric"), n, "metric")
        omega = _read_form(data.get("omega"), n, 2, "omega")
        Omega3 = _read_form(data.get("Omega3"), n, 3, "Omega3")
        return Manifest(name, n, c, J, metric, omega, Omega3)

    @staticmethod
    def from_json(text: str) -> "Manifest":
        return Manifest.from_dict(json.loads(text))

    @staticmethod
    def load(path) -> "Manifest":
        with open(path, "r", encoding="utf-8") as fh:
            return Manifest.from_json(fh.read())

    def to_dict(self) -> dict:
        n, c = self.dimension, self.structure_constants
        sc = [{"i": i + 1, "j": j, "k": k, "value": float(c[i, j - 1, k - 1])}
              for i in range(n) for j, k in index_tuples(n, 2) if c[i, j - 1, k - 1] != 0.0]
        out = {"name": self.name, "dimension": n, "structure_constants": sc}
        if self.J is not None:
            out["J"] = [[float(x) for x in row] for row in self.J]
        if self.metric is not None:
            out["metric"] = [[float(x) for x in row] for row in self.metric]
        if self.omega is not None:
            out["omega"] = _form_entries(self.omega)
        if self.Omega3 is not None:
            out["Omega3"] = _form_entries(self.Omega3)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _is_int(x) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _number(x, field_name: str, where) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"field '{field_name}' needs JSON numbers, got {x!r} in {where}")
    return x


def _entries(raw, field_name: str) -> list:
    """A JSON list, checked only as a container; each entry must be an object."""
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ValueError(f"field '{field_name}' must be a JSON list of objects")
    return raw


def _read_matrix(raw, n: int, field_name: str):
    if raw is None:
        return None
    if not (isinstance(raw, list) and len(raw) == n
            and all(isinstance(row, list) and len(row) == n for row in raw)):
        raise ValueError(f"field '{field_name}' must be a {n}x{n} row-major matrix")
    m = np.array([[_number(x, field_name, row) for x in row] for row in raw], dtype=np.float64)
    return _require_finite(m, field_name)


def _read_form(raw, n: int, degree: int, field_name: str):
    if raw is None:
        return None
    coeffs = np.zeros(comb(n, degree), dtype=np.complex128)
    pos = _tuple_position(n, degree)
    seen = set()
    for entry in _entries(raw, field_name):
        if set(entry) != {"indices", "re", "im"}:
            raise ValueError(f"bad {field_name} entry keys: {sorted(set(entry))}")
        idx = entry["indices"]
        if not isinstance(idx, list) or not all(_is_int(i) and 1 <= i <= n for i in idx):
            raise ValueError(f"{field_name} indices must be a list of integers in 1..{n}: {entry}")
        if tuple(idx) not in pos:  # pos holds the strictly increasing tuples of this degree
            raise ValueError(f"{field_name} indices must be strictly increasing: {entry}")
        if tuple(idx) in seen:
            raise ValueError(f"duplicate {field_name} entry {idx}: {entry}")
        seen.add(tuple(idx))
        re, im = (_number(entry[part], field_name, entry) for part in ("re", "im"))
        coeffs[pos[tuple(idx)]] = re + 1j * im
    return Form(n, degree, _require_finite(coeffs, field_name))


def _require_finite(values: np.ndarray, field_name: str) -> np.ndarray:
    # json.loads accepts NaN and Infinity
    if not np.all(np.isfinite(values)):
        raise ValueError(f"field '{field_name}' has non-finite entries")
    return values


def _form_entries(f: Form) -> list:
    out = []
    for p, idx in enumerate(index_tuples(f.dimension, f.degree)):
        c = f.coeffs[p]
        if c != 0:
            out.append({"indices": list(idx), "re": float(c.real), "im": float(c.imag)})
    return out


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _su2_block(c: np.ndarray, offset: int):
    """Write c^i_{jk} = -eps_{ijk} on indices offset..offset+2 (de^1 = e^23 cyclically)."""
    block = slice(offset, offset + 3)
    c[block, block, block] = -EPS3


def _s3s3_J() -> np.ndarray:
    # coframe action J e^i = e^{i'}, J e^{i'} = -e^i across the two factors
    J = np.zeros((6, 6))
    for i in range(3):
        J[i, i + 3] = 1.0
        J[i + 3, i] = -1.0
    return J


def catalog(name: str, seed: int | None = None, magnitude: float = 0.05) -> Manifest:
    """Built-in models.

    torus6           flat abelian coframe with the standard block J.
    s3s3             su(2)+su(2) constants normalized so d e^1 = e^23 (and
                     d e^4 = e^56), the factor-swapping J on the coframe, and
                     the identity product metric as a starting point.  This is
                     a *starting* structure: the verified solution data is
                     produced by the optimizer and stored as a derived fixture.
    s3s3_perturbed   s3s3 with a seeded pseudo-random deformation of J of the
                     given magnitude, renormalized back to an almost complex
                     structure (J^2 = -Id) by eigenspace projection.
    """
    if name == "torus6":
        # coframe action J e^{2k-1} = e^{2k}, J e^{2k} = -e^{2k-1}
        J = np.zeros((6, 6))
        J[[0, 2, 4], [1, 3, 5]], J[[1, 3, 5], [0, 2, 4]] = 1.0, -1.0
        return Manifest("torus6", 6, np.zeros((6, 6, 6)), J=J, metric=np.eye(6))
    if name == "s3s3":
        c = np.zeros((6, 6, 6))
        _su2_block(c, 0)
        _su2_block(c, 3)
        return Manifest("s3s3", 6, c, J=_s3s3_J(), metric=np.eye(6))
    if name == "s3s3_perturbed":
        if seed is None or seed < 0:
            raise ValueError(f"s3s3_perturbed requires a seed >= 0, got {seed}")
        if not 0.0 <= magnitude < inf:  # written so that NaN fails it
            raise ValueError(f"s3s3_perturbed requires a finite magnitude >= 0, got {magnitude}")
        base = catalog("s3s3")
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((6, 6))
        noise *= magnitude / np.linalg.norm(noise, 2)
        Jp = project_to_acs(base.J + noise)
        return Manifest(f"s3s3_perturbed_{seed}", 6, base.structure_constants,
                        J=Jp, metric=np.eye(6))
    raise ValueError(f"unknown catalog name '{name}' (have {CATALOG_NAMES})")
