"""Frame algebra: structure constants, curl eigenvalues, curvatures.

A frame of three vector fields E_1, E_2, E_3 on a 3-manifold is described
algebraically by a LieFrameSpec: structure constants c[k,i,j] with
[E_i, E_j] = sum_k c[k,i,j] E_k, a diagonal metric g with (E_i, E_j) =
g_i delta_ij; (E_1, E_2, E_3) is taken positively oriented, and the opposite
handedness enters through the signs of c.  Everything in this module is exact
linear algebra on those 30 numbers; no charts and no quadrature.

Index convention: public APIs take frame legs as 1, 2, 3.  Internally arrays
are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotEigenfield

EIGEN_TOL = 1e-10  # absolute bound on off-diagonal curl components
JACOBI_TOL = 1e-12


def _as_c_array(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.shape != (3, 3, 3):
        raise ValueError(f"structure constants must be 3x3x3, got {c.shape}")
    return c


@dataclass(frozen=True, eq=False)
class LieFrameSpec:
    """Structure constants plus diagonal frame metric of a positively oriented frame.

    c[k, i, j] is the coefficient of E_k in [E_i, E_j].
    g[i] is the squared length of E_i; legs are mutually orthogonal.
    """

    name: str
    c: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        c = _as_c_array(self.c)
        g = np.asarray(self.g, dtype=float)
        if g.shape != (3,):
            raise ValueError(f"metric must have 3 entries, got shape {g.shape}")
        if np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise ValueError(f"metric entries must be positive, got {g}")
        anti = np.max(np.abs(c + np.swapaxes(c, 1, 2)))
        if anti > 1e-12:
            raise ValueError(f"structure constants not antisymmetric, residual {anti:g}")
        jac = jacobi_residual_of(c)
        if jac > JACOBI_TOL:
            raise ValueError(f"Jacobi identity residual {jac:g} exceeds {JACOBI_TOL:g}")
        c.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "g", g)

    def __repr__(self) -> str:
        return f"LieFrameSpec(name={self.name!r})"


def _leg(l) -> int:
    """Normalize a 1-based leg argument to a 0-based index."""
    if l not in (1, 2, 3):
        raise ValueError(f"frame leg must be 1, 2 or 3, got {l!r}")
    return l - 1


def jacobi_residual_of(c: np.ndarray) -> float:
    """Max norm of the Jacobi identity over all index triples.

    J(i,j,k)^m = sum_l ( c[l,i,j] c[m,l,k] + c[l,j,k] c[m,l,i] + c[l,k,i] c[m,l,j] )
    """
    c = _as_c_array(c)
    term = np.einsum("lij,mlk->mijk", c, c)
    total = term + np.transpose(term, (0, 2, 3, 1)) + np.transpose(term, (0, 3, 1, 2))
    return float(np.max(np.abs(total)))


def cyclic_constants(spec: LieFrameSpec) -> np.ndarray:
    """c_l := c[l, l+1, l+2] (cyclic), the diagonal of the curl problem."""
    c = spec.c
    return np.array([c[0, 1, 2], c[1, 2, 0], c[2, 0, 1]])


def curl_matrix(spec: LieFrameSpec) -> np.ndarray:
    """Matrix R with rot E_l = sum_k R[l, k] E_k.

    Derivation: the dual coframe satisfies d theta^k = -sum_{i<j} c[k,i,j]
    theta^i ^ theta^j, the volume form is sqrt(g1 g2 g3)
    theta^1^theta^2^theta^3, and rot is defined by i_(rot X) vol = d(X flat).
    That yields R[l, k] = -g_l c[l, k+1, k+2] / sqrt(g1 g2 g3).
    """
    c, g = spec.c, spec.g
    root = float(np.sqrt(g[0] * g[1] * g[2]))
    out = np.empty((3, 3))
    for l in range(3):
        for k in range(3):
            out[l, k] = -g[l] * c[l, (k + 1) % 3, (k + 2) % 3] / root
    return out


def curl_eigenvalue(spec: LieFrameSpec, l) -> float:
    """Eigenvalue mu_l with rot E_l = mu_l E_l.

    Raises NotEigenfield when rot E_l has an off-diagonal component above
    EIGEN_TOL, which signals a malformed spec for this leg.
    """
    l0 = _leg(l)
    row = curl_matrix(spec)[l0]
    off = np.abs(np.delete(row, l0))
    if np.any(off > EIGEN_TOL):
        raise NotEigenfield(
            f"leg {l0 + 1} of {spec.name} is not a curl eigenfield: "
            f"off-diagonal components {off}"
        )
    return float(row[l0])


def curl_eigenvalues(spec: LieFrameSpec) -> np.ndarray:
    return np.array([curl_eigenvalue(spec, l) for l in (1, 2, 3)])


def orthonormal_constants(spec: LieFrameSpec) -> np.ndarray:
    """Structure constants ct[i,j,k] of the orthonormalized frame.

    With e_i := E_i / sqrt(g_i), [e_i, e_j] = sum_k ct[i,j,k] e_k and
    ct[i,j,k] = c[k,i,j] sqrt(g_k) / (sqrt(g_i) sqrt(g_j)).
    """
    s = np.sqrt(spec.g)
    ct = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                ct[i, j, k] = spec.c[k, i, j] * s[k] / (s[i] * s[j])
    return ct


def milnor_curvatures(spec: LieFrameSpec) -> tuple[float, float, float]:
    """Sectional curvatures of the frame planes (1,2), (1,3), (2,3).

    Levi-Civita connection in the orthonormal frame via the Koszul formula
    (inner products are constant, so only bracket terms survive):
    Gamma[i,j,k] = (ct[i,j,k] - ct[j,k,i] + ct[k,i,j]) / 2, and
    K(i,j) = sum_m ( Gamma[j,j,m] Gamma[i,m,i] - Gamma[i,j,m] Gamma[j,m,i]
                     - ct[i,j,m] Gamma[m,j,i] ).
    """
    ct = orthonormal_constants(spec)
    # gam[i,j,k] = (ct[i,j,k] - ct[j,k,i] + ct[k,i,j]) / 2
    gam = (ct - np.transpose(ct, (2, 0, 1)) + np.transpose(ct, (1, 2, 0))) / 2.0

    def k_plane(i: int, j: int) -> float:
        acc = 0.0
        for m in range(3):
            acc += gam[j, j, m] * gam[i, m, i]
            acc -= gam[i, j, m] * gam[j, m, i]
            acc -= ct[i, j, m] * gam[m, j, i]
        return acc

    return (k_plane(0, 1), k_plane(0, 2), k_plane(1, 2))


def helicity_density_algebraic(spec: LieFrameSpec, l) -> float:
    """(E_l, rot E_l) for an eigenfield leg: mu_l * g_l."""
    l0 = _leg(l)
    return curl_eigenvalue(spec, l0 + 1) * float(spec.g[l0])


def triple_density_algebraic(spec: LieFrameSpec) -> float:
    """Coefficient of the frame's Cartan 3-form against the metric volume.

    (1/2) sum_l c_l g_l / sqrt(g1 g2 g3); equals 3 for the unit
    quaternion frame.  Cross-checked against a representation-theoretic
    wedge evaluation in the chart modules.
    """
    g = spec.g
    root = float(np.sqrt(g[0] * g[1] * g[2]))
    return float(0.5 * np.sum(cyclic_constants(spec) * g) / root)


# ---------------------------------------------------------------------------
# Spec fleet


def _cyclic_c(c1: float, c2: float, c3: float) -> np.ndarray:
    """Dense constants for a purely cyclic algebra [E_{l+1}, E_{l+2}] = c_l E_l."""
    c = np.zeros((3, 3, 3))
    for l, v in enumerate((c1, c2, c3)):
        i, j = (l + 1) % 3, (l + 2) % 3
        c[l, i, j] = v
        c[l, j, i] = -v
    return c


def su2_unit() -> LieFrameSpec:
    """Unit quaternion frame on the 3-sphere: [E_i, E_j] = 2 E_k, curl -2."""
    return LieFrameSpec("su2_unit", _cyclic_c(2.0, 2.0, 2.0), np.ones(3))


def su2_right() -> LieFrameSpec:
    """Opposite-translation frame: [E_i, E_j] = -2 E_k, curl +2."""
    return LieFrameSpec("su2_right", _cyclic_c(-2.0, -2.0, -2.0), np.ones(3))


def su2_halved() -> LieFrameSpec:
    """Half-length frame on the same round sphere: [E_i, E_j] = E_k, curl -2."""
    return LieFrameSpec("su2_halved", _cyclic_c(1.0, 1.0, 1.0), np.full(3, 0.25))


def lambda_fields(lam: float) -> LieFrameSpec:
    """Normalized eigenfield triple: curl -2/lam and helicity -2 on every leg.

    The unique cyclic spec with three orthogonal equal-eigenvalue curl
    eigenfields of helicity density -2: c = 2/sqrt(lam), g = lam.  At lam=1
    it coincides with su2_unit.  The frame volume takes lam**3, so lam must
    be positive with a cube that is a normal double.
    """
    r = 2.0 / np.sqrt(lam)
    return LieFrameSpec(f"lambda_fields_{lam:g}", _cyclic_c(r, r, r), np.full(3, lam))


def lambda_right(lam: float) -> LieFrameSpec:
    """Right triple (fiber, flow, conjugate flow): curl (+1, -1/lam, -1/lam).

    Frame volume sqrt(g1 g2 g3) = lam.  At lam=1 this is the unit tangent
    bundle algebra of the curvature -1 plane with its bundle metric.
    """
    c = _cyclic_c(-1.0 / lam, 1.0, 1.0)
    return LieFrameSpec(f"lambda_right_{lam:g}", c, np.array([lam * lam, 1.0, 1.0]))


def lambda_geometry_ar(lam: float) -> tuple[float, float]:
    """Bracket coefficients (a, r) of the curvature-matched hyperbolic spec."""
    v = lam ** (-5.0 / 3.0)
    h = lam ** (-2.0 / 3.0)
    a = np.sqrt((3.0 * v + h) / 2.0)
    r = np.sqrt(2.0 * (v + h))
    return float(a), float(r)


def lambda_geometry(lam: float) -> LieFrameSpec:
    """Hyperbolic-type spec whose frame-plane curvatures scale with lam.

    [E1,E2] = a E2, [E1,E3] = -a E3, [E2,E3] = r E1 with unit metric gives
    K(1,2) = K(1,3) = r^2/4 - a^2 = -lam^(-5/3) and
    K(2,3) = a^2 - 3 r^2/4 = -lam^(-2/3); at lam=1 all three equal -1.
    """
    a, r = lambda_geometry_ar(lam)
    c = np.zeros((3, 3, 3))
    c[1, 0, 1], c[1, 1, 0] = a, -a
    c[2, 0, 2], c[2, 2, 0] = -a, a
    c[0, 1, 2], c[0, 2, 1] = r, -r
    return LieFrameSpec(f"lambda_geometry_{lam:g}", c, np.ones(3))


def default_fleet() -> dict[str, LieFrameSpec]:
    """Named specs whose curl spectra verify-s3 reports."""
    fleet = [
        su2_unit(),
        su2_right(),
        su2_halved(),
        lambda_right(1.0),
        lambda_geometry(1.0),
    ]
    return {spec.name: spec for spec in fleet}

