"""P2 finite elements on the unit disk with a complete-electrode-model forward solver.

The mesh generator produces concentric-ring triangulations whose boundary is split
into L electrodes and L gaps with endpoints at mesh vertices.  Assembly covers the
CEM bilinear form (bulk conduction + contact-impedance coupling + grounding row),
differential operators for P2 fields, the stream-potential construction, and the
power density.

Quadrature-point fields have shape (nel, nq, 2[, I]) and are made element by
element: gather, local tensor, scatter.  ``Mesh.shape_gradients`` (nel,
nq * 2, 6) holds in row q * 2 + a component a of the six P2 shape gradients
of element e at point q, and ``gradient_field`` applies it to the gathered
values ``np.take(u, triangles, axis=0)``.  The dual of a field v, sum_{e,q}
w_eq v_eq . grad N_n (``gradient_dual``), applies the transposed view of the
same tensor to w v and sums into the nodes by ``Mesh.node_scatter``.
``Mesh.perp_shape_gradients`` holds the rows turned by a quarter turn,
(-g2, g1), for ``perp_gradient_field`` and ``perp_gradient_dual``.  Both
tensors are built on first use.
``Mesh.element_stiffness`` holds the unit-sigma local stiffness matrices A_e
(nel, 6, 6), and ``Mesh.node_scatter`` sums rows of local vectors
(nel * 6[, I]) into the nodes.  A_e, the mass matrices, the integral weights,
the shape gradients and the boundary line mass and moments are each the
element's geometry (|e|, grad lambda, edge length) times a constant reference
tensor (``_STIFF_REF`` etc.), one BLAS product or broadcast per array.

The mesh is the centre vertex plus concentric rings of vertices.  Ring vertex i of
a ring with m vertices (numbered from the ring's first vertex id) sits at angle
offset pi (2i - c) / m from the first mirror axis t0, half an electrode arc; the
axis index c is 0 for the inner rings (angles t0 + 2 pi i / m) and the number of
edges per electrode for the boundary ring (angles 2 pi i / m).  The mirror about
t0, the mirror about t0 + pi/2 and the half-turn are then the index maps
i -> c - i, c + m/2 - i and i + m/2 (mod m), so each annulus between two rings is
triangulated by integer arithmetic alone: a staircase over the quarter sector and
its three images (``_symmetric_strip``).

The boundary is a closed CCW loop of nb edges held as arrays, one entry per
edge in loop order: ``bnodes`` (nb, 3) its nodes (a, mid, b), ``belectrode``
whether it lies on an electrode, ``bindex`` the 1-based electrode or gap
number, ``bstart`` and ``blength`` its arc start and length (arc measured by
chord length from the loop's first vertex), and ``electrode_lengths`` (L,) the
summed lengths per electrode.  ``Mesh.B`` (CSR, 3 * nb rows, n_nodes columns)
samples a nodal field on the boundary: row 3 k + j picks node j of edge k, so
``B @ u`` is ``u[bnodes].ravel()``.

``Factor`` is the one owner of factorizations in condrec (the CEM system,
core's H1 Riesz and trace matrices, the stream-potential Laplacian).  Every
matrix it factors is symmetric positive definite, so all are factored by one
recipe: SuperLU in symmetric mode, a minimum-degree order of A + A^T applied
to rows and columns alike, and the diagonal as every pivot.  Each factor is
checked by its first solve, which carries a fixed right-hand side with no
zero-sum structure as one more column, before it returns any solution; its
solves return C-ordered rows in the matrix's own order.  A column's result
does not depend on the columns stacked beside it (the probe, other excitations):
each column sum is numpy's pairwise sum over a row of the transpose, not an order
BLAS or numpy set by the column count (``_column_sums``), and a lone column enters
an element-local product as the first of two columns (``_local_product``).

The CEM system A (N + L + 1 rows: the nodes, the L electrode voltages, the
zero-mean multiplier) is a saddle point; its solves run on the SPD block left
when the last electrode is grounded and the multiplier dropped (N + L - 1
rows, ``CemFactor``).  The symmetric order of that block is kept per layout
(``CemLayout``, one per mesh and its electrodes, built by one argsort of its
entries' CSC keys), which permutes its grounded pattern into that order only
when it gathers a second matrix.  ``assemble_cem`` returns the CemFactor of A
for sigma, whose ``matrix`` is A: every system condrec assembles is solved.
A is linear in the applied currents, which enter only the electrode rows
n..n+L-1.  ``CemFactor.basis`` is the electrode basis Z = A^-1 E, E the L unit
columns at those rows: one checked solve of L columns, and the new factor's
probe, per factorization.  A right-hand side
that vanishes off the electrode rows and has more columns than electrodes
(I > L) is solved as a product with Z: the currents of ``solve_cem``, whose
residuals are read off A Z - E, and the voltage-data adjoint of the reduced
maps, which functionals contracts through the element stiffness action
A_e Z_e.  Up to L columns are solved directly.
"""
from __future__ import annotations

import copy
import hashlib
import io
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AssemblyError,
    CoercivityError,
    InvalidExcitationError,
    InvalidFieldError,
    InvalidMeshError,
)

# 6-point, degree-4 triangle rule (two symmetric orbits); weights sum to 1.
_QA1 = 0.445948490915965
_QW1 = 0.223381589678011
_QA2 = 0.091576213509771
_QW2 = 0.109951743655322
QUAD_BARY = np.array(
    [
        [1.0 - 2.0 * _QA1, _QA1, _QA1],
        [_QA1, 1.0 - 2.0 * _QA1, _QA1],
        [_QA1, _QA1, 1.0 - 2.0 * _QA1],
        [1.0 - 2.0 * _QA2, _QA2, _QA2],
        [_QA2, 1.0 - 2.0 * _QA2, _QA2],
        [_QA2, _QA2, 1.0 - 2.0 * _QA2],
    ]
)
QUAD_W = np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])

# 3-point Gauss on [0, 1], exact to degree 5 (boundary line integrals).
_G = 0.5 * np.sqrt(3.0 / 5.0)
LINE_QP = np.array([0.5 - _G, 0.5, 0.5 + _G])
LINE_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def p2_shape(bary):
    """P2 shape values at barycentric points, node order [v1 v2 v3 m12 m23 m31]."""
    l1, l2, l3 = bary[..., 0], bary[..., 1], bary[..., 2]
    return np.stack(
        [
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            l3 * (2 * l3 - 1),
            4 * l1 * l2,
            4 * l2 * l3,
            4 * l3 * l1,
        ],
        axis=-1,
    )


def p2_shape_dl(bary):
    """Derivatives of the P2 shapes w.r.t. (lambda1, lambda2, lambda3); shape (..., 6, 3)."""
    l1, l2, l3 = bary[..., 0], bary[..., 1], bary[..., 2]
    z = np.zeros_like(l1)
    rows = [
        [4 * l1 - 1, z, z],
        [z, 4 * l2 - 1, z],
        [z, z, 4 * l3 - 1],
        [4 * l2, 4 * l1, z],
        [z, 4 * l3, 4 * l2],
        [4 * l3, z, 4 * l1],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def line_shape(t):
    """1D quadratic trace basis on [0,1] for edge nodes [a, mid, b]."""
    t = np.asarray(t, float)
    return np.stack([(1 - t) * (1 - 2 * t), 4 * t * (1 - t), t * (2 * t - 1)], axis=-1)


_DL_Q = p2_shape_dl(QUAD_BARY)  # (nq, 6, 3); the reference tensors of the module docstring follow
# stiffness [(l, m), (j, k)] = sum_q W_q dN_j/dlambda_l dN_k/dlambda_m, against |e| grad lambda_l . grad lambda_m
_STIFF_REF = np.einsum("q,qjl,qkm->lmjk", QUAD_W, _DL_Q, _DL_Q).reshape(9, 36)
# shape gradients [l, a, q, b, n] = dN_n/dlambda_l at q times delta_ab, against grad lambda (nel, 3, 2)
_GRAD_REF = np.einsum("qnl,ab->laqbn", _DL_Q, np.eye(2))
_MASS_REF = np.einsum("q,qj,qk->jk", QUAD_W, p2_shape(QUAD_BARY), p2_shape(QUAD_BARY))  # against |e|
_WEIGHT_REF = np.array([0, 0, 0, 1, 1, 1]) / 3  # int_e N_j / |e|: zero at the vertices, exactly
_LINE_MASS_REF = np.einsum("q,qi,qj->ij", LINE_QW, line_shape(LINE_QP), line_shape(LINE_QP))  # against the length
_LINE_MOMENT_REF = _LINE_MASS_REF.sum(axis=1)


@dataclass
class ElectrodeConfig:
    """Electrode layout and contact impedances for the CEM boundary."""

    count: int = 8
    impedances: np.ndarray | float = 0.1
    coverage_fraction: float = 0.5

    def __post_init__(self):
        if self.count < 2:
            raise InvalidMeshError("need at least two electrodes")
        z = np.broadcast_to(np.asarray(self.impedances, float), (self.count,)).copy()
        if not np.all(np.isfinite(z) & (z > 0)):
            raise InvalidMeshError(f"contact impedances must be positive and finite, not {z}")
        self.impedances = z
        if not 0 < self.coverage_fraction < 1:
            raise InvalidMeshError("coverage fraction must lie in (0, 1)")


@dataclass
class ExcitationSet:
    """Applied electrode currents, one row per excitation, plus integrated traces.

    ``integrated[i, l]`` is the gap constant jbar_{l,i} = -sum_{k<=l} j_{k,i}; the
    boundary trace ramps affinely across electrodes between consecutive constants.
    """

    currents: np.ndarray

    def __post_init__(self):
        j = np.atleast_2d(np.asarray(self.currents, float))
        if not np.all(np.isfinite(j)):
            raise InvalidExcitationError("currents contain non-finite entries")
        s = np.abs(j.sum(axis=1))
        if np.any(s > 1e-12 * max(1.0, np.abs(j).max())):
            raise InvalidExcitationError("each excitation row must sum to zero")
        self.currents = j

    @property
    def n_excitations(self):
        return self.currents.shape[0]

    @property
    def n_electrodes(self):
        return self.currents.shape[1]

    @property
    def integrated(self):
        return -np.cumsum(self.currents, axis=1)


class Mesh:
    """P2 triangulation with a tagged electrode/gap boundary.

    ``nodes`` holds corner vertices first, then edge nodes.  ``triangles`` has the
    node order [v1, v2, v3, m12, m23, m31].  ``boundary`` is (ends (nb, 2),
    on-electrode mask (nb,), 1-based segment number (nb,)) for the CCW boundary
    loop, which becomes the boundary arrays of the module docstring.
    ``electrodes`` is the ElectrodeConfig of every CEM system on the mesh; its
    count must be the number of electrode segments of the boundary.
    """

    def __init__(self, vertices, triangles_p1, boundary, electrodes):
        self.electrodes = electrodes
        self._build(np.asarray(vertices, float), np.asarray(triangles_p1, int), boundary)
        if len(self.electrode_lengths) != electrodes.count:
            raise InvalidMeshError(f"the mesh has {len(self.electrode_lengths)} electrodes, "
                                   f"the electrode configuration {electrodes.count}")

    # -- construction -----------------------------------------------------

    def _build(self, verts, tris, boundary):
        nv = len(verts)
        e = verts[tris[:, 1:]] - verts[tris[:, :1]]  # (nel, 2, 2): the edges from the first vertex
        areas = 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 1, 0] * e[:, 0, 1])  # signed
        flip = areas < 0
        if np.any(flip):
            tris = tris.copy()
            tris[flip] = tris[flip][:, [0, 2, 1]]
            areas = np.abs(areas)
        if np.any(areas <= 0):
            raise InvalidMeshError("degenerate triangle in mesh")

        # edge nodes are numbered from nv in order of first appearance over the
        # triangles' edges (v1 v2), (v2 v3), (v3 v1)
        ends = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, first, inverse = np.unique(ends[:, 0] * nv + ends[:, 1], return_index=True, return_inverse=True)
        rank = np.empty(len(keys), int)
        rank[np.argsort(first)] = np.arange(len(keys))
        lo, hi = ends[np.sort(first)].T

        self.n_vertices = nv
        self.nodes = np.vstack([verts, 0.5 * (verts[lo] + verts[hi])])
        self.triangles = np.hstack([tris, nv + rank[inverse].reshape(-1, 3)])
        self.element_areas = areas
        self.n_elements = len(tris)
        self.n_nodes = len(self.nodes)

        bends, belectrode, bindex = boundary
        bends = np.asarray(bends, int).reshape(-1, 2)
        bkeys = np.sort(bends, axis=1) @ [nv, 1]
        at = np.minimum(np.searchsorted(keys, bkeys), len(keys) - 1)
        if np.any(keys[at] != bkeys):
            raise InvalidMeshError("boundary edge is not an edge of the triangulation")
        self.bnodes = np.column_stack([bends[:, 0], nv + rank[at], bends[:, 1]])
        self.belectrode = np.asarray(belectrode, bool)
        self.bindex = np.asarray(bindex, int)
        chord = verts[bends[:, 1]] - verts[bends[:, 0]]
        self.blength = np.sqrt(chord[:, None, :] @ chord[:, :, None]).ravel()  # rounds as norm(chord[k])
        self.bstart = np.concatenate([[0.0], np.cumsum(self.blength)[:-1]])
        on = self.belectrode
        self.electrode_lengths = np.bincount(self.bindex[on] - 1, weights=self.blength[on])
        nb3 = self.bnodes.size
        self.B = sp.csr_matrix((np.ones(nb3), self.bnodes.ravel().astype(np.int32),
                                np.arange(nb3 + 1, dtype=np.int32)), shape=(nb3, self.n_nodes))
        self.boundary_dofs = np.unique(self.bnodes)

        self._precompute()

    def _precompute(self):
        verts = self.nodes[self.triangles[:, :3]]  # (nel, 3, 2)
        # grad(lambda_i) = rot(p_{i+1} - p_{i+2}) / (2A), rot(x, y) = (y, -x)
        d = verts[:, [1, 2, 0]] - verts[:, [2, 0, 1]]
        self.grad_lambda = np.stack([d[..., 1], -d[..., 0]], axis=-1) / (2.0 * self.element_areas[:, None, None])
        self.qweights = self.element_areas[:, None] * QUAD_W[None, :]  # (nel, nq)
        self.qpoints = QUAD_BARY @ verts  # (nel, nq, 2)
        self.total_area = float(self.element_areas.sum())

    # -- derived assemblies -------------------------------------------------

    @cached_property
    def element_stiffness(self):
        """The unit-sigma local stiffness matrices int_e grad N_j . grad N_k, (nel, 6, 6):
        |e| (grad lambda_l . grad lambda_m) against the reference tensor, one product."""
        gl = self.grad_lambda
        gg = gl[:, :, None, 0] * gl[:, None, :, 0] + gl[:, :, None, 1] * gl[:, None, :, 1]  # (nel, 3, 3)
        return ((self.element_areas[:, None] * gg.reshape(-1, 9)) @ _STIFF_REF).reshape(-1, 6, 6)

    @cached_property
    def shape_gradients(self):
        """The physical shape gradients at the quadrature points, (nel, nq * 2, 6): row q * 2 + a
        holds component a of grad N_0..N_5 at point q; grad lambda against the reference tensor."""
        return np.tensordot(self.grad_lambda, _GRAD_REF, axes=2).reshape(self.n_elements, -1, 6)

    @cached_property
    def perp_shape_gradients(self):
        """shape_gradients with each point's two rows (g1, g2) turned to (-g2, g1)."""
        g = self.shape_gradients.reshape(self.n_elements, -1, 2, 6)
        return np.stack([-g[:, :, 1], g[:, :, 0]], axis=2).reshape(self.n_elements, -1, 6)

    @cached_property
    def node_scatter(self):
        """The element-to-node scatter (CSC, n_nodes x nel * 6): column 6 e + j is node j of element e."""
        return sp.csc_matrix((np.ones(self.triangles.size), self.triangles.ravel(),
                              np.arange(self.triangles.size + 1)), shape=(self.n_nodes, self.triangles.size))

    @cached_property
    def cem_layout(self):
        """The CemLayout of the mesh's electrodes: the sigma-independent part of its CEM systems."""
        return _cem_layout(self)

    def release_assembly(self):
        """Drop the cached CEM layout and element arrays; each is rebuilt on next use."""
        for name in ("cem_layout", "element_stiffness", "node_scatter", "shape_gradients", "perp_shape_gradients"):
            vars(self).pop(name, None)

    def stiffness(self, sigma=None):
        """Assemble int sigma grad u . grad v with piecewise-constant sigma (default 1)."""
        s = np.ones(self.n_elements) if sigma is None else np.asarray(sigma, float)
        return self._scatter(s[:, None, None] * self.element_stiffness)

    def mass(self):
        """Assemble int u v: |e| times the reference mass matrix (degree-4 rule, exact for P2 x P2)."""
        return self._scatter(self.element_areas[:, None, None] * _MASS_REF)

    def _scatter(self, loc):
        t = self.triangles
        return sp.coo_matrix((loc.ravel(), (np.repeat(t, 6, axis=1).ravel(), np.tile(t, (1, 6)).ravel())),
                             shape=(self.n_nodes, self.n_nodes)).tocsr()

    def integral_weights(self):
        """Vector w with w_i = int N_i dOmega, so w @ u = int u dOmega: |e| times the reference weights, scattered."""
        return self.node_scatter @ np.multiply.outer(self.element_areas, _WEIGHT_REF).ravel()

    def checksum(self):
        return hashlib.sha256(serialize_mesh(self).encode()).hexdigest()


def _ring_count(x):
    """Nearest multiple of four (>= 4); mod-4 counts put ring vertices on both
    mirror axes of the electrode layout, which the symmetric strip builder needs."""
    return max(4, 4 * int(round(x / 4.0)))


def disk_mesh_scale(k, electrodes=None):
    """Ring triangulation of the unit disk at integer scale k >= 1.

    3k concentric rings, 2Lk boundary edges; for L=8 at coverage 1/2 this yields
    exactly 48 k^2 elements (k=3 reproduces the 913-node / 432-element layout).
    The triangulation is invariant under reflection about the axis through the
    first electrode's midpoint and about its perpendicular, so symmetric drives
    produce symmetric discrete fields exactly.
    """
    electrodes = ElectrodeConfig() if electrodes is None else electrodes
    L = electrodes.count
    cov = electrodes.coverage_fraction
    k = int(k)
    if k < 1:
        raise InvalidMeshError("scale must be >= 1")
    m_bnd = 2 * L * k
    elec_edges = cov * m_bnd / L
    if abs(elec_edges - round(elec_edges)) > 1e-12 or round(elec_edges) < 1:
        raise InvalidMeshError("coverage fraction incompatible with boundary resolution")
    elec_edges = int(round(elec_edges))
    n_rings = max(1, round(3 * m_bnd / 16))
    if L * k % 2 and n_rings > 1:  # a single ring is only the centre fan, which needs no strip
        raise InvalidMeshError(f"{L} electrodes at scale {k} with coverage {cov:g}: L*k is odd, so the boundary "
                               "ring has a vertex on one mirror axis but not the other and no symmetric strip exists")
    t0 = np.pi * cov / L  # half electrode arc: first mirror axis

    verts = [(0.0, 0.0)]
    rings = []  # (first vertex id, count m, axis index c), see the module docstring
    for j in range(1, n_rings + 1):
        r = j / n_rings
        if j < n_rings:
            m, c = _ring_count(m_bnd * j / n_rings), 0
            th = t0 + 2 * np.pi * np.arange(m) / m
        else:
            m, c = m_bnd, elec_edges
            th = 2 * np.pi * np.arange(m) / m
        rings.append((len(verts), m, c))
        verts.extend(zip(r * np.cos(th), r * np.sin(th)))

    first, m1, _ = rings[0]
    ids1 = first + np.arange(m1)
    tris = [np.column_stack([np.zeros(m1, int), ids1, np.roll(ids1, -1)])]
    tris += [_symmetric_strip(inner, outer) for inner, outer in zip(rings[:-1], rings[1:])]
    tris = np.vstack(tris)

    # per sector of the uniform boundary ring: elec_edges electrode edges, then gap edges
    bnd_ids = rings[-1][0] + np.arange(m_bnd)
    sector, within = np.divmod(np.arange(m_bnd), m_bnd // L)
    boundary = (np.column_stack([bnd_ids, np.roll(bnd_ids, -1)]), within < elec_edges, sector + 1)
    mesh = Mesh(np.array(verts), tris, boundary, electrodes)
    if mesh.n_elements != len(tris):
        raise InvalidMeshError("internal: strip triangulation lost elements")
    return mesh


def _symmetric_strip(inner, outer):
    """Triangulate the annulus strip between two rings, exactly invariant under
    the dihedral group {id, mirror about t0, mirror about t0 + pi/2, rotation pi}.

    Each ring is (first vertex id, count m, axis index c).  A greedy staircase is
    built on the quarter sector [t0, t0 + pi/2] and its three group images fill
    the rest.  The inner ring has vertices on both axes (c = 0, m a multiple of
    four); the outer ring either has them too or straddles the t0 axis (c odd),
    in which case axis-centred seed triangles stitch the quarters together.
    """
    (fi, mi, ci), (fo, mo, co) = inner, outer

    def quarter(m, c):  # vertices at offsets pi (2i - c) / m in [0, pi/2], in angle order
        return [i for i in range(m) if 0 <= 2 * i - c <= m // 2]

    def group(m, c):  # i -> i, c - i, c + m/2 - i, i + m/2 (mod m)
        i = np.arange(m)
        return np.stack([i, c - i, c + m // 2 - i, i + m // 2]) % m

    # local numbers: inner vertex i is i, outer vertex i is mi + i
    qin, qout = quarter(mi, ci), quarter(mo, co)
    tris = []
    i = o = 0  # staircase: step the ring whose next offset is smaller, the inner one on a tie
    while i < len(qin) - 1 or o < len(qout) - 1:
        if i < len(qin) - 1 and (o == len(qout) - 1 or (2 * qin[i + 1] - ci) * mo <= (2 * qout[o + 1] - co) * mi):
            tris.append((qin[i], qin[i + 1], mi + qout[o]))
            i += 1
        else:
            tris.append((mi + qout[o], mi + qout[o + 1], qin[i]))
            o += 1
    images = np.hstack([group(mi, ci), mi + group(mo, co)])
    if 2 * qout[0] != co:  # no outer vertex on the t0 axis
        tris.append((images[1, mi + qout[0]], mi + qout[0], qin[0]))
        tris.append((mi + qout[-1], images[2, mi + qout[-1]], qin[-1]))

    # every triangle, then its three images; a repeated triangle keeps its first appearance
    cand = images[:, tris].transpose(1, 0, 2).reshape(-1, 3)
    keep = np.sort(np.unique(np.sort(cand, axis=1), axis=0, return_index=True)[1])
    if len(keep) != mi + mo:
        raise InvalidMeshError(f"internal: strip produced {len(keep)} triangles, expected {mi + mo}")
    return np.r_[fi : fi + mi, fo : fo + mo][cand[keep]]


def refine_mesh(mesh, times=1):
    """Subdivide each triangle into four; children tile parents exactly.

    The children of element e are elements 4e..4e+3 of the result, which keeps
    its parent mesh as ``parent_mesh`` for exact field transfer.
    """
    out = mesh
    for _ in range(times):
        out = _refine_once(out)
    return out


# the four children (a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)
# of a P2 triangle [a, b, c, mab, mbc, mca]
_CHILDREN = [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]


def _refine_once(mesh):
    # the P2 nodes become the vertices; each boundary edge (a, m, b) splits into (a, m), (m, b)
    boundary = (mesh.bnodes[:, [0, 1, 1, 2]], np.repeat(mesh.belectrode, 2), np.repeat(mesh.bindex, 2))
    child = Mesh(mesh.nodes, mesh.triangles[:, _CHILDREN].reshape(-1, 3), boundary, mesh.electrodes)
    child.parent_mesh = mesh
    return child


def nested_chain(fine_mesh, coarse_mesh):
    """The refinements from coarse_mesh down to fine_mesh, coarsest first."""
    chain = []
    mesh = fine_mesh
    while mesh is not coarse_mesh:
        if not hasattr(mesh, "parent_mesh"):
            raise InvalidMeshError("meshes are not nested")
        chain.append(mesh)
        mesh = mesh.parent_mesh
    return chain[::-1]


def transfer_cell_field(values, fine_mesh, coarse_mesh):
    """Area-weighted aggregation of per-element values (axis 0) from a refined mesh to an ancestor."""
    vals = np.asarray(values, float).T
    for mesh in reversed(nested_chain(fine_mesh, coarse_mesh)):
        # the children of parent element e are 4e..4e+3
        children = (vals * mesh.element_areas).reshape(vals.shape[:-1] + (-1, 4))
        vals = children.sum(-1) / mesh.parent_mesh.element_areas
    return vals.T


# -- mesh serialization ----------------------------------------------------


def serialize_mesh(mesh):
    buf = io.StringIO()
    buf.write(f"condrec-mesh 1\nnodes {mesh.n_nodes} vertices {mesh.n_vertices}\n")
    for i, (x, y) in enumerate(mesh.nodes):
        buf.write(f"{i} {x:.17g} {y:.17g}\n")
    buf.write(f"elements {mesh.n_elements}\n")
    for t in mesh.triangles:
        buf.write(" ".join(str(n) for n in t) + "\n")
    buf.write(f"boundary {len(mesh.bnodes)}\n")
    for (a, m, b), on, index in zip(mesh.bnodes.tolist(), mesh.belectrode, mesh.bindex.tolist()):
        buf.write(f"{a} {m} {b} {'electrode' if on else 'gap'} {index}\n")
    return buf.getvalue()


def save_mesh(mesh, path):
    with open(path, "w") as f:
        f.write(serialize_mesh(mesh))


def load_mesh(path, electrodes=None):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("condrec-mesh"):
        raise InvalidMeshError(f"not a mesh file: {path}")
    n_verts = int(lines[1].split()[3])
    tables, at = [], 1
    for width in (3, 6, 5):  # the node, element and boundary sections
        n = int(lines[at].split()[1])
        tables.append(np.array(" ".join(lines[at + 1 : at + 1 + n]).split()).reshape(n, width))
        at += 1 + n
    nodes, tris, bnd = tables
    nodes = nodes[np.argsort(nodes[:, 0].astype(int)), 1:].astype(float)
    boundary = (bnd[:, [0, 2]].astype(int), bnd[:, 3] == "electrode", bnd[:, 4].astype(int))
    if electrodes is None:
        electrodes = ElectrodeConfig(count=int(boundary[2][boundary[1]].max()))
    mesh = Mesh(nodes[:n_verts], tris[:, :3].astype(int), boundary, electrodes)
    if mesh.n_nodes != len(nodes):
        raise InvalidMeshError("P2 node count mismatch after reload")
    return mesh


# -- CEM assembly and solve --------------------------------------------------


@dataclass
class CemSolution:
    """Potentials (one column per excitation) and electrode voltages."""

    phi: np.ndarray  # (n_nodes, I)
    voltages: np.ndarray  # (I, L)
    residuals: np.ndarray  # relative linear-solve residual per excitation


# Largest relative residual ||A x - b|| / ||b|| a solve may leave: round-off
# leaves about 1e-14, more means the factor does not belong to the matrix.
SOLVE_RESIDUAL_BOUND = 1e-8


class Factor:
    """A square CSC matrix and its SuperLU factor: every factorization condrec makes.

    The matrix SuperLU factors (``block``, by default the matrix itself) is
    SPD, so it is factored without pivoting in symmetric mode: a minimum-degree
    order of A + A^T for rows and columns alike, or, when ``ordered``, the
    order it already has.  Every factor takes SuperLU's unrelaxed one-column
    panel kernel (``relax=1, panel_size=1``): at condrec's sizes (N up to a few
    thousand) the default supernode bookkeeping costs more than it saves, and
    this kernel factors about a quarter faster with the same fill; keep relax
    at most panel_size.  Checked by its first solve: that solve carries one
    fixed right-hand side with no zero-sum structure (``probe``) as one more
    column, whose residual must meet SOLVE_RESIDUAL_BOUND against ``matrix``
    before any column is returned, so a factor of another matrix, or a CEM
    solve that misses the grounding, raises AssemblyError; a factor that failed
    raises on every solve.  ``solve`` returns C-ordered rows in the matrix's own
    order, each column with the bits it has alone: the probe changes none.
    """

    def __init__(self, matrix, block=None, ordered=False):
        self.matrix = matrix
        try:
            self.superlu = spla.splu(matrix if block is None else block,
                                     permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0, relax=1, panel_size=1,
                                     options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise AssemblyError(f"matrix is singular: {exc}") from exc
        self.probe = _probe(matrix.shape[0])  # None once a solve has checked it

    def solve(self, rhs):
        """x with A x = rhs for rhs (N,) or (N, k); the first solve carries the probe as one more column."""
        if self.probe is None:
            return self._solve(rhs)
        x = self._solve(np.column_stack([rhs, self.probe]))
        self.check(self.matrix @ x[:, -1] - self.probe, self.probe, "factor")
        self.probe = None
        return np.ascontiguousarray(x[:, :-1].reshape(np.shape(rhs)))

    def _solve(self, rhs):
        return np.ascontiguousarray(self.superlu.solve(rhs))

    @staticmethod
    def check(residual, rhs, what):
        """The relative residual ||r|| / ||b|| of each column (the absolute one where b = 0);
        raises AssemblyError when one is not finite or exceeds SOLVE_RESIDUAL_BOUND."""
        scale = _column_norms(rhs)
        rel = _column_norms(residual) / np.where(scale == 0, 1.0, scale)
        if not (rel <= SOLVE_RESIDUAL_BOUND).all():
            raise AssemblyError(f"{what} residual {np.max(rel):.3e} exceeds {SOLVE_RESIDUAL_BOUND:g}")
        return rel


@lru_cache(maxsize=8)
def _probe(n):
    """The fixed right-hand side sin(1..n) with which each factor's first solve checks it, read-only."""
    probe = np.sin(np.arange(1.0, n + 1))
    probe.flags.writeable = False
    return probe


def _column_norms(a):
    """The 2-norm of each column of a (N[, k]): np.linalg.norm(a, axis=0) at under half its cost."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


class CemFactor(Factor):
    """The Factor of a CEM matrix A (N + L + 1 rows), made on its grounded block.

    A's node and electrode rows hold a block A0 whose kernel is the constants
    e (every potential and voltage equal); its last row and column hold the
    integral weights w, the zero-mean row w^T u = b_m and its multiplier.
    Grounding the last electrode voltage and dropping the multiplier leaves an
    SPD block, which is factored in the layout's order (``order``, None for
    the layout's first factor, which finds it).  A solve of A x = b takes three
    steps: lam = 1^T b / |Omega| over the node and electrode rows, the one value
    for which e^T (b - w lam) = 0, so that A0 can meet it; the grounded block's
    solve y of b - w lam, grounded voltage 0; and a shift by t e so that w^T x
    meets the last row.  1^T b and w^T y are ``_column_sums``, in a fixed order.
    """

    def __init__(self, matrix, layout):
        # the block first: the layout's second gather puts its pattern and weights in the kept order
        super().__init__(matrix, layout.block(matrix), ordered=layout.order is not None)
        self.order, self.weights, self.area = layout.order, layout.weights, layout.area
        self.rows = np.s_[: len(self.weights)] if self.order is None else self.order
        self.unit_currents = layout.unit_currents

    @cached_property
    def basis(self):
        """The electrode basis Z = A^-1 E (N + L + 1, L) and its residual A Z - E, one solve of L columns.

        E holds the unit columns at the electrode rows n..n+L-1, so column k is
        the solution for a unit current into electrode k.  Checked once against
        ``matrix``: raises AssemblyError, and keeps nothing, when A Z - E exceeds
        SOLVE_RESIDUAL_BOUND.
        """
        E = self.unit_currents
        Z = self.solve(E)
        R = self.matrix @ Z - E
        self.check(R, E, "electrode basis")
        return Z, R

    def _solve(self, rhs):
        lam = _column_sums(rhs[:-1]) / self.area
        y = self.superlu.solve(rhs[self.rows] - np.multiply.outer(self.weights, lam))
        t = (rhs[-1] - _column_sums(y, self.weights)) / self.area
        x = np.empty(rhs.shape)
        x[self.rows] = y + t
        x[-2:] = t, lam  # the grounded voltage, shifted; the multiplier
        return x


def _column_sums(a, w=None):
    """The sum of each column of a (N[, k]), weighted by w (N,) if given: pairwise, over a row of a^T."""
    rows = np.ascontiguousarray(a.T)
    return (rows if w is None else rows * w).sum(axis=-1)


def boundary_matrices(mesh):
    """The electrode edges in loop order: each one's 0-based electrode (ne,), nodes (ne, 3), line
    mass int N_i N_j (ne, 3, 3) and moments int N_i (ne, 3); and the electrode lengths (L,)."""
    on = mesh.belectrode
    length = mesh.blength[on]
    return (mesh.bindex[on] - 1, mesh.bnodes[on], np.multiply.outer(length, _LINE_MASS_REF),
            np.multiply.outer(length, _LINE_MOMENT_REF), mesh.electrode_lengths)


class CemLayout:
    """The sigma-independent part (S, C0) of the CEM system, its grounded pattern and its symmetric order.

    The matrix for sigma (``matrix``) has C0's CSC pattern and the data S @ sigma + C0.data.  S has
    one column per element, holding its stiffness entries (the block is linear in
    sigma); C0 holds the electrode, multiplier and integral-weight blocks.  ``area`` is
    |Omega| = 1^T w for the integral weights w, and ``weights`` is w on the rows of the
    grounded block (zero on its electrode rows), in the order of its pattern.
    ``unit_currents`` (N, L), read-only, holds the unit columns at the electrode rows,
    the right-hand side E of every factor's electrode basis.  Built once per mesh, as
    ``Mesh.cem_layout``.  The grounded pattern, read off C0's CSC arrays, and ``weights``
    are permuted into the kept order by the second ``block``: a layout factored once never is.
    """

    def __init__(self, S, C0, w):
        self.S, self.C0 = S, C0
        self.area = w.sum()
        N, L = C0.shape[0], C0.shape[0] - len(w) - 1  # the rows: the nodes (w), the electrodes, the multiplier
        self.unit_currents = np.eye(N, L, L + 1 - N)  # ones at the electrode rows N - L - 1 .. N - 2
        self.unit_currents.flags.writeable = False
        m = N - 2  # the grounded block: every row but the last voltage and the multiplier
        self.weights = np.concatenate([w, np.zeros(m - len(w))])
        self.order = None  # symmetric order of the first factor: it factored P B P^T = B[order][:, order]
        self._permuted = False  # whether the pattern and weights are in that order yet
        at = np.flatnonzero(C0.indices[: C0.indptr[m]] < m)  # C0's entries in the block's rows and columns
        self._set_block(sp.csc_matrix((at, C0.indices[at], np.searchsorted(at, C0.indptr[: m + 1])), shape=(m, m)))

    def _set_block(self, positions):
        """Keep the grounded pattern, holding its entries' positions in A.data, and a matrix on it."""
        self._block, self._work = positions, copy.copy(positions)  # the copy shares the pattern arrays
        self._work.data = np.empty(positions.nnz)

    def block(self, matrix):
        """The grounded block of a matrix on this layout, in the kept order once there is one.

        One matrix per layout, overwritten by the next call: it lives only until SuperLU,
        which copies what it factors, has factored it (CemFactor).  A layout belongs to
        one mesh, and each experiment cell builds its own, so one thread factors it."""
        if self.order is not None and not self._permuted:
            self._permuted, self.weights = True, self.weights[self.order]
            self._set_block(self._block[self.order][:, self.order].sorted_indices())
        np.take(matrix.data, self._block.data, out=self._work.data)
        return self._work

    def matrix(self, sigma):
        """The CEM matrix for sigma (n_elements,): C0's pattern arrays, shared as
        csc_matrix((data, indices, indptr)) shares them, with the data S @ sigma + C0.data."""
        matrix = copy.copy(self.C0)
        matrix.data = self.S @ sigma + self.C0.data
        return matrix

    def factorize(self, matrix):
        """The CemFactor of a matrix on this layout.

        The minimum-degree order depends only on the pattern, which every matrix of the
        layout shares, so the first factorization orders the grounded block and the layout
        keeps a copy of the order (keeping perm_c itself would keep that factor's L and U
        alive).  perm_c holds SuperLU's elimination-tree postorder too, so P B P^T, gathered
        onto the pattern permuted once (by the next ``block``), has the same fill in its
        natural order, which later factors use.
        """
        factor = CemFactor(matrix, self)
        if self.order is None:
            self.order = np.argsort(factor.superlu.perm_c)
        return factor


# Local P2 node pairs (vertex i, midpoint of the opposite edge) and their transposes:
# int grad phi_vi . grad phi_m(jk) = 0 on every triangle, so they stay out of the pattern.
_ZERO_COUPLINGS = ([0, 4, 1, 5, 2, 3], [4, 0, 5, 1, 3, 2])


def _cem_layout(mesh):
    """The CemLayout of the mesh's electrodes, which ``Mesh.cem_layout`` keeps.
    One argsort of every entry's key col * N + row gives the CSC pattern and each entry's position;
    C0's data sums the constant entries there and rounds each sum as M_l / z_l, -m_l / z_l or lengths / z_l."""
    L, z, n, t = mesh.electrodes.count, mesh.electrodes.impedances, mesh.n_nodes, mesh.triangles
    ell, b, mass, moments, lens = boundary_matrices(mesh)
    N, v, w, nodes = n + L + 1, n + ell[:, None], mesh.integral_weights(), np.arange(n)
    live = np.ones((6, 6), bool)
    live[_ZERO_COUPLINGS] = False
    kkeys = (t[:, None, :] * N + t[:, :, None])[:, live].ravel()
    allkeys = np.concatenate([kkeys, b[:, None, :] * N + b[:, :, None], v * N + b, b * N + v,
                              (n + np.arange(L)) * (N + 1), (N - 1) * N + nodes, nodes * N + N - 1], axis=None)
    perm = np.argsort(allkeys)
    keys = allkeys[perm]
    first = np.diff(keys, prepend=-1) != 0
    keys, pos = keys[first], np.empty_like(perm)
    pos[perm] = np.cumsum(first) - 1
    nk, nm, nc = len(kkeys), mass.size, 2 * moments.size + L
    per_element = np.arange(0, nk + 1, live.sum())
    S = sp.csc_matrix((mesh.element_stiffness[:, live].ravel(), pos[:nk], per_element), (len(keys), len(t)))
    # line mass, C, C^T, lengths and w, w^T, as keyed; M_l / z_l multiplies by 1 / z_l, the others divide
    const = np.concatenate([mass.ravel(), moments.ravel(), moments.ravel(), lens, w, w])
    c0 = np.bincount(pos[nk:], weights=const, minlength=len(keys))
    c0[pos[nk : nk + nm]] *= np.repeat(1.0 / z[ell], 9)
    c0[pos[nk + nm : nk + nm + nc]] /= np.concatenate([np.tile(np.repeat(-z[ell], 3), 2), z])
    C0 = sp.csc_matrix((c0, keys % N, np.searchsorted(keys, np.arange(N + 1) * N)), shape=(N, N))
    return CemLayout(S, C0, w)


def assemble_cem(mesh, sigma):
    """The CemFactor of the CEM matrix for piecewise-constant sigma, checked by its first solve.

    Bilinear form: int sigma grad(phi).grad(p) + sum_l z_l^-1 int_{e_l}
    (phi - v_l)(p - xi_l); the kernel (constants) is removed by appending the
    zero-mean constraint as a symmetric Lagrange-multiplier row, so the matrix
    has N + L + 1 rows.  Its factor grounds the last electrode instead (see
    CemFactor).  The matrix data is one sparse matvec on the mesh's cached
    layout (``CemLayout.matrix``), which also orders the factorization.
    """
    s = np.asarray(sigma, float)
    if s.shape != (mesh.n_elements,):
        raise InvalidFieldError("sigma must hold one value per element")
    if not np.all(np.isfinite(s)):
        raise InvalidFieldError("sigma contains non-finite entries")
    if np.any(s <= 0):
        raise CoercivityError("sigma must be strictly positive for coercivity")

    layout = mesh.cem_layout
    return layout.factorize(layout.matrix(s))


def solve_cem(system, excitation):
    """Solve the CEM system (a CemFactor) for every excitation row; raises AssemblyError
    on a residual above SOLVE_RESIDUAL_BOUND.  With I > L the solution is Z J^T on the
    electrode basis, and A (Z J^T) - E J^T = R J^T reads its residuals off R = A Z - E."""
    if isinstance(excitation, np.ndarray):
        excitation = ExcitationSet(excitation)
    N, L = system.unit_currents.shape
    n = N - L - 1
    if excitation.n_electrodes != L:
        raise InvalidExcitationError("excitation width does not match electrode count")
    J = excitation.currents
    if len(J) > L:
        Z, R = system.basis
        sol, residual = Z @ J.T, R @ J.T
    else:
        rhs = np.zeros((N, len(J)))
        rhs[n : n + L] = J.T
        sol = system.solve(rhs)
        residual = system.matrix @ sol - rhs
    rel = Factor.check(residual, J.T, "CEM solve")  # the right-hand side's norms are J's
    return CemSolution(phi=sol[:n], voltages=sol[n : n + L].T, residuals=rel)


# -- field operators ---------------------------------------------------------


def _nodal(phi, mesh):
    """A nodal field (n_nodes,) or stack of them (n_nodes, I) as a float array."""
    a = np.asarray(phi, float)
    if a.shape[0] != mesh.n_nodes:
        raise InvalidFieldError("nodal field length does not match mesh")
    return a


def _local_product(local, cols, index=None):
    """local @ np.take(cols, index, axis=0), or local @ cols; a lone column goes in as the first of two."""
    lone = cols.shape[-1] == 1
    cols = np.concatenate([cols, cols], axis=-1) if lone else cols
    out = local @ (cols if index is None else np.take(cols, index, axis=0))
    return out[..., :1] if lone else out


def _field(local, phi, mesh):
    a = _nodal(phi, mesh)
    g = _local_product(local, a.reshape(len(a), -1), mesh.triangles)  # (nel, nq * 2, I)
    return g.reshape(mesh.qweights.shape + (2,) + a.shape[1:])


def _dual(local, v, mesh):
    v = np.asarray(v, float)
    wv = mesh.qweights[:, :, None, None] * v.reshape(mesh.qweights.shape + (2, -1))
    d = _local_product(local.transpose(0, 2, 1), wv.reshape(local.shape[:2] + (-1,)))  # (nel, 6, I)
    return (mesh.node_scatter @ d.reshape(mesh.triangles.size, -1)).reshape((mesh.n_nodes,) + v.shape[3:])


def gradient_field(phi, mesh):
    """Gradient of a P2 field at the quadrature points, shape (nel, nq, 2[, I])."""
    return _field(mesh.shape_gradients, phi, mesh)


def perp_gradient_field(psi, mesh):
    """Rotated gradient (-d2, d1) of a P2 field at the quadrature points, on the turned shape gradients."""
    return _field(mesh.perp_shape_gradients, psi, mesh)


def gradient_dual(v, mesh):
    """Nodal dual sum_{e,q} w_eq v_eq . grad N_n of a field (nel, nq, 2[, I]).

    The adjoint of gradient_field in the quadrature inner product.
    """
    return _dual(mesh.shape_gradients, v, mesh)


def perp_gradient_dual(v, mesh):
    """Nodal dual sum_{e,q} w_eq v_eq . perp-grad N_n of a field (nel, nq, 2[, I]).

    The adjoint of perp_gradient_field in the quadrature inner product.
    """
    return _dual(mesh.perp_shape_gradients, v, mesh)


def field_dot(u, v):
    """u . v of quadrature-point fields (nel, nq, 2[, I]): the bits of (u * v).sum(axis=2), a third of its cost."""
    return u[:, :, 0] * v[:, :, 0] + u[:, :, 1] * v[:, :, 1]


def element_mean(f):
    """Per-element quadrature average of a scalar quadrature-point field (nel, nq[, I]), shape (nel[, I]).
    The data's and the model's power densities both take it of field_dot, so they share their bits."""
    return np.einsum("q,eq...->e...", QUAD_W, f)


def power_density(sigma, phi, mesh):
    """Per-element quadrature average of sigma |grad phi|^2, shape (nel[, I])."""
    g = gradient_field(phi, mesh)
    return (np.asarray(sigma, float) * element_mean(field_dot(g, g)).T).T


def psi_trace_values(mesh, excitation):
    """Dirichlet trace of the stream potentials at the boundary dofs.

    Constant jbar_{l,i} on gap l, affine ramp between the neighbouring constants
    across electrode l; returns (values (n_bdofs, I), boundary dof ids).  A node
    shared by two edges takes its value from the later edge in loop order.
    """
    hi = excitation.integrated.T  # (L, I)
    lo = np.vstack([np.zeros(hi.shape[1]), hi[:-1]])
    on, k = mesh.belectrode, mesh.bindex - 1
    s0 = mesh.bstart[on][np.unique(k[on], return_index=True)[1]]  # arc start of each electrode
    arc = (mesh.bstart - s0[k])[:, None] + np.array([0.0, 0.5, 1.0]) * mesh.blength[:, None]
    frac = arc / mesh.electrode_lengths[k, None]  # (nb, 3): each sample's share of its electrode
    ramp = lo[k, None] + (hi[k] - lo[k])[:, None] * frac[..., None]
    vals = np.where(on[:, None, None], ramp, hi[k, None]).reshape(-1, hi.shape[1])
    later = mesh.bnodes.size - 1 - np.unique(mesh.bnodes.ravel()[::-1], return_index=True)[1]
    return vals[later], mesh.boundary_dofs


def stream_potential(sigma, phi, mesh, excitation):
    """Stream potentials psi with perp-grad psi closest to sigma grad phi.

    Solves the Laplace problem int grad psi . grad q = int sigma grad phi .
    perp-grad q with Dirichlet trace given by the integrated currents (note
    perp-grad psi . perp-grad q = grad psi . grad q).  Works columnwise when phi
    carries several excitations.
    """
    phi = _nodal(phi, mesh)
    a = phi.reshape(mesh.n_nodes, -1)
    if a.shape[1] != excitation.n_excitations:
        raise InvalidExcitationError("phi column count does not match excitations")
    s = np.asarray(sigma, float)

    flux = s[:, None, None, None] * gradient_field(a, mesh)  # sigma grad phi
    rhs = perp_gradient_dual(flux, mesh)  # int flux . perp-grad(N_n)

    K = mesh.stiffness()
    trace, bdofs = psi_trace_values(mesh, excitation)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), bdofs)
    psi = np.zeros((mesh.n_nodes, a.shape[1]))
    psi[bdofs] = trace
    Kii = K[interior][:, interior].tocsc()
    rhs_i = rhs[interior] - K[interior][:, bdofs] @ trace
    psi[interior] = Factor(Kii).solve(rhs_i)
    return psi if phi.ndim > 1 else psi[:, 0]
