"""P2 finite elements on the unit disk with a complete-electrode-model forward solver.

The mesh generator produces concentric-ring triangulations whose boundary is split
into L electrodes and L gaps with endpoints at mesh vertices.  Assembly covers the
CEM bilinear form (bulk conduction + contact-impedance coupling + grounding row),
differential operators for P2 fields, the stream-potential construction, and the
power density.

Quadrature-point fields have shape (nel, nq, 2[, I]).  Each mesh carries one
sparse gradient operator ``Mesh.G`` (CSR, n_elements * nq * 2 rows, n_nodes
columns): row (e * nq + q) * 2 + a holds component a of the six P2 shape
gradients of element e at quadrature point q, in the columns of its nodes.
``gradient_field`` is ``G @ u`` reshaped to (nel, nq, 2[, I]).  The dual of
a field v, sum_{e,q} w_eq v_eq . grad N_n, is the transpose with the
quadrature weights, ``G.T @ (w v)`` (``gradient_dual``, on the transpose
``Mesh.Gt`` stored once per mesh).  The perp-gradient operator ``Mesh.Gp``
holds G's rows turned by a quarter turn, (-g2, g1) for each pair of rows, on
G's index arrays; it is built on first use, with its transpose ``Mesh.Gpt``,
and serves ``perp_gradient_field`` and its dual against perp-grad N_n,
``perp_gradient_dual``.  ``Mesh.element_stiffness`` holds the unit-sigma local
stiffness matrices A_e (nel, 6, 6), and ``Mesh.node_scatter`` sums rows of
local vectors (nel * 6[, I]) into the nodes.

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
verified once, when it is made, by one solve of a fixed right-hand side with
no zero-sum structure, and its solves return C-ordered rows in the matrix's
own order.

The CEM system A (N + L + 1 rows: the nodes, the L electrode voltages, the
zero-mean multiplier) is a saddle point; its solves run on the SPD block left
when the last electrode is grounded and the multiplier dropped (N + L - 1
rows, ``CemFactor``).  The symmetric order of that block is kept per layout
(``CemLayout``, one per mesh and impedance set).  A is linear in the applied
currents, which enter only the electrode rows n..n+L-1.  ``CemSystem.basis``
is the electrode basis Z = A^-1 E, E the L unit columns at those rows: one
checked solve of L columns per factorization.  A right-hand side that
vanishes off the electrode rows and has more columns than electrodes (I > L)
is solved as a product with Z: the currents of ``solve_cem``, whose residuals
are read off A Z - E, and the voltage-data adjoint of the reduced maps, which
functionals contracts on the gradients of Z.  Up to L columns are solved
directly.
"""
from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from functools import cached_property

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
        if np.any(z <= 0):
            raise InvalidMeshError("contact impedances must be positive")
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
    """

    def __init__(self, vertices, triangles_p1, boundary, electrodes, parents=None, scale=None):
        self.electrodes = electrodes
        self.scale = scale
        self.parents = None if parents is None else np.asarray(parents, int)
        self._cem_layout = None  # the CemLayout of the last electrode set assembled
        self._build(np.asarray(vertices, float), np.asarray(triangles_p1, int), boundary)

    # -- construction -----------------------------------------------------

    def _build(self, verts, tris, boundary):
        nv = len(verts)
        areas = _signed_areas(verts, tris)
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
        a2 = 2.0 * self.element_areas[:, None]
        # grad(lambda_i) = rot(p_{i+1} - p_{i+2}) / (2A), rot(x, y) = (-y... ) explicit:
        p1, p2, p3 = verts[:, 0], verts[:, 1], verts[:, 2]
        gl = np.empty((self.n_elements, 3, 2))
        gl[:, 0, 0] = (p2[:, 1] - p3[:, 1]) / a2[:, 0]
        gl[:, 0, 1] = (p3[:, 0] - p2[:, 0]) / a2[:, 0]
        gl[:, 1, 0] = (p3[:, 1] - p1[:, 1]) / a2[:, 0]
        gl[:, 1, 1] = (p1[:, 0] - p3[:, 0]) / a2[:, 0]
        gl[:, 2, 0] = (p1[:, 1] - p2[:, 1]) / a2[:, 0]
        gl[:, 2, 1] = (p2[:, 0] - p1[:, 0]) / a2[:, 0]
        self.grad_lambda = gl

        # G: one row per (element, quad point, component), holding that component
        # of the physical gradients of the element's 6 shapes in the columns of its nodes
        grads = np.einsum("qnl,ela->eqna", p2_shape_dl(QUAD_BARY), gl)  # (nel, nq, 6, 2)
        nrows = self.n_elements * len(QUAD_W) * 2
        cols = np.broadcast_to(self.triangles[:, None, None, :], (self.n_elements, len(QUAD_W), 2, 6))
        self.G = sp.csr_matrix(
            (grads.transpose(0, 1, 3, 2).ravel(), cols.astype(np.int32).ravel(),
             np.arange(0, 6 * nrows + 1, 6, dtype=np.int32)),
            shape=(nrows, self.n_nodes),
        )
        # Gt and Gp share G's arrays, so none may be changed in place (as scipy's
        # canonicalizations do); the flags must be set before Gt is made on them
        for a in (self.G.data, self.G.indices, self.G.indptr):
            a.flags.writeable = False
        self.Gt = self.G.T  # CSC on G's arrays
        self.qweights = self.element_areas[:, None] * QUAD_W[None, :]  # (nel, nq)
        self.qpoints = np.einsum("qi,eia->eqa", QUAD_BARY, verts)  # (nel, nq, 2)
        self.shapes_q = p2_shape(QUAD_BARY)  # (nq, 6)
        self.total_area = float(self.element_areas.sum())

    @cached_property
    def Gp(self):
        """The perp-gradient operator: rows (-g2, g1) for G's rows (g1, g2), on G's index arrays.

        The two rows of a quadrature point share their columns, so turning them
        only permutes and negates G's data.
        """
        g = self.G.data.reshape(-1, 2, 6)
        Gp = sp.csr_matrix((np.stack([-g[:, 1], g[:, 0]], axis=1).ravel(), self.G.indices, self.G.indptr),
                           shape=self.G.shape)
        Gp.data.flags.writeable = False
        return Gp

    @cached_property
    def Gpt(self):
        return self.Gp.T  # CSC on Gp's arrays

    # -- derived assemblies -------------------------------------------------

    @cached_property
    def element_stiffness(self):
        """The unit-sigma local stiffness matrices int_e grad N_j . grad N_k, (nel, 6, 6), from a
        contiguous copy of G's shape gradients: einsum over the strided view rounds differently."""
        nel, nq = self.qweights.shape
        grads = np.ascontiguousarray(self.G.data.reshape(nel, nq, 2, 6).transpose(0, 1, 3, 2))
        return np.einsum("eq,eqia,eqja->eij", self.qweights, grads, grads)

    @cached_property
    def node_scatter(self):
        """The element-to-node scatter (CSC, n_nodes x nel * 6): column 6 e + j is node j of element e."""
        return sp.csc_matrix((np.ones(self.triangles.size), self.triangles.ravel(),
                              np.arange(self.triangles.size + 1)), shape=(self.n_nodes, self.triangles.size))

    def stiffness(self, sigma=None):
        """Assemble int sigma grad u . grad v with piecewise-constant sigma (default 1)."""
        s = np.ones(self.n_elements) if sigma is None else np.asarray(sigma, float)
        return self._scatter(s[:, None, None] * self.element_stiffness)

    def mass(self):
        """Assemble int u v (degree-4 rule is exact for P2 x P2)."""
        n = self.shapes_q
        mloc = np.einsum("eq,qi,qj->eij", self.qweights, n, n)
        return self._scatter(mloc)

    def _scatter(self, loc):
        t = self.triangles
        rows = np.repeat(t, 6, axis=1).ravel()
        cols = np.tile(t, (1, 6)).ravel()
        return sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(self.n_nodes, self.n_nodes)).tocsr()

    def integral_weights(self):
        """Vector w with w_i = int N_i dOmega, so w @ u = int u dOmega."""
        return self.node_scatter @ np.einsum("eq,qi->ei", self.qweights, self.shapes_q).ravel()

    def checksum(self):
        return hashlib.sha256(serialize_mesh(self).encode()).hexdigest()


def _signed_areas(verts, tris):
    p = verts[tris]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


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
    electrodes = electrodes or ElectrodeConfig()
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
    mesh = Mesh(np.array(verts), tris, boundary, electrodes, scale=k)
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

    Parent links (child -> parent element) are stored on the result for exact
    field transfer.
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
    child = Mesh(mesh.nodes, mesh.triangles[:, _CHILDREN].reshape(-1, 3), boundary, mesh.electrodes,
                 parents=np.repeat(np.arange(mesh.n_elements), 4), scale=mesh.scale)
    child.parent_mesh = mesh
    return child


def nested_chain(fine_mesh, coarse_mesh):
    """The refinements from coarse_mesh down to fine_mesh, coarsest first."""
    chain = []
    mesh = fine_mesh
    while mesh is not coarse_mesh:
        if getattr(mesh, "parents", None) is None or not hasattr(mesh, "parent_mesh"):
            raise InvalidMeshError("meshes are not nested")
        chain.append(mesh)
        mesh = mesh.parent_mesh
    return chain[::-1]


def transfer_cell_field(values, fine_mesh, coarse_mesh):
    """Area-weighted aggregation of per-element values (axis 0) from a refined mesh to an ancestor."""
    vals = np.asarray(values, float).T
    for mesh in reversed(nested_chain(fine_mesh, coarse_mesh)):
        num = np.zeros(vals.shape[:-1] + (mesh.parent_mesh.n_elements,))
        np.add.at(num.T, mesh.parents, (vals * mesh.element_areas).T)
        vals = num / mesh.parent_mesh.element_areas
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
    electrodes = electrodes or ElectrodeConfig(count=int(boundary[2][boundary[1]].max()))
    mesh = Mesh(nodes[:n_verts], tris[:, :3].astype(int), boundary, electrodes)
    if mesh.n_nodes != len(nodes):
        raise InvalidMeshError("P2 node count mismatch after reload")
    return mesh


# -- CEM assembly and solve --------------------------------------------------


@dataclass
class CemSystem:
    """Assembled CEM Galerkin system for a fixed conductivity."""

    mesh: Mesh
    electrodes: ElectrodeConfig
    # (N + L + 1) symmetric, the zero-mean multiplier appended: every solve's contract and
    # check is against it, while its factor is made on the grounded SPD block (CemFactor)
    matrix: sp.csc_matrix
    layout: CemLayout  # the mesh's sigma-independent part, which also orders the factorization
    _lu: Factor | None = field(default=None, repr=False)
    _basis: np.ndarray | None = field(default=None, repr=False)
    _basis_residual: np.ndarray | None = field(default=None, repr=False)  # A Z - E

    @property
    def lu(self):
        """The CemFactor of ``matrix``, in the symmetric order of its layout."""
        if self._lu is None:
            self._lu = self.layout.factorize(self.matrix)
        return self._lu

    @property
    def basis(self):
        """The electrode basis Z = A^-1 E (N + L + 1, L), one solve of L columns per factor.

        E holds the unit columns at the electrode rows n..n+L-1, so column k is
        the solution for a unit current into electrode k.  Checked once against
        ``matrix``: raises AssemblyError when A Z - E exceeds SOLVE_RESIDUAL_BOUND.
        """
        if self._basis is None:
            n, L = self.mesh.n_nodes, self.electrodes.count
            E = np.zeros((self.matrix.shape[0], L))
            E[n : n + L] = np.eye(L)
            Z = self.lu.solve(E)
            R = self.matrix @ Z - E
            Factor.check(R, E, "electrode basis")
            self._basis, self._basis_residual = Z, R
        return self._basis


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
    order it already has.  Verified once, when made: its solve of one fixed
    right-hand side with no zero-sum structure must meet SOLVE_RESIDUAL_BOUND
    against ``matrix``, so a factor of another matrix, or a CEM solve that
    misses the grounding, raises AssemblyError, as a singular one does.
    ``solve`` returns C-ordered rows in the matrix's own order.
    """

    def __init__(self, matrix, block=None, ordered=False):
        self.matrix = matrix
        try:
            self.superlu = spla.splu(matrix if block is None else block,
                                     permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0, options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise AssemblyError(f"matrix is singular: {exc}") from exc
        probe = np.sin(np.arange(1.0, matrix.shape[0] + 1))
        self.check(matrix @ self.solve(probe) - probe, probe, "factor")

    def solve(self, rhs):
        """x with A x = rhs for rhs (N,) or (N, k); unchecked, the factor was checked when made."""
        return np.ascontiguousarray(self.superlu.solve(rhs))

    @staticmethod
    def check(residual, rhs, what):
        """The relative residual ||r|| / ||b|| of each column (the absolute one where b = 0);
        raises AssemblyError when one is not finite or exceeds SOLVE_RESIDUAL_BOUND."""
        scale = np.linalg.norm(rhs, axis=0)
        rel = np.linalg.norm(residual, axis=0) / np.where(scale == 0, 1.0, scale)
        if not np.all(rel <= SOLVE_RESIDUAL_BOUND):
            raise AssemblyError(f"{what} residual {np.max(rel):.3e} exceeds {SOLVE_RESIDUAL_BOUND:g}")
        return rel


class CemFactor(Factor):
    """The Factor of a CEM matrix A (N + L + 1 rows), made on its grounded block.

    A's node and electrode rows hold a block A0 whose kernel is the constants
    e (every potential and voltage equal); its last row and column hold the
    integral weights w, the zero-mean row w^T u = b_m and its multiplier.
    Grounding the last electrode voltage and dropping the multiplier leaves an
    SPD block, which is factored in the layout's order (``order``, None for
    the layout's first factor, which finds it).  A solve of A x = b takes three
    steps: the multiplier lam = 1^T b / |Omega| over the node and electrode
    rows, the one value for which e^T (b - w lam) = 0, so that A0 can meet it;
    the grounded block's solve of b - w lam, with the grounded voltage 0; and a
    shift by a constant t e so that w^T x meets the last row.
    """

    def __init__(self, matrix, layout):
        self.order, self.weights, self.area = layout.order, layout.weights, layout.area
        self.rows = np.s_[: len(self.weights)] if self.order is None else self.order
        super().__init__(matrix, layout.block(matrix), ordered=self.order is not None)

    def multiplier(self, rhs):
        """lam = 1^T b / |Omega| over the node and electrode rows of rhs."""
        return rhs[:-1].sum(axis=0) / self.area

    def solve(self, rhs):
        lam = self.multiplier(rhs)
        y = self.superlu.solve(rhs[self.rows] - np.multiply.outer(self.weights, lam))
        t = (rhs[-1] - self.weights @ y) / self.area
        x = np.empty(rhs.shape)
        x[self.rows] = y + t
        x[-2:] = t, lam  # the grounded voltage, shifted; the multiplier
        return x


def boundary_matrices(mesh, electrodes):
    """Electrode trace mass matrix M_e, moment vectors m_e, and lengths per electrode."""
    if len(mesh.electrode_lengths) != electrodes.count:
        raise InvalidMeshError(f"the mesh has {len(mesh.electrode_lengths)} electrodes, "
                               f"the electrode configuration {electrodes.count}")
    n, b = mesh.n_nodes, mesh.bnodes
    phi_t = line_shape(LINE_QP)  # (3 qp, 3 nodes)
    w = LINE_QW * mesh.blength[:, None]  # (nb, 3 qp)
    mloc = np.einsum("kq,qi,qj->kij", w, phi_t, phi_t)
    mom = np.einsum("kq,qi->ki", w, phi_t)
    Ms, ms = [], []
    for ell in range(1, electrodes.count + 1):
        k = np.flatnonzero(mesh.belectrode & (mesh.bindex == ell))
        rows, cols = np.repeat(b[k], 3, axis=1).ravel(), np.tile(b[k], 3).ravel()
        Ms.append(sp.coo_matrix((mloc[k].ravel(), (rows, cols)), shape=(n, n)).tocsr())
        ms.append(np.bincount(b[k].ravel(), weights=mom[k].ravel(), minlength=n))
    return Ms, ms, mesh.electrode_lengths


class CemLayout:
    """The sigma-independent part (S, C0) of the CEM system, its grounded pattern and its symmetric order.

    The matrix for sigma has C0's CSC pattern and the data S @ sigma + C0.data.
    S has one column per element, holding its stiffness entries (the block is
    linear in sigma); C0 holds the electrode, multiplier and integral-weight
    blocks.  ``area`` is |Omega| = 1^T w for the integral weights w, and
    ``weights`` is w on the rows of the grounded block (zero on its electrode
    rows), in its factored order.  Built once per mesh and impedances.
    """

    def __init__(self, key, S, C0, w):
        self.key, self.S, self.C0 = key, S, C0
        self.area = w.sum()
        m = C0.shape[0] - 2  # the grounded block: every row but the last voltage and the multiplier
        self.weights = np.concatenate([w, np.zeros(m - len(w))])
        self.order = None  # symmetric order of the first factor: it factored P B P^T = B[order][:, order]
        positions = sp.csc_matrix((np.arange(C0.nnz), C0.indices, C0.indptr), shape=C0.shape)
        self._block = positions[:m, :m]  # the grounded block, holding its entries' positions in A.data

    def block(self, matrix):
        """The grounded block of a matrix on this layout, in the kept order once there is one."""
        b = self._block
        return sp.csc_matrix((matrix.data[b.data], b.indices, b.indptr), shape=b.shape)

    def factorize(self, matrix):
        """The CemFactor of a matrix on this layout.

        The minimum-degree order depends only on the pattern, which every
        matrix of the layout shares, so the first factorization orders the
        grounded block and the layout keeps a copy of the order (keeping
        perm_c itself would keep that factor's L and U alive).  perm_c holds
        SuperLU's elimination-tree postorder too, so P B P^T, gathered onto a
        pattern permuted once, has the same fill in its natural order, which
        later factors use.
        """
        factor = CemFactor(matrix, self)
        if self.order is None:
            self.order = np.argsort(factor.superlu.perm_c)
            self.weights = self.weights[self.order]
            self._block = self._block[self.order][:, self.order]
            self._block.sort_indices()
        return factor


# Local P2 node pairs (vertex i, midpoint of the opposite edge) and their transposes:
# int grad phi_vi . grad phi_m(jk) = 0 on every triangle, so they stay out of the pattern.
_ZERO_COUPLINGS = ([0, 4, 1, 5, 2, 3], [4, 0, 5, 1, 3, 2])


def _cem_layout(mesh, electrodes):
    """The mesh's CemLayout for these electrodes, built on first use and kept for the last impedance set."""
    key = (electrodes.count, electrodes.impedances.tobytes())
    if mesh._cem_layout is not None and mesh._cem_layout.key == key:
        return mesh._cem_layout
    L, z = electrodes.count, electrodes.impedances
    Ms, ms, lens = boundary_matrices(mesh, electrodes)
    C = np.stack([-ms[l] / z[l] for l in range(L)], axis=1)
    w = mesh.integral_weights()
    const = sp.bmat([[sum(Ms[l] / z[l] for l in range(L)), C, w[:, None]],
                     [C.T, sp.diags(lens / z), None],
                     [w[None, :], None, None]], format="coo")
    N = const.shape[0]
    live = np.ones((6, 6), bool)
    live[_ZERO_COUPLINGS] = False
    t = mesh.triangles
    # column-major keys col * N + row sort the entries into CSC order
    kkeys = (t[:, None, :] * N + t[:, :, None])[:, live].ravel()
    ckeys = const.col.astype(np.int64) * N + const.row
    keys, pos = np.unique(np.concatenate([kkeys, ckeys]), return_inverse=True)
    per_element = np.arange(0, len(kkeys) + 1, live.sum())
    S = sp.csc_matrix((mesh.element_stiffness[:, live].ravel(), pos[: len(kkeys)], per_element), (len(keys), len(t)))
    c0 = np.bincount(pos[len(kkeys) :], weights=const.data, minlength=len(keys))
    C0 = sp.csc_matrix((c0, keys % N, np.searchsorted(keys, np.arange(N + 1) * N)), shape=(N, N))
    mesh._cem_layout = CemLayout(key, S, C0, w)
    return mesh._cem_layout


def assemble_cem(mesh, sigma, electrodes=None):
    """Assemble the CEM system for piecewise-constant sigma.

    Bilinear form: int sigma grad(phi).grad(p) + sum_l z_l^-1 int_{e_l}
    (phi - v_l)(p - xi_l); the kernel (constants) is removed by appending the
    zero-mean constraint as a symmetric Lagrange-multiplier row, so the matrix
    has N + L + 1 rows.  Its factor grounds the last electrode instead (see
    CemFactor).  The matrix data is one sparse matvec on the mesh's cached
    layout (see CemLayout).
    """
    electrodes = electrodes or mesh.electrodes
    s = np.asarray(sigma, float)
    if s.shape != (mesh.n_elements,):
        raise InvalidFieldError("sigma must hold one value per element")
    if not np.all(np.isfinite(s)):
        raise InvalidFieldError("sigma contains non-finite entries")
    if np.any(s <= 0):
        raise CoercivityError("sigma must be strictly positive for coercivity")

    layout = _cem_layout(mesh, electrodes)
    C0 = layout.C0
    matrix = sp.csc_matrix((layout.S @ s + C0.data, C0.indices, C0.indptr), shape=C0.shape)
    return CemSystem(mesh, electrodes, matrix, layout)


def solve_cem(system, excitation):
    """Solve the CEM system for every excitation row; raises AssemblyError
    on a residual above SOLVE_RESIDUAL_BOUND.  With I > L the solution is Z J^T on the
    electrode basis, and A (Z J^T) - E J^T = R J^T reads its residuals off R = A Z - E."""
    if isinstance(excitation, np.ndarray):
        excitation = ExcitationSet(excitation)
    n, L = system.mesh.n_nodes, system.electrodes.count
    if excitation.n_electrodes != L:
        raise InvalidExcitationError("excitation width does not match electrode count")
    J = excitation.currents
    if len(J) > L:
        sol, residual = system.basis @ J.T, system._basis_residual @ J.T
    else:
        rhs = np.zeros((n + L + 1, len(J)))
        rhs[n : n + L] = J.T
        sol = system.lu.solve(rhs)
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


def _field(op, phi, mesh):
    a = _nodal(phi, mesh)
    return (op @ a).reshape(mesh.qweights.shape + (2,) + a.shape[1:])


def _dual(op_t, v, mesh):
    v = np.asarray(v, float)
    w = mesh.qweights.reshape(mesh.qweights.shape + (1,) * (v.ndim - 2))
    return op_t @ (w * v).reshape((op_t.shape[1],) + v.shape[3:])


def gradient_field(phi, mesh):
    """Gradient of a P2 field at the quadrature points, shape (nel, nq, 2[, I])."""
    return _field(mesh.G, phi, mesh)


def perp_gradient_field(psi, mesh):
    """Rotated gradient (-d2, d1) of a P2 field at the quadrature points: Gp @ psi."""
    return _field(mesh.Gp, psi, mesh)


def gradient_dual(v, mesh):
    """Nodal dual sum_{e,q} w_eq v_eq . grad N_n of a field (nel, nq, 2[, I]): G.T @ (w v).

    The adjoint of gradient_field in the quadrature inner product.
    """
    return _dual(mesh.Gt, v, mesh)


def perp_gradient_dual(v, mesh):
    """Nodal dual sum_{e,q} w_eq v_eq . perp-grad N_n of a field (nel, nq, 2[, I]): Gp.T @ (w v).

    The adjoint of perp_gradient_field in the quadrature inner product.
    """
    return _dual(mesh.Gpt, v, mesh)


def field_dot(u, v):
    """u . v of quadrature-point fields (nel, nq, 2[, I]): the bits of (u * v).sum(axis=2), a third of its cost."""
    return u[:, :, 0] * v[:, :, 0] + u[:, :, 1] * v[:, :, 1]


def power_density(sigma, phi, mesh):
    """Per-element quadrature average of sigma |grad phi|^2, shape (nel[, I])."""
    s = np.asarray(sigma, float)
    return (np.einsum("q,eqa...->...e", QUAD_W, gradient_field(phi, mesh) ** 2) * s).T


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
