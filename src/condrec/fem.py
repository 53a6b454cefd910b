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
``gradient_field`` is ``G @ u`` reshaped to (nel, nq, 2[, I]).  The
perp-gradient is the quarter turn (-g2, g1) of the gradient (``rotate``).  The
dual of a field v, sum_{e,q} w_eq v_eq . grad N_n, is the transpose with the
quadrature weights, ``G.T @ (w v)`` (``gradient_dual``, on the transpose
``Mesh.Gt`` stored once per mesh); the dual against perp-grad N_n is minus
the dual of the rotated field.

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

The grounded CEM system A (N + L + 1 rows: the nodes, the L electrode
voltages, the grounding multiplier) is linear in the applied currents, which
enter only the electrode rows n..n+L-1.  ``CemSystem.basis`` is the electrode
basis Z = A^-1 E, E the L unit columns at those rows: one checked solve of L
columns per factorization.  A right-hand side that vanishes off the electrode
rows and has more columns than electrodes (I > L) is solved as a product with
Z: the currents of ``solve_cem``, and the voltage-data adjoint of the reduced
maps, which functionals contracts on the gradients of Z.  Up to L columns are
solved directly.
"""
from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field

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
        self.Gt = self.G.T  # CSC on G's arrays
        self.qweights = self.element_areas[:, None] * QUAD_W[None, :]  # (nel, nq)
        self.qpoints = np.einsum("qi,eia->eqa", QUAD_BARY, verts)  # (nel, nq, 2)
        self.shapes_q = p2_shape(QUAD_BARY)  # (nq, 6)
        self.total_area = float(self.element_areas.sum())

    # -- derived assemblies -------------------------------------------------

    def _shape_gradients(self):
        """The P2 shape gradients (nel, nq, 6, 2) at the quadrature points, read from G.

        A contiguous copy: einsum over the strided view rounds differently.
        """
        nel, nq = self.qweights.shape
        return np.ascontiguousarray(self.G.data.reshape(nel, nq, 2, 6).transpose(0, 1, 3, 2))

    def stiffness(self, sigma=None):
        """Assemble int sigma grad u . grad v with piecewise-constant sigma (default 1)."""
        s = np.ones(self.n_elements) if sigma is None else np.asarray(sigma, float)
        grads = self._shape_gradients()
        kloc = np.einsum("eq,eqia,eqja->eij", self.qweights * s[:, None], grads, grads)
        return self._scatter(kloc)

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
        w = np.zeros(self.n_nodes)
        contrib = np.einsum("eq,qi->ei", self.qweights, self.shapes_q)
        np.add.at(w, self.triangles, contrib)
        return w

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


def prolong_cell_field(values, coarse_mesh, fine_mesh):
    """Children inherit their parent's per-element value (exact for nested meshes)."""
    vals = np.asarray(values, float)
    for mesh in nested_chain(fine_mesh, coarse_mesh):
        vals = vals[mesh.parents]
    return vals


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
    """Assembled, grounded CEM Galerkin system for a fixed conductivity."""

    mesh: Mesh
    electrodes: ElectrodeConfig
    matrix: sp.csc_matrix  # (N + L + 1) symmetric, grounding multiplier appended
    layout: CemLayout  # the mesh's sigma-independent part, which also orders the factorization
    _lu: object = field(default=None, repr=False)
    _basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_dofs(self):
        return self.mesh.n_nodes

    @property
    def lu(self):
        """The factor of ``matrix``; its ``solve(rhs)`` returns rows in mesh-node order."""
        if self._lu is None:
            try:
                self._lu = self.layout.factorize(self.matrix)
            except RuntimeError as exc:  # singular after grounding
                raise AssemblyError(f"grounded CEM system is singular: {exc}") from exc
        return self._lu

    @property
    def basis(self):
        """The electrode basis Z = A^-1 E (N + L + 1, L), one solve of L columns per factor.

        E holds the unit columns at the electrode rows n..n+L-1, so column k is
        the solution for a unit current into electrode k.  Checked once: raises
        AssemblyError when Z is not finite or ||A Z - E|| exceeds SOLVE_RESIDUAL_BOUND.
        """
        if self._basis is None:
            n, L = self.n_dofs, self.electrodes.count
            E = np.zeros((self.matrix.shape[0], L))
            E[n : n + L] = np.eye(L)
            Z = self.lu.solve(E)
            _check_solve(self.matrix, Z, E, "electrode basis")
            self._basis = Z
        return self._basis


@dataclass
class CemSolution:
    """Potentials (one column per excitation) and electrode voltages."""

    phi: np.ndarray  # (n_dofs, I)
    voltages: np.ndarray  # (I, L)
    residuals: np.ndarray  # relative linear-solve residual per excitation


# Largest relative residual ||A x - b|| / ||b|| a CEM solve may leave: round-off
# leaves about 1e-14, more means the factor does not belong to the matrix.
SOLVE_RESIDUAL_BOUND = 1e-8


def _check_solve(matrix, x, rhs, what):
    """The relative residual of each column of x; raises AssemblyError when x is
    not finite or a residual exceeds SOLVE_RESIDUAL_BOUND."""
    if np.any(~np.isfinite(x)):
        raise AssemblyError(f"{what} produced non-finite values")
    scale = np.linalg.norm(rhs, axis=0)
    scale[scale == 0] = 1.0
    rel = np.linalg.norm(matrix @ x - rhs, axis=0) / scale
    if rel.max() > SOLVE_RESIDUAL_BOUND:
        raise AssemblyError(f"{what} residual {rel.max():.3e} exceeds {SOLVE_RESIDUAL_BOUND:g}")
    return rel


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
    """The sigma-independent part (S, C0) of the grounded CEM system, and its column order.

    The matrix for sigma has C0's CSC pattern and the data S @ sigma + C0.data.
    S has one column per element, holding its stiffness entries (the block is
    linear in sigma); C0 holds the electrode, grounding and integral-weight
    blocks.  Built once per mesh and impedances.
    """

    def __init__(self, key, S, C0):
        self.key, self.S, self.C0 = key, S, C0
        self.order = None  # column order of the first factor: its A Pc is A[:, order]
        self._permuted = None  # A[:, order] as (data gather, indices, indptr), built on the second factorization

    def factorize(self, matrix):
        """The SuperLU factor of a matrix on this layout, solving in mesh-node order.

        COLAMD's column order depends only on the pattern, which every matrix
        of the layout shares, so the first factorization orders and keeps a
        copy of the order (keeping perm_c itself would keep that factor's L and
        U alive), and later ones factor A[:, order] in its natural order.
        perm_c already holds SuperLU's elimination-tree postorder, which the
        natural-order call leaves out, so the fill is the same; only where
        SuperLU prefers the diagonal on a pivot tie does the row it picks
        differ, which can move the last bits.
        """
        if self.order is None:
            lu = spla.splu(matrix)
            self.order = np.argsort(lu.perm_c)
            return lu
        if self._permuted is None:
            C0 = self.C0
            index = sp.csc_matrix((np.arange(C0.nnz), C0.indices, C0.indptr), shape=C0.shape)[:, self.order]
            self._permuted = (index.data, index.indices, index.indptr)
        gather, indices, indptr = self._permuted
        permuted = sp.csc_matrix((matrix.data[gather], indices, indptr), shape=matrix.shape)
        return _PermutedFactor(spla.splu(permuted, permc_spec="NATURAL"), self.order)


class _PermutedFactor:
    """Solves A x = b with the factor of A[:, order]: A[:, order] y = b, then x[order] = y.

    x keeps y's memory layout, the one the first factor's solves return.
    """

    __slots__ = ("factor", "order")

    def __init__(self, factor, order):
        self.factor, self.order = factor, order

    def solve(self, rhs):
        y = self.factor.solve(rhs)
        x = np.empty_like(y)
        x[self.order] = y
        return x


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
    grads = mesh._shape_gradients()
    kref = np.einsum("eq,eqia,eqja->eij", mesh.qweights, grads, grads)
    live = kref != 0  # an entry that is zero here is zero for every sigma
    t = mesh.triangles
    # column-major keys col * N + row sort the entries into CSC order
    kkeys = (t[:, None, :] * N + t[:, :, None])[live]
    ckeys = const.col.astype(np.int64) * N + const.row
    keys, pos = np.unique(np.concatenate([kkeys, ckeys]), return_inverse=True)
    per_element = np.concatenate([[0], np.cumsum(live.sum(axis=(1, 2)))])
    S = sp.csc_matrix((kref[live], pos[: len(kkeys)], per_element), shape=(len(keys), len(t)))
    c0 = np.bincount(pos[len(kkeys) :], weights=const.data, minlength=len(keys))
    C0 = sp.csc_matrix((c0, keys % N, np.searchsorted(keys, np.arange(N + 1) * N)), shape=(N, N))
    mesh._cem_layout = CemLayout(key, S, C0)
    return mesh._cem_layout


def assemble_cem(mesh, sigma, electrodes=None):
    """Assemble the grounded CEM system for piecewise-constant sigma.

    Bilinear form: int sigma grad(phi).grad(p) + sum_l z_l^-1 int_{e_l}
    (phi - v_l)(p - xi_l); the kernel (constants) is removed by appending the
    zero-mean constraint as a symmetric Lagrange-multiplier row.  The matrix
    data is one sparse matvec on the mesh's cached layout (see CemLayout).
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
    """Solve the grounded CEM system for every excitation row (on the electrode
    basis when there are more excitations than electrodes); raises AssemblyError
    on a non-finite solution or a residual above SOLVE_RESIDUAL_BOUND."""
    if isinstance(excitation, np.ndarray):
        excitation = ExcitationSet(excitation)
    mesh = system.mesh
    L = system.electrodes.count
    if excitation.n_electrodes != L:
        raise InvalidExcitationError("excitation width does not match electrode count")
    n = mesh.n_nodes
    nI = excitation.n_excitations
    rhs = np.zeros((n + L + 1, nI))
    rhs[n : n + L, :] = excitation.currents.T
    sol = system.basis @ excitation.currents.T if nI > L else system.lu.solve(rhs)
    rel = _check_solve(system.matrix, sol, rhs, "CEM solve")
    return CemSolution(phi=sol[:n], voltages=sol[n : n + L].T, residuals=rel)


# -- field operators ---------------------------------------------------------


def _nodal(phi, mesh):
    """A nodal field (n_nodes,) or stack of them (n_nodes, I) as a float array."""
    a = np.asarray(phi, float)
    if a.shape[0] != mesh.n_nodes:
        raise InvalidFieldError("nodal field length does not match mesh")
    return a


def gradient_field(phi, mesh):
    """Gradient of a P2 field at the quadrature points, shape (nel, nq, 2[, I])."""
    a = _nodal(phi, mesh)
    return (mesh.G @ a).reshape(mesh.qweights.shape + (2,) + a.shape[1:])


def rotate(v):
    """The quarter turn (-v2, v1) of a quadrature-point vector field (nel, nq, 2[, I])."""
    return np.stack([-v[:, :, 1], v[:, :, 0]], axis=2)


def perp_gradient_field(psi, mesh):
    """Rotated gradient (-d2, d1) of a P2 field at the quadrature points."""
    return rotate(gradient_field(psi, mesh))


def gradient_dual(v, mesh):
    """Nodal dual sum_{e,q} w_eq v_eq . grad N_n of a field (nel, nq, 2[, I]): G.T @ (w v).

    The adjoint of gradient_field in the quadrature inner product.  The dual
    against perp-grad N_n is -gradient_dual(rotate(v)).
    """
    v = np.asarray(v, float)
    w = mesh.qweights.reshape(mesh.qweights.shape + (1,) * (v.ndim - 2))
    return mesh.Gt @ (w * v).reshape((mesh.G.shape[0],) + v.shape[3:])


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
    rhs = -gradient_dual(rotate(flux), mesh)  # int flux . perp-grad(N_n)

    K = mesh.stiffness()
    trace, bdofs = psi_trace_values(mesh, excitation)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), bdofs)
    psi = np.zeros((mesh.n_nodes, a.shape[1]))
    psi[bdofs] = trace
    Kii = K[interior][:, interior].tocsc()
    rhs_i = rhs[interior] - K[interior][:, bdofs] @ trace
    psi[interior] = spla.splu(Kii).solve(rhs_i)
    return psi if phi.ndim > 1 else psi[:, 0]
