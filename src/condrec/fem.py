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
quadrature weights, ``G.T @ (w v)`` (``gradient_dual``); the dual against
perp-grad N_n is minus the dual of the rotated field.
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


@dataclass
class BoundaryEdge:
    nodes: tuple  # (a, mid, b) node ids, CCW
    tag: str  # "electrode" or "gap"
    index: int  # 1-based segment number
    s_start: float
    length: float


class Mesh:
    """P2 triangulation with a tagged electrode/gap boundary.

    ``nodes`` holds corner vertices first, then edge nodes.  ``triangles`` has the
    node order [v1, v2, v3, m12, m23, m31].  Boundary edges form a closed CCW loop
    parametrized by cumulative chord length starting at the first electrode start.
    """

    def __init__(self, vertices, triangles_p1, boundary_loop, electrodes, parents=None, scale=None):
        self.electrodes = electrodes
        self.scale = scale
        self.parents = None if parents is None else np.asarray(parents, int)
        self._cem_layout = None  # (key, S, C0, w) of the last electrode set assembled
        self._build(np.asarray(vertices, float), np.asarray(triangles_p1, int), boundary_loop)

    # -- construction -----------------------------------------------------

    def _build(self, verts, tris, boundary_loop):
        nv = len(verts)
        areas = _signed_areas(verts, tris)
        flip = areas < 0
        if np.any(flip):
            tris = tris.copy()
            tris[flip] = tris[flip][:, [0, 2, 1]]
            areas = np.abs(areas)
        if np.any(areas <= 0):
            raise InvalidMeshError("degenerate triangle in mesh")

        edge_ids = {}
        mids = []

        def edge_node(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in edge_ids:
                edge_ids[key] = nv + len(mids)
                mids.append(0.5 * (verts[key[0]] + verts[key[1]]))
            return edge_ids[key]

        t6 = np.empty((len(tris), 6), int)
        t6[:, :3] = tris
        for e, (a, b, c) in enumerate(tris):
            t6[e, 3] = edge_node(a, b)
            t6[e, 4] = edge_node(b, c)
            t6[e, 5] = edge_node(c, a)

        self.n_vertices = nv
        self.nodes = np.vstack([verts, np.array(mids)]) if mids else verts.copy()
        self.triangles = t6
        self.element_areas = areas
        self.n_elements = len(tris)
        self.n_nodes = len(self.nodes)

        # boundary loop: consecutive vertex pairs, CCW, tagged
        edges = []
        s = 0.0
        for (a, b, tag, idx) in boundary_loop:
            length = float(np.linalg.norm(verts[b] - verts[a]))
            edges.append(BoundaryEdge((a, edge_node(a, b), b), tag, idx, s, length))
            s += length
        self.boundary_edges = edges
        self.boundary_length = s

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

        dl = p2_shape_dl(QUAD_BARY)  # (nq, 6, 3)
        # physical gradients of the 6 shapes at the 6 quad points per element
        self.dN = np.einsum("qnl,ela->eqna", dl, gl)  # (nel, nq, 6, 2)
        # G: one row per (element, quad point, component), holding that component
        # of the element's 6 shape gradients in the columns of its nodes
        nrows = self.n_elements * len(QUAD_W) * 2
        cols = np.broadcast_to(self.triangles[:, None, None, :], (self.n_elements, len(QUAD_W), 2, 6))
        self.G = sp.csr_matrix(
            (self.dN.transpose(0, 1, 3, 2).ravel(), cols.astype(np.int32).ravel(),
             np.arange(0, 6 * nrows + 1, 6, dtype=np.int32)),
            shape=(nrows, self.n_nodes),
        )
        self.qweights = self.element_areas[:, None] * QUAD_W[None, :]  # (nel, nq)
        self.qpoints = np.einsum("qi,eia->eqa", QUAD_BARY, verts)  # (nel, nq, 2)
        self.shapes_q = p2_shape(QUAD_BARY)  # (nq, 6)

        self.boundary_dofs = np.array(sorted(set(d for e in self.boundary_edges for d in e.nodes)), int)
        self.total_area = float(self.element_areas.sum())

    # -- derived assemblies -------------------------------------------------

    def stiffness(self, sigma=None):
        """Assemble int sigma grad u . grad v with piecewise-constant sigma (default 1)."""
        s = np.ones(self.n_elements) if sigma is None else np.asarray(sigma, float)
        w = self.qweights * s[:, None]
        kloc = np.einsum("eq,eqia,eqja->eij", w, self.dN, self.dN)
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

    def electrode_edges(self, ell):
        return [e for e in self.boundary_edges if e.tag == "electrode" and e.index == ell]

    def gap_edges(self, ell):
        return [e for e in self.boundary_edges if e.tag == "gap" and e.index == ell]

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
    rings = []
    for j in range(1, n_rings + 1):
        r = j / n_rings
        if j < n_rings:
            m = _ring_count(m_bnd * j / n_rings)
            th = t0 + 2 * np.pi * np.arange(m) / m
        else:
            m = m_bnd
            th = 2 * np.pi * np.arange(m) / m
        ids = np.arange(len(verts), len(verts) + m)
        verts.extend(zip(r * np.cos(th), r * np.sin(th)))
        rings.append((ids, th))

    tris = []
    ids1, _ = rings[0]
    m1 = len(ids1)
    for i in range(m1):
        tris.append((0, ids1[i], ids1[(i + 1) % m1]))
    for (inner, thi), (outer, tho) in zip(rings[:-1], rings[1:]):
        tris.extend(_symmetric_strip(inner, thi, outer, tho, t0))

    bnd_ids, _ = rings[-1]
    loop = _boundary_loop(bnd_ids, m_bnd, L, elec_edges)
    mesh = Mesh(np.array(verts), np.array(tris, int), loop, electrodes, scale=k)
    if mesh.n_elements != len(tris):
        raise InvalidMeshError("internal: strip triangulation lost elements")
    return mesh


def _boundary_loop(bnd_ids, m_bnd, L, elec_edges):
    """Tag the uniform boundary ring: per sector, elec_edges electrode then gap edges."""
    per_sector = m_bnd // L
    loop = []
    for i in range(m_bnd):
        sector = i // per_sector
        within = i % per_sector
        tag = "electrode" if within < elec_edges else "gap"
        loop.append((int(bnd_ids[i]), int(bnd_ids[(i + 1) % m_bnd]), tag, sector + 1))
    return loop


def _symmetric_strip(inner, thi, outer, tho, t0):
    """Triangulate the annulus strip between two rings, exactly invariant under
    the dihedral group {id, mirror about t0, mirror about t0 + pi/2, rotation pi}.

    A greedy staircase is built on the quarter sector [t0, t0 + pi/2] and its
    three group images fill the rest.  The inner ring must have vertices on both
    axes (mod-4 count at offset t0); the outer ring either has them too or
    straddles each axis symmetrically, in which case an axis-centred seed
    triangle stitches the quarters together.
    """
    two_pi = 2 * np.pi

    def offsets(th):
        return (np.asarray(th, float) - t0 + np.pi) % two_pi - np.pi  # in (-pi, pi]

    oin, oout = offsets(thi), offsets(tho)

    class Ring:
        def __init__(self, offs, ids):
            order = np.argsort(offs)
            self.offs = offs[order]
            self.ids = np.asarray(ids, int)[order]
            self.members = set(int(i) for i in ids)

        def find(self, off):
            o = (float(off) + np.pi) % two_pi - np.pi
            j = int(np.argmin(np.minimum(np.abs(self.offs - o), two_pi - np.abs(self.offs - o))))
            gap = min(abs(self.offs[j] - o), two_pi - abs(self.offs[j] - o))
            if gap > 1e-9:
                raise InvalidMeshError("internal: ring not symmetric under the mirror group")
            return int(self.ids[j])

    rin, rout = Ring(oin, inner), Ring(oout, outer)

    def quarter(offs, ids):
        sel = [(float(o), int(i)) for o, i in zip(offs, ids) if -1e-12 <= o <= np.pi / 2 + 1e-12]
        sel.sort()
        return sel

    qin = quarter(oin, inner)
    qout = quarter(oout, outer)
    on_axis = abs(qout[0][0]) < 1e-12  # outer has a vertex on the t0 axis

    tris_q = []
    seeds = []
    if not on_axis:
        b = qout[0][0]
        seeds.append((rout.find(-b), qout[0][1], qin[0][1]))
        c = np.pi / 2 - qout[-1][0]
        seeds.append((qout[-1][1], rout.find(np.pi / 2 + c), qin[-1][1]))

    # greedy staircase over the quarter
    i = o = 0
    while i < len(qin) - 1 or o < len(qout) - 1:
        can_i = i < len(qin) - 1
        can_o = o < len(qout) - 1
        if can_i and (not can_o or qin[i + 1][0] <= qout[o + 1][0] + 1e-14):
            tris_q.append((qin[i][1], qin[i + 1][1], qout[o][1]))
            i += 1
        else:
            tris_q.append((qout[o][1], qout[o + 1][1], qin[i][1]))
            o += 1

    # group images: reflections negate / flip offsets, rotation adds pi
    def image(tri, fmap):
        return tuple(fmap(v) for v in tri)

    off_of = {}
    for o, idx in zip(oin, inner):
        off_of[int(idx)] = float(o)
    for o, idx in zip(oout, outer):
        off_of[int(idx)] = float(o)

    def mapper(f):
        def fmap(v):
            ring = rin if v in rin.members else rout
            return ring.find(f(off_of[v]))

        return fmap

    refl_a = mapper(lambda a: -a)
    refl_b = mapper(lambda a: np.pi - a)
    rot = mapper(lambda a: a + np.pi)

    seen = set()
    out = []
    for tri in list(tris_q) + seeds:
        for img in (tri, image(tri, refl_a), image(tri, refl_b), image(tri, rot)):
            key = frozenset(img)
            if key not in seen:
                seen.add(key)
                out.append(img)
    expect = len(inner) + len(outer)
    if len(out) != expect:
        raise InvalidMeshError(f"internal: strip produced {len(out)} triangles, expected {expect}")
    return out


def build_disk_mesh(level, electrodes=None):
    """Disk mesh at refinement level >= 0; element/node counts grow x4 per level."""
    if level < 0:
        raise InvalidMeshError("refinement level must be >= 0")
    return disk_mesh_scale(2**level, electrodes)


def refine_mesh(mesh, times=1, project_boundary=False):
    """Subdivide each triangle into four; children tile parents exactly.

    With ``project_boundary`` the new boundary vertices are moved to the unit
    circle (better geometry, loses exact nesting).  Parent links (child -> parent
    element) are stored on the result for exact field transfer.
    """
    out = mesh
    for _ in range(times):
        out = _refine_once(out, project_boundary)
    return out


def _refine_once(mesh, project_boundary):
    verts = mesh.nodes[: mesh.n_vertices]
    nv = mesh.n_vertices
    # midpoints become new vertices; reuse the P2 edge-node layout
    new_verts = [mesh.nodes[i] for i in range(mesh.n_nodes)]
    tris = []
    parents = []
    for e, t in enumerate(mesh.triangles):
        a, b, c, mab, mbc, mca = t
        tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
        parents.extend([e, e, e, e])
    new_verts = np.array(new_verts)

    bnd_mid = set()
    loop = []
    for be in mesh.boundary_edges:
        a, m, b = be.nodes
        loop.append((a, m, be.tag, be.index))
        loop.append((m, b, be.tag, be.index))
        bnd_mid.add(m)
    if project_boundary:
        new_verts = new_verts.copy()
        for m in bnd_mid:
            r = np.linalg.norm(new_verts[m])
            if r > 0:
                new_verts[m] = new_verts[m] / r

    child = Mesh(new_verts, np.array(tris, int), loop, mesh.electrodes, parents=np.array(parents), scale=mesh.scale)
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
    buf.write(f"boundary {len(mesh.boundary_edges)}\n")
    for e in mesh.boundary_edges:
        a, m, b = e.nodes
        buf.write(f"{a} {m} {b} {e.tag} {e.index}\n")
    return buf.getvalue()


def save_mesh(mesh, path):
    with open(path, "w") as f:
        f.write(serialize_mesh(mesh))


def load_mesh(path, electrodes=None):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("condrec-mesh"):
        raise InvalidMeshError(f"not a mesh file: {path}")
    head = lines[1].split()
    n_nodes, n_verts = int(head[1]), int(head[3])
    nodes = np.empty((n_nodes, 2))
    at = 2
    for i in range(n_nodes):
        parts = lines[at + i].split()
        nodes[int(parts[0])] = (float(parts[1]), float(parts[2]))
    at += n_nodes
    n_el = int(lines[at].split()[1])
    at += 1
    tris = np.array([[int(v) for v in lines[at + i].split()] for i in range(n_el)], int)
    at += n_el
    n_bnd = int(lines[at].split()[1])
    at += 1
    loop = []
    for i in range(n_bnd):
        parts = lines[at + i].split()
        loop.append((int(parts[0]), int(parts[2]), parts[3], int(parts[4])))
    mesh = Mesh(nodes[:n_verts], tris[:, :3], loop, electrodes or ElectrodeConfig())
    if mesh.n_nodes != n_nodes:
        raise InvalidMeshError("P2 node count mismatch after reload")
    return mesh


# -- CEM assembly and solve --------------------------------------------------


@dataclass
class CemSystem:
    """Assembled, grounded CEM Galerkin system for a fixed conductivity."""

    mesh: Mesh
    electrodes: ElectrodeConfig
    sigma: np.ndarray
    matrix: sp.csc_matrix  # (N + L + 1) symmetric, grounding multiplier appended
    weights: np.ndarray  # integral weights used by the grounding row
    _lu: object = field(default=None, repr=False)

    @property
    def n_dofs(self):
        return self.mesh.n_nodes

    @property
    def lu(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix)
            except RuntimeError as exc:  # singular after grounding
                raise AssemblyError(f"grounded CEM system is singular: {exc}") from exc
        return self._lu


@dataclass
class CemSolution:
    """Potentials (one column per excitation) and electrode voltages."""

    phi: np.ndarray  # (n_dofs, I)
    voltages: np.ndarray  # (I, L)
    residuals: np.ndarray  # relative linear-solve residual per excitation


# Largest relative residual ||A x - b|| / ||b|| a CEM solve may leave: round-off
# leaves about 1e-14, more means the factor does not belong to the matrix.
SOLVE_RESIDUAL_BOUND = 1e-8


def boundary_matrices(mesh, electrodes):
    """Electrode trace mass matrix M_e, moment vectors m_e, and lengths per electrode."""
    L = electrodes.count
    n = mesh.n_nodes
    Ms, ms, lens = [], [], []
    phi_t = line_shape(LINE_QP)  # (3 qp, 3 nodes)
    for ell in range(1, L + 1):
        rows, cols, vals = [], [], []
        mvec = np.zeros(n)
        tot = 0.0
        for e in mesh.electrode_edges(ell):
            idx = np.array(e.nodes)
            w = LINE_QW * e.length
            mloc = np.einsum("q,qi,qj->ij", w, phi_t, phi_t)
            rows.extend(np.repeat(idx, 3))
            cols.extend(np.tile(idx, 3))
            vals.extend(mloc.ravel())
            mvec[idx] += np.einsum("q,qi->i", w, phi_t)
            tot += e.length
        Ms.append(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr())
        ms.append(mvec)
        lens.append(tot)
    return Ms, ms, np.array(lens)


def _cem_layout(mesh, electrodes):
    """The sigma-independent part (S, C0, w) of the grounded CEM system.

    The matrix for sigma has C0's CSC pattern and the data S @ sigma + C0.data.
    S has one column per element, holding its stiffness entries (the block is
    linear in sigma); C0 holds the electrode, grounding and integral-weight
    blocks; w are the integral weights.  Built once per mesh and impedances.
    """
    key = (electrodes.count, electrodes.impedances.tobytes())
    if mesh._cem_layout is not None and mesh._cem_layout[0] == key:
        return mesh._cem_layout[1:]
    L, z = electrodes.count, electrodes.impedances
    Ms, ms, lens = boundary_matrices(mesh, electrodes)
    C = np.stack([-ms[l] / z[l] for l in range(L)], axis=1)
    w = mesh.integral_weights()
    const = sp.bmat([[sum(Ms[l] / z[l] for l in range(L)), C, w[:, None]],
                     [C.T, sp.diags(lens / z), None],
                     [w[None, :], None, None]], format="coo")
    N = const.shape[0]
    kref = np.einsum("eq,eqia,eqja->eij", mesh.qweights, mesh.dN, mesh.dN)
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
    mesh._cem_layout = (key, S, C0, w)
    return S, C0, w


def assemble_cem(mesh, sigma, electrodes=None):
    """Assemble the grounded CEM system for piecewise-constant sigma.

    Bilinear form: int sigma grad(phi).grad(p) + sum_l z_l^-1 int_{e_l}
    (phi - v_l)(p - xi_l); the kernel (constants) is removed by appending the
    zero-mean constraint as a symmetric Lagrange-multiplier row.  The matrix
    data is one sparse matvec on the mesh's cached layout (see _cem_layout).
    """
    electrodes = electrodes or mesh.electrodes
    s = np.asarray(getattr(sigma, "values", sigma), float)
    if s.shape != (mesh.n_elements,):
        raise InvalidFieldError("sigma must hold one value per element")
    if not np.all(np.isfinite(s)):
        raise InvalidFieldError("sigma contains non-finite entries")
    if np.any(s <= 0):
        raise CoercivityError("sigma must be strictly positive for coercivity")

    S, C0, w = _cem_layout(mesh, electrodes)
    matrix = sp.csc_matrix((S @ s + C0.data, C0.indices, C0.indptr), shape=C0.shape)
    return CemSystem(mesh, electrodes, s.copy(), matrix, w)


def solve_cem(system, excitation):
    """Solve the grounded CEM system for every excitation row; raises
    AssemblyError on a non-finite solution or a residual above SOLVE_RESIDUAL_BOUND."""
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
    sol = system.lu.solve(rhs)
    scale = np.linalg.norm(rhs, axis=0)
    scale[scale == 0] = 1.0
    rel = np.linalg.norm(system.matrix @ sol - rhs, axis=0) / scale
    if np.any(~np.isfinite(sol)):
        raise AssemblyError("CEM solve produced non-finite values")
    if rel.max() > SOLVE_RESIDUAL_BOUND:
        raise AssemblyError(f"CEM solve residual {rel.max():.3e} exceeds {SOLVE_RESIDUAL_BOUND:g}")
    return CemSolution(phi=sol[:n], voltages=sol[n : n + L].T, residuals=rel)


# -- field operators ---------------------------------------------------------


def _nodal(phi, mesh):
    """A nodal field (n_nodes,) or stack of them (n_nodes, I) as a float array."""
    a = np.asarray(getattr(phi, "coefficients", phi), float)
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
    return mesh.G.T @ (w * v).reshape((mesh.G.shape[0],) + v.shape[3:])


def power_density(sigma, phi, mesh):
    """Per-element quadrature average of sigma |grad phi|^2, shape (nel[, I])."""
    s = np.asarray(getattr(sigma, "values", sigma), float)
    return (np.einsum("q,eqa...->...e", QUAD_W, gradient_field(phi, mesh) ** 2) * s).T


def psi_trace_values(mesh, excitation):
    """Dirichlet trace of the stream potentials at the boundary dofs.

    Constant jbar_{l,i} on gap l, affine ramp between the neighbouring constants
    across electrode l; returns (values (n_bdofs, I), boundary dof ids).
    """
    jbar = excitation.integrated  # (I, L)
    nI = jbar.shape[0]
    bdofs = mesh.boundary_dofs
    pos = {d: i for i, d in enumerate(bdofs)}
    vals = np.zeros((len(bdofs), nI))
    for be in mesh.boundary_edges:
        a, m, b = be.nodes
        if be.tag == "gap":
            v = jbar[:, be.index - 1]
            for d in (a, m, b):
                vals[pos[d]] = v
        else:
            ell = be.index
            lo = jbar[:, ell - 2] if ell >= 2 else np.zeros(nI)
            hi = jbar[:, ell - 1]
            edges = mesh.electrode_edges(ell)
            s0 = edges[0].s_start
            stot = sum(e.length for e in edges)
            for d, t in ((a, 0.0), (m, 0.5), (b, 1.0)):
                frac = (be.s_start - s0 + t * be.length) / stot
                vals[pos[d]] = lo + (hi - lo) * frac
    return vals, bdofs


def stream_potential(sigma, phi, mesh, excitation, index=None):
    """Stream potentials psi with perp-grad psi closest to sigma grad phi.

    Solves the Laplace problem int grad psi . grad q = int sigma grad phi .
    perp-grad q with Dirichlet trace given by the integrated currents (note
    perp-grad psi . perp-grad q = grad psi . grad q).  Works columnwise when phi
    carries several excitations; ``index`` selects a single row of the set.
    """
    phi = _nodal(phi, mesh)
    a = phi.reshape(mesh.n_nodes, -1)
    exc = excitation
    if index is not None:
        exc = ExcitationSet(excitation.currents[index : index + 1])
        if a.shape[1] != 1:
            a = a[:, index : index + 1]
    if a.shape[1] != exc.n_excitations:
        raise InvalidExcitationError("phi column count does not match excitations")
    s = np.asarray(getattr(sigma, "values", sigma), float)

    flux = s[:, None, None, None] * gradient_field(a, mesh)  # sigma grad phi
    rhs = -gradient_dual(rotate(flux), mesh)  # int flux . perp-grad(N_n)

    K = mesh.stiffness()
    trace, bdofs = psi_trace_values(mesh, exc)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), bdofs)
    psi = np.zeros((mesh.n_nodes, a.shape[1]))
    psi[bdofs] = trace
    Kii = K[interior][:, interior].tocsc()
    rhs_i = rhs[interior] - K[interior][:, bdofs] @ trace
    psi[interior] = spla.splu(Kii).solve(rhs_i)
    return psi if phi.ndim > 1 else psi[:, 0]
