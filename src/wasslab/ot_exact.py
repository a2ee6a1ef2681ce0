"""Exact p-Wasserstein distances and optimal couplings for discrete measures.

`wasserstein_exact` runs a network simplex on the transportation problem
and returns an optimal vertex of the coupling polytope. The basis is one
spanning tree over the n source rows and m target columns, rooted at row 0
and held in Python lists updated in place, from the start to the plan:
parent, depth, parent-edge flow, the dual potentials and, from the first
pivot, an adjacency list. The northwest corner builds it: each staircase
cell hangs one new node on an end already in the tree and fixes that node's
potential. On the line this start is optimal, since supports are stored
sorted and |x-y|^p is convex (its cost matrix is Monge), unless
`DIST_CLAMP` zeroed a positive distance. Pricing is Dantzig's: each pricing
turns the potentials into one array, and the cell of most negative reduced
cost C_ij - u_i - v_j enters. Its cycle is found by walking both ends up to
their common ancestor; one loop moves the flows along it and picks the
leaving cell, and after the pivot only the subtree that re-hangs on the
entering cell has its depths and potentials updated, in plain Python. The
leaving rule is Cunningham's (1976), as in LEMON's `NetworkSimplex`: the
tree is strongly feasible, each zero-flow edge hanging a row below a
column, and stays so when the last blocking edge on the walk from the
ancestor down the entering row's side and up its column's side leaves. A
degenerate pivot, common on equal weights, then lowers sum(u) - sum(v), so
degenerate pivots cannot cycle. The northwest start is strongly feasible: a
tie closes the row, hanging the next one on zero flow, and the last row
pays each new column in full. The method is the network simplex behind the
`emd` solver of Bonneel, van de Panne, Paris and Heidrich (SIGGRAPH Asia
2011).

At optimality the flows are re-solved on the same tree from the original
marginals, children before parents, since a parent edge carries the net
supply of the subtree below it; a start that no pivot changed needs no
sort. The tree's potentials (u, v) must certify the plan: u_i + v_j <= C_ij
on every cell and a.u + b.v equal to the plan's cost, both on the
unit-scaled cost matrix. A failed certificate raises
`NumericalInconsistency`. The target-side potentials v, rescaled to the
cost, come back as the result's `psi`, from which `dual_floor` bounds
W_p(x, target) from below for any x, exactly at x = mu; that is the one
lower-bound rule.

Numpy does the work on the whole matrix: the distance and cost matrices
and their scaling, and pricing. The last pricing of a solve already priced
the final potentials, so its smallest reduced cost is the certificate's
dual slack. Work on the plan's n+m-1 cells (flows, the negative-flow
check, the `PRUNE_TOL` snap, the duality gap, the plan's cost, the
zero-mass filter and the marginal check that `Coupling.validate` shares)
runs in plain Python over lists, where one numpy call on a few entries
would cost more than the arithmetic. The plan arrays are built once, at
the end; the simplex's sums over plan cells use `math.fsum`.

Two shapes have a cost matrix of plan size, (n-1)(m-1) <= 1, and skip the
tree. A Dirac side, (n-1)(m-1) = 0, admits only the product plan, which is
optimal by construction; `dirac_value` reads its value for a Dirac given
as a point, with no measure built. A 2x2 instance, (n-1)(m-1) = 1, builds
the northwest staircase in plain Python by the tree's own rules (the same
three cells, tie rule, potentials and flows re-solved children first) and
prices its four cells there. When no reduced cost is below -`_ENTER_TOL`
that basis stands for the one `_simplex_basis` returns, bit for bit, and
goes to the one certificate every basis goes to; a staircase that needs a
pivot, or a cost that overflowed, takes the simplex.

Solves are memoized: a module-level LRU of the last `MEMO_SIZE` distinct
solves, keyed on the bytes of both measures and on p, serves a repeated
(mu, nu, p) without solving it again. An entry keeps only the value, the
cost, `psi` and the plan arrays, which are made read-only
and shared by every result built from it; a solve that raises is never
stored.

Two independent routes check the simplex: `wasserstein_1d_oracle` builds
the monotone quantile coupling on the line, which is optimal for every
convex cost |x-y|^p with p >= 1, from a merged grid of cumulative sums,
code apart from the certified staircase the simplex returns on the line;
and `brute_force_oracle` enumerates polytope vertices outright on tiny
instances. It calls no simplex code: it checks every set of n+m-1 cells
for a basis by the determinant of its incidence matrix and solves the
bases' flows in batches.

Costs are |x-y|^p in double precision; the p-th root is taken once on the
final optimal cost. Values below 1e-12 are clamped to zero to stay aligned
with the atom-merge tolerance of `discrete_measure`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .discrete_measure import PRUNE_TOL, DiscreteMeasure, check_exponent, check_finite
from .errors import (
    DimensionError,
    InstanceTooLarge,
    NumericalInconsistency,
    SolverStalled,
)

DIST_CLAMP = 1e-12       # pair distances below this count as zero
VALUE_CLAMP = 1e-12      # returned distances below this are exactly zero
MARGINAL_TOL = 1e-10     # coupling marginals must match this tightly
_ENTER_TOL = 1e-11       # reduced-cost threshold on the unit-scaled cost matrix
_CERT_TOL = 1e-9         # dual slack and duality gap allowed on the unit-scaled cost
# every repeat in the acceptance battery comes within 1,829 distinct solves
# of its first use; 2,048 small entries take a few MB
MEMO_SIZE = 2048


# Every solve and every memo hit builds a Coupling and a TransportResult, so
# both set their fields by direct stores into the instance dict: a frozen
# dataclass's own __init__ makes one object.__setattr__ call per field, which
# took twice as long.
@dataclass(frozen=True, eq=False, init=False)
class Coupling:
    """Sparse transport plan between two discrete measures."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    rows: np.ndarray    # (k,) int atom indices into source
    cols: np.ndarray    # (k,) int atom indices into target
    masses: np.ndarray  # (k,) positive masses

    def __init__(self, source, target, rows, cols, masses):
        d = self.__dict__
        d["source"], d["target"], d["rows"], d["cols"], d["masses"] = (
            source, target, rows, cols, masses)

    @property
    def n_entries(self) -> int:
        return self.rows.shape[0]

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, self.masses, self.source.n_atoms)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.cols, self.masses, self.target.n_atoms)

    def as_dense(self) -> np.ndarray:
        out = np.zeros((self.source.n_atoms, self.target.n_atoms))
        out[self.rows, self.cols] = self.masses
        return out

    def validate(self) -> None:
        _check_marginals(self.rows.tolist(), self.cols.tolist(), self.masses.tolist(),
                         self.source.weights.tolist(), self.target.weights.tolist())

    def plan_list(self) -> list[list]:
        return [[int(i), int(j), float(m)]
                for i, j, m in zip(self.rows, self.cols, self.masses)]


def _check_marginals(rows, cols, masses, a, b) -> None:
    """Raise unless the plan's cells, as lists, carry the weight lists a and b.

    One pass over the cells in Python: a plan has only n+m-1 of them.
    """
    row, col = [0.0] * len(a), [0.0] * len(b)
    for i, j, w in zip(rows, cols, masses):
        row[i] += w
        col[j] += w
    gap = max(map(abs, map(operator.sub, row + col, a + b)))
    if gap > MARGINAL_TOL:
        raise NumericalInconsistency(f"coupling marginals off by {gap:.3e} (> {MARGINAL_TOL})")


@dataclass(frozen=True, eq=False, init=False)
class TransportResult:
    """Optimal transport value with its certifying plan and the simplex's potentials `psi`."""

    value: float   # W_p, equals cost ** (1/p)
    cost: float    # optimal integral of |x-y|^p
    plan: Coupling
    solver: str    # "simplex" | "quantile1d" | "bruteforce"
    p: float
    psi: tuple | None = None  # certified target-side potentials on the cost scale; None: oracle

    def __init__(self, value, cost, plan, solver, p, psi=None):
        d = self.__dict__
        d["value"], d["cost"], d["plan"], d["solver"], d["p"], d["psi"] = (
            value, cost, plan, solver, p, psi)

    def to_json_dict(self) -> dict:
        return {
            "value": float(self.value),
            "p": float(self.p),
            "solver": self.solver,
            "plan": self.plan.plan_list(),
        }


def _check_pair(mu_dim: int, nu_dim: int, p: float) -> None:
    if mu_dim != nu_dim:
        raise DimensionError(f"measures live in R^{mu_dim} vs R^{nu_dim}")
    check_exponent(p)


def _distance_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """|X_k - Y_j| for every pair of rows, zero below DIST_CLAMP."""
    if X.shape[1] == 1:
        D = np.abs(X - Y.T)
    else:
        diff = X[:, None, :] - Y[None, :, :]
        D = np.sqrt((diff * diff).sum(axis=2))
    if D.item(D.argmin()) < DIST_CLAMP:  # rare, so the masked store is skipped otherwise
        D[D < DIST_CLAMP] = 0.0
    return D


def _cost_matrix(D: np.ndarray, p: float) -> np.ndarray:
    return D if p == 1.0 else D**p


def _value(cost: float, p: float) -> float:
    """W_p from a plan's cost of at least 0: its p-th root, zero below VALUE_CLAMP."""
    value = cost if p == 1.0 else cost ** (1.0 / p)
    return 0.0 if value < VALUE_CLAMP else value


def _finish(mu, nu, p, rows, cols, masses, cost, solver, psi=None) -> TransportResult:
    """The result on the plan's cells with positive mass; rows, cols, masses are lists."""
    if min(masses) <= 0.0:
        rows, cols, masses = zip(*[c for c in zip(rows, cols, masses) if c[2] > 0.0])
    _check_marginals(rows, cols, masses, mu.weights.tolist(), nu.weights.tolist())
    plan = Coupling(mu, nu, np.array(rows), np.array(cols), np.array(masses))
    cost = max(float(cost), 0.0)
    return TransportResult(_value(cost, p), cost, plan, solver, p, psi)


def _product_cost(a, b, D, p) -> tuple[np.ndarray, np.ndarray, float]:
    """The masses, cell costs and cost of the product plan on distances D, weights a and b.

    One side is a Dirac, so the plan moves the other side's weights, or b
    when both are Diracs.
    """
    w, d = (b, D[0]) if D.shape[0] == 1 else (a, D[:, 0])
    c = _cost_matrix(d, p)
    return w, c, float(np.dot(w, c))


def _product_plan(mu, nu, p, D, solver) -> TransportResult:
    """The product plan, the only coupling when either side is a Dirac.

    Its potentials set u = 0 on a Dirac source, so psi is that source's cell
    costs; a Dirac target takes psi = 0. The oracle's copy carries none.
    """
    n, m = D.shape
    w, c, cost = _product_cost(mu.weights, nu.weights, D, p)
    rows, cols = ([0] * m, list(range(m))) if n == 1 else (list(range(n)), [0] * n)
    psi = (tuple(c.tolist()) if n == 1 else (0.0,)) if solver == "simplex" else None
    return _finish(mu, nu, p, rows, cols, w.tolist(), cost, solver, psi)


def dirac_value(mu: DiscreteMeasure, z: np.ndarray, b: np.ndarray, p: float) -> float:
    """`wasserstein_exact(mu, nu, p).value` for the Dirac nu = b * delta_z, bit for bit.

    z is a (1, d) row and b nu's weight array. The value is read off the
    product plan by `_product_plan`'s rule, so nu is never built, nothing is
    solved and the memo gets no entry. z is refused as `validate_measure`
    refuses a support that is not finite, then the dimension and the
    exponent as every route refuses them.
    """
    check_finite(z)
    _check_pair(mu.dim, z.shape[1], p)
    cost = _product_cost(mu.weights, b, _distance_matrix(mu.support, z), p)[2]
    return _value(max(cost, 0.0), p)


def dual_floor(x: DiscreteMeasure, nu: DiscreteMeasure, psi, p: float) -> float:
    """A lower bound on W_p(x, nu) from any target-side potentials psi; -inf if not finite.

    phi_k = min_j (C_kj - psi_j) makes (phi, psi) dual feasible whatever psi
    is, so every coupling costs at least sum_k w_k phi_k + sum_j b_j psi_j
    (weak duality; Villani 2009, Thm 5.10). With the `psi` of a solve from
    mu to nu it is that solve's value at x = mu, up to round-off.
    """
    P = np.array(psi)
    phi = (_cost_matrix(_distance_matrix(x.support, nu.support), p) - P).min(axis=1)
    cost = math.fsum((x.weights * phi).tolist() + (nu.weights * P).tolist())
    return _value(max(cost, 0.0), p) if math.isfinite(cost) else -math.inf


def _dot(x, y) -> float:
    """Sum of the products of two float lists, the sum rounded once."""
    return math.fsum(map(operator.mul, x, y))


# ---------------------------------------------------------------------------
# transportation simplex
# ---------------------------------------------------------------------------

def _simplex_basis(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal basis by the network simplex: its plan and potentials (u, v).

    Nodes are the rows 0..n-1 and the columns n..n+m-1; the basis is a
    spanning tree rooted at row 0, held in lists updated in place: `parent`,
    `depth`, the flow on each node's parent edge, the potentials `pot` and,
    from the first pivot, an adjacency list. The northwest pass builds it:
    each staircase cell joins one new node to an end already in the tree.
    The plan comes back as lists (rows, cols, flow) sorted by (row, col),
    with the potentials as the list `pot` (u = pot[:n], v = pot[n:]) and
    the smallest reduced cost of the last pricing, which priced these very
    potentials: the certificate's dual slack. Dantzig's rule picks the
    entering cell and Cunningham's the leaving one, so the tree stays
    strongly feasible from start to plan.

    When the first pricing finds no entering cell, as on the line, the
    staircase is returned as built: its cells are already in (row, col)
    order, and its flows are re-solved from a and b in the reverse of the
    order its nodes joined, which settles children before parents. After a
    pivot the re-solve takes the nodes by decreasing depth and the plan is
    sorted by cell index i*m + j.
    """
    n, m = C.shape
    N = n + m
    parent = [-1] * N
    depth = [0] * N
    flow = [0.0] * N           # mass on the cell joining x to parent[x]
    pot = [0.0] * N            # u = pot[:n], v = pot[n:]; u_i + v_j = C_ij on the tree
    nodes: list[int] = []      # the staircase cells, each by the node it hangs on the tree
    ra, rb = a.tolist(), b.tolist()
    i = j = 0
    x, px = n, 0               # the new node of cell (i, j) and its end in the tree
    while True:
        # the smaller residual moves, but the last row pays a new column in full, so
        # totals that differ in the last bits hang no column below a row on zero flow
        t = ra[i] if ra[i] <= rb[j] and (x < n or i < n - 1) else rb[j]
        ra[i] -= t
        rb[j] -= t
        parent[x], depth[x], flow[x] = px, depth[px] + 1, t
        pot[x] = C.item(i, j) - pot[px]
        nodes.append(x)
        if i == n - 1 and j == m - 1:
            break
        # advance exactly one index per step; on a tie close the row so the
        # basis keeps n+m-1 cells and stays a spanning tree
        if (ra[i] <= rb[j] and i < n - 1) or j == m - 1:
            i += 1
            x, px = i, n + j
        else:
            j += 1
            x, px = n + j, i

    def plan(settle, slack):
        """The plan on the tree, its flows re-solved from a and b in the order `settle`.

        A parent edge carries the net supply of the subtree below it, so
        children settle before their parents.
        """
        left = a.tolist() + b.tolist()
        for x in settle:
            flow[x] = left[x]
            left[parent[x]] -= left[x]
        rows = [x if x < n else parent[x] for x in nodes]
        cols = [parent[x] - n if x < n else x - n for x in nodes]
        return rows, cols, [flow[x] for x in nodes], pot, slack

    def cell_index(x: int) -> int:  # i*m + j for the cell (i, j) above node x
        return x * m + parent[x] - n if x < n else parent[x] * m + x - n

    def cycle(k: int):
        """Child ends of the cycle's tree edges that lose mass, and those that gain.

        Pushing mass along the entering cell (i, j) takes it off the parent
        edges of the rows on i's side of the common ancestor and of the
        columns on j's side, and adds it to the others. The losing edges come
        in the order of the walk from the ancestor down i's side and up j's.
        """
        x, y = divmod(k, m)
        y += n
        rows: list[int] = []  # losing, from i up
        cols: list[int] = []  # losing, from j up
        up: list[int] = []
        while x != y:
            if depth[x] >= depth[y]:
                if x < n:
                    rows.append(x)
                else:
                    up.append(x)
                x = parent[x]
            else:
                if y < n:
                    up.append(y)
                else:
                    cols.append(y)
                y = parent[y]
        down = rows[::-1] + cols
        return down, up, min([flow[z] for z in down])

    cap = 10 * N ** 2
    for pivots in range(cap):
        P = np.array(pot)
        R = C - P[:n, None] - P[None, n:]
        k = int(R.argmin())
        r = R.item(k)
        if not r < -_ENTER_TOL:   # also stops on a NaN cost (overflow)
            if not pivots:  # every staircase node joins after its parent
                return plan(reversed(nodes), r)
            nodes = sorted(range(1, N), key=cell_index)  # the plan in (row, col) order
            return plan(sorted(range(1, N), key=depth.__getitem__, reverse=True), r)
        if not pivots:  # only pivots walk the tree: each node's parent, then its children
            adj = [[parent[x]] if x else [] for x in range(N)]
            for x in nodes:
                adj[parent[x]].append(x)
        down, up, theta = cycle(k)
        # the last blocking edge on the walk leaves; f - theta is 0.0 exactly
        # when f == theta, so the tree's zero-flow edges all point to the root
        out = -1
        for z in down:
            if flow[z] == theta:
                out = z
            flow[z] -= theta
        for z in up:
            flow[z] += theta
        # cut the leaving edge above `out` and re-hang its subtree on the
        # entering cell; s is the entering end inside the subtree, t the other
        # (a losing row lies on i's side of the cycle, a losing column on j's)
        i, j = divmod(k, m)
        s, t = (i, n + j) if out < n else (n + j, i)
        adj[out].remove(parent[out])
        adj[parent[out]].remove(out)
        adj[s].append(t)
        adj[t].append(s)
        x, px, fx = s, t, theta
        while True:  # reverse the parent edges from s up to out
            nxt, f = parent[x], flow[x]
            parent[x], flow[x] = px, fx
            if x == out:
                break
            x, px, fx = nxt, x, f
        d = r if s < n else -r  # keeps u_i + v_j = C_ij inside, makes it hold on (i, j)
        stack = [s]
        while stack:
            x = stack.pop()
            px = parent[x]
            depth[x] = depth[px] + 1
            pot[x] += d if x < n else -d
            for y in adj[x]:
                if y != px:
                    stack.append(y)
    raise SolverStalled(f"simplex exceeded {cap} pivots on a {n}x{m} instance")


def _certify(Cs, a, b, pot, rows, cols, flow, slack) -> None:
    """Raise unless the potentials `pot` prove the plan optimal for the unit-scaled cost Cs.

    Dual feasibility (u_i + v_j <= Cs_ij on every cell, u = pot[:n] and
    v = pot[n:]) bounds every plan's cost from below by a.u + b.v; a zero
    gap to the plan's cost closes it. The slack is the least reduced cost
    over the whole matrix, which the last pricing found; the gap is taken
    on the plan's cells.
    """
    n = Cs.shape[0]
    dual = _dot(a.tolist(), pot[:n]) + _dot(b.tolist(), pot[n:])
    gap = abs(dual - _dot(flow, [Cs.item(i, j) for i, j in zip(rows, cols)]))
    if slack < -_CERT_TOL or gap > _CERT_TOL:
        raise NumericalInconsistency(
            f"optimality certificate failed: dual slack {slack:.3e}, duality gap {gap:.3e}"
        )


# (mu key, nu key, p) -> (value, cost, psi, rows, cols, masses)
_memo: OrderedDict = OrderedDict()


def wasserstein_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 2.0) -> TransportResult:
    """Exact W_p distance with an optimal vertex plan.

    Dirac-vs-anything instances short-circuit to the unique product
    coupling, and a 2x2 staircase optimal as built skips the tree.
    Otherwise the flows are re-solved on the optimal basis from the
    marginals, so the plan is exact for the problem as posed, and the basis
    potentials must certify it optimal (`NumericalInconsistency` if not).

    A repeat of one of the last `MEMO_SIZE` distinct solves is served from
    the memo: the result is built on the caller's own measures and shares
    the read-only plan arrays of the first solve.
    """
    _check_pair(mu.dim, nu.dim, p)
    key = (mu.cache_key(), nu.cache_key(), float(p))
    # pop and re-insert rather than get and move_to_end: no interleaving of
    # threads can then raise on an entry another thread just evicted
    entry = _memo.pop(key, None)
    if entry is not None:
        _memo[key] = entry
        value, cost, psi, rows, cols, masses = entry
        return TransportResult(value, cost, Coupling(mu, nu, rows, cols, masses), "simplex", p,
                               psi)
    res = _solve(mu, nu, p)
    plan = res.plan
    for arr in (plan.rows, plan.cols, plan.masses):
        arr.setflags(write=False)
    _memo[key] = (res.value, res.cost, res.psi, plan.rows, plan.cols, plan.masses)
    if len(_memo) > MEMO_SIZE:
        _memo.popitem(last=False)
    return res


def _solve(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> TransportResult:
    n, m = mu.n_atoms, nu.n_atoms
    D = _distance_matrix(mu.support, nu.support)
    if n == 1 or m == 1:
        return _product_plan(mu, nu, p, D, "simplex")
    C = _cost_matrix(D, p)
    # the plan is certified on C scaled to unit maximum
    scale = C.item(C.argmax())
    Cs = C / scale if scale > 0.0 else C
    a, b = mu.weights, nu.weights
    basis = _two_by_two(Cs, a, b) if n == m == 2 and math.isfinite(scale) else None
    return _certified(mu, nu, p, C, Cs, scale, *(basis or _simplex_basis(Cs, a, b)))


def _two_by_two(Cs, a, b):
    """`_simplex_basis(Cs, a, b)` on a 2x2 instance whose staircase is optimal as built.

    The cost matrix has one cell more than the plan, so the northwest
    staircase, its potentials and its pricing run in plain Python, with the
    arithmetic `_simplex_basis` does: the first cell closes row 0 when
    a_0 <= b_0 (the tie rule), each new node's potential is Cs_ij less its
    parent's, the flows are re-solved from the marginals children first, and
    the reduced costs are (Cs_ij - u_i) - v_j. The basis comes back as
    `_simplex_basis` returns it, (rows, cols, flow, pot, slack); a staircase
    that needs a pivot returns None and takes the simplex.
    """
    (c00, c01), (c10, c11) = Cs.tolist()
    (a0, a1), (b0, b1) = a.tolist(), b.tolist()
    v0 = c00  # c - 0.0 is c: row 0 is the root, u_0 = 0
    if a0 <= b0:  # cells (0,0), (1,0), (1,1): row 1 hangs below column 0
        u1 = c10 - v0
        v1 = c11 - u1
        rows, cols, f = [0, 1, 1], [0, 0, 1], a1 - b1
        flow = [b0 - f, f, b1]
    else:         # cells (0,0), (0,1), (1,1): row 1 hangs below column 1
        v1 = c01
        u1 = c11 - v1
        rows, cols, f = [0, 0, 1], [0, 1, 1], b1 - a1
        flow = [b0, f, a1]
    slack = min(c00 - v0, c01 - v1, (c10 - u1) - v0, (c11 - u1) - v1)
    return None if slack < -_ENTER_TOL else (rows, cols, flow, [0.0, u1, v0, v1], slack)


def _certified(mu, nu, p, C, Cs, scale, rows, cols, flow, pot, slack) -> TransportResult:
    """The result on a basis plan, its flows checked and its potentials certifying it on Cs.

    The target-side potentials pot[n:], rescaled to C, come back as `psi`;
    an overflowed scale proves nothing, and its psi is zeros.
    """
    low = min(flow)
    if low < -1e-9:
        raise NumericalInconsistency(f"basis re-solve produced flow {low:.3e} < 0")
    # masses below the weight resolution of a measure are round-off, such as a
    # last-bit mismatch of the two weight totals carried along the tree
    flow = [f if f >= PRUNE_TOL else 0.0 for f in flow]
    n, m = Cs.shape
    psi = (0.0,) * m
    if math.isfinite(scale):  # an overflowed |x-y|^p has no certificate to check
        _certify(Cs, mu.weights, nu.weights, pot, rows, cols, flow, slack)
        psi = tuple([v * scale for v in pot[n:]])
    cost = _dot(flow, [C.item(i, j) for i, j in zip(rows, cols)])
    return _finish(mu, nu, p, rows, cols, flow, cost, "simplex", psi)


# ---------------------------------------------------------------------------
# 1-d quantile oracle
# ---------------------------------------------------------------------------

def _monotone_walk(w: np.ndarray, v: np.ndarray):
    """Pair quantile intervals of two sorted weight vectors."""
    cw, cv = np.cumsum(w), np.cumsum(v)
    end = max(cw[-1], cv[-1])
    cw[-1] = end
    cv[-1] = end
    out = []
    i = j = 0
    prev = 0.0
    while i < w.shape[0] and j < v.shape[0]:
        upper = min(cw[i], cv[j])
        take = upper - prev
        if take > 0.0:
            out.append((i, j, take))
        prev = upper
        step_i = cw[i] <= cv[j]
        step_j = cv[j] <= cw[i]
        if step_i:
            i += 1
        if step_j:
            j += 1
    return out


def wasserstein_1d_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 2.0) -> TransportResult:
    """Monotone quantile coupling on the line; optimal for every p >= 1.

    Independent of the simplex: the plan is read straight off the merged
    quantile grid of the two weight vectors (supports are stored sorted).
    """
    _check_pair(mu.dim, nu.dim, p)
    if mu.dim != 1:
        raise DimensionError(f"the quantile oracle needs d=1, got d={mu.dim}")
    x = mu.support[:, 0]
    y = nu.support[:, 0]
    pairs = _monotone_walk(mu.weights, nu.weights)
    rows = [i for i, _, _ in pairs]
    cols = [j for _, j, _ in pairs]
    masses = [t for _, _, t in pairs]
    dists = np.abs(x[rows] - y[cols])
    dists[dists < DIST_CLAMP] = 0.0
    cost = float(np.dot(masses, dists if p == 1.0 else dists**p))
    return _finish(mu, nu, p, rows, cols, masses, cost, "quantile1d")


# ---------------------------------------------------------------------------
# brute-force vertex enumeration
# ---------------------------------------------------------------------------

MAX_PERMUTATION_SIZE = 7
MAX_ENUM_SUPPORT = 10
_CHUNK = 1 << 14  # cell subsets per batch, which bounds the oracle's memory


def _is_uniform(w: np.ndarray) -> bool:
    return bool(np.max(np.abs(w - 1.0 / w.shape[0])) <= 1e-12)


def _best_permutation(C: np.ndarray, a: np.ndarray):
    n = C.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    costs = C[np.arange(n), perms] @ a
    k = int(costs.argmin())
    return float(costs[k]), perms[k]


def _best_tree_vertex(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Minimum cost over all basic feasible solutions.

    Every vertex of the coupling polytope is the flow on a basis: n+m-1
    cells whose node-cell incidence matrix, with the last column's equation
    dropped (it follows from the others), is invertible. That matrix is
    square and unimodular, so its determinant is exactly 0 or +-1. Cell
    subsets are checked and solved `_CHUNK` at a time, and the cheapest
    nonnegative flow wins (first in subset order among equal costs). With
    no finite vertex cost, as when |x-y|^p overflows, it raises
    `NumericalInconsistency`.
    """
    n, m = C.shape
    k = n + m - 1
    cells = np.arange(n * m)
    A = np.zeros((n + m, n * m))  # cell i*m+j meets row node i and column node n+j
    A[cells // m, cells] = 1.0
    A[n + cells % m, cells] = 1.0
    A = A[:-1]
    rhs = np.concatenate([a, b[:-1]])
    costs_flat = C.ravel()
    best_cost, best_cells, best_flow = np.inf, None, None
    subsets = itertools.combinations(range(n * m), k)
    while True:
        S = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, _CHUNK)),
                        dtype=np.intp).reshape(-1, k)
        if S.shape[0] == 0:
            if best_cells is None:  # every vertex cost is inf or nan: |x-y|^p overflowed
                raise NumericalInconsistency("no vertex of the coupling polytope has a finite cost")
            return best_cost, best_cells, best_flow
        M = np.moveaxis(A[:, S], 1, 0)
        basis = np.abs(np.linalg.det(M)) > 0.5
        S = S[basis]
        rhs_stack = np.broadcast_to(rhs[:, None], (S.shape[0], k, 1))
        flow = np.linalg.solve(M[basis], rhs_stack)[..., 0]
        feasible = flow.min(axis=1) >= -1e-15
        S = S[feasible]
        flow = np.maximum(flow[feasible], 0.0)
        costs = (flow * costs_flat[S]).sum(axis=1)
        if costs.shape[0] and costs.min() < best_cost:
            i = int(costs.argmin())
            best_cost, best_cells, best_flow = float(costs[i]), S[i], flow[i]


def brute_force_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 2.0) -> TransportResult:
    """Ground-truth optimum by exhaustive vertex enumeration.

    Supported regimes: uniform weights with n = m <= 7 (permutation
    vertices), Dirac on either side (unique product plan), or total support
    n + m <= 10 (all spanning-tree vertices).
    """
    _check_pair(mu.dim, nu.dim, p)
    n, m = mu.n_atoms, nu.n_atoms
    D = _distance_matrix(mu.support, nu.support)
    if n == 1 or m == 1:
        return _product_plan(mu, nu, p, D, "bruteforce")
    C = _cost_matrix(D, p)

    if n == m and n <= MAX_PERMUTATION_SIZE and _is_uniform(mu.weights) and _is_uniform(nu.weights):
        cost, perm = _best_permutation(C, mu.weights)
        return _finish(mu, nu, p, list(range(n)), perm.tolist(), mu.weights.tolist(), cost,
                       "bruteforce")

    if n + m <= MAX_ENUM_SUPPORT:
        cost, cells, flow = _best_tree_vertex(C, mu.weights, nu.weights)
        return _finish(mu, nu, p, (cells // m).tolist(), (cells % m).tolist(), flow.tolist(),
                       cost, "bruteforce")

    raise InstanceTooLarge(
        f"brute force supports uniform n=m<={MAX_PERMUTATION_SIZE} or "
        f"n+m<={MAX_ENUM_SUPPORT}, got {n}+{m}"
    )
