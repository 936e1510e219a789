"""Exact feasibility solver for bounded nonnegative integer linear programs.

The solver is a depth-first branch-and-bound with bounds-consistency
propagation: every constraint keeps incrementally-maintained minimum and
maximum activities, and each visit tightens the variable domains as far as
the activity slack allows.  All arithmetic is exact Python integer
arithmetic.  Branching picks the unfixed variable whose domain is smallest
relative to the failure weight of its constraints (dom/wdeg; ties to the
lowest index) and tries values largest first, so results are
deterministic for a fixed model and options.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .errors import GuardExceeded, InternalSolverError

EQ = "="
LE = "<="


@dataclass(frozen=True)
class Constraint:
    """Linear constraint Σ coef * x_var  (=|<=)  rhs with merged sparse terms."""

    terms: tuple[tuple[int, int], ...]
    relation: str
    rhs: int

    def __post_init__(self):
        if self.relation not in (EQ, LE):
            raise ValueError(f"unknown relation {self.relation!r}")

    @classmethod
    def build(cls, terms, relation: str, rhs: int) -> "Constraint":
        merged: dict[int, int] = {}
        for var, coef in terms:
            merged[var] = merged.get(var, 0) + coef
        cleaned = tuple(sorted((v, c) for v, c in merged.items() if c != 0))
        return cls(cleaned, relation, rhs)


@dataclass(frozen=True)
class IlpModel:
    """Feasibility model: variables in [0, upper_bound] plus linear constraints."""

    var_count: int
    upper_bounds: tuple[int, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if len(self.upper_bounds) != self.var_count:
            raise ValueError("one upper bound per variable required")
        for c in self.constraints:
            _check_vars(c, self.var_count)


def _check_vars(c: Constraint, var_count: int):
    for var, _ in c.terms:
        if not 0 <= var < var_count:
            raise ValueError(f"constraint references unknown variable x{var}")


def add_constraint(model: IlpModel, constraint: Constraint) -> IlpModel:
    """Return a new model with the constraint appended."""
    _check_vars(constraint, model.var_count)
    return replace(model, constraints=model.constraints + (constraint,))


def check_solution(model: IlpModel, values) -> bool:
    """Re-verify bounds and every constraint directly; no solver state involved."""
    if len(values) != model.var_count:
        return False
    if any(not 0 <= v <= ub for v, ub in zip(values, model.upper_bounds)):
        return False
    for c in model.constraints:
        total = sum(coef * values[var] for var, coef in c.terms)
        if c.relation == EQ and total != c.rhs:
            return False
        if c.relation == LE and total > c.rhs:
            return False
    return True


def solve_feasibility(
    model: IlpModel,
    *,
    max_nodes: int | None = None,
    selector=None,
    stats_out: dict | None = None,
):
    """Find any integer point satisfying the model, as its values tuple,
    or None when infeasible.

    Values are tried largest first, which suits models dominated by
    small-rhs covering equalities.  max_nodes guards runaway searches;
    exceeding it raises GuardExceeded rather than returning a wrong answer.
    selector picks the branch variable dynamically from the current bounds
    (falling back to dom/wdeg when it returns None); it changes only the
    search order, not which answers are possible.  stats_out receives a
    node count under "nodes" when provided.
    """
    nvar = model.var_count
    lo = [0] * nvar
    hi = list(model.upper_bounds)
    if any(h < 0 for h in hi):
        return None

    cons = model.constraints
    ncon = len(cons)
    terms = [c.terms for c in cons]
    is_eq = [c.relation == EQ for c in cons]
    rhs = [c.rhs for c in cons]
    var_cons: list[list[tuple[int, int]]] = [[] for _ in range(nvar)]
    minact = [0] * ncon
    maxact = [0] * ncon
    for ci in range(ncon):
        mn = mx = 0
        for var, coef in terms[ci]:
            var_cons[var].append((ci, coef))
            if coef > 0:
                mn += coef * lo[var]
                mx += coef * hi[var]
            else:
                mn += coef * hi[var]
                mx += coef * lo[var]
        minact[ci] = mn
        maxact[ci] = mx

    trail: list[tuple[int, int, int]] = []
    pending = deque()
    in_pending = [False] * ncon

    def clear_pending():
        while pending:
            in_pending[pending.pop()] = False

    def set_bounds(j, nlo, nhi) -> bool:
        olo = lo[j]
        ohi = hi[j]
        if nlo < olo:
            nlo = olo
        if nhi > ohi:
            nhi = ohi
        if nlo == olo and nhi == ohi:
            return True
        if nlo > nhi:
            return False
        trail.append((j, olo, ohi))
        dlo = nlo - olo
        dhi = nhi - ohi
        pending_append = pending.append
        for ci, coef in var_cons[j]:
            if coef > 0:
                minact[ci] += coef * dlo
                maxact[ci] += coef * dhi
            else:
                minact[ci] += coef * dhi
                maxact[ci] += coef * dlo
            if not in_pending[ci]:
                in_pending[ci] = True
                pending_append(ci)
        lo[j] = nlo
        hi[j] = nhi
        return True

    def backtrack_to(mark):
        while len(trail) > mark:
            j, olo, ohi = trail.pop()
            dlo = olo - lo[j]
            dhi = ohi - hi[j]
            for ci, coef in var_cons[j]:
                if coef > 0:
                    minact[ci] += coef * dlo
                    maxact[ci] += coef * dhi
                else:
                    minact[ci] += coef * dhi
                    maxact[ci] += coef * dlo
            lo[j] = olo
            hi[j] = ohi

    weight = [1] * ncon  # bumped at failures, guides variable selection
    var_weight = [0] * nvar
    for j in range(nvar):
        var_weight[j] = sum(weight[ci] for ci, _ in var_cons[j])

    def bump(ci):
        weight[ci] += 1
        for j, _ in terms[ci]:
            var_weight[j] += 1

    def propagate() -> bool:
        while pending:
            ci = pending.popleft()
            in_pending[ci] = False
            b = rhs[ci]
            eq = is_eq[ci]
            if minact[ci] > b or (eq and maxact[ci] < b):
                bump(ci)
                return False
            for j, coef in terms[ci]:
                l = lo[j]
                h = hi[j]
                if l == h:
                    continue
                slack_up = b - minact[ci]
                if coef == 1:
                    nh = l + slack_up
                    nl = h - (maxact[ci] - b) if eq else l
                elif coef == -1:
                    nl = h - slack_up
                    nh = l + (maxact[ci] - b) if eq else h
                elif coef > 0:
                    nh = l + slack_up // coef
                    nl = h - (maxact[ci] - b) // coef if eq else l
                else:
                    nl = h - slack_up // -coef
                    nh = l + (maxact[ci] - b) // -coef if eq else h
                if nl > l or nh < h:
                    if not set_bounds(j, nl, nh):
                        bump(ci)
                        return False
        return True

    nodes = 0

    def record():
        if stats_out is not None:
            stats_out["nodes"] = stats_out.get("nodes", 0) + nodes

    for ci in range(ncon):
        in_pending[ci] = True
        pending.append(ci)
    if not propagate():
        clear_pending()
        record()
        return None

    def select() -> int:
        if selector is not None:
            j = selector(lo, hi)
            if j is not None and hi[j] > lo[j]:
                return j
        # dom/wdeg: smallest domain relative to accumulated failure weight
        best_j = -1
        best_num = 0
        best_den = 1
        for j in range(nvar):
            d = hi[j] - lo[j]
            if d > 0 and (best_j < 0 or d * best_den < best_num * var_weight[j]):
                best_j = j
                best_num = d
                best_den = var_weight[j]
        return best_j

    def finish() -> tuple[int, ...]:
        values = tuple(lo)
        if not check_solution(model, values):
            raise InternalSolverError("search produced a non-solution")
        record()
        return values

    stack: list[list] = []  # frames [var, its values largest first, next index, trail mark]
    while True:
        j = select()
        if j < 0:
            return finish()
        stack.append([j, range(hi[j], lo[j] - 1, -1), 0, len(trail)])
        while stack:
            frame = stack[-1]
            backtrack_to(frame[3])
            clear_pending()
            fj, values, idx, _ = frame
            if idx >= len(values):
                # parent frames already store their next untried value
                stack.pop()
                continue
            v = values[idx]
            frame[2] += 1
            if v < lo[fj] or v > hi[fj]:
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                record()
                raise GuardExceeded(f"search node count exceeds guard of {max_nodes}")
            if set_bounds(fj, v, v) and propagate():
                break
            clear_pending()
        else:
            record()
            return None


def _sparse_system(model: IlpModel):
    """The constraints as one scipy.sparse CSR matrix, a row per constraint
    and a column per variable, and their right-hand sides as an array, for
    the LP solves; needs numpy and scipy."""
    import numpy as np
    from scipy import sparse

    rows, cols, coefs = [], [], []
    for ci, c in enumerate(model.constraints):
        for j, coef in c.terms:
            rows.append(ci)
            cols.append(j)
            coefs.append(coef)
    shape = (len(model.constraints), model.var_count)
    a = sparse.csr_matrix((coefs, (rows, cols)), shape=shape, dtype=float)
    return a, np.array([c.rhs for c in model.constraints], dtype=float)


def relaxation_point(model: IlpModel):
    """A vertex of the linear relaxation, or None when unavailable.

    Uses scipy when present; callers must treat the values as hints only
    (fractional, floating point), never as answers.
    """
    try:
        import numpy as np
        from scipy.optimize import linprog
    except ImportError:
        return None
    if model.var_count == 0:
        return None
    a, b = _sparse_system(model)
    eq = np.array([c.relation == EQ for c in model.constraints], dtype=bool)
    eq_rows, ub_rows = np.flatnonzero(eq), np.flatnonzero(~eq)
    res = linprog(
        np.zeros(model.var_count),
        A_ub=a[ub_rows] if len(ub_rows) else None,
        b_ub=b[ub_rows] if len(ub_rows) else None,
        A_eq=a[eq_rows] if len(eq_rows) else None,
        b_eq=b[eq_rows] if len(eq_rows) else None,
        bounds=[(0, ub) for ub in model.upper_bounds],
        method="highs",
    )
    if res.status != 0:
        return None
    return res.x


def refute_by_certificate(model: IlpModel) -> bool:
    """Try to certify infeasibility through the linear relaxation.

    A Farkas multiplier vector is suggested by an LP solve (scipy, when
    available), rationalized, and then verified here in exact arithmetic;
    only a verified certificate counts.  Returns True when the model is
    proven infeasible, False when nothing could be certified (which says
    nothing about feasibility).  The LP's matrices are sparse, so memory
    follows the model's terms, not constraints times variables.
    """
    try:
        import numpy as np
        from scipy import sparse
        from scipy.optimize import linprog
    except ImportError:
        return False
    if model.var_count == 0 or not model.constraints:
        return False

    # Farkas alternative system: find y (free on =, >= 0 on <=) with
    # A^T y + w+ - w- = 0, w+- >= 0, and  b y + ub w+ < 0.  The system is a
    # cone, so boxing y in [-1, 1] (in [0, 1] on <=) keeps the LP bounded
    # and its optimum is negative exactly when a certificate exists.  The
    # bound multipliers w are eliminated analytically after rationalizing y.
    a, b = _sparse_system(model)
    ncon, nvar = a.shape
    ub = np.array(model.upper_bounds, dtype=float)

    # minimize b y + ub w+ subject to A^T y + w+ - w- = 0
    eye = sparse.identity(nvar, format="csr")
    res = linprog(
        np.concatenate([b, ub, np.zeros(nvar)]),
        A_eq=sparse.hstack([a.T, eye, -eye], format="csr"),
        b_eq=np.zeros(nvar),
        bounds=[(-1, 1) if c.relation == EQ else (0, 1) for c in model.constraints]
        + [(0, None)] * (2 * nvar),
        method="highs",
    )
    if res.status != 0 or res.fun >= -1e-7:
        return False

    from fractions import Fraction

    y = [Fraction(v).limit_denominator(10**9) for v in res.x[:ncon]]
    for ci, c in enumerate(model.constraints):
        if c.relation == LE and y[ci] < 0:
            y[ci] = Fraction(0)
    residual = [Fraction(0)] * nvar
    for ci, c in enumerate(model.constraints):
        if y[ci]:
            for j, coef in c.terms:
                residual[j] += coef * y[ci]
    value = sum(y[ci] * model.constraints[ci].rhs for ci in range(ncon))
    for j in range(nvar):
        if residual[j] < 0:  # absorbed by w+, which costs ub
            value += -residual[j] * model.upper_bounds[j]
    return value < 0
