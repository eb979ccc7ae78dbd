"""The principal-agent model: instances, utilities, best responses with
principal-favorable tie-breaking, epsilon-IC sets, and robustification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, truediv
from typing import Iterator, NamedTuple, Sequence, TypeAlias

from .dist import (
    Discrete,
    TypeDistribution,
    interval_mass,
    segment_masses,
)
from .errors import UsageError
from .numerics import (
    Num,
    as_fraction,
    check_finite,
    check_float_range,
    integer_row,
    is_exact,
    np,
)

Contract: TypeAlias = "tuple[Num, ...]"

TIE_TOL = 1e-9
_ROW_SUM_TOL = 1e-12


class ScaledInstance(NamedTuple):
    """An instance on integers, exact: F / dF, r / dr, c / dc and F_a.r =
    Fr[a] / (dF dr).  The one place where an instance's entries are put on
    exact numbers."""

    F: list[list[int]]
    dF: int
    r: list[int]
    dr: int
    c: list[int]
    dc: int
    Fr: list[int]


@dataclass(frozen=True)
class Instance:
    """Actions with outcome distributions F (row-stochastic), rewards r in
    [0,1] per outcome, and unit costs c >= 0 with at least one free action."""

    F: tuple[tuple[Num, ...], ...]
    r: tuple[Num, ...]
    c: tuple[Num, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n, m = len(self.F), len(self.r)
        if n == 0 or m == 0:
            raise UsageError("instance needs at least one action and outcome")
        if len(self.c) != n:
            raise UsageError("cost vector length must match action count")
        if self.labels is not None and len(self.labels) != n:
            raise UsageError("labels length must match action count")
        # An exact instance is checked on its integers (``scaled``): each
        # entry is an integer over a positive denominator, which keeps each
        # comparison and equality.  Exact entries are finite.
        if self.exact:
            s = self.scaled
            rows, one, r, top, c = s.F, s.dF, s.r, s.dr, s.c
        else:
            check_finite(F=[x for row in self.F for x in row], rewards=self.r, costs=self.c)
            rows, one, r, top, c = self.F, 1, self.r, 1, self.c
        for a, (row, nums) in enumerate(zip(self.F, rows)):
            if len(row) != m:
                raise UsageError(f"F row {a} has length {len(row)}, expected {m}")
            if min(nums) < 0 or max(nums) > one:
                raise UsageError(f"F row {a} has entries outside [0,1]")
            total = sum(nums)
            if self.exact or is_exact(*row):
                if total != one:
                    raise UsageError(f"F row {a} sums to {Fraction(total, one)}, expected 1")
            elif abs(total - 1.0) > _ROW_SUM_TOL:
                raise UsageError(f"F row {a} sums to {total!r}, expected 1")
        if min(r) < 0 or max(r) > top:
            raise UsageError("rewards must lie in [0,1]")
        if min(c) < 0:
            raise UsageError("costs must be nonnegative")
        if 0 not in c:
            raise UsageError("at least one action must have zero cost")

    @property
    def n_actions(self) -> int:
        return len(self.F)

    @property
    def n_outcomes(self) -> int:
        return len(self.r)

    @cached_property
    def exact(self) -> bool:
        # is_exact, decided on the entries' distinct types
        types = {type(x) for row in self.F for x in row}
        types.update(map(type, self.r), map(type, self.c))
        return all(issubclass(t, (int, Fraction)) and not issubclass(t, bool) for t in types)

    @cached_property
    def c_arr(self) -> np.ndarray:
        return np.asarray(self.c, dtype=float)

    @cached_property
    def scaled(self) -> ScaledInstance:
        """The instance as integers (``ScaledInstance``), exact for any
        instance: floats enter at their binary value."""
        rows = self.F if self.exact else [map(as_fraction, row) for row in self.F]
        ratios = [[x.as_integer_ratio() for x in row] for row in rows]
        dF = math.lcm(*(d for row in ratios for _, d in row))
        F = [[x * (dF // d) for x, d in row] for row in ratios]
        (r, dr), (c, dc) = integer_row(self.r), integer_row(self.c)
        return ScaledInstance(F, dF, r, dr, c, dc, [sum(map(mul, row, r)) for row in F])


@dataclass(frozen=True)
class BestResponse:
    action: int
    agent_utility: Num
    principal_utility: Num
    ic_set: frozenset[int]


def _check_action(inst: Instance, a: int) -> None:
    if not 0 <= a < inst.n_actions:
        raise UsageError(f"action index {a} out of range [0,{inst.n_actions})")


def _check_contract(inst: Instance, p: Sequence[Num]) -> None:
    if len(p) != inst.n_outcomes:
        raise UsageError(
            f"contract has {len(p)} payments, expected {inst.n_outcomes}"
        )
    check_finite(payments=p)
    if any(x < 0 for x in p):
        raise UsageError("payments must be nonnegative")


def agent_utility(inst: Instance, p: Sequence[Num], a: int, theta: Num) -> Num:
    """sum_w F[a,w] p[w] - theta * c[a]."""
    _check_action(inst, a)
    _check_contract(inst, p)
    row = inst.F[a]
    return sum(f * x for f, x in zip(row, p)) - theta * inst.c[a]


def principal_utility(inst: Instance, p: Sequence[Num], a: int) -> Num:
    """sum_w F[a,w] (r[w] - p[w])."""
    _check_action(inst, a)
    _check_contract(inst, p)
    row = inst.F[a]
    return sum(f * (rw - x) for f, rw, x in zip(row, inst.r, p))


class ResponseTable:
    """Best responses to one contract p, for any type.

    Validates p once.  The table's values are rp[w] = r[w] - p[w], fp[a] =
    F_a.p and pu[a] = F_a.(r - p), the values of ``agent_utility`` and
    ``principal_utility``.  One table serves every type: with p fixed, the
    agent utility fp[a] - theta c[a] is affine in theta and the principal
    utility pu[a] does not depend on theta, so fp, pu and c decide the best
    response of any type, ties included.

    On exact inputs the table keeps integers only, over the ``scaled``
    instance with p = P / dp: fp[a] = fp_num[a] / fp_den with fp_num[a] =
    F[a].P and fp_den = dF dp, and pu[a] = pu_num[a] / pu_den with
    pu_num[a] = Fr[a] dp - F[a].P dr and pu_den = dF dp dr.  fp, pu and rp
    are built on first read, as normalised Fractions, and each entry of
    fp_arr, pu_arr and rp_arr is one int / int, which Python rounds
    correctly, so it is float() of that Fraction bit for bit.  On a float
    table the arrays are the lists converted.
    """

    def __init__(self, inst: Instance, p: Sequence[Num]) -> None:
        _check_contract(inst, p)
        self.inst = inst
        self._p = p
        self.exact = inst.exact and is_exact(*p)
        if self.exact:
            s = inst.scaled
            self._P, self._dp = P, dp = integer_row(p)
            self.fp_num = fp = [sum(map(mul, row, P)) for row in s.F]
            self.pu_num = [fr * dp - x * s.dr for fr, x in zip(s.Fr, fp)]
            self.fp_den = s.dF * dp
            self.pu_den = self.fp_den * s.dr
        else:
            check_float_range(costs=inst.c, payments=p)

    @cached_property
    def rp(self) -> list[Num]:
        return [rw - x for rw, x in zip(self.inst.r, self._p)]

    @cached_property
    def fp(self) -> list[Num]:
        if self.exact:
            return [Fraction(x, self.fp_den) for x in self.fp_num]
        return [sum(f * x for f, x in zip(row, self._p)) for row in self.inst.F]

    @cached_property
    def pu(self) -> list[Num]:
        if self.exact:
            return [Fraction(x, self.pu_den) for x in self.pu_num]
        return [sum(f * d for f, d in zip(row, self.rp)) for row in self.inst.F]

    @cached_property
    def fp_arr(self) -> np.ndarray:
        if self.exact:
            return np.array([x / self.fp_den for x in self.fp_num])
        return np.asarray(self.fp, dtype=float)

    @cached_property
    def pu_arr(self) -> np.ndarray:
        if self.exact:
            return np.array([x / self.pu_den for x in self.pu_num])
        return np.asarray(self.pu, dtype=float)

    @cached_property
    def rp_arr(self) -> np.ndarray:
        if self.exact:
            s, dp = self.inst.scaled, self._dp
            den = s.dr * dp
            return np.array([(rw * dp - x * s.dr) / den for rw, x in zip(s.r, self._P)])
        return np.asarray(self.rp, dtype=float)

    @cached_property
    def near_arr(self) -> np.ndarray:
        """near[b, a] is respond's test pu[a] >= pu[b] - TIE_TOL, whose
        right side is the float thr[b] = float(pu[b]) - TIE_TOL.  Rounding
        is monotone, so float(pu[a]) decides the test unless it equals
        thr[b]; those entries are settled on pu[a] itself."""
        pu = self.pu_arr
        thr = pu - TIE_TOL
        near = pu[None, :] >= thr[:, None]
        for b, a in zip(*np.nonzero(pu[None, :] == thr[:, None])):
            near[b, a] = self.pu[a] >= thr[b]
        return near

    def agent_numerators(self, num: int, den: int) -> tuple[list[int], int]:
        """An exact table's agent utilities at theta = num / den (den > 0):
        integers utils[a] over D = fp_den dc den, with F_a.p = fp_num[a] /
        fp_den and c = c' / dc (``Instance.scaled``), and D."""
        s = self.inst.scaled
        fs, cs = s.dc * den, num * self.fp_den
        return [f * fs - c * cs for f, c in zip(self.fp_num, s.c)], self.fp_den * s.dc * den

    def eps_set(self, theta: Num, eps: Num) -> tuple:
        """(utils, ic, den, keys, tol): the agent utilities utils[a] / den at
        theta, the actions ic within eps of the best, keys ordered as pu, and
        the tie tolerance.  On an exact table and theta: ``agent_numerators``,
        the numerators of pu, and 0, with eps at its exact binary value (a
        positive scale keeps order and equality, and an integer u is >= top -
        eps den iff u >= top - floor(eps den)).  Otherwise fp[a] - theta c[a],
        None, pu, and TIE_TOL, which need costs and payments within the float
        range (a float table checks them once, when it is built)."""
        if self.exact and is_exact(theta):
            utils, den = self.agent_numerators(theta.numerator, theta.denominator)
            en, ed = eps.as_integer_ratio()
            cutoff = max(utils) - en * den // ed
            keys, tol = self.pu_num, 0
        else:
            c = self.inst.c
            if self.exact:
                check_float_range(costs=c, payments=self._p)
            utils = [f - theta * c[a] for a, f in enumerate(self.fp)]
            cutoff = max(utils) - eps - TIE_TOL
            den, keys, tol = None, self.pu, TIE_TOL
        return utils, [a for a, u in enumerate(utils) if u >= cutoff], den, keys, tol

    def respond(self, theta: Num) -> BestResponse:
        """Agent-optimal action; ties favor the principal, then the lowest
        index."""
        utils, ic, den, keys, tol = self.eps_set(theta, 0)
        best = max(keys[a] for a in ic)
        action = min(a for a in ic if keys[a] >= best - tol)
        if den is None:
            agent, principal = utils[action], self.pu[action]
        else:
            agent, principal = Fraction(utils[action], den), Fraction(keys[action], self.pu_den)
        return BestResponse(
            action=action, agent_utility=agent, principal_utility=principal, ic_set=frozenset(ic)
        )

    def breakpoints(self) -> list[Num]:
        """Types in (0,1) where two affine agent utilities cross,
        t = (fp[a] - fp[b]) / (c[a] - c[b]), sorted: the ``_crossings`` as
        exact Fractions on an exact table, as float quotients otherwise."""
        div = Fraction if self.exact else truediv
        return sorted({div(num, den) for num, den in self._crossings()})

    def _crossings(self) -> Iterator[tuple[Num, Num]]:
        """Each crossing in (0,1) as a pair (num, den), den > 0.  On an exact
        table these are integers: with c = c' / dc (``Instance.scaled``), a
        and b cross at (F[a].P - F[b].P) dc / ((c'[a] - c'[b]) dF dp), in
        (0,1) iff 0 < num < den.  Otherwise they are float(fp[a]) -
        float(fp[b]) and float(c[a]) - float(c[b]), tested as 0 < num / den
        < 1; flipping both signs is exact, so each quotient keeps its bits."""
        if self.exact:
            s = self.inst.scaled
            fp, c = [x * s.dc for x in self.fp_num], [x * self.fp_den for x in s.c]
        else:
            fp, c = [float(x) for x in self.fp], [float(x) for x in self.inst.c]
        for a in range(len(fp)):
            for b in range(a + 1, len(fp)):
                num, den = fp[a] - fp[b], c[a] - c[b]
                if den < 0:
                    num, den = -num, -den
                if den and (0 < num < den if self.exact else 0 < num / den < 1):
                    yield num, den

    def expected_utility(self, gamma: TypeDistribution) -> Num:
        """E_{theta ~ Gamma}[U^P(p, theta)], the principal's expected utility.

        One sum of weight times the principal utility of the type's best
        response, zero weights skipped, over the atoms, or over the midpoint
        and mass of each segment of a density cut at 0, 1, the density
        breakpoints and every crossing: agent utilities are affine in theta,
        so the best response, ties included, is constant between crossings,
        the density is constant between its breakpoints, and the cut points
        carry no mass.  An exact table and distribution sum integer triples
        (num, den, mass): an atom, its weight over one denominator, or a
        segment's midpoint (lo + hi) / 2q and ``segment_masses`` mass.  The
        action is respond's exact rule on ``agent_numerators(num, den)`` (one
        positive denominator), the numerators of pu and the index, so each
        type gets respond's action and, a Fraction being normalised, the sum
        is respond's Fraction.  Otherwise respond answers at float midpoints.
        """
        atoms = isinstance(gamma, Discrete)
        params = (gamma.points, gamma.weights) if atoms else (gamma.breakpoints, gamma.densities)
        if self.exact and is_exact(*params[0], *params[1]):
            if atoms:
                weights, mden = integer_row(gamma.weights)
                points = map(as_fraction, gamma.points)
                types = ((t.numerator, t.denominator, w) for t, w in zip(points, weights))
            else:
                crossings = list(self._crossings())
                bps = [as_fraction(b) for b in gamma.breakpoints]
                q = math.lcm(*(den for _, den in crossings), *(b.denominator for b in bps))
                cuts = sorted({
                    *(num * (q // den) for num, den in crossings),
                    *(b.numerator * (q // b.denominator) for b in bps),
                })
                masses, mden = segment_masses(gamma, cuts, q)
                types = ((lo + hi, 2 * q, w) for lo, hi, w in zip(cuts, cuts[1:], masses))
            pu = self.pu_num
            total = 0
            for num, den, w in types:
                if w:
                    utils = self.agent_numerators(num, den)[0]
                    total += w * pu[max(range(len(pu)), key=lambda a: (utils[a], pu[a], -a))]
            return Fraction(total, mden * self.pu_den)
        if atoms:
            pairs = zip(gamma.points, gamma.weights)
        else:
            cuts = sorted(float(x) for x in {0, 1, *gamma.breakpoints, *self.breakpoints()})
            segments = zip(cuts, cuts[1:])
            pairs = (((lo + hi) / 2, interval_mass(gamma, lo, hi)) for lo, hi in segments)
        total = 0
        for theta, w in pairs:
            if w != 0:
                total += w * self.respond(theta).principal_utility
        return total


def stacked_actions(
    fp: np.ndarray,
    pu: np.ndarray,
    near: np.ndarray,
    c: np.ndarray,
    rows: np.ndarray,
    thetas: np.ndarray,
) -> np.ndarray:
    """``respond(thetas[i]).action`` of table ``rows[i]`` for each i, bit
    for bit.  fp, pu and near stack the tables' ``fp_arr``, ``pu_arr`` and
    ``near_arr`` along a first axis.

    The rule is respond's: agent utilities within TIE_TOL of the best, then
    principal utilities within TIE_TOL of the best eligible one, then the
    lowest index.  The agent step uses the same floats: a float theta makes
    respond compute float(fp[a]) - theta * float(c[a]) (a Fraction minus a
    float rounds to float first, as numpy does), and fp_arr holds exactly
    those float(fp[a]).  In the principal step, respond's threshold is
    float(best) - TIE_TOL, and float(best) is the largest eligible entry of
    pu_arr, since rounding is monotone; the test against it is
    ``near_arr[best]``.  Every step is elementwise per type, so an answer
    does not depend on the other types.  Arrays are laid out action by type
    (axis 0 the action), so the few-action maxima run along long rows.
    """
    n = c.size
    agent = np.take(fp.T, rows, axis=1) - thetas * c[:, None]
    eligible = agent >= agent.max(axis=0) - TIE_TOL
    best = np.where(eligible, np.take(pu.T, rows, axis=1), -np.inf).argmax(axis=0)
    near_best = np.take(near.reshape(-1, n).T, rows * n + best, axis=1)
    return (eligible & near_best).argmax(axis=0)


def eps_best_responses(
    inst: Instance, p: Sequence[Num], theta: Num, eps: Num
) -> list[int]:
    """Actions within eps of the agent's best utility (ties resolved exactly
    on an exact table and type, with eps at its exact binary value; within
    TIE_TOL = 1e-9 otherwise)."""
    check_finite(eps=(eps,))
    if eps < 0:
        raise UsageError("eps must be nonnegative")
    return ResponseTable(inst, p).eps_set(theta, eps)[1]


def best_response(inst: Instance, p: Sequence[Num], theta: Num) -> BestResponse:
    """Agent-optimal action; ties favor the principal, then the lowest index."""
    return ResponseTable(inst, p).respond(theta)


def robustify(inst: Instance, p: Sequence[Num], alpha: Num) -> Contract:
    """Mix the contract toward the reward vector: p + alpha (r - p)."""
    if not 0 <= alpha <= 1:
        raise UsageError(f"alpha must lie in [0,1], got {alpha}")
    _check_contract(inst, p)
    # No entry is negative: p >= 0, r >= 0 and alpha in [0,1] give
    # p + alpha (r - p) >= min(p, r) >= 0, and rounding is monotone, so
    # each float step stays above its bound too.
    return tuple(x + alpha * (rw - x) for x, rw in zip(p, inst.r))


def expected_principal_utility(
    inst: Instance, gamma: TypeDistribution, p: Sequence[Num]
) -> Num:
    """sum_i gamma_i * principal utility at type theta_i's best response
    (see ``ResponseTable.expected_utility``)."""
    return ResponseTable(inst, p).expected_utility(gamma)


def expected_principal_utility_continuous(
    inst: Instance, gamma: TypeDistribution, p: Sequence[Num]
) -> Num:
    """E_{theta ~ Gamma}[U^P(p, theta)] as a finite segment sum (see
    ``ResponseTable.expected_utility``)."""
    return ResponseTable(inst, p).expected_utility(gamma)
