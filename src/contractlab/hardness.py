"""Set-Cover to contract-design reduction with exact verifiers.

Builds, from a set-cover system, an exact rational contract-design instance
whose optimal value separates cover sizes by a fixed rational gap.  The
verifiers certify, on concrete contracts, the best-response structure of
cover contracts (``verify_if_direction``) and the per-type utility caps that
bound the value of an arbitrary contract (``verify_onlyif_bounds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import core
from .core import Contract, Instance
from .dist import Discrete
from .errors import UsageError
from .numerics import Num, as_fraction

__all__ = [
    "SetCoverInput",
    "ReductionParams",
    "ReducedInstance",
    "reduce",
    "cover_contract",
    "is_cover",
    "ell_value",
    "gap_value",
    "TypeCheck",
    "IfDirectionReport",
    "verify_if_direction",
    "TypePartition",
    "classify_types",
    "OnlyIfTypeCheck",
    "OnlyIfReport",
    "verify_onlyif_bounds",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SetCoverInput:
    """A universe {1..n} together with a family of nonempty subsets."""

    n: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise UsageError(f"universe size must be at least 2, got {self.n}")
        if not self.sets:
            raise UsageError("need at least one subset")
        norm = []
        for idx, subset in enumerate(self.sets):
            elems = tuple(sorted(set(subset)))
            if not elems:
                raise UsageError(f"subset {idx + 1} is empty")
            if elems[0] < 1 or elems[-1] > self.n:
                raise UsageError(
                    f"subset {idx + 1} has elements outside 1..{self.n}"
                )
            norm.append(elems)
        object.__setattr__(self, "sets", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class ReductionParams:
    """Scale parameters of the reduction, all exact rationals in (0,1)."""

    rho: Fraction
    eta: Fraction
    eps_r: Fraction
    mu: Fraction

    @classmethod
    def for_size(cls, n: int, m: int) -> "ReductionParams":
        if n < 2:
            raise UsageError(f"universe size must be at least 2, got {n}")
        if m < 1:
            raise UsageError(f"need at least one subset, got {m}")
        return cls(
            rho=Fraction(1, n**6),
            eta=Fraction(1, n**2),
            eps_r=Fraction(1, n**8 * m),
            mu=Fraction(1, n**9 * m),
        )


@dataclass(frozen=True)
class ReducedInstance:
    """Contract-design instance produced from a set-cover system.

    Outcome ``s - 1`` is the witness outcome of set ``s`` (1-based set ids),
    outcome ``m`` is the rewarded outcome, and outcome ``m + 1`` the sink.
    ``interior_actions[(i, s)]`` is the productive action of element ``i``
    in set ``s``; the row labelled ``abar[i,Ss]`` is its cheaper near-copy,
    and ``anull`` labels the free null action.  Type ``i / n`` carries
    weight ``(1 - rho) / n``; the zero type carries weight ``rho``.
    """

    sc: SetCoverInput
    params: ReductionParams
    inst: Instance
    gamma: Discrete
    interior_actions: dict[tuple[int, int], int]
    star_action: int

    @property
    def star_outcome(self) -> int:
        return self.sc.m

    @property
    def bar_outcome(self) -> int:
        return self.sc.m + 1

    @cached_property
    def interior_owner(self) -> dict[int, tuple[int, int]]:
        """Map an interior action index back to its (element, set id)."""
        return {a: key for key, a in self.interior_actions.items()}


def reduce(sc: SetCoverInput) -> ReducedInstance:
    """Build the exact rational reduced instance for a set-cover system."""
    n, m = sc.n, sc.m
    params = ReductionParams.for_size(n, m)
    mu, eta, eps = params.mu, params.eta, params.eps_r
    width = m + 2
    star_out, bar_out = m, m + 1

    rows: list[tuple[Fraction, ...]] = []
    costs: list[Fraction] = []
    labels: list[str] = []
    interior: dict[tuple[int, int], int] = {}

    for set_id, elems in enumerate(sc.sets, start=1):
        for i in elems:
            row = [_ZERO] * width
            row[set_id - 1] = mu / (2 * i)
            row[star_out] = mu / i
            row[bar_out] = 1 - row[set_id - 1] - row[star_out]
            interior[(i, set_id)] = len(rows)
            rows.append(tuple(row))
            costs.append(mu / (4 * i * i))
            labels.append(f"a[{i},S{set_id}]")
    for set_id, elems in enumerate(sc.sets, start=1):
        for i in elems:
            row = [_ZERO] * width
            row[set_id - 1] = (mu / (2 * i)) * (1 - eta / 2)
            row[bar_out] = 1 - row[set_id - 1]
            rows.append(tuple(row))
            costs.append((mu / (4 * i * i)) * (1 - eta))
            labels.append(f"abar[{i},S{set_id}]")

    star_action = len(rows)
    rows.append(tuple([eps] * m + [1 - m * eps, _ZERO]))
    costs.append(Fraction(1))
    labels.append("astar")

    rows.append(tuple([_ZERO] * (m + 1) + [Fraction(1)]))
    costs.append(_ZERO)
    labels.append("anull")

    inst = Instance(
        F=tuple(rows),
        r=tuple(Fraction(1, n) if w == star_out else _ZERO for w in range(width)),
        c=tuple(costs),
        labels=tuple(labels),
    )
    gamma = Discrete(
        points=tuple(Fraction(i, n) for i in range(n + 1)),
        weights=(params.rho,) + ((1 - params.rho) / n,) * n,
    )
    return ReducedInstance(
        sc=sc,
        params=params,
        inst=inst,
        gamma=gamma,
        interior_actions=interior,
        star_action=star_action,
    )


def cover_contract(ri: ReducedInstance, cover: Iterable[int]) -> Contract:
    """Contract paying 1/n on the witness outcome of each chosen set."""
    ids = set(cover)
    for set_id in ids:
        if not 1 <= set_id <= ri.sc.m:
            raise UsageError(f"set id {set_id} outside 1..{ri.sc.m}")
    p = [_ZERO] * (ri.sc.m + 2)
    for set_id in ids:
        p[set_id - 1] = Fraction(1, ri.sc.n)
    return tuple(p)


def is_cover(sc: SetCoverInput, cover: Iterable[int]) -> bool:
    """Whether the chosen set ids jointly cover the whole universe."""
    covered: set[int] = set()
    for set_id in set(cover):
        if not 1 <= set_id <= sc.m:
            raise UsageError(f"set id {set_id} outside 1..{sc.m}")
        covered.update(sc.sets[set_id - 1])
    return len(covered) == sc.n


def ell_value(n: int, m: int, k: int) -> Fraction:
    """Exact value of the cover contract of a size-k cover."""
    if not 0 <= k <= m:
        raise UsageError(f"cover size must lie in 0..{m}, got {k}")
    params = ReductionParams.for_size(n, m)
    harmonic = sum(Fraction(1, i) for i in range(1, n + 1))
    return (1 - params.rho) * params.mu * harmonic / (2 * n * n) + params.rho * (
        1 - m * params.eps_r - params.eps_r * k
    ) / n


def gap_value(n: int, m: int) -> Fraction:
    """Value separation between consecutive cover sizes: ell(k) - ell(k+1)
    = rho eps_r / n."""
    params = ReductionParams.for_size(n, m)
    return params.rho * params.eps_r / n


@dataclass(frozen=True)
class TypeCheck:
    """Best-response facts for one realized type under a cover contract."""

    theta: Fraction
    action: int
    agent_utility: Fraction
    principal_utility: Fraction
    in_target_family: bool
    value_matches: bool


@dataclass(frozen=True)
class IfDirectionReport:
    ok: bool
    total: Fraction
    ell: Fraction
    total_matches_ell: bool
    per_type: tuple[TypeCheck, ...]
    interior_utility_capped: bool
    star_payment: Fraction
    star_payment_dominates: bool


def _theta0_value(ri: ReducedInstance, p: Sequence[Fraction]) -> Fraction:
    """Principal utility of the zero type playing the high-cost action:
    -eps_r * sum(p[:m]) + (1 - m eps_r)(1/n - p[m])."""
    n, m, eps = ri.sc.n, ri.sc.m, ri.params.eps_r
    return -eps * sum(p[:m], _ZERO) + (1 - m * eps) * (Fraction(1, n) - p[m])


def verify_if_direction(ri: ReducedInstance, cover: Iterable[int]) -> IfDirectionReport:
    """Certify the best-response structure and exact value of a cover contract.

    Checks, in exact rationals: every positive type ties on its productive
    action inside the cover and the tie-broken response realizes the value
    mu/(2in); the zero type plays the high-cost action; no productive action
    exceeds agent utility mu/(4in); the expected payment of the high-cost
    action strictly dominates every productive payment; and the total
    expected principal utility equals ``ell_value`` exactly.
    """
    ids = sorted(set(cover))
    if not is_cover(ri.sc, ids):
        raise UsageError("index set is not a cover of the universe")
    n, m = ri.sc.n, ri.sc.m
    mu, eps = ri.params.mu, ri.params.eps_r
    p = cover_contract(ri, ids)
    k = len(ids)

    table, responses = _responses(ri, p)
    checks: list[TypeCheck] = []
    for i, (theta, br) in enumerate(zip(ri.gamma.points, responses)):
        if i == 0:
            in_family = br.action == ri.star_action
            value = _theta0_value(ri, p)
        else:
            in_family = any(ri.interior_actions.get((i, s)) in br.ic_set for s in ids)
            value = mu / (2 * i * n)
        checks.append(
            TypeCheck(
                theta=theta,
                action=br.action,
                agent_utility=br.agent_utility,
                principal_utility=br.principal_utility,
                in_target_family=in_family,
                value_matches=br.principal_utility == value,
            )
        )
    interior = ri.interior_actions.values()
    interior_capped = True
    for i in range(1, n + 1):  # the largest interior agent utility of type i/n
        utils, den = table.agent_numerators(i, n)
        interior_capped &= Fraction(max(utils[a] for a in interior), den) <= mu / (4 * i * n)

    star_payment = k * eps / Fraction(n)
    payment_ok = star_payment > mu / n and all(
        table.fp[a] <= mu / n for a in ri.interior_actions.values()
    )

    total = _expected_value(ri, responses)
    ell = ell_value(n, m, k)
    ok = (
        all(t.in_target_family and t.value_matches for t in checks)
        and interior_capped
        and payment_ok
        and total == ell
    )
    return IfDirectionReport(
        ok=ok,
        total=total,
        ell=ell,
        total_matches_ell=total == ell,
        per_type=tuple(checks),
        interior_utility_capped=interior_capped,
        star_payment=star_payment,
        star_payment_dominates=payment_ok,
    )


@dataclass(frozen=True)
class TypePartition:
    """Elements split by which productive action they play: their own
    (e1) or another element's (e2).  The rest play neither."""

    e1: frozenset[int]
    e2: frozenset[int]


def _responses(
    ri: ReducedInstance, q: Sequence[Fraction]
) -> tuple[core.ResponseTable, list[core.BestResponse]]:
    """One response table for q (it validates q), and the best responses of
    the types 0, 1/n, ..., 1 read from it."""
    table = core.ResponseTable(ri.inst, q)
    return table, [table.respond(theta) for theta in ri.gamma.points]


def _expected_value(
    ri: ReducedInstance, responses: Sequence[core.BestResponse]
) -> Fraction:
    """``core.expected_principal_utility`` from the types' responses (every
    type weight is positive)."""
    # Summed from the responses the verifiers already hold: answering the n+1
    # types again through ResponseTable.expected_utility slows verify_onlyif_bounds 12-13%.
    return sum(w * br.principal_utility for w, br in zip(ri.gamma.weights, responses))


def classify_types(
    ri: ReducedInstance,
    p: Sequence[Num],
    responses: Sequence[core.BestResponse] | None = None,
) -> TypePartition:
    """Partition elements: own productive action, another element's, neither.

    ``responses`` are the best responses of the types 0, 1/n, ..., 1 to p,
    when the caller already has them."""
    if responses is None:
        responses = _responses(ri, tuple(map(as_fraction, p)))[1]
    e1: set[int] = set()
    e2: set[int] = set()
    for i in range(1, ri.sc.n + 1):
        owner = ri.interior_owner.get(responses[i].action)
        if owner is not None:
            (e1 if owner[0] == i else e2).add(i)
    return TypePartition(frozenset(e1), frozenset(e2))


@dataclass(frozen=True)
class OnlyIfTypeCheck:
    """Utility cap for one positive type."""

    element: int
    klass: str
    action: int
    principal_utility: Fraction
    bound: Fraction
    within_bound: bool


@dataclass(frozen=True)
class OnlyIfReport:
    """Per-type caps plus the aggregate bound they imply for one contract.

    ``ok`` folds in the unconditional facts: every per-type cap, the
    witness-payment floor of each type playing a productive action (checked
    here, not reported per type), the zero type within its formula (and on
    it when it plays the star action), ``e1_covered_by_sbar`` and
    ``total_le_aggregate``.  The p* coefficient, the coefficient chain and
    the small-gap step are only guaranteed for large universes, so they are
    reported, not asserted.
    """

    ok: bool
    partition: TypePartition
    per_type: tuple[OnlyIfTypeCheck, ...]
    theta0_action: int
    theta0_utility: Fraction
    theta0_plays_star: bool
    theta0_matches_formula: bool
    theta0_within_formula: bool
    sbar: frozenset[int]
    e1_covered_by_sbar: bool
    total: Fraction
    aggregate_bound: Fraction
    total_le_aggregate: bool
    pstar_coefficient: Fraction
    pstar_coefficient_nonpositive: bool
    pstar_zero_bound: Fraction
    coefficient_chain_value: Fraction
    coefficient_chain_negative: bool
    small_gap_step_holds: bool


def verify_onlyif_bounds(ri: ReducedInstance, p: Sequence[Num]) -> OnlyIfReport:
    """Check the per-type utility caps and the aggregate bound on a contract.

    All arithmetic is exact.  Per positive type, the cap depends on its
    class: own productive action, another element's productive action, or
    anything else.  Types playing a productive action must also satisfy the
    witness-payment floor implied by the productive-vs-shadow comparison,
    sink-outcome payment included.  The caps aggregate into an upper bound
    on the expected principal utility that features the family of well-paid
    sets.
    Scale inequalities that need a large universe (the payment coefficient
    sign chain and the 1/(16 n^14 m) step) are reported, not asserted.
    """
    q = tuple(map(as_fraction, p))
    responses = _responses(ri, q)[1]  # the table validates q
    n, m = ri.sc.n, ri.sc.m
    mu, eta, eps, rho = (
        ri.params.mu,
        ri.params.eta,
        ri.params.eps_r,
        ri.params.rho,
    )
    pstar = q[ri.star_outcome]
    pbar = q[ri.bar_outcome]
    part = classify_types(ri, q, responses)

    floor = Fraction(1, n) - 4 * pstar / eta
    sbar = frozenset(s + 1 for s in range(m) if q[s] >= floor)
    # Each class cap is const + slope p*, and so is the zero type's term
    # rho (1 - m eps)(1/n - p*) - eps rho |sbar| floor; the aggregate bound
    # sums them with the type weights as zero_bound + coef p*.
    weight = (1 - rho) / n
    zero_bound = rho * (1 - m * eps) / n - eps * rho * len(sbar) / n
    coef = -rho * (1 - m * eps) + 4 * eps * rho * len(sbar) / eta
    checks: list[OnlyIfTypeCheck] = []
    floors_ok = True
    for i in range(1, n + 1):
        br = responses[i]
        util = br.principal_utility
        owner = ri.interior_owner.get(br.action)
        if owner is not None:
            j, set_id = owner
            # The sink term (4/eta + 1) pbar only raises the stated floor
            # i/(j n) - 4 p*/eta: eta = 1/n^2 > 0 and the table refuses
            # negative payments.
            floor_ij = Fraction(i, j * n) - 4 * pstar / eta + (4 / eta + 1) * pbar
            floors_ok = floors_ok and q[set_id - 1] >= floor_ij
        if i in part.e1:
            klass, const, slope = "E1", mu / (2 * i * n), (mu / i) * (2 / eta - 1)
        elif i in part.e2:
            klass, slope = "E2", mu * 2 / eta
            const = mu * (Fraction(1, 2 * i * n) - Fraction(1, 8 * n**4))
        else:
            klass, const, slope = "E3", _ZERO, _ZERO
        bound = const + slope * pstar
        zero_bound += weight * const
        coef += weight * slope
        checks.append(
            OnlyIfTypeCheck(
                element=i,
                klass=klass,
                action=br.action,
                principal_utility=util,
                bound=bound,
                within_bound=util <= bound,
            )
        )

    br0 = responses[0]
    theta0_utility = br0.principal_utility
    theta0_formula = _theta0_value(ri, q)
    theta0_star = br0.action == ri.star_action

    covered = set().union(*(ri.sc.sets[s - 1] for s in sbar)) if sbar else set()
    e1_covered = part.e1 <= covered

    agg = zero_bound + coef * pstar
    total = _expected_value(ri, responses)
    chain = 2 * Fraction(1, n**7) - Fraction(1, 2 * n**6) + 4 * Fraction(1, n**12)
    ok = (
        all(t.within_bound for t in checks)
        and floors_ok
        and theta0_utility <= theta0_formula
        and (not theta0_star or theta0_utility == theta0_formula)
        and e1_covered
        and total <= agg
    )
    return OnlyIfReport(
        ok=ok,
        partition=part,
        per_type=tuple(checks),
        theta0_action=br0.action,
        theta0_utility=theta0_utility,
        theta0_plays_star=theta0_star,
        theta0_matches_formula=theta0_utility == theta0_formula,
        theta0_within_formula=theta0_utility <= theta0_formula,
        sbar=sbar,
        e1_covered_by_sbar=e1_covered,
        total=total,
        aggregate_bound=agg,
        total_le_aggregate=total <= agg,
        pstar_coefficient=coef,
        pstar_coefficient_nonpositive=coef <= 0,
        pstar_zero_bound=zero_bound,
        coefficient_chain_value=chain,
        coefficient_chain_negative=chain < 0,
        small_gap_step_holds=n >= 16,
    )
