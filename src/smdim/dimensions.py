"""Shattering dimensions of finite hypothesis classes, with replayable certificates.

The central notion: a version space V is shatterable to depth d >= 1 at margin
gamma >= 0 when some instance x lets an adversary keep the game going, meaning

    min over mixtures mu of  max over qualifying (y, eps) of
        expected_loss(mu, y) - eps   reaches gamma and is above 0
    (so gamma = 0 is the strict margin: the value is above 0),

where (y, eps) qualifies when the restricted child space {h in V :
loss(y, h(x)) <= eps} is itself shatterable to depth d - 1. The restriction is
a step function of eps, so thresholds only need to be enumerated at the loss
values actually realized on V; the inner min-max is a finite game solved
exactly by `solve_min_max`. For a fixed label the qualifying row with the
smallest threshold dominates the others pointwise (same coefficients, larger
offset), so each LP is solved, and each certificate node is recorded, over one
row per label. The dominated rows add nothing: the game without them has the
same value and minimizer, every best response to a mixture is a dominant row,
and their children are supersets of the dominant row's child.

Shatterability is monotone under inclusion: if V is a subset of V' and V is
shatterable to depth d, so is V'. By induction on d (depth 0 only needs a
nonempty space): at V's instance x, each qualifying (y, eps) of V has a
superset child in V' at the same threshold, which qualifies by induction; its
realized threshold eps' on V' is at most eps, so V' has a pointwise higher
row loss(y, .) - eps', and its game value is at least V's. The engine uses
this to prune: children grow with the threshold, so for each label it
recurses over realized thresholds in ascending order only until the first
one qualifies, and every larger realized threshold of that label qualifies
without recursion. The qualifying list, the LP rows, the chosen instance and
the node value are the ones the unpruned recursion finds. This rule lives in
`qualifying_rows`, which the recursion and Mrsoa's mixture rule
(`DimensionEngine.mixture`) both call; it returns each qualifying label's
first row id and builds no candidate list: it walks the threshold steps
itself and stops each label at its first qualifying child.
A memo entry keeps the instance and those row ids, and `certificate()`
reads each node from it: the node lists the candidates whose row ids the entry
holds. Their children are the ones the scan stopped at, each a passing memo
entry. So `certificate()` visits no version space that `smdim` on the same
space did not, and a memo cap (`SMDIM_MEMO_CAP`, a bound on the version spaces
visited) that suffices for one suffices for both.

Because children grow with the threshold, a node's game can also be bounded
before any child is probed, as in branch and bound (Land and Doig). A child
shatterable to depth d - 1 has more than d - 1
members (the |V| - 1 cap below), so at depth d >= 2 each label's first
threshold step whose child has that many members gives the label's
optimistic row, and the optimistic game is the game over those rows. Each
qualifying row is of a label the optimistic rows hold, at the same or a
larger threshold, so it is pointwise at most that label's optimistic row,
and the qualifying game's value is at most the optimistic game's. So
`_branch` skips an instance whose optimistic game misses the margin and
probes none of its children there; the instance it chooses, its rows and
every dimension are the ones the full scan gives, and only the version
spaces visited shrink: a skipped child is not visited and does not count
against the memo cap. At depth 1 the optimistic rows are the qualifying
rows (`_first_rows`).

All four routes, and the learners, represent a version space as an `int`
bitmask (bit h set when hypothesis h is a member); `to_mask` and `to_members`
convert at the `VersionSpace` boundary. The engine precomputes, for each
(x, y), the ascending thresholds realized over the whole class, each with the
mask of hypotheses within it; a child of V is then `V & mask` (`restrict`),
and a threshold is realized on V exactly when its child differs from the
previous threshold's. Two walks apply that rule: `candidate_rows` lists every
realized threshold, for certificates and the `candidates` accessor, and
`qualifying_rows` scans them without building a list.

Every threshold and every LP row is kept once, as integers over `den`, a
common denominator of the losses: a threshold as its key, the threshold times
den, and a row as its values at the pure predictions times den. Every engine
decision reads those integers, and Fractions meet them only at the edges:
certificates and the `candidates` accessor read one `Candidate` per row,
made from its key on first use, `restrict` turns a caller's threshold into
an integer cut, and `game` builds the rows it hands to the simplex.

Those tables do not depend on gamma: an LP row is fixed by (label,
threshold), and gamma only decides which rows qualify. So `_tables` builds
the margin-free part once per (problem, class) pair (the threshold steps,
each row's integer values at the pure predictions, the table of solved
games, the table of game values and each row's `Candidate`),
and every engine on that pair shares it, whatever its margin;
`dim --gamma a,b,c`, `verify` and repeated top-level `smdim`/`msdim` calls
solve each LP once. One module-level slot holds the last
pair's tables, keyed by the identity of the problem and class objects, so
equal pairs parsed separately share nothing. The memo, the visited spaces,
the memo cap and the mixture memo depend on gamma and stay on each engine.

The recursion only needs whether a node's game reaches the margin, and most
games are decided without an LP by exact bounds on their value (LP duality,
as in Shapley and Snow's small kernels). Any learner mixture gives an upper
bound, the best row's payoff against it, and any adversary mixture a lower
bound, its least payoff over the pure predictions. The engine tries four
mixtures, in this order:

- a pure prediction z refutes the game when every row at z misses the
  margin;
- the uniform mixture over all the game's rows certifies it when their mean
  reaches the margin at every z;
- a uniform pair of predictions refutes it when every row's mean over the
  pair misses the margin;
- a uniform pair of the game's rows certifies it when their mean reaches
  the margin at every z.

A value reaches the margin when it is at least gamma and above 0, which at
gamma = 0 is above 0 alone. All four are tested on integer rows over the loss
denominator by one rule (`_cut`). They decided every game the recursion met
on the dim-cold benchmark's seeds 1 and 3 and on the test grids of that
shape. Every margin decision of the engine goes through one path,
`_passes`: it reads the engine's verdict memo, then the bounds, and reads the
value of only the games they leave undecided, so each distinct game is
decided once per engine. The recursion (`_branch`) and Mrsoa's level sweep
(`mixture`) both call it.

A decided game is not solved, and a game whose value is read is solved only
when no small kernel proves that value. `value()`, which `certificate()`
calls for each node and `_passes` for an undecided game, reads the pair's one
table of values, and on a miss proves the value by `game.kernel_value` on the
same integer rows (a learner mixture over two predictions and an adversary
mixture over at most two rows that pay the same number, checked exactly at
every prediction), solves the game only when no such kernel exists, and
stores the value in that table either way. Node values are exact game values
whichever route gave them. Only `mixture()` solves a game to read its
mixture, the one it plays, so Mrsoa's mixtures are the simplex's. On the
dim-cold benchmark's seeds 1 and 3 kernels proved every node value, so
there the engine solves no game outside `mixture()`. The oracles below use
neither the bounds nor the kernels.

Depth is capped at |V| - 1: against the Dirac mixture on any surviving
hypothesis's prediction, a qualifying candidate needs a loss strictly below
the played one (at least gamma below, and above 0), so every branch excludes
the played hypothesis.

`smdim` is the dimension under an arbitrary loss matrix, `ldim_k` the zero-loss
branching dimension for {0,1} losses (k+1 labels per node), `seqfat` the
sequential fat-shattering dimension on a numeric grid, and `msdim` the
set-valued-label dimension, computed by delegating to `smdim` on the 0/1
membership loss (the expected membership loss of a mixture is exactly the mass
it puts outside the label set). `msdim_direct` recomputes it from the
definition without threshold enumeration, as an independent cross-check.

All four routes (the engine, `ldim_k`, `seqfat`, `msdim_direct`) share one
memoized recursion, `_shatter_memo`, which holds the depth-0 and |V| - 1 base
cases and the memo, and one bottom-up depth loop, `_max_depth`. They differ
only in their branching rule, which decides depth d+1 from depth-d children,
and each builds its own child masks; keeping those rules separate keeps the
oracles independent cross-checks. The oracles build their masks once per
call, from integers: `seqfat` compares grid values scaled by `scaled_loss`,
and `ldim_k` and `msdim_direct` look predictions up in each label's set of
zero-loss predictions (`_zero_loss_masks`). Each route checks that the class
fits the problem (`validate_problem`, two comparisons against what the class
recorded when it was built; the engine does so in `_tables`) and converts
the caller's space by one checked rule (`_space_mask`) before it recurses.
The recursion is Python recursion. The engine enters it through
`_shatter_memo`, and below that its scan (`qualifying_rows`) probes each
child by the same base cases and memo without a call, so a depth level costs
two frames (`_branch`, `qualifying_rows`). A depth-d query from a script's
top level needs a recursion limit of about 2d + 11 (3d + 11 with one more
frame per level), so the default limit of 1000 allows depth about 490 from a
shallow stack before RecursionError. Where the instance prune skips the
deepest chain of calls a query needs less: 14, not 16, for the binary cube
over three instances at the strict margin.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations
from operator import add, or_
from typing import Optional, Union

from .core import (
    BudgetError,
    Candidate,
    HypothesisClass,
    Mixture,
    Problem,
    RationalLike,
    ValidationError,
    VersionSpace,
    check_count,
    check_index,
    exceeds,
    format_rational,
    format_value,
    parse_rational,
    scaled_loss,
    validate_problem,
)
from .game import AffineRow, GameSolution, kernel_value, solve_min_max
from .instances import canonical_json

MEMO_CAP_ENV = "SMDIM_MEMO_CAP"
DEFAULT_MEMO_CAP = 200_000
_MISSING = object()


@dataclass(frozen=True)
class GammaValue:
    """A shattering margin gamma >= 0. A game passes when its value reaches
    gamma and is above 0, so gamma = 0 is the strict margin: the value must
    be above 0."""

    gamma: Fraction

    def __post_init__(self):
        if not isinstance(self.gamma, Fraction):
            raise ValidationError(f"gamma {format_value(self.gamma)} is not a Fraction")
        # The sign of a Fraction is its numerator's.
        if self.gamma.numerator < 0:
            raise ValidationError(f"negative gamma {format_rational(self.gamma)}")

    @property
    def strict(self) -> bool:
        """Whether this is the strict margin, gamma = 0."""
        return self.gamma.numerator == 0

    @classmethod
    def of(cls, value: Union["GammaValue", RationalLike]) -> "GammaValue":
        if isinstance(value, GammaValue):
            return value
        return cls(parse_rational(value))

    @classmethod
    def strict_zero(cls) -> "GammaValue":
        return cls(Fraction(0))

    def describe(self) -> str:
        return "0 (strict)" if self.strict else format_rational(self.gamma)

    def passes(self, value: Fraction) -> bool:
        """Whether a game value reaches this margin: above 0 and at least
        gamma, read in integers (`exceeds`)."""
        return value.numerator > 0 and not exceeds(self.gamma, value)


@dataclass(frozen=True)
class CertificateNode:
    """One level of a shattering tree: the instance to play and the candidate fan-out.

    `candidates` holds one (Candidate, child) pair per qualifying label, in
    ascending label order: the label's smallest qualifying threshold, whose
    row dominates the label's other qualifying rows. `value` is the value of
    the game over their rows, which those other rows would not change.
    """

    space: VersionSpace
    depth: int
    instance: int
    value: Fraction
    candidates: tuple  # ((Candidate, VersionSpace), ...)


@dataclass(frozen=True)
class ShatteringCertificate:
    """A replayable witness that `root` is shatterable to `depth` at margin `gamma`.

    `nodes` maps (members, depth) to the CertificateNode chosen there; every
    child of a recorded node at depth >= 2 is itself recorded, so walking
    best responses from the root always stays inside the certificate. In a
    certificate from `DimensionEngine.certificate`, each node lists one
    candidate per qualifying label, and nodes and candidates share one
    `VersionSpace` per distinct mask.
    """

    gamma: GammaValue
    root: VersionSpace
    depth: int
    nodes: dict

    def node(self, space: VersionSpace, depth: int) -> CertificateNode:
        key = (space.members, depth)
        if key not in self.nodes:
            members, depth = format_value(space.members), format_value(depth)
            raise ValidationError(f"certificate has no node for space {members} depth {depth}")
        return self.nodes[key]

    def to_json(self) -> str:
        """The certificate as canonical JSON text (`canonical_json`).

        The document is {"gamma", "strict", "depth", "root", "nodes"}; "nodes"
        lists the nodes in sorted (members, depth) order, each as {"space",
        "depth", "x", "value", "candidates"}, and each candidate as {"y",
        "eps", "child"}; rationals are "p/q" strings and spaces are member
        lists.
        """
        doc = {
            "gamma": format_rational(self.gamma.gamma),
            "strict": self.gamma.strict,
            "depth": self.depth,
            "root": self.root.members,
            "nodes": [
                {
                    "space": members,
                    "depth": depth,
                    "x": node.instance,
                    "value": format_rational(node.value),
                    "candidates": [
                        {"y": cand.label, "eps": format_rational(cand.threshold), "child": child.members}
                        for cand, child in node.candidates
                    ],
                }
                for (members, depth), node in sorted(self.nodes.items())
            ],
        }
        return canonical_json(doc)


class DimensionEngine:
    """Memoized shattering computations for one (problem, class, gamma) context.

    Version spaces are `int` bitmasks over hypothesis indices. The memo table
    is keyed by (mask, depth) and is shared by every query against this
    engine, so learners that probe many sub-spaces of the same class reuse all
    prior work. Each entry is (instance, LP row ids) for the node chosen
    there, the ids being the key of its game in `games` and `values`
    (`qualifying_rows`), or None when the space is not shatterable to that
    depth. The node's value is `value(ids)`, and `certificate()` lists the
    candidates of those ids. Lookups are idempotent pure values: concurrent
    readers are safe, and a duplicated insert computes the same entry. The
    number of distinct version spaces visited is capped (`memo_cap`, or the
    SMDIM_MEMO_CAP environment variable) and exceeding the cap raises
    BudgetError rather than thrashing.

    Each distinct LP row, one per (label, threshold) realized over the class,
    has a small integer id, and `_pure[row_id]` holds its values at the pure
    predictions as integers over `_den`, the loss denominator; the threshold
    steps hold each threshold as an integer over `_den` too, its key
    (`_tables`). `games` holds the solved min-max games keyed by the tuple of
    row ids (`game`), for their mixtures, and `values` every game value the
    engine worked out, by the same keys, whether a two-point kernel proved it
    or the simplex solved the game (`value`). The recursion and `mixture`
    both decide a game's margin by `_passes`, which reads a private verdict
    memo keyed by the row ids, then tries the exact bounds (`_pure_verdict`,
    module docstring), and reads the game's value only when they leave it
    undecided.
    The engine's own part of the bounds is, per row, the mask of predictions
    where the row is under the margin, built with the engine; the pair bounds
    are computed per game, on first use. `games`, `values`, the rows' integer
    values, their `Candidate`s and the threshold steps are shared by every
    engine built on the same `problem` and `cls` objects, at any margin
    (`_tables`), and live while one of those engines does or while the pair
    is the last one an engine was built on. `mixture()` gives Mrsoa's
    mixture, which every learner on the engine plays, from a private memo
    keyed by (mask, instance). Like the memo, the verdict memo and the
    mixture memo depend on gamma and live as long as the engine; the verdict
    memo holds at most 2 * `num_instances` games per memo entry, plus one per
    depth of each `mixture()` sweep (`_passes`).

    `problem` and `cls` are the objects the caller passed, so the engine, the
    learners built on it and `run_game` all read one loss bound `bound_c`.
    """

    def __init__(
        self,
        problem: Problem,
        cls: HypothesisClass,
        gamma: Union[GammaValue, RationalLike],
        memo_cap: Optional[int] = None,
    ):
        self.problem, self.cls = problem, cls
        (self._den, self._steps, self._pure, self.games, self.values,
         self._candidates) = _tables(problem, cls)
        self.gamma = GammaValue.of(gamma)
        # `_below[row_id]` is the mask of the predictions z where the row
        # alone misses the margin (`_cut` with k = 1).
        cut = self._cut(1)
        self._below = [sum(1 << z for z, v in enumerate(row) if v < cut) for row in self._pure]
        if memo_cap is None:
            env = os.environ.get(MEMO_CAP_ENV)
            try:
                memo_cap = int(env) if env else DEFAULT_MEMO_CAP
            except ValueError as exc:
                raise ValidationError(f"{MEMO_CAP_ENV} must be an integer, got {env!r}") from exc
        check_count("memo cap", memo_cap, low=1)
        self.memo_cap = memo_cap
        self._memo = {}
        self._verdicts = {}
        self._spaces = set()
        self._mixtures = {}

    # -- public API ---------------------------------------------------------

    def smdim(self, space: VersionSpace) -> int:
        return self.dim_members(_space_mask(self.cls, space))

    def shatterable(self, space: VersionSpace, depth: int) -> bool:
        members = _space_mask(self.cls, space)
        check_count("depth", depth)
        return self._shatter(members, depth)

    def certificate(self, space: VersionSpace) -> ShatteringCertificate:
        """Certificate for the full dimension of `space` (depth 0 gives no nodes).

        Every node is read from the memo. Its entry (x, ids) gives the
        instance and the LP row ids of the node's game, and the node lists the
        `candidate_rows` entries whose row id is in `ids`: one per qualifying
        label, its first qualifying candidate. Their children are the ones
        `qualifying_rows` stopped at, so each child of depth >= 1 is itself a
        passing memo entry, and the walk visits no version space `smdim` did
        not. The node's value is `value(ids)`, the exact game value, proved by
        a two-point kernel where one exists. Each candidate is its row's one
        `Candidate` in the pair's tables (`_candidate`), so a node builds no
        `Fraction` or `Candidate` for a row an earlier node, certificate or
        engine on the pair already read.
        """
        root = _space_mask(self.cls, space)
        depth = self.dim_members(root)
        spaces = {root: space}  # mask -> its VersionSpace
        nodes = {}
        stack = [(root, depth)] if depth else []
        while stack:
            mask, d = stack.pop()
            node_space = spaces[mask]
            if (node_space.members, d) in nodes:
                continue
            x, ids = self._memo[(mask, d)]
            candidates = []
            # Row ids are unique per (label, threshold), so each id names one entry.
            for y, key, child, row_id in self.candidate_rows(mask, x):
                if row_id in ids:
                    child_space = spaces.get(child)
                    if child_space is None:
                        child_space = spaces[child] = VersionSpace(to_members(child))
                    candidates.append((self._candidate(y, key, row_id), child_space))
                    if d > 1:
                        stack.append((child, d - 1))
            nodes[(node_space.members, d)] = CertificateNode(
                space=node_space, depth=d, instance=x, value=self.value(ids), candidates=tuple(candidates)
            )
        return ShatteringCertificate(gamma=self.gamma, root=space, depth=depth, nodes=nodes)

    def candidates(self, space: VersionSpace, x: int):
        """Every (Candidate, child) pair at the realized distinct thresholds;
        each Candidate is its row's one in the pair's tables (`_candidate`)."""
        members = _space_mask(self.cls, space)
        check_index("instance", x, self.problem.num_instances)
        return tuple(
            (self._candidate(y, key, row_id), VersionSpace(to_members(child)))
            for y, key, child, row_id in self.candidate_rows(members, x)
        )

    def _candidate(self, y: int, key: int, row_id: int) -> Candidate:
        """The `Candidate` of LP row `row_id`, label y at threshold key / den,
        built on first use and kept in the pair's tables (`_tables`)."""
        cand = self._candidates.get(row_id)
        if cand is None:
            cand = self._candidates[row_id] = Candidate(y, Fraction(key, self._den))
        return cand

    # -- low-level API (bitmask version spaces, shared with the learners) ----
    # No validation: callers pass masks within the class and indices in range.

    def dim_members(self, members: int) -> int:
        """Dimension of the version space given as a bitmask."""
        return _max_depth(members, self._shatter)

    def candidate_rows(self, members: int, x: int) -> list:
        """(label, threshold times den, child mask, LP row id) at each threshold
        realized on `members`.

        A threshold is realized exactly when its child differs from the one at
        the label's previous threshold; labels ascend, thresholds ascend within
        a label, so each label's first entry has its smallest threshold and the
        LP row that dominates the label's others. The threshold is given as
        its integer key, the threshold itself being `Fraction(key, den)`, and
        `_pure[row_id]` is the row's integer values. A label's list ends at
        its first child equal to `members`.
        `qualifying_rows` walks the steps by the same rule without a list.
        """
        out = []
        for y, (keys, steps) in enumerate(self._steps[x]):
            previous = 0
            for i, (within, row_id) in enumerate(steps):
                child = members & within
                if child != previous:
                    out.append((y, keys[i], child, row_id))
                    if child == members:
                        break
                    previous = child
        return out

    def qualifying_rows(self, members: int, x: int, child_depth: int) -> tuple:
        """The LP row ids of the qualifying game at x, a key of `game`.

        There is one id per qualifying label, in ascending label order: the
        row of the label's first qualifying candidate, which dominates the
        label's other qualifying rows. The ids are those of each label's first
        entry in `candidate_rows` whose child is shatterable to `child_depth`.

        The scan walks the threshold steps itself, by `candidate_rows`' rule
        (a step counts when its child differs from the previous step's, and a
        label ends at its first child equal to `members`), and builds no
        list. It stops each label at its first qualifying child: every larger
        realized threshold has a superset child, so it qualifies too (module
        docstring), and its LP row is dominated. At `child_depth` 0 every
        nonempty child qualifies, so the rows are each label's first step
        with a nonempty child (`_first_rows` at k = 0); there is one, since
        the last step holds the whole class. Above depth 0 the scan probes
        each child without a call, by `_shatter_memo`'s rules: a child of at
        most `child_depth` members is capped (|V| - 1), else the memo entry
        under (child, child_depth) decides, and `_branch` runs only on a
        miss. So a depth level of the engine's recursion is two frames
        (module docstring).
        """
        if not child_depth:
            return self._first_rows(members, x, 0)
        ids = []
        memo, branch = self._memo, self._branch
        for _, steps in self._steps[x]:
            previous = 0
            for within, row_id in steps:
                child = members & within
                if child != previous:
                    if child.bit_count() > child_depth:
                        key = (child, child_depth)
                        hit = memo.get(key, _MISSING)
                        if hit is _MISSING:
                            hit = memo[key] = branch(child, child_depth)
                        if hit:
                            ids.append(row_id)
                            break
                    if child == members:
                        break
                    previous = child
        return tuple(ids)

    def game(self, ids: tuple) -> GameSolution:
        """The solved min-max game over the rows `ids`, memoized in `games`.

        Each row is built here from its integers, as the `AffineRow` with
        coefficients (loss[y][z] - eps) and offset 0: the same rationals as
        loss[y] with offset -eps, and, by the simplex's scale invariance
        (`game` module docstring), the same solution."""
        sol = self.games.get(ids)
        if sol is None:
            rows = [tuple([Fraction(v, self._den) for v in self._pure[i]]) for i in ids]
            sol = self.games[ids] = solve_min_max([AffineRow(row, Fraction(0)) for row in rows])
        return sol

    def value(self, ids: tuple) -> Fraction:
        """The value of the game over the rows `ids`, read from `values`, the
        one table of values. On a miss it is the value a two-point kernel
        proves (`kernel_value`), else the solved game's (`game`), and is
        stored in `values` either way."""
        value = self.values.get(ids)
        if value is None:
            value = kernel_value([self._pure[i] for i in ids], self._den)
            if value is None:
                value = self.game(ids).value
            self.values[ids] = value
        return value

    def mixture(self, members: int, x: int) -> Mixture:
        """Mrsoa's mixture on bitmask `members` at instance x.

        The depths sweep down from the dimension d of `members` to 1 (only 0
        when d = 0), each deciding the game over the rows whose children are
        shatterable to that depth (`qualifying_rows`) by the recursion's
        verdict (`_passes`); the sweep stops at the first game that passes the
        margin and plays the last one that did not, the only game it solves.
        Under it, any over-margin feedback restricts to a child of dimension
        below the depth played. The top game (depth d) fails by the definition
        of d, so a mixture always exists unless the memo and the game
        verdicts (`_passes`) disagree, which raises RuntimeError. No depth's
        rows are empty: each label's last candidate is `members` itself.

        Memoized per (members, x): equal keys get the same Mixture object.
        """
        key = (members, x)
        mu = self._mixtures.get(key)
        if mu is None:
            dim = self.dim_members(members)
            kept = None
            for depth in range(dim, 0, -1) if dim else (0,):
                ids = self.qualifying_rows(members, x, depth)
                if self._passes(ids):
                    break
                kept = ids
            if kept is None:
                raise RuntimeError(
                    f"the depth-{dim} game passes at dimension {dim}: "
                    "the memo and the game verdicts disagree"
                )
            mu = self._mixtures[key] = self.game(kept).mixture
        return mu

    def restrict(self, members: int, x: int, y: int, eps: Optional[Fraction] = None) -> int:
        """The child {h in members : loss(y, h(x)) <= eps} as a bitmask.

        eps=None takes the smallest loss realized on `members`. A threshold
        below every loss gives the empty space 0, one at or above every loss
        gives `members` itself. eps is the one Fraction read: it becomes the
        integer floor(eps * den), and the step keys are bisected against it.
        """
        keys, steps = self._steps[x][y]
        if eps is not None:
            # A threshold t is at most eps exactly when its key t * den, an
            # integer, is at most floor(eps * den).
            cut = bisect_right(keys, eps.numerator * self._den // eps.denominator)
            return members & steps[cut - 1][0] if cut else 0
        for within, _ in steps:
            child = members & within
            if child:
                return child
        return 0

    # -- internals ----------------------------------------------------------

    # A method, not a closure stored on the engine: that would be a reference
    # cycle, so engines would outlive their last reference until a gc pass.
    def _shatter(self, members: int, depth: int) -> bool:
        return _shatter_memo(self._memo, self._branch, members, depth)

    def _branch(self, members: int, depth: int):
        """(instance, LP row ids) at the first instance whose qualifying game
        passes, else None. Games an exact bound decides are not solved.

        At each instance the optimistic game (`_first_rows` at k = depth - 1)
        is decided first. It bounds the qualifying game's value from above
        (module docstring), so when it misses the margin the instance is
        skipped and none of its children is probed. At depth 1 it is the
        qualifying game itself."""
        if members not in self._spaces:
            if len(self._spaces) >= self.memo_cap:
                raise BudgetError(
                    f"visited more than {self.memo_cap} version spaces; "
                    f"raise {MEMO_CAP_ENV} or pass a larger memo_cap"
                )
            self._spaces.add(members)
        for x in range(self.problem.num_instances):
            ids = self._first_rows(members, x, depth - 1)
            if not self._passes(ids):
                continue  # the optimistic game misses: no child at x is probed
            if depth > 1:
                ids = self.qualifying_rows(members, x, depth - 1)
                if not (ids and self._passes(ids)):
                    continue
            return x, ids
        return None

    def _first_rows(self, members: int, x: int, k: int) -> tuple:
        """The row id of each label's first threshold step at x whose child
        has more than k members, in ascending label order; a label with no
        such step is left out. At k = 0 these are the qualifying rows at child
        depth 0, and at k = depth - 1 the rows of `_branch`'s optimistic game
        (module docstring). The scan recurses into no child."""
        ids = []
        for _, steps in self._steps[x]:
            for within, row_id in steps:
                if (members & within).bit_count() > k:
                    ids.append(row_id)
                    break
        return tuple(ids)

    def _passes(self, ids: tuple) -> bool:
        """Whether the game over rows `ids` reaches the margin: from the
        verdict memo when it holds the game, else by an exact bound, else by
        its exact value (`value`: a two-point kernel, or the simplex). The
        recursion and `mixture` both decide their games here, so each
        distinct game is bounded once per engine.

        The memo maps row ids to the verdict and, like `_memo`, depends on
        the margin and lives with the engine. `_branch` runs once per memo
        entry and decides at most two games per instance, the optimistic one
        and the qualifying one, so the verdict memo holds at most 2 *
        `num_instances` entries per memo entry, plus the games of Mrsoa's
        level sweeps, one per depth of each `mixture()` key.
        """
        verdict = self._verdicts.get(ids)
        if verdict is None:
            verdict = self._pure_verdict(ids)
            if verdict is None:
                verdict = self.gamma.passes(self.value(ids))
            self._verdicts[ids] = verdict
        return verdict

    def _cut(self, k: int) -> int:
        """The one margin rule of the bounds: the mean of k entries of `_pure`,
        integers over `_den`, reaches the margin exactly when their sum is at
        least this integer, max(1, ceil(k * gamma * den)). For gamma > 0 the
        ceiling is already at least 1; at gamma = 0 it is 0, and the sum must
        be above 0."""
        gamma = self.gamma.gamma
        return -(-k * gamma.numerator * self._den // gamma.denominator) or 1

    def _pure_verdict(self, ids: tuple) -> Optional[bool]:
        """False when a learner mixture over one or two predictions refutes
        the game over rows `ids`, True when an adversary mixture over two of
        its rows or all of them certifies it, else None.

        Each is an exact bound on the game's value (LP duality). Against a
        learner mixture the adversary's best row is an upper bound on the
        value, so the game fails when every row's mean at a pure prediction z,
        or at a uniform pair of predictions, misses the margin. Against every
        learner mixture an adversary mixture gets at least its least payoff
        over the pure z, a lower bound on the value, so the game passes when
        the mean of all its rows, or of a uniform pair of them, reaches the
        margin at every z. The bounds are tried in that order, the pure z by
        ANDing the rows' masks in `_below`; all four compare sums of k
        integer entries with `_cut(k)`, and the other three are computed for
        this game alone.
        """
        below, common = self._below, -1
        for i in ids:
            common &= below[i]
        if common:
            return False
        rows = [self._pure[i] for i in ids]
        at = list(zip(*rows))  # at[z]: every row's integer at prediction z
        if min(map(sum, at)) >= self._cut(len(ids)):
            return True
        cut = self._cut(2)
        for a, b in combinations(at, 2):
            if max(map(add, a, b)) < cut:
                return False
        for r, s in combinations(rows, 2):
            if min(map(add, r, s)) >= cut:
                return True
        return None


# The last (problem, class) pair's tables, as (problem, cls, tables): strong
# references, so neither id can be reused while the slot holds it.
_last_tables = (None, None, None)


def _tables(problem: Problem, cls: HypothesisClass) -> tuple:
    """(den, steps, pure, games, values, candidates): the margin-free tables
    of every engine built on these very objects, after checking that the
    pair fits (`validate_problem`, which reads no table entry).

    den is a common denominator of every loss, and every threshold and LP row
    is kept once, as integers over it. steps[x][y] is (keys, steps) for the
    thresholds realized at (x, y) over the whole class, ascending: keys[i] is
    threshold i times den, and steps[i] is (within, row_id), the mask of the
    hypotheses whose loss is at most the threshold and the id of its LP row.
    The keys are a tuple of their own so that `restrict` bisects plain ints.
    A row depends only on (label, threshold), so instances share it, and
    pure[row_id] holds its value at each pure prediction z times den,
    (loss[y][z] - eps) * den. games holds the solved games by row-id tuple,
    and values every game value an engine worked out, kernel-proved or
    solved (`DimensionEngine.value`), by the same keys. candidates holds each
    row's `Candidate(y, Fraction(key, den))` by row id, filled on first use
    (`DimensionEngine._candidate`), so certificates and the `candidates`
    accessor build one per row, and an engine that writes neither builds
    none. The one slot is keyed by identity, not value: equal pairs parsed
    separately get tables of their own.
    """
    global _last_tables
    last = _last_tables
    if last[0] is problem and last[1] is cls:
        return last[2]
    validate_problem(problem, cls)
    # Not the problem's cached table: that would pin it on every problem an
    # engine was ever built on.
    den, scaled_rows = scaled_loss(problem.loss)
    row_ids = {}
    pure, steps = [], []
    for x in range(problem.num_instances):
        steps.append([])
        for y, scaled_row in enumerate(scaled_rows):
            at = {}  # scaled loss -> mask of the hypotheses with that loss
            for h, h_row in enumerate(cls.table):
                key = scaled_row[h_row[x]]
                at[key] = at.get(key, 0) | 1 << h
            keys = tuple(sorted(at))
            label_steps = []
            # within: the mask of the hypotheses whose loss is at most key.
            for key, within in zip(keys, accumulate(map(at.get, keys), or_)):
                row_id = row_ids.setdefault((y, key), len(row_ids))
                if row_id == len(pure):
                    pure.append(tuple(v - key for v in scaled_row))
                label_steps.append((within, row_id))
            steps[x].append((keys, tuple(label_steps)))
    tables = (den, steps, tuple(pure), {}, {}, {})
    _last_tables = (problem, cls, tables)
    return tables


def smdim(
    problem: Problem,
    cls: HypothesisClass,
    space: VersionSpace,
    gamma: Union[GammaValue, RationalLike],
    memo_cap: Optional[int] = None,
) -> int:
    """Sequential minimax dimension of `space` at margin `gamma`."""
    return DimensionEngine(problem, cls, gamma, memo_cap).smdim(space)


def ldim_k(problem: Problem, cls: HypothesisClass, space: VersionSpace, k: int = 1) -> int:
    """Zero-loss branching dimension: depth d+1 needs an instance with k+1
    distinct labels whose zero-loss sub-spaces all have depth d.

    Requires a {0,1} loss matrix in which no prediction has zero loss against
    more than k labels (multiclass and size-<=k list losses satisfy this);
    otherwise the recursion has no finite value and the input is rejected.
    """
    validate_problem(problem, cls)
    root = _space_mask(cls, space)
    check_count("k", k, low=1)
    _check_binary_loss(problem)
    zeros, zero_loss = _zero_loss_masks(problem, cls)
    for z in range(problem.num_predictions):
        count = sum(z in zero for zero in zeros)
        if count > k:
            raise ValidationError(
                f"prediction {z} has zero loss against {count} labels; "
                f"the depth-{k + 1} branching recursion does not terminate"
            )

    def branch(members, depth):
        for masks in zero_loss:
            fanout = 0
            for within in masks:
                child = members & within
                if child and shatter(child, depth - 1):
                    fanout += 1
                    if fanout > k:
                        return True
        return False

    shatter = partial(_shatter_memo, {}, branch)
    return _max_depth(root, shatter)


def seqfat(
    problem: Problem,
    cls: HypothesisClass,
    space: VersionSpace,
    gamma: Union[GammaValue, RationalLike],
) -> int:
    """Sequential fat-shattering dimension at width gamma on a numeric grid.

    Needs Y = Z (a regression grid); witnesses range over the grid itself.
    Depth d+1 needs an instance x and witness s with both {h : h(x) >= s+gamma}
    and {h : h(x) <= s-gamma} of depth d.

    The grid values and gamma are put over one common denominator
    (`scaled_loss`), so each hypothesis's value at an instance and each
    witness's s + gamma and s - gamma are ints, worked out once, and every
    split mask is built from int comparisons.
    """
    validate_problem(problem, cls)
    root = _space_mask(cls, space)
    gv = GammaValue.of(gamma)
    if gv.strict:
        raise ValidationError("seqfat needs gamma > 0, not the strict margin 0")
    gamma = gv.gamma
    if problem.labels != problem.predictions:
        raise ValidationError("seqfat needs a regression grid with Y = Z")
    try:
        values = tuple(parse_rational(v) for v in problem.predictions)
    except ValidationError as exc:
        raise ValidationError(f"seqfat needs numeric labels: {exc}") from exc
    _, (scaled,) = scaled_loss((values + (gamma,),))
    *grid, g = scaled
    witnesses = [(s + g, s - g) for s in grid]
    # (upper, lower) masks per instance and witness s: hypotheses predicting
    # at least s + gamma, and at most s - gamma.
    splits = []
    for x in range(problem.num_instances):
        at = [grid[row[x]] for row in cls.table]  # each hypothesis's value at x
        splits.append(
            [
                (
                    to_mask(h for h, v in enumerate(at) if v >= high),
                    to_mask(h for h, v in enumerate(at) if v <= low),
                )
                for high, low in witnesses
            ]
        )

    def branch(members, depth):
        for per_witness in splits:
            for above, below in per_witness:
                upper = members & above
                if not upper:
                    continue
                lower = members & below
                if not lower:
                    continue
                if shatter(upper, depth - 1) and shatter(lower, depth - 1):
                    return True
        return False

    shatter = partial(_shatter_memo, {}, branch)
    return _max_depth(root, shatter)


def msdim(
    problem: Problem,
    cls: HypothesisClass,
    space: VersionSpace,
    gamma: Union[GammaValue, RationalLike],
    memo_cap: Optional[int] = None,
) -> int:
    """Set-valued-label dimension at margin gamma, via the minimax recursion.

    For the 0/1 membership loss the expected loss of a mixture against a label
    set is exactly the mass placed outside the set, so the general minimax
    dimension on the tabulated matrix computes this dimension directly.
    """
    _check_binary_loss(problem)
    return DimensionEngine(problem, cls, gamma, memo_cap).smdim(space)


def msdim_direct(
    problem: Problem,
    cls: HypothesisClass,
    space: VersionSpace,
    gamma: Union[GammaValue, RationalLike],
) -> int:
    """Set-valued-label dimension recomputed from its definition.

    Depth d+1 needs an instance x such that every mixture gives some label set
    y whose mass outside y reaches the margin (`GammaValue.passes`) and whose
    member child {h : loss(y, h(x)) = 0} has depth d. Independent of the threshold
    enumeration used by `msdim`; used to cross-check it.
    """
    validate_problem(problem, cls)
    root = _space_mask(cls, space)
    gv = GammaValue.of(gamma)
    _check_binary_loss(problem)
    rows = [AffineRow(loss_row, Fraction(0)) for loss_row in problem.loss]
    _, zero_loss = _zero_loss_masks(problem, cls)
    values = {}  # qualifying labels -> the value of their game, for this call

    def branch(members, depth):
        for masks in zero_loss:
            # An empty child is shatterable to no depth.
            labels = tuple(
                y for y, within in enumerate(masks) if shatter(members & within, depth - 1)
            )
            if labels:
                if labels not in values:
                    values[labels] = solve_min_max([rows[y] for y in labels]).value
                if gv.passes(values[labels]):
                    return True
        return False

    shatter = partial(_shatter_memo, {}, branch)
    return _max_depth(root, shatter)


def _shatter_memo(memo, branch, members, depth) -> bool:
    """Whether bitmask `members` is shatterable to `depth`, with `branch` deciding depth >= 1.

    Depth 0 needs a nonempty space and depths above |V| - 1 never hold (see
    the module docstring). In between, `branch(members, depth)` returns a
    truthy value exactly when some instance branches into children of depth
    `depth - 1`; it is stored in `memo` under (members, depth).

    The oracles' `branch` recurses by calling this function on the
    children, so each of their depth levels is a few Python frames. The
    engine calls it only through `_shatter`, from its entry points; below
    them its scan (`qualifying_rows`) applies the same base cases and reads
    the same memo inline, so each of its depth levels is two frames (module
    docstring).
    """
    if depth == 0:
        return bool(members)
    if depth > members.bit_count() - 1:
        return False
    key = (members, depth)
    hit = memo.get(key, _MISSING)
    if hit is _MISSING:
        hit = memo[key] = branch(members, depth)
    return bool(hit)


def _space_mask(cls: HypothesisClass, space: VersionSpace) -> int:
    """The bitmask of a caller's `VersionSpace`, after checking it fits the
    class: the engine's entry points and the three oracles all convert here."""
    if not isinstance(space, VersionSpace):
        raise ValidationError(f"expected a VersionSpace, got {format_value(space)}")
    if space.members and space.members[-1] >= cls.num_hypotheses:
        raise ValidationError(f"hypothesis index {format_rational(space.members[-1])} out of range")
    return to_mask(space.members)


def to_mask(members) -> int:
    """The bitmask of an iterable of hypothesis indices."""
    mask = 0
    for h in members:
        mask |= 1 << h
    return mask


def to_members(mask: int) -> tuple:
    """The ascending hypothesis indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _max_depth(members, shatter) -> int:
    """Largest depth to which `shatter(members, depth)` holds, probed bottom-up."""
    if not members:
        raise ValidationError("dimension of an empty version space is undefined")
    depth = 0
    while depth < members.bit_count() - 1 and shatter(members, depth + 1):
        depth += 1
    return depth


def _zero_loss_masks(problem: Problem, cls: HypothesisClass) -> tuple:
    """(zeros, masks): zeros[y] is the set of predictions with zero loss
    against label y, and masks[x][y] the mask of the hypotheses whose
    prediction at x is in zeros[y].

    Each label's set is built once, from one comparison per loss entry, so
    each (x, y, h) costs one int lookup in a set, not a Fraction comparison.
    """
    zeros = [frozenset(z for z, v in enumerate(row) if v == 0) for row in problem.loss]
    masks = []
    for x in range(problem.num_instances):
        at = [row[x] for row in cls.table]  # each hypothesis's prediction at x
        masks.append([to_mask(h for h, z in enumerate(at) if z in zero) for zero in zeros])
    return zeros, masks


def _check_binary_loss(problem: Problem):
    for y, row in enumerate(problem.loss):
        for z, v in enumerate(row):
            # Integer reads: a loss is a Fraction in lowest terms.
            if v.denominator != 1 or v.numerator not in (0, 1):
                raise ValidationError(f"loss[{y}][{z}] = {format_rational(v)} is not in {{0, 1}}")
