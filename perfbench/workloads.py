"""The four workloads: seeded inputs, the build, the verifier suite and the
evaluation batch of each.

Every workload draws all of its inputs from `numpy.random.default_rng(seed)`
when it is constructed, so one seed gives one set of inputs.  Sizes are
fixed toy sizes; only sample points, sample seeds and (for `ledger`) the
initial strip width change with the seed.

An `Op` is one call into the package's public API together with the check
of its verdict.  Ops marked `known` call a function that fails today with
that exception class (a known defect): they stay in the suite and are
timed with it, but they are accounted apart from the counted operations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, List, Optional, Tuple

import numpy as np

from abctorus import bounds, engine, minimal
from abctorus.exact import oracle
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint, rotate


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # failure message, or None
    known: Optional[str] = None


def _exact_hits(r) -> Optional[str]:
    if r.hits != r.samples:
        return f"exact conjugacy: {r.hits} of {r.samples} samples hit"
    return None


def _analytic_fraction(r) -> Optional[str]:
    if not r.passed:
        return f"analytic conjugacy: fraction {r.fraction} below {r.threshold}"
    return None


def _commutes(r) -> Optional[str]:
    return None if r.passed else f"commutation failed: {r}"


def _zero_defect(r) -> Optional[str]:
    return None if r.total == 0 else f"exact correspondence defect {r.total} != 0"


def _returned(r) -> Optional[str]:
    return None


def _is_true(r) -> Optional[str]:
    return None if r is True else f"expected True, got {r!r}"


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _rational_points(rng, n: int) -> List[TorusPoint]:
    num = rng.integers(0, 2**20, size=(n, 2))
    return [TorusPoint((Fraction(int(a), 2**20), Fraction(int(b), 2**20)))
            for a, b in num]


def _denominator_lcm(h) -> int:
    if hasattr(h, "denominator_lcm"):
        return h.denominator_lcm()
    # the O(1) minimality conjugation: staircase data and its cell grid
    out = h.kappa.denominator_lcm()
    for d in (h.comb.cols, h.comb.rows):
        out = out * d // gcd(out, d)
    return out


STACK_COUNTS = (
    "engine.stack.exact_moves", "engine.stack.analytic_moves",
    "engine.stack.constant_shears", "engine.stack.analytic_skipped",
    "engine.stack.q_bits", "exact.denominator_lcm_bits",
)


def stack_counts(maps) -> dict:
    """Structural counts of a built stack, read from public attributes."""
    exact_moves = constant = 0
    lcm = 1
    for h, h_an in zip(maps.conjugations_exact, maps.conjugations_analytic):
        realization = h if hasattr(h, "moves") else h_an.exact
        exact_moves += len(h.moves) if hasattr(h, "moves") else 0
        constant += sum(len(mv.step.values) == 1 for mv in realization.moves)
        d = _denominator_lcm(h)
        lcm = lcm * d // gcd(lcm, d)
    built = [h for h in maps.conjugations_analytic if h is not None]
    return dict(zip(STACK_COUNTS, (
        exact_moves,
        sum(len(h.moves) for h in built),
        constant,
        len(maps.conjugations_analytic) - len(built),
        maps.records[-1].q.bit_length(),
        lcm.bit_length(),
    )))


def digest(value) -> str:
    """sha256 of an evaluation result: exact points and rational tuples by
    their numerators and denominators, float arrays by their bytes, text
    by its UTF-8 encoding."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, str):
        h.update(value.encode())
    else:
        for pt in value:
            h.update(";".join(f"{c.numerator}/{c.denominator}" for c in pt).encode())
            h.update(b"|")
    return h.hexdigest()


class StageWorkload:
    """Common suite pieces of the three stage-map scenarios."""

    builds_per_pass = 1
    float_digest = ("analytic", "rational")  # outputs that depend on libm/SIMD

    def __init__(self, seed: int, exact_pts: int, float_pts: int, rational_pts: int):
        rng = np.random.default_rng(seed)
        self.sample_seed = _seed(rng)
        self.exact_pts = _rational_points(rng, exact_pts)
        self.float_pts = rng.random((2, float_pts))
        self.rational_pts = self.exact_pts[:rational_pts]
        self.atom_draws = rng.random(3)
        self.rng = rng

    def verify_ops(self, maps, stage: int, samples: int, comm_samples: int) -> List[Op]:
        """Conjugacy in both models and commutation at one stage.

        The analytic check passes when the sampled hit fraction reaches
        1 - 2 eps; `samples` is large enough that a sample landing in a
        collar set by chance does not fail it: at circle stage 3, 1% of
        points miss against an allowance of 4.2%, and on `minimal` 12
        samples tolerate one miss against 8.3%.
        """
        s = self.sample_seed
        return [
            Op(f"verify_cyclic_permutation(exact, stage={stage})",
               lambda: engine.verify_cyclic_permutation(maps, stage, "exact", samples, s),
               _exact_hits),
            Op(f"verify_cyclic_permutation(analytic, stage={stage})",
               lambda: engine.verify_cyclic_permutation(maps, stage, "analytic", samples, s),
               _analytic_fraction),
            Op(f"check_stage_commutation(stage={stage})",
               lambda: engine.check_stage_commutation(maps, stage, comm_samples, s),
               _commutes),
        ]

    def defect_op(self, maps, stage: int, model: str, samples: int = 4096,
                  known: Optional[str] = None) -> Op:
        return Op(f"correspondence_defect({model}, stage={stage})",
                  lambda: engine.correspondence_defect(maps, stage, model, samples,
                                                       self.sample_seed),
                  _zero_defect if model == "exact" else _returned, known)

    def partition_op(self, maps, stage: int) -> Op:
        q = maps.records[stage].q
        atoms = sorted({int(u * q) for u in self.atom_draws})

        def check(p) -> Optional[str]:
            if p.atoms != tuple(atoms) or any(len(c) != 9 for c in p.samples):
                return f"stage_partition returned atoms {p.atoms}"
            return None
        return Op(f"stage_partition(stage={stage})",
                  lambda: engine.stage_partition(maps, stage, atoms), check)

    def evals(self, maps) -> List[Tuple[str, int, Callable[[], object]]]:
        """(model, points, thunk) batches of T_n at the deepest stage."""
        out = [("exact", len(self.exact_pts),
                lambda: [engine.eval_stage_map(maps, x, "exact") for x in self.exact_pts])]
        if maps.conjugations_analytic[-1] is not None:
            out.append(("analytic", self.float_pts.shape[1],
                        lambda: engine.eval_stage_map(maps, self.float_pts, "analytic")))
            out.append(("rational", len(self.rational_pts),
                        lambda: [engine.eval_stage_map_rational(maps, x.coords)
                                 for x in self.rational_pts]))
        return out

    def structure(self, maps) -> dict:
        return stack_counts(maps)


class Circle(StageWorkload):
    """run_circle_scenario(3): q0 = 3, l = 4, so q_3 is about 1.8e12."""

    name = "circle"
    builds_per_pass = 100  # one build takes about 1.5 ms

    def __init__(self, seed: int):
        super().__init__(seed, exact_pts=200, float_pts=20000, rational_pts=20)

    def build(self):
        return engine.run_circle_scenario(3, q0=3, l=4)

    def suite(self, maps) -> List[Op]:
        ops = []
        for stage in (1, 2, 3):
            ops += self.verify_ops(maps, stage, samples=256, comm_samples=200)
            ops.append(self.defect_op(maps, stage, "analytic"))
        ops += [self.defect_op(maps, stage, "exact") for stage in (1, 2)]
        ops.append(self.partition_op(maps, 3))
        for stage in (1, 2):
            h, q = maps.conjugations_exact[stage - 1], maps.records[stage - 1].q
            blocks = PartitionSpec.blocks(q)

            def fixes_blocks(perm, q=q) -> Optional[str]:
                if not np.array_equal(perm, np.arange(q)):
                    return "h does not fix the coarse blocks"
                return None
            ops += [
                Op(f"oracle.induced_atom_permutation(h_{stage})",
                   lambda h=h, blocks=blocks: oracle.induced_atom_permutation(h, blocks),
                   fixes_blocks),
                Op(f"oracle.commutes_with_rotation(h_{stage})",
                   lambda h=h, q=q: oracle.commutes_with_rotation(h, q), _is_true),
            ]
        return ops


class Translation(StageWorkload):
    """translation_params(h=2, levels=2, gamma1=(1, 4), l_base=2), one stage:
    34,688 shears, q = 800, no analytic model under the `auto` policy."""

    name = "translation"
    builds_per_pass = 4  # a build takes about 0.17 s, the suite about 3.7 s

    def __init__(self, seed: int):
        super().__init__(seed, exact_pts=1, float_pts=0, rational_pts=0)

    def build(self):
        chain = bounds.translation_params(h=2, levels=2, gamma1=(1, 4), p1=1, q1=2,
                                          l_base=2)
        return engine.run_translation_scenario(chain, 1)

    def suite(self, maps) -> List[Op]:
        ops = self.verify_ops(maps, 1, samples=2, comm_samples=2)
        ops[1].known = "ParamOutOfRange"  # no analytic model was built
        ops.append(self.defect_op(maps, 1, "analytic", known="AttributeError"))
        return ops


class Minimal(StageWorkload):
    """run_minimal_scenario(n=2, l=4, q=3, r=2): the O(1) exact conjugation
    and a 3,709-move analytic realization."""

    name = "minimal"
    builds_per_pass = 2  # a build takes about 0.65 s, the suite about 4 s

    def __init__(self, seed: int):
        super().__init__(seed, exact_pts=200, float_pts=64, rational_pts=2)
        self.orbit_start = _rational_points(self.rng, 1)[0]

    def build(self):
        return engine.run_minimal_scenario(n=2, l=4, q=3, r=2)

    def suite(self, maps) -> List[Op]:
        ops = self.verify_ops(maps, 1, samples=12, comm_samples=4)
        ops.append(self.defect_op(maps, 1, "analytic", samples=128))
        ops.append(self.defect_op(maps, 1, "exact", known="AttributeError"))
        ops.append(self.partition_op(maps, 1))
        ops.append(Op("zone census (minimal_stage.locate, 2000 orbit points)",
                      lambda: self.zone_census(maps), self.census_check))
        return ops

    def zone_census(self, maps):
        stage = minimal.minimal_stage(2, 4, 3, 2)
        alpha = maps.records[-1].alpha
        y = self.orbit_start
        visits = {"A": 0, "B": 0, None: 0}
        for _ in range(2000):
            zone = stage.locate(y)
            visits[zone[0] if zone else None] += 1
            y = rotate(y, alpha)
        return visits

    @staticmethod
    def census_check(visits) -> Optional[str]:
        if visits["A"] == 0 or visits["B"] == 0:
            return f"zone census missed a zone family: {visits}"
        return None


class Ledger:
    """ledger_recipe(20) with its convergence ledger, Liouville recipes and
    translation parameters: only the towers and bounds modules do work."""

    name = "ledger"
    builds_per_pass = 1
    float_digest = ()
    K_TARGETS = (1, 2, 5)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # every width in [0.05, 0.2] gives a passing ledger of the same cost
        self.rho = 0.05 + 0.15 * int(rng.integers(0, 64)) / 63

    def build(self):
        stages, gaps = bounds.ledger_recipe(20, rho=self.rho)
        recipes = {k: bounds.liouville_generate(3, k) for k in self.K_TARGETS}
        chain = bounds.translation_params(h=2, levels=2, gamma1=(1, 4), p1=1, q1=2,
                                          l_base=2)
        return stages, gaps, recipes, chain

    def suite(self, state) -> List[Op]:
        stages, gaps, recipes, chain = state

        def verdict(v) -> Optional[str]:
            if v.stages != tuple(s.n for s in stages) or not v.lines:
                return "convergence_ledger returned an incomplete verdict"
            return None
        ops = [Op("convergence_ledger(20 stages)",
                  lambda: bounds.convergence_ledger(stages, gaps), verdict)]
        for k, recipe in recipes.items():
            for level in range(1, len(recipe.levels) + 1):
                ops.append(Op(f"liouville_verify(k={k}, level={level})",
                              lambda r=recipe, k=k, j=level: bounds.liouville_verify(r, k, j),
                              _is_true))
        ops.append(Op("verify_translation_params",
                      lambda: bounds.verify_translation_params(chain),
                      lambda notes: f"violations: {notes}" if notes else None))
        for s in stages:
            ops.append(Op(f"check_q_condition(stage={s.n})",
                          lambda s=s: bounds.check_q_condition(s.q, s.l, s.n), _is_true))
        for n in (1, 2, 3):
            # the circle stage schedule: A = 2^(2n+5) l^2, eps = 1/(3 2^(n+1)),
            # delta = 1/2^(n+1), for l = 4
            ops.append(Op(f"check_amplitude(stage={n})",
                          lambda n=n: bounds.check_amplitude(
                              2 ** (2 * n + 5) * 16, 4, Fraction(1, 3 * 2 ** (n + 1)),
                              Fraction(1, 2 ** (n + 1))),
                          _is_true))
        ops.append(Op("liouville_generate(levels=2, k_target=3)",
                      lambda: bounds.liouville_generate(2, 3), _returned,
                      known="OverflowError"))
        return ops

    def evals(self, state):
        stages, gaps, _, _ = state
        return [("ledger", 1,
                 lambda: bounds.convergence_ledger(stages, gaps).audit_text())]

    def structure(self, state) -> dict:
        return dict.fromkeys(STACK_COUNTS, 0)


WORKLOADS = {w.name: w for w in (Circle, Translation, Minimal, Ledger)}
