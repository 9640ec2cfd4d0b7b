"""Adversary behavior: certificate-driven play and the Rademacher witness."""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from smdim.adversaries import (
    ShatteringAdversary,
    SqrtTWitness,
    expected_abs_sign_sum,
    find_sqrt_witness,
    rademacher_stream,
)
from smdim.core import (
    HypothesisClass,
    Mixture,
    ProtocolError,
    ValidationError,
    VersionSpace,
    expected_loss,
    make_problem,
    validate_problem,
)
from smdim.dimensions import DimensionEngine, GammaValue
from smdim.game import AffineRow, best_response
from smdim.instances import builtin_names, make_builtin
from smdim.learners import UniformLearner
from smdim.verify import gen_multiclass

F = Fraction


def make_certificate(problem, cls, gamma):
    engine = DimensionEngine(problem, cls, gamma)
    return engine.certificate(VersionSpace.full(cls.num_hypotheses))


def binary_adversary(gamma=F(1, 4)):
    problem, cls = make_builtin("multiclass:binary-constants")
    cert = make_certificate(problem, cls, gamma)
    return problem, cls, ShatteringAdversary(problem, cls, cert)


class TestShatteringAdversary:
    def test_best_response_to_dirac(self):
        problem, cls, adv = binary_adversary()
        x = adv.next_instance()
        assert x == 0
        y, eps = adv.observe_mixture(Mixture.dirac(2, 0))
        assert (y, eps) == (1, None)
        assert adv.surviving_hypothesis() == 1

    def test_uniform_tie_breaks_to_lowest_candidate(self):
        problem, cls, adv = binary_adversary()
        adv.next_instance()
        y, _ = adv.observe_mixture(Mixture.uniform(2))
        assert y == 0
        assert adv.surviving_hypothesis() == 0

    def test_protocol_order_enforced(self):
        _, _, adv = binary_adversary()
        with pytest.raises(ProtocolError):
            adv.observe_mixture(Mixture.uniform(2))
        adv.next_instance()
        with pytest.raises(ProtocolError):
            adv.next_instance()
        adv.observe_mixture(Mixture.uniform(2))
        with pytest.raises(ProtocolError):
            adv.next_instance()  # depth 1 certificate is exhausted
        assert adv.remaining_depth == 0
        assert adv.rounds_played == 1

    def test_unmet_certificate_value_raises(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        cert = make_certificate(problem, cls, F(1, 4))
        key, node = next(iter(cert.nodes.items()))
        # No mixture lets the best response reach a value above the loss bound.
        inflated = replace(node, value=node.value + problem.bound_c + 1)
        forged = replace(cert, nodes={**cert.nodes, key: inflated})
        adv = ShatteringAdversary(problem, cls, forged)
        adv.next_instance()
        with pytest.raises(RuntimeError, match="certificate game value"):
            adv.observe_mixture(Mixture.uniform(2))

    def test_missing_child_node_is_a_validation_error(self):
        # All four hypotheses on two instances under 0-1 loss: dimension 2.
        problem = make_problem((0, 1), (0, 1), (0, 1), [[0, 1], [1, 0]], bound_c=1)
        problem, cls = validate_problem(
            problem, HypothesisClass(((0, 0), (0, 1), (1, 0), (1, 1)))
        )
        cert = make_certificate(problem, cls, F(1, 4))
        assert cert.depth == 2
        root = (cert.root.members, cert.depth)
        adv = ShatteringAdversary(problem, cls, replace(cert, nodes={root: cert.nodes[root]}))
        adv.next_instance()
        adv.observe_mixture(Mixture.uniform(2))
        with pytest.raises(ValidationError, match="certificate has no node"):
            adv.next_instance()

    def test_zero_depth_certificate_plays_nothing(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        cert = make_certificate(problem, cls, F(2))  # gamma above any gap
        adv = ShatteringAdversary(problem, cls, cert)
        assert adv.remaining_depth == 0
        with pytest.raises(ProtocolError):
            adv.next_instance()

    def test_per_round_gap_and_survivor_consistency(self):
        # Against arbitrary mixtures the adversary guarantees, every round,
        # expected loss at least gamma above the surviving hypothesis's loss.
        rng = random.Random(91)
        gamma = F(1, 4)
        checked = 0
        while checked < 12:
            problem, cls = gen_multiclass(rng)
            cert = make_certificate(problem, cls, gamma)
            if cert.depth == 0:
                continue
            checked += 1
            adv = ShatteringAdversary(problem, cls, cert)
            rounds = []
            for _ in range(cert.depth):
                x = adv.next_instance()
                weights = [F(rng.randrange(4)) for _ in range(problem.num_predictions)]
                if sum(weights) == 0:
                    weights[0] = F(1)
                total = sum(weights)
                mixture = Mixture(tuple(w / total for w in weights))
                y, eps = adv.observe_mixture(mixture)
                assert eps is None
                rounds.append((x, y, mixture))
            h = adv.surviving_hypothesis()
            for x, y, mixture in rounds:
                hypothesis_loss = problem.loss[y][cls.table[h][x]]
                assert expected_loss(problem, mixture, y) - hypothesis_loss >= gamma
            assert adv.remaining_depth == 0


@pytest.mark.parametrize("gamma", [F(1, 8), F(1, 4), F(1, 2)])
@pytest.mark.parametrize("name", builtin_names())
def test_answer_is_the_best_response_over_the_node_rows(name, gamma):
    # At every node, the adversary's (index, value) is what `best_response`
    # finds over the node's candidate rows. The node is replayed from a forged
    # copy in which candidate i leads to the space {i}, so the surviving
    # hypothesis names the index, and whose node value is the floor: below
    # every value the adversary answers, above every value it raises with the
    # value it reached.
    problem, cls = make_builtin(name)
    cert = make_certificate(problem, cls, gamma)
    width, bound = problem.num_predictions, problem.bound_c
    rng = random.Random(5)
    plays = [Mixture.uniform(width)] + [Mixture.dirac(width, z) for z in range(width)]
    for _ in range(3):
        raw = [F(rng.randrange(5), rng.choice((1, 3, 2**61))) for _ in range(width)]
        raw[0] += 1
        plays.append(Mixture(tuple(w / sum(raw) for w in raw)))

    def answer(key, node, mixture, floor):
        candidates = tuple((c, VersionSpace((i,))) for i, (c, _) in enumerate(node.candidates))
        forged = replace(node, value=floor, candidates=candidates)
        adv = ShatteringAdversary(
            problem,
            cls,
            replace(cert, root=node.space, depth=node.depth, nodes={key: forged}),
        )
        adv.next_instance()
        label, _ = adv.observe_mixture(mixture)
        return adv.surviving_hypothesis(), label

    checked = 0
    for key, node in cert.nodes.items():
        rows = [AffineRow(problem.loss[c.label], -c.threshold) for c, _ in node.candidates]
        for mixture in plays:
            index, value = best_response(mixture, rows)
            label = node.candidates[index][0].label
            assert answer(key, node, mixture, -bound - 1) == (index, label)
            with pytest.raises(RuntimeError, match=re.escape(f"best response reaches {value},")):
                answer(key, node, mixture, bound + 1)
            checked += 1
    assert checked == len(cert.nodes) * len(plays)


def reference_witnesses(problem, cls):
    """Every witness pattern in lex order of (x, h_minus, h_plus, y_minus,
    y_plus), by the definition read literally in Fraction arithmetic: each
    candidate takes its own min over the predictions."""
    table, loss = cls.table, problem.loss
    for x in range(problem.num_instances):
        for h_minus in range(cls.num_hypotheses):
            z_minus = table[h_minus][x]
            for h_plus in range(cls.num_hypotheses):
                if h_plus == h_minus:
                    continue
                z_plus = table[h_plus][x]
                for y_minus in range(problem.num_labels):
                    for y_plus in range(problem.num_labels):
                        gap_plus = loss[y_minus][z_plus] - loss[y_plus][z_plus]
                        gap_minus = loss[y_plus][z_minus] - loss[y_minus][z_minus]
                        eta = min(gap_plus, gap_minus)
                        if eta <= 0:
                            continue
                        combined = min(loss[y_minus][z] + loss[y_plus][z] for z in range(problem.num_predictions))
                        endpoint_avg = (
                            loss[y_minus][z_minus]
                            + loss[y_minus][z_plus]
                            + loss[y_plus][z_minus]
                            + loss[y_plus][z_plus]
                        ) / F(2)
                        if combined >= endpoint_avg:
                            yield SqrtTWitness(x, h_minus, h_plus, y_minus, y_plus, eta)


def reference_sqrt_witness(problem, cls):
    """The lex-first witness of the largest eta, from `reference_witnesses`."""
    best = None
    for w in reference_witnesses(problem, cls):
        if best is None or w.eta > best.eta:
            best = w
    return best


def random_witness_problem(rng, den):
    """A small problem with losses in {0, 1/den, ..., 1} and 2 to 5 hypotheses,
    whose predictions often repeat across instances and hypothesis pairs."""
    labels, predictions, instances = rng.randint(2, 3), rng.randint(2, 4), rng.randint(1, 3)
    loss = [[F(rng.randint(0, den), den) for _ in range(predictions)] for _ in range(labels)]
    problem = make_problem(tuple(range(instances)), tuple(range(labels)), tuple(range(predictions)), loss, bound_c=1)
    rows = {tuple(rng.randrange(predictions) for _ in range(instances)) for _ in range(rng.randint(2, 5))}
    return validate_problem(problem, HypothesisClass(tuple(sorted(rows))))


class TestSqrtWitness:
    @pytest.mark.parametrize(
        "name",
        [*builtin_names(), *(f"multilabel:k={k}" for k in range(1, 7)), "multiclass:m=4"],
    )
    def test_equals_the_reference_on_built_ins(self, name):
        problem, cls = make_builtin(name)
        assert find_sqrt_witness(problem, cls) == reference_sqrt_witness(problem, cls)

    def test_equals_the_reference_on_random_problems(self):
        # Ties in eta decide the lex-first rule, and a prediction pair met
        # again at a later (x, h_minus, h_plus) is the search's pair skip, so
        # the sweep must hold both. Every witness ties at least with its
        # mirror (x, h_plus, h_minus, y_plus, y_minus), which comes later.
        rng = random.Random(37)
        found = ties = repeats = 0
        for trial in range(600):
            problem, cls = random_witness_problem(rng, (1, 2, 4)[trial % 3])
            witnesses = list(reference_witnesses(problem, cls))
            expected = reference_sqrt_witness(problem, cls)
            assert find_sqrt_witness(problem, cls) == expected
            if expected is None:
                continue
            found += 1
            ties += sum(w.eta == expected.eta for w in witnesses) > 1
            triples = {(w.x, w.h_minus, w.h_plus) for w in witnesses}
            pairs = {(cls.table[h_minus][x], cls.table[h_plus][x]) for x, h_minus, h_plus in triples}
            repeats += len(pairs) < len(triples)
        assert (found, ties, repeats) == (102, 102, 56)

    def test_binary_constants_witness(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        w = find_sqrt_witness(problem, cls)
        assert w == SqrtTWitness(x=0, h_minus=0, h_plus=1, y_minus=0, y_plus=1, eta=F(1))

    def test_witness_conditions_hold_by_definition(self):
        for name in ("multiclass:binary-constants", "multilabel:pair-constants", "hilbert:orthonormal"):
            problem, cls = make_builtin(name)
            w = find_sqrt_witness(problem, cls)
            assert w is not None
            table = cls.table
            z_minus = table[w.h_minus][w.x]
            z_plus = table[w.h_plus][w.x]
            # condition (i): each label prefers its own hypothesis by eta
            assert problem.loss[w.y_minus][z_plus] - problem.loss[w.y_plus][z_plus] >= w.eta
            assert problem.loss[w.y_plus][z_minus] - problem.loss[w.y_minus][z_minus] >= w.eta
            # condition (ii): no prediction beats the endpoint average
            endpoint = (
                problem.loss[w.y_minus][z_minus]
                + problem.loss[w.y_minus][z_plus]
                + problem.loss[w.y_plus][z_minus]
                + problem.loss[w.y_plus][z_plus]
            ) / 2
            for z in range(problem.num_predictions):
                assert problem.loss[w.y_minus][z] + problem.loss[w.y_plus][z] >= endpoint

    def test_single_hypothesis_has_no_witness(self):
        problem = make_problem(("x0",), (0, 1), (0, 1), [[0, 1], [1, 0]], bound_c=1)
        problem, cls = validate_problem(problem, HypothesisClass(((0,),)))
        assert find_sqrt_witness(problem, cls) is None

    def test_stream_maps_signs_to_labels(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        w = find_sqrt_witness(problem, cls)
        stream = rademacher_stream(w, (1, -1, 1))
        assert [(e.x, e.y, e.eps) for e in stream] == [(0, 1, None), (0, 0, None), (0, 1, None)]
        assert rademacher_stream(w, ()) == ()
        with pytest.raises(ValidationError):
            rademacher_stream(w, (0,))

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, F(1), 0, 2])
    def test_a_sign_is_the_int_one_or_minus_one(self, sign):
        # True equals 1 and once played y_plus.
        problem, cls = make_builtin("multiclass:binary-constants")
        w = find_sqrt_witness(problem, cls)
        message = rf"^signs must be \+1 or -1, got {re.escape(repr(sign))}$"
        with pytest.raises(ValidationError, match=message):
            rademacher_stream(w, (1, sign))

    @pytest.mark.parametrize("rounds", [True, 2.0])
    def test_expected_abs_sign_sum_needs_an_int(self, rounds):
        with pytest.raises(ValidationError, match=rf"^rounds must be an int, got {rounds!r}$"):
            expected_abs_sign_sum(rounds)

    def test_expected_abs_sign_sum_closed_values(self):
        assert expected_abs_sign_sum(0) == F(0)
        assert expected_abs_sign_sum(1) == F(1)
        assert expected_abs_sign_sum(2) == F(1)
        assert expected_abs_sign_sum(3) == F(3, 2)
        # brute force over all sign vectors for a larger horizon
        rounds = 6
        total = F(0)
        for mask in range(2**rounds):
            total += abs(sum(1 if mask >> i & 1 else -1 for i in range(rounds)))
        assert expected_abs_sign_sum(rounds) == total / 2**rounds

    def test_uniform_play_realizes_half_gap_per_round(self):
        # Facing any sign stream from the witness, the uniform learner over
        # the two endpoint predictions pays (loss(y,z-) + loss(y,z+)) / 2,
        # which is at least eta/2 above the better endpoint each round.
        problem, cls = make_builtin("multiclass:binary-constants")
        w = find_sqrt_witness(problem, cls)
        learner = UniformLearner(problem, cls)
        for example in rademacher_stream(w, (1, -1)):
            x, y = example.x, example.y
            mixture = learner.predict(x)
            better = min(problem.loss[y][cls.table[h][x]] for h in (w.h_minus, w.h_plus))
            assert expected_loss(problem, mixture, y) - better >= w.eta / 2
