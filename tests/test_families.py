"""The certified families of ``conndel.families``: each planted witness
is feasible, w_opt is a yes and w_opt + 1/2 a no.  At ROADMAP size the
certificate is the referee, and node ceilings guard the search's cuts on
the tight no's; at desk size the oracle referees the certificate too."""

import random

import pytest

from conndel.families import heavy_rim_hub, hook_gadget, planted_pair, random_biconnected_graph
from conndel.oracles import OracleBudget, oracle_wbd
from conndel.solver import SolveStats, solve, verify_solution

BIG = OracleBudget(max_vertices=16, max_edges=50, max_k=3)


def tight_no(family):
    """Check the family's yes and its tight no; the no's stats."""
    assert verify_solution(family.instance, family.witness)
    assert family.instance.weight_of(family.witness) == family.w_opt
    sol = solve(family.instance)
    assert sol is not None and verify_solution(family.instance, sol.edges)
    stats = SolveStats()
    assert solve(family.at(family.w_opt + 0.5), stats=stats) is None
    return stats


class TestAtRoadmapSize:
    """Bases of 260 vertices and about 870 edges, under the real mu(k)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "hooks, w_opt, ceiling",
        [((100.0, 80.0, 79.0), 160.0, 10), ((100.0, 90.0, 80.0, 79.0), 220.0, 20)],
    )
    def test_hook_gadgets(self, seed, hooks, w_opt, ceiling):
        # The K4 gadget's tight no took 4,774 nodes while branch children
        # could delete the siblings tried before them; it takes 4 now, and
        # the four-hook gadget's 9, at depth 2.
        rng = random.Random(seed)
        gadget = hook_gadget(rng, random_biconnected_graph(rng, 260, 600), 3, hooks)
        assert gadget.w_opt == w_opt
        assert tight_no(gadget).nodes <= ceiling

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_planted_pairs(self, k):
        # The degree rule decides the tight no before the root's DFS.
        rng = random.Random(k)
        pair = planted_pair(rng, random_biconnected_graph(rng, 260, 600), k)
        assert pair.w_opt == 159.0 + 30.0 * (k - 2)
        stats = tight_no(pair)
        assert (stats.nodes, stats.decided_before_dfs) == (1, 1)


class TestAtDeskSize:
    @staticmethod
    def against_oracle(family):
        tight_no(family)
        assert oracle_wbd(family.at(0.0), BIG).weight == family.w_opt

    @pytest.mark.parametrize("seed", range(6))
    def test_hook_gadgets(self, seed):
        rng = random.Random(seed)
        for h in (2, 3, 4):
            for k in (1, 2, 3):
                hooks = [float(w) for w in rng.sample(range(30, 61), h)]
                base = random_biconnected_graph(rng, 6, 2)
                self.against_oracle(hook_gadget(rng, base, k, hooks, light=(0, 29)))

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_pairs(self, seed):
        rng = random.Random(seed)
        for k in (2, 3):
            self.against_oracle(planted_pair(rng, random_biconnected_graph(rng, 7, 3), k))

    @pytest.mark.parametrize("k", [2, 3])
    def test_heavy_rim_hubs(self, k):
        for pos in range(8):
            self.against_oracle(heavy_rim_hub(7, k, pos))
