"""Differential: block-at-a-time path masks against the slot-wise loop.

:meth:`PathLoss.sample` draws a block's slots as int bitmasks — AND
over a path's edges, OR over the leaf's paths, duplicates as popcount
differences.  :class:`SlotwisePathLoss` keeps the slot-by-slot loop it
replaced as the oracle: one ``is_lost()`` per slot, asking the bank
edge by edge through ``all(...)``.  Both must see the same slots and
count the same suppressed duplicates, whatever the topology, edge
model, rate, cursor position, or the order other leaves ask the
shared bank in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.loss import LossModel
from repro.topology import (
    EDGE_LOSS_MODELS,
    EdgeLossBank,
    PathLoss,
    dualspine_topology,
    redundant_trees,
    star_topology,
    union_paths,
)

LEAVES = [f"r{i:02d}" for i in range(8)]


class SlotwisePathLoss(PathLoss):
    """The slot-by-slot delivery loop, kept as the mask path's oracle."""

    def is_lost(self) -> bool:
        slot = self._cursor
        self._cursor += 1
        up_paths = 0
        for path in self.paths:
            if all(self.bank.up(edge, self.block_id, self.base_rate, slot)
                   for edge in path):
                up_paths += 1
        if up_paths > 1:
            self.duplicates_suppressed += up_paths - 1
        return up_paths == 0

    def sample(self, count):
        return LossModel.sample(self, count)


@st.composite
def shapes(draw):
    """``(topology, trees)``: a star, or dualspine:4 with 1-3 trees."""
    if draw(st.booleans()):
        return star_topology(LEAVES), 1
    # A leaf scale above 1 makes high rates clamp at the last hop.
    scale = draw(st.sampled_from([1.0, 3.0]))
    topology = dualspine_topology(LEAVES, 4, leaf_scale=scale)
    return topology, draw(st.integers(min_value=1, max_value=3))


#: Base rates: the degenerate 0 and 1, 0.5 (clamps to 1 on a
#: 3x-scaled edge), and rates low enough that even a 3x-scaled edge
#: stays a feasible Gilbert-Elliott pair at mean burst 4.
rates = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                  st.floats(min_value=0.0, max_value=0.26))


class TestMaskMatchesSlotwise:
    @given(shape=shapes(), model=st.sampled_from(EDGE_LOSS_MODELS),
           rate=rates, seed=st.integers(min_value=0, max_value=2 ** 20),
           block=st.integers(min_value=0, max_value=5),
           leaves=st.lists(st.integers(min_value=0, max_value=7),
                           min_size=2, max_size=2, unique=True),
           advance=st.integers(min_value=0, max_value=20),
           count=st.integers(min_value=0, max_value=40),
           other_first=st.booleans(),
           other_count=st.integers(min_value=1, max_value=80),
           other_block=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_sample_equals_slotwise_calls(self, shape, model, rate, seed,
                                          block, leaves, advance, count,
                                          other_first, other_count,
                                          other_block):
        topology, k = shape
        trees = redundant_trees(topology, k)
        paths = [union_paths(trees, topology.leaves[i]) for i in leaves]
        # The second leaf asks the shared bank before or after the
        # first, possibly far ahead, possibly about the next block
        # (which drops the bank's cached cells).
        second_block = block + 1 if other_block else block

        def run(cls, per_slot):
            bank = EdgeLossBank(topology, seed, model=model)
            first = cls(bank, block, paths[0], rate)
            second = cls(bank, second_block, paths[1], rate)

            def draw(loss, n):
                if per_slot:
                    return [loss.is_lost() for _ in range(n)]
                return loss.sample(n)

            out = []
            if other_first:
                out.append(draw(second, other_count))
            out.append(draw(first, advance))  # cursor now mid-block
            out.append(draw(first, count))
            if not other_first:
                out.append(draw(second, other_count))
            return out, (first.duplicates_suppressed,
                         second.duplicates_suppressed)

        assert run(PathLoss, False) == run(SlotwisePathLoss, True)

    @given(shape=shapes(), model=st.sampled_from(EDGE_LOSS_MODELS),
           rate=rates, seed=st.integers(min_value=0, max_value=2 ** 20),
           leaf=st.integers(min_value=0, max_value=7),
           slots=st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_is_lost_is_one_slot_sample(self, shape, model, rate, seed,
                                        leaf, slots):
        topology, k = shape
        paths = union_paths(redundant_trees(topology, k),
                            topology.leaves[leaf])
        mask = PathLoss(EdgeLossBank(topology, seed, model=model), 0,
                        paths, rate)
        oracle = SlotwisePathLoss(EdgeLossBank(topology, seed, model=model),
                                  0, paths, rate)
        assert ([mask.is_lost() for _ in range(slots)]
                == [oracle.is_lost() for _ in range(slots)])
        assert mask.duplicates_suppressed == oracle.duplicates_suppressed
