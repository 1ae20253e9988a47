"""Every walk verdict against `oracles.markov_oracle` on all 9,765 support
patterns at n = 5, with weights uniform in 1..4 drawn from seed 7, as the
tier-1 test `test_walk_verdicts_match_the_markov_oracle` does for n <= 4.

Outside tier-1 for its run time; pytest does not collect it (no test_
prefix).  From the repository root:

    PYTHONPATH=src python tests/markov_sweep.py

It prints the number of patterns checked and fails on the first mismatch.
"""

import random
import sys

from involute.walk import transition_matrix
from involute.weights import Custom

from oracles import _assert_verdicts_match_the_markov_oracle, support_patterns

N = 5


def main() -> int:
    if not __debug__:
        sys.exit("markov_sweep.py checks by assert: run it without -O")
    rng = random.Random(7)
    count = 0
    for pattern in support_patterns(N):
        table = {cell: rng.randint(1, 4) for cell in sorted(pattern)}
        _assert_verdicts_match_the_markov_oracle(transition_matrix(Custom(N, table), N))
        count += 1
    assert count == 9_765, count
    print(f"{count} support patterns at n = {N} match the markov oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
